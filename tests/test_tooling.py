"""Checks that the benchmark's tracer still finds the names it patches.

``perfbench/tracing.py`` wraps functions at the names the program's modules
import from one another. A refactor that renames or stops importing one of
them breaks ``perfbench/run.py --trace 1``; these tests catch that here.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name):
    """Import ``perfbench/<name>.py``, which is a script, not a package module."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass of the module looks its module up by name while it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_perfbench("tracing")
WRAPPED = TRACING_MODULE.WRAPPED_FUNCTIONS


@pytest.mark.parametrize(
    "module_name, attr",
    [(module_name, attr) for module_name, attr, _ in WRAPPED],
    ids=[f"{module_name}.{attr}" for module_name, attr, _ in WRAPPED],
)
def test_wrapped_function_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_content_digest_is_a_property():
    from kernelcc.data import ControlLibrary

    assert isinstance(ControlLibrary.content_digest, property)


def test_solve_lp_hook_reads_a_real_instance():
    # the hook counts pairs from safety_row, threshold and num_sequences, so a
    # renamed LPInstance field fails here rather than in a traced benchmark run
    from kernelcc.solver import LPInstance

    before, _ = TRACING_MODULE.SPAN_HOOKS["solver.solve_lp"]
    inst = LPInstance(
        cost_row=[1.0, 2.0, 3.0, 4.0], safety_row=[0.5, 0.6, 0.9, 0.95], threshold=0.8
    )
    tracer = TRACING_MODULE.Tracer()
    before(tracer, (inst,))
    assert tracer.counters["solver.pair_candidates"] == 4


def test_checker_runs_on_a_small_directory(tmp_path):
    # the benchmark's checker rebuilds the LP rows with the program's own
    # names; loading it and running it on a directory fails here, not in the
    # benchmark, when one of them is renamed
    from kernelcc.cli import main

    check = load_perfbench("check")
    raw = json.loads((ROOT / "configs" / "experiment.json").read_text())
    raw["dataset"]["num_samples"] = 40
    raw["library"]["grid_resolution"] = [2, 1]
    # a goal ball around every trajectory makes the solve feasible
    raw["scenario"].update(deltas=[0.3], obstacles=[])
    raw["scenario"]["goal"]["radius"] = 50.0
    raw["montecarlo"]["trials"] = 30
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out-dir", str(out)]) == 0
    result = check.check_directory(str(config), out)
    assert result["failures"] == []
    assert result["estimate_gap"] is not None


def test_traced_experiment_counts_one_sweep_of_trials(tmp_path, monkeypatch):
    # install the tracer the way a traced benchmark run does; its hooks read
    # run_monte_carlo's trial count and trajectories_to_csv's file path by
    # position, so a signature change fails here, and it patches names after
    # import, so a caller that kept the unpatched functions fails here too
    from kernelcc.cli import main
    from kernelcc.data import ControlLibrary

    for module_name, attr, _ in WRAPPED:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.setattr(ControlLibrary, "content_digest", ControlLibrary.content_digest)
    tracer = TRACING_MODULE.Tracer()
    TRACING_MODULE.install(tracer)
    raw = json.loads((ROOT / "configs" / "experiment.json").read_text())
    raw["dataset"]["num_samples"] = 40
    raw["library"]["grid_resolution"] = [2, 1]
    raw["scenario"].update(deltas=[0.3, 0.4], obstacles=[])
    raw["scenario"]["goal"]["radius"] = 50.0
    raw["montecarlo"]["trials"] = 30
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out-dir", str(out)]) == 0
    figures = tracer.layer_figures()
    csv_files = sorted(out.glob("trajectories_delta_*.csv"))
    assert len(csv_files) == 2
    assert figures["policy.trials"] == 30
    assert figures["policy.csv_bytes"] == sum(p.stat().st_size for p in csv_files)
    # the cold run builds and saves each input once through the patched
    # names; a rerun finds both current by their headers and parses neither
    names = [span[0] for span in tracer.spans]
    for kind in ("dataset", "library"):
        for step in ("generate", "save"):
            assert names.count(f"data.{step}_{kind}") == 1, (step, kind)
    tracer.reset()
    assert main(["experiment", "--config", str(config), "--out-dir", str(out)]) == 0
    assert not [s for s in tracer.spans if s[0].startswith("data.load_")]
    # the benchmark's resolve: solve on the current directory parses each
    # input once through the patched names, builds neither, and rewrites
    # every policy with the bytes it had
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    tracer.reset()
    assert main(["solve", "--config", str(config), "--out-dir", str(out)]) == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("data.load_dataset") == names.count("data.load_library") == 1
    assert not [n for n in names if n.startswith(("data.generate_", "data.save_"))]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# the dataset and library keys of each benchmark workload's config at seed 101
WORKLOAD_KEYS = {
    "wide_library": (
        "b13d7ffcaf0d385debaa07cd2c12b8e321c3a86484bbae65f9d911116f529504",
        "36622c9853a7a96f28b3ac81f82e49b782105c4be6d5240e009b7bd347fb02de",
    ),
    "deep_dataset": (
        "9903970b6500ff0d932e6fca12535f8a95636e8b76ac7a31a60ea59e124902e3",
        "a2dbb1e7bd2a07aaaede24183b2eda4bd5b893ee1e6f429277e5a6e1e58f4a64",
    ),
    "toy": (
        "8f5fa5909e8da4417b5931792f2500fda558e4029c28f3515159d8a8ed87a448",
        "a2dbb1e7bd2a07aaaede24183b2eda4bd5b893ee1e6f429277e5a6e1e58f4a64",
    ),
}


def test_workload_configs_parse_to_pinned_keys(monkeypatch):
    # the benchmark writes each workload's config from the shipped one; a
    # parser change that rejects one, or moves its keys (and so the bytes the
    # benchmark compares), fails here rather than as a failed benchmark run
    from kernelcc.config import parse_config
    from kernelcc.data import dataset_key, library_key

    monkeypatch.chdir(ROOT)  # workload_config reads configs/ from the cwd
    run = load_perfbench("run")
    assert set(run.ALL_WORKLOADS) == set(WORKLOAD_KEYS)
    for name, keys in WORKLOAD_KEYS.items():
        cfg = parse_config(json.loads(run.workload_config(name, 101)))
        assert (
            dataset_key(cfg.dataset, cfg.model),
            library_key(cfg.library, cfg.model),
        ) == keys, name


# the content digest of each benchmark workload's library at seed 101; the
# keys above cover its config, and this its sequences, so a change to their
# enumeration order or their rollout shows here
WORKLOAD_LIBRARY_DIGESTS = {
    "wide_library": "175bd0fde803861f3120ef74a8beb629b433f6be018a0af84f6f98272f32ff26",
    "deep_dataset": "a4432963a653f035f2279b5816948c541585607f134c7553fcc25535bfe71c37",
    "toy": "a4432963a653f035f2279b5816948c541585607f134c7553fcc25535bfe71c37",
}


def test_workload_libraries_hold_pinned_sequences(monkeypatch):
    from kernelcc.config import parse_config
    from kernelcc.data import generate_library

    monkeypatch.chdir(ROOT)  # workload_config reads configs/ from the cwd
    run = load_perfbench("run")
    assert set(run.ALL_WORKLOADS) == set(WORKLOAD_LIBRARY_DIGESTS)
    for name, digest in WORKLOAD_LIBRARY_DIGESTS.items():
        cfg = parse_config(json.loads(run.workload_config(name, 101)))
        lib = generate_library(cfg.library, cfg.model)
        assert lib.content_digest == digest, name


def fit_tiny_dataset():
    from kernelcc.data import Dataset
    from kernelcc.embedding import fit
    from kernelcc.kernels import KernelSpec

    rng = np.random.default_rng(0)
    ds = Dataset(
        rng.normal(size=(6, 4)),
        rng.uniform(size=(6, 3, 2)),
        rng.normal(size=(6, 3, 4)),
        master_seed=0,
        config_digest="test",
    )
    unit = KernelSpec(bandwidth=1.0)
    return fit(ds, unit, unit, lam=1e-3)


def test_fit_calls_the_traced_kernel_names_once_each(monkeypatch):
    # the tracer times fit's Gram build and factorization at these two names;
    # a fit that bypasses them would report zero time for both
    from kernelcc import embedding

    calls = {}
    for name in ("gram_product", "spd_factor"):
        original = getattr(embedding, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(embedding, name, counted)
    fit_tiny_dataset()
    assert calls == {"gram_product": 1, "spd_factor": 1}


def test_fit_builds_the_features_once(monkeypatch):
    # the Gram matrix and every cross-kernel block come from the one set of
    # features the fit keeps
    from kernelcc.kernels import ProductFeatures

    builds = []
    build = ProductFeatures.build

    def counted(*args):
        builds.append(build(*args))
        return builds[-1]

    monkeypatch.setattr(ProductFeatures, "build", counted)
    model = fit_tiny_dataset()
    assert len(builds) == 1 and builds[0] is model.features


def test_fit_factors_the_gram_buffer_in_place(monkeypatch):
    # fit owns the packed buffer gram_product returns; a copy in between, or
    # a factor that copies, brings back a second buffer
    from kernelcc import embedding

    seen = {}
    gram_product = embedding.gram_product

    def recording_gram_product(*args, **kwargs):
        seen["gram"] = gram_product(*args, **kwargs)
        return seen["gram"]

    monkeypatch.setattr(embedding, "gram_product", recording_gram_product)
    model = fit_tiny_dataset()
    # one packed triangle of the six samples' Gram matrix, not 6 x 6
    assert seen["gram"].size == 6 * 7 // 2
    assert np.shares_memory(model.factor.packed_factor, seen["gram"])


def test_assemble_calls_the_traced_cross_matrix_once_per_block(monkeypatch):
    # the tracer times the cross-kernel build at kernelcc.solver.cross_matrix;
    # an assemble that builds the whole M x P matrix in one call fails here
    from kernelcc import solver
    from kernelcc.data import ControlLibrary
    from kernelcc.scenario import GoalSet, Scenario

    model = fit_tiny_dataset()
    lib = ControlLibrary(np.random.default_rng(1).uniform(size=(11, 3, 2)), 0, "lib")
    sc = Scenario(horizon=3, delta=0.2, goal=GoalSet(center=np.zeros(2), radius=1.0))
    # six samples, so blocks of four library columns
    monkeypatch.setattr(solver, "_CROSS_BLOCK_ELEMENTS", 24)
    columns = []
    cross_matrix = solver.cross_matrix

    def counted(model, x0, controls):
        columns.append(len(controls))
        return cross_matrix(model, x0, controls)

    monkeypatch.setattr(solver, "cross_matrix", counted)
    solver.assemble(model, sc, lib, np.zeros(4))
    assert columns == [4, 4, 3]
