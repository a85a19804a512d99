"""End-to-end acceptance checks for the shipped toolkit.

Each test prints one PASS/FAIL line naming the property it guards, so a
full run doubles as a release report. The shipped experiment configuration
(configs/experiment.json) drives the pipeline-level checks.
"""

import dataclasses
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from kernelcc.cli import main
from kernelcc.config import load_config
from kernelcc.data import ControlLibrary, Dataset, generate_dataset
from kernelcc.embedding import cross_matrix, fit
from kernelcc.kernels import (
    KernelSpec,
    ProductFeatures,
    gram_product,
    spd_factor,
    spd_solve,
)
from kernelcc.scenario import GoalSet, Scenario
from kernelcc.solver import (
    LPInstance,
    assemble,
    solve_lp,
)
from kernelcc.systems import (
    DisturbanceSpec,
    ParamPrior,
    PlanarQuadrotor,
)
from reference import brute_oracle, kernel_matrix

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIG = ROOT / "configs" / "experiment.json"


def estimate(model, gvals, x0, u):
    """Embedding estimate of E[g(X) | x0, u] for one query, a batch of one."""
    return float(gvals @ spd_solve(model.factor, cross_matrix(model, x0, [u]))[:, 0])


def report(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"acceptance {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


@pytest.fixture(scope="module")
def shipped_run(tmp_path_factory):
    """One full experiment run on the shipped config, with its wall time."""
    out = tmp_path_factory.mktemp("shipped_run")
    start = time.monotonic()
    rc = main(["experiment", "--config", str(SHIPPED_CONFIG), "--out-dir", str(out)])
    elapsed = time.monotonic() - start
    return out, rc, elapsed


class TestDeltaSweepReproduction:
    def test_rates_meet_floors_within_wall_budget(self, shipped_run):
        out, rc, elapsed = shipped_run
        cfg = load_config(SHIPPED_CONFIG)
        scale_ok = (
            cfg.dataset.num_samples == 1000
            and cfg.library.num_sequences == 1000
            and cfg.scenario.horizon == 15
            and cfg.trials == 1000
            and cfg.deltas == (0.05, 0.1, 0.2, 0.3)
        )
        rows = json.loads((out / "summary.json").read_text())["rows"]
        checks = []
        for row in rows:
            floor = 1.0 - row["delta"] - 0.03
            checks.append(
                (row["delta"], row["success_rate"], floor,
                 row["status"] == "optimal" and row["success_rate"] >= floor)
            )
        ok = (
            rc == 0
            and scale_ok
            and elapsed < 300.0
            and len(checks) == 4
            and all(c[3] for c in checks)
        )
        detail = (
            "rates "
            + ", ".join(f"{r:.3f}>={f:.2f}" for _, r, f, _ in checks)
            + f"; wall {elapsed:.1f}s of 300s"
        )
        line = report(1, "delta-sweep reproduction", ok, detail)
        assert ok, line


def staircase_instance():
    """Deterministic assembled instance with estimates straddling each level.

    Five control sequences, each observed 25 times at the same initial
    state with success counts 14, 21, 23, 24, 25 of 25, give safety
    estimates of 0.56, 0.84, 0.92, 0.96, 1.00 up to the tiny ridge shrink.
    Control effort grows with safety, so tightening the risk budget forces
    strictly costlier mixtures.
    """
    horizon, m, n, block = 4, 2, 4, 25
    successes = [14, 21, 23, 24, 25]
    num_seq = len(successes)
    sequences = np.zeros((num_seq, horizon, m))
    for j in range(num_seq):
        sequences[j, :, 0] = 3.0 * j
    lib = ControlLibrary(sequences, master_seed=0, config_digest="staircase")

    good = np.zeros((horizon, n))
    good[-1] = [5.0, 0.0, 5.0, 0.0]
    # ends 2.5 above the goal center: outside the radius-2 ball, barely
    bad = np.zeros((horizon, n))
    bad[-1] = [5.0, 0.0, 7.5, 0.0]
    x0s, controls, trajectories = [], [], []
    for j, s in enumerate(successes):
        for i in range(block):
            x0s.append(np.zeros(n))
            controls.append(sequences[j])
            trajectories.append(good if i < s else bad)
    ds = Dataset(
        initial_states=np.array(x0s),
        controls=np.array(controls),
        trajectories=np.array(trajectories),
        master_seed=0,
        config_digest="staircase",
    )
    model = fit(
        ds,
        KernelSpec(bandwidth=1.0),
        KernelSpec(bandwidth=2.0),
        lam=1e-9,
    )
    sc = Scenario(
        horizon=horizon,
        delta=0.5,
        goal=GoalSet(center=np.array([5.0, 5.0]), radius=2.0),
    )
    return assemble(model, sc, lib, np.zeros(n))


class TestRiskCostMonotonicity:
    def test_objective_non_increasing_in_delta(self):
        inst = staircase_instance()
        deltas = (0.01, 0.05, 0.1, 0.2, 0.5)
        objectives = []
        statuses = []
        for delta in deltas:
            res = solve_lp(dataclasses.replace(inst, threshold=1.0 - delta))
            statuses.append(res.status)
            objectives.append(res.objective)
        feasible = all(s == "optimal" for s in statuses)
        monotone = all(
            objectives[i + 1] <= objectives[i] + 1e-9
            for i in range(len(deltas) - 1)
        )
        ok = feasible and monotone
        detail = "objectives " + ", ".join(
            f"{delta}:{obj:.3f}" for delta, obj in zip(deltas, objectives)
        )
        line = report(2, "risk-cost monotonicity", ok, detail)
        assert ok, line


class TestLpOracleEquivalence:
    def test_hundred_random_instances(self):
        rng = np.random.default_rng(20240817)
        worst_gap, worst_residual, max_support = 0.0, 0.0, 0
        agreed = 0
        for _ in range(100):
            p = int(rng.integers(1, 51))
            cost = rng.normal(0.0, 100.0, size=p)
            safety = rng.uniform(-0.2, 1.2, size=p)
            threshold = float(rng.uniform(0.5, 0.99))
            inst = LPInstance(cost_row=cost, safety_row=safety, threshold=threshold)
            with warnings.catch_warnings():
                # random safety rows legitimately trip the above-one
                # diagnostic; the check here is solver agreement
                warnings.simplefilter("ignore", RuntimeWarning)
                fast = solve_lp(inst)
                slow = brute_oracle(inst)
            if fast.status != slow.status:
                continue
            agreed += 1
            if fast.status == "optimal":
                worst_gap = max(worst_gap, abs(fast.objective - slow.objective))
                worst_residual = max(
                    worst_residual, abs(float(fast.weights.sum()) - 1.0)
                )
                max_support = max(max_support, len(fast.support))
                if np.any(fast.weights < 0.0):
                    worst_residual = np.inf
        ok = (
            agreed == 100
            and worst_gap <= 1e-9
            and worst_residual <= 1e-9
            and max_support <= 2
        )
        detail = (
            f"100/100 statuses agree, objective gap {worst_gap:.2e}, "
            f"simplex residual {worst_residual:.2e}, support <= {max_support}"
        )
        line = report(3, "LP oracle equivalence", ok, detail)
        assert ok, line


# the median pairwise distances of the initial states and of the flattened
# controls of the interpolation dataset, as bandwidths
INTERPOLATION_KERNELS = (
    KernelSpec(bandwidth=0.5281172784461637),
    KernelSpec(bandwidth=1.7736721051910553),
)


class TestEmbeddingInterpolation:
    def test_training_queries_and_algebra(self):
        model_sys = PlanarQuadrotor(
            prior=ParamPrior.point(1.0, 0.3), disturbance=DisturbanceSpec.zero(4)
        )
        from kernelcc.data import DatasetGenConfig

        ds = generate_dataset(
            DatasetGenConfig(num_samples=20, horizon=6), model_sys, master_seed=13
        )
        model = fit(
            ds,
            *INTERPOLATION_KERNELS,
            lam=1e-10,
        )
        rng = np.random.default_rng(0)
        g1 = rng.normal(size=20)
        g2 = rng.uniform(size=20)
        worst = 0.0
        for i in range(20):
            x0, u = ds.initial_states[i], ds.controls[i]
            worst = max(worst, abs(estimate(model, g1, x0, u) - g1[i]))
            worst = max(worst, abs(estimate(model, g2, x0, u) - g2[i]))
        interpolates = worst <= 1e-3

        x0q, uq = ds.initial_states[7], ds.controls[7]
        combo = estimate(model, 2.5 * g1 - 0.75 * g2, x0q, uq)
        parts = 2.5 * estimate(model, g1, x0q, uq) - 0.75 * (
            estimate(model, g2, x0q, uq)
        )
        lin_err = abs(combo - parts) / max(abs(combo), 1.0)
        linear = lin_err <= 1e-12

        perm = np.random.default_rng(1).permutation(20)
        ds_perm = Dataset(
            initial_states=ds.initial_states[perm],
            controls=ds.controls[perm],
            trajectories=ds.trajectories[perm],
            master_seed=ds.master_seed,
            config_digest=ds.config_digest,
        )
        model_perm = fit(
            ds_perm,
            *INTERPOLATION_KERNELS,
            lam=1e-10,
        )
        a = estimate(model, g1, x0q, uq)
        b = estimate(model_perm, g1[perm], x0q, uq)
        perm_err = abs(a - b) / max(abs(a), 1.0)
        permutes = perm_err <= 1e-12

        ok = interpolates and linear and permutes
        detail = (
            f"training-query error {worst:.2e} (tol 1e-3), linearity "
            f"{lin_err:.2e}, permutation {perm_err:.2e} (tol 1e-12)"
        )
        line = report(4, "embedding interpolation", ok, detail)
        assert ok, line


class TestNumericalCore:
    def test_gram_properties_and_factorization_at_scale(self):
        cfg = load_config(SHIPPED_CONFIG)
        from dataclasses import replace

        ds = generate_dataset(
            replace(cfg.dataset, num_samples=2500), cfg.model, master_seed=77
        )
        x0, u = ds.initial_states, ds.flattened_controls()
        ridge = 1e-7 * 2500
        features = ProductFeatures.build(x0, u, cfg.state_kernel, cfg.control_kernel)
        packed = gram_product(features, ridge=ridge)
        # the dense product kernel matrix of cdist, regularized, as a
        # reference: gram_product stores its lower triangle in rectangular
        # full packed form, to rounding
        reference = kernel_matrix(cfg.state_kernel, x0, x0)
        reference *= kernel_matrix(cfg.control_kernel, u, u)
        sym_err = float(np.max(np.abs(reference - reference.T)))
        diag_err = float(np.max(np.abs(np.diag(reference) - 1.0)))
        reference.flat[::2501] += ridge
        expected, _ = lapack.dtrttf(reference, transr="N", uplo="L")
        del reference
        layout_err = float(np.max(np.abs(packed - expected) / expected))
        del expected
        regularized, _ = lapack.dtfttr(2500, packed, transr="N", uplo="L")
        regularized = np.tril(regularized) + np.tril(regularized, -1).T
        factor = spd_factor(packed)
        rhs = np.random.default_rng(3).normal(size=2500)
        solution = spd_solve(factor, rhs)
        residual = float(np.max(np.abs(regularized @ solution - rhs)))
        ok = (
            sym_err == 0.0
            and diag_err == 0.0
            and layout_err <= 1e-12
            and residual <= 1e-8
        )
        detail = (
            f"M=2500: reference symmetry gap {sym_err:.1e}, diagonal gap "
            f"{diag_err:.1e}, packed layout relative gap {layout_err:.1e} "
            f"(tol 1e-12), solve residual {residual:.2e} (tol 1e-8)"
        )
        line = report(5, "numerical core soundness", ok, detail)
        assert ok, line


class TestReproducibility:
    def test_second_run_is_byte_identical(self, shipped_run, tmp_path):
        out_a, _, _ = shipped_run
        out_b = tmp_path / "again"
        rc = main(
            ["experiment", "--config", str(SHIPPED_CONFIG), "--out-dir", str(out_b)]
        )
        names = ["dataset.jsonl"]
        names += sorted(p.name for p in out_a.glob("policy_delta_*.json"))
        names += sorted(p.name for p in out_a.glob("report_delta_*.json"))
        mismatched = [
            name
            for name in names
            if (out_a / name).read_bytes() != (out_b / name).read_bytes()
        ]
        # the trajectory CSVs keep the first trials only, so a run stays small
        size = sum(p.stat().st_size for p in out_a.iterdir())
        ok = rc == 0 and len(names) == 9 and not mismatched and size < 2e6
        detail = (
            f"{len(names)} files compared, "
            + ("all byte-identical" if not mismatched else f"differ: {mismatched}")
            + f"; output {size / 1e6:.2f} MB of 2 MB"
        )
        line = report(6, "reproducibility", ok, detail)
        assert ok, line


class TestPriorStatistics:
    def test_beta_prior_sample_means(self):
        rng = np.random.default_rng(424242)
        # rows of (mass, drag) uniforms, drawn mass first as a stream draws them
        draws = ParamPrior().quantile(rng.random((10**5, 2)))
        mass_mean, drag_mean = draws.mean(axis=0)
        mass_err = abs(mass_mean - 1.0)
        drag_err = abs(drag_mean - (0.4 + 0.2 * 2.0 / 7.0))
        ok = mass_err < 0.002 and drag_err < 0.002
        detail = (
            f"mass mean {mass_mean:.5f} (err {mass_err:.2e}), drag mean "
            f"{drag_mean:.5f} (err {drag_err:.2e}), tol 0.002"
        )
        line = report(7, "prior sample means", ok, detail)
        assert ok, line
