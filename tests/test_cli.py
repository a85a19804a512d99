"""Tests for the command-line front end."""

import base64
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kernelcc.cli
import kernelcc.data
from kernelcc.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    main,
)
from kernelcc.config import parse_config
from kernelcc.data import generate_dataset, generate_library
from kernelcc.serialize import canonical_json
from kernelcc.solver import LPInstance


def small_raw(deltas=(0.3,), regularization=1e-4, trials=30):
    return {
        "seed": 5,
        "system": {"dt": 0.1},
        "dataset": {
            "num_samples": 40,
            "x0_low": [-0.5, -0.05, -0.5, -0.05],
            "x0_high": [0.5, 0.05, 0.5, 0.05],
            "control_low": [0.0, 0.0],
            "control_high": [2.0, 2.0],
            "num_random_steps": 2,
            "feedback": {"kp": 12.0, "kd": 2.0},
            "target": [10.0, 0.0, 10.0, 0.0],
            "tail_params": "nominal",
        },
        "library": {
            "grid_resolution": [2, 1],
            "control_low": [0.0, 0.0],
            "control_high": [2.0, 2.0],
            "num_random_steps": 2,
            "feedback": {"kp": 12.0, "kd": 2.0},
            "target": [10.0, 0.0, 10.0, 0.0],
            "initial_state": [0.0, 0.0, 0.0, 0.0],
            "nominal_mass": 1.0,
            "nominal_drag": 0.457,
        },
        "kernel": {
            "state": {"bandwidth": 10.0},
            "control": {"bandwidth": 0.1},
        },
        "embedding": {"regularization": regularization},
        "scenario": {
            "horizon": 8,
            "deltas": list(deltas),
            # a huge goal ball makes every trajectory a success, so the
            # solve is feasible by construction
            "goal": {"center": [3.0, 3.0], "radius": 50.0},
            "obstacles": [],
        },
        "initial_state": [0.0, 0.0, 0.0, 0.0],
        "montecarlo": {"trials": trials, "seed": 77},
    }


def write_config(tmp_path, raw, name="cfg.json"):
    """The config file of raw, a JSON value or, as it is, the text of one."""
    path = tmp_path / name
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    return path


def test_import_leaves_scipy_spatial_out():
    # kernels come from one BLAS product, not cdist; a fresh interpreter
    # shows what importing the command line loads
    src = str(Path(kernelcc.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, kernelcc.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


class TestExperiment:
    def test_full_pipeline_files(self, tmp_path):
        cfg = write_config(tmp_path, small_raw(deltas=(0.3, 0.4)))
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == EXIT_OK
        for name in (
            "dataset.jsonl",
            "library.jsonl",
            "policy_delta_0.3.json",
            "policy_delta_0.4.json",
            "report_delta_0.3.json",
            "report_delta_0.4.json",
            "trajectories_delta_0.3.csv",
            "summary.csv",
            "summary.json",
        ):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["rows"]) == 2
        assert [row["delta"] for row in summary["rows"]] == [0.3, 0.4]
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header.startswith("delta,status,objective,success_rate")

    def test_single_delta_config_gives_one_row(self, tmp_path):
        cfg = write_config(tmp_path, small_raw())
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["rows"]) == 1

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, small_raw(deltas=(0.3, 0.4)))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["experiment", "--config", str(cfg), "--out-dir", str(out_a)])
        main(["experiment", "--config", str(cfg), "--out-dir", str(out_b)])
        for path_a in sorted(out_a.iterdir()):
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name

    def test_cached_rerun_skips_stages(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_raw())
        out = tmp_path / "out"
        main(["experiment", "--config", str(cfg), "--out-dir", str(out)])
        before = (out / "dataset.jsonl").stat().st_mtime_ns
        capsys.readouterr()
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "cached" in text
        assert (out / "dataset.jsonl").stat().st_mtime_ns == before

    def test_config_change_invalidates_cache(self, tmp_path, capsys):
        raw = small_raw()
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        main(["experiment", "--config", str(cfg), "--out-dir", str(out)])
        raw["dataset"]["num_samples"] = 41
        cfg2 = write_config(tmp_path, raw, name="cfg2.json")
        capsys.readouterr()
        main(["experiment", "--config", str(cfg2), "--out-dir", str(out)])
        text = capsys.readouterr().out
        assert "dataset: 41 samples" in text

    def test_zero_randomized_steps_give_one_sequence(self, tmp_path, capsys):
        # the library's one sequence is the feedback law from x0; a dataset
        # of the same law covers it, so the solve is feasible
        raw = small_raw()
        raw["dataset"]["num_random_steps"] = raw["library"]["num_random_steps"] = 0
        out = tmp_path / "out"
        assert run_step(tmp_path, raw, ["experiment"], out) == EXIT_OK
        assert "library: 1 sequences, horizon 8" in capsys.readouterr().out
        policy = json.loads((out / "policy_delta_0.3.json").read_text())
        assert policy["solve"]["weights"] == [[0, 1.0]]
        assert (out / "report_delta_0.3.json").exists()

    def test_seed_override_changes_dataset(self, tmp_path):
        cfg = write_config(tmp_path, small_raw())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["experiment", "--config", str(cfg), "--out-dir", str(out_a)])
        main(["experiment", "--config", str(cfg), "--out-dir", str(out_b),
              "--seed", "6"])
        assert (out_a / "dataset.jsonl").read_bytes() != (
            out_b / "dataset.jsonl"
        ).read_bytes()


# an initial state at which small_raw's policy moves off the support [2, 3]
# it has at the origin, onto [0, 2]
X0_MOVED = ["-0.08", "0.0", "-0.04", "0.0"]


def moved_x0_reaches_report(out):
    policy = json.loads((out / "policy_delta_0.3.json").read_text())
    report = json.loads((out / "report_delta_0.3.json").read_text())
    assert policy["solve"]["support"] == [0, 2]
    assert report["x0"] == policy["x0"] == [float(v) for v in X0_MOVED]
    assert set(report["report"]["trial_indices"]) <= {0, 2}


def monte_carlo_cells_empty(out):
    row = (out / "summary.csv").read_text().splitlines()[1]
    assert row.split(",") == ["0.3", "infeasible", "", "", "", "", ""]
    # the earlier feasible run's Monte-Carlo files validated a policy that
    # no longer exists
    assert not (out / "report_delta_0.3.json").exists()
    assert not (out / "trajectories_delta_0.3.csv").exists()


# (history, final command, extra check): each history leaves artifacts that
# the final command must not reuse, because one of their inputs changed
STALE_HISTORIES = {
    "x0_override": (
        [(small_raw(), ["experiment"])],
        (small_raw(), ["experiment", "--x0", *X0_MOVED]),
        moved_x0_reaches_report,
    ),
    "validate_seed": (
        [
            (small_raw(), ["generate"]),
            (small_raw(), ["solve"]),
            (small_raw(), ["validate", "--policy", "{out}/policy_delta_0.3.json",
                           "--seed", "123"]),
        ],
        (small_raw(), ["experiment"]),
        None,
    ),
    "now_infeasible": (
        [(small_raw(), ["experiment"])],
        (small_raw(regularization=1e3), ["experiment"]),
        monte_carlo_cells_empty,
    ),
    "solve_seed_then_experiment_seed": (
        [(small_raw(), ["generate"]), (small_raw(), ["solve", "--seed", "6"])],
        (small_raw(), ["experiment", "--seed", "6"]),
        None,
    ),
}


# report fields a summary would copy, or fail on, by the id of their case
MALFORMED_REPORT_FIELDS = {
    "success_rate=abc": {"success_rate": "abc"},
    "success_rate=1.5": {"success_rate": 1.5},
    "wilson_95=[true,null]": {"wilson_95": [True, None]},
    "wilson_95=[x]": {"wilson_95": ["x"]},
    "wilson_95=[0.5,-0.1]": {"wilson_95": [0.5, -0.1]},
    "wilson_95=0.5": {"wilson_95": 0.5},
    "trials=0": {"trials": 0},
    "trials=30.0": {"trials": 30.0},
}


def run_step(tmp_path, raw, argv, out):
    cfg = write_config(tmp_path, raw)
    args = [a.format(out=out) for a in argv[1:]]
    return main([argv[0], "--config", str(cfg), "--out-dir", str(out), *args])


def mtimes(out, pattern):
    return {p.name: p.stat().st_mtime_ns for p in sorted(out.glob(pattern))}


class TestStageReuse:
    @pytest.mark.parametrize(
        "history, final, check",
        STALE_HISTORIES.values(),
        ids=STALE_HISTORIES.keys(),
    )
    def test_reused_directory_matches_fresh_run(self, tmp_path, history, final, check):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        for raw, argv in history:
            run_step(tmp_path, raw, argv, reused)
        assert run_step(tmp_path, *final, reused) == run_step(tmp_path, *final, fresh)
        written = sorted(p.name for p in fresh.iterdir())
        assert "summary.csv" in written and "dataset.jsonl" in written
        for name in written:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
        if check is not None:
            check(reused)

    def test_trials_change_revalidates_without_resolving(self, tmp_path):
        out = tmp_path / "out"
        run_step(tmp_path, small_raw(deltas=(0.3, 0.4)), ["experiment"], out)
        policies = mtimes(out, "policy_delta_*.json")
        run_step(tmp_path, small_raw(deltas=(0.3, 0.4), trials=31), ["experiment"], out)
        assert mtimes(out, "policy_delta_*.json") == policies
        for tag in ("0.3", "0.4"):
            report = json.loads((out / f"report_delta_{tag}.json").read_text())
            assert report["report"]["trials"] == 31

    def test_stale_reports_parse_each_policy_once(self, tmp_path, monkeypatch):
        # the policies experiment found current are the records it validates
        out = tmp_path / "out"
        run_step(tmp_path, small_raw(deltas=(0.3, 0.4)), ["experiment"], out)
        parsed = []
        read_json = kernelcc.cli._read_json
        monkeypatch.setattr(
            kernelcc.cli,
            "_read_json",
            lambda path: parsed.append(path.name) or read_json(path),
        )
        raw = small_raw(deltas=(0.3, 0.4), trials=31)
        assert run_step(tmp_path, raw, ["experiment"], out) == EXIT_OK
        policies = [name for name in parsed if name.startswith("policy_")]
        assert sorted(policies) == ["policy_delta_0.3.json", "policy_delta_0.4.json"]

    def test_stale_reports_read_each_policy_file_once(self, tmp_path, monkeypatch):
        # a report's key digests the policy record in hand, so no policy file
        # is read back to be hashed
        out = tmp_path / "out"
        run_step(tmp_path, small_raw(deltas=(0.3, 0.4)), ["experiment"], out)
        read = []
        open_path = Path.open
        monkeypatch.setattr(
            Path,
            "open",
            lambda path, mode="r", *args, **kwargs: (
                "r" in mode and read.append(path.name)
            ) or open_path(path, mode, *args, **kwargs),
        )
        raw = small_raw(deltas=(0.3, 0.4), trials=31)
        assert run_step(tmp_path, raw, ["experiment"], out) == EXIT_OK
        policies = [name for name in read if name.startswith("policy_")]
        assert sorted(policies) == ["policy_delta_0.3.json", "policy_delta_0.4.json"]

    def test_added_delta_leaves_existing_stages(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_step(tmp_path, small_raw(deltas=(0.3,)), ["experiment"], out)
        before = mtimes(out, "*_delta_0.3.*")
        capsys.readouterr()
        run_step(tmp_path, small_raw(deltas=(0.3, 0.4)), ["experiment"], out)
        text = capsys.readouterr().out
        assert "delta=0.3: cached policy" in text
        assert "delta=0.3: cached report" in text
        assert mtimes(out, "*_delta_0.3.*") == before
        assert (out / "report_delta_0.4.json").exists()

    def test_deleted_trajectory_csv_is_written_again(self, tmp_path, capsys):
        # only the risk level whose CSV is gone is validated again
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        raw = small_raw(deltas=(0.3, 0.4))
        run_step(tmp_path, raw, ["experiment"], reused)
        (reused / "trajectories_delta_0.3.csv").unlink()
        capsys.readouterr()
        assert run_step(tmp_path, raw, ["experiment"], reused) == EXIT_OK
        text = capsys.readouterr().out
        assert "delta=0.3: success rate" in text
        assert "delta=0.4: cached report" in text
        assert "delta=0.4: success rate" not in text
        run_step(tmp_path, raw, ["experiment"], fresh)
        assert sorted(p.name for p in reused.iterdir()) == sorted(
            p.name for p in fresh.iterdir()
        )
        for p in fresh.iterdir():
            assert (reused / p.name).read_bytes() == p.read_bytes(), p.name

    @pytest.mark.parametrize(
        "stem, raw, rebuilt",
        [
            ("policy", small_raw(trials=31), "delta=0.3: objective"),
            ("report", small_raw(), "delta=0.3: success rate"),
        ],
        ids=["policy", "report"],
    )
    def test_record_of_another_delta_is_rebuilt(
        self, tmp_path, capsys, stem, raw, rebuilt
    ):
        # the file of delta 0.3 holds a record of delta 0.31 under the key of
        # 0.3; a policy reused so would be validated as 0.31 and leave the
        # 0.3 row of the summary without Monte-Carlo cells
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        run_step(tmp_path, small_raw(), ["experiment"], reused)
        path = reused / f"{stem}_delta_0.3.json"
        text = path.read_text()
        assert text.count('"delta":0.3,') == 1
        path.write_text(text.replace('"delta":0.3,', '"delta":0.31,'))
        capsys.readouterr()
        assert run_step(tmp_path, raw, ["experiment"], reused) == EXIT_OK
        assert rebuilt in capsys.readouterr().out
        run_step(tmp_path, raw, ["experiment"], fresh)
        assert sorted(p.name for p in reused.iterdir()) == sorted(
            p.name for p in fresh.iterdir()
        )
        for p in fresh.iterdir():
            assert (reused / p.name).read_bytes() == p.read_bytes(), p.name

    @pytest.mark.parametrize(
        "line, corrupt",
        [
            (3, lambda rec: json.dumps({**json.loads(rec), "u": "x"})),
            (3, lambda rec: "5"),
            (0, lambda header: header.replace('"m":2', '"m":-2')),
            (0, lambda header: header.replace('"m":2', '"m":2.5')),
            (0, lambda header: header.replace('"master_seed":5', '"master_seed":5.5')),
        ],
        ids=[
            "non_numeric_field",
            "record_not_an_object",
            "negative_dimension",
            "fractional_dimension",
            "fractional_seed",
        ],
    )
    def test_corrupted_dataset_is_regenerated(self, tmp_path, capsys, line, corrupt):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        run_step(tmp_path, small_raw(), ["experiment"], reused)
        path = reused / "dataset.jsonl"
        lines = path.read_text().splitlines()
        lines[line] = corrupt(lines[line])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_step(tmp_path, small_raw(), ["experiment"], reused) == EXIT_OK
        assert "dataset: 40 samples" in capsys.readouterr().out
        run_step(tmp_path, small_raw(), ["experiment"], fresh)
        for p in fresh.iterdir():
            assert (reused / p.name).read_bytes() == p.read_bytes(), p.name

    @pytest.mark.parametrize(
        "earlier, raw, command, loads, hashed",
        [
            (False, small_raw(), "experiment", (0, 0), 0),
            (True, small_raw(), "experiment", (0, 0), 2),
            (True, small_raw(trials=31), "experiment", (0, 1), 3),
            (True, small_raw(regularization=2e-4), "experiment", (1, 1), 4),
            (True, small_raw(), "solve", (1, 1), 2),
        ],
        ids=["cold", "rerun", "trials_changed", "regularization_changed", "solve"],
    )
    def test_jsonl_loads_per_operation(
        self, tmp_path, monkeypatch, earlier, raw, command, loads, hashed
    ):
        # a stage that runs is handed the dataset and library it needs; a
        # cached file's header is checked against its sha256, and the file is
        # parsed, and hashed again, only when a stale stage needs its records
        out = tmp_path / "out"
        if earlier:
            run_step(tmp_path, small_raw(), ["experiment"], out)
        calls = {"load_dataset": [], "load_library": [], "_check_sha256": []}
        for name in ("load_dataset", "load_library"):

            def counting(path, load=getattr(kernelcc.cli, name), paths=calls[name],
                         **kwargs):
                paths.append(path)
                return load(path, **kwargs)

            monkeypatch.setattr(kernelcc.cli, name, counting)
        check = kernelcc.data._check_sha256
        monkeypatch.setattr(
            kernelcc.data,
            "_check_sha256",
            lambda path, *args: calls["_check_sha256"].append(path) or check(path, *args),
        )
        assert run_step(tmp_path, raw, [command], out) == EXIT_OK
        assert (len(calls["load_dataset"]), len(calls["load_library"])) == loads
        assert len(calls["_check_sha256"]) == hashed

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: [*lines[:3], lines[3].replace("1", "2", 1), *lines[4:]],
            lambda lines: lines[:-1],
        ],
        ids=["one_digit_of_a_record", "last_record_dropped"],
    )
    def test_edited_dataset_is_regenerated(self, tmp_path, capsys, edit):
        # every line of the edited file still parses; only the header's
        # sha256 tells that a record changed
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        run_step(tmp_path, small_raw(), ["experiment"], reused)
        path = reused / "dataset.jsonl"
        lines = path.read_text().splitlines()
        edited = edit(lines)
        assert edited != lines
        for line in edited:
            json.loads(line)
        path.write_text("\n".join(edited) + "\n")
        capsys.readouterr()
        assert run_step(tmp_path, small_raw(), ["experiment"], reused) == EXIT_OK
        assert "dataset: 40 samples" in capsys.readouterr().out
        run_step(tmp_path, small_raw(), ["experiment"], fresh)
        for p in fresh.iterdir():
            assert (reused / p.name).read_bytes() == p.read_bytes(), p.name

    @pytest.mark.parametrize(
        "stem, drop, rebuilt",
        [
            ("policy", lambda record: record.pop("solve"), "delta=0.3: objective"),
            (
                "report",
                lambda record: record["report"].pop("trials"),
                "delta=0.3: success rate",
            ),
            (
                "policy",
                lambda record: record["solve"].update(objective=float("nan")),
                "delta=0.3: objective",
            ),
            *(
                (
                    "report",
                    lambda record, edit=edit: record["report"].update(edit),
                    "delta=0.3: success rate",
                )
                for edit in MALFORMED_REPORT_FIELDS.values()
            ),
        ],
        ids=["policy", "report", "objective=NaN", *MALFORMED_REPORT_FIELDS],
    )
    def test_record_missing_a_field_is_rebuilt(
        self, tmp_path, capsys, stem, drop, rebuilt
    ):
        # the file still records the current key; a field the summary reads
        # is gone, or holds a value the summary cannot use, so the file does
        # not read and is stale, and only its own stage is rebuilt
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        run_step(tmp_path, small_raw(), ["experiment"], reused)
        path = reused / f"{stem}_delta_0.3.json"
        record = json.loads(path.read_text())
        drop(record)
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        path.write_text(text + "\n")
        capsys.readouterr()
        assert run_step(tmp_path, small_raw(), ["experiment"], reused) == EXIT_OK
        text = capsys.readouterr().out
        assert rebuilt in text
        kept = {"policy": "report", "report": "policy"}[stem]
        assert f"delta=0.3: cached {kept}" in text
        run_step(tmp_path, small_raw(), ["experiment"], fresh)
        for p in fresh.iterdir():
            assert (reused / p.name).read_bytes() == p.read_bytes(), p.name

    @pytest.mark.parametrize(
        "field, value",
        [
            ("library_digest", 5),
            ("weights", [[2, 0.25], [3, 0.25]]),
            ("weights", [[-1, 1.0]]),
            ("delta", 2.0),
            ("x0", [0, 0]),
            ("status", "abc"),
            ("status", "infeasible"),
            ("objective", "abc"),
            ("objective", None),
            ("master_seed", "abc"),
            ("master_seed", -1),
        ],
        ids=[
            "library_digest=5", "weights_sum_0.5", "index=-1", "delta=2.0", "x0=[0,0]",
            "status=abc", "status=infeasible", "objective=abc", "objective=null",
            "master_seed=abc", "master_seed=-1",
        ],
    )
    @pytest.mark.parametrize("trials", [30, 31], ids=["report_current", "report_stale"])
    def test_cached_policy_of_a_malformed_field_is_resolved(
        self, tmp_path, capsys, field, value, trials
    ):
        # the policy still records the current key, and holds a value that
        # only validation used to check: it is stale and solved again, with
        # or without a new trial count that makes validation read it
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        run_step(tmp_path, small_raw(), ["experiment"], reused)
        path = reused / "policy_delta_0.3.json"
        record = json.loads(path.read_text())
        (record["solve"] if field in record["solve"] else record)[field] = value
        path.write_text(canonical_json(record) + "\n")
        capsys.readouterr()
        rc = run_step(tmp_path, small_raw(trials=trials), ["experiment"], reused)
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "delta=0.3: objective" in text
        # the policy solved again is the one the report was made of
        assert ("delta=0.3: cached report" in text) == (trials == 30)
        run_step(tmp_path, small_raw(trials=trials), ["experiment"], fresh)
        for p in fresh.iterdir():
            assert (reused / p.name).read_bytes() == p.read_bytes(), p.name

    def test_policy_without_weights_is_resolved_before_validation(
        self, tmp_path, capsys
    ):
        # a new trial count makes the report stale, so validation reads the
        # cached policy's weights; a policy without them is stale itself
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        run_step(tmp_path, small_raw(), ["experiment"], reused)
        path = reused / "policy_delta_0.3.json"
        record = json.loads(path.read_text())
        del record["solve"]["weights"]
        path.write_text(canonical_json(record) + "\n")
        capsys.readouterr()
        assert run_step(tmp_path, small_raw(trials=31), ["experiment"], reused) == EXIT_OK
        assert "delta=0.3: objective" in capsys.readouterr().out
        run_step(tmp_path, small_raw(trials=31), ["experiment"], fresh)
        assert sorted(p.name for p in reused.iterdir()) == sorted(
            p.name for p in fresh.iterdir()
        )
        for p in fresh.iterdir():
            assert (reused / p.name).read_bytes() == p.read_bytes(), p.name

    @pytest.mark.parametrize("earlier", [2, 3, 4, 5])
    def test_earlier_policy_format_is_resolved(
        self, tmp_path, capsys, monkeypatch, earlier
    ):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        with monkeypatch.context() as patch:
            patch.setattr(kernelcc.cli, "POLICY_FORMAT_VERSION", earlier)
            run_step(tmp_path, small_raw(), ["experiment"], reused)
        policy = json.loads((reused / "policy_delta_0.3.json").read_text())
        assert policy["format_version"] == earlier
        capsys.readouterr()
        assert run_step(tmp_path, small_raw(), ["experiment"], reused) == EXIT_OK
        text = capsys.readouterr().out
        assert "dataset: cached" in text and "library: cached" in text
        assert "cached policy" not in text and "cached report" not in text
        policy = json.loads((reused / "policy_delta_0.3.json").read_text())
        assert policy["format_version"] == kernelcc.cli.POLICY_FORMAT_VERSION == 6
        run_step(tmp_path, small_raw(), ["experiment"], fresh)
        for p in fresh.iterdir():
            assert (reused / p.name).read_bytes() == p.read_bytes(), p.name


class TestGenerate:
    def test_writes_headers_with_seed_and_digest(self, tmp_path):
        cfg = write_config(tmp_path, small_raw())
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        header = json.loads((out / "dataset.jsonl").read_text().splitlines()[0])
        assert header["M"] == 40 and header["N"] == 8
        assert header["master_seed"] == 5
        assert len(header["config_digest"]) == 64
        lib_header = json.loads((out / "library.jsonl").read_text().splitlines()[0])
        assert lib_header["P"] == 4

    def test_header_keys_match_python_api(self, tmp_path):
        raw = small_raw()
        raw["system"]["dt"] = 0.05
        raw["disturbance"] = {"per_step_std": [0.002, 0.02, 0.002, 0.02]}
        cfg = parse_config(raw)
        out = tmp_path / "out"
        assert run_step(tmp_path, raw, ["generate"], out) == EXIT_OK
        header = json.loads((out / "dataset.jsonl").read_text().splitlines()[0])
        lib_header = json.loads((out / "library.jsonl").read_text().splitlines()[0])
        ds = generate_dataset(cfg.dataset, cfg.model, cfg.master_seed)
        lib = generate_library(cfg.library, cfg.model, cfg.nominal_params)
        assert header["config_digest"] == ds.config_digest
        assert lib_header["config_digest"] == lib.config_digest


class TestSolve:
    def test_delta_flag_restricts_sweep(self, tmp_path):
        cfg = write_config(tmp_path, small_raw(deltas=(0.3, 0.4)))
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg), "--out-dir", str(out)])
        rc = main(["solve", "--config", str(cfg), "--out-dir", str(out),
                   "--delta", "0.4"])
        assert rc == EXIT_OK
        assert (out / "policy_delta_0.4.json").exists()
        assert not (out / "policy_delta_0.3.json").exists()

    def test_x0_flag_recorded_in_policy(self, tmp_path):
        cfg = write_config(tmp_path, small_raw())
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg), "--out-dir", str(out)])
        main(["solve", "--config", str(cfg), "--out-dir", str(out),
              "--x0", "0.2", "0.0", "-0.1", "0.0"])
        policy = json.loads((out / "policy_delta_0.3.json").read_text())
        assert policy["x0"] == [0.2, 0.0, -0.1, 0.0]

    def test_infeasible_exit_code_still_writes_file(self, tmp_path):
        # massive regularization shrinks every estimate toward zero, so no
        # element can clear the threshold
        cfg = write_config(tmp_path, small_raw(regularization=1e3))
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg), "--out-dir", str(out)])
        rc = main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == EXIT_INFEASIBLE
        policy = json.loads((out / "policy_delta_0.3.json").read_text())
        assert policy["solve"]["status"] == "infeasible"

    @pytest.mark.filterwarnings("ignore:chance constraint met only")
    def test_policies_record_the_spread_of_the_safety_estimates(
        self, tmp_path, monkeypatch
    ):
        # the spread is taken once from the assembled safety row, and every
        # risk level's policy records it beside its own threshold
        out = tmp_path / "out"
        assert run_step(tmp_path, small_raw(), ["generate"], out) == EXIT_OK
        inst = LPInstance(
            cost_row=[1.0, 2.0, 3.0, 4.0],
            safety_row=[-0.1, 0.5, 1.3, 1.1],
            threshold=0.5,
        )
        calls = []
        monkeypatch.setattr(
            kernelcc.cli, "assemble", lambda *args: calls.append(args) or inst
        )
        raw = small_raw(deltas=(0.3, 0.4))
        assert run_step(tmp_path, raw, ["solve"], out) == EXIT_OK
        assert len(calls) == 1
        for delta in (0.3, 0.4):
            policy = json.loads((out / f"policy_delta_{delta}.json").read_text())
            assert policy["safety_estimates"] == {
                "threshold": 1.0 - delta,
                "min": -0.1,
                "max": 1.3,
                "num_below_zero": 1,
                "num_above_one": 2,
            }

    def test_missing_inputs_io_error(self, tmp_path):
        cfg = write_config(tmp_path, small_raw())
        rc = main(["solve", "--config", str(cfg), "--out-dir",
                   str(tmp_path / "nothing")])
        assert rc == EXIT_IO

    def test_inputs_of_another_horizon_are_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_step(tmp_path, small_raw(), ["generate"], out) == EXIT_OK
        raw = with_value(["scenario", "horizon"], 10)
        capsys.readouterr()
        assert run_step(tmp_path, raw, ["solve"], out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            f"config error: {out / 'dataset.jsonl'} holds horizon 8, but "
            "scenario.horizon is 10\n"
        )
        assert not list(out.glob("policy_*"))


class TestValidate:
    def make_policy(self, tmp_path):
        cfg = write_config(tmp_path, small_raw())
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg), "--out-dir", str(out)])
        main(["solve", "--config", str(cfg), "--out-dir", str(out)])
        return cfg, out, out / "policy_delta_0.3.json"

    def test_report_and_csv(self, tmp_path):
        cfg, out, policy = self.make_policy(tmp_path)
        rc = main(["validate", "--config", str(cfg), "--out-dir", str(out),
                   "--policy", str(policy)])
        assert rc == EXIT_OK
        report = json.loads((out / "report_delta_0.3.json").read_text())
        assert report["report"]["trials"] == 30
        assert 0.0 <= report["report"]["success_rate"] <= 1.0
        low, high = report["report"]["wilson_95"]
        assert low <= report["report"]["success_rate"] <= high
        csv_text = (out / "trajectories_delta_0.3.csv").read_text()
        assert csv_text.splitlines()[0].startswith("trial,step")

    def test_library_digest_mismatch_refused(self, tmp_path):
        cfg, out, policy = self.make_policy(tmp_path)
        record = json.loads(policy.read_text())
        record["library_digest"] = "0" * 64
        tampered = out / "tampered.json"
        tampered.write_text(json.dumps(record))
        rc = main(["validate", "--config", str(cfg), "--out-dir", str(out),
                   "--policy", str(tampered)])
        assert rc == EXIT_CONFIG

    def test_library_of_another_horizon_is_one_line_error(self, tmp_path, capsys):
        _, out, policy = self.make_policy(tmp_path)
        raw = with_value(["scenario", "horizon"], 10)
        capsys.readouterr()
        argv = ["validate", "--policy", str(policy)]
        assert run_step(tmp_path, raw, argv, out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            f"config error: {out / 'library.jsonl'} holds horizon 8, but "
            "scenario.horizon is 10\n"
        )
        assert not list(out.glob("report_*"))

    def test_missing_policy_file(self, tmp_path):
        cfg, out, _ = self.make_policy(tmp_path)
        rc = main(["validate", "--config", str(cfg), "--out-dir", str(out),
                   "--policy", str(out / "nope.json")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            # solved_dir's policy at delta 0.3 weighs library elements 2 and 3
            (["solve", "weights"], [[2, 0.25], [3, 0.25]], "invalid solve.weights:"),
            (["solve", "weights"], [[2, 1.5], [3, -0.5]], "invalid solve.weights:"),
            (["solve", "weights", 0, 0], "1.7", "invalid solve.weights:"),
            (["solve", "weights", 0, 0], 2.9, "invalid solve.weights:"),
            (["solve", "weights", 0, 1], float("nan"), "non-finite number NaN"),
            (
                ["solve", "weights"],
                [[2, "0.5"], [3, 0.5]],
                "invalid solve.weights: weight must be a real number, got '0.5'",
            ),
            (["solve", "weights"], [1, 2], "invalid solve.weights:"),
            (["solve"], [1], "missing field solve.status"),
            (["x0"], "abc", "invalid x0:"),
            (["x0"], [0, 0], "invalid x0:"),
            (["delta"], "abc", "invalid delta:"),
            (["delta"], 2.0, "invalid delta:"),
            (["library_digest"], 5, "invalid library_digest: 5"),
            (["library_digest"], None, "invalid library_digest: null"),
            (
                ["solve", "weights"],
                [[5000, 1.0]],
                "invalid solve.weights: index 5000 out of range",
            ),
            (["solve", "status"], "abc", 'invalid solve.status: "abc"'),
            (
                ["solve", "objective"],
                "abc",
                'invalid solve.objective for an optimal solve: "abc"',
            ),
            (
                ["solve", "objective"],
                None,
                "invalid solve.objective for an optimal solve: null",
            ),
            (["master_seed"], "abc", "invalid master_seed: must be an integer"),
            (["master_seed"], -1, "invalid master_seed: must be a non-negative"),
        ],
        ids=[
            "weights_sum_0.5", "negative_weight", "index='1.7'", "index=2.9",
            "weight=NaN", "weight='0.5'", "weights=[1,2]", "solve=[1]", "x0=abc",
            "x0=[0,0]", "delta=abc", "delta=2.0", "library_digest=5",
            "library_digest=null", "index=5000", "status=abc", "objective=abc",
            "objective=null", "master_seed=abc", "master_seed=-1",
        ],
    )
    def test_malformed_policy_is_one_line_error(
        self, tmp_path, capsys, solved_dir, field, value, shown
    ):
        # a policy file is checked like every other input: exit 2, one line
        # that names the file and the field, and no report written
        record = json.loads((solved_dir / "policy_delta_0.3.json").read_text())
        node = record
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(record))
        before = {p.name: p.read_bytes() for p in solved_dir.iterdir()}
        argv = ["validate", "--policy", str(policy)]
        assert run_step(tmp_path, small_raw(), argv, solved_dir) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {policy}: ") and err.count("\n") == 1, err
        assert shown in err
        assert {p.name: p.read_bytes() for p in solved_dir.iterdir()} == before

    def test_infeasible_policy_is_one_line_error(self, tmp_path, capsys):
        # massive regularization leaves no element above the threshold
        out = tmp_path / "out"
        raw = small_raw(regularization=1e3)
        assert run_step(tmp_path, raw, ["generate"], out) == EXIT_OK
        assert run_step(tmp_path, raw, ["solve"], out) == EXIT_INFEASIBLE
        policy = out / "policy_delta_0.3.json"
        capsys.readouterr()
        argv = ["validate", "--policy", str(policy)]
        assert run_step(tmp_path, raw, argv, out) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {policy}: policy records an unsuccessful solve "
            "(status 'infeasible'); nothing to validate\n"
        )
        assert not list(out.glob("report_*"))

    def test_policies_of_one_x0_are_validated_together(
        self, tmp_path, monkeypatch, solved_dir
    ):
        # one Monte-Carlo call, and every file it writes is the file a lone
        # validation of that policy writes
        record = json.loads((solved_dir / "policy_delta_0.3.json").read_text())
        paths = []
        for delta in (0.3, 0.25, 0.2):
            paths.append(tmp_path / f"policy_{delta}.json")
            paths[-1].write_text(json.dumps({**record, "delta": delta}))
        cfg = parse_config(small_raw())
        lib = kernelcc.data.load_library(solved_dir / "library.jsonl")
        sizes = []
        run = kernelcc.cli.run_monte_carlo
        monkeypatch.setattr(
            kernelcc.cli,
            "run_monte_carlo",
            lambda policies, *args: sizes.append(len(policies)) or run(policies, *args),
        )
        records = {path: kernelcc.cli._read_policy(path) for path in paths}
        together = tmp_path / "together"
        kernelcc.cli.cmd_validate(cfg, together, records, lib, cfg.initial_state)
        assert sizes == [3]
        for path in paths:
            alone = tmp_path / f"alone_{path.stem}"
            kernelcc.cli.cmd_validate(cfg, alone, {path: records[path]}, lib)
            for written in alone.iterdir():
                assert written.read_bytes() == (together / written.name).read_bytes()

    def test_validate_seed_override_changes_trials(self, tmp_path):
        cfg, out, policy = self.make_policy(tmp_path)
        main(["validate", "--config", str(cfg), "--out-dir", str(out),
              "--policy", str(policy)])
        first = (out / "report_delta_0.3.json").read_text()
        main(["validate", "--config", str(cfg), "--out-dir", str(out),
              "--policy", str(policy), "--seed", "123"])
        second = (out / "report_delta_0.3.json").read_text()
        assert json.loads(second)["report"]["seed"] == 123
        assert first != second


def with_value(path, value):
    """small_raw with the value at ``path``, a list of keys, replaced."""
    raw = small_raw()
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


MALFORMED_INPUTS = [
    pytest.param(
        json.dumps(small_raw()).replace(
            '"montecarlo": {"trials": 30', '"montecarlo": {"trials": 1000, "trials": 7'
        ),
        ["experiment"],
        "duplicate config key 'trials'",
        id="montecarlo.trials twice",
    ),
    pytest.param(
        with_value(["scenario", "deltas"], [0.1, 0.1]),
        ["experiment"],
        "invalid scenario.deltas[1]: repeats risk level 0.1",
        id="scenario.deltas=[0.1,0.1]",
    ),
    pytest.param(
        with_value(["library", "grid_resolution"], 2),
        ["generate"],
        "invalid library.grid_resolution: must be a pair of integers, got 2",
        id="library.grid_resolution=2",
    ),
    pytest.param(
        with_value(["seed"], "abc"), ["experiment"], "invalid seed:", id="seed=abc"
    ),
    pytest.param(
        with_value(["seed"], -1), ["experiment"], "invalid seed:", id="seed=-1"
    ),
    pytest.param(
        with_value(["montecarlo", "seed"], -1),
        ["experiment"],
        "invalid montecarlo.seed:",
        id="montecarlo.seed=-1",
    ),
    pytest.param(
        with_value(["scenario", "goal", "radius"], -1),
        ["experiment"],
        "invalid scenario.goal: goal radius",
        id="scenario.goal.radius=-1",
    ),
    pytest.param(
        with_value(["library", "nominal_mass"], -1),
        ["experiment"],
        "invalid library: mass",
        id="library.nominal_mass=-1",
    ),
    pytest.param(
        with_value(["disturbance"], {"per_step_std": [-1, 0, 0, 0]}),
        ["experiment"],
        "invalid disturbance: per_step_std",
        id="disturbance.per_step_std<0",
    ),
    pytest.param(
        with_value(["scenario", "horizon"], "x"),
        ["experiment"],
        "invalid scenario.horizon:",
        id="scenario.horizon=x",
    ),
    pytest.param(
        with_value(["montecarlo", "trials"], None),
        ["experiment"],
        "invalid montecarlo.trials:",
        id="montecarlo.trials=null",
    ),
    pytest.param(
        with_value(
            ["scenario", "obstacles"],
            [{"rect": [1.0, 2.0, 1.0, 2.0], "active_steps": [4]}],
        ),
        ["experiment"],
        "invalid scenario.obstacles[0].active_steps:",
        id="obstacles[0].active_steps=[4]",
    ),
    pytest.param(
        with_value(
            ["scenario", "obstacles"],
            [{"rect": [1.0, 2.0, 1.0, 2.0], "active_steps": [3, 20]}],
        ),
        ["experiment"],
        "invalid scenario: obstacle active through step 20",
        id="obstacles[0].active_steps=[3,20]",
    ),
    pytest.param(
        with_value(
            ["scenario", "obstacles"],
            [{"rect": [1.0, 2.0, 1.0, 2.0], "active_steps": [3.5, 4.9]}],
        ),
        ["experiment"],
        "invalid scenario.obstacles[0].active_steps: must be an integer, got 3.5",
        id="obstacles[0].active_steps=[3.5,4.9]",
    ),
    pytest.param(
        with_value(
            ["scenario", "obstacles"],
            [{"rect": [1.0, 2.0, 1.0, 2.0], "active_steps": [True, 4]}],
        ),
        ["experiment"],
        "invalid scenario.obstacles[0].active_steps: must be an integer, got True",
        id="obstacles[0].active_steps=[true,4]",
    ),
    pytest.param(
        with_value(
            ["scenario", "obstacles"],
            [
                {"rect": [1.0, 2.0, 1.0, 2.0], "active_steps": [3, 4]},
                {"rect": [1.0, 2.0, 1.0], "active_steps": [3, 4]},
            ],
        ),
        ["experiment"],
        "invalid scenario.obstacles[1].rect: must be a 4-vector",
        id="obstacles[1].rect=3-vector",
    ),
    pytest.param(
        with_value(["scenario", "costs"], {"control_weight": "x"}),
        ["experiment"],
        "invalid scenario.costs.control_weight:",
        id="scenario.costs.control_weight=x",
    ),
    pytest.param(
        with_value(["dataset", "feedback"], {"kd": 2.0}),
        ["experiment"],
        "missing config key 'dataset.feedback.kp'",
        id="dataset.feedback.kp missing",
    ),
    pytest.param(
        with_value(
            ["prior"],
            {
                "mass": {"shape_a": "x", "shape_b": 2.0, "offset": 0.75, "scale": 0.5},
                "drag": {"shape_a": 2.0, "shape_b": 5.0, "offset": 0.4, "scale": 0.2},
            },
        ),
        ["experiment"],
        "invalid prior.mass.shape_a:",
        id="prior.mass.shape_a=x",
    ),
    pytest.param(
        with_value(["kernel", "control", "bandwidth"], "abc"),
        ["experiment"],
        "invalid kernel.control.bandwidth: must be a real number, got 'abc'",
        id="kernel.control.bandwidth=abc",
    ),
    pytest.param(
        with_value(["scenario", "costs"], []),
        ["experiment"],
        "scenario.costs must be an object",
        id="scenario.costs=[]",
    ),
    pytest.param(
        with_value(["scenario", "deltas"], [1e-300]),
        ["experiment"],
        "invalid scenario.deltas[0]:",
        id="scenario.deltas=[1e-300]",
    ),
    pytest.param(
        with_value(["montecarlo", "trials"], 2.5),
        ["experiment"],
        "invalid montecarlo.trials: must be an integer, got 2.5",
        id="montecarlo.trials=2.5",
    ),
    pytest.param(
        with_value(["dataset", "num_samples"], 50.9),
        ["experiment"],
        "invalid dataset.num_samples: must be an integer, got 50.9",
        id="dataset.num_samples=50.9",
    ),
    pytest.param(
        with_value(["dataset", "tail_param"], "nominal"),
        ["experiment"],
        "unknown config key 'dataset.tail_param'",
        id="dataset.tail_param",
    ),
    pytest.param(
        with_value(["dataset", "target"], [None, 0.0, 10.0, 0.0]),
        ["experiment"],
        "invalid dataset.target: entry 0 must be a real number, got None",
        id="dataset.target=[null,...]",
    ),
    pytest.param(
        with_value(["library", "target"], [10.0, 0.0, None, 0.0]),
        ["experiment"],
        "invalid library.target: entry 2 must be a real number, got None",
        id="library.target=[...,null,...]",
    ),
    pytest.param(
        with_value(["library", "initial_state"], [0.0, None, 0.0, 0.0]),
        ["experiment"],
        "invalid library.initial_state: entry 1 must be a real number, got None",
        id="library.initial_state=[...,null,...]",
    ),
    pytest.param(
        with_value(["scenario", "costs"], {"state_weights": [1.0, 2.0]}),
        ["experiment"],
        "invalid scenario: state weights have length 2, horizon is 8",
        id="scenario.costs.state_weights=2-vector",
    ),
    pytest.param(
        with_value(["output"], {"directory": None}),
        ["experiment"],
        "invalid output.directory: must be a string, got None",
        id="output.directory=null",
    ),
    pytest.param(
        with_value(["output"], {"directory": 7}),
        ["experiment"],
        "invalid output.directory: must be a string, got 7",
        id="output.directory=7",
    ),
    # a real number is a JSON int or float, never a bool or a string
    pytest.param(
        with_value(["embedding", "regularization"], True),
        ["experiment"],
        "invalid embedding.regularization: must be a real number, got True",
        id="embedding.regularization=true",
    ),
    pytest.param(
        with_value(["kernel", "state", "bandwidth"], "10"),
        ["experiment"],
        "invalid kernel.state.bandwidth: must be a real number, got '10'",
        id="kernel.state.bandwidth='10'",
    ),
    pytest.param(
        with_value(["scenario", "deltas"], ["0.05"]),
        ["experiment"],
        "invalid scenario.deltas: entry 0 must be a real number, got '0.05'",
        id="scenario.deltas=['0.05']",
    ),
    pytest.param(
        with_value(["dataset", "feedback", "kp"], "12"),
        ["experiment"],
        "invalid dataset.feedback.kp: must be a real number, got '12'",
        id="dataset.feedback.kp='12'",
    ),
    pytest.param(
        with_value(["dataset", "control_low"], ["0", "0"]),
        ["experiment"],
        "invalid dataset.control_low: entry 0 must be a real number, got '0'",
        id="dataset.control_low=['0','0']",
    ),
    pytest.param(
        with_value(["library", "control_high"], [2.0, True]),
        ["experiment"],
        "invalid library.control_high: entry 1 must be a real number, got True",
        id="library.control_high=[2,true]",
    ),
    pytest.param(
        with_value(["dataset", "x0_high"], [0.5, 0.05, 0.5, True]),
        ["experiment"],
        "invalid dataset.x0_high: entry 3 must be a real number, got True",
        id="dataset.x0_high=[...,true]",
    ),
    pytest.param(
        with_value(["library", "target"], ["10", 0.0, 10.0, 0.0]),
        ["experiment"],
        "invalid library.target: entry 0 must be a real number, got '10'",
        id="library.target=['10',...]",
    ),
    pytest.param(
        with_value(["library", "initial_state"], [0.0, 0.0, "0", 0.0]),
        ["experiment"],
        "invalid library.initial_state: entry 2 must be a real number, got '0'",
        id="library.initial_state=[...,'0',...]",
    ),
    pytest.param(
        with_value(["initial_state"], [False, 0.0, 0.0, 0.0]),
        ["experiment"],
        "invalid initial_state: entry 0 must be a real number, got False",
        id="initial_state=[false,...]",
    ),
    pytest.param(
        with_value(["system", "dt"], True),
        ["experiment"],
        "invalid system.dt: must be a real number, got True",
        id="system.dt=true",
    ),
    pytest.param(
        with_value(["library", "nominal_drag"], "0.457"),
        ["experiment"],
        "invalid library.nominal_drag: must be a real number, got '0.457'",
        id="library.nominal_drag='0.457'",
    ),
    pytest.param(
        with_value(["scenario", "goal", "center"], ["3", "3"]),
        ["experiment"],
        "invalid scenario.goal.center: entry 0 must be a real number, got '3'",
        id="scenario.goal.center=['3','3']",
    ),
    pytest.param(
        with_value(
            ["scenario", "obstacles"],
            [{"rect": [1.0, "2", 1.0, 2.0], "active_steps": [3, 4]}],
        ),
        ["experiment"],
        "invalid scenario.obstacles[0].rect: entry 1 must be a real number, got '2'",
        id="obstacles[0].rect=[...,'2',...]",
    ),
    pytest.param(
        with_value(["scenario", "costs"], {"state_weights": [True] * 8}),
        ["experiment"],
        "invalid scenario.costs.state_weights: entry 0 must be a real number",
        id="scenario.costs.state_weights=[true,...]",
    ),
    pytest.param(
        with_value(["disturbance"], {"per_step_std": ["0.001", 0.01, 0.001, 0.01]}),
        ["experiment"],
        "invalid disturbance.per_step_std: entry 0 must be a real number, got '0.001'",
        id="disturbance.per_step_std=['0.001',...]",
    ),
    pytest.param(
        with_value(
            ["prior"],
            {
                "mass": {"shape_a": 2.0, "shape_b": 2.0, "offset": 0.75, "scale": True},
                "drag": {"shape_a": 2.0, "shape_b": 5.0, "offset": 0.4, "scale": 0.2},
            },
        ),
        ["experiment"],
        "invalid prior.mass.scale: must be a real number, got True",
        id="prior.mass.scale=true",
    ),
    pytest.param(
        with_value(["embedding", "regularization"], 0),
        ["experiment"],
        "embedding.regularization must be positive",
        id="embedding.regularization=0",
    ),
    pytest.param(
        with_value(["montecarlo", "trials"], 0),
        ["experiment"],
        "montecarlo.trials must be at least 1",
        id="montecarlo.trials=0",
    ),
    pytest.param(
        small_raw(),
        ["experiment", "--seed", "-1"],
        "invalid --seed:",
        id="experiment --seed=-1",
    ),
    pytest.param(
        small_raw(),
        ["validate", "--seed", "-1"],
        "invalid --seed:",
        id="validate --seed=-1",
    ),
    pytest.param(
        small_raw(),
        ["experiment", "--x0", "nan", "0", "0", "0"],
        "invalid --x0:",
        id="experiment --x0=nan",
    ),
    pytest.param(
        small_raw(),
        ["validate", "--x0", "inf", "0", "0", "0"],
        "invalid --x0:",
        id="validate --x0=inf",
    ),
    pytest.param(
        small_raw(),
        ["solve", "--delta", "1e-300"],
        "invalid --delta:",
        id="solve --delta=1e-300",
    ),
]


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    """A directory holding a complete run of small_raw."""
    tmp_path = tmp_path_factory.mktemp("solved")
    out = tmp_path / "out"
    assert run_step(tmp_path, small_raw(), ["experiment"], out) == EXIT_OK
    return out


class TestErrors:
    def test_missing_section_exit_code(self, tmp_path, capsys):
        raw = small_raw()
        del raw["kernel"]
        cfg = write_config(tmp_path, raw)
        rc = main(["experiment", "--config", str(cfg), "--out-dir",
                   str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "kernel" in capsys.readouterr().err

    def test_state_weights_checked_before_any_stage(self, tmp_path, capsys):
        raw = with_value(["scenario", "costs"], {"state_weights": [1.0, 2.0]})
        out = tmp_path / "out"
        out.mkdir()
        assert run_step(tmp_path, raw, ["experiment"], out) == EXIT_CONFIG
        assert "state weights have length 2, horizon is 8" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_config_syntax_error_exit_code(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        rc = main(["generate", "--config", str(cfg), "--out-dir",
                   str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "literal, shown",
        [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, literal, shown):
        # Python's json module accepts all four spellings
        text = json.dumps(small_raw(regularization=0.125)).replace("0.125", literal)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(["experiment", "--config", str(cfg), "--out-dir",
                   str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"non-finite number {shown} at embedding.regularization" in err

    def test_overflowing_regularization_is_error(self, tmp_path, capsys):
        # finite in the config, but lambda * M overflows in the fit
        cfg = write_config(tmp_path, small_raw(regularization=1e308))
        rc = main(["experiment", "--config", str(cfg), "--out-dir",
                   str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "overflows" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "section, shown",
        [
            ("dataset", "dataset sample 0 diverged at simulation step 3"),
            ("library", "library sequence 0 diverged at simulation step 3"),
        ],
    )
    def test_diverging_simulation_is_one_line_error(
        self, tmp_path, capsys, section, shown
    ):
        # finite in the config, but controls of 1e154 overflow the dynamics
        raw = with_value([section, "control_high"], [1e154, 1e154])
        assert run_step(tmp_path, raw, ["generate"], tmp_path / "out") == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {shown}\n"


    @pytest.mark.parametrize("raw, argv, shown", MALFORMED_INPUTS)
    def test_malformed_input_is_one_line_config_error(
        self, tmp_path, capsys, solved_dir, raw, argv, shown
    ):
        # each input is checked before any stage runs: exit 2, one line that
        # names the key or flag, and no file of a current directory touched
        if argv[0] == "validate":
            argv = [*argv, "--policy", str(solved_dir / "policy_delta_0.3.json")]
        before = {p.name: p.read_bytes() for p in solved_dir.iterdir()}
        rc = run_step(tmp_path, raw, argv, solved_dir)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert shown in err
        assert {p.name: p.read_bytes() for p in solved_dir.iterdir()} == before


def earlier_jsonl(data: bytes, version: int) -> bytes:
    """A format-4 JSONL file's bytes as an earlier format wrote them: one
    record per sample or sequence, under a header of format ``version``
    whose library header holds "n": null. Format 3 wrote each field of a
    record as the base64 of its float64 bytes, formats 1 and 2 as a nested
    list of decimal floats; format 1 had no sha256."""
    head, *records = data.decode().splitlines()
    header = {**json.loads(head), "format_version": version}
    del header["sha256"]
    if header["kind"] == "library":
        header["n"] = None
    count, shapes = kernelcc.data._LAYOUTS[header["kind"]]
    arrays = {}
    for record in records:
        ((name, value),) = json.loads(record).items()
        shape = [header[count], *(header[key] for key in shapes[name])]
        arrays[name] = np.frombuffer(base64.b64decode(value), "<f8").reshape(shape)

    def field(row):
        return base64.b64encode(row).decode() if version == 3 else row

    text = "".join(
        canonical_json({name: field(array[i]) for name, array in arrays.items()}) + "\n"
        for i in range(header[count])
    )
    if version >= 2:
        content = canonical_json(header) + "\n" + text
        header["sha256"] = hashlib.sha256(content.encode()).hexdigest()
    return (canonical_json(header) + "\n" + text).encode()


class TestEarlierDirectory:
    # small_raw's library digest and file bytes as recorded by earlier
    # versions (the JSONL files since JSONL format 4 stored one record per
    # array, the library digest since policy format 4 hashed the library's
    # bytes, the policy since its keys stopped digesting the kernel, cost
    # and scenario fields that had one usable value, the rest before the
    # JSONL and CSV writers were shared); equal values here mean a directory
    # written then is the directory written now
    LIBRARY_DIGEST = "51a1782f6a360bc2f128fb73450667a68c23f3935115d752ebd90a531153a94f"
    FILE_SHA256 = {
        "dataset.jsonl": "4fc653430f20fcece154c27d7d7184b3a8e2fd4e1c3ac1552e0027a6402e7443",
        "library.jsonl": "dcb8de6ff22187b88db4a90c2630dd52df00be1376a1a4e33203465fb4ec23fe",
        "policy_delta_0.3.json": (
            "d54aa418a0bd035b5b1100bd75a99e9d19f6da8ae7e6db873c1ac92756fbb38b"
        ),
        "trajectories_delta_0.3.csv": (
            "2dd990497df33a863590a6b0f3a7eeaa6c8171b1da3c27c65daddcf40e7a405e"
        ),
        "summary.csv": "1e02708b4f97aab94147a780c4edbd7a4aae67b3245191bda9afe1d188815997",
    }

    def test_rerun_reuses_every_stage(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_step(tmp_path, small_raw(), ["experiment"], out) == EXIT_OK
        policy_path = out / "policy_delta_0.3.json"
        assert json.loads(policy_path.read_text())["library_digest"] == self.LIBRARY_DIGEST
        for name, sha256 in self.FILE_SHA256.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha256, name
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run_step(tmp_path, small_raw(), ["experiment"], out) == EXIT_OK
        text = capsys.readouterr().out
        for line in (
            "dataset: cached",
            "library: cached",
            "delta=0.3: cached policy",
            "delta=0.3: cached report",
        ):
            assert line in text
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    # the keys small_raw's policy and report recorded while KernelSpec held
    # a family and a bandwidth mode, CostSpec two cost kinds, GoalSet the
    # position indices and Scenario a step size, and the bytes of those files
    EARLIER_KEYS = {
        "policy_delta_0.3.json": {
            "embedding_digest": (
                "80448ef261ae69cfe63c8d7e3036475014a832cf4ae7b5188834fdcb2e237401"
            ),
            "inputs_digest": (
                "34e04c36a60d677d8931086ac406a4b050d02e68b42edfdaec383e09631c625e"
            ),
        },
        "report_delta_0.3.json": {
            "inputs_digest": (
                "d4df6d42f603561bdf7280a356f316ebbcf4b2c170bfc70eb39d96e0bb733853"
            ),
        },
    }
    EARLIER_KEYS_SHA256 = {
        "policy_delta_0.3.json": (
            "ae94013ea89a6e177412cce8600cb47129c4d873f8653d046d2858d236aca418"
        ),
        "report_delta_0.3.json": (
            "3184cf1925ddaf3df67635818df8159184f650a2a943b55243d715c5ad8631e0"
        ),
    }

    def test_policy_and_report_of_earlier_keys_are_rebuilt(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_step(tmp_path, small_raw(), ["experiment"], out) == EXIT_OK
        current = {p.name: p.read_bytes() for p in out.iterdir()}
        for name, keys in self.EARLIER_KEYS.items():
            record = {**json.loads(current[name]), **keys}
            (out / name).write_text(canonical_json(record) + "\n")
            sha256 = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert sha256 == self.EARLIER_KEYS_SHA256[name], name
        capsys.readouterr()
        assert run_step(tmp_path, small_raw(), ["experiment"], out) == EXIT_OK
        text = capsys.readouterr().out
        assert "dataset: cached" in text and "library: cached" in text
        assert "cached policy" not in text and "cached report" not in text
        assert {p.name: p.read_bytes() for p in out.iterdir()} == current

    # the JSONL files of small_raw as each earlier JSONL format wrote them,
    # one record per sample or sequence: format 1 had decimal records under a
    # header without sha256, format 2 the same records under a header with
    # it, and format 3 base64 float64 rows
    EARLIER_SHA256 = {
        1: {
            "dataset.jsonl": (
                "768ee7b8cefca950674d4fff51075d2ceb2e3b1acc3f8794633f9e69c3429aa4"
            ),
            "library.jsonl": (
                "da7fa260f6cb5d49da3601ca5219cae7313cc30728f757390ff2eead86499ad3"
            ),
        },
        2: {
            "dataset.jsonl": (
                "c0c8abbac19d8c6dc0bb6fe525611c0b98a5dd7ca43615b9ed44c0bff7ef146e"
            ),
            "library.jsonl": (
                "925452a1c3267ff0856a5772761dc543703adc9ec74ca351f650d8e4442659c0"
            ),
        },
        3: {
            "dataset.jsonl": (
                "1e1b7334dc1dfbc76fe1fb44d26fbd40a650fecd19322259662f641bc3e4c661"
            ),
            "library.jsonl": (
                "1791d7f3448813856131cd23c15640cc74f1e94c4648bc03f73ee34c493bd665"
            ),
        },
    }

    def test_format_1_jsonl_is_rewritten_and_the_rest_reused(self, tmp_path, capsys):
        self.check_rewritten_and_the_rest_reused(tmp_path, capsys, 1)

    def test_format_2_jsonl_is_rewritten_and_the_rest_reused(self, tmp_path, capsys):
        self.check_rewritten_and_the_rest_reused(tmp_path, capsys, 2)

    def test_format_3_jsonl_is_rewritten_and_the_rest_reused(self, tmp_path, capsys):
        self.check_rewritten_and_the_rest_reused(tmp_path, capsys, 3)

    def check_rewritten_and_the_rest_reused(self, tmp_path, capsys, version):
        out = tmp_path / "out"
        assert run_step(tmp_path, small_raw(), ["experiment"], out) == EXIT_OK
        current = {p.name: p.read_bytes() for p in out.iterdir()}
        for name, sha256 in self.EARLIER_SHA256[version].items():
            (out / name).write_bytes(earlier_jsonl(current[name], version))
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha256, name
        capsys.readouterr()
        assert run_step(tmp_path, small_raw(), ["experiment"], out) == EXIT_OK
        text = capsys.readouterr().out
        for line in (
            "dataset: 40 samples",
            "library: 4 sequences",
            "delta=0.3: cached policy",
            "delta=0.3: cached report",
        ):
            assert line in text
        assert {p.name: p.read_bytes() for p in out.iterdir()} == current
