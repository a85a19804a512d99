"""Tests for the command-line front end."""

import json

import numpy as np
import pytest

from kernelcc.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    main,
)


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
            "state": {"bandwidth_mode": "fixed", "bandwidth": 10.0},
            "control": {"bandwidth_mode": "fixed", "bandwidth": 0.1},
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
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


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

    def test_missing_inputs_io_error(self, tmp_path):
        cfg = write_config(tmp_path, small_raw())
        rc = main(["solve", "--config", str(cfg), "--out-dir",
                   str(tmp_path / "nothing")])
        assert rc == EXIT_IO


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

    def test_missing_policy_file(self, tmp_path):
        cfg, out, _ = self.make_policy(tmp_path)
        rc = main(["validate", "--config", str(cfg), "--out-dir", str(out),
                   "--policy", str(out / "nope.json")])
        assert rc == EXIT_CONFIG

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


class TestErrors:
    def test_missing_section_exit_code(self, tmp_path, capsys):
        raw = small_raw()
        del raw["kernel"]
        cfg = write_config(tmp_path, raw)
        rc = main(["experiment", "--config", str(cfg), "--out-dir",
                   str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "kernel" in capsys.readouterr().err

    def test_config_syntax_error_exit_code(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        rc = main(["generate", "--config", str(cfg), "--out-dir",
                   str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
