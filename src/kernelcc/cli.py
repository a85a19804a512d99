"""Command-line front end: generate, solve, validate, experiment.

Every command reads one JSON run-configuration file and writes artifacts
into an output directory. Each artifact records a key computed from the
config sections it depends on and the keys of the artifacts it was built
from. ``experiment`` rebuilds a stage exactly when its key changes, so a
rerun reuses what is current and reproduces every file byte for byte.

Exit codes: 0 success, 2 configuration error, 3 infeasible solve, 4 IO
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .data import (
    ControlLibrary,
    DataLoadError,
    Dataset,
    generate_dataset,
    generate_library,
    load_dataset,
    load_library,
    save_dataset,
    save_library,
)
from .embedding import FitError, fit
from .policy import MixedPolicy, run_monte_carlo, trajectories_to_csv
from .serialize import canonical_json, digest_of, file_digest
from .solver import assemble, solve_lp, with_threshold

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

POLICY_FORMAT_VERSION = 2


class PolicyFileError(ValueError):
    """Raised when a policy file is unreadable or inconsistent with inputs."""


def _delta_tag(delta: float) -> str:
    """Filename fragment for a risk level, e.g. 0.05 -> "0.05"."""
    return repr(float(delta))


def _delta_path(out: Path, stem: str, delta: float, suffix: str = "json") -> Path:
    return out / f"{stem}_delta_{_delta_tag(delta)}.{suffix}"


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj) + "\n", encoding="utf-8")


def _read_json(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise PolicyFileError(f"cannot read {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolicyFileError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise PolicyFileError(f"{path}: expected a JSON object")
    return obj


def _recorded_key(artifact):
    """The key an artifact carries: its JSONL header fields or inputs digest."""
    if isinstance(artifact, Dataset):
        return [artifact.config_digest, artifact.master_seed]
    if isinstance(artifact, ControlLibrary):
        return artifact.config_digest
    return artifact.get("inputs_digest")


def _current(path: Path, load, key):
    """The artifact at path if it loads and records ``key``, else None.

    The one rule for every stage: a key covers the config sections the stage
    reads and the keys of the artifacts it was built from, so an artifact is
    reused exactly when none of its inputs changed.
    """
    if not path.exists():
        return None
    try:
        artifact = load(path)
    except (DataLoadError, PolicyFileError):
        return None
    return artifact if _recorded_key(artifact) == key else None


def _policy_key(cfg: RunConfig, ds: Dataset, lib: ControlLibrary, delta) -> str:
    # the library's config key stands in for its content digest, which is
    # too slow to recompute on every rerun; the scenario carries delta
    return digest_of(
        {
            "format_version": POLICY_FORMAT_VERSION,
            "dataset": _recorded_key(ds),
            "library": _recorded_key(lib),
            "kernels": [cfg.state_kernel, cfg.control_kernel],
            "regularization": cfg.regularization,
            "scenario": cfg.scenario_for(delta),
            "x0": cfg.initial_state,
        }
    )


def _report_key(cfg: RunConfig, policy_path: Path, delta, x0, seed: int) -> str:
    model = cfg.model
    return digest_of(
        {
            "policy": file_digest(policy_path),
            "system": [model.dt, model.prior, model.disturbance],
            "scenario": cfg.scenario_for(delta),
            "x0": x0,
            "seed": seed,
            "trials": cfg.trials,
        }
    )


def cmd_generate(cfg: RunConfig, out: Path) -> tuple[Dataset, ControlLibrary]:
    """Produce dataset.jsonl and library.jsonl, reusing current ones."""
    ds_path = out / "dataset.jsonl"
    lib_path = out / "library.jsonl"
    ds = _current(ds_path, load_dataset, [cfg.dataset_digest, cfg.master_seed])
    if ds is not None:
        print(f"dataset: cached ({ds.num_samples} samples, seed {ds.master_seed})")
    else:
        ds = generate_dataset(
            cfg.dataset, cfg.model, cfg.master_seed, digest=cfg.dataset_digest
        )
        save_dataset(ds, ds_path)
        print(
            f"dataset: {ds.num_samples} samples, horizon {ds.horizon}, "
            f"seed {ds.master_seed} -> {ds_path}"
        )
    lib = _current(lib_path, load_library, cfg.library_digest)
    if lib is not None:
        print(f"library: cached ({lib.num_sequences} sequences)")
    else:
        lib = generate_library(
            cfg.library, cfg.model, cfg.nominal_params, digest=cfg.library_digest
        )
        save_library(lib, lib_path)
        print(
            f"library: {lib.num_sequences} sequences, horizon {lib.horizon} "
            f"-> {lib_path}"
        )
    return ds, lib


def _solve(cfg: RunConfig, out: Path, ds, lib, deltas) -> dict[float, dict]:
    """Fit, solve the LP for each risk level, write and return the policies."""
    model = fit(ds, cfg.state_kernel, cfg.control_kernel, cfg.regularization)
    # one kernel solve covers the whole sweep; only the threshold changes
    base = assemble(model, cfg.scenario_for(deltas[0]), lib, cfg.initial_state)
    policies = {}
    for delta in deltas:
        inst = with_threshold(base, delta)
        result = solve_lp(inst)
        diagnostics = inst.diagnostics
        # only what the inputs digest fixes, so a reused policy and a fresh
        # one are the same bytes
        policies[delta] = {
            "format_version": POLICY_FORMAT_VERSION,
            "kind": "policy",
            "delta": float(delta),
            "x0": [float(v) for v in cfg.initial_state],
            "master_seed": ds.master_seed,
            "library_digest": lib.content_digest,
            "embedding_digest": model.digest,
            "inputs_digest": _policy_key(cfg, ds, lib, delta),
            "solve": result.to_dict(),
            "safety_estimates": {
                "threshold": inst.threshold,
                "min": diagnostics.min_value,
                "max": diagnostics.max_value,
                "num_below_zero": diagnostics.num_below_zero,
                "num_above_one": diagnostics.num_above_one,
            },
        }
        path = _delta_path(out, "policy", delta)
        _write_json(path, policies[delta])
        if result.status == "optimal":
            print(
                f"delta={delta}: objective {result.objective:.6f}, "
                f"support {list(result.support)}, safety estimates in "
                f"[{diagnostics.min_value:.4f}, {diagnostics.max_value:.4f}]"
                f" -> {path}"
            )
        else:
            # Monte-Carlo files of an earlier feasible solve describe a
            # policy that no longer exists, and none will replace them
            _delta_path(out, "report", delta).unlink(missing_ok=True)
            _delta_path(out, "trajectories", delta, "csv").unlink(missing_ok=True)
            print(
                f"delta={delta}: {result.status} (no estimate reaches "
                f"{inst.threshold:.4f}) -> {path}"
            )
    return policies


def _exit_code(policies) -> int:
    optimal = all(p["solve"]["status"] == "optimal" for p in policies)
    return EXIT_OK if optimal else EXIT_INFEASIBLE


def cmd_solve(cfg: RunConfig, out: Path) -> int:
    """Fit the embedding and solve the LP for each risk level; write policies."""
    ds = load_dataset(out / "dataset.jsonl")
    lib = load_library(out / "library.jsonl")
    return _exit_code(_solve(cfg, out, ds, lib, cfg.deltas).values())


def _policy_from_record(record: dict, lib: ControlLibrary, path: Path) -> MixedPolicy:
    for key in ("delta", "x0", "solve", "library_digest", "master_seed"):
        if key not in record:
            raise PolicyFileError(f"{path}: policy file missing field {key!r}")
    if record.get("format_version") != POLICY_FORMAT_VERSION:
        raise PolicyFileError(
            f"{path}: unsupported policy format_version "
            f"{record.get('format_version')!r}"
        )
    if record["library_digest"] != lib.content_digest:
        raise PolicyFileError(
            f"{path}: policy was solved against a different library "
            f"(digest {record['library_digest'][:12]}... vs current "
            f"{lib.content_digest[:12]}...); regenerate or re-solve"
        )
    solve = record["solve"]
    if solve.get("status") != "optimal":
        raise PolicyFileError(
            f"{path}: policy records an unsuccessful solve "
            f"(status {solve.get('status')!r}); nothing to validate"
        )
    weights = np.zeros(lib.num_sequences)
    for index, weight in solve["weights"]:
        if not (0 <= int(index) < lib.num_sequences):
            raise PolicyFileError(f"{path}: weight index {index} out of range")
        weights[int(index)] = float(weight)
    return MixedPolicy(
        weights=weights,
        library=lib,
        x0=np.asarray(record["x0"], dtype=float),
        delta=float(record["delta"]),
        model_digest=str(record.get("embedding_digest", "")),
    )


def cmd_validate(
    cfg: RunConfig,
    out: Path,
    policy_path: Path,
    x0_override: np.ndarray | None = None,
    seed_override: int | None = None,
) -> dict:
    """Monte-Carlo validate a saved policy; write and return its report."""
    lib = load_library(out / "library.jsonl")
    record = _read_json(policy_path)
    policy = _policy_from_record(record, lib, policy_path)
    sc = cfg.scenario_for(policy.delta)
    x0 = policy.x0 if x0_override is None else np.asarray(x0_override, float)
    seed = cfg.mc_seed if seed_override is None else int(seed_override)
    report = run_monte_carlo(policy, cfg.model, sc, x0, cfg.trials, seed)
    report_path = _delta_path(out, "report", policy.delta)
    # the seed and library recorded are the policy's, fixed by the inputs
    # digest like everything else here
    record_out = {
        "kind": "report",
        "delta": policy.delta,
        "x0": [float(v) for v in x0],
        "master_seed": record["master_seed"],
        "library_digest": record["library_digest"],
        "objective": record["solve"].get("objective"),
        "inputs_digest": _report_key(cfg, policy_path, policy.delta, x0, seed),
        "report": report.to_dict(),
    }
    _write_json(report_path, record_out)
    trajectories_to_csv(report, _delta_path(out, "trajectories", policy.delta, "csv"))
    print(
        f"delta={policy.delta}: success rate {report.success_rate:.4f} "
        f"({report.successes}/{report.trials}), Wilson 95% "
        f"[{report.wilson_low:.4f}, {report.wilson_high:.4f}] -> {report_path}"
    )
    return record_out


def _summary_row(delta: float, policy: dict, report: dict | None) -> dict:
    """One summary line; the Monte-Carlo cells stay empty without a report."""
    mc = report["report"] if report is not None else {"wilson_95": [None, None]}
    return {
        "delta": float(delta),
        "status": policy["solve"]["status"],
        "objective": policy["solve"]["objective"],
        "success_rate": mc.get("success_rate"),
        "wilson_low": mc["wilson_95"][0],
        "wilson_high": mc["wilson_95"][1],
        "trials": mc.get("trials"),
    }


def _write_summary(cfg: RunConfig, out: Path, rows: list[dict]) -> None:
    _write_json(
        out / "summary.json",
        {
            "kind": "summary",
            "config_digest": cfg.digest,
            "master_seed": cfg.master_seed,
            "rows": rows,
        },
    )
    def cell(value) -> str:
        if value is None:
            return ""
        # repr keeps floats round-trip exact; strings stay bare
        return value if isinstance(value, str) else repr(value)

    # the CSV columns follow the key order of a summary row
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(cell(value) for value in row.values()))
    (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_experiment(cfg: RunConfig, out: Path) -> int:
    """Generate, solve, validate and summarize, rebuilding only stale stages."""
    ds, lib = cmd_generate(cfg, out)
    policies = {}
    for delta in cfg.deltas:
        key = _policy_key(cfg, ds, lib, delta)
        policies[delta] = _current(_delta_path(out, "policy", delta), _read_json, key)
        if policies[delta] is not None:
            print(f"delta={delta}: cached policy")
    stale = [delta for delta in cfg.deltas if policies[delta] is None]
    if stale:
        policies.update(_solve(cfg, out, ds, lib, stale))
    rows = []
    for delta in cfg.deltas:
        report = None
        if policies[delta]["solve"]["status"] == "optimal":
            policy_path = _delta_path(out, "policy", delta)
            key = _report_key(cfg, policy_path, delta, cfg.initial_state, cfg.mc_seed)
            report = _current(_delta_path(out, "report", delta), _read_json, key)
            if report is not None:
                print(f"delta={delta}: cached report")
            else:
                report = cmd_validate(cfg, out, policy_path)
        rows.append(_summary_row(delta, policies[delta], report))
    _write_summary(cfg, out, rows)
    print(f"summary -> {out / 'summary.csv'}")
    return _exit_code(policies.values())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelcc",
        description=(
            "Data-driven chance-constrained control: fit a kernel embedding "
            "from trajectory data and pick a mixture over a control library."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_delta=True, with_x0=True):
        p.add_argument("--config", required=True, help="JSON run configuration file")
        p.add_argument(
            "--out-dir", default=None, help="output directory (default from config)"
        )
        p.add_argument(
            "--seed", type=int, default=None, help="override the master seed"
        )
        if with_delta:
            p.add_argument(
                "--delta",
                type=float,
                default=None,
                help="restrict the sweep to one risk level",
            )
        if with_x0:
            p.add_argument(
                "--x0",
                type=float,
                nargs=4,
                default=None,
                metavar=("PX", "VX", "PY", "VY"),
                help="override the initial state",
            )

    common(sub.add_parser("generate", help="write dataset and library files"),
           with_delta=False, with_x0=False)
    common(sub.add_parser("solve", help="fit embedding and solve per risk level"))
    p_val = sub.add_parser("validate", help="Monte-Carlo validate a saved policy")
    common(p_val, with_delta=False)
    p_val.add_argument("--policy", required=True, help="policy JSON file to validate")
    common(sub.add_parser("experiment", help="full pipeline plus summary table"))
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """The config with --seed, --delta and --x0 in place of its own values."""
    changes = {}
    if args.seed is not None:
        changes["master_seed"] = int(args.seed)
    if getattr(args, "delta", None) is not None:
        if not (0.0 < args.delta < 1.0):
            raise ConfigError(f"--delta must lie in (0,1), got {args.delta}")
        changes["deltas"] = (float(args.delta),)
    if getattr(args, "x0", None) is not None:
        changes["initial_state"] = np.asarray(args.x0, float)
    return dataclasses.replace(cfg, **changes)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Path(args.out_dir) if args.out_dir else Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "validate":
            # validate's --seed and --x0 override the Monte-Carlo run only
            cmd_validate(cfg, out, Path(args.policy), args.x0, args.seed)
            return EXIT_OK
        cfg = _apply_overrides(cfg, args)
        if args.command == "generate":
            cmd_generate(cfg, out)
            return EXIT_OK
        if args.command == "solve":
            return cmd_solve(cfg, out)
        return cmd_experiment(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PolicyFileError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataLoadError, OSError) as exc:
        print(f"IO error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
