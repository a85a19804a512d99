"""Command-line front end: generate, solve, validate, experiment.

Every command reads one JSON run-configuration file and writes artifacts
into an output directory. Each artifact records a key computed from the
config sections it depends on and the keys of the artifacts it was built
from. Every command takes the dataset and library by that key: it reuses
the file whose key is current and rebuilds the other. ``solve`` and
``validate`` then compute every policy or report asked for again, while
``experiment`` rebuilds a policy or report exactly when its key changes, so
a rerun reuses what is current and reproduces every file byte for byte.

Exit codes: 0 success, 2 configuration or policy-file error, 3 infeasible
solve, 4 IO error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import policy as _policy
from .config import (
    ConfigError,
    RunConfig,
    check_delta,
    check_seed,
    check_state,
    load_config,
)
from .data import (
    ControlLibrary,
    DataLoadError,
    DatasetGenerationError,
    dataset_key,
    generate_dataset,
    generate_library,
    library_key,
    load_dataset,
    load_library,
    read_header,
    save_dataset,
    save_library,
)
from .embedding import FitError, fit
from .policy import MixedPolicy, check_weights, run_monte_carlo, trajectories_to_csv
from .serialize import canonical_json, digest_of, integer, real, write_csv
from .solver import assemble, solve_lp

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

POLICY_FORMAT_VERSION = 7


class PolicyFileError(ValueError):
    """Raised when a policy file is unreadable or inconsistent with inputs."""


def _delta_tag(delta: float) -> str:
    """Filename fragment for a risk level, e.g. 0.05 -> "0.05"."""
    return repr(float(delta))


def _delta_path(out: Path, stem: str, delta: float, suffix: str = "json") -> Path:
    return out / f"{stem}_delta_{_delta_tag(delta)}.{suffix}"


def _json_text(obj) -> str:
    """The text of the JSON file that holds obj."""
    return canonical_json(obj) + "\n"


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_text(obj), encoding="utf-8")


def _finite(text: str) -> float:
    """A JSON number or NaN/Infinity constant, refused unless finite:
    ``canonical_json`` writes no other."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _read_json(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise PolicyFileError(f"cannot read {path}: {exc}") from None
    try:
        obj = json.loads(text, parse_constant=_finite, parse_float=_finite)
    except json.JSONDecodeError as exc:
        raise PolicyFileError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except ValueError as exc:
        raise PolicyFileError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise PolicyFileError(f"{path}: expected a JSON object")
    return obj


def _read_record(fields: tuple, path: Path) -> dict:
    """A policy or report file that holds the given fields, each a key or a
    section.key, or a PolicyFileError naming the first one missing."""
    record = _read_json(path)
    for name in fields:
        values = record
        for key in name.split("."):
            if not isinstance(values, dict) or key not in values:
                raise PolicyFileError(f"{path}: missing field {name}")
            values = values[key]
    return record


# what experiment, its summary and validation read of a cached policy and
# report; a file without them is stale
_POLICY_FIELDS = (
    "delta",
    "x0",
    "library_digest",
    "master_seed",
    "solve.status",
    "solve.objective",
    "solve.weights",
)


def _read_policy(path: Path) -> dict:
    """A policy file that holds ``_POLICY_FIELDS``, each well formed as far
    as it can be checked without the library, or a PolicyFileError naming
    the file and the first field at fault; a cached policy that does not
    read is stale, so it is solved again rather than validated."""
    record = _read_record(_POLICY_FIELDS, path)
    if record.get("format_version") != POLICY_FORMAT_VERSION:
        raise PolicyFileError(
            f"{path}: unsupported policy format_version "
            f"{record.get('format_version')!r}"
        )
    digest = record["library_digest"]
    if not isinstance(digest, str):
        raise PolicyFileError(f"{path}: invalid library_digest: {json.dumps(digest)}")
    try:
        check_delta(record["delta"], "delta")
        check_state(record["x0"], "x0")
        check_seed(record["master_seed"], "master_seed")
    except ConfigError as exc:
        raise PolicyFileError(f"{path}: {exc}") from None
    solve = record["solve"]
    status, objective = solve["status"], solve["objective"]
    if status not in ("optimal", "infeasible"):
        raise PolicyFileError(f"{path}: invalid solve.status: {json.dumps(status)}")
    # an optimal solve has a real objective, an infeasible one none
    try:
        if status == "optimal":
            real(objective)
        elif objective is not None:
            raise ValueError
    except ValueError:
        raise PolicyFileError(
            f"{path}: invalid solve.objective for an {status} solve: "
            f"{json.dumps(objective)}"
        ) from None
    try:
        _weight_pairs(solve)
    except (ValueError, TypeError) as exc:
        raise PolicyFileError(f"{path}: invalid solve.weights: {exc}") from None
    return record


def _read_report(path: Path) -> dict:
    """A report file whose success rate and Wilson bounds are reals in
    [0, 1] and whose trial count is a positive integer, or a
    PolicyFileError naming the file and the first field at fault; a cached
    report that does not read is stale, so its policy is validated again."""
    record = _read_record(
        ("report.success_rate", "report.wilson_95", "report.trials"), path
    )
    mc = record["report"]
    try:
        if integer(mc["trials"], "trials") < 1:
            raise ValueError(f"trials must be positive, got {mc['trials']}")
        bounds = mc["wilson_95"]
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ValueError(f"wilson_95 must be a pair, got {bounds!r}")
        for name, value in zip(
            ("success_rate", "wilson_95[0]", "wilson_95[1]"),
            (mc["success_rate"], *bounds),
        ):
            if not 0.0 <= real(value, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    except ValueError as exc:
        raise PolicyFileError(f"{path}: invalid report: {exc}") from None
    return record


def _record_key(record: dict) -> tuple:
    """The key a policy or report file records: its inputs digest and its
    risk level, which is current only in the file named for it."""
    return record.get("inputs_digest"), record.get("delta")


def _current(path: Path, read, recorded_key, key, *beside: Path):
    """What ``read`` makes of path if it reads and ``recorded_key`` of that
    is ``key``, else None; None too if a file ``beside`` it that the same
    stage writes is missing.

    The one rule for every stage: a key covers the config sections the stage
    reads and the keys of the artifacts it was built from, so an artifact is
    reused exactly when none of its inputs changed.
    """
    if not all(p.exists() for p in (path, *beside)):
        return None
    try:
        artifact = read(path)
    except (DataLoadError, PolicyFileError):
        return None
    return artifact if recorded_key(artifact) == key else None


@dataclasses.dataclass(frozen=True)
class _Input:
    """A dataset or library of this run: its key, and ``get``, which returns
    the artifact; a cached file not parsed to check it is parsed at the
    first call, and only then."""

    key: object
    get: Callable[[], object]


def _policy_key(cfg: RunConfig, ds_key, lib_key, delta) -> str:
    # built from the dataset and library keys, by the one rule every stage
    # follows: the library enters by its config key, not its content
    # digest; the scenario carries delta
    return digest_of(
        {
            "format_version": POLICY_FORMAT_VERSION,
            "dataset": ds_key,
            "library": lib_key,
            "kernels": [cfg.state_kernel, cfg.control_kernel],
            "regularization": cfg.regularization,
            "scenario": cfg.scenario_for(delta),
            "x0": cfg.initial_state,
        }
    )


def _report_key(cfg: RunConfig, record: dict, x0) -> str:
    # the policy enters by the sha256 of the text _write_json gives its
    # record, which is the sha256 of every policy file this program writes;
    # the kept count sizes the trajectory CSV written beside the report
    model = cfg.model
    return digest_of(
        {
            "policy": hashlib.sha256(_json_text(record).encode("utf-8")).hexdigest(),
            "system": [model.dt, model.prior, model.disturbance],
            "scenario": cfg.scenario_for(record["delta"]),
            "x0": x0,
            "seed": cfg.mc_seed,
            "trials": cfg.trials,
            "kept": _policy.MAX_KEPT_TRAJECTORIES,
        }
    )


def _load_or_build(
    out: Path, kind: str, key, key_of, build, save, load, parse: bool
) -> _Input:
    """The ``kind`` input of this run: <kind>.jsonl in out if it is current,
    else what ``build()`` returns, saved there by ``save``.

    A file is current when it records ``key``, by ``key_of`` of the artifact
    or of its header, and its bytes match the header's sha256. With
    ``parse``, ``load`` parses the file to check that, so it is hashed once;
    else only its header line is decoded, and ``load`` parses it when a
    stage first asks for its records, and hashes it again as it does.
    """
    path = out / f"{kind}.jsonl"
    noun = "samples" if kind == "dataset" else "sequences"
    count = f"num_{noun}"  # the artifact property that counts the records
    read = load if parse else functools.partial(read_header, kind=kind)
    found = _current(path, read, key_of, key)
    if found is None:
        found = build()
        save(found, path)
        print(
            f"{kind}: {getattr(found, count)} {noun}, horizon {found.horizon} "
            f"-> {path}"
        )
    elif parse:
        print(f"{kind}: cached ({getattr(found, count)} {noun})")
    else:
        print(f"{kind}: cached ({found.count} {noun})")
        return _Input(key, functools.cache(functools.partial(load, path)))
    return _Input(key, lambda: found)


def _dataset(cfg: RunConfig, out: Path, parse: bool) -> _Input:
    # the functions are looked up here and in _library, at call time, so a
    # caller can patch the names this module imported
    return _load_or_build(
        out,
        "dataset",
        [dataset_key(cfg.dataset, cfg.model), cfg.master_seed],
        lambda ds: [ds.config_digest, ds.master_seed],
        functools.partial(generate_dataset, cfg.dataset, cfg.model, cfg.master_seed),
        save_dataset,
        load_dataset,
        parse,
    )


def _library(cfg: RunConfig, out: Path, parse: bool) -> _Input:
    return _load_or_build(
        out,
        "library",
        library_key(cfg.library, cfg.model),
        lambda lib: lib.config_digest,
        functools.partial(generate_library, cfg.library, cfg.model),
        save_library,
        load_library,
        parse,
    )


def cmd_generate(cfg: RunConfig, out: Path) -> tuple[_Input, _Input]:
    """Produce dataset.jsonl and library.jsonl, reusing current ones."""
    return _dataset(cfg, out, parse=False), _library(cfg, out, parse=False)


def _solve(
    cfg: RunConfig, out: Path, ds: _Input, lib: _Input, deltas
) -> dict[float, dict]:
    """Fit, solve the LP for each risk level, write and return the policies."""
    dataset, library = ds.get(), lib.get()
    model = fit(dataset, cfg.state_kernel, cfg.control_kernel, cfg.regularization)
    # one kernel solve covers the whole sweep; only the threshold changes
    base = assemble(model, cfg.scenario_for(deltas[0]), library, cfg.initial_state)
    # no threshold changes how the estimates spread
    estimates = base.safety_spread()
    policies = {}
    for delta in deltas:
        inst = base.at_threshold(1.0 - delta)
        result = solve_lp(inst)
        # only what the inputs digest fixes, so a reused policy and a fresh
        # one are the same bytes
        policies[delta] = {
            "format_version": POLICY_FORMAT_VERSION,
            "kind": "policy",
            "delta": float(delta),
            "x0": [float(v) for v in cfg.initial_state],
            "master_seed": dataset.master_seed,
            "library_digest": library.content_digest,
            "embedding_digest": model.digest,
            "inputs_digest": _policy_key(cfg, ds.key, lib.key, delta),
            "solve": result.to_dict(),
            "safety_estimates": {"threshold": inst.threshold, **estimates},
        }
        path = _delta_path(out, "policy", delta)
        _write_json(path, policies[delta])
        if result.status == "optimal":
            print(
                f"delta={delta}: objective {result.objective:.6f}, "
                f"support {list(result.support)}, safety estimates in "
                f"[{estimates['min']:.4f}, {estimates['max']:.4f}]"
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
    """Solve the LP for every risk level again, on the dataset and library
    ``experiment`` would take; write policies."""
    ds, lib = _dataset(cfg, out, parse=True), _library(cfg, out, parse=True)
    return _exit_code(_solve(cfg, out, ds, lib, cfg.deltas).values())


def _weight_pairs(solve: dict) -> tuple[list[int], np.ndarray]:
    """The indices and weights of a solve's [index, weight] pairs; a
    ValueError or TypeError if a pair is malformed, or if the solve is
    optimal and its weights do not form a probability vector."""
    indices, weights = [], []
    for index, weight in solve["weights"]:
        if integer(index, "index") < 0:
            raise ValueError(f"index {index} out of range")
        indices.append(index)
        weights.append(real(weight, "weight"))
    weights = np.array(weights)
    if solve["status"] == "optimal":
        check_weights(weights)
    return indices, weights


def _policy_from_record(record: dict, lib: ControlLibrary, path: Path) -> MixedPolicy:
    """The policy of a record ``_read_policy`` returned, if it was solved
    against ``lib``; a PolicyFileError names the file and the first field
    at fault."""
    digest = record["library_digest"]
    if digest != lib.content_digest:
        raise PolicyFileError(
            f"{path}: policy was solved against a different library "
            f"(digest {digest[:12]}... vs current {lib.content_digest[:12]}...); "
            "regenerate or re-solve"
        )
    solve = record["solve"]
    if solve["status"] != "optimal":
        raise PolicyFileError(
            f"{path}: policy records an unsuccessful solve "
            f"(status {solve['status']!r}); nothing to validate"
        )
    indices, values = _weight_pairs(solve)
    try:
        if max(indices) >= lib.num_sequences:
            raise ValueError(f"index {max(indices)} out of range")
        weights = np.zeros(lib.num_sequences)
        weights[indices] = values
        return MixedPolicy(weights=weights, library=lib)
    except ValueError as exc:
        raise PolicyFileError(f"{path}: invalid solve.weights: {exc}") from None


def cmd_validate(
    cfg: RunConfig,
    out: Path,
    records: dict[Path, dict],
    lib: ControlLibrary,
    x0: np.ndarray | None = None,
) -> dict[float, dict]:
    """Monte-Carlo validate policies of the library ``lib`` from x0, or else
    from the first policy's own x0, together on one set of draws; write and
    return their reports by delta.

    ``records`` maps each policy file to the record ``_read_policy`` made of
    it, or ``_solve`` wrote there. Every record is checked against ``lib``
    before any simulation.
    """
    policies = [
        _policy_from_record(record, lib, path) for path, record in records.items()
    ]
    if x0 is None:
        x0 = np.asarray(next(iter(records.values()))["x0"], dtype=float)
    mc_reports = run_monte_carlo(
        policies, cfg.model, cfg.scenario, x0, cfg.trials, cfg.mc_seed
    )
    reports = {}
    for record, report in zip(records.values(), mc_reports):
        delta = float(record["delta"])
        report_path = _delta_path(out, "report", delta)
        # the seed and library recorded are the policy's, fixed by the
        # inputs digest like everything else here
        reports[delta] = {
            "kind": "report",
            "delta": delta,
            "x0": [float(v) for v in x0],
            "master_seed": record["master_seed"],
            "library_digest": record["library_digest"],
            "objective": record["solve"]["objective"],
            "inputs_digest": _report_key(cfg, record, x0),
            "report": report.to_dict(),
        }
        _write_json(report_path, reports[delta])
        csv_path = _delta_path(out, "trajectories", delta, "csv")
        trajectories_to_csv(report, csv_path)
        print(
            f"delta={delta}: success rate {report.success_rate:.4f} "
            f"({report.successes}/{report.trials}), Wilson 95% "
            f"[{report.wilson_low:.4f}, {report.wilson_high:.4f}] "
            f"-> {report_path}"
        )
    return reports


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
    # the CSV columns follow the key order of a summary row
    write_csv(out / "summary.csv", rows[0], [row.values() for row in rows])


def cmd_experiment(cfg: RunConfig, out: Path) -> int:
    """Generate, solve, validate and summarize, rebuilding only stale stages."""
    ds, lib = cmd_generate(cfg, out)
    policies = {}
    for delta in cfg.deltas:
        key = _policy_key(cfg, ds.key, lib.key, delta), delta
        policies[delta] = _current(
            _delta_path(out, "policy", delta), _read_policy, _record_key, key
        )
        if policies[delta] is not None:
            print(f"delta={delta}: cached policy")
    stale = [delta for delta in cfg.deltas if policies[delta] is None]
    if stale:
        policies.update(_solve(cfg, out, ds, lib, stale))
    reports, unvalidated = {}, {}
    for delta in cfg.deltas:
        if policies[delta]["solve"]["status"] != "optimal":
            continue
        key = _report_key(cfg, policies[delta], cfg.initial_state), delta
        reports[delta] = _current(
            _delta_path(out, "report", delta),
            _read_report,
            _record_key,
            key,
            _delta_path(out, "trajectories", delta, "csv"),
        )
        if reports[delta] is not None:
            print(f"delta={delta}: cached report")
        else:
            unvalidated[_delta_path(out, "policy", delta)] = policies[delta]
    if unvalidated:
        reports.update(
            cmd_validate(cfg, out, unvalidated, lib.get(), cfg.initial_state)
        )
    rows = [_summary_row(d, policies[d], reports.get(d)) for d in cfg.deltas]
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
    common(sub.add_parser(
        "solve", help="solve every risk level again on the config's dataset and library"
    ))
    p_val = sub.add_parser(
        "validate", help="Monte-Carlo validate a saved policy on the config's library"
    )
    common(p_val, with_delta=False)
    p_val.add_argument("--policy", required=True, help="policy JSON file to validate")
    common(sub.add_parser("experiment", help="full pipeline plus summary table"))
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """The config with --seed, --delta and --x0 in place of its own values,
    each checked like the key it replaces (validate's --seed: the MC seed)."""
    changes = {}
    if args.seed is not None:
        seed = "mc_seed" if args.command == "validate" else "master_seed"
        changes[seed] = check_seed(args.seed, "--seed")
    if getattr(args, "delta", None) is not None:
        changes["deltas"] = (check_delta(args.delta, "--delta"),)
    if getattr(args, "x0", None) is not None:
        changes["initial_state"] = check_state(args.x0, "--x0")
    return dataclasses.replace(cfg, **changes)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        out = Path(args.out_dir) if args.out_dir else Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "validate":
            # validate's --x0 replaces the initial state of the policy
            x0 = None if args.x0 is None else cfg.initial_state
            policy_path = Path(args.policy)
            records = {policy_path: _read_policy(policy_path)}
            cmd_validate(cfg, out, records, _library(cfg, out, parse=True).get(), x0)
            return EXIT_OK
        if args.command == "generate":
            cmd_generate(cfg, out)
            return EXIT_OK
        if args.command == "solve":
            return cmd_solve(cfg, out)
        return cmd_experiment(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PolicyFileError, FitError, DatasetGenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataLoadError, OSError) as exc:
        print(f"IO error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
