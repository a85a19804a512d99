"""Independent checks of one workload's artifacts, outside any timed region.

Run by ``run.py`` on an output directory after its operations finished:

* every risk level meets the fixed floor ``success_rate >= 1 - delta - 0.03``;
* each policy's weights are non-negative, sum to 1 and have at most two
  nonzero entries;
* each policy's objective matches a HiGHS solve (``scipy.optimize.linprog``)
  of the same assembled LP rows to 1e-9 relative;
* ``estimate_gap``: the mean over risk levels of |realized Monte-Carlo success
  rate - estimated success of the chosen mixture (``safety_row @ weights``)|.

The LP rows are rebuilt with the program's own ``fit`` and ``assemble`` from
the saved dataset and library; the independent part is the LP solve.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from kernelcc.cli import _delta_tag
from kernelcc.config import load_config
from kernelcc.data import load_dataset, load_library
from kernelcc.embedding import fit
from kernelcc.solver import assemble

FLOOR_SLACK = 0.03
OBJECTIVE_RTOL = 1e-9
WEIGHT_SUM_TOL = 1e-9


def highs_objective(cost: np.ndarray, safety: np.ndarray, threshold: float) -> float:
    """min c.w  s.t.  safety.w >= threshold, sum(w) = 1, w >= 0."""
    res = linprog(
        cost,
        A_ub=-safety[None, :],
        b_ub=[-threshold],
        A_eq=np.ones((1, cost.size)),
        b_eq=[1.0],
        bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the LP: {res.message}")
    return float(res.fun)


def check_directory(config_path: str, out: Path) -> dict:
    cfg = load_config(config_path)
    ds = load_dataset(out / "dataset.jsonl")
    lib = load_library(out / "library.jsonl")
    model = fit(ds, cfg.state_kernel, cfg.control_kernel, cfg.regularization)
    base = assemble(model, cfg.scenario_for(cfg.deltas[0]), lib, cfg.initial_state)
    failures, gaps = [], []
    for delta in cfg.deltas:
        tag = _delta_tag(delta)
        where = f"delta={delta}"
        try:
            policy = json.loads((out / f"policy_delta_{tag}.json").read_text())["solve"]
            if policy["status"] != "optimal":
                failures.append(f"{where}: solve status {policy['status']}")
                continue
            report = json.loads((out / f"report_delta_{tag}.json").read_text())["report"]
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"{where}: unreadable artifact: {exc!r}")
            continue
        weights = np.zeros(lib.num_sequences)
        for index, weight in policy["weights"]:
            weights[int(index)] = float(weight)
        if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            failures.append(f"{where}: weights sum to {weights.sum()!r}")
        if np.count_nonzero(weights) > 2:
            failures.append(f"{where}: support has {np.count_nonzero(weights)} elements")
        threshold = 1.0 - delta
        reference = highs_objective(base.cost_row, base.safety_row, threshold)
        if abs(policy["objective"] - reference) > OBJECTIVE_RTOL * abs(reference):
            failures.append(
                f"{where}: objective {policy['objective']!r} vs HiGHS {reference!r}"
            )
        rate = float(report["success_rate"])
        if rate < 1.0 - delta - FLOOR_SLACK:
            failures.append(f"{where}: success rate {rate} below floor")
        gaps.append(abs(rate - float(base.safety_row @ weights)))
    return {
        "failures": failures,
        "estimate_gap": float(np.mean(gaps)) if gaps else None,
        "environment": environment(),
    }


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    result = check_directory(args.config, Path(args.out_dir))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
