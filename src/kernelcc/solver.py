"""Chance-constrained linear program over mixture weights on a control library.

The decision variable is a probability vector over the P library sequences.
The program minimizes the expected cost row subject to the estimated success
probability meeting a threshold:

    min  cost_row @ w   s.t.  safety_row @ w >= threshold,  w in the simplex.

With P variables, one equality (simplex) and one inequality, an optimal basic
solution has at most two nonzero weights, so the solver enumerates pure
strategies and boundary mixtures of one infeasible with one feasible index.
This is exact and needs no external LP dependency.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import ControlLibrary
from .embedding import EmbeddingModel, cross_matrix
from .kernels import spd_solve
from .scenario import Scenario, control_cost, indicator_T, state_cost

# near-ties in objective are resolved by support order, so solves reproduce
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SafetyDiagnostics:
    """How many estimated success probabilities fall outside [0, 1]."""

    num_below_zero: int
    num_above_one: int
    min_value: float
    max_value: float


@dataclass(frozen=True)
class LPInstance:
    """Assembled data of the chance-constrained linear program."""

    cost_row: np.ndarray
    safety_row: np.ndarray
    threshold: float
    diagnostics: SafetyDiagnostics

    def __post_init__(self):
        cost = np.asarray(self.cost_row, dtype=float)
        safety = np.asarray(self.safety_row, dtype=float)
        if cost.ndim != 1 or cost.shape != safety.shape:
            raise ValueError("cost and safety rows must be 1-d of equal length")
        for name, row in (("cost", cost), ("safety", safety)):
            bad = np.flatnonzero(~np.isfinite(row))
            if bad.size:
                raise ValueError(
                    f"{name} row has a non-finite value {row[bad[0]]} "
                    f"at index {bad[0]}"
                )
        if not (0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must lie in (0,1), got {self.threshold}")
        object.__setattr__(self, "cost_row", cost)
        object.__setattr__(self, "safety_row", safety)

    @property
    def num_sequences(self) -> int:
        return self.cost_row.shape[0]


@dataclass(frozen=True)
class SolveResult:
    """LP solution: mixture weights, objective, support, and status."""

    weights: np.ndarray
    objective: float | None
    support: tuple[int, ...]
    status: str

    def to_dict(self) -> dict:
        """JSON-ready form with sparse weights as (index, weight) pairs."""
        return {
            "status": self.status,
            "objective": self.objective,
            "support": list(self.support),
            "weights": [[int(i), float(self.weights[i])] for i in self.support],
        }


def safety_diagnostics(safety_row: np.ndarray) -> SafetyDiagnostics:
    safety_row = np.asarray(safety_row, dtype=float)
    return SafetyDiagnostics(
        num_below_zero=int(np.sum(safety_row < 0.0)),
        num_above_one=int(np.sum(safety_row > 1.0)),
        min_value=float(safety_row.min()),
        max_value=float(safety_row.max()),
    )


def assemble(
    model: EmbeddingModel, sc: Scenario, lib: ControlLibrary, x0
) -> LPInstance:
    """Build the LP rows for one initial state.

    Solves the factorized system once against all P cross-kernel columns;
    the cost row combines estimated expected state cost with the (known)
    control cost of each library sequence, and the safety row holds the
    estimated probability that a trajectory satisfies every constraint.
    """
    if sc.horizon != model.horizon:
        raise ValueError(
            f"scenario horizon {sc.horizon} does not match model horizon "
            f"{model.horizon}"
        )
    coeff_matrix = spd_solve(model.factor, cross_matrix(model, x0, lib.sequences))
    trajectories = model.dataset.trajectories
    state_vals = state_cost(sc, trajectories)
    indicator_vals = indicator_T(sc, trajectories)
    cost_row = state_vals @ coeff_matrix + control_cost(sc, lib.sequences)
    safety_row = indicator_vals @ coeff_matrix
    return LPInstance(
        cost_row=cost_row,
        safety_row=safety_row,
        threshold=1.0 - sc.delta,
        diagnostics=safety_diagnostics(safety_row),
    )


def with_threshold(inst: LPInstance, delta: float) -> LPInstance:
    """The same LP rows with a different risk budget.

    Only the threshold depends on the risk budget, so a sweep reuses one
    assembled instance instead of re-solving the kernel system per level.
    """
    return LPInstance(
        cost_row=inst.cost_row,
        safety_row=inst.safety_row,
        threshold=1.0 - delta,
        diagnostics=inst.diagnostics,
    )


def solve_lp(inst: LPInstance) -> SolveResult:
    """Exact optimum of the chance-constrained LP.

    Candidates are the cheapest feasible pure strategy and the cheapest
    two-point mixture sitting exactly on the probability threshold; ties
    within 1e-12 go to the lexicographically smallest support index set.
    """
    c, a, thr = inst.cost_row, inst.safety_row, inst.threshold
    p = inst.num_sequences
    feasible = a >= thr
    if not np.any(feasible):
        return SolveResult(
            weights=np.zeros(p), objective=None, support=(), status="infeasible"
        )
    if np.all(a[feasible] > 1.0):
        warnings.warn(
            "chance constraint met only through probability estimates above 1; "
            "the solution may not be reliable",
            RuntimeWarning,
            stacklevel=2,
        )
    candidates = []

    feas_idx = np.flatnonzero(feasible)
    pure_min = float(np.min(c[feas_idx]))
    for j in feas_idx[c[feas_idx] <= pure_min + TIE_TOLERANCE]:
        candidates.append((float(c[j]), (int(j),), None))

    infeas_idx = np.flatnonzero(~feasible)
    if infeas_idx.size > 0:
        # mixing weight on the feasible index puts the pair exactly on the
        # threshold: t = (thr - a_j) / (a_k - a_j) for a_j < thr <= a_k
        a_j = a[infeas_idx][:, None]
        a_k = a[feas_idx][None, :]
        c_j = c[infeas_idx][:, None]
        c_k = c[feas_idx][None, :]
        t = (thr - a_j) / (a_k - a_j)
        pair_obj = (1.0 - t) * c_j + t * c_k
        best_flat = np.argmin(pair_obj)
        best_obj = float(pair_obj.flat[best_flat])
        # gather every pair within the tie window of the pair minimum
        tied = np.argwhere(pair_obj <= best_obj + TIE_TOLERANCE)
        for row, col in tied:
            j = int(infeas_idx[row])
            k = int(feas_idx[col])
            candidates.append(
                (float(pair_obj[row, col]), tuple(sorted((j, k))), float(t[row, col]))
            )

    best_objective = min(obj for obj, _, _ in candidates)
    in_window = [
        cand for cand in candidates if cand[0] <= best_objective + TIE_TOLERANCE
    ]
    obj, support, t = min(in_window, key=lambda cand: cand[1])

    weights = np.zeros(p)
    if t is None:
        weights[support[0]] = 1.0
    else:
        j, k = support
        # support was sorted; recover which index is the feasible one
        if a[j] >= thr:
            j, k = k, j
        weights[j] = 1.0 - t
        weights[k] = t
    support = tuple(int(i) for i in np.flatnonzero(weights > 0.0))
    return SolveResult(
        weights=weights, objective=float(obj), support=support, status="optimal"
    )


def brute_oracle(inst: LPInstance) -> SolveResult:
    """Exhaustive reference solver for test-scale instances.

    Evaluates every pure strategy and every two-point boundary mixture with
    plain loops; intended as an independent check of solve_lp.
    """
    c, a, thr = inst.cost_row, inst.safety_row, inst.threshold
    p = inst.num_sequences
    if p > 200:
        raise ValueError("brute_oracle is limited to 200 sequences")
    best = None  # (objective, support, weights)
    for j in range(p):
        if a[j] >= thr:
            weights = np.zeros(p)
            weights[j] = 1.0
            best = _better(best, (float(c[j]), (j,), weights))
    for j in range(p):
        for k in range(j + 1, p):
            lo, hi = (j, k) if a[j] <= a[k] else (k, j)
            if not (a[lo] < thr <= a[hi]):
                continue
            t = (thr - a[lo]) / (a[hi] - a[lo])
            if not (0.0 < t < 1.0):
                continue
            weights = np.zeros(p)
            weights[lo] = 1.0 - t
            weights[hi] = t
            obj = float((1.0 - t) * c[lo] + t * c[hi])
            best = _better(best, (obj, (j, k), weights))
    if best is None:
        return SolveResult(
            weights=np.zeros(p), objective=None, support=(), status="infeasible"
        )
    obj, _, weights = best
    support = tuple(int(i) for i in np.flatnonzero(weights > 0.0))
    return SolveResult(
        weights=weights, objective=obj, support=support, status="optimal"
    )


def _better(current, candidate):
    """Keep the candidate with smaller objective; break near-ties by support."""
    if current is None:
        return candidate
    if candidate[0] < current[0] - TIE_TOLERANCE:
        return candidate
    if candidate[0] <= current[0] + TIE_TOLERANCE and candidate[1] < current[1]:
        return candidate
    return current
