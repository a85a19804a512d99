"""Chance-constrained linear program over mixture weights on a control library.

The decision variable is a probability vector over the P library sequences.
The program minimizes the expected cost row subject to the estimated success
probability meeting a threshold:

    min  cost_row @ w   s.t.  safety_row @ w >= threshold,  w in the simplex.

With P variables, one equality (simplex) and one inequality, an optimal basic
solution has at most two nonzero weights: the cheapest feasible sequence, or
one infeasible and one feasible sequence mixed to sit on the threshold. The
solver finds that pair by alternating tangent steps of O(P) time and memory.
This is exact and needs no external LP dependency.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass

import numpy as np

from .data import ControlLibrary
from .embedding import EmbeddingModel, cross_matrix
from .kernels import spd_solve
from .scenario import Scenario, control_cost, indicator_T, state_cost

# objectives this close count as tied: a pair must beat the pure optimum by
# more, and a tie goes to the smaller support, so solves reproduce
TIE_TOLERANCE = 1e-12

# elements per block of assemble's M x block cross-kernel matrix (0.5 MB of
# float64), so the library is walked without holding an M x P matrix
_CROSS_BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class LPInstance:
    """Assembled data of the chance-constrained linear program: finite cost
    and safety rows of equal length, and a threshold in (0, 1)."""

    cost_row: np.ndarray
    safety_row: np.ndarray
    threshold: float

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
        _check_threshold(self.threshold)
        object.__setattr__(self, "cost_row", cost)
        object.__setattr__(self, "safety_row", safety)

    def at_threshold(self, threshold: float) -> LPInstance:
        """These rows under another threshold. Only the threshold is
        checked: the rows were checked when this instance was built, so a
        sweep over risk levels scans them once."""
        _check_threshold(threshold)
        inst = copy.copy(self)
        object.__setattr__(inst, "threshold", threshold)
        return inst

    @property
    def num_sequences(self) -> int:
        return self.cost_row.shape[0]

    def safety_spread(self) -> dict:
        """Min, max and counts below 0 and above 1 of the safety row."""
        safety = self.safety_row
        return {
            "min": float(safety.min()),
            "max": float(safety.max()),
            "num_below_zero": int(np.count_nonzero(safety < 0.0)),
            "num_above_one": int(np.count_nonzero(safety > 1.0)),
        }


def _check_threshold(threshold) -> None:
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0,1), got {threshold}")


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


def assemble(
    model: EmbeddingModel, sc: Scenario, lib: ControlLibrary, x0
) -> LPInstance:
    """Build the LP rows for one initial state.

    An expectation estimate g^T (G + lam*M*I)^{-1} k(x0, u) is the inner
    product of alpha = (G + lam*M*I)^{-1} g with the cross-kernel vector, so
    the factorized system is solved once per functional (state cost and
    constraint indicator) and each row is alpha^T times the M x P
    cross-kernel matrix. That matrix is built a block of library columns at
    a time, at most ``_CROSS_BLOCK_ELEMENTS`` elements per block, and each
    block's product is written into the two rows and the block released
    before the next is built, so one block is held, never the M x P
    matrix. The cost row adds the (known) control cost of each library
    sequence, a block at a time as well; the safety row holds the estimated
    probability that a trajectory satisfies every constraint.
    """
    if sc.horizon != model.dataset.horizon:
        raise ValueError(
            f"scenario horizon {sc.horizon} does not match model horizon "
            f"{model.dataset.horizon}"
        )
    trajectories = model.dataset.trajectories
    functionals = np.column_stack(
        [state_cost(sc, trajectories), indicator_T(sc, trajectories)]
    )
    alpha = spd_solve(model.factor, functionals)
    block = max(1, _CROSS_BLOCK_ELEMENTS // alpha.shape[0])
    rows = np.empty((2, lib.num_sequences))
    for start in range(0, lib.num_sequences, block):
        stop = start + block
        sequences = lib.sequences[start:stop]
        # BLAS reads the Fortran-ordered alpha and block without copies; the
        # block is dropped before the next is built
        cross = cross_matrix(model, x0, sequences)
        rows[:, start:stop] = alpha.T @ cross
        del cross
        rows[0, start:stop] += control_cost(sc, sequences)
    cost_row, safety_row = rows
    return LPInstance(
        cost_row=cost_row,
        safety_row=safety_row,
        threshold=1.0 - sc.delta,
    )


def solve_lp(inst: LPInstance) -> SolveResult:
    """Exact optimum of the chance-constrained LP.

    The pure optimum is the cheapest feasible element (the lowest index within
    ``TIE_TOLERANCE``). Only a mixture on the threshold of an infeasible j
    cheaper than it and a feasible k can beat it: its objective is the value
    at the threshold of the line through (a_j, c_j) and (a_k, c_k). From the
    pure optimum two vectorized steps alternate: j gives the steepest line to
    k, then k the line from j lowest at the threshold, that is the flattest.
    They stop when that objective stops strictly falling, as a float must.

    At the fixed point every cheaper infeasible point lies on or above the
    line, as j maximizes its slope, and so does every feasible point, as k
    minimizes it. The line rises, so the other infeasible points, which cost
    at least the pure optimum, lie above it too. It is the lower-hull edge
    over the threshold: the pair is optimal. (Steepest, not lowest: when
    a_k equals the threshold every j meets it at c_k.)

    Ties: the pair must beat the pure optimum by more than ``TIE_TOLERANCE``,
    else the lexicographically smaller support wins. Among near-tied pairs the
    one the iteration reaches is kept; exact ties go to the lowest index.
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
    feas_idx = np.flatnonzero(feasible)
    pure = int(feas_idx[c[feas_idx] <= c[feas_idx].min() + TIE_TOLERANCE][0])
    cheap = np.flatnonzero(~feasible & (c < c[pure]))
    j, k, pair_obj = None, pure, np.inf
    while cheap.size:
        j_next = cheap[np.argmax((c[k] - c[cheap]) / (a[k] - a[cheap]))]
        # weight on each feasible k that puts its mixture with j on the threshold
        t = (thr - a[j_next]) / (a[feas_idx] - a[j_next])
        objs = (1.0 - t) * c[j_next] + t * c[feas_idx]
        best = np.argmin(objs)
        if not objs[best] < pair_obj:
            break
        j, k, pair_obj, t_k = j_next, feas_idx[best], objs[best], t[best]
    weights = np.zeros(p)
    if pair_obj < c[pure] - TIE_TOLERANCE or (
        pair_obj <= c[pure] + TIE_TOLERANCE and min(j, k) < pure
    ):
        weights[j], weights[k] = 1.0 - t_k, t_k
        objective = float(pair_obj)
    else:
        weights[pure] = 1.0
        objective = float(c[pure])
    support = tuple(int(i) for i in np.flatnonzero(weights > 0.0))
    return SolveResult(
        weights=weights, objective=objective, support=support, status="optimal"
    )
