"""Reference implementations that tests check the package against.

``brute_oracle`` solves the chance-constrained LP by exhaustive search, as an
independent check of ``solver.solve_lp``; ``sample_control`` draws one
library element from a policy with one uniform, the draw each Monte-Carlo
trial makes; ``stream_draws`` draws each random stream from its own
``default_rng(SeedSequence((seed, i)))``, one call per piece, as an
independent check of the batched seeding of ``systems.draw_streams``;
``kernel_matrix`` evaluates a Gaussian kernel densely with
``cdist``, as an independent check of the one-product evaluation in
``kernelcc.kernels``.
"""

import numpy as np
from scipy.spatial.distance import cdist

from kernelcc.kernels import KernelSpec
from kernelcc.policy import MixedPolicy, _draw_indices
from kernelcc.solver import TIE_TOLERANCE, LPInstance, SolveResult


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


def sample_control(policy: MixedPolicy, rng: np.random.Generator):
    """Draw (index, control sequence) from the policy with one uniform."""
    index = int(_draw_indices(policy, rng.random()))
    return index, policy.library.sequences[index]


def stream_draws(seed: int, count: int, pieces) -> list[np.ndarray]:
    """What ``draw_streams(seed, count, pieces)`` returns, one stream at a time."""
    arrays = [np.empty((count, *shape)) for _, shape in pieces]
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        for (kind, shape), array in zip(pieces, arrays):
            draw = rng.random if kind == "uniform" else rng.standard_normal
            array[i] = draw(shape)
    return arrays


def kernel_matrix(spec: KernelSpec, rows, cols) -> np.ndarray:
    """exp(-sigma * ||a - b||^2) between the rows of two arrays.

    cdist sums squared coordinate differences, so the matrix of a point set
    against itself is exactly symmetric with a diagonal of exactly 1.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    cols = np.atleast_2d(np.asarray(cols, dtype=float))
    if rows.shape[1] != cols.shape[1]:
        raise ValueError(
            f"dimension mismatch: {rows.shape[1]} vs {cols.shape[1]}"
        )
    k = cdist(rows, cols, "sqeuclidean")
    k *= -spec.bandwidth
    np.exp(k, out=k)
    return k

