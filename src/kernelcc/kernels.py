"""Gaussian kernel evaluation, Gram and cross matrices, bandwidth selection,
and symmetric positive definite linear solves.

The kernel convention throughout is k(a, b) = exp(-sigma * ||a - b||^2) with
sigma multiplying the squared Euclidean distance directly. Under the median
heuristic, sigma is set to the median pairwise Euclidean distance of the data
(not an inverse squared length scale); a fixed bandwidth is available as an
override for data where that heuristic misbehaves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, get_lapack_funcs
from scipy.spatial.distance import cdist, pdist


class DegenerateDataError(ValueError):
    """Raised when bandwidth selection is asked to run on unusable data."""


class FactorizationError(ArithmeticError):
    """Raised when a matrix is not positive definite.

    ``pivot`` is the 1-based index of the leading minor that failed.
    """

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(
            f"matrix is not positive definite: leading minor of order {pivot} "
            "is not positive"
        )


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth policy.

    ``bandwidth_mode`` is either "fixed" (use ``bandwidth`` as given) or
    "median_heuristic" (resolve ``bandwidth`` from data before use). A
    ``bandwidth`` that is not None is stored as a float.
    """

    family: str = "gaussian"
    bandwidth: float | None = None
    bandwidth_mode: str = "fixed"

    def __post_init__(self):
        if self.bandwidth is not None:
            object.__setattr__(self, "bandwidth", float(self.bandwidth))
        if self.family != "gaussian":
            raise ValueError(f"unsupported kernel family: {self.family!r}")
        if self.bandwidth_mode not in ("fixed", "median_heuristic"):
            raise ValueError(f"unknown bandwidth_mode: {self.bandwidth_mode!r}")
        if self.bandwidth_mode == "fixed":
            if self.bandwidth is None or not np.isfinite(self.bandwidth):
                raise ValueError("fixed bandwidth_mode requires a finite bandwidth")
            if self.bandwidth <= 0:
                raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")

    @property
    def resolved(self) -> float:
        """The bandwidth value, or an error if it still needs data to resolve."""
        if self.bandwidth is None:
            raise ValueError("bandwidth not resolved; call resolve_bandwidth first")
        return float(self.bandwidth)


def median_bandwidth(points) -> float:
    """Median Euclidean distance over distinct pairs of points.

    Points are rows of a 2-d array (or a sequence of equal-length vectors).
    With an even number of pairs the mean of the two central order statistics
    is returned.

    Raises
    ------
    DegenerateDataError
        If fewer than 2 points are given or all pairwise distances are zero.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 2:
        raise DegenerateDataError("median bandwidth needs at least 2 points")
    med = float(np.median(pdist(pts)))
    if med <= 0.0:
        raise DegenerateDataError("all pairwise distances are zero")
    return med


def resolve_bandwidth(spec: KernelSpec, points) -> KernelSpec:
    """Return a fixed-bandwidth copy of spec, resolving the median heuristic if set."""
    if spec.bandwidth_mode == "fixed":
        return spec
    return dataclasses.replace(
        spec, bandwidth=median_bandwidth(points), bandwidth_mode="fixed"
    )


def kernel_matrix(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Pairwise kernel evaluations between two point sets (rows of each array)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    cols = np.atleast_2d(np.asarray(cols, dtype=float))
    if rows.shape[1] != cols.shape[1]:
        raise ValueError(
            f"dimension mismatch: {rows.shape[1]} vs {cols.shape[1]}"
        )
    k = cdist(rows, cols, "sqeuclidean")
    k *= -spec.resolved
    np.exp(k, out=k)
    return k


# rows per block of gram_product; a block's two kernel factors add
# 2 * 32 / M of an M x M buffer to G
_GRAM_BLOCK_ROWS = 32


def gram_product(initial_states, controls, kx: KernelSpec, ku: KernelSpec) -> np.ndarray:
    """Product-kernel Gram matrix G_ij = k_x(x0_i, x0_j) * k_u(u_i, u_j).

    ``controls`` holds one flattened control sequence per row. G is built a
    block of rows of its upper triangle at a time: block [a, b) holds the
    pairs (i, j) with a <= i < b and j >= a, is written to ``g[a:b, a:]`` and
    mirrored into ``g[a:, a:b]``. Each pair's kernels are evaluated once, and
    besides G at most two blocks (the two kernel factors) are held.

    The result is exactly symmetric with unit diagonal, and equal bit for bit
    to the product of the two dense kernel matrices. cdist computes each
    squared distance as a sum of squared coordinate differences in the same
    order whichever block holds the pair, and (a - b)^2 == (b - a)^2 in
    floating point, so the mirrored copy of g[i, j] is the value the dense
    build computes for g[j, i]. The distance of a point to itself is exactly
    0, and exp(0) = 1.
    """
    x0 = np.atleast_2d(np.asarray(initial_states, dtype=float))
    u = np.atleast_2d(np.asarray(controls, dtype=float))
    if x0.shape[0] != u.shape[0]:
        raise ValueError(
            f"length mismatch: {x0.shape[0]} initial states, {u.shape[0]} controls"
        )
    m = x0.shape[0]
    g = np.empty((m, m))
    for start in range(0, m, _GRAM_BLOCK_ROWS):
        stop = min(start + _GRAM_BLOCK_ROWS, m)
        block = kernel_matrix(kx, x0[start:stop], x0[start:])
        block *= kernel_matrix(ku, u[start:stop], u[start:])
        g[start:stop, start:] = block
        g[start:, start:stop] = block.T
    return g


# rows and columns per square tile of spd_factor's symmetry check
_SYMMETRY_TILE = 256


@dataclass(frozen=True)
class SpdFactor:
    """Cholesky factor of a symmetric positive definite matrix (A = L L^T)."""

    dimension: int
    lower_triangular_factor: np.ndarray


def spd_factor(matrix, overwrite_a: bool = False) -> SpdFactor:
    """Cholesky-factorize a symmetric positive definite matrix.

    Every call checks symmetry to an absolute 1e-10, so a NaN or an infinity
    anywhere in the matrix fails the check. The check compares square tiles
    (I, J) with the transposes of their mirrors (J, I), J >= I, so it reads
    contiguous runs of rows and never holds more than a few tiles of
    temporaries. LAPACK then factors the upper triangle of the argument: it
    is handed the transpose, which is Fortran-ordered for a C-ordered matrix,
    and ``potrf`` reads that transpose's lower triangle.

    With ``overwrite_a`` false (the default) LAPACK works on a copy and the
    argument is never modified. With ``overwrite_a`` true, a C-ordered
    float64 argument is factored in place: the returned factor is a view of
    its memory, and the argument's contents are lost, also when
    ``FactorizationError`` is raised; any other argument is still copied.
    The checks run before LAPACK, so on ``ValueError`` the argument is
    untouched either way. The returned factor array is read-only.

    Raises
    ------
    FactorizationError
        If the matrix is not positive definite; carries the 1-based index of
        the failing leading minor.
    ValueError
        If the matrix is not square, not symmetric or has a non-finite entry.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    m = a.shape[0]
    # the comparison is false for a NaN, for inf against a finite value and
    # for inf - inf (NaN), so every non-finite entry fails it
    with np.errstate(invalid="ignore"):
        for row in range(0, m, _SYMMETRY_TILE):
            rows = slice(row, row + _SYMMETRY_TILE)
            for col in range(row, m, _SYMMETRY_TILE):
                cols = slice(col, col + _SYMMETRY_TILE)
                if not np.all(np.abs(a[rows, cols] - a[cols, rows].T) <= 1e-10):
                    raise ValueError(
                        "matrix is not symmetric or has a non-finite entry"
                    )
    # the check passed, so a.T is the same matrix to 1e-10
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    factor, info = potrf(a.T, lower=1, overwrite_a=overwrite_a, clean=1)
    if info > 0:
        raise FactorizationError(int(info))
    if info < 0:
        raise ValueError(f"invalid argument {-info} to Cholesky factorization")
    # read-only, so the factor stays the one built from a matrix that passed
    # the finiteness and symmetry check, and spd_solve need not rescan it
    factor.flags.writeable = False
    return SpdFactor(dimension=a.shape[0], lower_triangular_factor=factor)


def spd_solve(factor: SpdFactor, rhs) -> np.ndarray:
    """Solve A x = rhs given a Cholesky factor of A; rhs may be a vector or matrix.

    Only the right-hand side is checked for non-finite values: the factor
    ``spd_factor`` returns was built from a checked matrix and is read-only.
    """
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != factor.dimension:
        raise ValueError(
            f"rhs has leading dimension {b.shape[0]}, factor is "
            f"{factor.dimension}x{factor.dimension}"
        )
    if not np.all(np.isfinite(b)):
        raise ValueError("array must not contain infs or NaNs")
    return cho_solve((factor.lower_triangular_factor, True), b, check_finite=False)
