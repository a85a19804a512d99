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
    "median_heuristic" (resolve ``bandwidth`` from data before use).
    """

    family: str = "gaussian"
    bandwidth: float | None = None
    bandwidth_mode: str = "fixed"

    def __post_init__(self):
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
    return np.exp(-spec.resolved * cdist(rows, cols, "sqeuclidean"))


def gram_product(initial_states, controls, kx: KernelSpec, ku: KernelSpec) -> np.ndarray:
    """Product-kernel Gram matrix G_ij = k_x(x0_i, x0_j) * k_u(u_i, u_j).

    ``controls`` holds one flattened control sequence per row. The result is
    exactly symmetric with unit diagonal.
    """
    x0 = np.atleast_2d(np.asarray(initial_states, dtype=float))
    u = np.atleast_2d(np.asarray(controls, dtype=float))
    if x0.shape[0] != u.shape[0]:
        raise ValueError(
            f"length mismatch: {x0.shape[0]} initial states, {u.shape[0]} controls"
        )
    g = kernel_matrix(kx, x0, x0) * kernel_matrix(ku, u, u)
    # cdist computes (i, j) and (j, i) independently; enforce exact symmetry
    # and the exact unit diagonal the gaussian kernel guarantees analytically.
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 1.0)
    return g


@dataclass(frozen=True)
class SpdFactor:
    """Cholesky factor of a symmetric positive definite matrix (A = L L^T)."""

    dimension: int
    lower_triangular_factor: np.ndarray


def spd_factor(matrix) -> SpdFactor:
    """Cholesky-factorize a symmetric positive definite matrix.

    Raises
    ------
    FactorizationError
        If the matrix is not positive definite; carries the 1-based index of
        the failing leading minor.
    ValueError
        If the matrix is not square or not symmetric.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-10):
        raise ValueError("matrix is not symmetric")
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    factor, info = potrf(a, lower=1, overwrite_a=False, clean=1)
    if info > 0:
        raise FactorizationError(int(info))
    if info < 0:
        raise ValueError(f"invalid argument {-info} to Cholesky factorization")
    return SpdFactor(dimension=a.shape[0], lower_triangular_factor=factor)


def spd_solve(factor: SpdFactor, rhs) -> np.ndarray:
    """Solve A x = rhs given a Cholesky factor of A; rhs may be a vector or matrix."""
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != factor.dimension:
        raise ValueError(
            f"rhs has leading dimension {b.shape[0]}, factor is "
            f"{factor.dimension}x{factor.dimension}"
        )
    return cho_solve((factor.lower_triangular_factor, True), b)
