"""Gaussian kernel evaluation, Gram and cross matrices, and symmetric
positive definite linear solves.

The kernel convention throughout is k(a, b) = exp(-sigma * ||a - b||^2) with
sigma, the bandwidth, multiplying the squared Euclidean distance directly
(it is an inverse squared length scale). Each kernel's bandwidth is chosen
in the run configuration.

Symmetric positive definite matrices are held in LAPACK's rectangular full
packed form (TRANSR='N', UPLO='L'; Gustavson, Wasniewski, Dongarra & Langou,
ACM TOMS 37(2), 2010): one triangle in M(M+1)/2 entries, which ``pftrf``
and ``pftrs`` factor and solve at level-3 BLAS speed. ``gram_product``
builds the regularized Gram matrix in that form, so a fit never holds an
M x M array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.spatial.distance import cdist


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
    """A Gaussian kernel: its bandwidth, a positive finite float."""

    bandwidth: float

    def __post_init__(self):
        bandwidth = float(self.bandwidth)
        if not (bandwidth > 0 and math.isfinite(bandwidth)):
            raise ValueError(
                f"bandwidth must be positive and finite, got {self.bandwidth}"
            )
        object.__setattr__(self, "bandwidth", bandwidth)


def kernel_matrix(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Pairwise kernel evaluations between two point sets (rows of each array)."""
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


# rows per block of gram_product; a block's two kernel factors add
# 2 * 32 / M of an M x M matrix to the packed G
_GRAM_BLOCK_ROWS = 32


def _rfp_triangles(packed: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the two stored triangles of an order-m symmetric matrix A in
    rectangular full packed form (LAPACK's TRANSR='N', UPLO='L').

    With n1 = ceil(m / 2), ``head[i, j]`` is A[i, j] for i < n1 and j >= i,
    and ``tail[p, q]`` is A[n1 + p, n1 + q] for q >= p: row i of A's upper
    triangle is ``head[i, i:]`` for i < n1 and ``tail[i - n1, i - n1:]``
    otherwise. The entries of either view below its diagonal belong to the
    other view.
    """
    n1 = (m + 1) // 2
    n2 = m - n1
    # LAPACK reads the packed array as a Fortran-ordered ld x n1 matrix R:
    # R[ld - m + i, j] = A[i, j] for i >= j, and R[:n2, n1 - n2:] holds the
    # upper triangle of A[n1:, n1:]. Reshaped in C order it is R^T.
    ld = m + 1 - m % 2
    r_transposed = packed.reshape(n1, ld)
    return r_transposed[:, ld - m :], r_transposed[n1 - n2 :, :n2].T


def gram_product(
    initial_states, controls, kx: KernelSpec, ku: KernelSpec, ridge: float = 0.0
) -> np.ndarray:
    """Product-kernel Gram matrix G_ij = k_x(x0_i, x0_j) * k_u(u_i, u_j), with
    ``ridge`` added to its diagonal, in rectangular full packed form.

    ``controls`` holds one flattened control sequence per row. The result is
    the M(M+1)/2 array that LAPACK's ``trttf`` makes of G + ridge * I with
    TRANSR='N' and UPLO='L', the layout ``spd_factor`` takes. G is built a
    block of rows of its upper triangle at a time, and no block straddles
    the two halves of the layout: block [a, b) holds the pairs (i, j) with
    a <= i < b and j >= a, and its entries with j >= i are written to their
    packed positions. Each pair's kernels are evaluated once, and besides
    the packed G at most two blocks (the two kernel factors) are held.

    The result equals bit for bit the packed product of the two dense kernel
    matrices. cdist computes each squared distance as a sum of squared
    coordinate differences in the same order whichever block holds the
    pair, and (a - b)^2 == (b - a)^2 in floating point, so the stored g[i, j]
    is the value the dense build computes for both g[i, j] and g[j, i]. The
    distance of a point to itself is exactly 0, and exp(0) = 1, so the
    diagonal is 1 + ridge.
    """
    x0 = np.atleast_2d(np.asarray(initial_states, dtype=float))
    u = np.atleast_2d(np.asarray(controls, dtype=float))
    if x0.shape[0] != u.shape[0]:
        raise ValueError(
            f"length mismatch: {x0.shape[0]} initial states, {u.shape[0]} controls"
        )
    m = x0.shape[0]
    packed = np.empty(m * (m + 1) // 2)
    head, tail = _rfp_triangles(packed, m)
    n1 = head.shape[0]
    upper = np.triu(np.ones((_GRAM_BLOCK_ROWS, _GRAM_BLOCK_ROWS), dtype=bool))
    for half, first, last in ((head, 0, n1), (tail, n1, m)):
        for start in range(first, last, _GRAM_BLOCK_ROWS):
            stop = min(start + _GRAM_BLOCK_ROWS, last)
            width = stop - start
            block = kernel_matrix(kx, x0[start:stop], x0[start:])
            block *= kernel_matrix(ku, u[start:stop], u[start:])
            diagonal = np.arange(width)
            block[diagonal, diagonal] += ridge
            rows = half[start - first : stop - first, start - first :]
            rows[:, width:] = block[:, width:]
            np.copyto(rows[:, :width], block[:, :width], where=upper[:width, :width])
    return packed


# entries per chunk of spd_factor's finiteness check
_FINITE_CHUNK = 1 << 16


@dataclass(frozen=True)
class SpdFactor:
    """Cholesky factor of a symmetric positive definite matrix (A = L L^T).

    ``packed_factor`` holds L in rectangular full packed form (TRANSR='N',
    UPLO='L'), the layout ``spd_factor`` takes A in.
    """

    dimension: int
    packed_factor: np.ndarray


def spd_factor(packed, overwrite_a: bool = False) -> SpdFactor:
    """Cholesky-factorize a symmetric positive definite matrix held in
    rectangular full packed form.

    ``packed`` holds one triangle of an order-M matrix in M(M+1)/2 entries,
    laid out as LAPACK's ``trttf`` lays out a lower triangle with
    TRANSR='N' (``gram_product`` builds G so). The other triangle is implied,
    so the matrix is symmetric by construction, and M follows from the
    length. Every call checks that each entry is finite, a chunk at a time,
    so the check never holds an M-sized temporary. LAPACK's ``pftrf`` then
    factors the matrix.

    With ``overwrite_a`` false (the default) LAPACK works on a copy and the
    argument is never modified. With ``overwrite_a`` true, a contiguous
    float64 argument is factored in place: the returned factor is a view of
    its memory, and the argument's contents are lost, also when
    ``FactorizationError`` is raised; any other argument is still copied.
    The check runs before LAPACK, so on ``ValueError`` the argument is
    untouched either way. The returned factor array is read-only.

    Raises
    ------
    FactorizationError
        If the matrix is not positive definite; carries the 1-based index of
        the failing leading minor, the pivot ``potrf`` reports for the
        unpacked matrix.
    ValueError
        If the argument is not one-dimensional, its length is not M(M+1)/2,
        or it has a non-finite entry.
    """
    a = np.asarray(packed, dtype=float)
    m = (math.isqrt(8 * a.size + 1) - 1) // 2
    if a.ndim != 1 or m * (m + 1) // 2 != a.size:
        raise ValueError(
            f"expected a packed triangle of M(M+1)/2 entries, got shape {a.shape}"
        )
    for start in range(0, a.shape[0], _FINITE_CHUNK):
        if not np.isfinite(a[start : start + _FINITE_CHUNK]).all():
            raise ValueError("matrix has a non-finite entry")
    (pftrf,) = get_lapack_funcs(("pftrf",), (a,))
    factor, info = pftrf(m, a, transr="N", uplo="L", overwrite_a=overwrite_a)
    if info > 0:
        # pftrf adds the order of the first half to a pivot in the second,
        # so info is the pivot of the unpacked matrix
        raise FactorizationError(int(info))
    if info < 0:
        raise ValueError(f"invalid argument {-info} to Cholesky factorization")
    # read-only, so the factor stays the one built from a matrix that passed
    # the finiteness check, and spd_solve need not rescan it
    factor.flags.writeable = False
    return SpdFactor(dimension=m, packed_factor=factor)


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
    (pftrs,) = get_lapack_funcs(("pftrs",), (factor.packed_factor,))
    x, info = pftrs(factor.dimension, factor.packed_factor, b, transr="N", uplo="L")
    if info < 0:
        raise ValueError(f"invalid argument {-info} to Cholesky solve")
    return x
