"""Gaussian product kernels, packed Gram matrices, and symmetric positive
definite linear solves.

The kernel convention throughout is k(a, b) = exp(-sigma * ||a - b||^2) with
sigma, the bandwidth, multiplying the squared Euclidean distance directly
(it is an inverse squared length scale). Each kernel's bandwidth is chosen
in the run configuration.

The embedding's kernel is the product k_x(x0, x0') * k_u(u, u') of a kernel
on initial states and one on flattened control sequences. It is evaluated as
one exponent over joint features, k = exp(-||z - z'||^2) with
z = [sqrt(sigma_x) (x0 - mean x0), sqrt(sigma_u) (u - mean u)], the means
taken over a dataset (``ProductFeatures``). The rules:

* Squared distances between two sets of features come from one level-3
  product, ||z||^2 + ||z'||^2 - 2 z . z'. It runs on scipy's BLAS
  (``scipy.linalg.blas.dgemm``), the OpenBLAS that ``pftrf`` and ``pftrs``
  use, on Fortran-ordered transposed views, so no operand is copied. numpy
  bundles a second OpenBLAS, whose thread pool would contend with scipy's.
* The expansion loses about 1e-16 * (||z||^2 + ||z'||^2) to cancellation.
  Centring at the dataset mean keeps those norms at the spread of the data,
  not its offset: the shipped dataset's control sequences, whose feedback
  tails run far from 0, reach a norm of 276, and 17 once centred.
* A squared distance that rounds below 0 is clamped at 0, so no entry
  exceeds 1.
* ``gram_product`` pins the distance of each sample to itself at exactly 0,
  so G_ii = 1 + ridge.

An entry's last bits depend on where BLAS places it in a block, so entries
match a plain-loop evaluation to about 1e-13 relative, not bit for bit.

Symmetric positive definite matrices are held in LAPACK's rectangular full
packed form (TRANSR='N', UPLO='L'; Gustavson, Wasniewski, Dongarra & Langou,
ACM TOMS 37(2), 2010): one triangle in M(M+1)/2 entries, which ``pftrf``
and ``pftrs`` factor and solve at level-3 BLAS speed. ``gram_product``
builds the regularized Gram matrix in that form, so a fit never holds an
M x M array, and a matrix stored by one triangle is symmetric by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.linalg.blas import dgemm


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


def _joint(initial_states, controls) -> np.ndarray:
    """The pairs (x0_i, u_i) as rows [x0_i, u_i] of one array."""
    x0 = np.atleast_2d(np.asarray(initial_states, dtype=float))
    u = np.atleast_2d(np.asarray(controls, dtype=float))
    if x0.shape[0] != u.shape[0]:
        raise ValueError(
            f"length mismatch: {x0.shape[0]} initial states, {u.shape[0]} controls"
        )
    return np.hstack([x0, u])


@dataclass(frozen=True)
class ProductFeatures:
    """Joint features of (initial state, flattened control sequence) pairs
    under the product kernel k_x * k_u, centred at the mean of the pairs
    they were built from (``build``).

    ``points[i]`` is z_i = [sqrt(sigma_x) (x0_i - mean x0),
    sqrt(sigma_u) (u_i - mean u)] and ``sq_norms[i]`` is ||z_i||^2, so the
    kernel of pairs i and j is exp(-||z_i - z_j||^2).
    """

    centre: np.ndarray
    scale: np.ndarray
    points: np.ndarray
    sq_norms: np.ndarray

    @classmethod
    def build(
        cls, initial_states, controls, kx: KernelSpec, ku: KernelSpec
    ) -> ProductFeatures:
        """The features of the pairs (initial_states[i], controls[i])."""
        joint = _joint(initial_states, controls)
        state_dim = np.shape(initial_states)[-1]
        scale = np.repeat(
            [math.sqrt(kx.bandwidth), math.sqrt(ku.bandwidth)],
            [state_dim, joint.shape[1] - state_dim],
        )
        centre = joint.mean(axis=0)
        return cls(centre, scale, *_scaled(joint, centre, scale))

    def cross_kernel(self, initial_states, controls) -> np.ndarray:
        """Kernel matrix of these pairs (rows) against the query pairs
        (columns), a C-ordered array of shape (len(points), queries)."""
        points, sq_norms = _scaled(
            _joint(initial_states, controls), self.centre, self.scale
        )
        k = _exponents(self.points, self.sq_norms, points, sq_norms)
        return np.exp(k, out=k)


def _scaled(joint, centre, scale) -> tuple[np.ndarray, np.ndarray]:
    """The features of joint rows, and their squared norms."""
    points = joint - centre
    points *= scale
    return points, np.einsum("ij,ij->i", points, points)


def _exponents(a, a_sq_norms, b, b_sq_norms) -> np.ndarray:
    """-||a_i - b_j||^2, clamped at 0 from above, for the rows a_i of a and
    b_j of b, as a C-ordered array of shape (len(a), len(b))."""
    # dgemm computes 2 b a^T in Fortran order, which is 2 a b^T in C order;
    # the transposes of C-ordered rows are Fortran-ordered, so it copies
    # neither operand
    e = dgemm(2.0, b.T, a.T, trans_a=True).T
    e -= a_sq_norms[:, None]
    e -= b_sq_norms
    return np.minimum(e, 0.0, out=e)


# rows per block of gram_product; a block's kernel values add 32 / M of an
# M x M matrix to the packed G
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
    TRANSR='N' and UPLO='L', the layout ``spd_factor`` takes.

    G is built from the ``ProductFeatures`` of the pairs, centred at their
    mean, a block of rows of its upper triangle at a time, and no block
    straddles the two halves of the layout: block [a, b) holds the pairs
    (i, j) with a <= i < b and j >= a, and its entries with j >= i are
    written to their packed positions. Each block's squared distances are
    one BLAS product, clamped at 0, and one ``exp`` pass turns them into
    kernel values, so each pair is evaluated once, and besides the packed G
    one block is held. The distance of each sample to itself is pinned at
    exactly 0, so the diagonal is exactly 1 + ridge.
    """
    features = ProductFeatures.build(initial_states, controls, kx, ku)
    z, sq_norms = features.points, features.sq_norms
    m = z.shape[0]
    packed = np.empty(m * (m + 1) // 2)
    head, tail = _rfp_triangles(packed, m)
    n1 = head.shape[0]
    upper = np.triu(np.ones((_GRAM_BLOCK_ROWS, _GRAM_BLOCK_ROWS), dtype=bool))
    for half, first, last in ((head, 0, n1), (tail, n1, m)):
        for start in range(first, last, _GRAM_BLOCK_ROWS):
            stop = min(start + _GRAM_BLOCK_ROWS, last)
            width = stop - start
            block = _exponents(
                z[start:stop], sq_norms[start:stop], z[start:], sq_norms[start:]
            )
            np.exp(block, out=block)
            diagonal = np.arange(width)
            block[diagonal, diagonal] = 1.0 + ridge
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
