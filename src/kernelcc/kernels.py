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

* Every kernel value, Gram and cross alike, comes from one level-3 product.
  The dataset's features are augmented once per fit to rows [z, 1, ||z||^2]
  and a block of queries to rows [2 z', -||z'||^2, -1], so each entry of
  their product is the exponent 2 z . z' - ||z||^2 - ||z'||^2 =
  -||z - z'||^2. It is one ``np.matmul`` on transposed views, which
  numpy's BLAS reads without copying either operand.
* The expansion loses about 1e-16 * (||z||^2 + ||z'||^2) to cancellation.
  Centring at the dataset mean keeps those norms at the spread of the data,
  not its offset: the shipped dataset's control sequences, whose feedback
  tails run far from 0, reach a norm of 276, and 17 once centred.
* An exponent that rounds above 0 is clamped at 0, so no entry exceeds 1;
  one in-place ``exp`` then turns the block into kernel values.
* ``gram_product`` pins each sample's kernel with itself at exactly 1, so
  G_ii = 1 + ridge.

An entry's last bits depend on where BLAS places it in a block, so entries
match a plain-loop evaluation to about 1e-13 relative, not bit for bit.

Symmetric positive definite matrices are held in LAPACK's rectangular full
packed form (TRANSR='N', UPLO='L'; Gustavson, Wasniewski, Dongarra & Langou,
ACM TOMS 37(2), 2010): one triangle in M(M+1)/2 entries, which ``pftrf``
and ``pftrs`` factor and solve at level-3 BLAS speed. ``gram_product``
builds the regularized Gram matrix in that form, so a fit never holds an
M x M array, and a matrix stored by one triangle is symmetric by
construction.

``pftrf`` and ``pftrs`` are called through ``ctypes`` in the OpenBLAS that
numpy's wheel bundles (``numpy.libs/libscipy_openblas64_*.so``, 64-bit
integers), so the process holds one BLAS and one thread pool, and imports no
scipy. Where numpy was built against another BLAS, scipy's LAPACK wrappers
are used instead.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


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

    With z_i = [sqrt(sigma_x) (x0_i - mean x0), sqrt(sigma_u) (u_i - mean u)],
    ``rows[i]`` is the augmented row [z_i, 1, ||z_i||^2], so the kernel of
    pairs i and j is exp(-||z_i - z_j||^2). A query's row
    [2 z, -||z||^2, -1] times ``rows[i]`` is 2 z . z_i - ||z||^2 - ||z_i||^2,
    that exponent, so a block of kernel values is one BLAS product, whose
    cancellation loses about 1e-16 * (||z||^2 + ||z_i||^2).
    """

    centre: np.ndarray
    scale: np.ndarray
    rows: np.ndarray

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
        return cls(centre, scale, _augmented(joint, centre, scale))

    def cross_kernel(self, initial_states, controls) -> np.ndarray:
        """Kernel matrix of these pairs (rows) against the query pairs
        (columns), of shape (len(rows), queries): the transpose of a
        C-ordered array, so its columns are contiguous."""
        joint = _joint(initial_states, controls)
        queries = _as_queries(_augmented(joint, self.centre, self.scale))
        return _kernel_block(queries, self.rows)


def _augmented(joint, centre, scale) -> np.ndarray:
    """The augmented rows [z, 1, ||z||^2] of the features z of joint rows."""
    width = joint.shape[1]
    rows = np.empty((joint.shape[0], width + 2))
    z = np.subtract(joint, centre, out=rows[:, :width])
    z *= scale
    rows[:, width] = 1.0
    np.einsum("ij,ij->i", z, z, out=rows[:, width + 1])
    return rows


def _as_queries(rows) -> np.ndarray:
    """The query rows [2 z, -||z||^2, -1] of augmented rows [z, 1, ||z||^2]."""
    queries = np.empty_like(rows)
    np.multiply(rows[:, :-2], 2.0, out=queries[:, :-2])
    # the last two columns reversed: (||z||^2, 1)
    np.negative(rows[:, :-3:-1], out=queries[:, -2:])
    return queries


def _kernel_block(queries, rows) -> np.ndarray:
    """exp(-||z_i - q_j||^2) for the augmented rows i of ``rows`` and the
    query rows j of ``queries``, as an array of shape (len(rows),
    len(queries)) whose transpose is C-ordered. Each exponent is clamped
    at 0 from above, so no entry exceeds 1."""
    # queries rows^T is C-ordered, so its transpose is the block; BLAS reads
    # the transposed view of C-ordered rows without a copy
    exponents = np.matmul(queries, rows.T).T
    np.minimum(exponents, 0.0, out=exponents)
    return np.exp(exponents, out=exponents)


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


def gram_product(features: ProductFeatures, ridge: float = 0.0) -> np.ndarray:
    """Product-kernel Gram matrix G_ij = k_x(x0_i, x0_j) * k_u(u_i, u_j) of
    the pairs ``features`` was built from, with ``ridge`` added to its
    diagonal, in rectangular full packed form.

    The result is the M(M+1)/2 array that LAPACK's ``trttf`` makes of
    G + ridge * I with TRANSR='N' and UPLO='L', the layout ``spd_factor``
    takes.

    G is built a block of rows of its upper triangle at a time, and no block
    straddles the two halves of the layout: block [a, b) holds the pairs
    (i, j) with a <= i < b and j >= a, and its entries with j >= i are
    written to their packed positions. Each block's kernel values are one
    ``_kernel_block``: one BLAS product of the block's query rows against
    the augmented rows from a onward, one clamp and one ``exp`` pass, so
    each pair is evaluated once, and besides the packed G one block is held.
    The diagonal, each sample against itself, is pinned at exactly
    1 + ridge.
    """
    augmented = features.rows
    m = augmented.shape[0]
    packed = np.empty(m * (m + 1) // 2)
    head, tail = _rfp_triangles(packed, m)
    n1 = head.shape[0]
    upper = np.triu(np.ones((_GRAM_BLOCK_ROWS, _GRAM_BLOCK_ROWS), dtype=bool))
    for half, first, last in ((head, 0, n1), (tail, n1, m)):
        for start in range(first, last, _GRAM_BLOCK_ROWS):
            stop = min(start + _GRAM_BLOCK_ROWS, last)
            width = stop - start
            block = _kernel_block(
                _as_queries(augmented[start:stop]), augmented[start:]
            ).T
            diagonal = np.arange(width)
            block[diagonal, diagonal] = 1.0 + ridge
            rows = half[start - first : stop - first, start - first :]
            rows[:, width:] = block[:, width:]
            np.copyto(rows[:, :width], block[:, :width], where=upper[:width, :width])
    return packed


# entries per chunk of spd_factor's finiteness check
_FINITE_CHUNK = 1 << 16


def _openblas_lapack():
    """``pftrf(m, a) -> (a, info)``, factoring a in place, and
    ``pftrs(m, factor, b) -> (x, info)``, solving into a Fortran-ordered copy
    of b, both with TRANSR='N' and UPLO='L', through ``ctypes`` in the
    OpenBLAS numpy links. Raises ValueError unless numpy bundles exactly one
    such library, OSError if it does not load, and AttributeError if it
    lacks either routine."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    (path,) = libs.glob("libscipy_openblas64_*.so")
    lapack = ctypes.CDLL(str(path))
    int64 = ctypes.c_int64
    integer, array = ctypes.POINTER(int64), ctypes.c_void_p
    text, length = ctypes.c_char_p, ctypes.c_size_t
    dpftrf, dpftrs = lapack.scipy_dpftrf_64_, lapack.scipy_dpftrs_64_
    # Fortran takes every argument by reference, then the length of each
    # character argument by value
    dpftrf.argtypes = [text, text, integer, array, integer, length, length]
    dpftrs.argtypes = [text, text, integer, integer, array, array, integer, integer]
    dpftrs.argtypes += [length, length]
    dpftrf.restype = dpftrs.restype = None

    def pftrf(m, a):
        info = int64()
        dpftrf(b"N", b"L", int64(m), a.ctypes.data, info, 1, 1)
        return a, info.value

    def pftrs(m, factor, b):
        x = np.array(b, order="F")
        columns, lead, info = int64(math.prod(x.shape[1:])), int64(max(m, 1)), int64()
        dpftrs(
            b"N", b"L", int64(m), columns, factor.ctypes.data, x.ctypes.data, lead,
            info, 1, 1,
        )
        return x, info.value

    return pftrf, pftrs


def _scipy_lapack():
    """scipy's ``pftrf`` and ``pftrs`` with the calls ``_openblas_lapack``'s take."""
    from scipy.linalg import get_lapack_funcs

    pftrf, pftrs = get_lapack_funcs(("pftrf", "pftrs"), dtype=np.float64)
    return (
        functools.partial(pftrf, transr="N", uplo="L", overwrite_a=True),
        functools.partial(pftrs, transr="N", uplo="L"),
    )


@functools.cache
def _lapack():
    """``pftrf`` and ``pftrs``: numpy's OpenBLAS, else scipy's LAPACK."""
    try:
        return _openblas_lapack()
    except (OSError, AttributeError, ValueError):
        return _scipy_lapack()


@dataclass(frozen=True)
class SpdFactor:
    """Cholesky factor of a symmetric positive definite matrix (A = L L^T).

    ``packed_factor`` holds L in rectangular full packed form (TRANSR='N',
    UPLO='L'), the layout ``spd_factor`` takes A in.
    """

    dimension: int
    packed_factor: np.ndarray

    def __post_init__(self):
        # LAPACK reads dimension (dimension + 1) / 2 float64 entries from
        # the array's address, so the array must hold exactly those
        m, packed = self.dimension, self.packed_factor
        if not (
            isinstance(packed, np.ndarray)
            and packed.dtype == np.float64
            and packed.shape == (m * (m + 1) // 2,)
            and packed.flags.c_contiguous
        ):
            raise ValueError(
                f"packed_factor must be a contiguous float64 array of "
                f"{m} * {m + 1} / 2 entries"
            )


def spd_factor(packed) -> SpdFactor:
    """Cholesky-factorize a symmetric positive definite matrix held in
    rectangular full packed form.

    ``packed`` holds one triangle of an order-M matrix in M(M+1)/2 entries,
    laid out as LAPACK's ``trttf`` lays out a lower triangle with
    TRANSR='N' (``gram_product`` builds G so). The other triangle is implied,
    so the matrix is symmetric by construction, and M follows from the
    length. Every call checks that each entry is finite, a chunk at a time,
    so the check never holds an M-sized temporary. LAPACK's ``pftrf`` then
    factors the matrix.

    A contiguous, writeable float64 argument is factored in place: the
    returned factor is a view of its memory, and the argument's contents
    are lost, also when ``FactorizationError`` is raised. Any other argument
    is copied first and left as it was. The check runs before LAPACK, so on
    ``ValueError`` the argument is untouched. The returned factor array is
    read-only.

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
    # LAPACK writes the factor over a, and would write into a read-only
    # array too, so one is copied here, as is a strided one
    a = np.require(packed, dtype=float, requirements="CW")
    m = (math.isqrt(8 * a.size + 1) - 1) // 2
    if a.ndim != 1 or m * (m + 1) // 2 != a.size:
        raise ValueError(
            f"expected a packed triangle of M(M+1)/2 entries, got shape {a.shape}"
        )
    for start in range(0, a.shape[0], _FINITE_CHUNK):
        if not np.isfinite(a[start : start + _FINITE_CHUNK]).all():
            raise ValueError("matrix has a non-finite entry")
    pftrf, _ = _lapack()
    factor, info = pftrf(m, a)
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
    _, pftrs = _lapack()
    x, info = pftrs(factor.dimension, factor.packed_factor, b)
    if info < 0:
        raise ValueError(f"invalid argument {-info} to Cholesky solve")
    return x
