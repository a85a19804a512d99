"""Tests for kernel evaluation, Gram assembly and SPD solves."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack

from kernelcc import kernels
from kernelcc.kernels import (
    FactorizationError,
    KernelSpec,
    ProductFeatures,
    gram_product,
    spd_factor,
    spd_solve,
)
from reference import kernel_matrix

UNIT = KernelSpec(bandwidth=1.0)
GRAM_BLOCK = kernels._GRAM_BLOCK_ROWS


def pack(a):
    """The packed layout spd_factor takes, of a dense symmetric matrix."""
    packed, info = lapack.dtrttf(a, transr="N", uplo="L")
    assert info == 0
    return packed


def unpack(packed):
    """The dense symmetric matrix of a packed triangle."""
    m = (math.isqrt(8 * packed.shape[0] + 1) - 1) // 2
    full, info = lapack.dtfttr(m, packed, transr="N", uplo="L")
    assert info == 0
    lower = np.tril(full)
    return lower + np.tril(lower, -1).T


def kernel(spec, a, b):
    """One kernel evaluation, as a 1x1 kernel matrix."""
    return kernel_matrix(spec, [a], [b])[0, 0]


def cross_column(x0, u, kx, ku, query_x0, query_u):
    """Product-kernel evaluations of every sample against one query."""
    return kernel_matrix(kx, x0, [query_x0])[:, 0] * kernel_matrix(ku, u, [query_u])[:, 0]


def loop_kernel(spec, a, b):
    """Plain-loop reference for exp(-sigma * ||a - b||^2)."""
    return math.exp(-spec.bandwidth * sum((p - q) ** 2 for p, q in zip(a, b)))


class TestKernelSpec:
    def test_fixed_requires_bandwidth(self):
        with pytest.raises(TypeError):
            KernelSpec()
        with pytest.raises(TypeError):
            KernelSpec(bandwidth=None)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=0.0)
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=-1.0)
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                KernelSpec(bandwidth=value)


class TestEvalKernel:
    def test_zero_distance_is_one(self):
        x = np.array([0.3, -1.2, 4.0])
        assert kernel(UNIT, x, x) == 1.0

    def test_unit_distance(self):
        assert kernel(UNIT, [0.0], [1.0]) == pytest.approx(
            0.36787944117144233, abs=1e-15
        )

    def test_bandwidth_scales_squared_distance(self):
        # sigma=0.5 at squared distance 2 gives exp(-1) again
        spec = KernelSpec(bandwidth=0.5)
        assert kernel(spec, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(
            np.exp(-1.0), abs=1e-15
        )

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, 5))
        assert kernel(UNIT, a, b) == kernel(UNIT, b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel(UNIT, [0.0], [0.0, 1.0])

    def test_range(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = rng.normal(scale=3.0, size=(2, 4))
            v = kernel(UNIT, a, b)
            assert 0.0 < v <= 1.0


class TestGramProduct:
    def test_single_sample(self):
        g = gram_product(ProductFeatures.build([[0.5, 0.5]], [[1.0, 2.0]], UNIT, UNIT))
        assert g.shape == (1,)
        assert g[0] == 1.0

    def test_identical_samples(self):
        g = gram_product(ProductFeatures.build([[1.0], [1.0]], [[2.0], [2.0]], UNIT, UNIT))
        np.testing.assert_array_equal(g, np.ones(3))

    def test_product_of_factors(self):
        # k_x = k_u = exp(-1) off-diagonal, product exp(-2)
        features = ProductFeatures.build([[0.0], [1.0]], [[0.0], [1.0]], UNIT, UNIT)
        g = unpack(gram_product(features))
        assert g[0, 1] == pytest.approx(np.exp(-2.0), rel=1e-14)

    def test_symmetric_unit_diagonal(self):
        # one triangle is stored, so the matrix is symmetric by construction
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(40, 4))
        u = rng.normal(size=(40, 30))
        g = gram_product(ProductFeatures.build(x0, u, UNIT, KernelSpec(bandwidth=0.1)))
        assert g.shape == (40 * 41 // 2,)
        np.testing.assert_array_equal(np.diag(unpack(g)), np.ones(40))
        assert np.all(g > 0.0) and np.all(g <= 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ProductFeatures.build([[0.0], [1.0]], [[0.0]], UNIT, UNIT)

    # odd and even orders whose two packed halves hold less than a block of
    # rows, exactly one, and more than one
    ORDERS = [
        1, 2, 3,
        GRAM_BLOCK - 1, GRAM_BLOCK, GRAM_BLOCK + 1,
        2 * GRAM_BLOCK, 2 * GRAM_BLOCK + 1, 2 * GRAM_BLOCK + 5,
    ]

    @staticmethod
    def dense_product(m):
        rng = np.random.default_rng(m)
        x0 = rng.normal(size=(m, 4))
        u = rng.normal(size=(m, 30))
        ku = KernelSpec(bandwidth=0.1)
        return x0, u, ku, kernel_matrix(UNIT, x0, x0) * kernel_matrix(ku, u, u)

    @pytest.mark.parametrize("m", ORDERS)
    def test_blocks_equal_dense_product(self, m):
        # the layout is LAPACK's dtrttf of the dense product; the values
        # agree with cdist's to rounding
        x0, u, ku, dense = self.dense_product(m)
        packed = gram_product(ProductFeatures.build(x0, u, UNIT, ku))
        np.testing.assert_allclose(packed, pack(dense), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", ORDERS)
    def test_ridge_is_added_on_the_packed_diagonal(self, m):
        x0, u, ku, dense = self.dense_product(m)
        dense.flat[:: m + 1] += 0.37
        packed = gram_product(ProductFeatures.build(x0, u, UNIT, ku), ridge=0.37)
        np.testing.assert_allclose(packed, pack(dense), rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(np.diag(unpack(packed)), np.full(m, 1.0 + 0.37))

    def test_entries_match_loop_far_from_the_origin(self):
        # controls of norm about 120, the size of the feedback tails: the
        # expansion ||a||^2 + ||b||^2 - 2ab of uncentred points would lose
        # up to about 1e-16 * 2 * 120^2 to cancellation in each exponent
        rng = np.random.default_rng(17)
        x0 = rng.normal(size=(40, 4)) + 3.0
        u = rng.normal(scale=0.3, size=(40, 30)) + 120.0 / np.sqrt(30)
        assert 110 < np.linalg.norm(u, axis=1).min() < 130

        def loop(query_x0, query_u):
            return [
                [loop_kernel(UNIT, a, p) * loop_kernel(UNIT, b, q) for p, q in zip(query_x0, query_u)]
                for a, b in zip(x0, u)
            ]

        features = ProductFeatures.build(x0, u, UNIT, UNIT)
        g = unpack(gram_product(features))
        np.testing.assert_allclose(g, loop(x0, u), rtol=1e-12, atol=0.0)
        cross = features.cross_kernel(x0[:5] + 0.5, u[:5] - 0.5)
        np.testing.assert_allclose(cross, loop(x0[:5] + 0.5, u[:5] - 0.5), rtol=1e-12, atol=0.0)

    def test_equal_points_off_the_origin_give_exactly_one(self):
        # the centre is the points themselves, so their features are exactly
        # 0; uncentred, ||a||^2 + ||a||^2 - 2aa rounds to about 1e-13 here
        x0 = [[3.0, -1.5, 0.25, 7.0]] * 2
        u = [np.linspace(-90.0, 120.0, 30)] * 2
        features = ProductFeatures.build(x0, u, UNIT, KernelSpec(bandwidth=0.1))
        g = gram_product(features, ridge=0.5)
        np.testing.assert_array_equal(unpack(g), [[1.5, 1.0], [1.0, 1.5]])

    def test_peak_memory_one_gram_buffer(self):
        # one packed triangle plus one block of rows, not an M x M matrix
        m = 1200
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(m, 4))
        u = rng.normal(size=(m, 30))
        features = ProductFeatures.build(x0, u, UNIT, KernelSpec(bandwidth=0.1))
        tracemalloc.start()
        try:
            g = gram_product(features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.shape == (m * (m + 1) // 2,)
        assert peak / (m * m * 8) <= 0.6


class TestCrossVector:
    def test_query_at_sample(self):
        x0 = [[0.0, 0.0], [3.0, 0.0]]
        u = [[1.0], [2.0]]
        k = cross_column(x0, u, UNIT, UNIT, [0.0, 0.0], [1.0])
        assert k[0] == 1.0
        assert k[1] < 1.0

    def test_product_value(self):
        k = cross_column([[0.0]], [[0.0]], UNIT, UNIT, [1.0], [1.0])
        assert k[0] == pytest.approx(np.exp(-2.0), rel=1e-14)

    def test_far_query_decays(self):
        spec = KernelSpec(bandwidth=10.0)
        k = cross_column([[0.0]], [[0.0]], spec, spec, [10.0], [10.0])
        assert k[0] < 1e-10

    def test_matches_gram_column(self):
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=(15, 4))
        u = rng.normal(size=(15, 6))
        g = unpack(gram_product(ProductFeatures.build(x0, u, UNIT, UNIT)))
        k = [loop_kernel(UNIT, x0[i], x0[4]) * loop_kernel(UNIT, u[i], u[4]) for i in range(15)]
        np.testing.assert_allclose(k, g[:, 4], rtol=0.0, atol=1e-12)


class TestSpdSolve:
    def test_identity(self):
        f = spd_factor(pack(np.eye(4)))
        v = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_array_equal(spd_solve(f, v), v)

    def test_diagonal(self):
        f = spd_factor(np.array([4.0]))
        np.testing.assert_array_equal(spd_solve(f, np.array([2.0])), [0.5])

    def test_indefinite_reports_pivot(self):
        with pytest.raises(FactorizationError) as exc:
            spd_factor(pack(np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert exc.value.pivot == 2

    @pytest.mark.parametrize("m", range(2, 10))
    def test_pivot_in_each_half_is_potrf_pivot(self, m):
        # the leading minor of order k + 1 fails through its Schur
        # complement, not a negative diagonal entry; k runs over both halves
        rng = np.random.default_rng(m)
        b = rng.normal(size=(m, m))
        spd = b @ b.T + np.eye(m)
        for k in range(m):
            a = spd.copy()
            head = a[:k, :k]
            a[k, k] = a[k, :k] @ np.linalg.solve(head, a[:k, k]) if k else 0.0
            a[k, k] -= 0.25
            _, potrf_info = lapack.dpotrf(a, lower=1)
            assert potrf_info == k + 1
            with pytest.raises(FactorizationError) as exc:
                spd_factor(pack(a))
            assert exc.value.pivot == potrf_info

    @pytest.mark.parametrize("shape", [(2,), (5,), (3, 3)])
    def test_not_a_packed_triangle_rejected(self, shape):
        with pytest.raises(ValueError, match="packed triangle"):
            spd_factor(np.ones(shape))

    @staticmethod
    def blocked_spd(m=600):
        """A packed SPD matrix whose finiteness check runs over several chunks."""
        assert m * (m + 1) // 2 > 2 * kernels._FINITE_CHUNK
        rng = np.random.default_rng(m)
        b = rng.normal(size=(m, 8))
        return b @ b.T + m * np.eye(m)

    # one diagonal and one off-diagonal entry in each half of the packed
    # layout: rows 0 and 1 lie in its first half, rows m - 2 and m - 1 in
    # its second
    NON_FINITE_AT = {
        "diagonal": [(1, 1), (-1, -1)],
        "off_diagonal": [(0, -1), (-2, -1)],
    }

    @pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
    def test_nan_rejected(self, where):
        for i, j in self.NON_FINITE_AT[where]:
            a = self.blocked_spd()
            a[i, j] = a[j, i] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                spd_factor(pack(a))

    @pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
    def test_inf_rejected(self, where):
        # the factor of a matrix holding inf would hold inf or NaN
        for i, j in self.NON_FINITE_AT[where]:
            a = self.blocked_spd()
            a[i, j] = a[j, i] = np.inf
            with pytest.raises(ValueError, match="non-finite"):
                spd_factor(pack(a))

    @staticmethod
    def strided(packed):
        """A non-contiguous view holding the same entries."""
        spaced = np.zeros(2 * packed.shape[0])
        spaced[::2] = packed
        return spaced[::2]

    def test_memory_order_does_not_change_factor(self):
        packed = pack(self.blocked_spd())
        # the strided view is copied; the contiguous argument is factored in
        # place, so it goes second
        strided = spd_factor(self.strided(packed)).packed_factor
        contiguous = spd_factor(packed).packed_factor
        assert contiguous.tobytes() == strided.tobytes()

    @pytest.mark.parametrize("layout", ["strided", "read_only"])
    def test_argument_unmodified(self, layout):
        # what cannot be factored in place is copied, and left as it was
        a = pack(self.blocked_spd())
        if layout == "strided":
            a = self.strided(a)
        else:
            a.flags.writeable = False
        before = a.copy()
        spd_factor(a)
        assert a.tobytes() == before.tobytes()

    def test_overwrite_factors_c_argument_in_place(self):
        a = pack(self.blocked_spd())
        factor = spd_factor(a)
        assert np.shares_memory(factor.packed_factor, a)

    @pytest.mark.parametrize("defect", ["nan", "inf"])
    def test_overwrite_leaves_rejected_argument_unmodified(self, defect):
        a = pack(self.blocked_spd())
        a[-1] = np.nan if defect == "nan" else np.inf
        before = a.copy()
        with pytest.raises(ValueError, match="non-finite"):
            spd_factor(a)
        assert a.tobytes() == before.tobytes()

    def test_factor_diagonal_positive(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(30, 30))
        a = b @ b.T + 30 * np.eye(30)
        f = spd_factor(pack(a))
        assert np.all(np.diag(unpack(f.packed_factor)) > 0)

    @pytest.mark.parametrize("m", [5, 50, 500])
    def test_random_spd_residual(self, m):
        rng = np.random.default_rng(m)
        b = rng.normal(size=(m, m))
        a = b @ b.T + m * np.eye(m)
        f = spd_factor(pack(a))
        rhs = rng.normal(size=(m, 3))
        x = spd_solve(f, rhs)
        residual = np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs)
        assert residual <= 1e-8

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(21)
        b = rng.normal(size=(12, 12))
        a = b @ b.T + 12 * np.eye(12)
        rhs = rng.normal(size=12)
        np.testing.assert_allclose(
            spd_solve(spd_factor(pack(a)), rhs), np.linalg.solve(a, rhs), rtol=1e-10
        )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, value):
        rhs = np.ones((3, 2))
        rhs[2, 1] = value
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            spd_solve(spd_factor(pack(np.eye(3))), rhs)

    @pytest.mark.parametrize("copied", [False, True])
    def test_factor_is_read_only(self, copied):
        # whether the argument is factored in place or copied first
        packed = pack(self.blocked_spd())
        factor = spd_factor(self.strided(packed) if copied else packed)
        assert not factor.packed_factor.flags.writeable

    def test_solve_peak_memory_skips_the_factor(self):
        # the factor was checked when it was built: a solve scans only its
        # right-hand side, never the packed factor
        m = 1200
        rng = np.random.default_rng(12)
        b = rng.normal(size=(m, 8))
        factor = spd_factor(pack(b @ b.T + m * np.eye(m)))
        rhs = rng.normal(size=(m, 2))
        tracemalloc.start()
        try:
            x = spd_solve(factor, rhs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.shape == (m, 2)
        assert peak / (m * m * 8) <= 0.05

    def test_regularized_gram_always_factorizes(self):
        rng = np.random.default_rng(13)
        # duplicated samples make G singular; the ridge restores definiteness
        x0 = np.vstack([rng.normal(size=(10, 2))] * 2)
        u = np.vstack([rng.normal(size=(10, 4))] * 2)
        features = ProductFeatures.build(x0, u, UNIT, UNIT)
        with pytest.raises(FactorizationError):
            spd_factor(gram_product(features))
        spd_factor(gram_product(features, ridge=1e-7 * 20))


class TestKernelMatrix:
    def test_rectangular_shape(self):
        k = kernel_matrix(UNIT, np.zeros((3, 2)), np.ones((5, 2)))
        assert k.shape == (3, 5)
        np.testing.assert_allclose(k, np.exp(-2.0), rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_matrix(UNIT, np.zeros((3, 2)), np.ones((5, 3)))
