"""Tests for kernel evaluation, Gram assembly, bandwidth selection, SPD solves."""

import math

import numpy as np
import pytest

from kernelcc.kernels import (
    DegenerateDataError,
    FactorizationError,
    KernelSpec,
    gram_product,
    kernel_matrix,
    median_bandwidth,
    resolve_bandwidth,
    spd_factor,
    spd_solve,
)

UNIT = KernelSpec(bandwidth=1.0)


def kernel(spec, a, b):
    """One kernel evaluation, as a 1x1 kernel matrix."""
    return kernel_matrix(spec, [a], [b])[0, 0]


def cross_column(x0, u, kx, ku, query_x0, query_u):
    """Product-kernel evaluations of every sample against one query."""
    return kernel_matrix(kx, x0, [query_x0])[:, 0] * kernel_matrix(ku, u, [query_u])[:, 0]


def loop_kernel(spec, a, b):
    """Plain-loop reference for exp(-sigma * ||a - b||^2)."""
    return math.exp(-spec.resolved * sum((p - q) ** 2 for p, q in zip(a, b)))


class TestKernelSpec:
    def test_fixed_requires_bandwidth(self):
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=None, bandwidth_mode="fixed")

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=0.0)
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=-1.0)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            KernelSpec(family="laplace", bandwidth=1.0)

    def test_median_mode_defers_bandwidth(self):
        spec = KernelSpec(bandwidth=None, bandwidth_mode="median_heuristic")
        with pytest.raises(ValueError):
            spec.resolved

    def test_resolve_bandwidth_from_data(self):
        spec = KernelSpec(bandwidth=None, bandwidth_mode="median_heuristic")
        resolved = resolve_bandwidth(spec, [[0.0], [1.0], [3.0]])
        assert resolved.bandwidth == 2.0
        assert resolved.bandwidth_mode == "fixed"


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


class TestMedianBandwidth:
    def test_three_points(self):
        # pairwise distances {1, 2, 3}, median is 2
        assert median_bandwidth([[0.0], [1.0], [3.0]]) == 2.0

    def test_single_pair(self):
        assert median_bandwidth([[0.0], [2.0]]) == 2.0

    def test_even_pair_count_averages(self):
        # distances {1, 2, 3, 4, 5, 7}: median (3 + 4) / 2
        assert median_bandwidth([[0.0], [1.0], [3.0], [-4.0]]) == 3.5

    def test_all_coincident_points(self):
        with pytest.raises(DegenerateDataError):
            median_bandwidth([[0.0], [0.0], [0.0]])

    def test_too_few_points(self):
        with pytest.raises(DegenerateDataError):
            median_bandwidth([[1.0]])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 4))
        perm = rng.permutation(20)
        assert median_bandwidth(pts) == median_bandwidth(pts[perm])


class TestGramProduct:
    def test_single_sample(self):
        g = gram_product([[0.5, 0.5]], [[1.0, 2.0]], UNIT, UNIT)
        assert g.shape == (1, 1)
        assert g[0, 0] == 1.0

    def test_identical_samples(self):
        g = gram_product([[1.0], [1.0]], [[2.0], [2.0]], UNIT, UNIT)
        np.testing.assert_array_equal(g, np.ones((2, 2)))

    def test_product_of_factors(self):
        # k_x = k_u = exp(-1) off-diagonal, product exp(-2)
        g = gram_product([[0.0], [1.0]], [[0.0], [1.0]], UNIT, UNIT)
        assert g[0, 1] == pytest.approx(np.exp(-2.0), rel=1e-14)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(40, 4))
        u = rng.normal(size=(40, 30))
        g = gram_product(x0, u, UNIT, KernelSpec(bandwidth=0.1))
        np.testing.assert_array_equal(g, g.T)
        np.testing.assert_array_equal(np.diag(g), np.ones(40))
        assert np.all(g > 0.0) and np.all(g <= 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gram_product([[0.0], [1.0]], [[0.0]], UNIT, UNIT)


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
        g = gram_product(x0, u, UNIT, UNIT)
        k = [loop_kernel(UNIT, x0[i], x0[4]) * loop_kernel(UNIT, u[i], u[4]) for i in range(15)]
        np.testing.assert_allclose(k, g[:, 4], rtol=0.0, atol=1e-12)


class TestSpdSolve:
    def test_identity(self):
        f = spd_factor(np.eye(4))
        v = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_array_equal(spd_solve(f, v), v)

    def test_diagonal(self):
        f = spd_factor(np.array([[4.0]]))
        np.testing.assert_array_equal(spd_solve(f, np.array([2.0])), [0.5])

    def test_indefinite_reports_pivot(self):
        with pytest.raises(FactorizationError) as exc:
            spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.pivot == 2

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError):
            spd_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_factor_diagonal_positive(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(30, 30))
        a = b @ b.T + 30 * np.eye(30)
        f = spd_factor(a)
        assert np.all(np.diag(f.lower_triangular_factor) > 0)

    @pytest.mark.parametrize("m", [5, 50, 500])
    def test_random_spd_residual(self, m):
        rng = np.random.default_rng(m)
        b = rng.normal(size=(m, m))
        a = b @ b.T + m * np.eye(m)
        f = spd_factor(a)
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
            spd_solve(spd_factor(a), rhs), np.linalg.solve(a, rhs), rtol=1e-10
        )

    def test_regularized_gram_always_factorizes(self):
        rng = np.random.default_rng(13)
        # duplicated samples make G singular; the ridge restores definiteness
        x0 = np.vstack([rng.normal(size=(10, 2))] * 2)
        u = np.vstack([rng.normal(size=(10, 4))] * 2)
        g = gram_product(x0, u, UNIT, UNIT)
        m = g.shape[0]
        with pytest.raises(FactorizationError):
            spd_factor(g)
        spd_factor(g + 1e-7 * m * np.eye(m))


class TestKernelMatrix:
    def test_rectangular_shape(self):
        k = kernel_matrix(UNIT, np.zeros((3, 2)), np.ones((5, 2)))
        assert k.shape == (3, 5)
        np.testing.assert_allclose(k, np.exp(-2.0), rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_matrix(UNIT, np.zeros((3, 2)), np.ones((5, 3)))
