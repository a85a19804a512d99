"""Tests for embedding fit, coefficient solves, and expectation estimates."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack

from kernelcc.data import Dataset
from kernelcc.embedding import FitError, cross_matrix, fit
from kernelcc.kernels import KernelSpec, gram_product, spd_factor, spd_solve
from reference import kernel_matrix

UNIT = KernelSpec(bandwidth=1.0)


def query_weights(model, x0, u):
    """Embedding weights of one query (x0, u), solved as a batch of one."""
    return spd_solve(model.factor, cross_matrix(model, x0, [u]))[:, 0]


def estimate(model, gvals, x0, u):
    """Estimate of E[g(X) | x0, u] from g at the training trajectories."""
    return float(np.asarray(gvals) @ query_weights(model, x0, u))


def loop_cross_column(model, x0, u):
    """Plain-loop reference for the product-kernel column of one query."""
    flat_u = np.ravel(u)
    column = []
    ds = model.dataset
    for xi, ui in zip(ds.initial_states, ds.flattened_controls()):
        dx = sum((a - b) ** 2 for a, b in zip(xi, x0))
        du = sum((a - b) ** 2 for a, b in zip(ui, flat_u))
        column.append(math.exp(-model.kx.bandwidth * dx) * math.exp(-model.ku.bandwidth * du))
    return np.array(column)


def dense_gram(ds):
    """The product-kernel Gram matrix of a dataset under UNIT kernels, dense."""
    x0, u = ds.initial_states, ds.flattened_controls()
    return kernel_matrix(UNIT, x0, x0) * kernel_matrix(UNIT, u, u)


def make_dataset(m=8, n=4, horizon=5, cdim=2, seed=0, spread=1.0):
    """Synthetic dataset with well-separated inputs and deterministic outputs."""
    rng = np.random.default_rng(seed)
    x0 = spread * rng.normal(size=(m, n))
    u = rng.uniform(0, 1, size=(m, horizon, cdim))
    # any deterministic map from (x0, u) to a trajectory works here
    traj = np.cumsum(
        0.1 * np.ones((m, horizon, n)) + x0[:, None, :] * 0.05, axis=1
    )
    traj += u.sum(axis=(1, 2))[:, None, None] * 0.01
    return Dataset(x0, u, traj, master_seed=seed, config_digest="test")


class TestFit:
    def test_rejects_nonpositive_lambda(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            fit(ds, UNIT, UNIT, 0.0)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_rejects_non_finite_lambda(self, lam):
        ds = make_dataset()
        with pytest.raises(ValueError, match="positive and finite"):
            fit(ds, UNIT, UNIT, lam)

    def test_overflowing_ridge_is_fit_error(self):
        # lam is finite, lam * M is not
        ds = make_dataset(m=8)
        with pytest.raises(FitError, match="overflows"):
            fit(ds, UNIT, UNIT, 1e308)

    def test_single_sample_factor(self):
        ds = make_dataset(m=1)
        model = fit(ds, UNIT, UNIT, lam=0.5)
        # (G + lam*M*I) = [[1.5]], Cholesky factor sqrt(1.5)
        assert model.factor.packed_factor[0] == pytest.approx(
            np.sqrt(1.5), rel=1e-14
        )

    def test_duplicate_samples_need_ridge(self):
        ds = make_dataset(m=4)
        dup = Dataset(
            np.vstack([ds.initial_states] * 2),
            np.vstack([ds.controls] * 2),
            np.vstack([ds.trajectories] * 2),
            0,
            "dup",
        )
        model = fit(dup, UNIT, UNIT, lam=1e-6)
        assert model.factor.dimension == 8

    def test_digest_changes_with_lambda(self):
        ds = make_dataset()
        a = fit(ds, UNIT, UNIT, lam=1e-4)
        b = fit(ds, UNIT, UNIT, lam=1e-3)
        assert a.digest != b.digest

    def test_factor_of_regularized_gram(self):
        # the fit factors its own packed G + lam*M*I, which is the dense
        # reference to rounding
        ds = make_dataset(m=30)
        model = fit(ds, UNIT, UNIT, lam=1e-3)
        packed = gram_product(
            ds.initial_states, ds.flattened_controls(), UNIT, UNIT, ridge=1e-3 * 30
        )
        reference, _ = lapack.dtrttf(dense_gram(ds) + 1e-3 * 30 * np.eye(30), uplo="L")
        np.testing.assert_allclose(packed, reference, rtol=1e-12, atol=0.0)
        expected = spd_factor(packed)
        np.testing.assert_array_equal(
            model.factor.packed_factor, expected.packed_factor
        )

    def test_peak_memory_two_gram_buffers(self):
        # the Gram matrix and its Cholesky factor together stay below two
        # M x M matrices; test_peak_memory_one_gram_buffer bounds it tighter
        m = 1200
        ds = make_dataset(m=m)
        tracemalloc.start()
        try:
            model = fit(ds, UNIT, UNIT, lam=1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.factor.dimension == m
        assert peak / (m * m * 8) <= 2.2

    def test_peak_memory_one_gram_buffer(self):
        # G + lam*M*I is built as one packed triangle of M(M+1)/2 entries,
        # and the Cholesky factor overwrites it instead of copying it
        m = 1200
        ds = make_dataset(m=m)
        tracemalloc.start()
        try:
            model = fit(ds, UNIT, UNIT, lam=1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.factor.dimension == m
        assert peak / (m * m * 8) <= 0.6


class TestCoefficientVector:
    def test_single_sample_training_query(self):
        ds = make_dataset(m=1)
        lam = 0.25
        model = fit(ds, UNIT, UNIT, lam=lam)
        beta = query_weights(model, ds.initial_states[0], ds.controls[0])
        assert beta[0] == pytest.approx(1.0 / (1.0 + lam), rel=1e-14)

    def test_far_query_gives_zero(self):
        ds = make_dataset(m=3)
        model = fit(ds, KernelSpec(bandwidth=5.0), KernelSpec(bandwidth=5.0), 1e-3)
        beta = query_weights(
            model, np.full(4, 100.0), np.full((5, 2), -100.0)
        )
        np.testing.assert_allclose(beta, 0.0, atol=1e-12)

    def test_matches_dense_solve(self):
        ds = make_dataset(m=3)
        lam = 1e-3
        model = fit(ds, UNIT, UNIT, lam=lam)
        gram = dense_gram(ds)
        query_x0 = np.zeros(4)
        query_u = np.full((5, 2), 0.5)
        k = loop_cross_column(model, query_x0, query_u)
        expected = np.linalg.solve(gram + lam * 3 * np.eye(3), k)
        np.testing.assert_allclose(
            query_weights(model, query_x0, query_u), expected, rtol=1e-10
        )

    def test_near_orthonormal_limit(self):
        # well-separated points with a narrow kernel make G close to identity,
        # so a training query selects its own coefficient
        ds = make_dataset(m=5, spread=20.0, seed=3)
        lam = 1e-3
        narrow = KernelSpec(bandwidth=2.0)
        model = fit(ds, narrow, narrow, lam=lam)
        beta = query_weights(model, ds.initial_states[2], ds.controls[2])
        expected_peak = 1.0 / (1.0 + lam * 5)
        assert beta[2] == pytest.approx(expected_peak, abs=1e-3)
        others = np.delete(beta, 2)
        assert np.all(np.abs(others) < 1e-3)

    def test_dimension_checks(self):
        ds = make_dataset()
        model = fit(ds, UNIT, UNIT, 1e-3)
        with pytest.raises(ValueError):
            query_weights(model, np.zeros(3), ds.controls[0])
        with pytest.raises(ValueError):
            query_weights(model, np.zeros(4), np.zeros((4, 2)))


class TestEstimateExpectation:
    def test_zero_gvals(self):
        ds = make_dataset()
        model = fit(ds, UNIT, UNIT, 1e-3)
        assert estimate(model, np.zeros(8), np.zeros(4), np.zeros((5, 2))) == 0.0

    def test_single_sample_scaling(self):
        ds = make_dataset(m=1)
        lam = 0.5
        model = fit(ds, UNIT, UNIT, lam=lam)
        est = estimate(
            model, np.array([2.0]), ds.initial_states[0], ds.controls[0]
        )
        assert est == pytest.approx(2.0 / (1.0 + lam), rel=1e-14)

    def test_interpolates_at_training_points(self):
        ds = make_dataset(m=20, spread=3.0, seed=7)
        narrow = KernelSpec(bandwidth=1.0)
        model = fit(ds, narrow, narrow, lam=1e-10)
        gvals = ds.trajectories[:, -1, 0]  # terminal x-position
        for i in range(20):
            est = estimate(
                model, gvals, ds.initial_states[i], ds.controls[i]
            )
            assert est == pytest.approx(gvals[i], abs=1e-3)

    def test_linearity(self):
        ds = make_dataset(m=12)
        model = fit(ds, UNIT, UNIT, 1e-4)
        rng = np.random.default_rng(5)
        g1, g2 = rng.normal(size=(2, 12))
        x0 = rng.normal(size=4)
        u = rng.uniform(0, 1, size=(5, 2))
        combined = estimate(model, 2.0 * g1 - 3.0 * g2, x0, u)
        separate = 2.0 * estimate(model, g1, x0, u) - 3.0 * estimate(
            model, g2, x0, u
        )
        assert combined == pytest.approx(separate, rel=1e-12)

    def test_permutation_invariance(self):
        ds = make_dataset(m=15, seed=9)
        rng = np.random.default_rng(1)
        perm = rng.permutation(15)
        permuted = Dataset(
            ds.initial_states[perm],
            ds.controls[perm],
            ds.trajectories[perm],
            ds.master_seed,
            ds.config_digest,
        )
        gvals = rng.normal(size=15)
        x0 = rng.normal(size=4)
        u = rng.uniform(0, 1, size=(5, 2))
        a = estimate(fit(ds, UNIT, UNIT, 1e-4), gvals, x0, u)
        b = estimate(
            fit(permuted, UNIT, UNIT, 1e-4), gvals[perm], x0, u
        )
        assert a == pytest.approx(b, rel=1e-12)

    def test_shrinkage_with_lambda(self):
        ds = make_dataset(m=10)
        rng = np.random.default_rng(2)
        gvals = rng.normal(size=10)
        x0 = ds.initial_states[4]
        u = ds.controls[4]
        magnitudes = [
            abs(estimate(fit(ds, UNIT, UNIT, lam), gvals, x0, u))
            for lam in (1e-2, 1.0, 1e2)
        ]
        assert magnitudes[0] > magnitudes[1] > magnitudes[2]

    def test_gvals_length_checked(self):
        ds = make_dataset()
        model = fit(ds, UNIT, UNIT, 1e-3)
        with pytest.raises(ValueError):
            estimate(model, np.zeros(7), np.zeros(4), np.zeros((5, 2)))


class TestCrossMatrix:
    def test_single_column_matches_cross_vector(self):
        ds = make_dataset(m=6)
        model = fit(ds, UNIT, UNIT, 1e-3)
        x0 = np.zeros(4)
        col = cross_matrix(model, x0, ds.controls[2:3])
        k = loop_cross_column(model, x0, ds.controls[2])
        assert col.shape == (6, 1)
        np.testing.assert_allclose(col[:, 0], k, rtol=1e-14)

    def test_training_pair_gives_unit_entry(self):
        ds = make_dataset(m=6)
        model = fit(ds, UNIT, UNIT, 1e-3)
        r = cross_matrix(model, ds.initial_states[3], ds.controls[3:4])
        assert r[3, 0] == pytest.approx(1.0, abs=1e-14)

    def test_entries_in_unit_interval(self):
        ds = make_dataset(m=6)
        model = fit(ds, UNIT, UNIT, 1e-3)
        rng = np.random.default_rng(0)
        r = cross_matrix(model, np.zeros(4), rng.uniform(0, 1, size=(4, 5, 2)))
        assert np.all(r > 0.0) and np.all(r <= 1.0)

    @pytest.mark.parametrize("blocks", [2, 3, 7])
    def test_blocks_equal_one_unblocked_call(self, blocks):
        # assemble walks the library a block of columns at a time; BLAS may
        # round an entry differently in another block, in its last bits only
        ds = make_dataset(m=40, seed=4)
        model = fit(ds, UNIT, UNIT, 1e-3)
        rng = np.random.default_rng(6)
        controls = rng.uniform(0, 1, size=(23, 5, 2))
        x0 = rng.normal(size=4)
        whole = cross_matrix(model, x0, controls)
        blocked = np.hstack(
            [cross_matrix(model, x0, part) for part in np.array_split(controls, blocks)]
        )
        np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=0.0)

    def test_horizon_mismatch_rejected(self):
        ds = make_dataset(m=6)
        model = fit(ds, UNIT, UNIT, 1e-3)
        with pytest.raises(ValueError):
            cross_matrix(model, np.zeros(4), np.zeros((2, 7, 2)))
