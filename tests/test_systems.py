"""Tests for the planar quadrotor model, parameter priors, and rollout."""

import numpy as np
import pytest
from scipy.special import beta, betaincinv

from kernelcc.systems import (
    BetaSpec,
    DisturbanceSpec,
    ParamPrior,
    PlanarQuadrotor,
    draw_streams,
    quadrotor_step,
    rollout,
)
from reference import stream_draws

ZERO4 = np.zeros(4)


def deterministic_model(mass=1.0, drag=0.0):
    return PlanarQuadrotor(
        prior=ParamPrior.point(mass, drag), disturbance=DisturbanceSpec.zero(4)
    )


class TestQuadrotorStep:
    def test_all_zero(self):
        out = quadrotor_step(ZERO4, np.zeros(2), ZERO4, (1.3, 0.7))
        np.testing.assert_array_equal(out, ZERO4)

    def test_drag_on_unit_velocity(self):
        # vx' = 1 - 0.5*0.1*1*1, px' = 0.1*1 - 0.5*0.005*1
        out = quadrotor_step([0, 1, 0, 0], np.zeros(2), ZERO4, (1.0, 0.5))
        assert out[1] == pytest.approx(0.95, abs=1e-15)
        assert out[0] == pytest.approx(0.0975, abs=1e-15)
        np.testing.assert_array_equal(out[2:], [0.0, 0.0])

    def test_control_column(self):
        # px' = dt^2/(2m), vx' = dt/m with m=2
        out = quadrotor_step(ZERO4, [1.0, 0.0], ZERO4, (2.0, 0.0))
        assert out[0] == pytest.approx(0.0025, abs=1e-15)
        assert out[1] == pytest.approx(0.05, abs=1e-15)

    def test_axes_decoupled(self):
        params = (1.0, 0.3)
        out_x = quadrotor_step([0, 1, 0, 0], [0.5, 0.0], ZERO4, params)
        out_y = quadrotor_step([0, 0, 0, 1], [0.0, 0.5], ZERO4, params)
        np.testing.assert_allclose(out_x[:2], out_y[2:], atol=1e-15)

    def test_drag_opposes_negative_velocity(self):
        out = quadrotor_step([0, -1, 0, 0], np.zeros(2), ZERO4, (1.0, 0.5))
        # |v|*v = -1, so drag accelerates toward zero
        assert out[1] == pytest.approx(-0.95, abs=1e-15)

    def test_linear_without_drag(self):
        params = (1.7, 0.0)
        rng = np.random.default_rng(4)
        x1, x2 = rng.normal(size=(2, 4))
        u1, u2 = rng.normal(size=(2, 2))
        lhs = quadrotor_step(x1 + x2, u1 + u2, ZERO4, params)
        rhs = (
            quadrotor_step(x1, u1, ZERO4, params)
            + quadrotor_step(x2, u2, ZERO4, params)
            - quadrotor_step(ZERO4, np.zeros(2), ZERO4, params)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_additive_disturbance(self):
        w = np.array([0.1, -0.2, 0.3, 0.4])
        params = (1.0, 0.0)
        base = quadrotor_step(ZERO4, np.zeros(2), ZERO4, params)
        out = quadrotor_step(ZERO4, np.zeros(2), w, params)
        np.testing.assert_allclose(out - base, w, atol=1e-15)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            quadrotor_step(np.zeros(3), np.zeros(2), ZERO4, (1, 0))

    def test_batch_matches_single_rows(self):
        rng = np.random.default_rng(6)
        x = rng.normal(scale=3.0, size=(500, 4))
        u = rng.uniform(0, 2, size=(500, 2))
        w = rng.normal(scale=0.01, size=(500, 4))
        params = np.column_stack([rng.uniform(0.75, 1.25, 500), rng.uniform(0.4, 0.6, 500)])
        batch = quadrotor_step(x, u, w, params)
        for k in range(500):
            np.testing.assert_array_equal(batch[k], quadrotor_step(x[k], u[k], w[k], params[k]))


class TestBetaSpec:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BetaSpec(0.0, 2.0, 0.0, 1.0)

    @pytest.mark.parametrize("shape", [(np.nan, 2.0), (2.0, np.inf)])
    def test_rejects_non_finite_shapes(self, shape):
        with pytest.raises(ValueError, match="positive and finite"):
            BetaSpec(*shape, 0.0, 1.0)

    def test_point_mass(self):
        spec = BetaSpec(2.0, 2.0, 0.8, 0.0)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(spec.quantile(rng.random(10)), np.full(10, 0.8))
        u = np.array([0.0, 1e-300, 1e-12, 0.5, 1 - 2**-53])
        np.testing.assert_array_equal(spec.quantile(u), np.full(5, 0.8))

    def test_draw_consumes_one_uniform(self):
        # point-mass and full-width priors must advance the stream identically,
        # so the disturbances drawn after the parameters coincide
        point = PlanarQuadrotor(prior=ParamPrior.point(1.0, 0.5))
        wide = PlanarQuadrotor(prior=ParamPrior(mass=BetaSpec(2.0, 2.0, 0.75, 0.5)))
        assert point.realization_pieces(5) == wide.realization_pieces(5)
        draws = draw_streams(42, 3, point.realization_pieces(5))
        (point_params, point_noise), (wide_params, wide_noise) = (
            point.realizations(*draws),
            wide.realizations(*draws),
        )
        np.testing.assert_array_equal(point_noise, wide_noise)
        assert np.all(point_params[:, 0] == 1.0)
        assert np.all(wide_params[:, 0] != 1.0)


# Beta(12, 3) has a shape above 10
QUANTILE_SHAPES = [(2, 2), (2, 5), (2, 3), (3, 3), (1, 1), (0.5, 0.7), (12, 3)]


def uniforms(seed=0):
    """0, u in the far lower tail, sorted random u, and the largest u < 1."""
    draws = np.sort(np.random.default_rng(seed).random(2000))
    return np.concatenate([[0.0, 1e-300, 1e-12], draws, [1 - 2**-53]])


class TestBetaQuantile:
    @staticmethod
    def quantile(a, b, u):
        return BetaSpec(a, b, 0.0, 1.0).quantile(u)

    @pytest.mark.parametrize("a, b", QUANTILE_SHAPES)
    def test_matches_scipy(self, a, b):
        # u = 1e-300 is left to test_far_lower_tail
        u = np.delete(uniforms(), 1)
        x = self.quantile(a, b, u)
        np.testing.assert_allclose(x, betaincinv(a, b, u), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("a, b", QUANTILE_SHAPES)
    def test_far_lower_tail(self, a, b):
        # at u = 1e-300 scipy returns nan for Beta(2, 5) and Beta(3, 3), and
        # for Beta(0.5, 0.7) the smallest normal float, whose quantile is
        # 1.6e-600. There I_x(a, b) = x^a / (a B(a, b)) (1 + O(x)), so the
        # quantile is (u a B)^(1/a) to within about x relatively: 0 for
        # Beta(0.5, 0.7), at most 7e-26 for the others
        expected = (1e-300 * a * beta(a, b)) ** (1.0 / a)
        np.testing.assert_allclose(self.quantile(a, b, 1e-300), expected, rtol=1e-13)

    @pytest.mark.parametrize("a, b", QUANTILE_SHAPES)
    def test_in_unit_interval_and_nondecreasing(self, a, b):
        x = self.quantile(a, b, np.append(uniforms(1), 1.0))
        assert np.all((0.0 <= x) & (x <= 1.0))
        assert np.all(np.diff(x) >= 0.0)
        assert x[0] == 0.0 and x[-1] == 1.0

    def test_keeps_the_shape_of_u(self):
        u = np.random.default_rng(2).random((3, 4))
        x = self.quantile(2.0, 5.0, u)
        assert x.shape == (3, 4)
        np.testing.assert_array_equal(x.ravel(), self.quantile(2.0, 5.0, u.ravel()))


class TestParamPrior:
    def test_rejects_nonpositive_mass(self):
        # a mass support that reaches 0 could draw a zero or negative mass
        with pytest.raises(ValueError, match="mass offset must be positive"):
            ParamPrior.point(0.0, 0.1)
        with pytest.raises(ValueError, match="mass offset must be positive"):
            ParamPrior(mass=BetaSpec(2.0, 2.0, -0.1, 2.0))

    def test_rejects_negative_drag(self):
        with pytest.raises(ValueError, match="drag offset must be nonnegative"):
            ParamPrior.point(1.0, -0.1)
        with pytest.raises(ValueError, match="drag offset must be nonnegative"):
            ParamPrior(drag=BetaSpec(2.0, 5.0, -1.0, 0.2))


class TestSampleParams:
    def draw(self, prior, count, seed):
        # rows of (mass, drag) uniforms, drawn mass first as a stream draws them
        return prior.quantile(np.random.default_rng(seed).random((count, 2)))

    def test_supports_are_closed_intervals(self):
        params = self.draw(ParamPrior(), 2000, 0)
        assert np.all((0.75 <= params[:, 0]) & (params[:, 0] <= 1.25))
        assert np.all((0.4 <= params[:, 1]) & (params[:, 1] <= 0.6))

    def test_sample_means(self):
        draws = self.draw(ParamPrior(), 10**5, 123)
        # Beta(2,2) mean 1/2 -> mass 1.0; Beta(2,5) mean 2/7 -> drag 0.4 + 0.2*2/7
        assert abs(draws[:, 0].mean() - 1.0) < 0.002
        assert abs(draws[:, 1].mean() - (0.4 + 0.2 * 2 / 7)) < 0.002

    def test_point_prior(self):
        params = self.draw(ParamPrior.point(1.0, 0.005), 1, 0)
        assert params[0, 0] == 1.0 and params[0, 1] == 0.005

    def test_model_mean_params(self):
        params = PlanarQuadrotor().mean_params()
        assert params["mass"] == pytest.approx(1.0)
        assert params["drag"] == pytest.approx(0.4 + 0.2 * 2 / 7)


class TestDrawStreams:
    PIECES = [("uniform", (3,)), ("normal", (4, 2)), ("uniform", (1,))]
    # seeds of one to four 32-bit words, and of more words than the pool
    SEEDS = [0, 101, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7]
    PIECE_LISTS = {
        "alternating": PIECES,
        "adjacent": [
            ("uniform", (2,)),
            ("uniform", (3, 2)),
            ("normal", (4,)),
            ("normal", (2, 2, 2)),
        ],
        # uniform x0 and leading controls, then two trajectory
        # realizations: four runs that alternate uniform and normal
        "dataset_sampled": [
            ("uniform", (4,)),
            ("uniform", (3, 2)),
            *PlanarQuadrotor().realization_pieces(15) * 2,
        ],
        "one_normal": [("normal", (5,))],
    }

    def assert_equal_draws(self, arrays, expected):
        assert [a.shape for a in arrays] == [e.shape for e in expected]
        for array, reference in zip(arrays, expected):
            assert array.dtype == np.float64
            np.testing.assert_array_equal(array, reference)

    def test_rows_follow_each_stream_in_piece_order(self):
        arrays = draw_streams(8, 3, self.PIECES)
        assert [a.shape for a in arrays] == [(3, 3), (3, 4, 2), (3, 1)]
        for i in range(3):
            rng = np.random.default_rng(np.random.SeedSequence((8, i)))
            np.testing.assert_array_equal(arrays[0][i], rng.random(3))
            np.testing.assert_array_equal(arrays[1][i], rng.standard_normal((4, 2)))
            np.testing.assert_array_equal(arrays[2][i], rng.random(1))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("pieces", PIECE_LISTS.values(), ids=PIECE_LISTS.keys())
    def test_matches_per_stream_reference(self, seed, pieces):
        self.assert_equal_draws(
            draw_streams(seed, 5, pieces), stream_draws(seed, 5, pieces)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", [0, 1, 701])
    def test_matches_per_stream_reference_at_any_count(self, seed, count):
        pieces = self.PIECE_LISTS["dataset_sampled"]
        self.assert_equal_draws(
            draw_streams(seed, count, pieces), stream_draws(seed, count, pieces)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_do_not_depend_on_the_count(self, seed):
        pieces = self.PIECE_LISTS["alternating"]
        few, many = draw_streams(seed, 3, pieces), draw_streams(seed, 700, pieces)
        for head, array in zip(few, many):
            np.testing.assert_array_equal(head, array[:3])

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            draw_streams(-1, 1, self.PIECES)


def simulate(model, x0, controls, seed):
    """Replay one control sequence on the realization stream (seed, 0) draws."""
    params, noise = model.realizations(
        *draw_streams(seed, 1, model.realization_pieces(len(controls)))
    )
    _, states, diverged = rollout(model, [x0], [controls], params, noise)
    return states[0], diverged[0]


class TestRollout:
    def test_zero_everything_stays_at_origin(self):
        model = deterministic_model()
        traj, diverged = simulate(model, ZERO4, np.zeros((15, 2)), 0)
        assert traj.shape == (15, 4)
        assert diverged == 0
        np.testing.assert_array_equal(traj, np.zeros((15, 4)))

    def test_matches_step_composition(self):
        model = deterministic_model(mass=1.1, drag=0.45)
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=4)
        controls = rng.uniform(0, 1, size=(10, 2))
        traj, _ = simulate(model, x0, controls, 0)
        x = x0.copy()
        for t in range(10):
            x = quadrotor_step(x, controls[t], ZERO4, (1.1, 0.45))
            np.testing.assert_allclose(traj[t], x, atol=1e-14)

    def test_feedback_after_leading_steps(self):
        # two leading controls, then u = gain @ (x - target) from the state
        # the previous step left
        model = deterministic_model(mass=1.2, drag=0.3)
        gain = np.array([[-2.0, -3.0, 0.0, 0.0], [0.0, 0.0, -2.0, -3.0]])
        target = np.array([10.0, 0.0, 10.0, 0.0])
        leading = np.array([[[1.0, 0.5], [0.2, 0.8]]])
        controls, states, _ = rollout(
            model, [ZERO4], leading, [(1.2, 0.3)], np.zeros((1, 6, 4)), gain, target
        )
        x = ZERO4
        for t in range(6):
            u = leading[0, t] if t < 2 else gain @ (x - target)
            np.testing.assert_array_equal(controls[0, t], u)
            x = quadrotor_step(x, u, ZERO4, (1.2, 0.3))
            np.testing.assert_array_equal(states[0, t], x)

    def test_same_seed_identical(self):
        model = PlanarQuadrotor(disturbance=DisturbanceSpec.default())
        controls = np.full((15, 2), 0.5)
        t1, _ = simulate(model, ZERO4, controls, 99)
        t2, _ = simulate(model, ZERO4, controls, 99)
        np.testing.assert_array_equal(t1, t2)

    def test_different_seeds_differ(self):
        model = PlanarQuadrotor(disturbance=DisturbanceSpec.default())
        controls = np.full((15, 2), 0.5)
        t1, _ = simulate(model, ZERO4, controls, 1)
        t2, _ = simulate(model, ZERO4, controls, 2)
        assert np.any(t1 != t2)

    def test_divergence_reports_step(self):
        # step 3 leaves a 1e199 velocity; step 4's quadratic drag overflows
        model = deterministic_model(drag=0.5)
        controls = np.zeros((5, 2))
        controls[2] = [1e200, 0.0]
        traj, diverged = simulate(model, ZERO4, controls, 0)
        assert diverged == 4
        assert np.all(np.isnan(traj[4:]))

    def test_divergence_is_per_row(self):
        # the diverging row stops; the other one runs on as it would alone
        model = deterministic_model(drag=0.5)
        calm = np.full((5, 2), 0.5)
        hot = np.zeros((5, 2))
        hot[2] = [1e200, 0.0]
        _, states, diverged = rollout(
            model, np.zeros((2, 4)), np.stack([hot, calm]), [(1.0, 0.5)] * 2, np.zeros((2, 5, 4))
        )
        np.testing.assert_array_equal(diverged, [4, 0])
        alone, _ = simulate(model, ZERO4, calm, 0)
        np.testing.assert_array_equal(states[1], alone)

    def test_rejects_non_finite_controls(self):
        controls = np.zeros((5, 2))
        controls[1, 0] = np.nan
        with pytest.raises(ValueError):
            simulate(deterministic_model(), ZERO4, controls, 0)

    @pytest.mark.parametrize("name", ["x0", "leading", "params", "noise"])
    def test_rejects_non_finite_input(self, name):
        # checked once at entry, before any step
        inputs = {
            "x0": np.zeros((2, 4)),
            "leading": np.zeros((2, 5, 2)),
            "params": np.ones((2, 2)),
            "noise": np.zeros((2, 5, 4)),
        }
        inputs[name].flat[-1] = np.inf
        with pytest.raises(ValueError, match="non-finite values in rollout inputs"):
            rollout(deterministic_model(), **inputs)

    def test_rejects_bad_control_shape(self):
        with pytest.raises(ValueError):
            simulate(deterministic_model(), ZERO4, np.zeros((5, 3)), 0)
