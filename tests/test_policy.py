"""Tests for mixed policies, control sampling, and Monte-Carlo validation."""

import csv

import numpy as np
import pytest

from kernelcc.data import ControlLibrary
from kernelcc.policy import (
    MixedPolicy,
    run_monte_carlo,
    sample_control,
    trajectories_to_csv,
    wilson_interval,
)
from kernelcc.scenario import GoalSet, Scenario
from kernelcc.systems import DisturbanceSpec, ParamPrior, PlanarQuadrotor

HORIZON = 6


def make_library(p=3):
    rng = np.random.default_rng(0)
    return ControlLibrary(rng.uniform(0, 1, size=(p, HORIZON, 2)), 0, "lib")


def make_policy(weights, library=None):
    library = library if library is not None else make_library(len(weights))
    return MixedPolicy(
        weights=np.asarray(weights, dtype=float),
        library=library,
        x0=np.zeros(4),
        delta=0.1,
    )


def quiet_model(drag=0.0):
    return PlanarQuadrotor(
        prior=ParamPrior.point(1.0, drag), disturbance=DisturbanceSpec.zero(4)
    )


def near_origin_scenario():
    # the quadrotor barely moves under [0,1] controls over 6 steps, so a big
    # goal ball at the origin is always reached and a far one never is
    return Scenario(
        horizon=HORIZON, delta=0.1, goal=GoalSet(np.array([0.0, 0.0]), 10.0)
    )


def unreachable_scenario():
    return Scenario(
        horizon=HORIZON, delta=0.1, goal=GoalSet(np.array([100.0, 100.0]), 1.0)
    )


class TestMixedPolicy:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            make_policy([1.1, -0.1, 0.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            make_policy([0.6, 0.5, 0.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            MixedPolicy(np.ones(2), make_library(3), np.zeros(4), 0.1)

    def test_support(self):
        assert make_policy([0.5, 0.0, 0.5]).support == (0, 2)


class TestSampleControl:
    def test_degenerate_always_same_index(self):
        policy = make_policy([1.0, 0.0, 0.0])
        rng = np.random.default_rng(1)
        for _ in range(100):
            index, controls = sample_control(policy, rng)
            assert index == 0
            np.testing.assert_array_equal(controls, policy.library.sequences[0])

    def test_even_mixture_frequency(self):
        policy = make_policy([0.5, 0.5])
        rng = np.random.default_rng(2)
        draws = np.array([sample_control(policy, rng)[0] for _ in range(10**5)])
        assert abs(np.mean(draws == 0) - 0.5) < 0.005

    def test_zero_weight_never_drawn(self):
        policy = make_policy([0.5, 0.0, 0.5])
        rng = np.random.default_rng(3)
        draws = {sample_control(policy, rng)[0] for _ in range(5000)}
        assert 1 not in draws

    def test_leading_zero_weight_never_drawn(self):
        policy = make_policy([0.0, 1.0])
        rng = np.random.default_rng(4)
        assert all(sample_control(policy, rng)[0] == 1 for _ in range(1000))

    def test_draw_above_rounded_total_stays_in_support(self):
        # the weights sum to 1 - 1e-10, so this uniform lies beyond the last
        # cumulative weight
        class Draw:
            def random(self):
                return 1.0 - 5e-11

        policy = make_policy([1.0 - 1e-10, 0.0, 0.0])
        assert policy.support == (0,)
        assert sample_control(policy, Draw())[0] == 0


class TestWilsonInterval:
    def test_half_at_hundred(self):
        low, high = wilson_interval(50, 100)
        assert low == pytest.approx(0.40383, abs=2e-4)
        assert high == pytest.approx(0.59617, abs=2e-4)

    def test_extremes_stay_in_unit_interval(self):
        low, high = wilson_interval(0, 20)
        assert low == 0.0 or low > 0.0
        assert 0.0 <= low <= high <= 1.0
        low, high = wilson_interval(20, 20)
        assert 0.0 <= low <= high <= 1.0

    def test_contains_rate(self):
        for successes, trials in ((3, 10), (77, 100), (999, 1000), (0, 7), (20, 20)):
            low, high = wilson_interval(successes, trials)
            assert low <= successes / trials <= high


class TestRunMonteCarlo:
    def test_always_feasible(self):
        policy = make_policy([0.5, 0.5])
        report = run_monte_carlo(
            policy, quiet_model(), near_origin_scenario(), np.zeros(4), 50, seed=9
        )
        assert report.successes == 50
        assert report.success_rate == 1.0
        assert report.standard_error == 0.0

    def test_never_feasible(self):
        policy = make_policy([1.0])
        report = run_monte_carlo(
            policy, quiet_model(), unreachable_scenario(), np.zeros(4), 30, seed=9
        )
        assert report.successes == 0
        assert report.success_rate == 0.0

    def test_reproducible(self):
        policy = make_policy([0.3, 0.7])
        model = PlanarQuadrotor()  # noisy, random parameters
        args = (policy, model, near_origin_scenario(), np.zeros(4), 40)
        a = run_monte_carlo(*args, seed=5)
        b = run_monte_carlo(*args, seed=5)
        assert a.successes == b.successes
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.trajectories, b.trajectories)

    def test_trial_seeds_stable_under_trial_count(self):
        policy = make_policy([0.3, 0.7])
        model = PlanarQuadrotor()
        sc = near_origin_scenario()
        small = run_monte_carlo(policy, model, sc, np.zeros(4), 10, seed=5)
        large = run_monte_carlo(policy, model, sc, np.zeros(4), 25, seed=5)
        np.testing.assert_array_equal(small.indices, large.indices[:10])
        np.testing.assert_array_equal(small.feasible, large.feasible[:10])

    def test_single_trial_rate_binary(self):
        policy = make_policy([1.0])
        report = run_monte_carlo(
            policy, PlanarQuadrotor(), near_origin_scenario(), np.zeros(4), 1, seed=0
        )
        assert report.success_rate in (0.0, 1.0)

    def test_divergence_counts_as_failure(self):
        # enormous drag on a fast start overflows the quadratic drag term
        library = ControlLibrary(
            np.full((1, HORIZON, 2), 1e155), 0, "hot"
        )
        policy = MixedPolicy(np.ones(1), library, np.zeros(4), 0.1)
        model = quiet_model(drag=0.9)
        with np.errstate(over="ignore"):
            report = run_monte_carlo(
                policy, model, near_origin_scenario(), np.zeros(4), 5, seed=1
            )
        assert report.successes == 0
        assert np.all(np.isnan(report.trajectories))

    def test_trajectory_retention_cap(self):
        policy = make_policy([1.0])
        report = run_monte_carlo(
            policy,
            quiet_model(),
            near_origin_scenario(),
            np.zeros(4),
            12,
            seed=3,
            max_kept_trajectories=4,
        )
        assert report.trajectories.shape == (4, HORIZON, 4)
        assert report.indices.shape == (12,)

    def test_report_dict_round_trips_counts(self):
        policy = make_policy([0.5, 0.5])
        report = run_monte_carlo(
            policy, PlanarQuadrotor(), near_origin_scenario(), np.zeros(4), 20, seed=2
        )
        d = report.to_dict()
        assert d["trials"] == 20
        assert d["successes"] == sum(d["trial_feasible"])
        assert len(d["trial_indices"]) == 20


class TestCsvExport:
    def test_rows_and_flags(self, tmp_path):
        policy = make_policy([1.0])
        report = run_monte_carlo(
            policy, quiet_model(), near_origin_scenario(), np.zeros(4), 3, seed=7
        )
        path = tmp_path / "traj.csv"
        trajectories_to_csv(report, path)
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["trial", "step", "s0", "s1", "s2", "s3", "feasible"]
        assert len(rows) == 1 + 3 * HORIZON
        assert all(row[-1] == "1" for row in rows[1:])
        # states parse back as floats
        float(rows[1][2])

    def test_byte_stable(self, tmp_path):
        policy = make_policy([0.4, 0.6])
        report = run_monte_carlo(
            policy, PlanarQuadrotor(), near_origin_scenario(), np.zeros(4), 5, seed=11
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trajectories_to_csv(report, p1)
        trajectories_to_csv(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
