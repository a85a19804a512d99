"""Tests for mixed policies, control sampling, and Monte-Carlo validation."""

import csv
import tracemalloc

import numpy as np
import pytest

from kernelcc.data import ControlLibrary
from kernelcc.policy import (
    MAX_KEPT_TRAJECTORIES,
    MixedPolicy,
    run_monte_carlo,
    trajectories_to_csv,
    wilson_interval,
)
from kernelcc.scenario import GoalSet, Scenario
from kernelcc.systems import DisturbanceSpec, ParamPrior, PlanarQuadrotor
from reference import sample_control, stream_draws

HORIZON = 6


def make_library(p=3):
    rng = np.random.default_rng(0)
    return ControlLibrary(rng.uniform(0, 1, size=(p, HORIZON, 2)), 0, "lib")


def make_policy(weights, library=None):
    library = library if library is not None else make_library(len(weights))
    return MixedPolicy(weights=np.asarray(weights, dtype=float), library=library)


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
            MixedPolicy(np.ones(2), make_library(3))


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
        np.testing.assert_array_equal(np.flatnonzero(policy.weights), [0])
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
        (report,) = run_monte_carlo(
            [policy], quiet_model(), near_origin_scenario(), np.zeros(4), 50, seed=9
        )
        assert report.successes == 50
        assert report.success_rate == 1.0
        assert report.standard_error == 0.0

    def test_never_feasible(self):
        policy = make_policy([1.0])
        (report,) = run_monte_carlo(
            [policy], quiet_model(), unreachable_scenario(), np.zeros(4), 30, seed=9
        )
        assert report.successes == 0
        assert report.success_rate == 0.0

    def test_reproducible(self):
        policy = make_policy([0.3, 0.7])
        model = PlanarQuadrotor()  # noisy, random parameters
        args = ([policy], model, near_origin_scenario(), np.zeros(4), 40)
        (a,) = run_monte_carlo(*args, seed=5)
        (b,) = run_monte_carlo(*args, seed=5)
        assert a.successes == b.successes
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.states[a.kept_rows], b.states[b.kept_rows])

    def test_trial_seeds_stable_under_trial_count(self):
        policy = make_policy([0.3, 0.7])
        model = PlanarQuadrotor()
        sc = near_origin_scenario()
        (small,) = run_monte_carlo([policy], model, sc, np.zeros(4), 10, seed=5)
        (large,) = run_monte_carlo([policy], model, sc, np.zeros(4), 25, seed=5)
        np.testing.assert_array_equal(small.indices, large.indices[:10])
        np.testing.assert_array_equal(small.feasible, large.feasible[:10])

    def test_single_trial_rate_binary(self):
        policy = make_policy([1.0])
        (report,) = run_monte_carlo(
            [policy], PlanarQuadrotor(), near_origin_scenario(), np.zeros(4), 1, seed=0
        )
        assert report.success_rate in (0.0, 1.0)

    def test_divergence_counts_as_failure(self):
        # enormous drag on a fast start overflows the quadratic drag term
        library = ControlLibrary(
            np.full((1, HORIZON, 2), 1e155), 0, "hot"
        )
        policy = MixedPolicy(np.ones(1), library)
        model = quiet_model(drag=0.9)
        with np.errstate(over="ignore"):
            (report,) = run_monte_carlo(
                [policy], model, near_origin_scenario(), np.zeros(4), 5, seed=1
            )
        assert report.successes == 0
        assert np.all(np.isnan(report.states[report.kept_rows]))

    def test_trajectory_retention_cap(self, tmp_path):
        # the report of more trials than the cap keeps the states and CSV of
        # a run of the first cap trials, and counts every trial
        kept, trials = MAX_KEPT_TRAJECTORIES, MAX_KEPT_TRAJECTORIES + 20
        args = [make_policy([0.3, 0.7])], PlanarQuadrotor(), near_origin_scenario()
        (report,) = run_monte_carlo(*args, np.zeros(4), trials, seed=3)
        (first,) = run_monte_carlo(*args, np.zeros(4), kept, seed=3)
        np.testing.assert_array_equal(
            report.states[report.kept_rows], first.states[first.kept_rows]
        )
        assert report.states[report.kept_rows].shape == (kept, HORIZON, 4)
        trajectories_to_csv(report, tmp_path / "capped.csv")
        trajectories_to_csv(first, tmp_path / "first.csv")
        text = (tmp_path / "capped.csv").read_text()
        assert text == (tmp_path / "first.csv").read_text()
        assert text.count("\n") == 1 + kept * HORIZON
        d = report.to_dict()
        assert d["trials"] == trials
        assert len(d["trial_indices"]) == len(d["trial_feasible"]) == trials
        assert d["successes"] == sum(d["trial_feasible"])
        assert d["trial_indices"][:kept] == first.to_dict()["trial_indices"]

    def test_report_dict_round_trips_counts(self):
        policy = make_policy([0.5, 0.5])
        (report,) = run_monte_carlo(
            [policy], PlanarQuadrotor(), near_origin_scenario(), np.zeros(4), 20, seed=2
        )
        d = report.to_dict()
        assert d["trials"] == 20
        assert d["successes"] == sum(d["trial_feasible"])
        assert len(d["trial_indices"]) == 20


class TestCsvExport:
    def test_rows_and_flags(self, tmp_path):
        policy = make_policy([1.0])
        (report,) = run_monte_carlo(
            [policy], quiet_model(), near_origin_scenario(), np.zeros(4), 3, seed=7
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

    def test_matches_csv_writer_reference(self, tmp_path):
        # sequence 1 diverges, so its trials export NaN states next to the
        # finite ones of sequence 0
        sequences = np.zeros((2, HORIZON, 2))
        sequences[1] = 1e155
        policy = MixedPolicy(np.array([0.5, 0.5]), ControlLibrary(sequences, 0, "mixed"))
        with np.errstate(over="ignore", invalid="ignore"):
            (report,) = run_monte_carlo(
                [policy], quiet_model(drag=0.9), near_origin_scenario(), np.zeros(4), 6,
                seed=4,
            )
        assert 0 < np.isnan(report.states[report.kept_rows][:, 0, 0]).sum() < 6
        path, reference = tmp_path / "traj.csv", tmp_path / "ref.csv"
        trajectories_to_csv(report, path)
        with reference.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["trial", "step", "s0", "s1", "s2", "s3", "feasible"])
            for t, trajectory in enumerate(report.states[report.kept_rows]):
                for step, state in enumerate(trajectory):
                    row = [t, step + 1, *(repr(float(v)) for v in state)]
                    writer.writerow(row + [int(report.feasible[t])])
        assert path.read_bytes() == reference.read_bytes()

    def test_byte_stable(self, tmp_path):
        policy = make_policy([0.4, 0.6])
        (report,) = run_monte_carlo(
            [policy], PlanarQuadrotor(), near_origin_scenario(), np.zeros(4), 5, seed=11
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trajectories_to_csv(report, p1)
        trajectories_to_csv(report, p2)
        assert p1.read_bytes() == p2.read_bytes()


def diverging_library():
    # element 1 overflows the quadratic drag term, so its trials are NaN
    sequences = make_library(3).sequences.copy()
    sequences[1] = 1e155
    return ControlLibrary(sequences, 0, "hot")


# a library and the weights of the policies one call validates together
SWEEPS = {
    "overlapping": (make_library(4), [[0.5, 0.5, 0, 0], [0, 0.5, 0.5, 0], [0.25] * 4]),
    "disjoint": (make_library(4), [[1.0, 0, 0, 0], [0, 0, 0.5, 0.5]]),
    "identical": (make_library(4), [[0.3, 0.7, 0, 0], [0.3, 0.7, 0, 0]]),
    "diverging": (diverging_library(), [[0.5, 0.5, 0], [0, 1.0, 0], [0.2, 0.3, 0.5]]),
}


def sweep_policies(name):
    library, weights = SWEEPS[name]
    return [
        MixedPolicy(np.asarray(w, dtype=float), library)
        for w in weights
    ]


def assert_same_report(a, b, tmp_path):
    for name in (
        "trials", "successes", "success_rate", "standard_error",
        "wilson_low", "wilson_high", "seed",
    ):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("indices", "feasible"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    np.testing.assert_array_equal(
        a.states[a.kept_rows], b.states[b.kept_rows], err_msg="trajectories"
    )
    trajectories_to_csv(a, tmp_path / "a.csv")
    trajectories_to_csv(b, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestSweep:
    def run(self, policies, trials=40):
        with np.errstate(over="ignore", invalid="ignore"):
            model, sc = PlanarQuadrotor(), near_origin_scenario()
            return run_monte_carlo(policies, model, sc, np.zeros(4), trials, 8)

    @pytest.mark.parametrize("name", SWEEPS)
    def test_equals_one_policy_calls(self, tmp_path, name):
        policies = sweep_policies(name)
        swept = self.run(policies)
        assert len(swept) == len(policies)
        for policy, report in zip(policies, swept):
            (alone,) = self.run([policy])
            assert_same_report(report, alone, tmp_path)
        if name == "diverging":
            assert 0 < np.isnan(swept[0].states[swept[0].kept_rows][:, 0, 0]).sum() < 40

    def test_equals_one_policy_calls_above_kept_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr("kernelcc.policy.MAX_KEPT_TRAJECTORIES", 4)
        policies = sweep_policies("overlapping")
        swept = self.run(policies, trials=12)
        for policy, report in zip(policies, swept):
            assert report.states[report.kept_rows].shape == (4, HORIZON, 4)
            assert_same_report(report, self.run([policy], trials=12)[0], tmp_path)

    def test_reports_share_kept_states(self, monkeypatch):
        # four policies that draw the same elements roll out what one does;
        # a kept-trajectory copy per report would add a unit to the peak,
        # which keeping every trial makes large next to the index arrays
        monkeypatch.setattr("kernelcc.policy.MAX_KEPT_TRAJECTORIES", 1000)

        def traced_peak(policies):
            tracemalloc.start()
            try:
                reports = self.run(policies, trials=1000)
                return tracemalloc.get_traced_memory()[1], reports
            finally:
                tracemalloc.stop()

        policies = sweep_policies("identical") * 2
        one, _ = traced_peak(policies[:1])
        four, reports = traced_peak(policies)
        assert all(report.states is reports[0].states for report in reports)
        unit = reports[0].states[reports[0].kept_rows].nbytes
        assert four <= one + unit / 2

    def test_indices_follow_sample_control_on_the_trial_streams(self):
        policies = sweep_policies("overlapping")
        for policy, report in zip(policies, self.run(policies)):
            for t, index in enumerate(report.indices):
                rng = np.random.default_rng(np.random.SeedSequence((8, t)))
                assert sample_control(policy, rng)[0] == index

    @pytest.mark.parametrize("name", ["overlapping", "identical"])
    def test_draws_each_trial_once_and_rolls_out_distinct_pairs(
        self, monkeypatch, name
    ):
        import kernelcc.policy as policy_module

        model = PlanarQuadrotor()
        draws, drawn, rollouts = [], [], []
        draw_streams = policy_module.draw_streams

        def spy_draw_streams(*a):
            draws.append(a)
            drawn.append(draw_streams(*a))
            return drawn[-1]

        monkeypatch.setattr(policy_module, "draw_streams", spy_draw_streams)
        rollout = policy_module.rollout
        monkeypatch.setattr(
            policy_module,
            "rollout",
            lambda *a: rollouts.append(len(a[1])) or rollout(*a),
        )
        policies = sweep_policies(name)
        reports = run_monte_carlo(
            policies, model, near_origin_scenario(), np.zeros(4), 30, 8
        )
        pairs = {(t, int(i)) for r in reports for t, i in enumerate(r.indices)}
        # one draw of the 30 trial streams, each stream's draws those of
        # its own generator
        assert [a[:2] for a in draws] == [(8, 30)]
        for array, reference in zip(drawn[0], stream_draws(*draws[0])):
            np.testing.assert_array_equal(array, reference)
        assert rollouts == [len(pairs)]
        if name == "identical":
            assert rollouts == [30]

    def test_rejects_policies_of_different_libraries(self):
        policies = [make_policy([1.0, 0.0]), make_policy([0.0, 1.0])]
        with pytest.raises(ValueError, match="share one library"):
            self.run(policies)

    def test_rejects_no_policy(self):
        with pytest.raises(ValueError, match="at least one policy"):
            self.run([])
