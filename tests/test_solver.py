"""Tests for LP assembly and the exact simplex-constrained solver."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from kernelcc import solver
from kernelcc.data import ControlLibrary, Dataset
from kernelcc.embedding import cross_matrix, fit
from kernelcc.kernels import KernelSpec, spd_solve
from kernelcc.scenario import (
    CostSpec,
    GoalSet,
    Scenario,
    control_cost,
    indicator_T,
    state_cost,
)
from kernelcc.solver import (
    LPInstance,
    SafetyDiagnostics,
    assemble,
    safety_diagnostics,
    solve_lp,
)
from reference import brute_oracle

UNIT = KernelSpec(bandwidth=1.0)


def make_instance(cost, safety, delta):
    return LPInstance(cost_row=cost, safety_row=safety, threshold=1.0 - delta)


def random_instance(rng, max_p=50):
    """Random LP data including safety values outside [0, 1] and tied costs."""
    p = int(rng.integers(1, max_p + 1))
    cost = np.round(rng.uniform(0, 10, size=p), 2)  # rounding forces ties
    safety = rng.uniform(-0.2, 1.2, size=p)
    delta = float(rng.uniform(0.02, 0.6))
    return make_instance(cost, safety, delta)


def check_result_invariants(result, inst):
    assert result.status == "optimal"
    assert np.all(result.weights >= 0.0)
    assert abs(result.weights.sum() - 1.0) <= 1e-9
    assert len(result.support) <= 2
    assert inst.safety_row @ result.weights >= inst.threshold - 1e-9
    assert result.objective == pytest.approx(
        inst.cost_row @ result.weights, abs=1e-12
    )


class TestSolveLp:
    def test_boundary_mixture(self):
        # mixing the cheap unsafe option with the safe one hits the threshold
        inst = make_instance([1.0, 2.0], [0.5, 1.0], delta=0.2)
        result = solve_lp(inst)
        np.testing.assert_allclose(result.weights, [0.4, 0.6], atol=1e-12)
        assert result.objective == pytest.approx(1.6, abs=1e-12)
        assert result.support == (0, 1)

    def test_pure_feasible_wins(self):
        inst = make_instance([1.0, 2.0], [0.9, 1.0], delta=0.2)
        result = solve_lp(inst)
        np.testing.assert_allclose(result.weights, [1.0, 0.0], atol=1e-15)
        assert result.objective == pytest.approx(1.0)
        assert result.support == (0,)

    @pytest.mark.parametrize(
        "cost, safety, message",
        [
            ([1.0, 2.0, np.nan], [0.5, 1.0, 1.0], "cost row .* nan at index 2"),
            ([1.0, np.inf, 3.0], [0.5, 1.0, 1.0], "cost row .* inf at index 1"),
            ([1.0, 2.0, 3.0], [np.nan, 1.0, -np.inf], "safety row .* nan at index 0"),
        ],
    )
    def test_non_finite_rows_rejected(self, cost, safety, message):
        with pytest.raises(ValueError, match=message):
            make_instance(cost, safety, delta=0.2)

    def test_infeasible(self):
        inst = make_instance([1.0], [0.5], delta=0.1)
        result = solve_lp(inst)
        assert result.status == "infeasible"
        assert result.objective is None
        assert result.support == ()

    def test_single_feasible_sequence(self):
        inst = make_instance([3.0], [0.95], delta=0.1)
        result = solve_lp(inst)
        np.testing.assert_array_equal(result.weights, [1.0])

    def test_threshold_at_min_safety(self):
        # cheapest vertex is feasible when the threshold sits at min(a)
        inst = make_instance([5.0, 1.0, 2.0], [0.8, 0.8, 0.9], delta=0.2)
        result = solve_lp(inst)
        assert result.support == (1,)
        assert result.objective == pytest.approx(1.0)

    def test_tie_prefers_smallest_support(self):
        inst = make_instance([2.0, 2.0, 2.0], [0.9, 0.95, 0.99], delta=0.1)
        result = solve_lp(inst)
        assert result.support == (0,)

    def test_pair_tied_with_pure_optimum_prefers_smaller_support(self):
        # the pure optimum (index 2) lies on the line through 0 and 1
        inst = LPInstance(
            cost_row=[1.0, 3.0, 2.0], safety_row=[0.5, 1.0, 0.75], threshold=0.75
        )
        result = solve_lp(inst)
        assert result.support == (0, 1)
        assert result.objective == 2.0

    @pytest.mark.filterwarnings("error")
    def test_no_warning_for_honest_satisfaction(self):
        solve_lp(make_instance([1.0, 2.0], [0.5, 0.95], delta=0.1))

    def test_warns_when_only_inflated_estimates_feasible(self):
        inst = make_instance([1.0, 2.0], [0.5, 1.07], delta=0.1)
        with pytest.warns(RuntimeWarning, match="above 1"):
            result = solve_lp(inst)
        check_result_invariants(result, inst)

    def test_with_threshold_reuses_rows(self):
        inst = make_instance([1.0, 2.0], [0.5, 1.0], delta=0.2)
        swapped = dataclasses.replace(inst, threshold=0.5)
        assert swapped.threshold == 0.5
        np.testing.assert_array_equal(swapped.cost_row, inst.cost_row)
        assert swapped.diagnostics == inst.diagnostics

    def test_diagnostics_derived_from_safety_row(self):
        inst = make_instance([1.0, 2.0, 3.0], [-0.25, 0.5, 1.25], delta=0.2)
        assert inst.diagnostics == SafetyDiagnostics(
            num_below_zero=1, num_above_one=1, min_value=-0.25, max_value=1.25
        )
        # a caller cannot pass diagnostics that contradict the row
        with pytest.raises(TypeError):
            LPInstance(
                cost_row=inst.cost_row,
                safety_row=inst.safety_row,
                threshold=0.8,
                diagnostics=safety_diagnostics(np.zeros(3)),
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_objective_monotone_in_delta(self):
        rng = np.random.default_rng(17)
        inst = random_instance(rng)
        objectives = []
        for delta in (0.01, 0.05, 0.1, 0.2, 0.5):
            result = solve_lp(dataclasses.replace(inst, threshold=1.0 - delta))
            objectives.append(
                np.inf if result.status == "infeasible" else result.objective
            )
        assert all(a >= b - 1e-9 for a, b in zip(objectives, objectives[1:]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cost_scaling_preserves_support(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            inst = random_instance(rng)
            result = solve_lp(inst)
            if result.status != "optimal":
                continue
            scaled = make_instance(
                7.5 * inst.cost_row, inst.safety_row, 1.0 - inst.threshold
            )
            assert solve_lp(scaled).support == result.support


class TestOracleAgreement:
    def test_brute_oracle_rejects_large_instances(self):
        inst = make_instance(np.ones(201), np.ones(201), delta=0.1)
        with pytest.raises(ValueError):
            brute_oracle(inst)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_hundred_random_instances(self):
        rng = np.random.default_rng(2024)
        solved = 0
        for _ in range(100):
            inst = random_instance(rng)
            fast = solve_lp(inst)
            slow = brute_oracle(inst)
            assert fast.status == slow.status
            if fast.status == "infeasible":
                continue
            solved += 1
            check_result_invariants(fast, inst)
            check_result_invariants(slow, inst)
            assert fast.objective == pytest.approx(slow.objective, abs=1e-9)
        assert solved >= 50  # the sampler must actually exercise solves

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_against_general_purpose_solver(self):
        # third route: scipy's LP solver on the same data
        rng = np.random.default_rng(5)
        for _ in range(25):
            inst = random_instance(rng, max_p=20)
            mine = solve_lp(inst)
            p = inst.num_sequences
            res = linprog(
                c=inst.cost_row,
                A_ub=-inst.safety_row.reshape(1, -1),
                b_ub=[-inst.threshold],
                A_eq=np.ones((1, p)),
                b_eq=[1.0],
                bounds=[(0.0, None)] * p,
                method="highs",
            )
            if mine.status == "infeasible":
                assert not res.success
            else:
                assert res.success
                assert mine.objective == pytest.approx(res.fun, abs=1e-8)


def at_thresholds(cost, safety, thresholds):
    return [
        LPInstance(cost_row=cost, safety_row=safety, threshold=float(thr))
        for thr in thresholds
    ]


def collinear():
    # every boundary pair on the line has the same objective
    safety = np.linspace(0.05, 0.95, 19)
    order = np.random.default_rng(3).permutation(19)
    cost = 2.0 + 3.0 * safety
    return at_thresholds(cost[order], safety[order], [0.1, 0.33, 0.5, 0.9])


def duplicate_safety():
    rng = np.random.default_rng(4)
    safety = rng.choice([0.2, 0.5, 0.8, 0.9], size=40)
    cost = np.round(rng.uniform(0.0, 5.0, size=40), 1)
    return at_thresholds(cost, safety, [0.3, 0.6, 0.85, 0.9])


def all_feasible():
    rng = np.random.default_rng(5)
    return at_thresholds(rng.uniform(0, 9, 30), rng.uniform(0.8, 1.0, 30), [0.8])


def one_feasible():
    rng = np.random.default_rng(6)
    safety = rng.uniform(0.0, 0.7, 30)
    safety[17] = 0.9
    return at_thresholds(rng.uniform(0, 9, 30), safety, [0.75, 0.9])


def threshold_at_element():
    rng = np.random.default_rng(7)
    safety = rng.uniform(0.0, 1.0, 30)
    cost = 4.0 * safety + rng.uniform(0.0, 1.0, 30)
    return at_thresholds(cost, safety, np.sort(safety)[[3, 12, 25]])


def infeasible_at_pure_cost():
    # index 0 is infeasible and costs exactly as much as the pure optimum
    safety = np.array([0.3, 0.9, 0.95, 0.5, 0.85])
    with_cheaper = at_thresholds(np.array([2.0, 2.0, 3.0, 1.0, 2.5]), safety, [0.8])
    alone = at_thresholds(np.array([2.0, 2.0, 3.0, 4.0, 2.5]), safety, [0.8])
    return with_cheaper + alone


def two_convex_arcs():
    # points on a circle: every one is a vertex of the hull
    angle = np.random.default_rng(8).uniform(0.0, 2.0 * np.pi, 60)
    safety = 0.5 + 0.45 * np.cos(angle)
    cost = 5.0 + 4.0 * np.sin(angle)
    return at_thresholds(cost, safety, [0.1, 0.4, 0.6, 0.9])


DEGENERATE = [
    collinear,
    duplicate_safety,
    all_feasible,
    one_feasible,
    threshold_at_element,
    infeasible_at_pure_cost,
    two_convex_arcs,
]


class TestDegenerateInstances:
    @pytest.mark.parametrize("build", DEGENERATE, ids=lambda f: f.__name__)
    def test_matches_brute_oracle(self, build):
        for inst in build():
            fast, slow = solve_lp(inst), brute_oracle(inst)
            check_result_invariants(fast, inst)
            check_result_invariants(slow, inst)
            assert fast.objective == pytest.approx(slow.objective, abs=1e-12)

    def test_equal_cost_infeasible_is_not_mixed(self):
        # mixing in an infeasible element no cheaper than the pure optimum
        # gains nothing, so the pure optimum is kept
        _, alone = infeasible_at_pure_cost()
        result = solve_lp(alone)
        assert result.support == (1,)
        assert result.objective == 2.0

    def test_peak_memory_linear_in_p(self):
        # half of P=4000 feasible: a pair matrix would take 2000 x 2000 floats
        rng = np.random.default_rng(9)
        safety = rng.uniform(0.0, 1.0, 4000)
        cost = 10.0 * safety + rng.normal(0.0, 1.0, 4000)
        inst = LPInstance(
            cost_row=cost, safety_row=safety, threshold=float(np.median(safety))
        )
        tracemalloc.start()
        try:
            result = solve_lp(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.support) == 2
        assert peak < 4e6


class TestAssemble:
    def make_fixture(self, horizon=4):
        rng = np.random.default_rng(31)
        m = 12
        x0 = rng.normal(size=(m, 4))
        u = rng.uniform(0, 1, size=(m, horizon, 2))
        traj = rng.normal(loc=5.0, scale=4.0, size=(m, horizon, 4))
        ds = Dataset(x0, u, traj, master_seed=0, config_digest="fixture")
        model = fit(ds, UNIT, UNIT, lam=1e-4)
        lib = ControlLibrary(rng.uniform(0, 1, size=(6, horizon, 2)), 0, "lib")
        sc = Scenario(
            horizon=horizon,
            delta=0.2,
            goal=GoalSet(center=np.array([5.0, 5.0]), radius=3.0),
        )
        return ds, model, lib, sc

    def test_shapes_and_threshold(self):
        _, model, lib, sc = self.make_fixture()
        inst = assemble(model, sc, lib, np.zeros(4))
        assert inst.cost_row.shape == (6,)
        assert inst.safety_row.shape == (6,)
        assert inst.threshold == pytest.approx(0.8)

    def test_all_samples_infeasible_gives_zero_safety(self):
        ds, model, lib, _ = self.make_fixture()
        sc = Scenario(
            horizon=4,
            delta=0.2,
            goal=GoalSet(center=np.array([1e6, 1e6]), radius=1.0),
        )
        inst = assemble(model, sc, lib, np.zeros(4))
        np.testing.assert_allclose(inst.safety_row, 0.0, atol=1e-15)

    def test_zero_state_weight_leaves_control_cost(self):
        ds, model, lib, _ = self.make_fixture()
        sc = Scenario(
            horizon=4,
            delta=0.2,
            goal=GoalSet(center=np.array([5.0, 5.0]), radius=3.0),
            costs=CostSpec(state_weights=np.zeros(4), control_weight=0.1),
        )
        inst = assemble(model, sc, lib, np.zeros(4))
        expected = 0.1 * np.sum(lib.sequences**2, axis=(1, 2))
        np.testing.assert_allclose(inst.cost_row, expected, atol=1e-12)

    def test_training_pair_recovers_indicator(self):
        # identity-like Gram limit: at a training query the safety estimate
        # approaches that sample's own indicator value
        rng = np.random.default_rng(40)
        m, horizon = 3, 4
        x0 = 30.0 * np.eye(4)[:m] + rng.normal(scale=0.1, size=(m, 4))
        u = rng.uniform(0, 1, size=(m, horizon, 2))
        traj = np.zeros((m, horizon, 4))
        traj[0, -1, 0] = traj[0, -1, 2] = 5.0  # only sample 0 ends in the goal
        ds = Dataset(x0, u, traj, master_seed=0, config_digest="t")
        narrow = KernelSpec(bandwidth=3.0)
        model = fit(ds, narrow, narrow, lam=1e-9)
        sc = Scenario(
            horizon=horizon,
            delta=0.2,
            goal=GoalSet(center=np.array([5.0, 5.0]), radius=1.0),
        )
        lib = ControlLibrary(ds.controls[:1], 0, "lib")
        inst = assemble(model, sc, lib, ds.initial_states[0])
        assert inst.safety_row[0] == pytest.approx(1.0, abs=1e-3)

    def test_rows_match_column_solve_reference(self):
        # the rows are alpha^T K with alpha solved once per functional; the
        # reference solves the system against every cross-kernel column
        ds, model, lib, sc = self.make_fixture()
        x0 = np.array([0.1, -0.2, 0.3, 0.0])
        inst = assemble(model, sc, lib, x0)
        coeff = spd_solve(model.factor, cross_matrix(model, x0, lib.sequences))
        state_ref = state_cost(sc, ds.trajectories) @ coeff
        cost_ref = state_ref + control_cost(sc, lib.sequences)
        safety_ref = indicator_T(sc, ds.trajectories) @ coeff
        np.testing.assert_allclose(inst.cost_row, cost_ref, rtol=1e-12, atol=0)
        scale = np.max(np.abs(safety_ref))
        np.testing.assert_allclose(
            inst.safety_row, safety_ref, rtol=0, atol=1e-12 * scale
        )

    @pytest.mark.parametrize(
        "elements, p",
        [(48, 1), (48, 3), (48, 4), (48, 5), (50, 13), (5, 3)],
        ids=["one", "block-1", "block", "block+1", "several", "below_m"],
    )
    def test_blocks_match_unblocked_product(self, monkeypatch, elements, p):
        # M = 12, so 48 and 50 elements give blocks of 4 library columns and
        # 5 elements give blocks of one column
        ds, model, _, sc = self.make_fixture()
        monkeypatch.setattr(solver, "_CROSS_BLOCK_ELEMENTS", elements)
        lib = ControlLibrary(
            np.random.default_rng(p).uniform(0, 1, size=(p, 4, 2)), 0, "lib"
        )
        x0 = np.array([0.1, -0.2, 0.3, 0.0])
        inst = assemble(model, sc, lib, x0)
        functionals = np.column_stack(
            [state_cost(sc, ds.trajectories), indicator_T(sc, ds.trajectories)]
        )
        alpha = spd_solve(model.factor, functionals)
        state_ref, safety_ref = alpha.T @ cross_matrix(model, x0, lib.sequences)
        cost_ref = state_ref + control_cost(sc, lib.sequences)
        for row, ref in ((inst.cost_row, cost_ref), (inst.safety_row, safety_ref)):
            np.testing.assert_allclose(
                row, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref))
            )

    def test_peak_memory_a_few_blocks(self):
        # the parent's single M x P cross-kernel matrix is 32 MB here
        m, p, horizon = 200, 20000, 4
        rng = np.random.default_rng(32)
        ds = Dataset(
            rng.normal(size=(m, 4)),
            rng.uniform(0, 1, size=(m, horizon, 2)),
            rng.normal(loc=5.0, scale=4.0, size=(m, horizon, 4)),
            master_seed=0,
            config_digest="fixture",
        )
        model = fit(ds, UNIT, UNIT, lam=1e-4)
        lib = ControlLibrary(rng.uniform(0, 1, size=(p, horizon, 2)), 0, "lib")
        sc = Scenario(
            horizon=horizon,
            delta=0.2,
            goal=GoalSet(center=np.array([5.0, 5.0]), radius=3.0),
        )
        tracemalloc.start()
        try:
            inst = assemble(model, sc, lib, np.zeros(4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert inst.num_sequences == p
        assert peak <= 3 * solver._CROSS_BLOCK_ELEMENTS * 8

    def test_horizon_mismatch_rejected(self):
        _, model, lib, _ = self.make_fixture()
        sc = Scenario(
            horizon=9,
            delta=0.2,
            goal=GoalSet(center=np.array([5.0, 5.0]), radius=3.0),
        )
        with pytest.raises(ValueError):
            assemble(model, sc, lib, np.zeros(4))

    def test_diagnostics_counts(self):
        diag = safety_diagnostics(np.array([-0.1, 0.5, 1.3, 1.1]))
        assert diag.num_below_zero == 1
        assert diag.num_above_one == 2
        assert diag.min_value == pytest.approx(-0.1)
        assert diag.max_value == pytest.approx(1.3)


class TestSolveResultSerialization:
    def test_sparse_dict(self):
        inst = make_instance([1.0, 2.0], [0.5, 1.0], delta=0.2)
        d = solve_lp(inst).to_dict()
        assert d["status"] == "optimal"
        assert d["support"] == [0, 1]
        assert d["weights"][0] == [0, pytest.approx(0.4)]

    def test_infeasible_dict(self):
        inst = make_instance([1.0], [0.5], delta=0.1)
        d = solve_lp(inst).to_dict()
        assert d == {
            "status": "infeasible",
            "objective": None,
            "support": [],
            "weights": [],
        }
