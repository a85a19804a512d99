"""Tests for goal/obstacle geometry, trajectory indicator, and costs."""

import math

import numpy as np
import pytest

from kernelcc.scenario import (
    CostSpec,
    GoalSet,
    Obstacle,
    Scenario,
    control_cost,
    indicator_T,
    state_cost,
)


def make_scenario(n=5, obstacles=(), costs=None):
    return Scenario(
        horizon=n,
        delta=0.1,
        goal=GoalSet(center=np.array([10.0, 10.0]), radius=2.5),
        obstacles=obstacles,
        costs=costs if costs is not None else CostSpec(),
    )


def straight_traj(n, end_xy, start_xy=(0.0, 0.0)):
    """N states interpolating positions from start to end, zero velocities."""
    xs = np.linspace(start_xy[0], end_xy[0], n)
    ys = np.linspace(start_xy[1], end_xy[1], n)
    traj = np.zeros((n, 4))
    traj[:, 0] = xs
    traj[:, 2] = ys
    return traj


def indicator_loop(sc, traj):
    """Plain-loop reference indicator of one trajectory."""
    i, j = sc.goal.position_indices
    dx = traj[-1, i] - sc.goal.center[0]
    dy = traj[-1, j] - sc.goal.center[1]
    if math.sqrt(dx * dx + dy * dy) > sc.goal.radius:
        return 0.0
    for obs in sc.obstacles:
        first, last = obs.active_steps
        for t in range(first, last + 1):
            px, py = traj[t - 1, i], traj[t - 1, j]
            if all(
                a * px + b * py <= c for (a, b), c in zip(obs.normals, obs.offsets)
            ):
                return 0.0
    return 1.0


def state_cost_loop(sc, traj):
    """Plain-loop reference state cost of one trajectory."""
    i, j = sc.goal.position_indices
    cx, cy = sc.goal.center
    weights = sc.costs.resolved_state_weights(sc.horizon)
    total = 0.0
    for t in range(sc.horizon):
        total += weights[t] * ((traj[t, i] - cx) ** 2 + (traj[t, j] - cy) ** 2)
    return total


class TestGoalSet:
    def test_closed_membership(self):
        goal = GoalSet(center=np.array([0.0, 0.0]), radius=1.0)
        assert goal.contains([1.0, 0.0])
        assert goal.contains([0.5, 0.5])
        assert not goal.contains([1.0, 0.1])

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            GoalSet(center=np.zeros(2), radius=0.0)


class TestObstacle:
    def test_rectangle_membership_closed(self):
        box = Obstacle.rectangle(0.0, 1.0, 0.0, 2.0, active_steps=(1, 3))
        assert box.contains([0.5, 1.0])
        assert box.contains([1.0, 2.0])  # boundary counts as inside
        assert not box.contains([1.1, 1.0])

    def test_needs_three_halfspaces(self):
        with pytest.raises(ValueError):
            Obstacle(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]), (1, 2))

    def test_active_range_ordered(self):
        with pytest.raises(ValueError):
            Obstacle.rectangle(0, 1, 0, 1, active_steps=(3, 2))

    def test_triangle(self):
        # x >= 0, y >= 0, x + y <= 1
        tri = Obstacle(
            np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
            np.array([0.0, 0.0, 1.0]),
            (1, 1),
        )
        assert tri.contains([0.2, 0.2])
        assert not tri.contains([0.8, 0.8])


class TestScenario:
    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            Scenario(horizon=5, delta=0.0, goal=GoalSet(np.zeros(2), 1.0))
        with pytest.raises(ValueError):
            Scenario(horizon=5, delta=1.0, goal=GoalSet(np.zeros(2), 1.0))

    def test_obstacle_active_range_must_fit_horizon(self):
        box = Obstacle.rectangle(0, 1, 0, 1, active_steps=(1, 5))
        with pytest.raises(ValueError):
            make_scenario(n=5, obstacles=(box,))


class TestIndicator:
    def test_goal_reached(self):
        sc = make_scenario()
        assert indicator_T(sc, [straight_traj(5, (10.0, 10.0))])[0] == 1

    def test_goal_missed(self):
        sc = make_scenario()
        assert indicator_T(sc, [straight_traj(5, (0.0, 0.0))])[0] == 0

    def test_goal_boundary_counts(self):
        sc = make_scenario()
        assert indicator_T(sc, [straight_traj(5, (10.0, 12.5))])[0] == 1
        assert indicator_T(sc, [straight_traj(5, (10.0, 12.5 + 1e-9))])[0] == 0

    def test_obstacle_contact_fails(self):
        box = Obstacle.rectangle(4.0, 6.0, 4.0, 6.0, active_steps=(1, 4))
        sc = make_scenario(n=5, obstacles=(box,))
        # the straight diagonal passes through the box
        assert indicator_T(sc, [straight_traj(5, (10.0, 10.0))])[0] == 0

    def test_obstacle_inactive_step_ignored(self):
        box = Obstacle.rectangle(4.0, 6.0, 4.0, 6.0, active_steps=(1, 1))
        sc = make_scenario(n=5, obstacles=(box,))
        # diagonal positions: (2,2), (4,4), (6,6), (8,8), (10,10); step 1 is (2,2)
        assert indicator_T(sc, [straight_traj(5, (10.0, 10.0))])[0] == 1

    def test_velocity_invariance(self):
        sc = make_scenario()
        traj = straight_traj(5, (10.0, 10.0))
        noisy = traj.copy()
        noisy[:, 1] = 100.0
        noisy[:, 3] = -50.0
        assert indicator_T(sc, [traj])[0] == indicator_T(sc, [noisy])[0]

    def test_removing_obstacle_monotone(self):
        box = Obstacle.rectangle(4.0, 6.0, 4.0, 6.0, active_steps=(1, 4))
        with_box = make_scenario(n=5, obstacles=(box,))
        without = make_scenario(n=5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            traj = rng.uniform(-1, 12, size=(5, 4))
            assert indicator_T(without, [traj])[0] >= indicator_T(with_box, [traj])[0]

    def test_length_mismatch(self):
        sc = make_scenario(n=5)
        with pytest.raises(ValueError):
            indicator_T(sc, np.zeros((1, 4, 4)))

    def test_vectorized_matches_scalar(self):
        box = Obstacle.rectangle(3.0, 7.0, 2.0, 8.0, active_steps=(2, 4))
        sc = make_scenario(n=5, obstacles=(box,))
        rng = np.random.default_rng(1)
        trajs = rng.uniform(-2, 13, size=(200, 5, 4))
        batch = indicator_T(sc, trajs)
        scalar = np.array([indicator_loop(sc, t) for t in trajs])
        np.testing.assert_array_equal(batch, scalar)


class TestCosts:
    def test_at_goal_center_zero(self):
        sc = make_scenario()
        traj = straight_traj(5, (10.0, 10.0), start_xy=(10.0, 10.0))
        assert state_cost(sc, [traj])[0] == 0.0

    def test_terminal_only_default(self):
        sc = make_scenario()
        traj = straight_traj(5, (10.0, 7.0))  # terminal distance 3
        assert state_cost(sc, [traj])[0] == pytest.approx(9.0, rel=1e-12)

    def test_uniform_weights(self):
        costs = CostSpec(state_weights=np.ones(5))
        sc = make_scenario(costs=costs)
        traj = straight_traj(5, (10.0, 10.0), start_xy=(10.0, 10.0))
        traj[0, 0] = 13.0  # one step displaced by 3 in x
        assert state_cost(sc, [traj])[0] == pytest.approx(9.0, rel=1e-12)

    def test_zero_controls(self):
        sc = make_scenario()
        assert control_cost(sc, np.zeros((1, 5, 2)))[0] == 0.0

    def test_single_step_norm(self):
        sc = make_scenario(costs=CostSpec(control_weight=1.0))
        u = np.zeros((5, 2))
        u[2] = [2.0, 0.0]
        assert control_cost(sc, [u])[0] == pytest.approx(4.0, rel=1e-14)

    def test_effort_weight(self):
        sc = make_scenario()  # default weight 0.1
        u = np.ones((5, 2))
        assert control_cost(sc, [u])[0] == pytest.approx(0.1 * 10.0, rel=1e-12)

    def test_vectorized_state_cost(self):
        sc = make_scenario(costs=CostSpec(state_weights=np.arange(5.0)))
        rng = np.random.default_rng(2)
        trajs = rng.normal(size=(50, 5, 4))
        batch = state_cost(sc, trajs)
        scalar = np.array([state_cost_loop(sc, t) for t in trajs])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)

    def test_weight_length_checked(self):
        costs = CostSpec(state_weights=np.ones(3))
        sc = make_scenario(n=5, costs=costs)
        with pytest.raises(ValueError):
            state_cost(sc, np.zeros((1, 5, 4)))
