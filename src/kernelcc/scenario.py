"""Control task definition: goal set, time-indexed polytopic obstacles, costs.

A trajectory of horizon N is feasible when its final position lies in the
closed goal ball and its position at every obstacle-active step lies strictly
outside every active obstacle polytope. Obstacle polytopes are closed, so
boundary contact counts as a collision; goal membership is closed, so boundary
contact counts as reaching the goal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .serialize import integer

# the state coordinates that hold the position: (px, vx, py, vy)
POSITION_INDICES = [0, 2]


@dataclass(frozen=True)
class GoalSet:
    """Closed ball over the position coordinates of the state."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.shape != (2,) or not np.all(np.isfinite(center)):
            raise ValueError("goal center must be a finite 2-vector")
        if not (self.radius > 0):
            raise ValueError(f"goal radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", center)

    def contains(self, positions) -> np.ndarray:
        """Closed membership of each position, shape (..., 2) -> (...)."""
        p = np.asarray(positions, dtype=float)
        return np.linalg.norm(p - self.center, axis=-1) <= self.radius


@dataclass(frozen=True)
class Obstacle:
    """Closed convex polytope {p : normals @ p <= offsets} on position coords.

    ``active_steps`` is an inclusive (first, last) range of 1-based step
    indices at which the obstacle must be avoided.
    """

    normals: np.ndarray
    offsets: np.ndarray
    active_steps: tuple[int, int]

    def __post_init__(self):
        normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        offsets = np.asarray(self.offsets, dtype=float).ravel()
        if normals.shape[1] != 2 or normals.shape[0] < 3:
            raise ValueError("obstacle needs at least 3 halfspaces over 2-d positions")
        if offsets.shape[0] != normals.shape[0]:
            raise ValueError("one offset per halfspace required")
        if not (np.all(np.isfinite(normals)) and np.all(np.isfinite(offsets))):
            raise ValueError("non-finite obstacle geometry")
        first, last = (integer(step, "active step") for step in self.active_steps)
        if not (1 <= first <= last):
            raise ValueError(f"invalid active step range {self.active_steps}")
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "active_steps", (first, last))

    @staticmethod
    def rectangle(xmin, xmax, ymin, ymax, active_steps) -> "Obstacle":
        """Axis-aligned rectangular obstacle [xmin, xmax] x [ymin, ymax]."""
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("rectangle bounds must be ordered")
        normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        offsets = np.array([xmax, -xmin, ymax, -ymin], dtype=float)
        return Obstacle(normals, offsets, active_steps)

    def contains(self, positions) -> np.ndarray:
        """Closed membership of each position, shape (..., 2) -> (...): True
        when every halfspace inequality holds."""
        p = np.asarray(positions, dtype=float)
        return np.all(p @ self.normals.T <= self.offsets, axis=-1)


@dataclass(frozen=True)
class CostSpec:
    """Stage cost definition.

    ``state_weights`` weights the squared distance to the goal center per step
    (1-based steps 1..N); None means terminal-only (weight 1 on step N).
    ``control_weight`` multiplies the summed squared control norms.
    """

    state_weights: np.ndarray | None = None
    control_weight: float = 0.1

    def __post_init__(self):
        if self.control_weight < 0:
            raise ValueError("control weight must be nonnegative")
        if self.state_weights is not None:
            w = np.asarray(self.state_weights, dtype=float)
            if w.ndim != 1 or np.any(w < 0) or not np.all(np.isfinite(w)):
                raise ValueError("state weights must be finite and nonnegative")
            object.__setattr__(self, "state_weights", w)

    def resolved_state_weights(self, horizon: int) -> np.ndarray:
        if self.state_weights is None:
            w = np.zeros(horizon)
            w[-1] = 1.0
            return w
        if self.state_weights.shape[0] != horizon:
            raise ValueError(
                f"state weights have length {self.state_weights.shape[0]}, "
                f"horizon is {horizon}"
            )
        return self.state_weights


@dataclass(frozen=True)
class Scenario:
    """Complete task: horizon, risk budget, goal, obstacles, costs."""

    horizon: int
    delta: float
    goal: GoalSet
    obstacles: tuple[Obstacle, ...] = ()
    costs: CostSpec = field(default_factory=CostSpec)

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"risk budget must lie in (0,1), got {self.delta}")
        # a length that does not match the horizon raises here, not in a
        # later cost evaluation
        self.costs.resolved_state_weights(self.horizon)
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        for obs in self.obstacles:
            first, last = obs.active_steps
            if last > self.horizon - 1:
                raise ValueError(
                    f"obstacle active through step {last} but horizon-1 is "
                    f"{self.horizon - 1}"
                )


def _check_stack(sc: Scenario, stack, what: str) -> np.ndarray:
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != sc.horizon:
        raise ValueError(
            f"expected {what} of shape (M, {sc.horizon}, .), got {stack.shape}"
        )
    return stack


def indicator_T(sc: Scenario, trajs) -> np.ndarray:
    """1.0 for each trajectory that satisfies every constraint, else 0.0.

    ``trajs`` has shape (M, N, n); the rows of a trajectory are the states
    after each step (x_1, ..., x_N).
    """
    trajs = _check_stack(sc, trajs, "trajectories")
    pos = trajs[:, :, POSITION_INDICES]
    ok = sc.goal.contains(pos[:, -1, :])
    for obs in sc.obstacles:
        first, last = obs.active_steps
        # rows are 1-based steps: step t is row t-1
        ok &= ~np.any(obs.contains(pos[:, first - 1 : last, :]), axis=1)
    return ok.astype(float)


def state_cost(sc: Scenario, trajs) -> np.ndarray:
    """Weighted squared distance of positions to the goal center, per trajectory."""
    trajs = _check_stack(sc, trajs, "trajectories")
    pos = trajs[:, :, POSITION_INDICES]
    w = sc.costs.resolved_state_weights(sc.horizon)
    return np.sum(w[None, :] * np.sum((pos - sc.goal.center) ** 2, axis=2), axis=1)


def control_cost(sc: Scenario, control_stack) -> np.ndarray:
    """Quadratic control effort per sequence: weight times the summed squared norms."""
    u = _check_stack(sc, control_stack, "control sequences")
    return sc.costs.control_weight * np.sum(u * u, axis=(1, 2))
