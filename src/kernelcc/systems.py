"""Ground-truth stochastic system models and trajectory rollout.

The planar quadrotor has state ``[px, vx, py, vy]`` and control ``[ux, uy]``.
One step is ``x' = A x + B(params) u + d(x, params) + w`` where ``B`` scales
by 1/mass and ``d`` is a quadratic velocity drag. The uncertain parameters are
drawn once per trajectory, which correlates the increments of the whole
trajectory (the process is not Markovian in the state alone).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv


@dataclass(frozen=True)
class QuadrotorParams:
    """Uncertain physical parameters: mass (kg) and dimensionless drag coefficient."""

    mass: float
    drag: float

    def __post_init__(self):
        if not (self.mass > 0):
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.drag < 0:
            raise ValueError(f"drag must be nonnegative, got {self.drag}")


@dataclass(frozen=True)
class BetaSpec:
    """Shifted/scaled Beta distribution: offset + scale * Beta(shape_a, shape_b).

    ``scale == 0`` degenerates to a point mass at ``offset`` (used for
    deterministic tests). A draw is the quantile of one uniform, whatever the
    scale, so random streams stay aligned across configurations.
    """

    shape_a: float
    shape_b: float
    offset: float
    scale: float

    def __post_init__(self):
        if self.shape_a <= 0 or self.shape_b <= 0:
            raise ValueError("Beta shape parameters must be positive")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")

    def quantile(self, u) -> np.ndarray:
        """The quantile of each uniform in ``u``: inverse-transform sampling."""
        u = np.asarray(u, dtype=float)
        if self.scale == 0.0:
            return np.full(u.shape, self.offset)
        return self.offset + self.scale * betaincinv(self.shape_a, self.shape_b, u)

    @property
    def mean(self) -> float:
        return self.offset + self.scale * self.shape_a / (self.shape_a + self.shape_b)


@dataclass(frozen=True)
class ParamPrior:
    """Independent priors for the quadrotor parameters."""

    mass: BetaSpec = field(default_factory=lambda: BetaSpec(2.0, 2.0, 0.75, 0.5))
    drag: BetaSpec = field(default_factory=lambda: BetaSpec(2.0, 5.0, 0.4, 0.2))

    @staticmethod
    def point(mass: float, drag: float) -> "ParamPrior":
        """Degenerate prior concentrated at one parameter value."""
        return ParamPrior(
            mass=BetaSpec(2.0, 2.0, mass, 0.0),
            drag=BetaSpec(2.0, 5.0, drag, 0.0),
        )

    def quantile(self, u) -> np.ndarray:
        """(K, 2) rows of (mass, drag) from (K, 2) rows of uniforms."""
        u = np.asarray(u, dtype=float)
        return np.stack(
            [self.mass.quantile(u[:, 0]), self.drag.quantile(u[:, 1])], axis=1
        )


def draw_streams(seed: int, count: int, pieces) -> list[np.ndarray]:
    """What each of the random streams (seed, 0), ..., (seed, count - 1) draws.

    ``pieces`` lists a stream's draws in order, each a ("uniform", shape) of
    uniforms on [0, 1) or a ("normal", shape) of standard normals, with
    ``shape`` at least one-dimensional. Returns one (count, *shape) array per
    piece; row i holds stream i's draws, so a stream's values never depend
    on how many streams are drawn.
    """
    arrays = [np.empty((count, *shape)) for _, shape in pieces]
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        for (kind, _), array in zip(pieces, arrays):
            if kind == "uniform":
                rng.random(out=array[i])
            else:
                rng.standard_normal(out=array[i])
    return arrays


@dataclass(frozen=True)
class DisturbanceSpec:
    """Per-step additive Gaussian disturbance, one std per state coordinate."""

    per_step_std: np.ndarray

    def __post_init__(self):
        std = np.asarray(self.per_step_std, dtype=float)
        if std.ndim != 1 or not np.all(np.isfinite(std)) or np.any(std < 0):
            raise ValueError("per_step_std must be a 1-d array of finite nonnegative reals")
        object.__setattr__(self, "per_step_std", std)

    @staticmethod
    def zero(state_dim: int) -> "DisturbanceSpec":
        return DisturbanceSpec(np.zeros(state_dim))

    @staticmethod
    def default() -> "DisturbanceSpec":
        """Mild turbulence: smaller std on positions, larger on velocities."""
        return DisturbanceSpec(np.array([0.001, 0.01, 0.001, 0.01]))


def quadrotor_step(x, u, w, params, dt: float = 0.1) -> np.ndarray:
    """One step of the planar quadrotor with quadratic velocity drag.

    State order is [px, vx, py, vy]. Positions integrate velocity plus half a
    step of the applied acceleration; velocities get dt times the applied
    acceleration. Drag contributes -drag * |v| * v to the acceleration on each
    axis (and the matching half-step term on positions).

    Steps a batch of K states at once: ``x`` (K, 4), ``u`` (K, 2), ``w``
    (K, 4) and ``params`` (K, 2) of (mass, drag) rows; without the leading
    axis it steps one state.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    params = np.asarray(params, dtype=float)
    lead = x.shape[:-1]
    if (x.shape, u.shape, w.shape, params.shape) != (
        lead + (4,), lead + (2,), lead + (4,), lead + (2,)
    ):
        raise ValueError(
            f"expected shapes (..., 4), (..., 2), (..., 4), (..., 2) with one "
            f"leading shape; got {x.shape}, {u.shape}, {w.shape}, {params.shape}"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u)) and np.all(np.isfinite(w))):
        raise ValueError("non-finite values in step inputs")

    px, vx, py, vy = np.moveaxis(x, -1, 0)
    mass, drag = np.moveaxis(params, -1, 0)
    ax = u[..., 0] / mass - drag * np.abs(vx) * vx
    ay = u[..., 1] / mass - drag * np.abs(vy) * vy
    return np.stack(
        [
            px + dt * vx + 0.5 * dt * dt * ax + w[..., 0],
            vx + dt * ax + w[..., 1],
            py + dt * vy + 0.5 * dt * dt * ay + w[..., 2],
            vy + dt * ay + w[..., 3],
        ],
        axis=-1,
    )


class PlanarQuadrotor:
    """The uncertain planar quadrotor benchmark system."""

    state_dim = 4
    control_dim = 2

    def __init__(
        self,
        dt: float = 0.1,
        prior: ParamPrior | None = None,
        disturbance: DisturbanceSpec | None = None,
    ):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = float(dt)
        self.prior = prior if prior is not None else ParamPrior()
        self.disturbance = (
            disturbance if disturbance is not None else DisturbanceSpec.default()
        )
        if self.disturbance.per_step_std.shape != (4,):
            raise ValueError("disturbance must have 4 coordinates")

    def mean_params(self) -> QuadrotorParams:
        """Parameters at the prior means, for deterministic nominal simulation."""
        return QuadrotorParams(mass=self.prior.mass.mean, drag=self.prior.drag.mean)

    def realization_pieces(self, horizon: int) -> list:
        """The ``draw_streams`` pieces of one trajectory's randomness: a
        uniform each for mass and drag, then a standard normal per step of
        ``horizon`` and state coordinate, in that order."""
        return [("uniform", (2,)), ("normal", (horizon, self.state_dim))]

    def realizations(self, uniforms, normals) -> tuple[np.ndarray, np.ndarray]:
        """The (K, 2) (mass, drag) rows and (K, N, 4) disturbances of K
        trajectories, from the draws ``realization_pieces`` lists."""
        # Scaling by a zero std still consumes the same number of draws,
        # so noiseless and noisy configurations share random streams.
        return self.prior.quantile(uniforms), self.disturbance.per_step_std * normals


def rollout(
    model: PlanarQuadrotor,
    x0,
    leading,
    params,
    noise,
    gain=None,
    target=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate K trajectories in lockstep.

    Step t applies ``leading[:, t]`` while t < L and the feedback law
    ``gain @ (x - target)`` after that, so leading controls that cover the
    whole horizon replay an open-loop sequence. Each trajectory keeps its own
    parameters and disturbances, drawn by the caller.

    Parameters
    ----------
    x0 : (K, 4) initial states.
    leading : (K, L, 2) controls of the first L steps.
    params : (K, 2) per-trajectory (mass, drag).
    noise : (K, N, 4) additive disturbance of each step; N is the horizon.
    gain, target : (2, 4) and (4,) feedback law, needed when L < N.

    Returns
    -------
    controls : (K, N, 2) applied controls.
    states : (K, N, 4) states after each step, (x_1, ..., x_N).
    diverged : (K,) 1-based step at which a trajectory's state first became
        non-finite, 0 if it never did. A diverged trajectory is not stepped
        further; its later controls and states are NaN.
    """
    x = np.array(x0, dtype=float)
    leading = np.asarray(leading, dtype=float)
    params = np.asarray(params, dtype=float)
    noise = np.asarray(noise, dtype=float)
    k_count, horizon = noise.shape[:2]
    if (
        leading.ndim != 3
        or leading.shape[0] != k_count
        or leading.shape[2] != model.control_dim
        or leading.shape[1] > horizon
    ):
        raise ValueError(
            f"leading controls must have shape ({k_count}, L <= {horizon}, "
            f"{model.control_dim}), got {leading.shape}"
        )
    n_lead = leading.shape[1]
    if n_lead < horizon and (gain is None or target is None):
        raise ValueError("a feedback gain and target are needed after the leading steps")
    controls = np.full((k_count, horizon, model.control_dim), np.nan)
    controls[:, :n_lead] = leading
    states = np.full((k_count, horizon, model.state_dim), np.nan)
    diverged = np.zeros(k_count, dtype=int)
    rows = np.arange(k_count)
    for t in range(horizon):
        if t >= n_lead:
            controls[rows, t] = (x[rows] - target) @ np.asarray(gain).T
        step = quadrotor_step(
            x[rows], controls[rows, t], noise[rows, t], params[rows], model.dt
        )
        x[rows] = step
        states[rows, t] = step
        bad = ~np.all(np.isfinite(step), axis=1)
        if np.any(bad):
            diverged[rows[bad]] = t + 1
            rows = rows[~bad]
    return controls, states, diverged
