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
    deterministic tests); the draw still consumes exactly one uniform so
    random streams stay aligned across configurations.
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

    def draw(self, rng: np.random.Generator) -> float:
        # Inverse-transform sampling: one uniform per draw, always.
        u = rng.random()
        if self.scale == 0.0:
            return self.offset
        return self.offset + self.scale * float(betaincinv(self.shape_a, self.shape_b, u))

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


def sample_params(prior: ParamPrior, rng: np.random.Generator) -> QuadrotorParams:
    """Draw quadrotor parameters from the prior (mass first, then drag)."""
    return QuadrotorParams(mass=prior.mass.draw(rng), drag=prior.drag.draw(rng))


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

    def draw_realization(
        self, rng: np.random.Generator, horizon: int
    ) -> tuple[tuple[float, float], np.ndarray]:
        """One trajectory's randomness: its (mass, drag), then the disturbance
        of each of its ``horizon`` steps, drawn from ``rng`` in that order."""
        params = sample_params(self.prior, rng)
        # Scaling by a zero std still consumes the same number of draws,
        # so noiseless and noisy configurations share random streams.
        std = self.disturbance.per_step_std
        noise = std * rng.standard_normal((horizon, std.shape[0]))
        return (params.mass, params.drag), noise


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
