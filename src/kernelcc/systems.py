"""Ground-truth stochastic system models and trajectory rollout.

The planar quadrotor has state ``[px, vx, py, vy]`` and control ``[ux, uy]``.
One step is ``x' = A x + B(params) u + d(x, params) + w`` where ``B`` scales
by 1/mass and ``d`` is a quadratic velocity drag. The uncertain parameters are
drawn once per trajectory, which correlates the increments of the whole
trajectory (the process is not Markovian in the state alone).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv


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
    """Independent priors for the quadrotor parameters: mass (kg) and a
    dimensionless drag coefficient. Every mass it can draw is positive and
    every drag nonnegative."""

    mass: BetaSpec = field(default_factory=lambda: BetaSpec(2.0, 2.0, 0.75, 0.5))
    drag: BetaSpec = field(default_factory=lambda: BetaSpec(2.0, 5.0, 0.4, 0.2))

    def __post_init__(self):
        # the support of offset + scale * Beta is [offset, offset + scale]
        if not self.mass.offset > 0:
            raise ValueError(f"mass offset must be positive, got {self.mass.offset}")
        if not self.drag.offset >= 0:
            raise ValueError(f"drag offset must be nonnegative, got {self.drag.offset}")

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


# numpy's SeedSequence hash (a pool of four 32-bit words) and PCG64 seeding;
# numpy keeps both algorithms stable, so streams seeded here are the streams
# default_rng(SeedSequence(entropy)) seeds
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays, with its own running
    constant that starts at ``init`` and steps by ``mult``; the argument is
    left as it is.

    Each step updates one array in place, so that few arrays, and few
    distinct numpy loops, are touched: their code pages count in the
    process's resident memory.
    """
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value *= np.uint32(const)
        value ^= value >> np.uint32(16)
        return value

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> None:
    """SeedSequence's mix of the uint32 array y into x, in place."""
    x *= np.uint32(_MIX_MULT_L)
    x -= np.uint32(_MIX_MULT_R) * y
    x ^= x >> np.uint32(16)


def _stream_seeds(seed: int, count: int) -> np.ndarray:
    """(count, 4) little-endian uint64: row i is SeedSequence((seed,
    i)).generate_state(4, np.uint64), computed for every i at once in uint32
    arithmetic.

    The entropy of (seed, i) is seed's little-endian 32-bit words, then i's
    one word (i < 2**32); each is a column here.
    """
    words = range(0, max(seed.bit_length(), 1), 32)
    entropy = [np.full(count, seed >> shift & _MASK32, np.uint32) for shift in words]
    entropy.append(np.arange(count, dtype=np.uint32))
    entropy += [np.zeros(count, np.uint32)] * (_POOL_SIZE - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                _mix(pool[dst], hashmix(pool[src]))
    # entropy longer than the pool (a seed of 2**96 or more) is mixed in last
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    # generate_state(8) words, read as little-endian pairs as numpy does
    state = np.empty((count, 8), "<u4")
    for k in range(8):
        state[:, k] = hashmix(pool[k % _POOL_SIZE])
    return state.view("<u8")


def draw_streams(seed: int, count: int, pieces) -> list[np.ndarray]:
    """What each of the random streams (seed, 0), ..., (seed, count - 1) draws.

    ``pieces`` lists a stream's draws in order, each a ("uniform", shape) of
    uniforms on [0, 1) or a ("normal", shape) of standard normals, with
    ``shape`` at least one-dimensional. Returns one (count, *shape) array per
    piece; row i holds stream i's draws, so a stream's values never depend
    on how many streams are drawn.

    Stream i is the Generator ``default_rng(SeedSequence((seed, i)))``, with
    the same bits: every stream's seed is computed in one vectorized pass,
    then loaded in turn into one reused PCG64. Adjacent pieces of one kind
    are drawn by one call into one block, whose columns the pieces view; a
    Generator keeps nothing between calls, so the values are those of one
    call per piece.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    seeds = _stream_seeds(seed, count)
    runs = [
        (kind, [shape for _, shape in run])
        for kind, run in itertools.groupby(pieces, key=lambda piece: piece[0])
    ]
    blocks = [
        np.empty((count, sum(math.prod(shape) for shape in shapes)))
        for _, shapes in runs
    ]
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    fills = [
        rng.random if kind == "uniform" else rng.standard_normal for kind, _ in runs
    ]
    pcg = {}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for i in range(count):
        # PCG64's srandom_r: the increment from the sequence word, then one
        # step from state 0, the initial state added, and one more step
        high, low, seq_high, seq_low = seeds[i].tolist()
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        start = inc + (high << 64 | low)
        pcg["state"], pcg["inc"] = (start * _PCG64_MULT + inc) & _MASK128, inc
        bit_generator.state = state
        for fill, block in zip(fills, blocks):
            fill(out=block[i])
    arrays = []
    for (_, shapes), block in zip(runs, blocks):
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        for shape, part in zip(shapes, np.split(block, ends[:-1], axis=1)):
            arrays.append(part.reshape(count, *shape))
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
    x, u, w, params = (np.asarray(a, dtype=float) for a in (x, u, w, params))
    lead = x.shape[:-1]
    if (x.shape, u.shape, w.shape, params.shape) != (
        lead + (4,), lead + (2,), lead + (4,), lead + (2,)
    ):
        raise ValueError(
            f"expected shapes (..., 4), (..., 2), (..., 4), (..., 2) with one "
            f"leading shape; got {x.shape}, {u.shape}, {w.shape}, {params.shape}"
        )

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

    def mean_params(self) -> dict:
        """The prior means {"mass", "drag"}: the parameters of the noiseless
        nominal system."""
        return {"mass": self.prior.mass.mean, "drag": self.prior.drag.mean}

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
    parameters and disturbances, drawn by the caller. The inputs must be
    finite; a state that overflows on the way is reported in ``diverged``.

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
        non-finite, 0 if it never did. A diverged trajectory's later states,
        and its feedback controls after that step, are NaN.
    """
    arrays = [np.asarray(a, dtype=float) for a in (x0, leading, params, noise)]
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("non-finite values in rollout inputs")
    x, leading, params, noise = arrays
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
    controls = np.empty((k_count, horizon, model.control_dim))
    controls[:, :n_lead] = leading
    states = np.empty((k_count, horizon, model.state_dim))
    # a state that overflows is the divergence read off below, not an error
    # to warn of; every row is stepped, whatever its state
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            if t >= n_lead:
                controls[:, t] = (x - target) @ np.asarray(gain).T
            x = states[:, t] = quadrotor_step(
                x, controls[:, t], noise[:, t], params, model.dt
            )
    bad = ~np.isfinite(states).all(axis=2)
    diverged = np.where(bad.any(axis=1), bad.argmax(axis=1) + 1, 0)
    # the steps after a row's divergence
    later = np.arange(horizon) >= np.where(diverged > 0, diverged, horizon)[:, None]
    states[later] = np.nan
    controls[:, n_lead:][later[:, n_lead:]] = np.nan
    return controls, states, diverged
