"""Ground-truth stochastic system models and trajectory rollout.

The planar quadrotor has state ``[px, vx, py, vy]`` and control ``[ux, uy]``.
One step is ``x' = A x + B(params) u + d(x, params) + w`` where ``B`` scales
by 1/mass and ``d`` is a quadratic velocity drag. The uncertain parameters are
drawn once per trajectory, which correlates the increments of the whole
trajectory (the process is not Markovian in the state alone).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.random import PCG64, Generator

# the first guess of a Beta quantile interpolates log z against log I_z in a
# table of this many points, evenly spaced in log z over this many e-folds
# below the end of a side (_IncompleteBeta)
_TABLE_POINTS = 64
_TABLE_EFOLDS = 14.0
# a Halley step that moves no z by more than this share of it leaves errors
# of about its cube, so the iteration stops after it
_HALLEY_STOP = 1e-7
_HALLEY_MAX_STEPS = 20


def _fraction_coefficients(alpha: float, beta: float, z: float) -> np.ndarray:
    """The c_k of the continued fraction 1 / (1 + d_1 / (1 + d_2 / ...)),
    d_k = c_k z, of I_z(alpha, beta) (DLMF 8.17.22), up to the term after
    which its value at z moves by at most an ulp (modified Lentz). At a
    smaller z it converges in as many terms or fewer; at an integer beta its
    terms end with a zero."""
    tiny = 1e-300
    coefficients = []
    ratio, c, d = 2.0, 1.0, 0.0
    while abs(ratio - 1.0) > 2.0**-53:
        m, odd = divmod(len(coefficients) + 1, 2)
        if odd:
            term = -(alpha + m) * (alpha + beta + m)
            term /= (alpha + 2 * m) * (alpha + 2 * m + 1)
        else:
            term = m * (beta - m) / ((alpha + 2 * m - 1) * (alpha + 2 * m))
        coefficients.append(term)
        d = 1.0 + term * z * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + term * z / c
        c = c if abs(c) > tiny else tiny
        ratio = c * d
    return np.array(coefficients)


class _IncompleteBeta:
    """The regularized incomplete beta function I_z(alpha, beta) for z in
    (0, end], end = (alpha + 1) / (alpha + beta + 2), and its inverse there.

    ``log_beta`` is ln B(alpha, beta). There I_z = z^alpha (1 - z)^beta /
    (alpha B) times a continued fraction that converges within
    ``_fraction_coefficients``' terms, evaluated from its last term back.
    """

    def __init__(self, alpha: float, beta: float, end: float, log_beta: float):
        self.alpha, self.beta, self.end = alpha, beta, end
        self.coefficients = _fraction_coefficients(alpha, beta, end)
        # p = z^alpha w^beta / B = (z k)^alpha exp(beta ln(w / w_end) + shift):
        # pow rounds z^alpha once at any power, and k makes the exponent at
        # most 0 on (0, end] (its largest value, at z -> 0, is
        # ln(end^alpha / B) - alpha ln(end k)), so that neither factor
        # underflows where p does not
        log_c = max(0.0, math.log(end) - log_beta / alpha)
        self.k = math.exp(log_c) / end
        self.inverse_w_end = 1.0 / (1.0 - end)
        self.shift = alpha * (math.log(end) - log_c) + beta * math.log1p(-end)
        self.shift -= log_beta
        z = end * np.exp(np.linspace(-_TABLE_EFOLDS, 0.0, _TABLE_POINTS))
        cdf = self.cdf(z)
        self.log_z, self.log_cdf = np.log(z[cdf > 0]), np.log(cdf[cdf > 0])

    def cdf(self, z: np.ndarray) -> np.ndarray:
        return self._terms(z)[0]

    def _terms(self, z):
        """I_z; p = z^alpha w^beta / B, which is z w times I_z's derivative;
        and w = 1 - z."""
        w = 1.0 - z
        e = np.log(w * self.inverse_w_end)
        e *= self.beta
        e += self.shift
        p = np.exp(e, out=e)
        p *= (z * self.k) ** self.alpha
        terms = np.multiply.outer(self.coefficients, z)
        fraction = terms[-1]
        for term in terms[-2::-1]:
            fraction += 1.0
            np.divide(term, fraction, out=fraction)
        fraction += 1.0
        fraction *= self.alpha
        return p / fraction, p, w

    def inverse(self, t: np.ndarray) -> np.ndarray:
        """The z in (0, end] with I_z = t, for each t in (0, I_end]:
        Halley steps from a guess read off the table (below it, I_z falls as
        z^alpha), each kept in [z / 2, end]."""
        log_t = np.log(t)
        log_z = np.interp(log_t, self.log_cdf, self.log_z)
        log_z += np.minimum(log_t - self.log_cdf[0], 0.0) / self.alpha
        z = np.exp(log_z)
        for _ in range(_HALLEY_MAX_STEPS):
            cdf, p, w = self._terms(z)
            newton = (cdf - t) / p * z * w
            # I_z's second derivative over its first
            curvature = (self.alpha - 1.0) / z - (self.beta - 1.0) / w
            step = newton / (1.0 - 0.5 * np.minimum(newton * curvature, 1.0))
            # fmax keeps a z that underflowed to 0 at 0, not nan
            moved = np.fmin(np.fmax(z - step, 0.5 * z), self.end)
            done = not (np.abs(moved - z) > _HALLEY_STOP * z).any()
            z = moved
            if done:
                break
        # a quantile below the smallest normal float is 0
        z[z < np.finfo(float).tiny] = 0.0
        return z


@functools.cache
def _incomplete_beta_sides(a: float, b: float):
    """I_x(a, b) for x up to s = (a + 1) / (a + b + 2), I_y(b, a) = 1 -
    I_x(a, b) for y = 1 - x up to 1 - s, and I_s(a, b)."""
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    lower = _IncompleteBeta(a, b, (a + 1.0) / (a + b + 2.0), log_beta)
    upper = _IncompleteBeta(b, a, (b + 1.0) / (a + b + 2.0), log_beta)
    return lower, upper, float(lower.cdf(np.array([lower.end]))[0])


def _beta_quantile(a: float, b: float, u: np.ndarray) -> np.ndarray:
    """The x with I_x(a, b) = u, for each u: solved in x where u is at most
    I_s(a, b), and in 1 - x for the rest, each side where its continued
    fraction converges fast. nan for a u outside [0, 1]."""
    lower, upper, split = _incomplete_beta_sides(a, b)
    x = np.full(u.shape, np.nan)
    x[u == 0.0] = 0.0
    x[u == 1.0] = 1.0
    below = (u > 0.0) & (u <= split)
    above = (u > split) & (u < 1.0)
    # a z that underflows, where the quantile does, takes steps of 0 / 0 and
    # inf; they are kept in [z / 2, end]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x[below] = lower.inverse(u[below])
        x[above] = 1.0 - upper.inverse(1.0 - u[above])
    return x


@dataclass(frozen=True)
class BetaSpec:
    """Shifted/scaled Beta distribution: offset + scale * Beta(shape_a, shape_b).

    ``scale == 0`` degenerates to a point mass at ``offset`` (used for
    deterministic tests). A draw is the quantile of one uniform, whatever the
    scale, so random streams stay aligned across configurations.

    The quantile inverts the regularized incomplete beta function I_x(a, b)
    in numpy: in x below the point s = (a + 1) / (a + b + 2) and in 1 - x
    above it, where DLMF 8.17.22's continued fraction converges fast, by
    Halley steps from a guess read off a table made once per shape pair.
    Against ``scipy.special.betaincinv``, on shapes from 0.1 to 300, the
    relative error is at most 1e-13 where neither shape exceeds 20 times the
    other, and at most 6e-12 elsewhere; a quantile below the smallest normal
    float is 0.
    """

    shape_a: float
    shape_b: float
    offset: float
    scale: float

    def __post_init__(self):
        if not (0.0 < self.shape_a < math.inf and 0.0 < self.shape_b < math.inf):
            raise ValueError("Beta shape parameters must be positive and finite")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")

    def quantile(self, u) -> np.ndarray:
        """The quantile of each uniform in ``u``: inverse-transform sampling."""
        u = np.asarray(u, dtype=float)
        if self.scale == 0.0:
            return np.full(u.shape, self.offset)
        x = _beta_quantile(float(self.shape_a), float(self.shape_b), u)
        return self.offset + self.scale * x

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
    bit_generator = PCG64()
    rng = Generator(bit_generator)
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
