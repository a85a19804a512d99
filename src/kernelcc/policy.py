"""Randomized open-loop policies and Monte-Carlo validation.

A mixed policy is a probability vector over a finite control library. Each
trial samples one library sequence, simulates it on the true stochastic
system, and checks the trajectory against the scenario's constraints. Trials
use independent random streams derived from (seed, trial index), so results
never depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ControlLibrary
from .scenario import Scenario, indicator_T
from .serialize import write_csv
from .systems import PlanarQuadrotor, rollout

# two-sided 95% normal quantile used for the Wilson interval
_Z95 = 1.959963984540054

# trials whose trajectories a report keeps for plotting and the CSV export
MAX_KEPT_TRAJECTORIES = 2000


@dataclass(frozen=True)
class MixedPolicy:
    """Mixture weights over a control library, for one x0 and risk level."""

    weights: np.ndarray
    library: ControlLibrary
    x0: np.ndarray
    delta: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != self.library.num_sequences:
            raise ValueError(
                f"weights must have length {self.library.num_sequences}, "
                f"got {w.shape}"
            )
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        # written so that a NaN weight fails too
        if not abs(w.sum() - 1.0) <= 1e-9:
            raise ValueError(f"weights must sum to 1, got {w.sum()}")
        x0 = np.asarray(self.x0, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "x0", x0)
        # cumulative weights drive inverse-CDF sampling; cache once
        object.__setattr__(self, "_cumulative", np.cumsum(w))
        object.__setattr__(self, "_last_drawable", int(np.flatnonzero(w > 0.0)[-1]))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.weights > 0.0))


def sample_control(policy: MixedPolicy, rng: np.random.Generator):
    """Draw (index, control sequence) from the policy.

    Inverse-CDF sampling over cumulative weights in index order; indices with
    zero weight are never drawn.
    """
    u = rng.random()
    index = int(np.searchsorted(policy._cumulative, u, side="right"))
    # the weights may sum to slightly less than 1, so u can fall beyond the
    # last cumulative value; that draw belongs to the last positive weight
    index = min(index, policy._last_drawable)
    return index, policy.library.sequences[index]


@dataclass(frozen=True)
class MonteCarloReport:
    """Aggregated validation results plus per-trial records."""

    trials: int
    successes: int
    success_rate: float
    standard_error: float
    wilson_low: float
    wilson_high: float
    seed: int
    indices: np.ndarray
    feasible: np.ndarray
    trajectories: np.ndarray | None = field(repr=False, default=None)

    def to_dict(self) -> dict:
        """JSON-ready summary including per-trial index and feasibility records."""
        return {
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "standard_error": self.standard_error,
            "wilson_95": [self.wilson_low, self.wilson_high],
            "seed": self.seed,
            "trial_indices": [int(i) for i in self.indices],
            "trial_feasible": [bool(f) for f in self.feasible],
        }


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    z2 = _Z95 * _Z95
    rate = successes / trials
    denom = 1.0 + z2 / trials
    center = (rate + z2 / (2.0 * trials)) / denom
    half = (
        _Z95
        * np.sqrt(rate * (1.0 - rate) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    # the exact interval always contains the sample rate and sits inside
    # [0, 1]; enforce both against floating-point roundoff
    low = min(max(center - half, 0.0), rate)
    high = max(min(center + half, 1.0), rate)
    return float(low), float(high)


def run_monte_carlo(
    policy: MixedPolicy,
    model: PlanarQuadrotor,
    sc: Scenario,
    x0,
    trials: int,
    seed: int,
) -> MonteCarloReport:
    """Validate a policy by repeated simulation on the true system.

    Each trial draws a control sequence from the policy and a realization of
    the system from its own stream; all trials are then rolled out together
    and checked against the scenario indicator. A diverging simulation counts
    as a failure and never aborts the run. Trajectories are retained for
    plotting up to ``MAX_KEPT_TRAJECTORIES``; diverged trials record NaN
    states.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    x0 = np.asarray(x0, dtype=float)
    horizon = policy.library.horizon
    indices = np.empty(trials, dtype=int)
    params = np.empty((trials, 2))
    noise = np.empty((trials, horizon, model.state_dim))
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        indices[t], _ = sample_control(policy, rng)
        params[t], noise[t] = model.draw_realization(rng, horizon)
    _, states, diverged = rollout(
        model,
        np.tile(x0, (trials, 1)),
        policy.library.sequences[indices],
        params,
        noise,
    )
    states[diverged > 0] = np.nan
    feasible = (diverged == 0) & (indicator_T(sc, states) == 1)
    successes = int(feasible.sum())
    rate = successes / trials
    low, high = wilson_interval(successes, trials)
    return MonteCarloReport(
        trials=trials,
        successes=successes,
        success_rate=rate,
        standard_error=float(np.sqrt(rate * (1.0 - rate) / trials)),
        wilson_low=low,
        wilson_high=high,
        seed=int(seed),
        indices=indices,
        feasible=feasible,
        trajectories=states[:MAX_KEPT_TRAJECTORIES],
    )


def trajectories_to_csv(report: MonteCarloReport, path) -> None:
    """Write retained trajectories as CSV, one row per (trial, step)."""
    if report.trajectories is None:
        raise ValueError("report holds no trajectories")
    n = report.trajectories.shape[2]
    rows = (
        [t, step, *state, int(report.feasible[t])]
        for t, trajectory in enumerate(report.trajectories)
        for step, state in enumerate(trajectory.tolist(), start=1)
    )
    write_csv(path, ["trial", "step", *(f"s{i}" for i in range(n)), "feasible"], rows)
