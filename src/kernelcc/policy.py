"""Randomized open-loop policies and Monte-Carlo validation.

A mixed policy is a probability vector over a finite control library. Each
trial samples one library sequence, simulates it on the true stochastic
system, and checks the trajectory against the scenario's constraints. Trials
use independent random streams derived from (seed, trial index), so results
never depend on execution order.

A sweep of risk levels is validated on one set of draws (common random
numbers): each trial's uniform, parameters and noise are drawn once, every
policy maps the shared uniform to a library element, and each distinct
(trial, element) pair is simulated once and its CSV rows formatted once,
however many policies draw it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ControlLibrary
from .scenario import Scenario, indicator_T
from .serialize import write_csv_text
from .systems import PlanarQuadrotor, draw_streams, rollout

# two-sided 95% normal quantile used for the Wilson interval
_Z95 = 1.959963984540054

# trials whose trajectories a report keeps for plotting and the CSV export
MAX_KEPT_TRAJECTORIES = 2000


def check_weights(weights: np.ndarray) -> None:
    """Raise ValueError unless the weights are nonnegative and sum to 1."""
    if np.any(weights < 0.0):
        raise ValueError("weights must be nonnegative")
    # written so that a NaN weight fails too
    if not abs(weights.sum() - 1.0) <= 1e-9:
        raise ValueError(f"weights must sum to 1, got {weights.sum()}")


@dataclass(frozen=True)
class MixedPolicy:
    """Mixture weights over a control library: a probability vector with one
    weight per library sequence."""

    weights: np.ndarray
    library: ControlLibrary

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != self.library.num_sequences:
            raise ValueError(
                f"weights must have length {self.library.num_sequences}, "
                f"got {w.shape}"
            )
        check_weights(w)
        object.__setattr__(self, "weights", w)
        # cumulative weights drive inverse-CDF sampling; cache once
        object.__setattr__(self, "_cumulative", np.cumsum(w))
        object.__setattr__(self, "_last_drawable", int(np.flatnonzero(w > 0.0)[-1]))


def _draw_indices(policy: MixedPolicy, u):
    """The library indices that uniforms ``u`` draw from the policy.

    Inverse-CDF sampling over cumulative weights in index order; indices with
    zero weight are never drawn.
    """
    index = np.searchsorted(policy._cumulative, u, side="right")
    # the weights may sum to slightly less than 1, so u can fall beyond the
    # last cumulative value; that draw belongs to the last positive weight
    return np.minimum(index, policy._last_drawable)


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
    # rollout states the reports of one run_monte_carlo call share; kept
    # trial t's trajectory is states[kept_rows[t]]
    states: np.ndarray = field(repr=False)
    kept_rows: np.ndarray = field(repr=False)
    # CSV text of each row of states, None until written; the reports of one
    # run_monte_carlo call share it, so a row is formatted once per sweep
    trial_rows: list = field(repr=False, compare=False)

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
    policies,
    model: PlanarQuadrotor,
    sc: Scenario,
    x0,
    trials: int,
    seed: int,
) -> list[MonteCarloReport]:
    """Validate policies of one library by repeated simulation on the true
    system from the initial state x0; one report per policy, in order.

    Trial t draws a uniform, then a realization of the system, from its own
    stream (seed, t), once for all policies; each policy maps the uniform to
    a library element by inverse-CDF sampling. Every distinct (trial,
    element) pair is rolled out and checked against the constraints of
    ``sc`` once; its risk level is not read. A diverging simulation counts
    as a failure and never aborts the run. Trajectories are retained for
    plotting up to ``MAX_KEPT_TRAJECTORIES`` trials, in one states array
    the reports share; diverged trials record NaN states.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    policies = list(policies)
    if not policies:
        raise ValueError("run_monte_carlo needs at least one policy")
    library = policies[0].library
    if any(policy.library is not library for policy in policies):
        raise ValueError("the policies of one run must share one library")
    horizon = library.horizon
    choice, *realization = draw_streams(
        seed, trials, [("uniform", (1,)), *model.realization_pieces(horizon)]
    )
    uniforms = choice[:, 0]
    params, noise = model.realizations(*realization)
    # (policy, trial) library indices; the distinct (trial, index) pairs
    # are the rollouts, in the order of their key trial * P + index
    indices = np.stack([_draw_indices(policy, uniforms) for policy in policies])
    pairs, pair_of = np.unique(
        np.arange(trials) * library.num_sequences + indices, return_inverse=True
    )
    pair_trial, pair_index = np.divmod(pairs, library.num_sequences)
    _, states, diverged = rollout(
        model,
        np.tile(x0, (pairs.shape[0], 1)),
        library.sequences[pair_index],
        params[pair_trial],
        noise[pair_trial],
    )
    states[diverged > 0] = np.nan
    pair_feasible = (diverged == 0) & (indicator_T(sc, states) == 1)
    # pairs are ordered by trial, so the kept trials' pairs are a prefix
    kept = int(np.searchsorted(pair_trial, MAX_KEPT_TRAJECTORIES))
    if kept < states.shape[0]:
        states = states[:kept].copy()
    trial_rows = [None] * states.shape[0]
    reports = []
    for policy_indices, rows in zip(indices, pair_of.reshape(indices.shape)):
        feasible = pair_feasible[rows]
        successes = int(feasible.sum())
        rate = successes / trials
        low, high = wilson_interval(successes, trials)
        reports.append(
            MonteCarloReport(
                trials=trials,
                successes=successes,
                success_rate=rate,
                standard_error=float(np.sqrt(rate * (1.0 - rate) / trials)),
                wilson_low=low,
                wilson_high=high,
                seed=int(seed),
                indices=policy_indices,
                feasible=feasible,
                states=states,
                kept_rows=rows[:MAX_KEPT_TRAJECTORIES],
                trial_rows=trial_rows,
            )
        )
    return reports


def trajectories_to_csv(report: MonteCarloReport, path) -> None:
    """Write retained trajectories as CSV, one row per (trial, step).

    A kept trial's rows are formatted once per row of ``report.states`` and
    kept in ``report.trial_rows`` for the other reports of its run.
    """
    n = report.states.shape[2]
    header = ["trial", "step", *(f"s{i}" for i in range(n)), "feasible"]
    # the cell rule of write_csv: integers and floats by their repr
    row = ",".join(["%d", "%d", *["%r"] * n, "%d"]) + "\n"
    memo = report.trial_rows
    for t, state_row in enumerate(report.kept_rows):
        if memo[state_row] is None:
            flag = int(report.feasible[t])
            trajectory = report.states[state_row].tolist()
            memo[state_row] = "".join(
                row % (t, step, *state, flag)
                for step, state in enumerate(trajectory, start=1)
            )
    write_csv_text(path, header, [memo[state_row] for state_row in report.kept_rows])
