"""Fit the conditional embedding and check its probability estimates.

A dataset of (initial state, control sequence, observed trajectory)
triples is enough to estimate, for any new pair (x0, u), the probability
that the resulting trajectory satisfies the mission constraints. No
system identification happens anywhere: the estimate is a weighted sum of
constraint indicators over the observed trajectories, with weights from
kernel ridge regression.

The script fits the shipped experiment's embedding, then compares its
estimates against brute-force Monte-Carlo truth for three library
elements: a gentle one, a mid one, and an aggressive one.
"""

from pathlib import Path

import numpy as np

from kernelcc.config import load_config
from kernelcc.data import generate_dataset, generate_library
from kernelcc.embedding import fit
from kernelcc.scenario import indicator_T
from kernelcc.solver import assemble
from kernelcc.systems import draw_streams, rollout

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "experiment.json"


def true_rate(model, sc, x0, controls, trials, seed):
    """Share of independent flights replaying controls that meet every
    constraint; a diverged flight counts as a failure."""
    params, noise = model.realizations(
        *draw_streams(seed, trials, model.realization_pieces(len(controls)))
    )
    _, states, diverged = rollout(
        model,
        np.tile(x0, (trials, 1)),
        np.tile(controls, (trials, 1, 1)),
        params,
        noise,
    )
    return np.mean((diverged == 0) & (indicator_T(sc, states) == 1))


def main():
    cfg = load_config(CONFIG)
    print(f"generating dataset (M={cfg.dataset.num_samples}) and library...")
    ds = generate_dataset(cfg.dataset, cfg.model, cfg.master_seed)
    lib = generate_library(cfg.library, cfg.model, cfg.nominal_params)

    print("fitting embedding (product kernel, ridge-regularized)...")
    model = fit(ds, cfg.state_kernel, cfg.control_kernel, cfg.regularization)
    sc = cfg.scenario_for(cfg.deltas[0])
    inst = assemble(model, sc, lib, cfg.initial_state)

    order = np.argsort(inst.safety_row)
    picks = [order[0], order[len(order) // 2], order[-1]]
    print("\nestimated vs Monte-Carlo success probability (500 flights each):")
    print("  element   estimate   truth")
    for j in picks:
        truth = true_rate(
            cfg.model, sc, cfg.initial_state, lib.sequences[j], 500, seed=17 + j
        )
        print(f"  {j:7d}   {inst.safety_row[j]:8.3f}   {truth:5.3f}")
    print(
        "\nWhere the training data is dense (safe, well-covered maneuvers)"
        "\nthe estimate is sharp. Where it is thin (aggressive corner"
        "\nmaneuvers) the estimate errs low, i.e. conservative: the solver"
        "\nmay pass over a usable element, but it will not certify an"
        "\nunsafe one on the strength of sparse evidence."
    )


if __name__ == "__main__":
    main()
