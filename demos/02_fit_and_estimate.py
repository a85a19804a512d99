"""Fit the conditional embedding and check its probability estimates.

A dataset of (initial state, control sequence, observed trajectory)
triples is enough to estimate, for any new pair (x0, u), the probability
that the resulting trajectory satisfies the mission constraints. No
system identification happens anywhere: the estimate is a weighted sum of
constraint indicators over the observed trajectories, with weights from
kernel ridge regression.

The script fits the shipped experiment's embedding, then compares its
estimates against Monte-Carlo truth for three library elements: those of
lowest, median and highest estimate, each validated as a pure policy.
"""

from pathlib import Path

import numpy as np

from kernelcc.config import load_config
from kernelcc.data import generate_dataset, generate_library
from kernelcc.embedding import fit
from kernelcc.policy import MixedPolicy, run_monte_carlo
from kernelcc.solver import assemble

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "experiment.json"


def main():
    cfg = load_config(CONFIG)
    print(f"generating dataset (M={cfg.dataset.num_samples}) and library...")
    ds = generate_dataset(cfg.dataset, cfg.model, cfg.master_seed)
    lib = generate_library(cfg.library, cfg.model)

    print("fitting embedding (product kernel, ridge-regularized)...")
    model = fit(ds, cfg.state_kernel, cfg.control_kernel, cfg.regularization)
    sc = cfg.scenario_for(cfg.deltas[0])
    inst = assemble(model, sc, lib, cfg.initial_state)

    order = np.argsort(inst.safety_row)
    picks = [order[0], order[len(order) // 2], order[-1]]
    # each pick as a pure policy, validated together on one set of draws
    pure = [MixedPolicy(row, lib) for row in np.eye(lib.num_sequences)[picks]]
    reports = run_monte_carlo(pure, cfg.model, sc, cfg.initial_state, 500, seed=17)
    print("\nestimated vs Monte-Carlo success probability (500 flights each):")
    print("  element   estimate   truth")
    for j, report in zip(picks, reports):
        print(f"  {j:7d}   {inst.safety_row[j]:8.3f}   {report.success_rate:5.3f}")
    print(
        "\nThe truths lie close together, while the estimates spread from far"
        "\nbelow them to above 1. So an estimate errs high as well as low, and"
        "\none that errs high lets the solver certify an unsafe element: on a"
        "\nmore cluttered map (the g2 layout in the ROADMAP Baseline), element"
        "\n899 is estimated at 1.44 but succeeds 0.59 of the time, and the"
        "\npolicies that use it miss their targets at every risk level. Today"
        "\nonly Monte-Carlo validation, as above, shows such a miss."
    )


if __name__ == "__main__":
    main()
