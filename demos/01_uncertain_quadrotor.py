"""Simulate the uncertain planar quadrotor.

The vehicle is a planar double integrator with quadratic drag. Two things
make it stochastic: physical parameters (mass, drag coefficient) drawn
once per flight from shifted Beta priors, and small additive turbulence
applied at every step. Because the parameters are drawn once and then
held, trajectories are correlated across time in a way no one-step model
captures; this scripts shows how much of the final-position spread each
source of uncertainty contributes.
"""

import numpy as np

from kernelcc.systems import (
    DisturbanceSpec,
    ParamPrior,
    PlanarQuadrotor,
    rollout,
)


def flights(model, x0, controls, trials, seed):
    """Final states of independent flights replaying one control sequence."""
    params = np.empty((trials, 2))
    noise = np.empty((trials, len(controls), 4))
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        params[t], noise[t] = model.draw_realization(rng, len(controls))
    _, states, _ = rollout(
        model,
        np.tile(x0, (trials, 1)),
        np.tile(controls, (trials, 1, 1)),
        params,
        noise,
    )
    return states


def spread(model, x0, controls, trials, seed):
    finals = flights(model, x0, controls, trials, seed)[:, -1, [0, 2]]
    return finals.mean(axis=0), finals.std(axis=0)


def main():
    prior = ParamPrior()
    print("parameter priors (shifted/scaled Beta):")
    print(f"  mass: support [0.75, 1.25], mean {prior.mass.mean:.4f}")
    print(f"  drag: support [0.40, 0.60], mean {prior.drag.mean:.4f}")

    x0 = np.zeros(4)
    horizon = 15
    controls = np.tile([1.5, 1.5], (horizon, 1))
    controls[3:] = [0.3, 0.3]
    trials = 500

    full = PlanarQuadrotor()
    params_only = PlanarQuadrotor(disturbance=DisturbanceSpec.zero(4))
    noise_only = PlanarQuadrotor(
        prior=ParamPrior.point(prior.mass.mean, prior.drag.mean)
    )

    print(f"\nfinal position after {horizon} steps of a fixed control sequence")
    print(f"({trials} independent flights each):")
    for name, model in (
        ("parameters + turbulence", full),
        ("parameters only       ", params_only),
        ("turbulence only       ", noise_only),
    ):
        mean, std = spread(model, x0, controls, trials, seed=1)
        print(
            f"  {name}: mean ({mean[0]:.3f}, {mean[1]:.3f}), "
            f"std ({std[0]:.3f}, {std[1]:.3f})"
        )
    print(
        "\nThe once-per-flight parameter draw dominates the spread; the"
        "\nper-step turbulence alone leaves the flight nearly deterministic."
        "\nThat correlation through the hidden parameters is what the"
        "\nconditional embedding treats correctly, where a per-step model"
        "\nwould not."
    )


if __name__ == "__main__":
    main()
