"""Run configuration: one JSON file describing a complete experiment.

The file is divided into named sections (system, prior, disturbance,
dataset, library, kernel, embedding, scenario, montecarlo, output) plus a
top-level master seed and solve-time initial state. Parsing validates each
section eagerly and reports problems by section and key; JSON syntax errors
carry the line number. The parsed form keeps a digest of the raw file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import DatasetGenConfig, LibraryGenConfig, pd_gain
from .kernels import KernelSpec
from .scenario import CostSpec, GoalSet, Obstacle, Scenario
from .serialize import digest_of
from .systems import (
    BetaSpec,
    DisturbanceSpec,
    ParamPrior,
    PlanarQuadrotor,
    QuadrotorParams,
)


class ConfigError(ValueError):
    """Raised for malformed run configurations; names the section at fault."""


def _reject_non_finite(value, where: str) -> None:
    """Raise ConfigError at the first NaN or infinite number under value.

    JSON text may spell these NaN, Infinity, -Infinity, or as a literal too
    large for a float (1e400 parses as inf).
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"non-finite number {value} at {where}")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _reject_non_finite(item, f"{where}[{index}]")


def _section(raw: dict, name: str) -> dict:
    if name not in raw:
        raise ConfigError(f"missing config section {name!r}")
    value = raw[name]
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return value


def _get(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in config section {where!r}")
    return section[key]


def _vector(value, length: int, where: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (length,):
        raise ConfigError(f"{where} must be a {length}-vector, got shape {arr.shape}")
    return arr


def _beta(section: dict, key: str, where: str) -> BetaSpec:
    sub = _get(section, key, where)
    try:
        return BetaSpec(
            shape_a=float(_get(sub, "shape_a", f"{where}.{key}")),
            shape_b=float(_get(sub, "shape_b", f"{where}.{key}")),
            offset=float(_get(sub, "offset", f"{where}.{key}")),
            scale=float(_get(sub, "scale", f"{where}.{key}")),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {where}.{key}: {exc}") from None


def _kernel(section: dict, key: str) -> KernelSpec:
    sub = _get(section, key, "kernel")
    mode = sub.get("bandwidth_mode", "fixed")
    bandwidth = sub.get("bandwidth")
    try:
        return KernelSpec(
            family=sub.get("family", "gaussian"),
            bandwidth=None if bandwidth is None else float(bandwidth),
            bandwidth_mode=mode,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid kernel.{key}: {exc}") from None


def _feedback_gain(section: dict, where: str) -> np.ndarray:
    sub = _get(section, "feedback", where)
    return pd_gain(
        float(_get(sub, "kp", f"{where}.feedback")),
        float(_get(sub, "kd", f"{where}.feedback")),
    )


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed experiment description; ``digest`` fingerprints the raw file."""

    master_seed: int
    model: PlanarQuadrotor
    dataset: DatasetGenConfig
    library: LibraryGenConfig
    nominal_params: QuadrotorParams
    state_kernel: KernelSpec
    control_kernel: KernelSpec
    regularization: float
    horizon: int
    deltas: tuple[float, ...]
    goal: GoalSet
    obstacles: tuple[Obstacle, ...]
    costs: CostSpec
    initial_state: np.ndarray
    trials: int
    mc_seed: int
    output_dir: str
    digest: str

    def scenario_for(self, delta: float) -> Scenario:
        """The task at one particular risk budget."""
        return Scenario(
            horizon=self.horizon,
            delta=delta,
            goal=self.goal,
            obstacles=self.obstacles,
            costs=self.costs,
            dt=self.model.dt,
        )


def parse_config(raw: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_non_finite(raw, "")
    if "seed" not in raw:
        raise ConfigError("missing config section 'seed'")
    master_seed = int(raw["seed"])

    system = _section(raw, "system")
    dt = float(system.get("dt", 0.1))
    if dt <= 0:
        raise ConfigError("system.dt must be positive")

    prior_raw = raw.get("prior")
    if prior_raw is None:
        prior = ParamPrior()
    else:
        prior = ParamPrior(
            mass=_beta(prior_raw, "mass", "prior"),
            drag=_beta(prior_raw, "drag", "prior"),
        )

    dist_raw = raw.get("disturbance")
    if dist_raw is None:
        disturbance = DisturbanceSpec.default()
    else:
        disturbance = DisturbanceSpec(
            per_step_std=_vector(
                _get(dist_raw, "per_step_std", "disturbance"),
                4,
                "disturbance.per_step_std",
            )
        )

    model = PlanarQuadrotor(dt=dt, prior=prior, disturbance=disturbance)

    scenario_raw = _section(raw, "scenario")
    horizon = int(_get(scenario_raw, "horizon", "scenario"))
    deltas = tuple(float(d) for d in _get(scenario_raw, "deltas", "scenario"))
    if not deltas:
        raise ConfigError("scenario.deltas must be a nonempty list")
    for d in deltas:
        if not (0.0 < d < 1.0):
            raise ConfigError(f"scenario.deltas entries must lie in (0,1), got {d}")
    goal_raw = _get(scenario_raw, "goal", "scenario")
    goal = GoalSet(
        center=_vector(_get(goal_raw, "center", "scenario.goal"), 2, "goal center"),
        radius=float(_get(goal_raw, "radius", "scenario.goal")),
    )
    obstacles = []
    for k, obs in enumerate(scenario_raw.get("obstacles", [])):
        rect = _vector(_get(obs, "rect", f"scenario.obstacles[{k}]"), 4, "rect")
        first, last = _get(obs, "active_steps", f"scenario.obstacles[{k}]")
        try:
            obstacles.append(
                Obstacle.rectangle(
                    rect[0], rect[1], rect[2], rect[3], (int(first), int(last))
                )
            )
        except ValueError as exc:
            raise ConfigError(f"invalid scenario.obstacles[{k}]: {exc}") from None
    costs_raw = scenario_raw.get("costs", {})
    try:
        costs = CostSpec(
            state_weights=(
                None
                if costs_raw.get("state_weights") is None
                else np.asarray(costs_raw["state_weights"], dtype=float)
            ),
            control_weight=float(costs_raw.get("control_weight", 0.1)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid scenario.costs: {exc}") from None

    ds_raw = _section(raw, "dataset")
    try:
        dataset = DatasetGenConfig(
            num_samples=int(_get(ds_raw, "num_samples", "dataset")),
            horizon=horizon,
            x0_low=_vector(_get(ds_raw, "x0_low", "dataset"), 4, "dataset.x0_low"),
            x0_high=_vector(_get(ds_raw, "x0_high", "dataset"), 4, "dataset.x0_high"),
            control_low=_vector(
                _get(ds_raw, "control_low", "dataset"), 2, "dataset.control_low"
            ),
            control_high=_vector(
                _get(ds_raw, "control_high", "dataset"), 2, "dataset.control_high"
            ),
            num_random_steps=int(_get(ds_raw, "num_random_steps", "dataset")),
            feedback_gain=_feedback_gain(ds_raw, "dataset"),
            target=_vector(_get(ds_raw, "target", "dataset"), 4, "dataset.target"),
            tail_params=ds_raw.get("tail_params", "sampled"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid dataset section: {exc}") from None

    lib_raw = _section(raw, "library")
    try:
        library = LibraryGenConfig(
            horizon=horizon,
            grid_resolution=tuple(
                int(g) for g in _get(lib_raw, "grid_resolution", "library")
            ),
            control_low=_vector(
                _get(lib_raw, "control_low", "library"), 2, "library.control_low"
            ),
            control_high=_vector(
                _get(lib_raw, "control_high", "library"), 2, "library.control_high"
            ),
            num_random_steps=int(_get(lib_raw, "num_random_steps", "library")),
            feedback_gain=_feedback_gain(lib_raw, "library"),
            target=_vector(_get(lib_raw, "target", "library"), 4, "library.target"),
            initial_state=_vector(
                _get(lib_raw, "initial_state", "library"),
                4,
                "library.initial_state",
            ),
            max_sequences=int(lib_raw.get("max_sequences", 20000)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid library section: {exc}") from None
    nominal = QuadrotorParams(
        mass=float(_get(lib_raw, "nominal_mass", "library")),
        drag=float(_get(lib_raw, "nominal_drag", "library")),
    )

    kernel_raw = _section(raw, "kernel")
    state_kernel = _kernel(kernel_raw, "state")
    control_kernel = _kernel(kernel_raw, "control")

    emb_raw = _section(raw, "embedding")
    regularization = float(_get(emb_raw, "regularization", "embedding"))
    if regularization <= 0:
        raise ConfigError("embedding.regularization must be positive")

    mc_raw = _section(raw, "montecarlo")
    trials = int(_get(mc_raw, "trials", "montecarlo"))
    if trials < 1:
        raise ConfigError("montecarlo.trials must be at least 1")
    mc_seed = int(_get(mc_raw, "seed", "montecarlo"))

    initial_state = _vector(
        raw.get("initial_state", np.zeros(4)), 4, "initial_state"
    )
    output_dir = str(raw.get("output", {}).get("directory", "out"))

    return RunConfig(
        master_seed=master_seed,
        model=model,
        dataset=dataset,
        library=library,
        nominal_params=nominal,
        state_kernel=state_kernel,
        control_kernel=control_kernel,
        regularization=regularization,
        horizon=horizon,
        deltas=deltas,
        goal=goal,
        obstacles=tuple(obstacles),
        costs=costs,
        initial_state=initial_state,
        trials=trials,
        mc_seed=mc_seed,
        output_dir=output_dir,
        digest=digest_of(raw),
    )


def load_config(path) -> RunConfig:
    """Read and parse a JSON run configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    return parse_config(raw)
