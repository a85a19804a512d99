"""Run configuration: one JSON file describing a complete experiment.

The file is divided into named sections (system, prior, disturbance,
dataset, library, kernel, embedding, scenario, montecarlo, output) plus a
top-level master seed and solve-time initial state. Parsing validates each
section eagerly: any ValueError or TypeError raised while a section, nested
object or key is read becomes a ConfigError naming it. JSON syntax errors
carry the line number. Each object of the file records the keys the parser
reads from it, and a key that no parse step read (a misspelling, say) is an
error too. The parsed form keeps a digest of the raw file.

A seed, a risk level and an initial state are each checked by one function
(``check_seed``, ``check_delta``, ``check_state``), which the command-line
overrides of those values call too.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
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
    """Raised for malformed run configurations; names the section or key at fault."""


@contextmanager
def _invalid(where: str):
    """The one error rule: a ValueError or TypeError raised while ``where``
    is read becomes a ConfigError that names it."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from None


def _name(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


class _Object(dict):
    """A JSON object of the config that records the keys read from it."""

    def __init__(self, items: dict, where: str):
        super().__init__(items)
        self.where = where
        self.read: set = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _tracked(value, where: str):
    """value with every JSON object an _Object; raises ConfigError at the
    first NaN or infinite number.

    JSON text may spell these NaN, Infinity, -Infinity, or as a literal too
    large for a float (1e400 parses as inf).
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"non-finite number {value} at {where}")
    if isinstance(value, dict):
        items = {key: _tracked(item, _name(where, key)) for key, item in value.items()}
        return _Object(items, where)
    if isinstance(value, list):
        return [_tracked(item, f"{where}[{index}]") for index, item in enumerate(value)]
    return value


def _unread(value) -> list[str]:
    """The names of the keys under value that parsing never read."""
    if isinstance(value, _Object):
        return [
            name
            for key, item in value.items()
            for name in (
                _unread(item) if key in value.read else [_name(value.where, key)]
            )
        ]
    if isinstance(value, list):
        return [name for item in value for name in _unread(item)]
    return []


_REQUIRED = object()


def _get(section: dict, key: str, where: str, kind=None, default=_REQUIRED):
    """``kind(section[key])``, or the value itself without a ``kind``.

    A missing key without a default, and any ValueError or TypeError that
    ``kind`` raises, is a ConfigError naming ``where.key``.
    """
    if key not in section and default is _REQUIRED:
        raise ConfigError(f"missing config key {_name(where, key)!r}")
    value = section.get(key, default)
    if kind is None:
        return value
    with _invalid(_name(where, key)):
        return kind(value)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    return value


def _nested(section: dict, key: str, where: str, default=_REQUIRED) -> dict:
    """The object at section[key]; errors name where.key."""
    return _object(_get(section, key, where, default=default), _name(where, key))


def _integer(value) -> int:
    """A ``kind`` for _get: an integer (a bool, a float or a string is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _integers(value):
    """A ``kind`` for _get: an integer, or a list of integers."""
    if isinstance(value, list):
        return [_integer(item) for item in value]
    return _integer(value)


def _vector(length: int):
    """A ``kind`` for _get: a finite float vector of ``length`` entries."""

    def kind(value) -> np.ndarray:
        arr = np.asarray(value, dtype=float)
        if arr.shape != (length,):
            raise ValueError(f"must be a {length}-vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"must be finite, got {arr.tolist()}")
        return arr

    return kind


def check_seed(value, where: str) -> int:
    """A seed: a non-negative integer (a bool or a float is not one)."""
    with _invalid(where):
        seed = _integer(value)
        if seed < 0:
            raise ValueError(f"must be a non-negative integer, got {value!r}")
        return seed


def check_delta(value, where: str) -> float:
    """A risk level: 0 < delta < 1 with a threshold 1 - delta below 1."""
    with _invalid(where):
        delta = float(value)
        if not (0.0 < delta < 1.0 and 1.0 - delta < 1.0):
            raise ValueError(f"must lie in (0, 1) with 1 - delta < 1, got {delta!r}")
        return delta


def check_state(value, where: str) -> np.ndarray:
    """An initial state: a finite 4-vector."""
    with _invalid(where):
        return _vector(4)(value)


def _beta(prior: dict, key: str) -> BetaSpec:
    where = f"prior.{key}"
    sub = _nested(prior, key, "prior")
    names = ("shape_a", "shape_b", "offset", "scale")
    with _invalid(where):
        return BetaSpec(*(_get(sub, name, where, float) for name in names))


def _kernel(section: dict, key: str) -> KernelSpec:
    sub = _nested(section, key, "kernel")
    bandwidth = sub.get("bandwidth")
    with _invalid(f"kernel.{key}"):
        return KernelSpec(
            family=sub.get("family", "gaussian"),
            bandwidth=None if bandwidth is None else float(bandwidth),
            bandwidth_mode=sub.get("bandwidth_mode", "fixed"),
        )


def _control_law(section: dict, where: str, horizon: int) -> dict:
    """The ControlLawSpec settings, read alike from the dataset and library."""
    feedback = _nested(section, "feedback", where)
    return {
        "horizon": horizon,
        "control_low": _get(section, "control_low", where),
        "control_high": _get(section, "control_high", where),
        "num_random_steps": _get(section, "num_random_steps", where, _integer),
        "feedback_gain": pd_gain(
            _get(feedback, "kp", f"{where}.feedback", float),
            _get(feedback, "kd", f"{where}.feedback", float),
        ),
        "target": _get(section, "target", where),
    }


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
    deltas: tuple[float, ...]
    scenario: Scenario
    initial_state: np.ndarray
    trials: int
    mc_seed: int
    output_dir: str
    digest: str

    def scenario_for(self, delta: float) -> Scenario:
        """The task at one particular risk budget."""
        return replace(self.scenario, delta=delta)


def parse_config(raw: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw = _tracked(raw, "")
    master_seed = check_seed(_get(raw, "seed", ""), "seed")

    dt = _get(_nested(raw, "system", ""), "dt", "system", float, 0.1)
    prior, disturbance = ParamPrior(), DisturbanceSpec.default()
    if raw.get("prior") is not None:
        prior_raw = _nested(raw, "prior", "")
        prior = ParamPrior(_beta(prior_raw, "mass"), _beta(prior_raw, "drag"))
    if raw.get("disturbance") is not None:
        dist_raw = _nested(raw, "disturbance", "")
        with _invalid("disturbance"):
            disturbance = DisturbanceSpec(_get(dist_raw, "per_step_std", "disturbance"))
    with _invalid("system"):
        model = PlanarQuadrotor(dt=dt, prior=prior, disturbance=disturbance)

    scenario_raw = _nested(raw, "scenario", "")
    horizon = _get(scenario_raw, "horizon", "scenario", _integer)
    deltas = tuple(
        check_delta(d, f"scenario.deltas[{i}]")
        for i, d in enumerate(_get(scenario_raw, "deltas", "scenario", list))
    )
    if not deltas:
        raise ConfigError("scenario.deltas must be a nonempty list")
    goal_raw = _nested(scenario_raw, "goal", "scenario")
    with _invalid("scenario.goal"):
        goal = GoalSet(
            center=_get(goal_raw, "center", "scenario.goal"),
            radius=_get(goal_raw, "radius", "scenario.goal", float),
        )
    obstacles = []
    for k, obs in enumerate(_get(scenario_raw, "obstacles", "scenario", list, [])):
        where = f"scenario.obstacles[{k}]"
        obs = _object(obs, where)
        rect = _get(obs, "rect", where, _vector(4))
        steps = _get(obs, "active_steps", where, _vector(2))
        with _invalid(where):
            obstacles.append(Obstacle.rectangle(*rect, tuple(steps)))
    costs_raw = _nested(scenario_raw, "costs", "scenario", {})
    with _invalid("scenario.costs"):
        costs = CostSpec(
            state_weights=costs_raw.get("state_weights"),
            control_weight=_get(
                costs_raw, "control_weight", "scenario.costs", float, 0.1
            ),
        )
    with _invalid("scenario"):
        scenario = Scenario(horizon, deltas[0], goal, obstacles, costs, model.dt)

    ds_raw = _nested(raw, "dataset", "")
    with _invalid("dataset"):
        dataset = DatasetGenConfig(
            **_control_law(ds_raw, "dataset", horizon),
            num_samples=_get(ds_raw, "num_samples", "dataset", _integer),
            x0_low=_get(ds_raw, "x0_low", "dataset"),
            x0_high=_get(ds_raw, "x0_high", "dataset"),
            tail_params=ds_raw.get("tail_params", "sampled"),
        )

    lib_raw = _nested(raw, "library", "")
    with _invalid("library"):
        library = LibraryGenConfig(
            **_control_law(lib_raw, "library", horizon),
            grid_resolution=_get(lib_raw, "grid_resolution", "library", _integers),
            initial_state=_get(lib_raw, "initial_state", "library"),
            max_sequences=_get(lib_raw, "max_sequences", "library", _integer, 20000),
        )
        nominal = QuadrotorParams(
            mass=_get(lib_raw, "nominal_mass", "library", float),
            drag=_get(lib_raw, "nominal_drag", "library", float),
        )

    kernel_raw = _nested(raw, "kernel", "")
    state_kernel = _kernel(kernel_raw, "state")
    control_kernel = _kernel(kernel_raw, "control")

    emb_raw = _nested(raw, "embedding", "")
    regularization = _get(emb_raw, "regularization", "embedding", float)
    if regularization <= 0:
        raise ConfigError("embedding.regularization must be positive")

    mc_raw = _nested(raw, "montecarlo", "")
    trials = _get(mc_raw, "trials", "montecarlo", _integer)
    if trials < 1:
        raise ConfigError("montecarlo.trials must be at least 1")
    mc_seed = check_seed(_get(mc_raw, "seed", "montecarlo"), "montecarlo.seed")

    initial_state = check_state(raw.get("initial_state", np.zeros(4)), "initial_state")
    output_dir = str(_nested(raw, "output", "", {}).get("directory", "out"))

    unread = _unread(raw)
    if unread:
        plural = "s" if len(unread) > 1 else ""
        names = ", ".join(map(repr, unread))
        raise ConfigError(f"unknown config key{plural} {names}")

    return RunConfig(
        master_seed=master_seed,
        model=model,
        dataset=dataset,
        library=library,
        nominal_params=nominal,
        state_kernel=state_kernel,
        control_kernel=control_kernel,
        regularization=regularization,
        deltas=deltas,
        scenario=scenario,
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
