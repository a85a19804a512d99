"""Run configuration: one JSON file describing a complete experiment.

The file is divided into named sections (system, prior, disturbance,
dataset, library, kernel, embedding, scenario, montecarlo, output) plus a
top-level master seed and solve-time initial state. The prior alone sets
the nominal system that completes every control sequence: its means are
the nominal parameters, so no key sets them apart. Parsing maps keys to
constructor arguments and does nothing else: an optional key the file omits
is not passed, so the constructors hold the only defaults. A count is read
by ``serialize.integer`` and a real number, alone or as a vector entry, by
``serialize.real``, so a bool or a string is never taken for a number. Each
object of the file carries its dotted name (``scenario.goal``) and records
the keys read from it. Any ValueError or TypeError raised while a section,
nested object or key is read becomes a ConfigError naming it, and so does a
key no parse step read (a misspelling, say). JSON syntax errors carry the line
number, and a key repeated within one object is refused with the key and
that object's name. The parsed form keeps a digest of the raw file.

A seed, a risk level and an initial state are each checked by one function
(``check_seed``, ``check_delta``, ``check_state``), which the command-line
overrides of those values and the policy files ``validate`` reads use too.
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
from .serialize import digest_of, integer, real
from .systems import BetaSpec, DisturbanceSpec, ParamPrior, PlanarQuadrotor


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


class _Parsed(dict):
    """A JSON object as load_config parsed it, with ``repeated``, the first
    key it holds twice, or None; _tracked, which names the object, refuses
    it."""

    repeated = None


def _tracked(value, where: str):
    """value with every JSON object an _Object; raises ConfigError at the
    first object that repeats a key and at the first NaN or infinite number.

    JSON text may spell these NaN, Infinity, -Infinity, or as a literal too
    large for a float (1e400 parses as inf).
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"non-finite number {value} at {where}")
    if isinstance(value, _Parsed) and value.repeated is not None:
        raise ConfigError(
            f"duplicate config key {value.repeated!r} at {where or 'the top level'}"
        )
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


def _get(section: _Object, key: str, kind=None):
    """``kind(section[key])``, or the value itself without a ``kind``; a
    missing key, and any ValueError or TypeError that ``kind`` raises, is a
    ConfigError naming the key after ``section.where``."""
    where = _name(section.where, key)
    if key not in section:
        raise ConfigError(f"missing config key {where!r}")
    if kind is None:
        return section[key]
    with _invalid(where):
        return kind(section[key])


def _optional(section: _Object, *keys: str, **kinds) -> dict:
    """Keyword arguments for the keys that section holds, each read by _get
    (with the ``kind`` given as key=kind); a key the file omits is left to
    the constructor's default."""
    kinds = {**dict.fromkeys(keys), **kinds}
    return {k: _get(section, k, kind) for k, kind in kinds.items() if k in section}


def _object(value, where: str) -> _Object:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    return value


def _nested(section: _Object, key: str) -> _Object:
    """The object at section[key]; errors name it."""
    return _object(_get(section, key), _name(section.where, key))


def _integer_pair(value) -> tuple[int, int]:
    """A ``kind`` for _get: a pair of integers."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"must be a pair of integers, got {value!r}")
    return tuple(map(integer, value))


def _text(value) -> str:
    """A ``kind`` for _get: a string, taken as it is."""
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def _reals(value) -> np.ndarray:
    """A ``kind`` for _get: a list of real numbers, as a float array."""
    if not isinstance(value, (list, np.ndarray)):
        raise TypeError(f"must be a list of real numbers, got {value!r}")
    return np.array([real(item, f"entry {i}") for i, item in enumerate(value)])


def _vector(length: int):
    """A ``kind`` for _get: a finite float vector of ``length`` entries."""

    def kind(value) -> np.ndarray:
        arr = _reals(value)
        if arr.shape != (length,):
            raise ValueError(f"must be a {length}-vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"must be finite, got {arr.tolist()}")
        return arr

    return kind


def check_seed(value, where: str) -> int:
    """A seed: a non-negative integer (a bool or a float is not one)."""
    with _invalid(where):
        seed = integer(value)
        if seed < 0:
            raise ValueError(f"must be a non-negative integer, got {value!r}")
        return seed


def check_delta(value, where: str) -> float:
    """A risk level: 0 < delta < 1 with a threshold 1 - delta below 1."""
    with _invalid(where):
        delta = real(value)
        if not (0.0 < delta < 1.0 and 1.0 - delta < 1.0):
            raise ValueError(f"must lie in (0, 1) with 1 - delta < 1, got {delta!r}")
        return delta


def check_state(value, where: str) -> np.ndarray:
    """An initial state: a finite 4-vector."""
    with _invalid(where):
        return _vector(4)(value)


def _beta(sub: _Object) -> BetaSpec:
    names = ("shape_a", "shape_b", "offset", "scale")
    with _invalid(sub.where):
        return BetaSpec(*(_get(sub, name, real) for name in names))


def _kernel(sub: _Object) -> KernelSpec:
    with _invalid(sub.where):
        return KernelSpec(_get(sub, "bandwidth", real))


def _obstacles(items) -> list[Obstacle]:
    """A ``kind`` for _get: the scenario's list of obstacles."""
    obstacles = []
    for k, obs in enumerate(items):
        obs = _object(obs, f"scenario.obstacles[{k}]")
        rect = _get(obs, "rect", _vector(4))
        steps = _get(obs, "active_steps", _integer_pair)
        with _invalid(obs.where):
            obstacles.append(Obstacle.rectangle(*rect, steps))
    return obstacles


def _control_law(section: _Object, horizon: int) -> dict:
    """The ControlLawSpec settings, read alike from the dataset and library."""
    feedback = _nested(section, "feedback")
    return {
        "horizon": horizon,
        "control_low": _get(section, "control_low", _reals),
        "control_high": _get(section, "control_high", _reals),
        "num_random_steps": _get(section, "num_random_steps", integer),
        "feedback_gain": pd_gain(
            _get(feedback, "kp", real), _get(feedback, "kd", real)
        ),
        "target": _get(section, "target", _reals),
    }


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed experiment description; ``digest`` fingerprints the raw file."""

    master_seed: int
    model: PlanarQuadrotor
    dataset: DatasetGenConfig
    library: LibraryGenConfig
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
    master_seed = check_seed(_get(raw, "seed"), "seed")

    system = _nested(raw, "system")
    model_args = _optional(system, dt=real)
    if raw.get("prior") is not None:
        prior = _nested(raw, "prior")
        mass, drag = (_beta(_nested(prior, key)) for key in ("mass", "drag"))
        with _invalid(prior.where):
            model_args["prior"] = ParamPrior(mass, drag)
    if raw.get("disturbance") is not None:
        dist = _nested(raw, "disturbance")
        std = _get(dist, "per_step_std", _vector(4))
        with _invalid(dist.where):
            model_args["disturbance"] = DisturbanceSpec(std)
    with _invalid(system.where):
        model = PlanarQuadrotor(**model_args)

    scenario_raw = _nested(raw, "scenario")
    horizon = _get(scenario_raw, "horizon", integer)
    deltas = []
    for i, value in enumerate(_get(scenario_raw, "deltas", _reals)):
        delta = check_delta(value, f"scenario.deltas[{i}]")
        # a risk level names its policy and report files
        if delta in deltas:
            raise ConfigError(
                f"invalid scenario.deltas[{i}]: repeats risk level {delta!r}"
            )
        deltas.append(delta)
    if not deltas:
        raise ConfigError("scenario.deltas must be a nonempty list")
    goal_raw = _nested(scenario_raw, "goal")
    with _invalid(goal_raw.where):
        center = _get(goal_raw, "center", _reals)
        goal = GoalSet(center, _get(goal_raw, "radius", real))
    task = _optional(scenario_raw, obstacles=_obstacles)
    if "costs" in scenario_raw:
        costs = _nested(scenario_raw, "costs")
        with _invalid(costs.where):
            task["costs"] = CostSpec(
                **_optional(
                    costs,
                    state_weights=lambda w: None if w is None else _reals(w),
                    control_weight=real,
                )
            )
    with _invalid(scenario_raw.where):
        scenario = Scenario(horizon, deltas[0], goal, **task)

    ds_raw = _nested(raw, "dataset")
    with _invalid(ds_raw.where):
        dataset = DatasetGenConfig(
            **_control_law(ds_raw, horizon),
            num_samples=_get(ds_raw, "num_samples", integer),
            x0_low=_get(ds_raw, "x0_low", _reals),
            x0_high=_get(ds_raw, "x0_high", _reals),
        )

    lib_raw = _nested(raw, "library")
    with _invalid(lib_raw.where):
        library = LibraryGenConfig(
            **_control_law(lib_raw, horizon),
            grid_resolution=_get(lib_raw, "grid_resolution", _integer_pair),
            initial_state=_get(lib_raw, "initial_state", _reals),
            **_optional(lib_raw, max_sequences=integer),
        )

    kernel_raw = _nested(raw, "kernel")
    state_kernel = _kernel(_nested(kernel_raw, "state"))
    control_kernel = _kernel(_nested(kernel_raw, "control"))

    regularization = _get(_nested(raw, "embedding"), "regularization", real)
    if regularization <= 0:
        raise ConfigError("embedding.regularization must be positive")

    mc_raw = _nested(raw, "montecarlo")
    trials = _get(mc_raw, "trials", integer)
    if trials < 1:
        raise ConfigError("montecarlo.trials must be at least 1")
    mc_seed = check_seed(_get(mc_raw, "seed"), "montecarlo.seed")

    initial_state = check_state(raw.get("initial_state", np.zeros(4)), "initial_state")
    output = _nested(raw, "output") if "output" in raw else {}
    output_dir = _optional(output, directory=_text).get("directory", "out")

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
        state_kernel=state_kernel,
        control_kernel=control_kernel,
        regularization=regularization,
        deltas=tuple(deltas),
        scenario=scenario,
        initial_state=initial_state,
        trials=trials,
        mc_seed=mc_seed,
        output_dir=output_dir,
        digest=digest_of(raw),
    )


def _unique_keys(pairs: list) -> _Parsed:
    """The hook json.loads builds each object with: json.loads alone would
    keep the last value of a repeated key and drop the others unseen."""
    obj = _Parsed()
    for key, value in pairs:
        if key in obj and obj.repeated is None:
            obj.repeated = key
        obj[key] = value
    return obj


def load_config(path) -> RunConfig:
    """Read and parse a JSON run configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    return parse_config(raw)
