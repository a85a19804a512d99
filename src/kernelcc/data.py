"""Dataset and control-library generation and JSON-lines persistence.

Dataset protocol, per sample: draw an initial state uniformly from a box,
draw the first few controls uniformly from a control box, continue with a
linear feedback law (simulated either on a freshly sampled stochastic
system or noiselessly at the parameter prior means, per ``tail_params``),
then re-simulate the complete frozen control sequence open-loop on an
independent fresh realization. The recorded trajectory therefore is a draw
from the conditional law of trajectories given (x0, u), which makes the
samples i.i.d.

The control library enumerates a uniform grid over the control box on the
randomized steps and continues each sequence with the same feedback law on
the nominal deterministic system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .serialize import canonical_json, digest_of
from .systems import PlanarQuadrotor, QuadrotorParams, rollout

FORMAT_VERSION = 1


class DataLoadError(ValueError):
    """Raised when a dataset/library file is malformed; names the bad line."""

    def __init__(self, path, line: int, reason: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {reason}")


class DatasetGenerationError(RuntimeError):
    """Raised when a sample's simulation diverges; names the sample index."""

    def __init__(self, sample_index: int, step: int):
        self.sample_index = sample_index
        self.step = step
        super().__init__(
            f"sample {sample_index} diverged at simulation step {step}"
        )


def pd_gain(kp: float, kd: float) -> np.ndarray:
    """Position/velocity feedback gain acting independently on each axis.

    With state [px, vx, py, vy], u = gain @ (x - target) pushes each axis
    toward its target position: u_x = -kp*(px - tx) - kd*(vx - tvx).
    """
    return np.array(
        [[-kp, -kd, 0.0, 0.0], [0.0, 0.0, -kp, -kd]], dtype=float
    )


def _check_box(low, high, dim, name):
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    if low.shape != (dim,) or high.shape != (dim,):
        raise ValueError(f"{name} bounds must have shape ({dim},)")
    if not (np.all(np.isfinite(low)) and np.all(np.isfinite(high))):
        raise ValueError(f"{name} bounds must be finite")
    if np.any(low > high):
        raise ValueError(f"{name} bounds must be ordered low <= high")
    return low, high


@dataclass(frozen=True)
class DatasetGenConfig:
    """Settings for dataset generation.

    ``tail_params`` selects how the feedback phase of each sample is
    simulated: "sampled" runs it on a freshly sampled noisy system, while
    "nominal" runs it noiselessly at the parameter prior means so the
    recorded tail controls are a deterministic function of the initial
    state and the randomized leading controls. The recorded trajectory is
    an independent stochastic re-simulation in either case.
    """

    num_samples: int
    horizon: int
    x0_low: np.ndarray = field(
        default_factory=lambda: np.array([-0.5, -0.05, -0.5, -0.05])
    )
    x0_high: np.ndarray = field(
        default_factory=lambda: np.array([0.5, 0.05, 0.5, 0.05])
    )
    control_low: np.ndarray = field(default_factory=lambda: np.zeros(2))
    control_high: np.ndarray = field(default_factory=lambda: np.ones(2))
    num_random_steps: int = 3
    feedback_gain: np.ndarray = field(default_factory=lambda: pd_gain(2.0, 3.0))
    target: np.ndarray = field(
        default_factory=lambda: np.array([10.0, 0.0, 10.0, 0.0])
    )
    tail_params: str = "sampled"

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be at least 1")
        if self.tail_params not in ("sampled", "nominal"):
            raise ValueError(
                f"tail_params must be 'sampled' or 'nominal', got {self.tail_params!r}"
            )
        if not (0 <= self.num_random_steps < self.horizon):
            raise ValueError("num_random_steps must satisfy 0 <= T_r < horizon")
        x0_low, x0_high = _check_box(self.x0_low, self.x0_high, 4, "x0")
        c_low, c_high = _check_box(self.control_low, self.control_high, 2, "control")
        gain = np.asarray(self.feedback_gain, dtype=float)
        target = np.asarray(self.target, dtype=float)
        if gain.shape != (2, 4):
            raise ValueError(f"feedback gain must be 2x4, got {gain.shape}")
        if target.shape != (4,):
            raise ValueError(f"target must be a 4-vector, got {target.shape}")
        object.__setattr__(self, "x0_low", x0_low)
        object.__setattr__(self, "x0_high", x0_high)
        object.__setattr__(self, "control_low", c_low)
        object.__setattr__(self, "control_high", c_high)
        object.__setattr__(self, "feedback_gain", gain)
        object.__setattr__(self, "target", target)


@dataclass(frozen=True)
class LibraryGenConfig:
    """Settings for control-library generation.

    ``grid_resolution`` gives the number of grid points per control
    coordinate on each randomized step; a scalar applies to every coordinate.
    The library size is (prod(grid_resolution))**num_random_steps.
    """

    horizon: int
    grid_resolution: tuple[int, ...] = (3, 3)
    control_low: np.ndarray = field(default_factory=lambda: np.zeros(2))
    control_high: np.ndarray = field(default_factory=lambda: np.ones(2))
    num_random_steps: int = 3
    feedback_gain: np.ndarray = field(default_factory=lambda: pd_gain(2.0, 3.0))
    target: np.ndarray = field(
        default_factory=lambda: np.array([10.0, 0.0, 10.0, 0.0])
    )
    initial_state: np.ndarray = field(default_factory=lambda: np.zeros(4))
    max_sequences: int = 20000

    def __post_init__(self):
        res = self.grid_resolution
        if np.isscalar(res):
            res = (int(res), int(res))
        res = tuple(int(g) for g in res)
        if len(res) != 2 or any(g < 1 for g in res):
            raise ValueError("grid_resolution needs a positive count per coordinate")
        if not (0 <= self.num_random_steps < self.horizon):
            raise ValueError("num_random_steps must satisfy 0 <= T_r < horizon")
        c_low, c_high = _check_box(self.control_low, self.control_high, 2, "control")
        gain = np.asarray(self.feedback_gain, dtype=float)
        target = np.asarray(self.target, dtype=float)
        x0 = np.asarray(self.initial_state, dtype=float)
        if gain.shape != (2, 4) or target.shape != (4,) or x0.shape != (4,):
            raise ValueError("feedback gain must be 2x4; target and x0 4-vectors")
        object.__setattr__(self, "grid_resolution", res)
        object.__setattr__(self, "control_low", c_low)
        object.__setattr__(self, "control_high", c_high)
        object.__setattr__(self, "feedback_gain", gain)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "initial_state", x0)

    @property
    def num_sequences(self) -> int:
        return int(np.prod(self.grid_resolution)) ** self.num_random_steps


@dataclass(frozen=True)
class Dataset:
    """M observed triples (x0, control sequence, resulting trajectory)."""

    initial_states: np.ndarray
    controls: np.ndarray
    trajectories: np.ndarray
    master_seed: int
    config_digest: str

    def __post_init__(self):
        x0 = np.asarray(self.initial_states, dtype=float)
        u = np.asarray(self.controls, dtype=float)
        x = np.asarray(self.trajectories, dtype=float)
        if x0.ndim != 2 or u.ndim != 3 or x.ndim != 3:
            raise ValueError("expected arrays of rank 2 (x0), 3 (u), 3 (x)")
        m_count = x0.shape[0]
        if u.shape[0] != m_count or x.shape[0] != m_count:
            raise ValueError("sample counts disagree across fields")
        if u.shape[1] != x.shape[1]:
            raise ValueError("control and trajectory horizons disagree")
        if x.shape[2] != x0.shape[1]:
            raise ValueError("state dimensions disagree")
        for name, arr in (("x0", x0), ("u", u), ("x", x)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")
        object.__setattr__(self, "initial_states", x0)
        object.__setattr__(self, "controls", u)
        object.__setattr__(self, "trajectories", x)

    @property
    def num_samples(self) -> int:
        return self.initial_states.shape[0]

    @property
    def horizon(self) -> int:
        return self.controls.shape[1]

    @property
    def state_dim(self) -> int:
        return self.initial_states.shape[1]

    @property
    def control_dim(self) -> int:
        return self.controls.shape[2]

    def flattened_controls(self) -> np.ndarray:
        """Control sequences flattened time-major to (M, N*m)."""
        return self.controls.reshape(self.num_samples, -1)


@dataclass(frozen=True)
class ControlLibrary:
    """P candidate open-loop control sequences."""

    sequences: np.ndarray
    master_seed: int
    config_digest: str

    def __post_init__(self):
        seq = np.asarray(self.sequences, dtype=float)
        if seq.ndim != 3:
            raise ValueError("sequences must have shape (P, N, m)")
        if seq.shape[0] < 1:
            raise ValueError("library must contain at least one sequence")
        if not np.all(np.isfinite(seq)):
            raise ValueError("non-finite values in library sequences")
        object.__setattr__(self, "sequences", seq)

    @property
    def num_sequences(self) -> int:
        return self.sequences.shape[0]

    @property
    def horizon(self) -> int:
        return self.sequences.shape[1]

    @property
    def control_dim(self) -> int:
        return self.sequences.shape[2]

    @property
    def content_digest(self) -> str:
        """Digest of the sequence array, for cross-checking saved policies."""
        return digest_of(self.sequences)


def _raise_first_divergence(diverged: np.ndarray) -> None:
    """Raise for the lowest sample whose simulation diverged (step > 0)."""
    failed = np.flatnonzero(diverged)
    if failed.size:
        raise DatasetGenerationError(int(failed[0]), int(diverged[failed[0]]))


def generate_dataset(
    cfg: DatasetGenConfig, model: PlanarQuadrotor, master_seed: int, digest: str | None = None
) -> Dataset:
    """Generate the i.i.d. training dataset.

    Each sample uses an independent random stream derived from
    (master_seed, sample index), so generation order never matters. All
    samples are then simulated together, once with the feedback law to fix
    their control sequences and once more to replay those controls.
    """
    m = model.control_dim
    big_m, big_n = cfg.num_samples, cfg.horizon
    x0s = np.empty((big_m, model.state_dim))
    leading = np.empty((big_m, cfg.num_random_steps, m))
    tail_params = np.empty((big_m, 2))
    tail_noise = np.zeros((big_m, big_n, model.state_dim))
    params = np.empty((big_m, 2))
    noise = np.empty((big_m, big_n, model.state_dim))
    nominal = cfg.tail_params == "nominal"
    if nominal:
        mean = model.mean_params()
        tail_params[:] = (mean.mass, mean.drag)
    for i in range(big_m):
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, i)))
        x0s[i] = rng.uniform(cfg.x0_low, cfg.x0_high)
        leading[i] = rng.uniform(
            cfg.control_low, cfg.control_high, size=(cfg.num_random_steps, m)
        )
        if not nominal:
            tail_params[i], tail_noise[i] = model.draw_realization(rng, big_n)
        # the independent realization that replays the frozen controls gives
        # an unbiased draw from the trajectory law given (x0, u)
        params[i], noise[i] = model.draw_realization(rng, big_n)
    controls, _, tail_diverged = rollout(
        model, x0s, leading, tail_params, tail_noise, cfg.feedback_gain, cfg.target
    )
    # samples from the first feedback divergence on cannot be replayed
    failed = np.flatnonzero(tail_diverged)
    replayed = failed[0] if failed.size else big_m
    _, trajectories, diverged = rollout(
        model,
        x0s[:replayed],
        controls[:replayed],
        params[:replayed],
        noise[:replayed],
    )
    # every replayed sample comes before the first feedback divergence
    _raise_first_divergence(diverged)
    _raise_first_divergence(tail_diverged)
    return Dataset(
        initial_states=x0s,
        controls=controls,
        trajectories=trajectories,
        master_seed=int(master_seed),
        config_digest=digest if digest is not None else digest_of(cfg),
    )


def _grid_values(low, high, count: int) -> np.ndarray:
    """Inclusive-endpoint grid; a single point sits at the box midpoint."""
    if count == 1:
        return np.array([(low + high) / 2.0])
    return np.linspace(low, high, count)


def generate_library(
    cfg: LibraryGenConfig,
    model: PlanarQuadrotor,
    nominal_params: QuadrotorParams,
    digest: str | None = None,
) -> ControlLibrary:
    """Enumerate the control library over the grid of randomized leading steps.

    Grid enumeration is lexicographic with the last coordinate of the last
    randomized step varying fastest. The feedback continuation runs on the
    noiseless nominal system from the configured initial state.
    """
    m = model.control_dim
    total = cfg.num_sequences
    if total > cfg.max_sequences:
        raise ValueError(
            f"library would contain {total} sequences, exceeding the "
            f"configured maximum {cfg.max_sequences}"
        )
    per_coord = [
        _grid_values(cfg.control_low[c], cfg.control_high[c], cfg.grid_resolution[c])
        for c in range(m)
    ]
    # one randomized step ranges over the cartesian product across coordinates
    step_grid = np.stack(
        np.meshgrid(*per_coord, indexing="ij"), axis=-1
    ).reshape(-1, m)
    if cfg.num_random_steps == 0:
        leading_choices = np.empty((1, 0, m))
    else:
        idx = np.stack(
            np.meshgrid(
                *[np.arange(step_grid.shape[0])] * cfg.num_random_steps,
                indexing="ij",
            ),
            axis=-1,
        ).reshape(-1, cfg.num_random_steps)
        leading_choices = step_grid[idx]
    sequences, _, diverged = rollout(
        model,
        np.tile(cfg.initial_state, (total, 1)),
        leading_choices,
        np.tile((nominal_params.mass, nominal_params.drag), (total, 1)),
        np.zeros((total, cfg.horizon, model.state_dim)),
        cfg.feedback_gain,
        cfg.target,
    )
    _raise_first_divergence(diverged)
    return ControlLibrary(
        sequences=sequences,
        master_seed=0,
        config_digest=digest if digest is not None else digest_of(cfg),
    )


def _write_jsonl(path, header: dict, records) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [canonical_json(header)]
    lines.extend(canonical_json(rec) for rec in records)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset as JSON-lines: one header line then one line per sample."""
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "dataset",
        "n": ds.state_dim,
        "m": ds.control_dim,
        "N": ds.horizon,
        "M": ds.num_samples,
        "master_seed": ds.master_seed,
        "config_digest": ds.config_digest,
    }
    records = (
        {"x0": ds.initial_states[i], "u": ds.controls[i], "x": ds.trajectories[i]}
        for i in range(ds.num_samples)
    )
    _write_jsonl(path, header, records)


def save_library(lib: ControlLibrary, path) -> None:
    """Write a control library as JSON-lines, one sequence per line."""
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "library",
        "n": None,
        "m": lib.control_dim,
        "N": lib.horizon,
        "P": lib.num_sequences,
        "master_seed": lib.master_seed,
        "config_digest": lib.config_digest,
    }
    records = ({"u": lib.sequences[j]} for j in range(lib.num_sequences))
    _write_jsonl(path, header, records)


def _read_header(path, expected_kind: str) -> tuple[dict, list[str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataLoadError(path, 0, f"cannot read file: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise DataLoadError(path, 1, "empty file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataLoadError(path, 1, f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataLoadError(path, 1, "header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise DataLoadError(
            path, 1, f"unsupported format_version {header.get('format_version')!r}"
        )
    if header.get("kind") != expected_kind:
        raise DataLoadError(
            path, 1, f"expected kind {expected_kind!r}, found {header.get('kind')!r}"
        )
    return header, lines[1:]


def _parse_record(path, lineno: int, line: str, fields: dict) -> dict:
    """Parse one record line and check every field's shape."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataLoadError(path, lineno, f"malformed record: {exc}") from exc
    out = {}
    for name, shape in fields.items():
        if name not in rec:
            raise DataLoadError(path, lineno, f"record missing field {name!r}")
        arr = np.asarray(rec[name], dtype=float)
        if arr.shape != shape:
            raise DataLoadError(
                path, lineno, f"field {name!r} has shape {arr.shape}, expected {shape}"
            )
        out[name] = arr
    return out


def load_dataset(path) -> Dataset:
    """Load a dataset written by save_dataset; errors name the offending line."""
    header, lines = _read_header(path, "dataset")
    try:
        n, m = int(header["n"]), int(header["m"])
        big_n, big_m = int(header["N"]), int(header["M"])
        seed = int(header["master_seed"])
        digest = str(header["config_digest"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataLoadError(path, 1, f"incomplete header: {exc}") from exc
    if len(lines) != big_m:
        raise DataLoadError(
            path, 1 + len(lines), f"expected {big_m} records, found {len(lines)}"
        )
    x0s = np.empty((big_m, n))
    controls = np.empty((big_m, big_n, m))
    trajectories = np.empty((big_m, big_n, n))
    fields = {"x0": (n,), "u": (big_n, m), "x": (big_n, n)}
    for i, line in enumerate(lines):
        rec = _parse_record(path, i + 2, line, fields)
        x0s[i] = rec["x0"]
        controls[i] = rec["u"]
        trajectories[i] = rec["x"]
    try:
        return Dataset(x0s, controls, trajectories, seed, digest)
    except ValueError as exc:
        raise DataLoadError(path, 1, str(exc)) from exc


def load_library(path) -> ControlLibrary:
    """Load a control library written by save_library."""
    header, lines = _read_header(path, "library")
    try:
        m = int(header["m"])
        big_n, big_p = int(header["N"]), int(header["P"])
        seed = int(header["master_seed"])
        digest = str(header["config_digest"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataLoadError(path, 1, f"incomplete header: {exc}") from exc
    if len(lines) != big_p:
        raise DataLoadError(
            path, 1 + len(lines), f"expected {big_p} records, found {len(lines)}"
        )
    sequences = np.empty((big_p, big_n, m))
    for j, line in enumerate(lines):
        rec = _parse_record(path, j + 2, line, {"u": (big_n, m)})
        sequences[j] = rec["u"]
    try:
        return ControlLibrary(sequences, seed, digest)
    except ValueError as exc:
        raise DataLoadError(path, 1, str(exc)) from exc
