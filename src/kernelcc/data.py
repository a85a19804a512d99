"""Dataset and control-library generation, their keys and JSON-lines persistence.

Every control sequence, of a dataset sample or of the library, starts with
a few leading controls from a control box and is completed by one function,
``_complete``: it continues with a linear feedback law simulated noiselessly
on the nominal system, whose parameters are the prior means. Box and law are
one ``ControlLawSpec``; the dataset and the library each have their own.

Dataset protocol, per sample: draw an initial state uniformly from a box and
the leading controls uniformly from the control box, complete the sequence,
then simulate the frozen control sequence open-loop on a fresh realization
of the stochastic system. The recorded trajectory therefore is a draw from
the conditional law of trajectories given (x0, u), which makes the samples
i.i.d.

The control library enumerates a uniform grid over the control box on the
leading steps and completes each sequence from its configured initial state.

Each artifact records a key, a digest of every input it was generated from
(``dataset_key``, ``library_key``), so a cached file is reused only while
those inputs are unchanged. Its header line also records the sha256 of the
rest of the file, so ``read_header`` checks that a file is intact without
decoding its records.

After the header, each field is one record line, in sorted field order:
the canonical JSON object that maps the field to the base64 of the whole
array's little-endian float64 bytes in C order, not to decimal text. The
bytes round-trip exactly, and each array encodes and decodes in one call,
without formatting or parsing a float. The loader accepts a record line only
in that canonical spelling, and reads the file one record line at a time.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .serialize import array_digest, canonical_json, check_finite, digest_of, integer
from .systems import PlanarQuadrotor, draw_streams, rollout

FORMAT_VERSION = 4


class DataLoadError(ValueError):
    """Raised when a dataset/library file is malformed; names the bad line."""

    def __init__(self, path, line: int, reason: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {reason}")


class DatasetGenerationError(RuntimeError):
    """Raised when the simulation of a dataset sample or a library sequence
    diverges; names the item ("dataset sample" or "library sequence"), its
    index and the 1-based step."""

    def __init__(self, item: str, index: int, step: int):
        self.index = index
        self.step = step
        super().__init__(f"{item} {index} diverged at simulation step {step}")


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


def _check_state(value, name):
    """value as a finite float 4-vector, or a ValueError naming it."""
    x = np.asarray(value, dtype=float)
    if x.shape != (4,):
        raise ValueError(f"{name} must be a 4-vector, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite, got {x.tolist()}")
    return x


@dataclass(frozen=True, kw_only=True)
class ControlLawSpec:
    """The exploration law the dataset and the library share.

    The first ``num_random_steps`` controls of a sequence lie in the box
    [control_low, control_high]; the rest of its ``horizon`` steps follow
    u = feedback_gain @ (x - target).
    """

    horizon: int
    control_low: np.ndarray = field(default_factory=lambda: np.zeros(2))
    control_high: np.ndarray = field(default_factory=lambda: np.ones(2))
    num_random_steps: int = 3
    feedback_gain: np.ndarray = field(default_factory=lambda: pd_gain(2.0, 3.0))
    target: np.ndarray = field(
        default_factory=lambda: np.array([10.0, 0.0, 10.0, 0.0])
    )

    def __post_init__(self):
        for name in ("horizon", "num_random_steps"):
            integer(getattr(self, name), name)
        if not (0 <= self.num_random_steps < self.horizon):
            raise ValueError("num_random_steps must satisfy 0 <= T_r < horizon")
        c_low, c_high = _check_box(self.control_low, self.control_high, 2, "control")
        gain = np.asarray(self.feedback_gain, dtype=float)
        if gain.shape != (2, 4):
            raise ValueError(f"feedback gain must be 2x4, got {gain.shape}")
        target = _check_state(self.target, "target")
        object.__setattr__(self, "control_low", c_low)
        object.__setattr__(self, "control_high", c_high)
        object.__setattr__(self, "feedback_gain", gain)
        object.__setattr__(self, "target", target)


@dataclass(frozen=True)
class DatasetGenConfig(ControlLawSpec):
    """Settings for dataset generation: the law, a sample count and the box
    the initial states are drawn from."""

    num_samples: int
    x0_low: np.ndarray = field(
        default_factory=lambda: np.array([-0.5, -0.05, -0.5, -0.05])
    )
    x0_high: np.ndarray = field(
        default_factory=lambda: np.array([0.5, 0.05, 0.5, 0.05])
    )

    def __post_init__(self):
        super().__post_init__()
        if integer(self.num_samples, "num_samples") < 1:
            raise ValueError("num_samples must be at least 1")
        x0_low, x0_high = _check_box(self.x0_low, self.x0_high, 4, "x0")
        object.__setattr__(self, "x0_low", x0_low)
        object.__setattr__(self, "x0_high", x0_high)


@dataclass(frozen=True)
class LibraryGenConfig(ControlLawSpec):
    """Settings for control-library generation.

    ``grid_resolution`` gives the number of grid points per control
    coordinate on each randomized step.
    The library size is (prod(grid_resolution))**num_random_steps.
    """

    grid_resolution: tuple[int, ...] = (3, 3)
    initial_state: np.ndarray = field(default_factory=lambda: np.zeros(4))
    max_sequences: int = 20000

    def __post_init__(self):
        super().__post_init__()
        res = tuple(integer(g, "grid_resolution") for g in self.grid_resolution)
        if len(res) != 2 or any(g < 1 for g in res):
            raise ValueError("grid_resolution needs a positive count per coordinate")
        x0 = _check_state(self.initial_state, "initial_state")
        object.__setattr__(self, "grid_resolution", res)
        object.__setattr__(self, "initial_state", x0)
        if self.num_sequences > integer(self.max_sequences, "max_sequences"):
            raise ValueError(
                f"library would contain {self.num_sequences} sequences, "
                f"exceeding max_sequences={self.max_sequences}"
            )

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
        # a private read-only copy, so the digest content_digest keeps
        # cannot go stale
        seq = np.array(self.sequences, dtype=float)
        if seq.ndim != 3:
            raise ValueError("sequences must have shape (P, N, m)")
        if seq.shape[0] < 1:
            raise ValueError("library must contain at least one sequence")
        if not np.all(np.isfinite(seq)):
            raise ValueError("non-finite values in library sequences")
        seq.flags.writeable = False
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
        """Digest of the sequences' shape and bytes, for checking saved policies."""
        if "_content_digest" not in self.__dict__:
            object.__setattr__(self, "_content_digest", array_digest(self.sequences))
        return self.__dict__["_content_digest"]


def dataset_key(cfg: DatasetGenConfig, model: PlanarQuadrotor) -> str:
    """Digest of every input of a dataset but its seed: dynamics and settings.

    Keys are digests of parsed values, so spelling out a default in a config
    file never changes them.
    """
    return digest_of(
        {
            "dt": model.dt,
            "prior": model.prior,
            "disturbance": model.disturbance,
            "dataset": cfg,
        }
    )


def library_key(cfg: LibraryGenConfig, model: PlanarQuadrotor) -> str:
    """Digest of every input of a library: dt, its settings and the nominal
    parameters, the prior means."""
    return digest_of({"dt": model.dt, "library": cfg, "nominal": model.mean_params()})


def _raise_first_divergence(diverged: np.ndarray, item: str) -> None:
    """Raise for the lowest item whose simulation diverged (step > 0)."""
    failed = np.flatnonzero(diverged)
    if failed.size:
        raise DatasetGenerationError(item, int(failed[0]), int(diverged[failed[0]]))


def _complete(
    law: ControlLawSpec, model: PlanarQuadrotor, x0s: np.ndarray, leading: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (K, N, 2) control sequences that start from the K states ``x0s``
    with the ``leading`` controls and continue with the law's feedback on
    the noiseless nominal system, and the 1-based step at which each
    diverged (0 if it did not)."""
    k_count = len(x0s)
    mean = model.mean_params()
    controls, _, diverged = rollout(
        model,
        x0s,
        leading,
        np.tile((mean["mass"], mean["drag"]), (k_count, 1)),
        np.zeros((k_count, law.horizon, model.state_dim)),
        law.feedback_gain,
        law.target,
    )
    return controls, diverged


def generate_dataset(
    cfg: DatasetGenConfig, model: PlanarQuadrotor, master_seed: int
) -> Dataset:
    """Generate the i.i.d. training dataset.

    Each sample uses an independent random stream derived from
    (master_seed, sample index), so generation order never matters. All
    samples are then simulated together, once on the nominal system to
    complete their control sequences and once on a realization drawn from
    the stream to replay those controls.
    """
    big_m, big_n = cfg.num_samples, cfg.horizon
    u_x0, u_leading, *realization = draw_streams(
        master_seed,
        big_m,
        [
            ("uniform", (model.state_dim,)),
            ("uniform", (cfg.num_random_steps, model.control_dim)),
            *model.realization_pieces(big_n),
        ],
    )
    x0s = cfg.x0_low + (cfg.x0_high - cfg.x0_low) * u_x0
    leading = cfg.control_low + (cfg.control_high - cfg.control_low) * u_leading
    params, noise = model.realizations(*realization)
    controls, tail_diverged = _complete(cfg, model, x0s, leading)
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
    _raise_first_divergence(diverged, "dataset sample")
    _raise_first_divergence(tail_diverged, "dataset sample")
    return Dataset(
        initial_states=x0s,
        controls=controls,
        trajectories=trajectories,
        master_seed=int(master_seed),
        config_digest=dataset_key(cfg, model),
    )


def _grid_values(low, high, count: int) -> np.ndarray:
    """Inclusive-endpoint grid; a single point sits at the box midpoint."""
    if count == 1:
        return np.array([(low + high) / 2.0])
    return np.linspace(low, high, count)


def generate_library(cfg: LibraryGenConfig, model: PlanarQuadrotor) -> ControlLibrary:
    """Enumerate the control library over the grid of randomized leading steps.

    Grid enumeration is lexicographic with the last coordinate of the last
    randomized step varying fastest. Each sequence is completed from the
    configured initial state.
    """
    m = model.control_dim
    per_coord = [
        _grid_values(cfg.control_low[c], cfg.control_high[c], cfg.grid_resolution[c])
        for c in range(m)
    ]
    # one randomized step ranges over the cartesian product across coordinates
    step_grid = np.stack(
        np.meshgrid(*per_coord, indexing="ij"), axis=-1
    ).reshape(-1, m)
    # every choice of grid point per step, the last step varying fastest;
    # zero steps give the one empty choice
    steps, size = cfg.num_random_steps, step_grid.shape[0]
    choices = np.indices((size,) * steps).reshape(steps, size**steps).T
    x0s = np.tile(cfg.initial_state, (len(choices), 1))
    sequences, diverged = _complete(cfg, model, x0s, step_grid[choices])
    _raise_first_divergence(diverged, "library sequence")
    return ControlLibrary(
        sequences=sequences, master_seed=0, config_digest=library_key(cfg, model)
    )


# per kind: the header key counting its samples or sequences, and for each
# field the header keys that give the shape of one sample or sequence
_LAYOUTS = {
    "dataset": ("M", {"x0": ("n",), "u": ("N", "m"), "x": ("N", "n")}),
    "library": ("P", {"u": ("N", "m")}),
}


class JsonlHeader(NamedTuple):
    """The checked header line of a dataset or library file."""

    kind: str
    count: int
    master_seed: int
    config_digest: str
    sha256: str
    shapes: dict


def _content_hash(header: dict):
    """A sha256 fed a header's fields other than ``sha256``, in canonical
    form, and the newline that ends the header line. Fed the bytes after that
    line as well, it is the digest the header records."""
    fields = {key: value for key, value in header.items() if key != "sha256"}
    return hashlib.sha256((canonical_json(fields) + "\n").encode("utf-8"))


def _affixes(name: str) -> tuple[bytes, bytes]:
    """The bytes around the base64 on the record line of field ``name``."""
    return f'{{"{name}":"'.encode(), b'"}\n'


def _save_jsonl(path, kind: str, fields: dict, master_seed, config_digest) -> None:
    """Write a header line, then one record per array in fields, in sorted
    field order.

    The header's sizes are read off the arrays' shapes by ``_LAYOUTS``, the
    table the loader reads them back by. A record maps its field to the
    base64 of the whole array's little-endian float64 bytes in C order. The
    header's ``sha256`` covers every other byte of the file, so an edit
    anywhere in it shows.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {"format_version": FORMAT_VERSION, "kind": kind}
    header.update(master_seed=master_seed, config_digest=config_digest)
    count_key, field_shapes = _LAYOUTS[kind]
    for name, keys in field_shapes.items():
        header[count_key], *sizes = fields[name].shape
        header.update(zip(keys, sizes))
    # base64 needs no JSON escaping, so each record is written as
    # canonical_json would write it
    records = []
    for name in sorted(fields):
        values = np.ascontiguousarray(fields[name], dtype="<f8")
        check_finite(values)
        head, tail = _affixes(name)
        records += [head, base64.b64encode(values), tail]
    content = _content_hash(header)
    for piece in records:
        content.update(piece)
    head = canonical_json({**header, "sha256": content.hexdigest()}) + "\n"
    with path.open("wb") as handle:
        handle.write(head.encode("utf-8"))
        handle.writelines(records)


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset as JSON-lines: one header line, then one line per
    field (u, x, x0), each holding the field for every sample."""
    fields = {"x0": ds.initial_states, "u": ds.controls, "x": ds.trajectories}
    _save_jsonl(path, "dataset", fields, ds.master_seed, ds.config_digest)


def save_library(lib: ControlLibrary, path) -> None:
    """Write a control library as JSON-lines: one header line, then one line
    (u) holding every sequence."""
    fields = {"u": lib.sequences}
    _save_jsonl(path, "library", fields, lib.master_seed, lib.config_digest)


def _parse_header(path, line: bytes, kind: str):
    """The first line of a ``kind`` file, up to and with its newline, as a
    JsonlHeader, and its _content_hash.

    Errors name line 1; only a file with no bytes at all is empty.
    """
    if not line:
        raise DataLoadError(path, 1, "empty file")
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise DataLoadError(path, 1, f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataLoadError(path, 1, "header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise DataLoadError(
            path, 1, f"unsupported format_version {header.get('format_version')!r}"
        )
    if header.get("kind") != kind:
        raise DataLoadError(
            path, 1, f"expected kind {kind!r}, found {header.get('kind')!r}"
        )
    count_key, field_shapes = _LAYOUTS[kind]
    used = {key for shape in field_shapes.values() for key in shape}
    dim_keys = [key for key in ("n", "m", "N") if key in used]
    try:
        # checked in this order, so a header missing several keys names n first
        ints = {key: header[key] for key in [*dim_keys, count_key, "master_seed"]}
        digest = str(header["config_digest"])
        sha256 = str(header["sha256"])
    except KeyError as exc:
        raise DataLoadError(path, 1, f"incomplete header: {exc}") from exc
    for key, value in ints.items():
        # only a JSON integer parses to int; bool subclasses int, so the type
        # is compared exactly and 2.5, 1000.0, "3" and true are all rejected
        if type(value) is not int:
            raise DataLoadError(path, 1, f"header {key}={value!r} is not an integer")
    for key in dim_keys:
        if ints[key] < 0:
            raise DataLoadError(path, 1, f"negative dimension {key}={ints[key]}")
    try:
        content = _content_hash(header)
    except ValueError as exc:
        raise DataLoadError(path, 1, f"malformed header: {exc}") from exc
    shapes = {
        name: tuple(ints[key] for key in shape) for name, shape in field_shapes.items()
    }
    seed = ints["master_seed"]
    return JsonlHeader(kind, ints[count_key], seed, digest, sha256, shapes), content


def _check_sha256(path, header: JsonlHeader, content) -> None:
    if content.hexdigest() != header.sha256:
        raise DataLoadError(path, 1, "file content does not match the header's sha256")


def read_header(path, kind: str) -> JsonlHeader:
    """The header of a ``kind`` ("dataset" or "library") file whose bytes
    match its sha256, checked as load_dataset and load_library check it.

    Only the header line is decoded; the records are hashed in chunks. So
    this checks that a file is intact without loading it.
    """
    try:
        with Path(path).open("rb") as handle:
            header, content = _parse_header(path, handle.readline(), kind)
            while chunk := handle.read(1 << 20):
                content.update(chunk)
    except OSError as exc:
        raise DataLoadError(path, 0, f"cannot read file: {exc}") from exc
    _check_sha256(path, header, content)
    return header


def _load_jsonl(path, kind: str, build):
    """Read a file _save_jsonl wrote, a record line at a time, and return
    ``build(*arrays, seed, digest)``.

    Errors name the offending line (the header is line 1): a field with a
    non-finite value is reported against its record line, and what else
    ``build`` refuses against the header, whose shapes the fields take.
    The sha256 of the bytes read is checked last, so a malformed line is
    reported as what it is.
    """
    try:
        with Path(path).open("rb") as handle:
            header, content = _parse_header(path, handle.readline(), kind)
            arrays = {}
            for lineno, name in enumerate(sorted(header.shapes), 2):
                line = handle.readline()
                content.update(line)
                head, tail = _affixes(name)
                if not line.startswith(head[:-1]):
                    expected = f'expected the record {{"{name}":"<base64>"}}'
                    raise DataLoadError(path, lineno, expected)
                if not (line.startswith(head) and line.endswith(tail)):
                    reason = f"field {name!r} is not numeric: not a string"
                    raise DataLoadError(path, lineno, reason)
                value = line[len(head) : -len(tail)]
                # each buffer is dropped once used, so no record is held twice
                del line
                shape = (header.count, *header.shapes[name])
                arrays[name] = _decode(path, lineno, name, value, shape)
                del value
            if handle.readline():
                raise DataLoadError(path, lineno + 1, "a record after the last field")
    except OSError as exc:
        raise DataLoadError(path, 0, f"cannot read file: {exc}") from exc
    fields = (arrays[name] for name in header.shapes)
    try:
        artifact = build(*fields, header.master_seed, header.config_digest)
    except ValueError as exc:
        raise DataLoadError(path, 1, str(exc)) from exc
    _check_sha256(path, header, content)
    return artifact


def _decode(path, lineno: int, name: str, value: bytes, shape: tuple) -> np.ndarray:
    """The finite float64 array of ``shape`` whose bytes ``value`` holds in
    strict base64, or a DataLoadError naming the line and the field."""
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:
        reason = f"field {name!r} is not numeric: not base64: {exc}"
        raise DataLoadError(path, lineno, reason) from exc
    size = 8 * math.prod(shape)
    if len(raw) != size:
        reason = f"holds {len(raw)} bytes, expected {size} for float64 shape {shape}"
        raise DataLoadError(path, lineno, f"field {name!r} {reason}")
    array = np.frombuffer(raw, "<f8").reshape(shape)
    if not np.isfinite(array).all():
        raise DataLoadError(path, lineno, f"non-finite values in {name}")
    return array


def load_dataset(path) -> Dataset:
    """Load a dataset written by save_dataset; errors name the offending line."""
    return _load_jsonl(path, "dataset", Dataset)


def load_library(path) -> ControlLibrary:
    """Load a control library written by save_library; errors name the
    offending line."""
    return _load_jsonl(path, "library", ControlLibrary)
