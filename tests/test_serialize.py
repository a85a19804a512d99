"""Tests for canonical JSON and CSV serialization and content digests."""

import csv
import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from kernelcc.data import LibraryGenConfig, generate_library
from kernelcc.serialize import array_digest, canonical_json, digest_of, write_csv
from kernelcc.systems import ParamPrior, PlanarQuadrotor


def loop_jsonable(obj):
    """Element-by-element reference: every float is checked on its own."""
    if isinstance(obj, np.ndarray):
        return loop_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return loop_jsonable(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: loop_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): loop_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [loop_jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        raise ValueError(f"non-finite value {obj} cannot be serialized")
    return obj


def loop_json(obj) -> str:
    return json.dumps(loop_jsonable(obj), sort_keys=True, separators=(",", ":"))


@dataclasses.dataclass(frozen=True)
class Holder:
    name: str
    values: np.ndarray
    extra: tuple


def awkward_floats(shape, seed=0, dtype=np.float64):
    """Random floats plus values whose repr is easy to get wrong."""
    rng = np.random.default_rng(seed)
    arr = rng.normal(scale=1e3, size=shape).astype(dtype)
    info = np.finfo(dtype)
    flat = arr.reshape(-1)
    flat[:6] = [-0.0, info.smallest_subnormal, info.max / 3, -info.max, 0.1, 1.0 / 3.0]
    return arr


ARRAYS = {
    "float64": awkward_floats((7, 5, 2)),
    "float32": awkward_floats((4, 3, 2), dtype=np.float32),
    "int64": np.arange(-6, 6, dtype=np.int64).reshape(3, 4),
    "uint8": np.arange(250, 256, dtype=np.uint8),
    "bool": np.array([[True, False], [False, True]]),
    "zero_d_float": np.array(-2.5e-8),
    "zero_d_int": np.array(7),
    "zero_d_bool": np.array(False),
    "empty": np.empty((0, 3)),
    "transposed": awkward_floats((3, 4, 2), seed=1).transpose(2, 0, 1),
    "strided": awkward_floats((6, 6), seed=2)[::2, 1::3],
}


class TestCanonicalJson:
    @pytest.mark.parametrize("arr", ARRAYS.values(), ids=ARRAYS.keys())
    def test_array_matches_loop_reference(self, arr):
        assert canonical_json(arr) == loop_json(arr)

    @pytest.mark.parametrize("arr", ARRAYS.values(), ids=ARRAYS.keys())
    def test_nested_array_matches_loop_reference(self, arr):
        obj = {
            "b": [arr, {"inner": arr}],
            "a": Holder("h", arr, (arr, np.float64(0.25), np.int32(3))),
            3: np.bool_(True),
        }
        assert canonical_json(obj) == loop_json(obj)

    # plain lists as a report's to_dict holds them (trial_indices,
    # trial_feasible), and lists that mix in numpy scalars and subclasses
    PLAIN_LISTS = {
        "ints": np.arange(-500, 1500).tolist(),
        "bools": (np.arange(2000) % 7 != 3).tolist(),
        "floats": awkward_floats((2000,), seed=4).tolist(),
        "numpy_scalars": [np.float64(0.1), np.int64(-3), np.bool_(False), 2.5, 7],
        "nested": [[1, [True, None, "s"]], [-0.0, [np.float32(0.5), (3, 4.25)]]],
        "subclasses": [np.float64(1.0 / 3.0), type("Float", (float,), {})(2.5)],
    }

    @pytest.mark.parametrize("values", PLAIN_LISTS.values(), ids=PLAIN_LISTS.keys())
    def test_plain_list_matches_loop_reference(self, values):
        obj = {"report": {"values": values, "trials": len(values)}}
        assert canonical_json(obj) == loop_json(obj)

    def test_round_trips_doubles_exactly(self):
        arr = ARRAYS["float64"]
        back = np.array(json.loads(canonical_json(arr)))
        np.testing.assert_array_equal(back, arr)
        assert np.array_equal(np.signbit(back), np.signbit(arr))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_deep_value_named(self, bad, dtype):
        arr = awkward_floats((9, 6, 2), dtype=dtype)
        arr[7, 4, 1] = bad
        with pytest.raises(ValueError) as caught:
            canonical_json({"u": arr})
        assert str(caught.value) == f"non-finite value {float(bad)} cannot be serialized"
        with pytest.raises(ValueError) as expected:
            loop_json({"u": arr})
        assert str(caught.value) == str(expected.value)

    def test_first_bad_value_in_row_major_order(self):
        arr = np.zeros((3, 2, 2))
        arr[2, 0, 0] = np.nan
        arr[0, 1, 1] = -np.inf
        # a column-major copy must still report the row-major first
        for view in (arr, np.asfortranarray(arr)):
            with pytest.raises(ValueError, match="non-finite value -inf"):
                canonical_json(view)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_deep_float_in_plain_list_named(self, bad):
        values = [[0.5 * k, [True, k, float(k)]] for k in range(400)]
        values[377][1].append(float(bad))
        with pytest.raises(ValueError) as caught:
            canonical_json({"report": {"trial_values": values}})
        assert str(caught.value) == f"non-finite value {float(bad)} cannot be serialized"
        with pytest.raises(ValueError) as expected:
            loop_json({"report": {"trial_values": values}})
        assert str(caught.value) == str(expected.value)

    def test_zero_d_nan(self):
        with pytest.raises(ValueError, match="non-finite value nan"):
            canonical_json(np.array(np.nan))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_numpy_scalar_named(self, bad, dtype):
        # a numpy scalar is checked as the Python float it converts to
        for value in ({"a": dtype(bad)}, {"b": [dtype(bad)]}):
            with pytest.raises(ValueError) as caught:
                canonical_json(value)
            assert str(caught.value) == f"non-finite value {float(bad)} cannot be serialized"
            with pytest.raises(ValueError) as expected:
                loop_json(value)
            assert str(caught.value) == str(expected.value)


def csv_writer_reference(path, header, rows):
    """What csv.writer writes: str() of each cell, None as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


CSV_TABLES = {
    # a finite and a diverged (NaN) trial row, as trajectories_to_csv writes
    "trajectories": (
        ["trial", "step", "s0", "s1", "s2", "s3", "feasible"],
        [
            [0, 1, *awkward_floats((6,), seed=3).tolist()[:4], 1],
            [0, 2, -0.0, 1e-300, 5e-324, 1.0 / 3.0, 1],
            [1, 1, float("nan"), float("nan"), float("nan"), float("nan"), 0],
        ],
    ),
    # a feasible row and an infeasible one with empty Monte-Carlo cells
    "summary": (
        ["delta", "status", "objective", "success_rate", "trials"],
        [
            [0.05, "optimal", 2.718281828459045, 0.967, 1000],
            [0.3, "infeasible", None, None, None],
        ],
    ),
    "header_only": (["a", "b"], []),
}


class TestWriteCsv:
    @pytest.mark.parametrize("header, rows", CSV_TABLES.values(), ids=CSV_TABLES.keys())
    def test_matches_csv_writer(self, tmp_path, header, rows):
        path, reference = tmp_path / "out.csv", tmp_path / "ref.csv"
        write_csv(path, header, iter(rows))
        csv_writer_reference(reference, header, rows)
        assert path.read_bytes() == reference.read_bytes()


class TestArrayDigest:
    ARRAY = np.arange(12, dtype=float).reshape(2, 3, 2) / 7.0

    def test_hashes_shape_then_little_endian_values(self):
        header = struct.pack("<4q", 3, 2, 3, 2)
        values = struct.pack("<12d", *self.ARRAY.ravel().tolist())
        assert array_digest(self.ARRAY) == hashlib.sha256(header + values).hexdigest()

    @pytest.mark.parametrize("shape", [(3, 2, 2), (12,), (2, 6), (1, 2, 3, 2)])
    def test_same_bytes_in_another_shape_differ(self, shape):
        assert array_digest(self.ARRAY.reshape(shape)) != array_digest(self.ARRAY)

    @pytest.mark.parametrize(
        "copy",
        [
            lambda a: a.astype(">f8"),
            lambda a: np.asfortranarray(a),
            lambda a: np.repeat(a, 2, axis=2)[..., ::2],
        ],
        ids=["big_endian", "fortran_order", "strided_view"],
    )
    def test_same_values_in_any_layout_agree(self, copy):
        assert array_digest(copy(self.ARRAY)) == array_digest(self.ARRAY)


class TestPinnedDigests:
    # digest_of recorded before arrays were serialized in one pass; the
    # library digest since it hashes the sequence bytes (policy format 4).
    # A change here invalidates every saved policy's library digest

    def test_digest_of_small_array(self):
        arr = np.arange(12, dtype=float).reshape(2, 3, 2) / 7.0
        assert digest_of(arr) == (
            "011eab0197bd5ed342ba80ec7b2f5d6eff036f0eba2812a6b362063e0b7f5713"
        )

    def test_library_content_digest(self):
        cfg = LibraryGenConfig(horizon=8, grid_resolution=(2, 2), num_random_steps=2)
        lib = generate_library(cfg, PlanarQuadrotor(prior=ParamPrior.point(1.0, 0.005)))
        assert lib.content_digest == (
            "e65524d8d83f16c8dcf88f5475e649c4c764cd2bf81f75221afd96d028e82988"
        )
