"""Canonical JSON and CSV serialization and content digests.

All persisted artifacts are JSON with sorted keys and compact separators,
so equal values always produce byte-identical text. Floats are rendered by
Python's shortest round-trip repr, so 64-bit floats survive a save/load round
trip exactly; the records of the dataset and library files are the
exception: each holds one whole array's float64 bytes in base64 instead (see
``kernelcc.data``).

A numeric array is checked for non-finite values with one ``np.isfinite``
over the whole array and converted with one ``tolist``, which yields the same
Python numbers, and so the same text, as converting element by element.

CSV cells follow the same rule: a number is written by its shortest
round-trip repr.

There are two content digests. ``digest_of`` hashes the canonical JSON text
of a value and keys every artifact by its inputs. ``array_digest`` hashes an
array's shape and its little-endian float64 bytes, with no text in between,
and identifies the content of a library, which can hold millions of floats.

``integer`` is the one rule for a count or an index, whether a config file
or a caller gives it: a bool, a float or a string is not an integer, whatever
its value. ``real`` is the one rule for a real number: an int or a float,
never a bool or a string.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np


def check_finite(array: np.ndarray) -> None:
    """Raise a ValueError naming the first non-finite value of a numeric array."""
    finite = np.isfinite(array)
    if not finite.all():
        first = array[~finite][0].item()
        raise ValueError(f"non-finite value {first} cannot be serialized")


# the types a JSON value already is, taken exactly: no subclass
_PLAIN = frozenset({str, int, bool, type(None)})


def jsonable(obj):
    """Recursively convert arrays, numpy scalars, and dataclasses to JSON types.

    Most of a record is exact str, int, bool, None, finite float and plain
    list values; those are taken by their exact type first, before the
    checks for arrays, numpy scalars and dataclasses.
    """
    kind = type(obj)
    if kind in _PLAIN:
        return obj
    if kind is float and math.isfinite(obj):
        return obj
    if kind is list:
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "biuf":
            return jsonable(obj.tolist())
        check_finite(obj)
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        # a non-finite float is refused below, as a Python float is
        return jsonable(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        raise ValueError(f"non-finite value {obj} cannot be serialized")
    return obj


def integer(value, name: str = "") -> int:
    """value as an int, or a ValueError that starts with ``name``, if given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}".lstrip())
    return int(value)


def real(value, name: str = "") -> float:
    """value as a float, or a ValueError that starts with ``name``, if given."""
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ValueError(f"{name} must be a real number, got {value!r}".lstrip())
    return float(value)


def canonical_json(obj) -> str:
    """Deterministic single-line JSON: sorted keys, no whitespace."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def write_csv(path, header, rows) -> None:
    """Write a header and rows as CSV with Unix line ends.

    Strings are written bare, numbers by repr and None as an empty cell.
    Cells must be Python values (``tolist()`` an array first): the repr of a
    numpy scalar is not the number's.
    """

    def cell(value) -> str:
        if value is None:
            return ""
        return value if isinstance(value, str) else repr(value)

    lines = (",".join(cell(value) for value in row) + "\n" for row in rows)
    write_csv_text(path, header, lines)


def write_csv_text(path, header, text) -> None:
    """Write a header, then ``text``: strings of whole CSV lines, each line
    formatted by the cell rule of ``write_csv`` and ending in a newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(text)


def digest_of(obj) -> str:
    """sha256 hex digest of the canonical JSON form of obj."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def array_digest(array) -> str:
    """sha256 hex digest of an array's shape and little-endian float64 values.

    The number of dimensions and each extent go first, as little-endian
    int64, then the values in C order. So the same values in another shape
    give another digest, and a big-endian array the digest of its
    little-endian copy. A C-contiguous little-endian float64 array is hashed
    without a copy.
    """
    values = np.ascontiguousarray(array, dtype="<f8")
    digest = hashlib.sha256(
        np.array([values.ndim, *values.shape], dtype="<i8").tobytes()
    )
    digest.update(values)
    return digest.hexdigest()
