"""Checks that the benchmark's tracer still finds the names it patches.

``perfbench/tracing.py`` wraps functions at the names the program's modules
import from one another. A refactor that renames or stops importing one of
them breaks ``perfbench/run.py --trace 1``; these tests catch that here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = load_tracing().WRAPPED_FUNCTIONS


@pytest.mark.parametrize(
    "module_name, attr",
    [(module_name, attr) for module_name, attr, _ in WRAPPED],
    ids=[f"{module_name}.{attr}" for module_name, attr, _ in WRAPPED],
)
def test_wrapped_function_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_content_digest_is_a_property():
    from kernelcc.data import ControlLibrary

    assert isinstance(ControlLibrary.content_digest, property)
