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


TRACING_MODULE = load_tracing()
WRAPPED = TRACING_MODULE.WRAPPED_FUNCTIONS


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


def test_solve_lp_hook_reads_a_real_instance():
    # the hook counts pairs from safety_row, threshold and num_sequences, so a
    # renamed LPInstance field fails here rather than in a traced benchmark run
    from kernelcc.solver import LPInstance

    before, _ = TRACING_MODULE.SPAN_HOOKS["solver.solve_lp"]
    inst = LPInstance(
        cost_row=[1.0, 2.0, 3.0, 4.0], safety_row=[0.5, 0.6, 0.9, 0.95], threshold=0.8
    )
    tracer = TRACING_MODULE.Tracer()
    before(tracer, (inst,))
    assert tracer.counters["solver.pair_candidates"] == 4
