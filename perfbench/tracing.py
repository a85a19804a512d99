"""In-memory spans around the functions each kernelcc layer exposes.

Tracing wraps the public names that the program's modules import from one
another (for example ``kernelcc.cli.fit`` or ``kernelcc.policy.rollout``) and
the ``ControlLibrary.content_digest`` property. No program file changes: the
wrappers live only in the traced process.

A span records its name, start, end and the index of its parent span. The
per-layer figures derived from them are

* ``<layer>.<function>_s``: time inside the outermost calls of that function,
  children included (the time the caller waits for it);
* ``<layer>.self_s``: time in that layer's spans not covered by a child span,
  so the self times of all layers add up to the operation's wall time;
* ``..._calls`` counts and byte counts recorded at the same boundaries.

``wrapper_cost`` measures what one span costs, so the tracing overhead of an
operation can be estimated as its span count times that cost.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). Each module is patched at the name it
# imported, so calls made from that module are the ones recorded.
WRAPPED_FUNCTIONS = [
    ("kernelcc.cli", "load_config", "config.load_config"),
    ("kernelcc.cli", "generate_dataset", "data.generate_dataset"),
    ("kernelcc.cli", "generate_library", "data.generate_library"),
    ("kernelcc.cli", "save_dataset", "data.save_dataset"),
    ("kernelcc.cli", "save_library", "data.save_library"),
    ("kernelcc.cli", "load_dataset", "data.load_dataset"),
    ("kernelcc.cli", "load_library", "data.load_library"),
    ("kernelcc.cli", "fit", "embedding.fit"),
    ("kernelcc.solver", "cross_matrix", "embedding.cross_matrix"),
    ("kernelcc.embedding", "gram_product", "kernels.gram_product"),
    ("kernelcc.embedding", "spd_factor", "kernels.spd_factor"),
    ("kernelcc.solver", "spd_solve", "kernels.spd_solve"),
    ("kernelcc.cli", "assemble", "solver.assemble"),
    ("kernelcc.cli", "solve_lp", "solver.solve_lp"),
    ("kernelcc.policy", "indicator_T", "scenario.indicator_T"),
    ("kernelcc.data", "rollout", "systems.rollout"),
    ("kernelcc.policy", "rollout", "systems.rollout"),
    ("kernelcc.cli", "run_monte_carlo", "policy.run_monte_carlo"),
    ("kernelcc.cli", "trajectories_to_csv", "policy.trajectories_to_csv"),
    ("kernelcc.config", "digest_of", "serialize.digest_of"),
    ("kernelcc.data", "digest_of", "serialize.digest_of"),
    ("kernelcc.embedding", "digest_of", "serialize.digest_of"),
]


class Tracer:
    """Collects spans and counters for one operation at a time."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn recording a span; before/after see the call arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if after is not None:
                    after(self, args)

        return traced

    def layer_figures(self) -> dict[str, float]:
        """Inclusive, self and call figures of every span name and layer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        names = [span[0] for span in self.spans]
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += duration - child_time[i]
            out[f"{name}_calls"] += 1
            if not _has_ancestor_named(self.spans, names, parent, name):
                out[f"{name}_s"] += duration
        out.update(self.counters)
        return dict(out)


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds a traced call adds over a plain one, measured on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap("trace.noop", noop)
    timings = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter() - start)
    return max(timings[1] - timings[0], 0.0) / calls


def _has_ancestor_named(spans, names, parent, name) -> bool:
    while parent is not None:
        if names[parent] == name:
            return True
        parent = spans[parent][3]
    return False


def _file_size(position: int, counter: str):
    def record(tracer: Tracer, args) -> None:
        tracer.counters[counter] += os.path.getsize(args[position])

    return record


def _work_items(counter: str, items):
    def record(tracer: Tracer, args) -> None:
        tracer.counters[counter] += items(args)

    return record


def _pair_candidates(args) -> int:
    # solve_lp weighs every infeasible element against every feasible one
    inst = args[0]
    feasible = int(np.count_nonzero(inst.safety_row >= inst.threshold))
    return feasible * (inst.num_sequences - feasible)


# counters recorded at span boundaries: (before the call, after the call);
# files are measured after a save and before a load
SPAN_HOOKS = {
    "data.generate_dataset": (
        _work_items("data.samples", lambda args: args[0].num_samples),
        None,
    ),
    "data.generate_library": (
        _work_items("data.sequences", lambda args: args[0].num_sequences),
        None,
    ),
    "data.save_dataset": (None, _file_size(1, "data.jsonl_bytes")),
    "data.save_library": (None, _file_size(1, "data.jsonl_bytes")),
    "data.load_dataset": (_file_size(0, "data.jsonl_bytes"), None),
    "data.load_library": (_file_size(0, "data.jsonl_bytes"), None),
    "solver.solve_lp": (_work_items("solver.pair_candidates", _pair_candidates), None),
    "policy.run_monte_carlo": (
        _work_items("policy.trials", lambda args: int(args[4])),
        None,
    ),
    "policy.trajectories_to_csv": (None, _file_size(1, "policy.csv_bytes")),
}


def install(tracer: Tracer) -> None:
    """Patch every traced name in the imported kernelcc modules."""
    from kernelcc.data import ControlLibrary

    for module_name, attr, span_name in WRAPPED_FUNCTIONS:
        module = importlib.import_module(module_name)
        before, after = SPAN_HOOKS.get(span_name, (None, None))
        setattr(
            module,
            attr,
            tracer.wrap(span_name, getattr(module, attr), before, after),
        )
    digest = ControlLibrary.content_digest.fget
    ControlLibrary.content_digest = property(
        tracer.wrap("data.content_digest", digest)
    )
