"""One repetition of a workload, in a fresh interpreter.

Run by ``run.py``; not meant to be started by hand. The process measures its
own set-up (from the moment the parent spawned it until ``kernelcc.cli`` is
imported and the config is loaded), then runs the three operations a user
runs, in order, through ``kernelcc.cli.main``:

* cold: ``experiment`` into an empty output directory;
* rerun: ``experiment`` again into the same directory, every stage cached;
* resolve: ``solve`` on that directory (re-fit and re-solve).

rerun and resolve leave the directory as they found it, so each runs as a
batch of repeats, the reruns spread evenly between the resolves. The result,
with the peak RSS of this process and the sha256 of every artifact, goes to a
JSON file.
"""

from __future__ import annotations

# everything else is imported after the set-up measurement, which should
# cover only the interpreter, the kernelcc import and the config load
import argparse
import time

_ARGS = argparse.ArgumentParser()
_ARGS.add_argument("--spawned-at", type=float, required=True)
_ARGS.add_argument("--config", required=True)
_ARGS.add_argument("--out-dir", required=True)
_ARGS.add_argument("--result", required=True)
_ARGS.add_argument("--setup-only", action="store_true")
_ARGS.add_argument("--trace", type=int, default=0)
_ARGS.add_argument("--rerun-repeats", type=int, default=1)
_ARGS.add_argument("--resolve-repeats", type=int, default=1)


def _setup(config_path: str) -> float:
    import kernelcc.cli  # noqa: F401  (the import is what is timed)
    from kernelcc.config import load_config

    load_config(config_path)
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _artifact_digests(out_dir) -> dict[str, str]:
    import hashlib
    from pathlib import Path

    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(out_dir).iterdir())
        if path.is_file()
    }


def _schedule(reruns: int, resolves: int) -> list[tuple[str, str]]:
    """Reruns in even groups around the resolves, e.g. R R S R R S R R S R R.

    The machine's speed drifts over tens of seconds, so rerun samples taken
    in one burst would see a narrower stretch of it than the resolves do.
    """
    order = []
    for group in range(resolves + 1):
        size = round((group + 1) * reruns / (resolves + 1)) - round(
            group * reruns / (resolves + 1)
        )
        order += [("rerun", "experiment")] * size
        if group < resolves:
            order.append(("resolve", "solve"))
    return order


def _run_operations(args) -> dict:
    import contextlib
    import os
    import resource

    import kernelcc.cli

    main = kernelcc.cli.main
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        main = tracer.wrap("cli.main", main)

    def operation(name: str, command: str) -> dict:
        argv = [command, "--config", args.config, "--out-dir", args.out_dir]
        if tracer is not None:
            tracer.reset()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            code = main(argv)
            seconds = time.perf_counter() - start
        record = {"op": name, "seconds": seconds, "failures": []}
        if code != 0:
            record["failures"].append(f"{name}: exit code {code}")
        if tracer is not None:
            record["layers"] = tracer.layer_figures()
            record["spans"] = len(tracer.spans)
        return record

    result = {}
    if tracer is not None:
        from tracing import wrapper_cost

        result["wrapper_cost_s"] = wrapper_cost()
    ops = [operation("cold", "experiment")]
    cold = _artifact_digests(args.out_dir)
    for name, command in _schedule(args.rerun_repeats, args.resolve_repeats):
        ops.append(operation(name, command))
        if _artifact_digests(args.out_dir) != cold:
            ops[-1]["failures"].append(f"{name}: artifacts differ from cold")
    result.update(
        ops=ops,
        cold_digests=cold,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def main() -> None:
    import json

    args = _ARGS.parse_args()
    ready = _setup(args.config)
    result = {"setup_s": ready - args.spawned_at}
    if not args.setup_only:
        result.update(_run_operations(args))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
