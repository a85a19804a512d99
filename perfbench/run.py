"""kernelcc benchmark: the user-facing pipeline on generated workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload deep_dataset --seed 101 --seconds 60 --trace 0

Each workload's config is derived from ``configs/experiment.json`` and the
seed, and written to a scratch directory inside the checkout; the program
receives only that file. The load is a closed loop from a single client: one
repetition at a time, each in a fresh interpreter (``worker.py``) that runs
cold ``experiment``, then cached ``experiment`` runs interleaved with
``solve`` runs. BLAS threads are capped at the number of usable cores. One
toy-sized repetition runs first and is discarded, so shared libraries and
byte-code are warm.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of every operation from traced repetitions (``tracing.py``)
and the tracing overhead against untraced ones in the same run. After timing,
``check.py`` verifies the artifacts. Any failed exit code or check counts as a
failed operation. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SHIPPED_CONFIG = Path("configs") / "experiment.json"
PROGRAM = Path("src") / "kernelcc" / "cli.py"

# seed and Monte-Carlo seed of the shipped config; a workload keeps their
# difference at every seed
DEFAULT_SEED = 101
MC_SEED_OFFSET = 2024 - DEFAULT_SEED

MIN_REPETITIONS = 2
# another repetition starts while it is expected to end no later than this
# share of a repetition past --seconds, so that on average a run measures
# for about --seconds rather than stopping a whole repetition short
OVERRUN_SHARE = 0.25
SETUP_ONLY_PER_REPETITION = 2
WORKER_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    """A generated config plus how many reruns and resolves one repetition runs.

    The machine's single-thread speed drifts, by up to 2x over tens of
    seconds, so one timing sample is the mean over a batch of operations
    spread across the repetition.
    """

    why: str
    overrides: dict = field(default_factory=dict)
    rerun_repeats: int = 1
    resolve_repeats: int = 1


# the measured workloads listed in BENCHMARK.json. Both keep the shipped 1000
# Monte-Carlo trials per risk level: at 200, sampling noise alone put a policy
# whose success rate is above 1 - delta under the check's floor at some seeds
WORKLOADS = {
    "wide_library": Workload(
        why=(
            "P=3375 library: content digests (12 calls per cold run, 4 per "
            "resolve) take half of cold and 2/3 of resolve; library generation, "
            "JSONL and MC most of the rest; LP assembly and solve 1/8 of resolve"
        ),
        overrides={"library": {"grid_resolution": [5, 3]}},
        rerun_repeats=8,
        resolve_repeats=3,
    ),
    "deep_dataset": Workload(
        why=(
            "M=4000 samples, P=216: dataset generation and JSONL, fit (O(M^2) "
            "Gram matrix, O(M^3) Cholesky) and MC fill cold, fit is most of "
            "resolve; library and solver cost almost nothing"
        ),
        overrides={
            "dataset": {"num_samples": 4000},
            "library": {"grid_resolution": [3, 2]},
        },
        rerun_repeats=8,
        resolve_repeats=2,
    ),
}

# a few samples, a tiny library and a few trials: the discarded warm-up and
# the benchmark's smoke test; not one of the measured workloads
TOY = Workload(
    why="toy-sized pipeline for warm-up and the smoke test",
    overrides={
        "dataset": {"num_samples": 300},
        "library": {"grid_resolution": [3, 2]},
        "scenario": {"deltas": [0.2, 0.3]},
        "montecarlo": {"trials": 40},
    },
)

ALL_WORKLOADS = {**WORKLOADS, "toy": TOY}

END_TO_END = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("rerun_s", "s"),
    ("resolve_s", "s"),
    ("peak_rss_mb", "MB"),
]
# mean over risk levels of |realized MC success - estimated success of the
# chosen mixture|; deterministic for a seed but it swings several-fold
# between seeds, so it is printed by every run and recorded per layer only
ESTIMATE_GAP = ("embedding.estimate_gap", "fraction")

# per-layer figures reported for each operation: only layers that run in
# that operation on every workload
_COLD = [
    "config.load_config_s",
    "data.generate_dataset_s",
    "data.samples_per_s",
    "data.generate_library_s",
    "data.sequences_per_s",
    "data.save_dataset_s",
    "data.save_library_s",
    "data.load_library_s",
    "data.jsonl_bytes",
    "data.content_digest_s",
    "data.content_digest_calls",
    "data.self_s",
    "kernels.gram_product_s",
    "kernels.spd_factor_s",
    "kernels.spd_solve_s",
    "embedding.fit_s",
    "embedding.fit_calls",
    "embedding.cross_matrix_s",
    "solver.assemble_s",
    "solver.solve_lp_s",
    "solver.solve_lp_calls",
    "solver.pair_candidates",
    "scenario.indicator_T_s",
    "scenario.indicator_T_calls",
    "systems.rollout_s",
    "systems.rollout_calls",
    "policy.run_monte_carlo_s",
    "policy.trials_per_s",
    "policy.trajectories_to_csv_s",
    "policy.csv_bytes",
    "policy.self_s",
    "serialize.digest_of_s",
    "serialize.digest_of_calls",
    "cli.self_s",
]
_RERUN = [
    "config.load_config_s",
    "data.load_dataset_s",
    "data.load_library_s",
    "data.jsonl_bytes",
    "serialize.digest_of_calls",
    "cli.self_s",
]
_RESOLVE = [
    "config.load_config_s",
    "data.load_dataset_s",
    "data.load_library_s",
    "data.jsonl_bytes",
    "data.content_digest_s",
    "data.content_digest_calls",
    "kernels.gram_product_s",
    "kernels.spd_factor_s",
    "kernels.spd_solve_s",
    "embedding.fit_s",
    "embedding.fit_calls",
    "embedding.cross_matrix_s",
    "solver.assemble_s",
    "solver.solve_lp_s",
    "solver.solve_lp_calls",
    "solver.pair_candidates",
    "serialize.digest_of_s",
    "serialize.digest_of_calls",
    "cli.self_s",
]
OP_LAYER_METRICS = {"cold": _COLD, "rerun": _RERUN, "resolve": _RESOLVE}
# derived rates: (rate, work counter, span time)
RATES = {
    "data.samples_per_s": ("data.samples", "data.generate_dataset_s"),
    "data.sequences_per_s": ("data.sequences", "data.generate_library_s"),
    "policy.trials_per_s": ("policy.trials", "policy.run_monte_carlo_s"),
}
# traced minus untraced cold time, and the cold operation's span count times
# the measured cost of one span: the first is a difference of two noisy
# medians, the second the overhead the wrappers themselves add
TRACE_OVERHEAD = ("trace.overhead_s", "s")
WRAPPER_OVERHEAD = ("trace.wrapper_overhead_s", "s")
SIGNED_METRICS = (ESTIMATE_GAP[0], TRACE_OVERHEAD[0])


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def per_layer_metrics() -> list[tuple[str, str]]:
    names = [f"{op}.{m}" for op, ms in OP_LAYER_METRICS.items() for m in ms]
    return [(name, unit_of(name)) for name in names] + [
        ESTIMATE_GAP,
        TRACE_OVERHEAD,
        WRAPPER_OVERHEAD,
    ]


def workload_config(name: str, seed: int) -> bytes:
    """The config file a workload runs at a seed."""
    workload = ALL_WORKLOADS[name]
    config = json.loads(SHIPPED_CONFIG.read_bytes())
    for section, values in workload.overrides.items():
        config[section] = {**config[section], **values}
    config["seed"] = seed
    config["montecarlo"]["seed"] = seed + MC_SEED_OFFSET
    return (json.dumps(config, indent=2) + "\n").encode("utf-8")


class Runner:
    """Spawns workers and the checker with a fixed environment."""

    def __init__(self, root: Path, work: Path, threads: int):
        self.work = work
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS=str(threads),
            OMP_NUM_THREADS=str(threads),
            MKL_NUM_THREADS=str(threads),
            TMPDIR=str(work),
        )
        self._count = 0

    def _spawn(self, script: str, args: list[str]) -> dict | None:
        self._count += 1
        result = self.work / f"result-{self._count}.json"
        argv = [sys.executable, str(HERE / script), *args, "--result", str(result)]
        if script == "worker.py":
            argv += ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
        proc = subprocess.run(
            argv, env=self.env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
        if proc.returncode != 0 or not result.exists():
            sys.stderr.write(f"{script} exited with {proc.returncode}:\n{proc.stderr}")
            return None
        return json.loads(result.read_text(encoding="utf-8"))

    def repetition(self, config: Path, out: Path, workload: Workload, trace: bool):
        shutil.rmtree(out, ignore_errors=True)
        return self._spawn(
            "worker.py",
            [
                "--config", str(config),
                "--out-dir", str(out),
                "--trace", str(int(trace)),
                "--rerun-repeats", str(workload.rerun_repeats),
                "--resolve-repeats", str(workload.resolve_repeats),
            ],
        )

    def setup_only(self, config: Path) -> dict | None:
        return self._spawn(
            "worker.py",
            ["--config", str(config), "--out-dir", str(self.work), "--setup-only"],
        )

    def check(self, config: Path, out: Path) -> dict | None:
        return self._spawn("check.py", ["--config", str(config), "--out-dir", str(out)])


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or the max."""
    n = len(values)
    if n <= 20:
        return "max", max(values)
    q = int(100 * (1 - 10 / n))
    return f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(runner: Runner, config: Path, workload: Workload, seconds: float, trace: bool):
    """Repetitions for about ``seconds``; traced ones alternate with untraced.

    The machine's speed drifts over seconds to minutes, so set-up samples are
    spread over the whole run: each repetition follows set-up-only processes.
    """
    reps, durations, setup = [], [], []
    start = time.perf_counter()
    while len(reps) < MIN_REPETITIONS or (
        time.perf_counter() - start + (1 - OVERRUN_SHARE) * statistics.median(durations)
        <= seconds
    ):
        began = time.perf_counter()
        for _ in range(SETUP_ONLY_PER_REPETITION):
            sample = runner.setup_only(config)
            if sample is not None:
                setup.append(sample["setup_s"])
        traced = trace and len(reps) % 2 == 1
        out = runner.work / f"rep-{len(reps)}"
        reps.append((traced, out, runner.repetition(config, out, workload, traced)))
        durations.append(time.perf_counter() - began)
    setup.extend(rep["setup_s"] for _, _, rep in reps if rep is not None)
    return reps, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in (PROGRAM, SHIPPED_CONFIG) if not (root / p).is_file()]
    if missing:
        sys.stderr.write(
            f"run from the root of a kernelcc checkout: missing {missing[0]}\n"
        )
        return 2
    if args.seed < 0:
        sys.stderr.write("--seed must be non-negative\n")
        return 2

    workload = ALL_WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, threads)
        config = work / "config.json"
        config.write_bytes(workload_config(args.workload, args.seed))
        warmup = work / "warmup.json"
        warmup.write_bytes(workload_config("toy", DEFAULT_SEED))
        if runner.repetition(warmup, work / "warmup", TOY, trace=False) is None:
            return 1
        reps, setup = measure(runner, config, workload, args.seconds, bool(args.trace))
        return report(args, workload, threads, runner, config, reps, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def report(args, workload, threads, runner, config, reps, setup) -> int:
    failures = []
    attempted = failed = 0
    per_rep_ops = 1 + workload.rerun_repeats + workload.resolve_repeats
    reference = next((rep["cold_digests"] for _, _, rep in reps if rep), None)
    for index, (_, _, rep) in enumerate(reps):
        attempted += per_rep_ops
        if rep is None:
            failed += per_rep_ops
            failures.append(f"repetition {index}: worker crashed")
            continue
        if rep["cold_digests"] != reference:
            rep["ops"][0]["failures"].append("cold: artifacts differ between repetitions")
        for op in rep["ops"]:
            failed += bool(op["failures"])
            failures.extend(f"repetition {index}: {f}" for f in op["failures"])

    last = next(((out, rep) for _, out, rep in reversed(reps) if rep), None)
    checked = runner.check(config, last[0]) if last else None
    if checked is None:
        return 1
    if checked["failures"]:
        # the checked policies were written by cold and rewritten by resolve
        failed += sum(
            not op["failures"] for op in last[1]["ops"] if op["op"] in ("cold", "resolve")
        )
        failures.extend(f"check: {f}" for f in checked["failures"])

    def op_seconds(op_name: str, traced: bool) -> list[float]:
        """Per repetition, the mean time of its successful operations of a kind."""
        samples = []
        for was_traced, _, rep in reps:
            if rep is None or was_traced != traced:
                continue
            batch = [
                op["seconds"]
                for op in rep["ops"]
                if op["op"] == op_name and not op["failures"]
            ]
            if batch:
                samples.append(statistics.fmean(batch))
        return samples

    samples = {
        "setup_s": setup,
        "pipeline_s": op_seconds("cold", False),
        "rerun_s": op_seconds("rerun", False),
        "resolve_s": op_seconds("resolve", False),
        "peak_rss_mb": [
            rep["peak_rss_mb"] for traced, _, rep in reps if rep and not traced
        ],
    }
    measured = all(samples.values()) and checked["estimate_gap"] is not None
    if not measured or (args.trace and not op_seconds("cold", True)):
        sys.stderr.write("no successful operation to measure\n")
        return 1

    env = checked["environment"]
    print(f"kernelcc benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"why: {workload.why}")
    print(
        f"environment: nproc {os.cpu_count()}, usable cores {threads}, python "
        f"{platform.python_version()}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"openblas {env['openblas']}, BLAS threads capped at {threads}"
    )
    print(
        f"load: closed loop, 1 client process, {len(reps)} repetitions of "
        f"cold + {workload.rerun_repeats} rerun + {workload.resolve_repeats} resolve; "
        f"one sample per repetition"
    )
    metrics = {}
    for name, unit in END_TO_END:
        values = samples[name]
        value = statistics.median(values)
        label, high = high_percentile(values)
        print(f"{name:12s} median {value:.4f} {unit}, {label} {high:.4f} (n={len(values)})")
        metrics[name] = {"value": value, "unit": unit}
    print(f"estimate_gap {checked['estimate_gap']:.6f} (deterministic for a seed)")
    print(f"error_rate   {failed / attempted:.4f} ({failed} of {attempted} operations failed)")
    for failure in failures:
        print(f"FAILED {failure}")

    if args.trace:
        metrics = trace_metrics(reps, op_seconds, checked["estimate_gap"])
        for name, value in metrics.items():
            print(f"{name:45s} {value['value']:.6g} {value['unit']}")
        print(
            f"{TRACE_OVERHEAD[0]} is the median of {len(op_seconds('cold', True))} "
            f"traced minus the median of {len(op_seconds('cold', False))} untraced "
            f"cold operations"
        )

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def trace_metrics(reps, op_seconds, estimate_gap: float) -> dict:
    """Medians over traced repetitions of every per-layer figure."""
    figures: dict[str, list[float]] = {}
    for traced, _, rep in reps:
        if not traced or rep is None:
            continue
        figures.setdefault(WRAPPER_OVERHEAD[0], []).append(
            rep["ops"][0]["spans"] * rep["wrapper_cost_s"]
        )
        for op in rep["ops"]:
            layers = dict(op["layers"])
            for rate, (count, span) in RATES.items():
                if layers.get(span):
                    layers[rate] = layers[count] / layers[span]
            for name in OP_LAYER_METRICS[op["op"]]:
                figures.setdefault(f"{op['op']}.{name}", []).append(layers.get(name, 0.0))
    metrics = {
        name: {"value": statistics.median(figures.get(name, [0.0])), "unit": unit}
        for name, unit in per_layer_metrics()
        if name not in SIGNED_METRICS
    }
    metrics[ESTIMATE_GAP[0]] = {"value": estimate_gap, "unit": ESTIMATE_GAP[1]}
    overhead = statistics.median(op_seconds("cold", True)) - statistics.median(
        op_seconds("cold", False)
    )
    metrics[TRACE_OVERHEAD[0]] = {"value": overhead, "unit": TRACE_OVERHEAD[1]}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
