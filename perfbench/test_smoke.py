"""Smoke test of the benchmark on the toy-sized workload.

Run from the root of a checkout with ``python3 -m pytest perfbench`` (or
``python3 perfbench/test_smoke.py``). It takes about 20 seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ToyWorkload(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_end_to_end_metrics_present_and_no_failures(self):
        proc = _bench("--workload", "toy", "--seed", "7", "--seconds", "1", "--trace", "0")
        result = _result(proc)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIn("error_rate   0.0000", proc.stdout)
        expected = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_per_layer_metrics_present(self):
        result = _result(
            _bench("--workload", "toy", "--seed", "8", "--seconds", "1", "--trace", "1")
        )
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        # a difference of two timings and a seed-dependent quality figure
        # may be zero or negative; every other figure measures work done
        for name, metric in result["metrics"].items():
            if name not in run.SIGNED_METRICS:
                self.assertGreater(metric["value"], 0, name)

    def test_spec_matches_benchmark(self):
        self.assertEqual(
            {w["name"]: w["why"] for w in self.spec["workloads"]},
            {name: w.why for name, w in run.WORKLOADS.items()},
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["end_to_end"]], run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["per_layer"]],
            run.per_layer_metrics(),
        )

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as empty:
            proc = _bench("--workload", "toy", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=Path(empty))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
