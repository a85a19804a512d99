"""Run the complete experiment pipeline through the command-line front end.

One command chains dataset generation, library enumeration, embedding fit,
the risk-budget sweep of LP solves, and Monte-Carlo validation of each
solved policy on the true stochastic system, then writes a summary table.
Every artifact records a digest of the inputs it was built from, so a
rerun rebuilds exactly the stages whose inputs changed, reuses the rest, and
reproduces every output byte for byte.

The same pipeline is available as `kernelcc experiment --config ...` from
a shell.
"""

import tempfile
from pathlib import Path

from kernelcc.cli import main as cli_main

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "experiment.json"


def main():
    with tempfile.TemporaryDirectory(prefix="kernelcc_demo_") as out:
        print(f"$ kernelcc experiment --config {CONFIG.name} --out-dir {out}\n")
        rc = cli_main(
            ["experiment", "--config", str(CONFIG), "--out-dir", out]
        )
        print(f"\nexit code {rc}; summary table:")
        print((Path(out) / "summary.csv").read_text())
        print(
            "On this shipped config each Monte-Carlo success rate sits above"
            "\nits 1 - delta target: here the estimates feeding the LP lean"
            "\nconservative. That does not hold in general: grow the obstacles"
            "\nand the estimates can overshoot what the true system does (the"
            "\ng1/g2 layouts in ROADMAP.md certify policies that realize far"
            "\nbelow 1 - delta)."
        )


if __name__ == "__main__":
    main()
