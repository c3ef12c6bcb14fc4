"""Record the stored results that the correctness gate compares with.

    PYTHONPATH=src python3 bench/record_reference.py

Writes ``bench/reference/truncated-3x3.json`` (the deterministic report of
the truncated 3x3 run) and ``bench/reference/kernels.json`` (the
seed-independent kernel outputs).  Run it only when an intentional change
of behaviour makes them stale; the exact 2x2 workload is gated by the
golden report under ``tests/golden/`` instead.
"""

import json
import sys
from pathlib import Path

from fermicluster.config import RunConfig
from fermicluster.pipeline import run_experiment
from fermicluster.reports import deterministic_part, render_report

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import kernels  # noqa: E402
from child import WORKLOADS  # noqa: E402


def main() -> None:
    out = BENCH / "reference"
    out.mkdir(exist_ok=True)
    payload, timing = run_experiment(RunConfig(**WORKLOADS["truncated-3x3"]))
    target = out / "truncated-3x3.json"
    target.write_text(deterministic_part(render_report(payload, timing)) + "\n")
    print(f"wrote {target}")
    inputs = kernels.build_inputs(seed=0)
    summary = kernels.summarize(inputs, kernels.run_suite(inputs)[0])
    kernels.REFERENCE.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {kernels.REFERENCE}")


if __name__ == "__main__":
    main()
