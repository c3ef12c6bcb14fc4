#!/usr/bin/env python3
"""fermicluster benchmark: end-to-end and per-layer timings with a correctness gate.

    python3 bench/run.py --workload exact-2x2 --seed 1 --seconds 42 --trace 0

Run from the repository root.  Workloads (see ``bench/README.md``):

* ``exact-2x2``: the default ``RunConfig()``, golden-report config; the
  Grassmann product and mode elimination dominate;
* ``truncated-3x3``: L=3, m_f=3, truncated, no oracle; kernel builds and
  weighted norms dominate and products are small;
* ``kernels``: fixed-input microbenchmarks of the hot kernels.

Each timed sample is a fresh interpreter (``bench/child.py``), one at a
time, in a closed loop: the next sample starts when the previous one ends,
until the next would overrun ``--seconds``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced samples
and reports per-layer self times and counters, with the tracing overhead.
Every sample's outputs are checked against stored results; a sample that
raises, exits non-zero or fails the check counts as failed.  The last
stdout line is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact-2x2", "truncated-3x3", "kernels")

# Set-up probes per workload sample; the time left after the last sample
# that fits is filled with more.  Set-up is short and noisy, so it gets more
# samples than the workload itself.
SETUP_PROBES = 1
# setup_s is each set-up probe's time over that of the baseline probes either
# side of it (an interpreter that only imports numpy), times the baseline's
# median on the reference machine.  Set-up and baseline slow down together
# when the host does, so the host's drifting speed cancels (see README.md).
REFERENCE_BASELINE_S = 0.20
# A run must end within 180 s; no child may outlive this many seconds of it.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "ratio",
    "rerun_rel": "ratio",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but not gated: raw times drift with
# the host's load by more than any bound could absorb (see README.md).
RAW_TIMES = {"setup_raw_s": "s", "baseline_s": "s", "wall_s": "s", "rerun_s": "s",
             "calibration_s": "s"}
# The kernels workload's suite, timed one kernel at a time.
KERNELS = ("mul_small", "mul_large", "log1p", "elim", "coeff_norm", "trees")

PER_LAYER = {
    "pipeline.pair_series_s": "s",
    "pipeline.oracle_pair_series_s": "s",
    "grossneveu.covariance_s": "s",
    "grossneveu.quartic_kernel_s": "s",
    "grossneveu.quartic_kernel_calls": "count",
    "grossneveu.source_kernels_s": "s",
    "grossneveu.model_norms_s": "s",
    "grossneveu.torus_decay_fit_s": "s",
    "grossneveu.correlation_rows_s": "s",
    "weights.coeff_norm_s": "s",
    "weights.coeff_norm_calls": "count",
    "weights.coeff_norm_entries": "count",
    "weights.logseries_norm_s": "s",
    "clusters.engine_init_s": "s",
    "clusters.candidates": "count",
    "clusters.polymers_live": "count",
    "clusters.activity_s": "s",
    "clusters.assemble_s": "s",
    "clusters.ursell_calls": "count",
    "clusters.ursell_nonzero": "count",
    "clusters.contributing_ratio": "ratio",
    "berezin.log_direct_s": "s",
    "berezin.elim_s": "s",
    "berezin.elim_calls": "count",
    "berezin.integrate_element_s": "s",
    "algebra.mul_s": "s",
    "algebra.mul_calls": "count",
    "algebra.mul_pairs": "count",
    "algebra.mul_out_terms": "count",
    "algebra.mul_hit_ratio": "ratio",
    "algebra.log1p_s": "s",
    "algebra.exp_series_s": "s",
    "trees.enumerate_s": "s",
    **{f"kernels.{name}_rel": "ratio" for name in KERNELS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.coverage": "ratio",
}


class Runner:
    """Starts one child at a time and keeps every sample it returns."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.samples: dict[str, list[dict]] = {}
        self.probes: list[tuple[str, float]] = []  # (mode, seconds to ready)
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []  # run-level checks that no single sample owns
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads

    def child(self, mode: str) -> dict | None:
        """Run one sample; None when it failed (the failure is recorded)."""
        self.attempted += 1
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), self.workload,
                 str(self.seed), mode],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{mode}: killed after {timeout:.0f} s")
            return None
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None:
            detail = "; ".join((result or {}).get("problems", [])[:3])
            detail = detail or proc.stderr.strip()[-500:]
            self.failures.append(f"{mode}: exit {proc.returncode}: {detail}")
            return None
        if mode in ("setup", "baseline"):
            self.probes.append((mode, result["ready"] - spawned))
        self.samples.setdefault(mode, []).append(result)
        return result

    def rounds(self, seconds: float, *groups: tuple[str, ...]) -> None:
        """For each group of modes in turn, repeat it while the next round
        fits in ``seconds``; the first group runs at least once."""
        for modes in groups:
            longest = 0.0
            while True:
                begun = time.monotonic()
                if self.attempted and begun - self.started + longest > seconds:
                    break
                for mode in modes:
                    self.child(mode)
                longest = max(longest, time.monotonic() - begun)


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(runner: Runner) -> dict[str, tuple[float, int]]:
    runs = runner.samples.get("run", [])
    if not runs:
        return {}
    calibrations = [c for s in runs for c in s["calibration_s"]]
    # each set-up probe over the mean of the baseline probes either side
    triples = [(before, setup, after) for (m0, before), (m1, setup), (m2, after)
               in zip(runner.probes, runner.probes[1:], runner.probes[2:])
               if (m0, m1, m2) == ("baseline", "setup", "baseline")]
    if not triples:
        return {}
    scaled = [2 * REFERENCE_BASELINE_S * s / (b + a) for b, s, a in triples]
    out = {"setup_s": (statistics.median(scaled), len(scaled))}
    for name, i in (("setup_raw_s", 1), ("baseline_s", 0)):
        out[name] = (statistics.median(t[i] for t in triples), len(triples))
    for name in ("wall_rel", "rerun_rel", "peak_rss_mb", "wall_s", "rerun_s"):
        out[name] = (median_of(runs, name), len(runs))
    out["calibration_s"] = (statistics.median(calibrations), len(calibrations))
    return out


def per_layer(runner: Runner) -> dict[str, tuple[float, int]]:
    traced = runner.samples.get("trace", [])
    plain = runner.samples.get("once", [])
    if not traced or not plain:
        return {}
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s" or name.startswith("kernels."):
            continue
        values = [s["layers"][name] for s in traced]
        if PER_LAYER[name] == "count" and len(set(values)) > 1:
            runner.problems.append(f"count check: {name} differs between traced runs: {values}")
        out[name] = (statistics.median(values), len(values))
    # Untraced time at each traced sample's own calibrated speed: raw seconds
    # of separate processes differ by more than the overhead itself.
    untraced_rel = median_of(plain, "wall_rel")
    overheads = [s["wall_s"] * (1 - untraced_rel / s["wall_rel"]) for s in traced]
    out["trace.overhead_s"] = (statistics.median(overheads), len(traced))
    for name in KERNELS:
        values = [s["kernel_rel"].get(name, 0.0) for s in plain]
        out[f"kernels.{name}_rel"] = (statistics.median(values), len(values))
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fermicluster" / "__init__.py").is_file():
        print(f"no fermicluster sources under {ROOT / 'src'}; "
              "run from a repository checkout", file=sys.stderr)
        return 2

    # SystemExit inside subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(args.workload, args.seed)
    if args.trace:
        runner.rounds(args.seconds, ("once", "trace"))
        metrics, units = per_layer(runner), PER_LAYER
    else:
        # every set-up probe sits between two baseline probes
        runner.rounds(args.seconds, ("run", "baseline") + ("setup", "baseline") * SETUP_PROBES,
                      ("setup", "baseline"))
        metrics, units = end_to_end(runner), {**END_TO_END, **RAW_TIMES}
    if not metrics:
        print("\n".join(["no sample succeeded:"] + runner.failures), file=sys.stderr)
        return 1

    failed, attempted = len(runner.failures), runner.attempted
    print(f"fermicluster benchmark: workload {args.workload}, trace {args.trace}")
    for key, value in provenance(args.seed).items():
        print(f"  {key:<8} {value}")
    print(f"  {'metric':<34} {'median':>16} {'unit':<6} n")
    for name, (value, n) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]:<6} {n}")
    print(f"  {'fail_rate':<34} {failed / attempted:>16.6g} {'ratio':<6} {attempted}")
    for failure in runner.failures + runner.problems:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not runner.failures and not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, n) in metrics.items() if name not in RAW_TIMES},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
