"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 bench/child.py <workload> <seed> <mode>

Modes: ``setup`` stops once set-up is done; ``baseline`` stops once numpy
is imported; ``run`` times two identical passes (cold, then warm);
``once`` times the cold pass only; ``trace`` times the cold pass with layer
tracing on and writes its spans to ``bench/out/``.  Calibration loops
bracket every timed pass.  The last stdout line is a JSON object; a failed
correctness check exits with status 1.

A fresh interpreter per sample matters here: ``clusters`` keeps
process-global ``lru_cache`` tables, ``torus_decay_fit`` imports
``scipy.optimize`` on first call and ``berezin.SERIES_LOG`` grows with every
series, so only the first pass in a process sees what a one-shot CLI user
waits for.
"""

import json
import sys
import time

WORKLOADS = {
    "exact-2x2": {},
    "truncated-3x3": {"L": 3, "m_f": 3.0, "g": 0.05, "mode": "truncated"},
    "kernels": {},
}

# Stored reports the gate compares with, relative to the repository root.
# The golden report is only read, never written.
REFERENCES = {
    "exact-2x2": "tests/golden/gn_2x2_g0.05.json",
    "truncated-3x3": "bench/reference/truncated-3x3.json",
}


def main() -> int:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    if mode == "baseline":
        # any numpy program's start-up, which set-up time is scaled by
        import numpy  # noqa: F401

        print(json.dumps({"ready": time.monotonic()}))
        return 0

    import fermicluster  # noqa: F401
    from fermicluster.config import RunConfig
    from fermicluster.pipeline import run_experiment

    cfg = RunConfig(**WORKLOADS[workload])
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    from pathlib import Path

    bench = Path(__file__).resolve().parent
    sys.path.insert(0, str(bench))
    if workload == "kernels":
        problems, seconds, calibrations, tracer, kernel_s = _kernels(seed, mode)
    else:
        problems, seconds, calibrations, tracer = _pipeline(
            cfg, mode, run_experiment, bench.parent / REFERENCES[workload])
        kernel_s = {}
    import resource

    # Each pass over the mean of the sample's calibrations: a single loop
    # jitters more than a whole pass, so averaging all of them beats
    # pairing each pass with its two neighbours.
    speed = sum(calibrations) / len(calibrations)
    result = {
        "ready": ready,
        "wall_s": seconds[0],
        "calibration_s": calibrations,
        "wall_rel": seconds[0] / speed,
        "kernel_rel": {name: s / speed for name, s in kernel_s.items()},
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(seconds) == 2:
        result["rerun_s"] = seconds[1]
        result["rerun_rel"] = seconds[1] / speed
    if tracer:
        tracer.write_spans(bench / "out" / f"spans-{workload}-{seed}.json")
        result["layers"] = _layer_metrics(tracer, seconds[0])
    print(json.dumps(result))
    return 1 if problems else 0


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop shaped like the Grassmann product.

    It shares no code with fermicluster, so only the machine moves it.
    """
    start = time.perf_counter()
    acc = {}
    for _ in range(2):
        for a in range(1, 2048):
            for b in range(1, 2048):
                if a & b:
                    continue
                m = a | b
                acc[m] = acc.get(m, 0) + ((a >> 1 & b).bit_count() & 1)
    return time.perf_counter() - start


def _timed(fn, mode):
    """Run ``fn`` once or twice as the mode asks.

    Returns (results, seconds, calibrations, tracer).  Calibrations bracket
    each pass: one before the first pass and one after every pass.
    """
    from tracing import Tracer

    passes = 2 if mode == "run" else 1
    tracer = Tracer() if mode == "trace" else None
    calibrations = [calibration_s()]
    results, seconds = [], []
    for _ in range(passes):
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            results.append(fn())
        finally:
            seconds.append(time.perf_counter() - start)
            if tracer:
                tracer.remove()
        calibrations.append(calibration_s())
    return results, seconds, calibrations, tracer


def _pipeline(cfg, mode, run_experiment, reference_path):
    from fermicluster.reports import render_report
    from gate import check_payload

    reference = json.loads(reference_path.read_text())
    results, *timings = _timed(lambda: run_experiment(cfg)[0], mode)
    problems = []
    for payload in results:
        data = json.loads(render_report(payload))["payload"]
        problems += check_payload(reference["payload"], data)
    return problems, *timings


def _kernels(seed, mode):
    import kernels
    from gate import mismatches

    reference = json.loads(kernels.REFERENCE.read_text())
    inputs = kernels.build_inputs(seed)
    passes, *timings = _timed(lambda: kernels.run_suite(inputs), mode)
    results = [out for out, _ in passes]
    problems = kernels.check_small(inputs, results[0]["mul_small"])
    for out in results:
        problems += mismatches(reference, kernels.summarize(inputs, out), "kernels")
    if len(results) == 2 and any(
        a.terms != b.terms for a, b in zip(*(r["mul_small"] for r in results))
    ):
        problems.append("mul_small: second pass differs from the first")
    # per-kernel seconds of the first pass
    return problems, *timings, passes[0][1]


def _layer_metrics(tracer, wall: float) -> dict:
    """Self times, call counts and counters of the traced pass."""
    layers = {f"{name}_s": value for name, value in tracer.self_s.items()}
    for name in ("grossneveu.quartic_kernel", "weights.coeff_norm",
                 "berezin.elim", "algebra.mul", "clusters.ursell"):
        layers[f"{name}_calls"] = tracer.calls[name]
    layers.update(tracer.counts)
    pairs, visited = layers["algebra.mul_pairs"], layers["clusters.ursell_calls"]
    layers["algebra.mul_hit_ratio"] = layers["algebra.mul_out_terms"] / pairs if pairs else 0.0
    layers["clusters.contributing_ratio"] = (
        layers["clusters.ursell_nonzero"] / visited if visited else 0.0)
    covered = tracer.root_covered_s()
    layers["trace.wall_s"] = wall
    layers["trace.unattributed_s"] = wall - covered
    layers["trace.coverage"] = covered / wall
    return layers


if __name__ == "__main__":
    sys.exit(main())
