"""Self-test of the benchmark's correctness gate and metric tables.

    PYTHONPATH=src python3 -m pytest -q bench/test_gate.py

A clean truncated 3x3 run passes the gate; the same run with one log-series
coefficient perturbed by 1e-6 relative fails it.
"""

import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
from gate import check_payload, mismatches  # noqa: E402

from fermicluster import pipeline  # noqa: E402
from fermicluster.algebra import canonicalize  # noqa: E402
from fermicluster.config import RunConfig  # noqa: E402
from fermicluster.generators import eta  # noqa: E402
from fermicluster.reports import render_report  # noqa: E402

PERTURBATION = 1e-6


def _reference(workload):
    return json.loads((BENCH.parent / child.REFERENCES[workload]).read_text())["payload"]


def _gate(payload, workload="truncated-3x3"):
    return check_payload(_reference(workload), json.loads(render_report(payload))["payload"])


def test_clean_run_passes_and_perturbed_coefficient_fails(monkeypatch):
    cfg = RunConfig(**child.WORKLOADS["truncated-3x3"])
    clean, _ = pipeline.run_experiment(cfg)
    assert _gate(clean) == []

    original = pipeline.pair_series

    def perturbed(cfg, spec, cov, y1, y2):
        series, report = original(cfg, spec, cov, y1, y2)
        # the coefficient the origin-origin two-point function reads
        mask, _ = canonicalize(series.universe, (eta(y1, 0, 0), eta(y1, 0, 0, bar=True)))
        series.element.terms[mask] *= 1 + PERTURBATION
        return series, report

    monkeypatch.setattr(pipeline, "pair_series", perturbed)
    broken, _ = pipeline.run_experiment(cfg)
    problems = _gate(broken)
    assert any(p.startswith("correlations[0].") for p in problems), problems


def test_golden_field_perturbation_fails_and_extra_keys_pass():
    golden = _reference("exact-2x2")
    assert check_payload(golden, golden) == []

    extended = copy.deepcopy(golden)
    extended["expansion"]["clusters_visited"] = 1318
    extended["timing_counters"] = {"mul_calls": 13443}
    assert check_payload(golden, extended) == []

    nudged = copy.deepcopy(golden)
    nudged["correlation_fit"]["kappa"] *= 1 + PERTURBATION
    assert check_payload(golden, nudged) == [
        f"correlation_fit.kappa: {golden['correlation_fit']['kappa']!r} "
        f"!= {nudged['correlation_fit']['kappa']!r}"]

    drifted = copy.deepcopy(golden)
    drifted["oracle"]["worst_rel"] = 2e-8
    assert check_payload(golden, drifted) == ["oracle.worst_rel 2e-08 exceeds 1e-08"]


def test_kernel_reference_perturbation_fails():
    reference = json.loads((BENCH / "reference" / "kernels.json").read_text())
    nudged = copy.deepcopy(reference)
    label = next(iter(nudged["elim"]))
    nudged["elim"][label][0] *= 1 + PERTURBATION
    assert mismatches(reference, reference) == []
    assert len(mismatches(reference, nudged)) == 1


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
