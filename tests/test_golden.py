"""Pinned golden report for the default 2x2 run.

The snapshot under tests/golden/ is the full deterministic report payload.
Any behavioural drift in the covariance, the expansion engine, the norms, or
the report layout shows up here as a named mismatch path.  Regenerate the
snapshot with scripts/refresh_golden.py only for intentional changes.  The
truncated 3x3 run is held to the benchmark's stored reference the same way.

Float leaves are compared at relative 1e-9 (absolute floor 1e-12) so the
check tolerates last-ulp jitter across BLAS builds but nothing larger.
"""

import json
from pathlib import Path

from fermicluster.config import RunConfig
from fermicluster.pipeline import run_experiment
from fermicluster.reports import deterministic_part, render_report

GOLDEN = Path(__file__).parent / "golden" / "gn_2x2_g0.05.json"
TRUNCATED_REFERENCE = (Path(__file__).parent.parent / "bench" / "reference"
                       / "truncated-3x3.json")
#: Result fields the benchmark's correctness gate compares.
RESULT_FIELDS = ("covariance", "norms", "log_norm_bound", "correlations",
                 "correlation_samples", "correlation_fit")

REL_TOL = 1e-9
ABS_FLOOR = 1e-12


def _mismatches(expected, actual, path, out):
    if type(expected) is not type(actual) and not (
        isinstance(expected, (int, float)) and isinstance(actual, (int, float))
    ):
        out.append(f"{path}: type {type(expected).__name__} != {type(actual).__name__}")
    elif isinstance(expected, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{path}.{key}: present in only one report")
            else:
                _mismatches(expected[key], actual[key], f"{path}.{key}", out)
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            out.append(f"{path}: length {len(expected)} != {len(actual)}")
        else:
            for i, (e, a) in enumerate(zip(expected, actual)):
                _mismatches(e, a, f"{path}[{i}]", out)
    elif isinstance(expected, bool) or not isinstance(expected, (int, float)):
        if expected != actual:
            out.append(f"{path}: {expected!r} != {actual!r}")
    else:
        diff = abs(expected - actual)
        if diff > ABS_FLOOR and diff > REL_TOL * max(abs(expected), abs(actual)):
            out.append(f"{path}: {expected!r} != {actual!r}")


def test_golden_report_matches():
    golden = json.loads(GOLDEN.read_text())
    payload, timing = run_experiment(RunConfig())
    current = json.loads(deterministic_part(render_report(payload, timing)))
    problems: list[str] = []
    _mismatches(golden, current, "report", problems)
    assert not problems, "golden report drift:\n" + "\n".join(problems[:20])


def test_truncated_3x3_matches_bench_reference():
    reference = json.loads(TRUNCATED_REFERENCE.read_text())["payload"]
    payload, timing = run_experiment(RunConfig(L=3, m_f=3.0, g=0.05, mode="truncated"))
    current = json.loads(render_report(payload, timing))["payload"]
    problems: list[str] = []
    for field in RESULT_FIELDS:
        _mismatches(reference[field], current[field], field, problems)
    assert not problems, "truncated 3x3 drift:\n" + "\n".join(problems[:20])
