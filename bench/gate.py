"""Correctness gate: compare a run's result fields with a stored reference.

Floats follow the golden-report rule of ``tests/test_golden.py``: a leaf
fails when it differs by more than 1e-9 relative and more than 1e-12
absolute.  Only the fields named in ``RESULT_FIELDS`` are compared, and
keys the reference does not have are ignored, so new payload counters do
not trip the gate.  The oracle block is checked by its criterion instead of
by value: the oracle must have run when the reference ran it, with a worst
relative deviation of at most 1e-8.
"""

from __future__ import annotations

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
ORACLE_REL_LIMIT = 1e-8

RESULT_FIELDS = (
    "covariance",
    "norms",
    "log_norm_bound",
    "correlations",
    "correlation_samples",
    "correlation_fit",
)


def mismatches(expected, actual, path: str = "result") -> list[str]:
    """Named differences of ``actual`` from ``expected``; extra keys ignored."""
    out: list[str] = []
    _compare(expected, actual, path, out)
    return out


def _compare(expected, actual, path, out) -> None:
    numbers = (int, float)
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        if expected != actual or type(expected) is not type(actual):
            out.append(f"{path}: {expected!r} != {actual!r}")
    elif isinstance(expected, numbers):
        if isinstance(actual, bool) or not isinstance(actual, numbers):
            out.append(f"{path}: {expected!r} != {actual!r}")
            return
        diff = abs(expected - actual)
        if diff > ABS_FLOOR and diff > REL_TOL * max(abs(expected), abs(actual)):
            out.append(f"{path}: {expected!r} != {actual!r}")
    elif isinstance(expected, dict):
        if not isinstance(actual, dict):
            out.append(f"{path}: expected an object")
            return
        for key in sorted(expected):
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                _compare(expected[key], actual[key], f"{path}.{key}", out)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            out.append(f"{path}: expected a list of {len(expected)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, f"{path}[{i}]", out)
    else:
        raise TypeError(f"{path}: unsupported reference value {expected!r}")


def check_payload(reference: dict, payload: dict) -> list[str]:
    """Gate one ``run_experiment`` payload (as JSON data) against a reference."""
    problems = []
    for field in RESULT_FIELDS:
        if field not in reference:
            problems.append(f"reference lacks {field}")
        elif field not in payload:
            problems.append(f"result lacks {field}")
        else:
            problems += mismatches(reference[field], payload[field], field)
    ran = reference["oracle"]["ran"]
    oracle = payload.get("oracle", {})
    if oracle.get("ran") is not ran:
        problems.append(f"oracle.ran: {ran!r} != {oracle.get('ran')!r}")
    elif ran:
        worst = oracle.get("worst_rel")
        if not isinstance(worst, (int, float)) or not worst <= ORACLE_REL_LIMIT:
            problems.append(f"oracle.worst_rel {worst!r} exceeds {ORACLE_REL_LIMIT}")
    return problems
