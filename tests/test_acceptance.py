"""Acceptance checklist: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` (the suite enables ``-s``
globally) to see the PASS/FAIL line for every criterion.  Each criterion is
also exercised by ``fermicluster verify --level full``; these tests pin the
same tolerances so the suite and the CLI cannot drift apart.
"""

import pytest

from fermicluster import acceptance


@pytest.fixture(scope="module")
def oracle_runs():
    # Shared by criteria 1 and 2: three full engine-vs-oracle runs on the
    # smallest interacting lattice, one per pinned coupling.
    return acceptance._oracle_runs()


def _report(result):
    print()
    print(result.line())
    assert result.passed, result.details


def test_criterion_1_engine_matches_oracle(oracle_runs):
    _report(acceptance.criterion_1_oracle_equivalence(oracle_runs))


def test_criterion_2_log_norm_bound(oracle_runs):
    _report(acceptance.criterion_2_log_norm_bound(oracle_runs))


def test_criterion_3_norm_example_values():
    _report(acceptance.criterion_3_norm_examples())


def test_criterion_4_majorant_partial_sums():
    _report(acceptance.criterion_4_majorant())


def test_criterion_5_tree_convolution_bound():
    _report(acceptance.criterion_5_tree_convolution_bound())


def test_criterion_6_tree_counts():
    _report(acceptance.criterion_6_tree_counts())


def test_criterion_7_series_parity_scan():
    _report(acceptance.criterion_7_parity_guards())


def test_criterion_7_fails_when_a_guard_is_silent(monkeypatch):
    monkeypatch.setattr(acceptance, "LogSeries", lambda universe, element: None)
    result = acceptance.criterion_7_parity_guards()
    assert not result.passed and "LogSeries" in result.details


def test_quick_level_runs_no_oracle(monkeypatch):
    def refuse():
        raise AssertionError("the quick level ran the oracle")

    monkeypatch.setattr(acceptance, "_oracle_runs", refuse)
    results = acceptance.run_checklist("quick")
    assert [r.criterion for r in results] == [3, 4, 5, 6, 7]
    assert all(r.passed for r in results), [r.line() for r in results]


def test_criterion_8_free_theory_reduction():
    _report(acceptance.criterion_8_free_theory_reduction())


def test_criterion_9_covariance_decay():
    _report(acceptance.criterion_9_covariance_decay())


def test_criterion_10_interacting_decay():
    _report(acceptance.criterion_10_interacting_decay())


def test_criterion_11_report_determinism():
    _report(acceptance.criterion_11_determinism())

