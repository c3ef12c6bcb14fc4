"""Config parsing, report artifacts, pipeline orchestration, CLI dispatch."""

import ast
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fermicluster
from fermicluster import cli, pipeline
from fermicluster.config import RunConfig, emit_config, parse_config, with_overrides
from fermicluster.errors import CapacityError, ConfigError
from fermicluster.grossneveu import correlation_rows
from fermicluster.pipeline import (
    expansion_summary,
    lattice_model,
    lattice_objects,
    oracle_pair_series,
    pair_series,
    probe_coupling,
    representative_targets,
    run_correlations,
    run_experiment,
)
from fermicluster.reports import (
    config_hash,
    correlation_csv,
    deterministic_part,
    fresh_path,
    render_report,
)


# ------------------------------------------------------------------ config


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.h1 == 4.0 and cfg.h2 == 1.0


def test_config_round_trip():
    cfg = RunConfig(d=2, L=3, g=0.02, m_f=2.0, mode="truncated", out="x.json")
    assert parse_config(emit_config(cfg)) == cfg


def test_config_comments_and_assignments():
    cfg = parse_config("""
    # comment line
    lattice.L = 3          # trailing comment
    model.g = 0.1
    run.mode = truncated
    """)
    assert (cfg.L, cfg.g, cfg.mode) == (3, 0.1, "truncated")


@pytest.mark.parametrize("text,fragment", [
    ("lattice.d = 1", "d >= 2"),
    ("weird.key = 3", "unknown key"),
    ("lattice.L 3", "expected"),
    ("lattice.L = x", "bad value"),
    ("lattice.L = 3\nlattice.L = 4", "duplicate"),
    ("weights.kappa = 2.0", "kappa"),
    ("run.mode = sideways", "run.mode"),
    ("model.g = -0.1", "g >= 0"),
    ("weights.metric = l1", "weights.metric"),
    ("expansion.eta_cap = 1", "expansion.eta_cap"),
    ("expansion.eta_cap = 3", "expansion.eta_cap"),
    ("expansion.eta_cap = 4", "expansion.eta_cap"),
    ("expansion.k_max = 8", "unknown key"),
    ("model.g = nan", "model.g must be finite"),
    ("weights.h1 = inf", "weights.h1 must be finite"),
    ("model.g = 1e-200", "model.g is too small"),
])
def test_config_rejections(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_with_overrides_revalidates():
    cfg = RunConfig()
    assert with_overrides(cfg, mode="truncated").mode == "truncated"
    assert with_overrides(cfg, mode=None) == cfg
    with pytest.raises(ConfigError):
        with_overrides(cfg, L=1)


# ----------------------------------------------------------------- reports


def test_report_round_trip_and_timing_isolation():
    payload = {"alpha": 1, "value": 1.5, "nested": [1, 2]}
    text_a = render_report(payload, {"wall_time_s": 1.0})
    text_b = render_report(payload, {"wall_time_s": 99.0})
    assert text_a != text_b
    assert deterministic_part(text_a) == deterministic_part(text_b)
    doc = json.loads(text_a)
    assert doc["schema_version"] == 1
    assert doc["payload"] == payload
    # A complex value has no JSON form; it must not slip into a report.
    with pytest.raises(TypeError):
        render_report({"value": 1.5 - 0.25j})


def test_correlation_csv_schema():
    rows = [{"distance": 1.0, "alpha": 0, "beta": 1, "flavor": 0,
             "re": 0.5, "im": 0.0, "abs": 0.5}]
    text = correlation_csv(rows)
    header, line = text.strip().splitlines()
    assert header == "distance,alpha,beta,flavor,re,im,abs"
    assert line.startswith("1.0,0,1,0,0.5")


def test_fresh_path_never_overwrites(tmp_path):
    target = tmp_path / "report.json"
    assert fresh_path(target) == target
    target.write_text("{}")
    sibling = fresh_path(target)
    assert sibling.name == "report-1.json"
    sibling.write_text("{}")
    assert fresh_path(target).name == "report-2.json"


# ---------------------------------------------------------------- pipeline


@pytest.fixture(scope="module")
def default_run():
    return run_experiment(RunConfig())


def test_default_run_payload_shape(default_run):
    payload, timing = default_run
    for key in ("config_hash", "covariance", "norms", "log_norm_bound", "expansion",
                "correlations", "correlation_fit", "oracle"):
        assert key in payload
    assert payload["oracle"]["ran"] is True
    assert payload["oracle"]["worst_rel"] <= 1e-8
    assert payload["expansion"]["exact"] is True
    assert payload["correlation_fit"]["usable"] is True
    assert timing["wall_time_s"] > 0


def test_default_run_times_each_stage_outside_the_payload(default_run):
    payload, timing = default_run
    stages = timing["stages_s"]
    assert set(stages) == {"covariance", "model", "norms", "engine", "oracle", "fits"}
    assert all(seconds >= 0 for seconds in stages.values())
    assert stages["engine"] > 0 and stages["oracle"] > 0
    # Each stage is rounded to the millisecond on its own.
    assert sum(stages.values()) <= timing["wall_time_s"] + 0.006
    text = render_report(payload, timing)
    assert json.loads(text)["timing"] == timing
    assert deterministic_part(text) == deterministic_part(render_report(payload, {}))


def test_default_run_correlations_decay(default_run):
    payload, _ = default_run
    fit = payload["correlation_fit"]
    assert fit["decaying"] and fit["kappa"] > 0


def test_default_run_leaves_no_cyclic_garbage(default_run):
    """Reference counting frees all of a run, so a repeated run never keeps
    the last run's objects alive until the collector passes."""
    gc.collect()
    gc.disable()
    try:
        run_experiment(RunConfig())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_zero_coupling_run_equals_covariance():
    cfg = RunConfig(g=0.0)
    payload, _ = run_experiment(cfg)
    assert payload["norms"]["v1_norm"] == 0.0
    spec, cov = lattice_objects(cfg)
    origin = spec.sites[0]
    by_key = {(round(r["distance"], 9), r["alpha"], r["beta"]): r
              for r in payload["correlations"]}
    for target in representative_targets(spec):
        r = round(spec.metric.distance(origin, target), 9)
        for alpha in range(spec.spinor_dim):
            for beta in range(spec.spinor_dim):
                row = by_key[(r, alpha, beta)]
                want = cov.entry(origin, target, alpha, beta)
                assert complex(row["re"], row["im"]) == pytest.approx(want, abs=1e-12)


def _row_gap(rows, want) -> float:
    """Largest distance of ``rows`` from ``want``, over the largest |want|."""
    assert [(r["distance"], r["alpha"], r["beta"], r["flavor"]) for r in rows] == \
        [(r["distance"], r["alpha"], r["beta"], r["flavor"]) for r in want]
    scale = max(r["abs"] for r in want)
    return max(abs(complex(a["re"] - b["re"], a["im"] - b["im"]))
               for a, b in zip(rows, want)) / scale


@pytest.mark.parametrize("g,m_f", [(0.05, 1.0), (0.2, 1.0), (0.02, 1.0), (0.01, 3.0)])
def test_exact_run_reads_the_origin_rows_off_the_nearest_pair(g, m_f):
    """An exact run makes no (origin, origin) run: the origin's rows and
    sample come from the series of the first other target, which holds
    every monomial of the origin's own series, and so does the oracle's
    series of that pair.  Both agree with the origin's own run within
    1e-10 of its largest row."""
    cfg = RunConfig(g=g, m_f=m_f)
    spec, cov = lattice_objects(cfg)
    model = lattice_model(cfg, spec, cov)
    targets = representative_targets(spec)
    origin, nearest = targets[:2]
    corr = run_correlations(cfg, spec, model, False, targets)
    assert len(corr.series_list) == len(targets) - 1
    assert expansion_summary(corr.reports)["runs"] == len(targets) - 1
    probe = probe_coupling(cfg)
    want = correlation_rows(pair_series(cfg, spec, model, origin, origin)[0],
                            probe, spec, origin)
    got = corr.rows[:len(want)]
    assert _row_gap(got, want) <= 1e-10
    assert corr.samples[0] == (origin, max(r["abs"] for r in got))
    oracle = correlation_rows(oracle_pair_series(model, origin, nearest), probe, spec, origin)
    assert _row_gap(oracle, want) <= 1e-10


def test_truncated_run_keeps_one_pair_run_per_target():
    """The truncated floor prunes by node norms, which a second source
    raises, so a truncated run reads each target's rows off its own run."""
    cfg = RunConfig(L=3, m_f=3.0, mode="truncated")
    spec, cov = lattice_objects(cfg)
    model = lattice_model(cfg, spec, cov)
    origin = spec.sites[0]
    targets = representative_targets(spec)
    corr = run_correlations(cfg, spec, model, False, targets)
    assert len(corr.reports) == len(targets)
    probe = probe_coupling(cfg)
    assert corr.rows == [row for target in targets for row in correlation_rows(
        pair_series(cfg, spec, model, origin, target)[0], probe, spec, target)]


@pytest.mark.parametrize("g", [0.05, 0.0])
def test_run_builds_each_kernel_once(monkeypatch, g):
    # the three pair runs share the model's stencil and its one psi element;
    # no kernel is built entry by entry
    from fermicluster import grossneveu
    from fermicluster.coeffsys import CoefficientSystem

    calls = []
    for name in ("quartic_stencil", "_translated"):
        original = getattr(grossneveu, name)
        monkeypatch.setattr(grossneveu, name,
                            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))

    def per_entry(*args):
        raise AssertionError("a kernel built entry by entry")

    for name in ("quartic_kernel", "source_kernels", "_add_quartic_at"):
        monkeypatch.setattr(grossneveu, name, per_entry)
    monkeypatch.setattr(CoefficientSystem, "add", per_entry)
    run_experiment(RunConfig(g=g, mode="truncated"))
    assert sorted(calls) == ["_translated", "quartic_stencil"]


def test_truncated_run_flags_inexactness():
    payload, _ = run_experiment(RunConfig(L=3, mode="truncated"))
    assert payload["expansion"]["mode"] == "truncated"
    assert payload["expansion"]["exact"] is False
    assert payload["correlation_fit"]["usable"] is True


# --------------------------------------------------------------------- cli


def test_cli_trees_stdout(capsys):
    assert cli.main(["trees"]) == 0
    doc = json.loads(capsys.readouterr().out)
    counts = {row["n"]: row for row in doc["payload"]["tree_counts"]}
    assert counts[7]["cayley"] == 7 ** 5 == counts[7]["enumerated"]


def test_cli_norms_with_config(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("model.g = 0.001\nlattice.L = 4\n")
    assert cli.main(["norms", "--config", str(cfg_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["gate_sixteenth"] is True


def test_cli_expand_writes_report(tmp_path, capsys):
    out = tmp_path / "series.json"
    assert cli.main(["expand", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["payload"]["oracle"]["ran"] is True
    assert doc["payload"]["expansion"]["exact"] is True
    assert doc["payload"]["coefficients"]


def _perturb_the_oracle(monkeypatch):
    """Scale every oracle series coefficient by 1 + 1e-6."""
    original = pipeline.oracle_pair_series

    def perturbed(model, y1, y2):
        series = original(model, y1, y2)
        terms = series.element.terms
        for mask in terms:
            terms[mask] *= 1 + 1e-6
        return series

    monkeypatch.setattr(pipeline, "oracle_pair_series", perturbed)


def test_cli_expand_exits_4_once_it_reports_an_oracle_deviation(tmp_path, capsys,
                                                                  monkeypatch):
    _perturb_the_oracle(monkeypatch)
    out = tmp_path / "perturbed.json"
    assert cli.main(["expand", "--out", str(out)]) == 4
    assert "oracle deviation" in capsys.readouterr().err
    assert json.loads(out.read_text())["payload"]["oracle"]["worst_rel"] > 1e-8


def test_cli_expand_times_each_stage_outside_the_payload(tmp_path, capsys):
    out = tmp_path / "series.json"
    assert cli.main(["expand", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    doc = json.loads(text)
    timing = doc["timing"]
    stages = timing["stages_s"]
    assert set(stages) == {"covariance", "model", "engine", "oracle"}
    assert stages["engine"] > 0 and stages["oracle"] > 0
    # Each stage is rounded to the millisecond on its own.
    assert sum(stages.values()) <= timing["wall_time_s"] + 0.004
    assert deterministic_part(text) == deterministic_part(render_report(doc["payload"], {}))


def test_cli_norms_runs_past_the_bit_capacity(tmp_path, capsys):
    path = tmp_path / "wide.cfg"
    path.write_text("lattice.L = 5\nmodel.m_f = 3.0\n")
    assert cli.main(["norms", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["norms"]["v1_norm"] > 0


def test_cli_norms_refuses_a_stencil_past_the_budget_at_once(tmp_path, monkeypatch,
                                                             capsys):
    from fermicluster import grossneveu, pipeline

    def no_covariance(*args):
        raise AssertionError("covariance computed before the stencil check")

    grossneveu.check_stencil(grossneveu.LatticeSpec(d=2, L=10))
    for module in (grossneveu, pipeline):
        monkeypatch.setattr(module, "covariance", no_covariance)
    path = tmp_path / "huge.cfg"
    path.write_text("lattice.L = 12\n")
    started = time.perf_counter()
    assert cli.main(["norms", "--config", str(path)]) == 3
    assert time.perf_counter() - started < 1.0
    assert "quartic stencil" in capsys.readouterr().err


def test_cli_covariance_runs_past_the_stencil_budget_and_bit_capacity(tmp_path, capsys):
    # L = 12 has a 331,776-entry stencil and 288 psi modes; the covariance
    # needs neither check
    path = tmp_path / "wide.cfg"
    path.write_text("lattice.L = 12\n")
    out = tmp_path / "cov.json"
    assert cli.main(["covariance", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["payload"]["lattice"]["L"] == 12


def test_cli_correlate_writes_csv(tmp_path, capsys):
    out = tmp_path / "corr.json"
    assert cli.main(["correlate", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.exists()
    csv_text = (tmp_path / "corr.csv").read_text()
    assert csv_text.splitlines()[0] == "distance,alpha,beta,flavor,re,im,abs"


def test_cli_correlate_exits_4_once_it_reports_an_oracle_deviation(tmp_path, capsys,
                                                                     monkeypatch):
    assert cli.main(["correlate", "--out", str(tmp_path / "clean.json")]) == 0
    _perturb_the_oracle(monkeypatch)
    out = tmp_path / "perturbed.json"
    assert cli.main(["correlate", "--out", str(out)]) == 4
    assert "oracle deviation" in capsys.readouterr().err
    assert json.loads(out.read_text())["payload"]["oracle"]["worst_rel"] > 1e-8
    assert (tmp_path / "perturbed.csv").exists()


def test_cli_repeat_run_appends(tmp_path, capsys):
    out = tmp_path / "cov.json"
    assert cli.main(["covariance", "--out", str(out)]) == 0
    assert cli.main(["covariance", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (tmp_path / "cov.json").exists()
    assert (tmp_path / "cov-1.json").exists()


@pytest.mark.parametrize("command", ["covariance", "expand", "norms", "correlate"])
def test_cli_config_out_is_the_default_report_path(command, tmp_path, capsys):
    from_config = tmp_path / "from_config.json"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"run.out = {from_config}\n")
    assert cli.main([command, "--config", str(cfg_file)]) == 0
    assert from_config.exists()
    flag = tmp_path / "flag.json"
    assert cli.main([command, "--config", str(cfg_file), "--out", str(flag)]) == 0
    capsys.readouterr()
    assert flag.exists()
    assert not (tmp_path / "from_config-1.json").exists()


def test_cli_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("lattice.d = 1\n")
    assert cli.main(["norms", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_covariance_refuses_a_mass_whose_square_underflows(tmp_path, capsys):
    path = tmp_path / "tiny.cfg"
    path.write_text("model.m_f = 1e-170\nweights.kappa = 1e-171\n")
    assert cli.main(["covariance", "--config", str(path)]) == 2
    assert "m_f^2 underflows" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("m_f", [1e-100, 1e-150])
def test_tiny_mass_fails_fast_on_a_non_finite_series(tmp_path, capsys, m_f):
    """S is so large that the kernels overflow: at m_f = 1e-100 the rows
    read NaN, at 1e-150 they read 0.0, and every series coefficient is
    non-finite at both; the run must refuse instead of reporting them."""
    cfg = RunConfig(m_f=m_f, kappa=1e-160)
    with pytest.raises(ConfigError, match=rf"model.m_f = {m_f} with model.g = 0.05"):
        run_experiment(cfg)
    path = tmp_path / "tiny.cfg"
    path.write_text(f"model.m_f = {m_f}\nweights.kappa = 1e-160\n")
    assert cli.main(["correlate", "--config", str(path)]) == 2
    assert "non-finite log series" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, float("nan"))])
def test_series_deviation_fails_on_a_non_finite_coefficient(bad):
    from fermicluster.algebra import GrassmannElement
    from fermicluster.berezin import LogSeries
    from fermicluster.generators import GeneratorUniverse
    from fermicluster.pipeline import series_deviation

    u = GeneratorUniverse([], [((0,), 0, 0)])
    finite = LogSeries(u, GrassmannElement({0: 0.5, 0b11: 0.25}))
    broken = LogSeries(u, GrassmannElement({0: 0.5, 0b11: bad}))
    assert series_deviation(finite, finite) == (0.0, 0.0)
    assert series_deviation(finite, broken) == (float("inf"), float("inf"))
    assert series_deviation(broken, finite) == (float("inf"), float("inf"))
    assert series_deviation(broken, broken) == (float("inf"), float("inf"))


def test_cli_exit_code_capacity_error(tmp_path, capsys):
    big = tmp_path / "big.cfg"
    big.write_text("lattice.L = 5\n")
    assert cli.main(["expand", "--config", str(big), "--mode", "exact"]) == 3
    assert "capacity error" in capsys.readouterr().err


def test_truncated_run_past_bit_capacity_fails_before_any_kernel(tmp_path, monkeypatch,
                                                                  capsys):
    from fermicluster import grossneveu, pipeline

    def no_kernel(*args):
        raise AssertionError("kernel built before the capacity check")

    def no_covariance(*args):
        raise AssertionError("covariance computed before the capacity check")

    monkeypatch.setattr(grossneveu, "quartic_stencil", no_kernel)
    for module in (grossneveu, pipeline):
        monkeypatch.setattr(module, "covariance", no_covariance)
    # a pair of source sites holds 2 x 2 spinor x 9 flavors = 36 eta modes
    path = tmp_path / "wide.cfg"
    path.write_text("lattice.L = 2\nlattice.N = 9\nmodel.m_f = 3.0\nrun.mode = truncated\n")
    for command in ("correlate", "expand"):
        assert cli.main([command, "--config", str(path)]) == 3
        assert "36 eta modes need 72 bits, capacity is 64" in capsys.readouterr().err


def test_a_probe_universe_past_the_eta_capacity_fails_before_the_covariance(
        tmp_path, monkeypatch, capsys):
    from fermicluster import grossneveu, pipeline

    def no_covariance(*args):
        raise AssertionError("covariance computed before the capacity check")

    for module in (grossneveu, pipeline):
        monkeypatch.setattr(module, "covariance", no_covariance)
    # a region of 17 sites holds 17 x 2 spinor = 34 eta modes when it is
    # integrated with a probe per psi mode; a pair holds 4
    path = tmp_path / "wide-regions.cfg"
    path.write_text("lattice.L = 5\nmodel.m_f = 3.0\nrun.mode = truncated\n"
                    "expansion.max_diameter = 17\n")
    for command in ("correlate", "expand"):
        assert cli.main([command, "--config", str(path)]) == 3
        assert "34 eta modes need 68 bits, capacity is 64" in capsys.readouterr().err
    spec = grossneveu.LatticeSpec(L=5)
    pipeline.check_capacity(RunConfig(L=5, mode="truncated", max_diameter=16), spec)
    # a truncated run takes no cap but 2, so its pair runs map their source regions
    with pytest.raises(ConfigError, match="expansion.eta_cap"):
        RunConfig(L=5, mode="truncated", max_diameter=17, eta_cap=3)


@pytest.mark.parametrize("cap", [1, 4])
def test_an_eta_cap_other_than_2_fails_before_the_covariance(cap, tmp_path, monkeypatch,
                                                             capsys):
    """A cap of 1 drops every eta-bar eta term, so the run would write every
    correlation as 0.0; a cap of 4 gives the correlations of a cap of 2,
    only slower."""
    from fermicluster import grossneveu

    def no_covariance(*args):
        raise AssertionError("covariance computed before the config check")

    for module in (grossneveu, pipeline):
        monkeypatch.setattr(module, "covariance", no_covariance)
    path = tmp_path / f"cap{cap}.cfg"
    path.write_text("lattice.L = 3\nmodel.m_f = 3.0\nrun.mode = truncated\n"
                    f"expansion.eta_cap = {cap}\n")
    for command in ("correlate", "expand"):
        assert cli.main([command, "--config", str(path)]) == 2
        assert "expansion.eta_cap must be one of" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["correlate", "expand"])
def test_truncated_run_past_the_stencil_budget_fails_before_the_covariance(
        command, tmp_path, monkeypatch, capsys):
    from fermicluster import grossneveu, pipeline

    def no_covariance(*args):
        raise AssertionError("covariance computed before the stencil check")

    for module in (grossneveu, pipeline):
        monkeypatch.setattr(module, "covariance", no_covariance)
    path = tmp_path / "huge.cfg"
    path.write_text("lattice.L = 11\nmodel.m_f = 3.0\nrun.mode = truncated\n")
    started = time.perf_counter()
    assert cli.main([command, "--config", str(path)]) == 3
    assert time.perf_counter() - started < 1.0
    assert "quartic stencil" in capsys.readouterr().err


def test_exact_mode_refuses_more_than_eight_psi_modes(tmp_path, capsys):
    # 2x2 sites x 2 spinor components x 2 flavors: 16 psi modes, 4 sites.
    cfg = RunConfig(N=2)
    with pytest.raises(CapacityError, match="psi modes"):
        run_experiment(cfg)
    path = tmp_path / "two_flavors.cfg"
    path.write_text(emit_config(cfg))
    started = time.perf_counter()
    assert cli.main(["expand", "--config", str(path), "--mode", "exact"]) == 3
    assert time.perf_counter() - started < 10.0
    assert "capacity error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["expansion.max_diameter = 3", "expansion.eta_cap = 1",
                                  "expansion.floor = 1e-12"])
def test_exact_mode_refuses_truncation_keys(text, tmp_path, capsys):
    """An eta cap other than 2 is refused in any mode, before the mode check."""
    path = tmp_path / "capped.cfg"
    path.write_text(text + "\n")
    assert cli.main(["expand", "--config", str(path)]) == 2
    message = ("expansion.eta_cap must be one of" if "eta_cap" in text
               else "applies only to run.mode = truncated")
    assert message in capsys.readouterr().err


def test_truncation_keys_run_under_truncated_override(tmp_path, capsys):
    path = tmp_path / "capped.cfg"
    path.write_text("expansion.max_diameter = 3\n")
    assert cli.main(["expand", "--config", str(path), "--mode", "truncated"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["expansion"]["exact"] is False


def test_cli_missing_config_file(capsys):
    assert cli.main(["norms", "--config", "/nonexistent/nope.cfg"]) == 2
    capsys.readouterr()


def test_cli_exit_code_verification_failure(monkeypatch, capsys):
    from fermicluster.acceptance import CheckResult

    def fake_checklist(level="full"):
        return [CheckResult(1, "stub check", False, "forced failure")]

    monkeypatch.setattr("fermicluster.cli.run_checklist", fake_checklist)
    assert cli.main(["verify", "--level", "quick"]) == 4
    out = capsys.readouterr().out
    assert "FAIL criterion 1" in out and "1 of 1 criteria failed" in out


def test_config_hash_is_the_sha256_prefix_of_the_emitted_config():
    assert config_hash(RunConfig()) == "963983deece549a5"


def test_a_run_loads_neither_openssl_nor_csv():
    code = ("import sys\n"
            "from fermicluster.config import RunConfig\n"
            "from fermicluster.pipeline import run_experiment\n"
            "run_experiment(RunConfig(mode='truncated'))\n"
            "print(sorted({'_hashlib', 'csv'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fermicluster", "trees"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "tree_counts" in proc.stdout


# --------------------------------------------------------------- benchmark


def test_bench_tracer_finds_every_traced_callable(monkeypatch):
    """The benchmark's layer tracer rebinds callables by name; renaming or
    deleting one of them must fail here, not only in a traced bench run."""
    from pathlib import Path

    from fermicluster import berezin, clusters

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        assert hasattr(berezin.log_direct, "__wrapped__")
    finally:
        tracer.remove()
    assert not hasattr(berezin.log_direct, "__wrapped__")
    assert not hasattr(clusters.ursell_factor, "__wrapped__")


def test_bench_tracer_spans_a_tiny_run(monkeypatch):
    """``bench/run.py --trace 1`` needs every span to resolve and every
    expected copy to be found in the package as it is now."""
    from fermicluster import pipeline

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing

    for module, path in {**tracing.SPANS, **tracing.COUNTED}.values():
        owner, attr = tracing._resolve(module, path)
        assert callable(vars(owner)[attr]), (module, path)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert {f"{m}.{a}" for m, a in tracing.EXPECTED_COPIES} <= set(tracer.rebound)
        run_experiment(RunConfig(mode="truncated"))
    finally:
        tracer.remove()
    for name in ("pipeline.pair_series", "grossneveu.model_norms", "clusters.assemble",
                 "berezin.elim", "algebra.mul"):
        assert tracer.calls[name] > 0, name
    assert tracer.counts["clusters.candidates"] > 0
    assert not hasattr(pipeline.pair_series, "__wrapped__")


# --------------------------------------------------------------- packaging


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for path in sorted(Path(fermicluster.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not outside, outside
