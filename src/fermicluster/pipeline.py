"""Experiment orchestration: covariance, expansion, norms, correlations, fits.

Each run builds its interaction once, as a :class:`Model`: S's origin
row, and from it in numpy the quartic stencil, the element of the entries
of one psi-bar site, which translation carries to every other site.  The
model's norms and the sources of any sites are numpy arrays over the same
row.  A correlation run restricts the sources to the probed pair of sites.
Its engine takes only their source terms and reads the quartic part from
the model's source-free engine, built by the first pair run; the oracle
takes the whole interaction.  Dropping the source terms with an eta
elsewhere is exactly setting those sources to zero, and it keeps the eta
sector small enough for exact work.  Retained
coefficients move only by rounding and the engine's branch floor: a third
source site moves those of (origin, far corner) by 2.2e-19 absolute in the
oracle and 6.5e-16 in the engine on exact 2x2 (2.5e-15 for the constant),
and by 1.9e-10 in the engine on truncated 3x3, m_f = 3 (2.5e-9 for the
constant), whose floor is 1e-9.  Every pair run, of ``correlate``,
``expand`` and the verify checklist alike, goes through
:func:`run_correlations`, sources on the origin and a target; one target
per distance class gives the distance table.  An exact run reads the
origin's own rows off the run of the first other target, the nearest in
the table, whose series holds every monomial of the origin's one-source
series; so the engine and the oracle each make one pair run fewer.  A
truncated run keeps its origin run, since its floor prunes differently
under a second source.  The probed-sector norm of the assembled series is
a lower bound on the full-source norm, so a convergence-bound violation on
it would falsify the full statement as well.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, fields

from .berezin import LogSeries, log_direct
from .clusters import ClusterEngine, ClusterOptions, ExpansionReport
from .coeffsys import CoefficientSystem
from .config import RunConfig
from .errors import CapacityError, ConfigError
from .generators import Site
from .grossneveu import (
    Covariance,
    LatticeSpec,
    Model,
    check_stencil,
    correlation_rows,
    covariance,
    covariance_decay_table,
    decay_fit,
    model_norms,
    torus_decay_fit,
    universe_for,
)
from .weights import log_norm_bound_check, logseries_norm

#: Most psi modes (sites x spinor components x flavors) exact mode takes on.
EXACT_MODE_PSI_LIMIT = 8


def lattice_objects(cfg: RunConfig, engine: bool = True,
                    ) -> tuple[LatticeSpec, Covariance]:
    """The run's lattice and covariance behind ``check_stencil`` and, for a
    run of the engine, ``check_capacity``: a refused lattice builds no
    covariance."""
    spec = LatticeSpec(d=cfg.d, L=cfg.L, N=cfg.N)
    check_stencil(spec)
    if engine:
        check_capacity(cfg, spec)
    return spec, covariance(spec, cfg.m_f)


def engine_options(cfg: RunConfig) -> ClusterOptions:
    if cfg.mode == "exact":
        return ClusterOptions(n_max=cfg.n_max)
    return ClusterOptions(
        n_max=cfg.n_max,
        floor=cfg.floor,
        max_polymer_sites=cfg.max_diameter,
        eta_degree_cap=cfg.eta_cap,
    )


def check_capacity(cfg: RunConfig, spec: LatticeSpec) -> None:
    """Refuse a lattice whose pair of source sites has more eta modes than
    the eta family's bit capacity, or, in truncated mode, whose regions of
    ``max_diameter`` sites do: the source-free engine integrates them with
    an eta mode per psi mode (``clusters`` module docstring).
    Refuse as well exact mode where the exact engine and the oracle cannot
    finish, and a truncation key that exact mode would ignore; all before
    any kernel is built."""
    universe_for(spec, spec.sites[:2])
    if cfg.mode != "exact":
        universe_for(spec, spec.sites[:cfg.max_diameter])
        return
    for field in fields(RunConfig):
        if (field.name in ("max_diameter", "floor")
                and getattr(cfg, field.name) != field.default):
            raise ConfigError(
                f"expansion.{field.name} applies only to run.mode = truncated; "
                f"drop it from the config or run truncated")
    if spec.n_sites * spec.spinor_dim * spec.N > EXACT_MODE_PSI_LIMIT:
        raise CapacityError(
            f"exact mode handles up to {EXACT_MODE_PSI_LIMIT} psi modes; got "
            f"{spec.n_sites} sites x {spec.spinor_dim} spinor x {spec.N} flavors; "
            f"lower lattice.L or lattice.N, or use run.mode = truncated")


def probe_coupling(cfg: RunConfig) -> float:
    """Coupling carried by the source terms.

    At g = 0 the sources would vanish with the interaction and leave the
    two-point function as 0/0; probing the free theory with unit sources
    yields its well-defined limit, the bare covariance.
    """
    return cfg.g if cfg.g > 0 else 1.0


def lattice_model(cfg: RunConfig, spec: LatticeSpec, cov: Covariance) -> Model:
    """The run's interaction kernels, built once, sources at the probe coupling."""
    return Model.build(spec, cov, cfg.g, source_g=probe_coupling(cfg))


def pair_series(cfg: RunConfig, spec: LatticeSpec, model: Model,
                y1: Site, y2: Site) -> tuple[LogSeries, ExpansionReport]:
    """Assembled log series with sources restricted to two sites."""
    engine = ClusterEngine(*model.sources((y1, y2)),
                           source_free=model.source_free(engine_options(cfg)))
    series, report = engine.assemble()
    return _finite(series, cfg.m_f, cfg.g), report


def oracle_pair_series(model: Model, y1: Site, y2: Site) -> LogSeries:
    return _finite(log_direct(*model.interaction((y1, y2))), model.cov.m_f, model.g)


def _finite(series: LogSeries, m_f: float, g: float) -> LogSeries:
    """``series``, or ConfigError when a coefficient is not finite: the
    kernels overflowed, as they do when S is huge at a tiny mass."""
    if not all(map(cmath.isfinite, series.element.terms.values())):
        raise ConfigError(
            f"model.m_f = {m_f} with model.g = {g} gives a non-finite log series "
            f"(the kernels overflow); raise model.m_f or lower model.g")
    return series


def series_deviation(a: LogSeries, b: LogSeries) -> tuple[float, float]:
    """Worst absolute and worst relative coefficient difference; both are
    infinite when either side holds a non-finite coefficient."""
    worst_abs = 0.0
    worst_rel = 0.0
    for mask in set(a.element.terms) | set(b.element.terms):
        va = a.element.terms.get(mask, 0j)
        vb = b.element.terms.get(mask, 0j)
        if not (cmath.isfinite(va) and cmath.isfinite(vb)):
            return math.inf, math.inf
        diff = abs(va - vb)
        worst_abs = max(worst_abs, diff)
        # differences below the absolute floor never count as relative error
        if diff > 1e-12:
            worst_rel = max(worst_rel, diff / max(abs(va), abs(vb)))
    return worst_abs, worst_rel


def representative_targets(spec: LatticeSpec) -> list[Site]:
    """Origin plus the first site of every distance class from the origin."""
    origin = spec.sites[0]
    seen: dict[float, Site] = {}
    for site in spec.sites:
        r = round(spec.metric.distance(origin, site), 9)
        seen.setdefault(r, site)
    return [seen[r] for r in sorted(seen)]


@dataclass
class CorrelationResult:
    rows: list[dict]
    samples: list[tuple[Site, float]]
    series_list: list[LogSeries]
    reports: list[ExpansionReport]
    oracle: dict
    engine_s: float
    oracle_s: float


def merged_coefficients(series_list: list[LogSeries]) -> CoefficientSystem:
    """Union of per-run kernels; shared entries keep their first value."""
    out = CoefficientSystem()
    for series in series_list:
        for key, value in series.coefficients():
            if key != ((), ()):
                out.entries.setdefault(key, value)
    return out


def run_correlations(cfg: RunConfig, spec: LatticeSpec, model: Model,
                     with_oracle: bool, targets: list[Site]) -> CorrelationResult:
    """One engine run per pair (origin, target), in ``targets`` order, and
    one oracle run beside each when ``with_oracle``; but an exact run makes
    no (origin, origin) run when another target is listed.

    It reads the origin's rows and sample off the first other target's
    series instead, which holds every monomial of the origin's own series:
    dropping a site's sources only drops the monomials that hold its eta.
    The rows move by rounding alone, within 1.4e-11 of their largest
    magnitude on exact 2x2 at g = 0.002 to 0.2.  A truncated run keeps its
    origin run: a second source raises node norms, so the floor prunes
    other branches, and the origin's rows would move by 2.7e-7 (L = 3) to
    1.2e-6 (L = 4) of their largest magnitude.

    The rows are each target's correlation rows, concatenated, and a
    target's sample is the largest of its magnitudes.  ``series_list`` and
    ``reports`` hold one entry per pair run made.  The oracle block holds
    the worst deviation of the engine from the oracle over the runs.
    """
    origin = spec.sites[0]
    probe = probe_coupling(cfg)
    others = [target for target in targets if target != origin]
    # the pair run whose series each target's rows are read from
    source = {target: target for target in targets}
    if cfg.mode == "exact" and others:
        source[origin] = others[0]
    series_of: dict[Site, LogSeries] = {}
    reports = []
    worst_abs = worst_rel = None
    engine_s = oracle_s = 0.0
    for target in dict.fromkeys(source.values()):
        started = time.perf_counter()
        series, report = pair_series(cfg, spec, model, origin, target)
        engine_s += time.perf_counter() - started
        series_of[target] = series
        reports.append(report)
        if with_oracle:
            started = time.perf_counter()
            oracle = oracle_pair_series(model, origin, target)
            oracle_s += time.perf_counter() - started
            da, dr = series_deviation(series, oracle)
            worst_abs = max(worst_abs or 0.0, da)
            worst_rel = max(worst_rel or 0.0, dr)
    rows: list[dict] = []
    samples: list[tuple[Site, float]] = []
    for target in targets:
        pair_rows = correlation_rows(series_of[source[target]], probe, spec, target)
        envelope = max((row["abs"] for row in pair_rows), default=0.0)
        if envelope > 0.0:
            samples.append((target, envelope))
        rows += pair_rows
    oracle_block = {"ran": with_oracle, "worst_abs": worst_abs, "worst_rel": worst_rel}
    return CorrelationResult(rows, samples, list(series_of.values()), reports,
                             oracle_block, engine_s, oracle_s)


def covariance_report(cov: Covariance) -> dict:
    """log det S^-1, the decay table of S and its fit over 0 < r <= L/2."""
    table = covariance_decay_table(cov)
    half = cov.spec.L / 2
    try:
        fit = {"usable": True,
               **decay_fit([(r, m) for r, m in table if 0 < r <= half]).as_dict()}
    except ValueError:
        fit = {"usable": False}
    return {
        "log_det_inverse": cov.log_det,
        "decay_table": [[r, m] for r, m in table],
        "fit": fit,
    }


def correlation_fit(samples: list[tuple[Site, float]], L: int) -> dict:
    """Wrap-aware decay fit of the per-target magnitude envelope."""
    try:
        fit = torus_decay_fit(samples, L)
    except ValueError:
        return {"usable": False}
    return {"usable": True, **fit.as_dict()}


def expansion_summary(reports: list[ExpansionReport]) -> dict:
    return {
        "mode": reports[0].mode if reports else "none",
        "runs": len(reports),
        "exact": all(r.exact for r in reports),
        "polymer_count_max": max((r.polymer_count for r in reports), default=0),
        "cluster_count_total": sum(r.cluster_count for r in reports),
        "n_reached_max": max((r.n_reached for r in reports), default=0),
        "tail_max": max((r.tail for r in reports), default=0.0),
    }


def run_experiment(cfg: RunConfig) -> tuple[dict, dict]:
    """Full pipeline; returns (deterministic payload, timing block).

    The timing block holds the wall time and, under ``stages_s``, the
    seconds of each stage: ``covariance``, ``model`` (the kernel build),
    ``norms`` (the model norms and the log-series norm), ``engine`` and
    ``oracle`` (every pair run of each), and ``fits`` (the decay tables and
    fits).
    """
    from .reports import config_hash
    clock = time.perf_counter
    started = clock()
    spec, cov = lattice_objects(cfg)
    built_cov = clock()
    model = lattice_model(cfg, spec, cov)
    built_model = clock()
    norms = model_norms(model, kappa=cfg.kappa, h1=cfg.h1, h2=cfg.h2)
    normed = clock()

    corr = run_correlations(cfg, spec, model, cfg.mode == "exact",
                            representative_targets(spec))

    correlated = clock()
    h_norm = logseries_norm(merged_coefficients(corr.series_list),
                            cfg.h2, cfg.kappa, spec.metric)
    f_norm, _, holds = log_norm_bound_check(norms["v1_norm"], h_norm)
    log_norm_bound = {
        "f_norm": f_norm,
        "h_norm_probed": h_norm,
        "gate_sixteenth": bool(norms["gate_sixteenth"]),
        "holds": holds,
    }
    bounded = clock()
    covariance_fits = covariance_report(cov)
    correlation_fits = correlation_fit(corr.samples, cfg.L)
    fitted = clock()
    stages = {
        "covariance": built_cov - started,
        "model": built_model - built_cov,
        "norms": normed - built_model + bounded - correlated,
        "engine": corr.engine_s,
        "oracle": corr.oracle_s,
        "fits": fitted - bounded,
    }

    payload = {
        "config_hash": config_hash(cfg),
        "lattice": {"d": cfg.d, "L": cfg.L, "N": cfg.N},
        "model": {"g": cfg.g, "m_f": cfg.m_f},
        "covariance": covariance_fits,
        "norms": norms,
        "log_norm_bound": log_norm_bound,
        "expansion": expansion_summary(corr.reports),
        "correlations": corr.rows,
        "correlation_samples": [[list(site), value] for site, value in corr.samples],
        "correlation_fit": correlation_fits,
        "oracle": corr.oracle,
    }
    timing = {
        "wall_time_s": round(clock() - started, 3),
        "stages_s": {stage: round(seconds, 3) for stage, seconds in stages.items()},
    }
    return payload, timing
