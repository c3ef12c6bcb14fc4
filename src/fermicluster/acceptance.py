"""Verification checklist shared by the test suite and the verify command.

Each criterion function returns a CheckResult and is independent of the
others.  Criteria 1 and 2 inspect the same engine and oracle runs; pass
them in to share the work.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .algebra import GrassmannElement
from .berezin import LogSeries, effective_log_integral
from .clusters import ClusterEngine
from .coeffsys import (
    CoefficientSystem,
    onsite_density_quartic,
    source_coupling_bilinear,
)
from .config import RunConfig
from .errors import ParityError
from .generators import GeneratorUniverse, eta, psi
from .grossneveu import (
    LatticeSpec,
    Model,
    covariance,
    model_norms,
    truncated_two_point,
)
from .pipeline import (
    covariance_report,
    lattice_model,
    lattice_objects,
    oracle_pair_series,
    pair_series,
    run_experiment,
    series_deviation,
)
from .reports import render_report
from .trees import cayley_count, enumerate_trees, majorant_partial_sum, tree_degrees
from .weights import (
    TorusMetric,
    WeightSystem,
    coeff_norm,
    lemma_tree_bound_check,
    log_norm_bound_check,
    logseries_norm,
)

ORACLE_COUPLINGS = (0.02, 0.05, 0.1)
ORACLE_REL_TOL = 1e-8
#: Random sparse systems criterion 5 checks the tree bound on.
TREE_BOUND_SYSTEMS = 100


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.criterion}: {self.name} ({self.details})"


def _oracle_runs():
    """Engine and oracle series on the 2x2 lattice for the pinned couplings.

    Sources sit on the origin and the diagonally opposite site, which keeps
    the oracle tractable.
    """
    runs = []
    for g in ORACLE_COUPLINGS:
        cfg = RunConfig(g=g, m_f=1.0, mode="exact")
        spec, cov = lattice_objects(cfg)
        model = lattice_model(cfg, spec, cov)
        y1, y2 = spec.sites[0], spec.sites[-1]
        series, report = pair_series(cfg, spec, model, y1, y2)
        oracle = oracle_pair_series(model, y1, y2)
        runs.append((cfg, spec, model, (y1, y2), series, report, oracle))
    return runs


def criterion_1_oracle_equivalence(runs=None) -> CheckResult:
    runs = runs if runs is not None else _oracle_runs()
    worst = 0.0
    exact_all = True
    for cfg, _, _, _, series, report, oracle in runs:
        _, rel = series_deviation(series, oracle)
        worst = max(worst, rel)
        exact_all = exact_all and report.exact
    passed = worst <= ORACLE_REL_TOL and exact_all
    details = (f"g in {ORACLE_COUPLINGS}, worst relative deviation {worst:.3e}, "
               f"all runs exact={exact_all}")
    return CheckResult(1, "cluster engine equals direct-log oracle", passed, details)


def criterion_2_log_norm_bound(runs=None) -> CheckResult:
    """Convergence inequality on every gated run, plus one open-gate run.

    At the pinned couplings the interaction norm sits above the 1/16 gate,
    so those verdicts are not-applicable by construction; a smaller
    coupling with an open gate keeps the check non-vacuous.
    """
    runs = runs if runs is not None else _oracle_runs()
    small = RunConfig(g=0.002, m_f=1.0, mode="exact")
    spec, cov = lattice_objects(small)
    model = lattice_model(small, spec, cov)
    sources = (spec.sites[0], spec.sites[-1])
    series, _ = pair_series(small, spec, model, *sources)
    verdicts = []
    for cfg, spec, model, sources, series, *_ in [*runs, (small, spec, model, sources, series)]:
        f_norm = model_norms(model, kappa=cfg.kappa, source_sites=sources)["v1_norm"]
        h_norm = logseries_norm(series.coefficients(), cfg.h2, cfg.kappa, spec.metric)
        verdicts.append((cfg.g, log_norm_bound_check(f_norm, h_norm)[2]))

    # the open-gate run comes last and must hold; no gated run may fail
    passed = all(h is not False for _, h in verdicts) and verdicts[-1][1] is True
    details = ("verdicts " +
               ", ".join(f"g={g}: {'n/a' if h is None else h}" for g, h in verdicts))
    return CheckResult(2, "log-series norm bound", passed, details)


def criterion_3_norm_examples() -> CheckResult:
    sites = [(x, 0) for x in range(4)]
    metric = TorusMetric((4, 4))
    failures = []
    for d, n_flavor in ((2, 1), (2, 3), (3, 2)):
        h1, h2 = 4.0, 1.0
        quartic = onsite_density_quartic(sites, spinor_count=d,
                                         flavor_count=n_flavor, coupling=1.0)
        got = coeff_norm(quartic, WeightSystem(0.5, h1, h2, metric))
        want = d * d * n_flavor * n_flavor * h1 ** 4
        if abs(got - want) > 1e-9 * want:
            failures.append(f"quartic d={d} N={n_flavor}: {got} != {want}")
        bilinear = source_coupling_bilinear(sites, spinor_count=d,
                                            flavor_count=n_flavor, coupling=1.0)
        got = coeff_norm(bilinear, WeightSystem(0.5, h1, h2, metric))
        want = 2 * d * n_flavor * h1 * h2
        if abs(got - want) > 1e-9 * want:
            failures.append(f"bilinear d={d} N={n_flavor}: {got} != {want}")
    passed = not failures
    details = "; ".join(failures) if failures else \
        "on-site density and source-coupling counts exact"
    return CheckResult(3, "weighted norm index counting", passed, details)


def criterion_4_majorant() -> CheckResult:
    results = []
    passed = True
    for eps in (0.01, 0.05, 0.1, 0.12):
        started = time.perf_counter()
        partial = majorant_partial_sum(eps, 6)
        elapsed = time.perf_counter() - started
        limit = eps / (1 - 8 * eps)
        ok = partial <= limit * (1 + 1e-12) and elapsed < 10.0
        passed = passed and ok
        results.append(f"eps={eps}: {partial:.6f} <= {limit:.6f} in {elapsed:.2f}s")
    return CheckResult(4, "tree-sum majorant partial sums", passed, "; ".join(results))


def _random_sparse_system(rng: random.Random) -> CoefficientSystem:
    out = CoefficientSystem()
    n_entries = rng.randint(2, 5)
    for _ in range(n_entries):
        degree = rng.choice((2, 4))
        gens = []
        used = set()
        while len(gens) < degree:
            site = (rng.randrange(3), rng.randrange(3))
            spinor = rng.randrange(2)
            bar = rng.random() < 0.5
            key = (site, spinor, bar)
            if key in used:
                continue
            used.add(key)
            gens.append(psi(site, spinor, 0, bar=bar))
        value = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.3
        out.add(tuple(gens), (), value)
    return out


def criterion_5_tree_convolution_bound() -> CheckResult:
    rng = random.Random(20260814)
    metric = TorusMetric((3, 3))
    violations = 0
    for _ in range(TREE_BOUND_SYSTEMS):
        system = _random_sparse_system(rng)
        n = rng.choice((2, 3))
        trees = enumerate_trees(n)
        tree = trees[rng.randrange(len(trees))]
        lhs, rhs, ok = lemma_tree_bound_check(system, tree, n, h=1.0,
                                              kappa=0.4, metric=metric)
        if not ok:
            violations += 1
    passed = violations == 0
    details = f"{TREE_BOUND_SYSTEMS} random systems, {violations} violations"
    return CheckResult(5, "tree-convolution norm bound", passed, details)


def criterion_6_tree_counts() -> CheckResult:
    failures = []
    for n in range(2, 8):
        trees = enumerate_trees(n)
        if len(trees) != cayley_count(n):
            failures.append(f"n={n}: enumerated {len(trees)} != {cayley_count(n)}")
        # the count behind criterion 4's majorant terms
        weighted = sum(math.prod(math.factorial(d) for d in tree_degrees(tree, n))
                       for tree in trees)
        closed = math.factorial(n - 2) * math.comb(3 * n - 3, n - 2)
        if weighted != closed:
            failures.append(f"n={n}: sum of prod d_i! {weighted} != {closed}")
    passed = not failures
    details = "; ".join(failures) if failures else "n=2..7 labelled tree counts exact"
    return CheckResult(6, "labelled tree counts", passed, details)


def criterion_7_parity_guards() -> CheckResult:
    """Each route into a log series refuses odd input before any work."""
    universe = GeneratorUniverse([((0,), 0, 0)], [((0,), 0, 0)])
    lone_psi = GrassmannElement({universe.bit(psi((0,))): 1.0})
    lone_eta = GrassmannElement({universe.bit(eta((0,))): 1.0})
    guards = {
        "LogSeries": lambda: LogSeries(universe, lone_eta),
        "ClusterEngine": lambda: ClusterEngine(universe, lone_psi),
        "effective_log_integral": lambda: effective_log_integral(universe, lone_psi),
    }
    silent = []
    for name, build in guards.items():
        try:
            build()
        except ParityError:
            continue
        silent.append(name)
    passed = not silent
    details = (f"{', '.join(guards)} raise ParityError on odd input" if passed
               else f"no ParityError from {', '.join(silent)}")
    return CheckResult(7, "odd input is refused", passed, details)


def criterion_8_free_theory_reduction() -> CheckResult:
    cfg = RunConfig(L=4, g=0.05, m_f=1.0, mode="exact")
    spec = LatticeSpec(d=cfg.d, L=cfg.L, N=cfg.N)
    cov = covariance(spec, cfg.m_f)
    free = Model.build(spec, cov, 0.0, source_g=cfg.g)
    worst = 0.0
    pairs = 0
    sites = spec.sites
    for i, y1 in enumerate(sites):
        for y2 in sites[i:]:
            series, _ = pair_series(cfg, spec, free, y1, y2)
            for a, b in ((y1, y2), (y2, y1)):
                for alpha in range(spec.spinor_dim):
                    for beta in range(spec.spinor_dim):
                        got = truncated_two_point(series, cfg.g, a, b, alpha, beta)
                        want = cov.entry(a, b, alpha, beta)
                        scale = max(abs(want), 1e-12)
                        worst = max(worst, abs(got - want) / scale)
                        pairs += 1
    passed = worst <= 1e-9
    details = f"4x4 lattice, {pairs} channel evaluations, worst relative {worst:.3e}"
    return CheckResult(8, "free theory reduces to the covariance", passed, details)


def criterion_9_covariance_decay() -> CheckResult:
    fit = covariance_report(covariance(LatticeSpec(d=2, L=16), 1.0))["fit"]
    passed = fit["usable"] and fit["kappa"] > 0 and fit["r_squared"] >= 0.95
    details = (f"kappa_S={fit['kappa']:.4f}, r2={fit['r_squared']:.4f}"
               if fit["usable"] else "fit unusable")
    return CheckResult(9, "covariance decay fit", passed, details)


def criterion_10_interacting_decay() -> CheckResult:
    m_f = 3.0
    fits = {}
    flags = {}
    for L, mode in ((2, "exact"), (3, "truncated")):
        payload, _ = run_experiment(RunConfig(L=L, mode=mode, m_f=m_f, g=0.05))
        fits[L] = payload["correlation_fit"]
        flags[L] = payload["expansion"]["exact"]
    ok = all(f["usable"] for f in fits.values())
    if ok:
        k2, k3 = fits[2]["kappa"], fits[3]["kappa"]
        cap = 1.05 * m_f
        spread = abs(k2 - k3) / max(k2, k3)
        ok = k2 > 0 and k3 > 0 and k2 <= cap and k3 <= cap and spread <= 0.15
        details = (f"kappa 2x2={k2:.4f} (exact={flags[2]}), "
                   f"3x3={k3:.4f} (exact={flags[3]}), spread {spread:.1%}, "
                   f"cap {cap:.2f}")
    else:
        details = "fit unusable"
    return CheckResult(10, "interacting decay rates agree across sizes", ok, details)


def criterion_11_determinism() -> CheckResult:
    cfg = RunConfig()
    first, _ = run_experiment(cfg)
    second, _ = run_experiment(cfg)
    text_a = render_report(first)
    text_b = render_report(second)
    passed = text_a == text_b
    details = "two runs, identical payload bytes" if passed else "payloads differ"
    return CheckResult(11, "report determinism", passed, details)


def run_checklist(level: str = "full") -> list[CheckResult]:
    """Quick level: combinatorial and norm identities plus the parity guards;
    full adds the engine and model criteria."""
    quick = [
        criterion_3_norm_examples(),
        criterion_4_majorant(),
        criterion_5_tree_convolution_bound(),
        criterion_6_tree_counts(),
        criterion_7_parity_guards(),
    ]
    if level == "quick":
        return quick
    runs = _oracle_runs()
    return [
        criterion_1_oracle_equivalence(runs),
        criterion_2_log_norm_bound(runs),
        *quick,
        criterion_8_free_theory_reduction(),
        criterion_9_covariance_decay(),
        criterion_10_interacting_decay(),
        criterion_11_determinism(),
    ]
