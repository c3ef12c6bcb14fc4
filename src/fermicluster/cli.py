"""Command line front end.

Subcommands: covariance, expand, norms, correlate, trees, verify.  Every
command reads an optional key-value config file, applies flag overrides,
and writes a JSON report to --out (never overwriting an existing file) or
to stdout.  Exit codes: 0 ok, 2 bad configuration, 3 capacity exceeded,
4 verification failure: a failed ``verify`` criterion, or an ``expand`` or
``correlate`` run whose oracle deviates past ``ORACLE_REL_TOL``.
"""

from __future__ import annotations

import argparse
import sys
import time

from .acceptance import ORACLE_REL_TOL, run_checklist
from .config import RunConfig, load_config, with_overrides
from .errors import CapacityError, ConfigError
from .grossneveu import LatticeSpec, covariance, model_norms
from .pipeline import (
    covariance_report,
    lattice_model,
    lattice_objects,
    run_correlations,
    run_experiment,
)
from .reports import correlation_csv, render_report, write_artifact
from .trees import cayley_count, enumerate_trees, majorant_limit, majorant_partial_sum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_VERIFY = 4


def _emit(args, payload: dict, timing: dict, extra_files: dict | None = None) -> None:
    text = render_report(payload, timing)
    if args.out:
        target = write_artifact(args.out, text)
        print(f"wrote {target}")
        for suffix, content in (extra_files or {}).items():
            side = write_artifact(target.with_suffix(suffix), content)
            print(f"wrote {side}")
    else:
        sys.stdout.write(text)
        for content in (extra_files or {}).values():
            sys.stdout.write(content)


def _oracle_status(oracle: dict) -> int:
    """Exit 4, said on stderr, when the oracle ran and deviates from the
    engine past ``ORACLE_REL_TOL`` (or not finitely); else exit 0."""
    if oracle["ran"] and not oracle["worst_rel"] <= ORACLE_REL_TOL:
        print(f"oracle deviation {oracle['worst_rel']:.3e} exceeds {ORACLE_REL_TOL}",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _load(args) -> RunConfig:
    """The run's config; its run.out is the report path when --out is absent."""
    cfg = load_config(args.config) if args.config else RunConfig()
    args.out = args.out or cfg.out
    return with_overrides(cfg, mode=getattr(args, "mode", None))


def cmd_covariance(args) -> int:
    cfg = _load(args)
    cov = covariance(LatticeSpec(d=cfg.d, L=cfg.L, N=cfg.N), cfg.m_f)
    payload = {
        "lattice": {"d": cfg.d, "L": cfg.L, "N": cfg.N},
        "m_f": cfg.m_f,
        **covariance_report(cov),
    }
    _emit(args, payload, {})
    return EXIT_OK


def cmd_expand(args) -> int:
    """One assembled log series with sources on the origin and the far corner;
    exit 4 once its report is written when its oracle deviates."""
    cfg = _load(args)
    clock = time.perf_counter
    started = clock()
    spec, cov = lattice_objects(cfg)
    built_cov = clock()
    model = lattice_model(cfg, spec, cov)
    built_model = clock()
    corr = run_correlations(cfg, spec, model, cfg.mode == "exact", [spec.sites[-1]])
    series, report = corr.series_list[0], corr.reports[0]

    def label(gidx):
        bar = "bar" if gidx.bar else ""
        return f"eta{bar}{gidx.site}s{gidx.spinor}f{gidx.flavor}"

    coefficients = []
    for (zs, ws), value in series.coefficients():
        if (zs, ws) == ((), ()):
            continue
        coefficients.append({
            "key": " ".join(label(g) for g in ws),
            "re": value.real,
            "im": value.imag,
        })
    coefficients.sort(key=lambda c: c["key"])

    payload = {
        "sources": [list(spec.sites[0]), list(spec.sites[-1])],
        "constant": {"re": series.constant.real, "im": series.constant.imag},
        "coefficients": coefficients,
        "expansion": report.as_dict(),
        "oracle": corr.oracle,
    }
    stages = {
        "covariance": built_cov - started,
        "model": built_model - built_cov,
        "engine": corr.engine_s,
        "oracle": corr.oracle_s,
    }
    _emit(args, payload, {
        "wall_time_s": round(clock() - started, 3),
        "stages_s": {stage: round(seconds, 3) for stage, seconds in stages.items()},
    })
    return _oracle_status(corr.oracle)


def cmd_norms(args) -> int:
    cfg = _load(args)
    model = lattice_model(cfg, *lattice_objects(cfg, engine=False))
    norms = model_norms(model, kappa=cfg.kappa, h1=cfg.h1, h2=cfg.h2)
    payload = {
        "lattice": {"d": cfg.d, "L": cfg.L, "N": cfg.N},
        "model": {"g": cfg.g, "m_f": cfg.m_f},
        "weights": {"h1": cfg.h1, "h2": cfg.h2, "kappa": cfg.kappa},
        "norms": norms,
        "gate_sixteenth": bool(norms["gate_sixteenth"]),
    }
    _emit(args, payload, {})
    return EXIT_OK


def cmd_correlate(args) -> int:
    """The full pipeline's report; exit 4 once it is written when its oracle
    deviates."""
    cfg = _load(args)
    payload, timing = run_experiment(cfg)
    csv_text = correlation_csv(payload["correlations"])
    _emit(args, payload, timing, extra_files={".csv": csv_text})
    return _oracle_status(payload["oracle"])


def cmd_trees(args) -> int:
    counts = [{"n": n, "cayley": cayley_count(n), "enumerated": len(enumerate_trees(n))}
              for n in range(2, 8)]
    majorant = [{"eps": eps,
                 "partial_sum_6": majorant_partial_sum(eps, 6),
                 "limit": majorant_limit(eps)}
                for eps in (0.01, 0.05, 0.1, 0.12)]
    payload = {"tree_counts": counts, "majorant_table": majorant}
    _emit(args, payload, {})
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checklist(args.level)
    for result in results:
        print(result.line())
    failures = [r for r in results if not r.passed]
    if args.out:
        payload = {
            "level": args.level,
            "results": [
                {"criterion": r.criterion, "name": r.name,
                 "passed": r.passed, "details": r.details}
                for r in results
            ],
        }
        target = write_artifact(args.out, render_report(payload))
        print(f"wrote {target}")
    if failures:
        print(f"{len(failures)} of {len(results)} criteria failed")
        return EXIT_VERIFY
    print(f"all {len(results)} criteria passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermicluster",
        description="Cluster-expansion engine for small fermionic lattice models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "covariance": (cmd_covariance, "massive covariance and its decay fit"),
        "expand": (cmd_expand, "assemble one log series and cross-check it"),
        "norms": (cmd_norms, "weighted kernel norms and the smallness gate"),
        "correlate": (cmd_correlate, "full pipeline with correlation table"),
        "trees": (cmd_trees, "labelled tree counts and majorant table"),
        "verify": (cmd_verify, "run the acceptance checklist"),
    }
    for name, (handler, help_text) in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--config", metavar="PATH", default=None,
                        help="key-value config file")
        sp.add_argument("--out", metavar="PATH", default=None,
                        help="write the JSON report here instead of stdout")
        if name in ("covariance", "expand", "norms", "correlate"):
            sp.add_argument("--mode", choices=("exact", "truncated"), default=None,
                            help="override run.mode")
        if name == "verify":
            sp.add_argument("--level", choices=("quick", "full"), default="full")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
