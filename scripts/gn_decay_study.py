#!/usr/bin/env python3
"""Compare interacting two-point decay rates across lattice sizes.

For each fermion mass, runs the full pipeline on a 2x2 lattice (exact
expansion) and a 3x3 lattice (truncated expansion) and prints the fitted
decay rate from each, the relative spread between them, and the free-theory
rate for reference.  Small spreads indicate the truncation and the torus
image fit are both under control.
"""

import argparse

from fermicluster.config import RunConfig
from fermicluster.grossneveu import LatticeSpec, covariance
from fermicluster.pipeline import covariance_report, run_experiment


def free_rate(m_f: float, side: int = 16) -> float:
    """Free-propagator rate on a torus large enough for a clean fit."""
    return covariance_report(covariance(LatticeSpec(d=2, L=side, N=1), m_f))["fit"]["kappa"]


def one_size(L: int, mode: str, g: float, m_f: float) -> dict:
    cfg = RunConfig(L=L, mode=mode, g=g, m_f=m_f, kappa=min(0.5, m_f / 2))
    payload, timing = run_experiment(cfg)
    fit = payload["correlation_fit"]
    return {
        "kappa": fit["kappa"],
        "usable": fit["usable"],
        "exact": payload["expansion"]["exact"],
        "seconds": timing["wall_time_s"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--coupling", type=float, default=0.05)
    parser.add_argument("--masses", type=float, nargs="+", default=[1.0, 2.0, 3.0])
    args = parser.parse_args()

    print(f"coupling g = {args.coupling}")
    header = f"{'m_f':>5}  {'kappa 2x2':>10}  {'kappa 3x3':>10}  {'spread':>7}  {'kappa free':>10}"
    print(header)
    for m_f in args.masses:
        small = one_size(2, "exact", args.coupling, m_f)
        large = one_size(3, "truncated", args.coupling, m_f)
        spread = abs(small["kappa"] - large["kappa"]) / max(small["kappa"], large["kappa"])
        print(
            f"{m_f:>5.2f}  {small['kappa']:>10.4f}  {large['kappa']:>10.4f}"
            f"  {spread:>6.1%}  {free_rate(m_f):>10.4f}"
        )
        assert small["exact"] and not large["exact"]


if __name__ == "__main__":
    main()
