"""Weighted kernel norms and the tree-sum convergence bounds.

The norm of a coefficient system sums, over degree classes, the largest
pinned weighted mass: pin one psi slot and/or one eta slot to a lattice
site, add up ``exp(kappa * tree_length(support)) h1^n h2^m |value|`` over
the entries matching the pin, and take the maximum over pins.  Pinning by
site (not by full generator) reproduces the reference index counting for
the on-site examples, diagonal entries included: the kernel is measured
as stored, not antisymmetrized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .coeffsys import CoefficientSystem
from .errors import CapacityError
from .generators import Site
from .trees import TreeEdges, tree_degrees

MAX_TREESUM_TUPLES = 2_000_000
BOUND_SLACK = 1e-9  # relative round-off allowed on the bound checks' right side


@dataclass(frozen=True)
class TorusMetric:
    """Distance on a periodic box, minimal image in every coordinate."""

    extents: tuple[int, ...]

    def displacement(self, x: Site, y: Site) -> tuple[int, ...]:
        out = []
        for xi, yi, li in zip(x, y, self.extents):
            delta = abs(xi - yi) % li
            out.append(min(delta, li - delta))
        return tuple(out)

    def distance(self, x: Site, y: Site) -> float:
        return math.sqrt(sum(d * d for d in self.displacement(x, y)))


def tree_length(metric: TorusMetric, sites: Iterable[Site]) -> float:
    """Minimum-spanning-tree length of a site set (0 for <= 1 site).

    An upper bound on the Steiner length; both sides of every inequality
    in this module use the same convention, so the checks are consistent.
    """
    points = list(set(sites))
    if len(points) <= 1:
        return 0.0
    # Prim's algorithm on the complete graph.
    in_tree = [points.pop()]
    best = {p: metric.distance(in_tree[0], p) for p in points}
    total = 0.0
    while best:
        nxt = min(best, key=lambda p: (best[p], p))
        total += best.pop(nxt)
        for p in best:
            d = metric.distance(nxt, p)
            if d < best[p]:
                best[p] = d
    return total


@dataclass(frozen=True)
class WeightSystem:
    """exp(kappa * tree length) times per-slot weights h1 (psi), h2 (eta)."""

    kappa: float
    h1: float
    h2: float
    metric: TorusMetric

    def weight(self, n_psi: int, n_eta: int, sites: Iterable[Site]) -> float:
        return (
            math.exp(self.kappa * tree_length(self.metric, sites))
            * self.h1 ** n_psi
            * self.h2 ** n_eta
        )

def coeff_norm(a: CoefficientSystem, w: WeightSystem) -> float:
    """Pinned weighted sum over each degree class, constant class excluded.

    Within class (n, m) the pin fixes one psi slot index and one eta slot
    index (whichever exist) and a site; an entry counts once when either
    pinned slot sits at that site.
    """
    by_class: dict[tuple[int, int], list] = {}
    for (zs, ws), value in a:
        by_class.setdefault((len(zs), len(ws)), []).append((zs, ws, value))
    total = 0.0
    for (n, m), items in sorted(by_class.items()):
        if (n, m) == (0, 0):
            continue
        if n and m:
            pairs = [(i, j) for i in range(n) for j in range(m)]
        elif n:
            pairs = [(i, None) for i in range(n)]
        else:
            pairs = [(None, j) for j in range(m)]
        buckets: dict[tuple, float] = {}
        for zs, ws, value in items:
            mass = w.weight(n, m, (g.site for g in zs + ws)) * abs(value)
            for i, j in pairs:
                pin_sites = set()
                if i is not None:
                    pin_sites.add(zs[i].site)
                if j is not None:
                    pin_sites.add(ws[j].site)
                for p in pin_sites:
                    key = (i, j, p)
                    buckets[key] = buckets.get(key, 0.0) + mass
        total += max(buckets.values(), default=0.0)
    return total


def logseries_norm(coefficients: CoefficientSystem, h: float, kappa: float,
                   metric: TorusMetric) -> float:
    """Norm of a log-series kernel: eta slots weighted by h, constant dropped."""
    return coeff_norm(coefficients, WeightSystem(kappa, 1.0, h, metric))


def treesum_coeff(a: CoefficientSystem, tree: TreeEdges, n: int) -> CoefficientSystem:
    """Tree-constrained n-fold concatenation product of a kernel with itself.

    Every ordered n-tuple of stored entries whose psi supports realize the
    tree as a subgraph of their overlap graph contributes the product of
    values at the concatenated key.
    """
    entries = list(a)
    if len(entries) ** n > MAX_TREESUM_TUPLES:
        raise CapacityError(
            f"{len(entries)} entries to the power {n} exceeds the treesum budget")
    supports = [frozenset(g.site for g in zs) for (zs, _), _ in entries]
    out = CoefficientSystem()

    def rec(depth: int, chosen: list[int]):
        if depth == n:
            zs_cat: tuple = ()
            ws_cat: tuple = ()
            value = 1.0 + 0j
            for idx in chosen:
                (zs, ws), v = entries[idx]
                zs_cat += zs
                ws_cat += ws
                value *= v
            out.add(zs_cat, ws_cat, value)
            return
        for idx in range(len(entries)):
            chosen.append(idx)
            # prune: every tree edge into the placed prefix must overlap
            ok = all(
                supports[chosen[i]] & supports[chosen[j]]
                for i, j in tree
                if i < len(chosen) and j < len(chosen)
            )
            if ok:
                rec(depth + 1, chosen)
            chosen.pop()

    rec(0, [])
    return out


def lemma_tree_bound_check(a: CoefficientSystem, tree: TreeEdges, n: int, h: float,
                           kappa: float, metric: TorusMetric) -> tuple[float, float, bool]:
    """Check |a_T| at psi-weight 1 against prod(d_i!) |a|^n at psi-weight 2."""
    lhs = coeff_norm(treesum_coeff(a, tree, n), WeightSystem(kappa, 1.0, h, metric))
    base = coeff_norm(a, WeightSystem(kappa, 2.0, h, metric))
    rhs = base ** n
    for d in tree_degrees(tree, n):
        rhs *= math.factorial(d)
    return lhs, rhs, lhs <= rhs * (1 + BOUND_SLACK)


def log_norm_bound_check(f_norm: float, h_norm: float) -> tuple[float, float, bool | None]:
    """Main convergence inequality: hNorm <= fNorm / (1 - 16 fNorm).

    fNorm is the interaction norm at psi-weight 4; hNorm the log-series
    norm with the constant removed.  Returns holds=None when the
    smallness gate fNorm < 1/16 fails (bound not applicable).
    """
    if f_norm >= 1.0 / 16.0:
        return f_norm, h_norm, None
    bound = f_norm / (1.0 - 16.0 * f_norm)
    return f_norm, h_norm, h_norm <= bound * (1 + BOUND_SLACK)
