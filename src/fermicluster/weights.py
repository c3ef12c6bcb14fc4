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
from itertools import chain
from operator import attrgetter
from typing import Iterable

import numpy as np

from .coeffsys import CoefficientSystem
from .errors import CapacityError
from .generators import Site
from .trees import TreeEdges, tree_degrees

MAX_TREESUM_TUPLES = 2_000_000
BOUND_SLACK = 1e-9  # relative round-off allowed on the bound checks' right side

_site_of = attrgetter("site")


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

    Each class reads its slots as small site ids, weighs each distinct site
    set once, on the frozenset of the first entry that holds it, and sums
    every pin with one ``np.bincount`` fed in entry order: the order of a
    running sum per (pin, site) bucket, so the sums are that loop's bit for
    bit.  Weights must be positive: buckets that no entry reaches hold 0.0
    and take part in the maximum.
    """
    by_class: dict[tuple[int, int], tuple[list, list]] = {}
    for key, value in a:
        shape = (len(key[0]), len(key[1]))
        if shape not in by_class:
            by_class[shape] = ([], [])
        keys, values = by_class[shape]
        keys.append(key)
        values.append(value)
    total = 0.0
    for (n, m), (keys, values) in sorted(by_class.items()):
        if not n + m:
            continue
        sites = list(map(_site_of, chain.from_iterable(chain.from_iterable(keys))))
        site_id = {s: i for i, s in enumerate(set(sites))}
        ids = np.fromiter(map(site_id.__getitem__, sites), np.intp,
                          len(sites)).reshape(len(keys), n + m)
        first, inverse = _first_of_each_set(ids)
        weight = np.array([w.weight(n, m, frozenset(g.site for g in zs + ws))
                           for zs, ws in map(keys.__getitem__, first)])
        # Python's abs: numpy's complex abs can differ in the last bit
        mass = weight[inverse] * np.fromiter(map(abs, values), float, len(values))
        if n and m:
            # pin (i, j) is column i * m + j; where its eta slot shares the
            # psi slot's site it adds 0.0, which leaves the bucket as it is
            psi_site = np.repeat(ids[:, :n], m, axis=1)
            eta_site = np.tile(ids[:, n:], n)
            pinned = np.stack([psi_site, eta_site], axis=2)
            spread = np.stack([np.repeat(mass[:, None], n * m, axis=1),
                               np.where(eta_site != psi_site, mass[:, None], 0.0)], axis=2)
        else:
            pinned = ids[:, :, None]
            spread = np.repeat(mass, n + m)
        # bucket pin * sites + site; raveling keeps entry order in each bucket
        buckets = pinned + (np.arange(pinned.shape[1]) * len(site_id))[:, None]
        total += float(np.bincount(buckets.ravel(), spread.ravel()).max())
    return total


def _first_of_each_set(ids: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Group the rows of ``ids`` by the set of values they hold.

    Returns the first row of each group, in group order, and each row's
    group.  A stable sort of the rows as sets puts a group's rows in row
    order, so its first sorted row is its first row.
    """
    canon = np.sort(ids, axis=1)
    canon[:, 1:][canon[:, 1:] == canon[:, :-1]] = -1  # repeated sites
    canon.sort(axis=1)
    order = np.lexsort(canon.T[::-1])
    ranked = canon[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts].tolist(), inverse


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
