"""Polymer cluster expansion of a Gaussian Grassmann integral.

The engine computes log of the normalized integral of exp(f) as a polymer
gas.  The reference measure factorizes over sites, so the restricted
integral Z(X) of exp(f|X), with f|X the monomials whose psi sites lie in X,
is a sum over families of disjoint polymers in X of products of
activities K0 (even elements in the surviving eta generators).  K0 lives
on connected unions of interaction supports, the candidates, and the
polymer sum resums to

    log Xi = sum_n 1/n! sum_{Z_1..Z_n} rho^T(Z_1,..,Z_n) K0(Z_1) ... K0(Z_n)

with the hard-core Ursell factor rho^T.  No decoupling parameters are
introduced anywhere; all cancellations happen through the signed bitmask
algebra.  Everything here requires an even interaction, so activities
commute and no interchange signs arise at the polymer level.

Activities come from one route: an anchor recursion peels K0 off the
restricted integrals.  A run is truncated when it caps the polymer size or
the eta degree, and exact when it caps neither.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .algebra import GrassmannElement, exp_series
from .berezin import LogSeries, effective_log_integral
# not called here; bench/tracing.py's EXPECTED_COPIES lists this binding
from .berezin import integrate_element  # noqa: F401
from .coeffsys import CoefficientSystem
from .errors import CapacityError, ParityError
from .generators import GeneratorUniverse, Site

SiteSet = frozenset[Site]

#: Largest polymer support closure the engine builds before giving up.
MAX_CANDIDATES = 4096


# ------------------------------------------------------------ graph helpers


def _components(parts: Sequence) -> list:
    """Connected components of the overlap graph of ``parts`` (site sets or
    site bitmasks): two parts meet when ``a & b`` is nonempty, and each
    component is the ``|`` of its parts."""
    comps = []
    for part in parts:
        merged = part
        apart = []
        for comp in comps:
            if comp & merged:
                merged = merged | comp
            else:
                apart.append(comp)
        apart.append(merged)
        comps = apart
    return comps


def _independent_sets(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Nonempty independent vertex sets of a block graph, as bitmasks."""
    d = len(adj)
    out = []
    for bits in range(1, 1 << d):
        m = bits
        ok = True
        while m:
            low = m & -m
            if adj[low.bit_length() - 1] & bits:
                ok = False
                break
            m ^= low
        if ok:
            out.append(bits)
    return tuple(out)


def _edge_free(adj: tuple[int, ...], counts: tuple[int, ...]) -> bool:
    """True when the selection has no repeated block and no adjacent pair."""
    bits = 0
    for i, c in enumerate(counts):
        if c > 1:
            return False
        if c:
            if adj[i] & bits:
                return False
            bits |= 1 << i
    return True


def _ursell_counts(adj: tuple[int, ...], counts: tuple[int, ...],
                   independent: tuple[int, ...], memo: dict) -> int:
    """Anchor recursion over count vectors, block 0 as the anchor.

    C(v) = A(v) - sum over proper sub-multisets s holding the anchor vertex
    of (choices) C(s) A(v - s); the remainder v - s only survives when it is
    an independent selection with single copies, so the sum runs over the
    ``independent`` sets of the block graph.  ``memo`` is local to one
    Ursell factor.
    """
    if sum(counts) == 1:
        return 1
    if counts in memo:
        return memo[counts]
    value = 1 if _edge_free(adj, counts) else 0
    for rest_bits in independent:
        sub = list(counts)
        m = rest_bits
        ok = True
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if sub[i] == 0:
                ok = False
                break
            sub[i] -= 1
            m ^= low
        if not ok or sub[0] == 0:
            continue
        ways = math.comb(counts[0] - 1, sub[0] - 1)
        for i in range(1, len(counts)):
            ways *= math.comb(counts[i], sub[i])
        if ways:
            value -= ways * _ursell_counts(adj, tuple(sub), independent, memo)
    memo[counts] = value
    return value


def ursell_factor(supports: Sequence[SiteSet]) -> int:
    """rho^T of a tuple of site sets; zero unless the incidence graph connects."""
    n = len(supports)
    if n == 0:
        raise ValueError("need at least one support")
    distinct: list[SiteSet] = []
    mults: list[int] = []
    for sup in supports:
        try:
            pos = distinct.index(sup)
        except ValueError:
            distinct.append(sup)
            mults.append(1)
        else:
            mults[pos] += 1
    if len(_components(distinct)) > 1:
        return 0  # no connected spanning subgraph; an empty support meets nothing
    if len(distinct) == 1 and not distinct[0] and mults[0] > 1:
        return 0
    d = len(distinct)
    adj = [0] * d
    for i in range(d):
        for j in range(i + 1, d):
            if distinct[i] & distinct[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    # copies of one support are mutually adjacent, so edge-free selections
    # take at most one vertex per block
    adj = tuple(adj)
    return _ursell_counts(adj, tuple(mults), _independent_sets(adj), {})


# ---------------------------------------------------------------- options


@dataclass(frozen=True)
class ClusterOptions:
    """Caps and floors for the expansion.

    max_polymer_sites drops every support of more sites and eta_degree_cap
    every term of higher eta degree; a run that sets either is truncated,
    one that sets neither is exact.  floor is the 1-norm below which a
    product branch is dropped (its size is reported as the tail).
    """

    n_max: int = 24
    floor: float = 1e-15
    max_polymer_sites: int | None = None
    eta_degree_cap: int | None = None


@dataclass
class ExpansionReport:
    mode: str
    polymer_count: int = 0
    cluster_count: int = 0
    n_reached: int = 0
    tail: float = 0.0
    exact: bool = True

    def as_dict(self) -> dict:
        return asdict(self)


def _element_1norm(el: GrassmannElement) -> float:
    return sum(abs(c) for c in el.terms.values())


# ----------------------------------------------------------------- engine


class ClusterEngine:
    """Polymer activities and their resummed logarithm for one even system."""

    def __init__(self, universe: GeneratorUniverse, system: CoefficientSystem,
                 options: ClusterOptions | None = None):
        if not system.is_even():
            raise ParityError("cluster expansion requires an even interaction")
        self.universe = universe
        self.options = options or ClusterOptions()
        element = self._capped(system.to_element(universe))

        psi_block = universe.psi_block_mask
        self.pure_eta = GrassmannElement(
            {mask: coeff for mask, coeff in element.terms.items() if not mask & psi_block})
        # the psi-supported monomials in mask order, each with its site support
        self._items: list[tuple[int, complex, SiteSet]] = [
            (mask, coeff, frozenset(g.site for g in universe.indices_of(mask & psi_block)))
            for mask, coeff in sorted(element.terms.items()) if mask & psi_block
        ]

        self.candidates = self._candidate_supports()
        self._activity_cache: dict[SiteSet, GrassmannElement] = {}
        self._exp_cache: dict[SiteSet, GrassmannElement] = {}

    # -- support closure ---------------------------------------------------

    def _candidate_supports(self) -> list[SiteSet]:
        cap = self.options.max_polymer_sites
        seeds = [s for s in dict.fromkeys(sup for *_, sup in self._items)
                 if not cap or len(s) <= cap]
        found: set[SiteSet] = set(seeds)
        frontier = list(found)
        while frontier:
            nxt = []
            for cand in frontier:
                for seed in seeds:
                    if cand & seed and not cand >= seed:
                        union = cand | seed
                        if cap and len(union) > cap:
                            continue
                        if union not in found:
                            found.add(union)
                            nxt.append(union)
            frontier = nxt
            if len(found) > MAX_CANDIDATES:
                raise CapacityError(
                    f"polymer support closure exceeded {MAX_CANDIDATES} candidates")
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def _capped(self, el: GrassmannElement) -> GrassmannElement:
        """``el`` without the terms of eta degree above the cap, if one is set.

        Exact on the kept terms: eta degrees only add under products, and
        integrating psi modes never removes an eta bit.
        """
        cap = self.options.eta_degree_cap
        if cap is None:
            return el
        eta_bits = ~self.universe.psi_block_mask
        return GrassmannElement(
            {mask: c for mask, c in el.terms.items() if (mask & eta_bits).bit_count() <= cap})

    # -- activities --------------------------------------------------------

    def _restricted_exp(self, region: SiteSet) -> GrassmannElement:
        """Z(region): integral of exp(f restricted to supports within the region)."""
        if region not in self._exp_cache:
            f_region = GrassmannElement(
                {mask: coeff for mask, coeff, sup in self._items if sup <= region})
            self._exp_cache[region] = (
                self._capped(exp_series(effective_log_integral(self.universe, f_region)))
                if f_region.terms else GrassmannElement.one(1.0))
        return self._exp_cache[region]

    def polymer_activity(self, support: SiteSet) -> GrassmannElement:
        """K0 on one support, by the anchor recursion on restricted integrals.

        Z(X) is the sum over families of disjoint polymers inside X of the
        product of their activities.  Sorting the families by the polymer
        that holds the anchor a = min(X), if any, gives

            K0(X) = Z(X) - Z(X - {a}) - sum_{a in Y < X} K0(Y) Z(X - Y).

        Only candidate Y enter: the measure factorizes over sites, so a
        support that no connected union of interaction supports covers has
        K0 = 0, and the capped closure holds every such union up to the cap.
        """
        if support in self._activity_cache:
            return self._activity_cache[support]
        anchor = min(support)
        value = self._restricted_exp(support) - self._restricted_exp(support - {anchor})
        for sub in self.candidates:
            if anchor in sub and sub < support:
                value = value - self.polymer_activity(sub) * self._restricted_exp(
                    support - sub)
        k0 = self._activity_cache[support] = self._capped(value).without_zeros()
        return k0

    # -- assembly ------------------------------------------------------------

    def assemble(self) -> tuple[GrassmannElement, ExpansionReport]:
        opts = self.options
        capped = opts.max_polymer_sites is not None or opts.eta_degree_cap is not None
        report = ExpansionReport(mode="truncated" if capped else "exact")
        polymers: list[tuple[SiteSet, GrassmannElement, float]] = []
        for support in self.candidates:
            k0 = self.polymer_activity(support)
            norm = _element_1norm(k0)
            if norm > 0.0:
                polymers.append((support, k0, norm))
        report.polymer_count = len(polymers)

        total = self.pure_eta.copy()
        if not polymers:
            report.exact = not capped
            return total.without_zeros(), report

        shrinking = all(norm <= 1.0 for _, _, norm in polymers)
        count = len(polymers)

        def descend(start: int, supports: tuple[SiteSet, ...],
                    product: GrassmannElement, weight: float,
                    mults: dict[int, int]) -> None:
            depth = len(supports)
            report.n_reached = max(report.n_reached, depth)
            if depth:
                rho = ursell_factor(supports)
                if rho:
                    term = product.scaled(rho * weight)
                    for mask, coeff in term.terms.items():
                        total.terms[mask] = total.terms.get(mask, 0j) + coeff
                    report.cluster_count += 1
            if depth >= opts.n_max:
                norm1 = _element_1norm(product)
                report.tail = max(report.tail, norm1)
                if norm1 >= opts.floor:
                    report.exact = False
                return
            # a component no remaining polymer can reach keeps every
            # extension disconnected, so the whole branch contributes zero
            if depth >= 2:
                comps = _components(supports)
                if len(comps) >= 2:
                    for comp in comps:
                        if not any(
                            comp & polymers[j][0]
                            for j in range(start, count)
                        ):
                            return
            for j in range(start, count):
                support, k0, _norm = polymers[j]
                new_product = self._capped(product * k0)
                norm1 = _element_1norm(new_product)
                if norm1 == 0.0:
                    continue
                if norm1 < opts.floor:
                    report.tail = max(report.tail, norm1)
                    if shrinking:
                        continue
                new_mults = dict(mults)
                new_mults[j] = new_mults.get(j, 0) + 1
                descend(
                    j,
                    supports + (support,),
                    new_product,
                    weight / new_mults[j],
                    new_mults,
                )

        descend(0, (), GrassmannElement.one(1.0), 1.0, {})
        report.exact = not capped and report.exact
        return total.without_zeros(), report


def assemble_b(universe: GeneratorUniverse, system: CoefficientSystem,
               options: ClusterOptions | None = None) -> tuple[LogSeries, ExpansionReport]:
    """Resummed cluster logarithm of the normalized exp(f) integral."""
    engine = ClusterEngine(universe, system, options)
    element, report = engine.assemble()
    return LogSeries(universe, element), report
