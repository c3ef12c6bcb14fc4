"""Connected-cover cluster expansion of a Gaussian Grassmann integral.

The engine computes log of the normalized integral of exp(f) as a polymer
gas: group the interaction by psi-site support, attach to every candidate
support Z an activity K0(Z) (an even element in the surviving eta
generators), and resum

    log Xi = sum_n 1/n! sum_{Z_1..Z_n} rho^T(Z_1,..,Z_n) K0(Z_1) ... K0(Z_n)

with the hard-core Ursell factor rho^T.  No decoupling parameters are
introduced anywhere; all cancellations happen through the signed bitmask
algebra.  Everything here requires an even interaction, so activities
commute and no interchange signs arise at the polymer level.

Two activity routes are implemented.  The subset-difference route obtains
K0 exactly from integrals of exp(f) restricted to site subsets; the cover
route sums products of interaction monomials over connected covers and is
the one that supports degree and depth truncation.  They agree, which the
tests check directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

from .algebra import GrassmannElement, exp_series, multiply_masks
from .berezin import LogSeries, effective_log_integral, integrate_element
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

    mode "exact" computes activities by subset differences and runs the
    polymer sum to the magnitude floor; "truncated" computes activities from
    connected covers under the listed caps.  floor is the 1-norm below which
    a product branch is dropped (its size is reported as the tail).
    """

    mode: Literal["exact", "truncated"] = "exact"
    n_max: int = 24
    k_max: int | None = None
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
        return {
            "mode": self.mode,
            "polymer_count": self.polymer_count,
            "cluster_count": self.cluster_count,
            "n_reached": self.n_reached,
            "tail": self.tail,
            "exact": self.exact,
        }


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
        element = system.to_element(universe)
        if self.options.eta_degree_cap is not None:
            element = self._capped(element)

        psi_block = universe.psi_block_mask
        self.pure_eta = GrassmannElement.zero()
        items: list[tuple[int, complex]] = []
        for mask, coeff in element.terms.items():
            if mask & psi_block:
                items.append((mask, coeff))
            else:
                self.pure_eta.terms[mask] = coeff

        # group psi-supported monomials by site support
        self.support_elements: dict[SiteSet, GrassmannElement] = {}
        self._items: list[tuple[int, complex, SiteSet]] = []
        for mask, coeff in sorted(items, key=lambda t: t[0]):
            support = frozenset(
                g.site for g in universe.indices_of(mask & psi_block)
            )
            self._items.append((mask, coeff, support))
            grp = self.support_elements.setdefault(support, GrassmannElement.zero())
            grp.terms[mask] = grp.terms.get(mask, 0.0) + coeff

        self.candidates = self._candidate_supports()
        self._activity_cache: dict[SiteSet, GrassmannElement] = {}
        self._exp_cache: dict[SiteSet, GrassmannElement] = {}
        self._diff_cache: dict[SiteSet, GrassmannElement] = {}
        self._caps_hit = False

    # -- support closure ---------------------------------------------------

    def _candidate_supports(self) -> list[SiteSet]:
        cap = self.options.max_polymer_sites
        seeds = [s for s in self.support_elements if not cap or len(s) <= cap]
        found: set[SiteSet] = set(seeds)
        frontier = list(found)
        while frontier:
            nxt = []
            for cand in frontier:
                for seed in seeds:
                    if cand & seed and not cand >= seed:
                        union = cand | seed
                        if cap and len(union) > cap:
                            self._caps_hit = True
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
        cap = self.options.eta_degree_cap
        psi_block = self.universe.psi_block_mask
        out = GrassmannElement.zero()
        for mask, coeff in el.terms.items():
            if (mask & ~psi_block).bit_count() <= cap:
                out.terms[mask] = coeff
        return out

    # -- activities --------------------------------------------------------

    def polymer_activity(self, support: SiteSet) -> GrassmannElement:
        """K0 on one support: the part of the integral joint over exactly
        that site set that no product of smaller disjoint pieces explains."""
        if support in self._activity_cache:
            return self._activity_cache[support]
        if self.options.mode == "exact":
            value = self._activity_exact(support)
        else:
            value = self._activity_covers(support)
        self._activity_cache[support] = value
        return value

    def _restricted_exp(self, region: SiteSet) -> GrassmannElement:
        """Integral of exp(f restricted to supports within the region)."""
        if region in self._exp_cache:
            return self._exp_cache[region]
        f_region = GrassmannElement.zero()
        for support, el in self.support_elements.items():
            if support <= region:
                f_region = f_region + el
        if not f_region.terms:
            value = GrassmannElement.one(1.0)
        else:
            log_el = effective_log_integral(self.universe, f_region)
            value = exp_series(log_el)
        self._exp_cache[region] = value
        return value

    def _exact_cover_part(self, region: SiteSet) -> GrassmannElement:
        """Subset-alternating difference: keeps only disjoint polymer
        collections whose union is the whole region."""
        if region in self._diff_cache:
            return self._diff_cache[region]
        sites = sorted(region)
        n = len(sites)
        total = GrassmannElement.zero()
        for bits in range(1 << n):
            subset = frozenset(sites[i] for i in range(n) if bits >> i & 1)
            term = self._restricted_exp(subset)
            if (n - bits.bit_count()) % 2:
                total = total - term
            else:
                total = total + term
        self._diff_cache[region] = total
        return total

    def _activity_exact(self, support: SiteSet) -> GrassmannElement:
        anchor = min(support)
        value = self._exact_cover_part(support).copy()
        rest = sorted(support - {anchor})
        for bits in range(1 << len(rest)):
            part = frozenset(rest[i] for i in range(len(rest)) if bits >> i & 1)
            sub = part | {anchor}
            if sub == support:
                continue
            value = value - self.polymer_activity(sub) * self._exact_cover_part(
                support - sub
            )
        return value.without_zeros()

    def _activity_covers(self, support: SiteSet) -> GrassmannElement:
        opts = self.options
        sites = sorted(support)
        site_bit = {s: i for i, s in enumerate(sites)}
        full = (1 << len(sites)) - 1
        items = []
        for mask, coeff, sup in self._items:
            if sup <= support:
                bits = 0
                for s in sup:
                    bits |= 1 << site_bit[s]
                items.append((mask, coeff, bits))
        if not items:
            return GrassmannElement.zero()
        suffix = [0] * (len(items) + 1)
        for i in range(len(items) - 1, -1, -1):
            suffix[i] = suffix[i + 1] | items[i][2]

        acc = GrassmannElement.zero()
        cap = opts.eta_degree_cap
        psi_block = self.universe.psi_block_mask

        def descend(idx: int, mask: int, coeff: complex, cover: int,
                    supports: tuple[int, ...]) -> None:
            for j in range(idx, len(items)):
                jmask, jcoeff, jbits = items[j]
                if cover | suffix[j] != full:
                    break
                new_mask, sign = multiply_masks(mask, jmask)
                if sign == 0:
                    continue
                if cap is not None and (new_mask & ~psi_block).bit_count() > cap:
                    continue
                new_coeff = coeff * jcoeff * sign
                new_cover = cover | jbits
                new_supports = supports + (jbits,)
                if new_cover == full and len(_components(new_supports)) == 1:
                    acc.terms[new_mask] = acc.terms.get(new_mask, 0j) + new_coeff
                if opts.k_max is None or len(new_supports) < opts.k_max:
                    descend(j + 1, new_mask, new_coeff, new_cover, new_supports)
                else:
                    self._caps_hit = True

        descend(0, 0, 1.0, 0, ())
        return integrate_element(self.universe, acc)

    # -- assembly ------------------------------------------------------------

    def assemble(self) -> tuple[GrassmannElement, ExpansionReport]:
        opts = self.options
        report = ExpansionReport(mode=opts.mode)
        polymers: list[tuple[SiteSet, GrassmannElement, float]] = []
        for support in self.candidates:
            k0 = self.polymer_activity(support)
            norm = _element_1norm(k0)
            if norm > 0.0:
                polymers.append((support, k0, norm))
        report.polymer_count = len(polymers)

        total = self.pure_eta.copy()
        if not polymers:
            report.exact = opts.mode == "exact" and not self._caps_hit
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
                new_product = product * k0
                if self.options.eta_degree_cap is not None:
                    new_product = self._capped(new_product)
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
        report.exact = (
            opts.mode == "exact" and not self._caps_hit and report.exact
        )
        return total.without_zeros(), report


def assemble_b(universe: GeneratorUniverse, system: CoefficientSystem,
               options: ClusterOptions | None = None) -> tuple[LogSeries, ExpansionReport]:
    """Resummed cluster logarithm of the normalized exp(f) integral."""
    engine = ClusterEngine(universe, system, options)
    element, report = engine.assemble()
    return LogSeries(universe, element), report
