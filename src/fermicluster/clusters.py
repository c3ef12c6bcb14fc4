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
the eta degree, and exact when it caps neither.  Under an eta degree cap,
each restricted integral drops the terms past the cap after every
elimination step and every factor of its exponential: eta degrees only add
under products and integration removes no eta bit, so that is exact.

In a pair run of the lattice model, every item is charge-neutral (psi-bar
and eta-bar count +1, psi and eta -1) and integration keeps only terms of
psi charge 0, so a surviving term holds as many eta-bar as eta bits.  The
only items with an unbarred eta, psi-bar_x eta_x, sit on source sites x.
So a region that holds no source site has a scalar restricted integral,
which the eta-free items alone give, and a support that holds none a
scalar activity, read off the integrals of regions inside it.  With a
translation-invariant eta-free part, both depend only on the translation
class.  One source-free :class:`ClusterEngine` per experiment owns that
part, its items, candidates, and each such Z and K0, once per class; a
pair run's engine takes only its source items and reads the rest.

Every activity has its psi fields integrated out, so the polymer sum is
linear algebra over the few eta monomials that products of activities
reach.  The descent holds each product as a complex vector over that basis
and each activity as one small matrix, built once per run; an eta degree
cap simply leaves the higher monomials out of the basis.  Only when the
matrices would pass ``DENSE_MAX_ENTRIES`` entries does the descent multiply
sparse elements instead.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .algebra import GrassmannElement, exp_series, prefix_parity, truncated
from .berezin import LogSeries, debug_logger, effective_log_integral
# not called here; bench/tracing.py's EXPECTED_COPIES lists this binding
from .berezin import integrate_element  # noqa: F401
from .errors import CapacityError, ParityError
from .generators import GeneratorUniverse, Site

SiteSet = frozenset[Site]

#: Largest polymer support closure the engine builds before giving up.
MAX_CANDIDATES = 4096
#: Most matrix entries (basis size squared times live polymers) the dense
#: eta-sector descent holds; past it the descent multiplies sparse elements.
DENSE_MAX_ENTRIES = 1 << 20


# ------------------------------------------------------------ graph helpers


def _merged(comps: list, part) -> list:
    """``comps`` (pairwise disjoint) with ``part`` joined to every one it meets."""
    apart = []
    for comp in comps:
        if comp & part:
            part = part | comp
        else:
            apart.append(comp)
    apart.append(part)
    return apart


def _components(parts: Sequence) -> list:
    """Connected components of the overlap graph of ``parts`` (site sets or
    site bitmasks): two parts meet when ``a & b`` is nonempty, and each
    component is the ``|`` of its parts."""
    comps: list = []
    for part in parts:
        comps = _merged(comps, part)
    return comps


def _ursell(counts: tuple[tuple[int, int], ...], adj: Sequence[int], memo: dict) -> int:
    """rho^T of a multiset of polymers by the anchor recursion.

    ``counts`` holds (index, copies) pairs in increasing index order, and
    bit k of adj[i] is set when polymers i and k overlap; copies of one
    polymer always overlap.  With A(v) = 1 when v is a selection of single,
    pairwise disjoint polymers,

        C(v) = A(v) - sum over proper sub-multisets s holding the anchor
               (the lowest index) of (choices) C(s) A(v - s),

    so v - s runs over the nonempty such selections inside v that leave an
    anchor copy.  Every sub-multiset keeps the lowest index as its anchor,
    so C(s) depends on s alone and one ``memo`` serves every multiset over
    the same ``adj``.  A disconnected multiset gives 0.
    """
    if counts in memo:
        return memo[counts]
    value = 1
    bits = 0
    for i, c in counts:
        if c > 1 or adj[i] & bits:
            value = 0
            break
        bits |= 1 << i
    # (index bitmask, positions) of every selection v - s
    removals = [(0, ())]
    for p, (i, c) in enumerate(counts):
        if p or c > 1:
            removals += [(b | 1 << i, pos + (p,)) for b, pos in removals if not adj[i] & b]
    for _, positions in removals[1:]:
        sub = list(counts)
        ways = 1
        for p in positions:
            i, c = sub[p]
            # comb(c0 - 1, c0 - 2) for the anchor, comb(c, c - 1) otherwise
            ways *= c - 1 if p == 0 else c
            sub[p] = (i, c - 1)
        value -= ways * _ursell(tuple(pair for pair in sub if pair[1]), adj, memo)
    memo[counts] = value
    return value


def ursell_factor(supports: Sequence[SiteSet]) -> int:
    """rho^T of a tuple of site sets; zero unless the incidence graph connects."""
    n = len(supports)
    if n == 0:
        raise ValueError("need at least one support")
    distinct = list(dict.fromkeys(supports))
    if len(_components(distinct)) > 1:
        return 0  # no connected spanning subgraph; an empty support meets nothing
    if len(distinct) == 1 and not distinct[0] and n > 1:
        return 0
    adj = [sum(1 << k for k, other in enumerate(distinct) if sup & other)
           for sup in distinct]
    counts = tuple((i, supports.count(sup)) for i, sup in enumerate(distinct))
    return _ursell(counts, adj, {})


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
    clusters_visited: int = 0
    n_reached: int = 0
    tail: float = 0.0
    exact: bool = True

    def as_dict(self) -> dict:
        return asdict(self)


def _element_1norm(el: GrassmannElement) -> float:
    return sum(abs(c) for c in el.terms.values())


# ----------------------------------------------------------------- engine


class ClusterEngine:
    """Polymer activities and their resummed logarithm for one even exponent f.

    ``source_free``, an engine of the eta-free part under the same options,
    owns those items, their candidate closure, and Z and K0 of every region
    without a source site; f then holds only source items, each with its
    psi part on one site, and the exponent is f plus that engine's items.
    ``side`` declares f translation invariant on a periodic lattice of that
    side, so Z and K0 are computed once per translation class.
    """

    def __init__(self, universe: GeneratorUniverse, f: GrassmannElement,
                 options: ClusterOptions | None = None,
                 source_free: ClusterEngine | None = None, side: int | None = None):
        if not f.is_even():
            raise ParityError("cluster expansion requires an even interaction")
        self.universe = universe
        self.options = options or ClusterOptions()
        self.source_free = source_free
        self.side = side
        self._source_sites = frozenset(site for site, _, _ in universe.eta_modes)
        # eliminations this engine ran, and those ``source_free`` had run before it
        self.integrals_computed = 0
        self._shared_before = source_free.integrals_computed if source_free else 0
        element = self._capped(f)

        psi_block = universe.psi_block_mask
        cap = self.options.max_polymer_sites
        self.pure_eta = GrassmannElement(
            {mask: coeff for mask, coeff in element.terms.items() if not mask & psi_block})
        own = [(mask, coeff, frozenset(g.site for g in universe.indices_of(mask & psi_block)))
               for mask, coeff in element.terms.items() if mask & psi_block]
        if source_free is not None and any(
                not mask & ~psi_block or len(sup) != 1 for mask, _, sup in own):
            raise ValueError("with source_free, f holds only source items, each on one site")
        # the psi-supported items in mask order, ``source_free``'s included; no
        # candidate and no restricted region holds one on more than ``cap`` sites
        self._items: list[tuple[int, complex, SiteSet]] = sorted(
            [item for item in own if not cap or len(item[2]) <= cap]
            + (source_free._items if source_free else []), key=operator.itemgetter(0))
        # the items of each support, in mask order
        self._by_support: dict[SiteSet, list[tuple[int, complex]]] = {}
        for mask, coeff, sup in self._items:
            self._by_support.setdefault(sup, []).append((mask, coeff))

        self.candidates = self._candidate_supports()
        self._activity_cache: dict[SiteSet, GrassmannElement] = {}
        self._exp_cache: dict[SiteSet, GrassmannElement] = {}
        log = debug_logger(__name__) if side is not None else None
        if log is not None:
            log.debug("source-free engine: %d items, %d candidates",
                      len(self._items), len(self.candidates))

    # -- support closure ---------------------------------------------------

    def _candidate_supports(self) -> list[SiteSet]:
        cap = self.options.max_polymer_sites
        seeds = list(self._by_support)
        found: set[SiteSet] = set(seeds)
        # a one-site support that meets a candidate lies inside it, so source
        # items add their sites to ``source_free``'s closure and no union
        frontier = [] if self.source_free else list(found)
        found.update(self.source_free.candidates if self.source_free else ())
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
        """``el`` without the terms of eta degree above the cap, if one is
        set; exact on the kept terms (module docstring)."""
        return truncated(el, ~self.universe.psi_block_mask, self.options.eta_degree_cap)

    # -- activities --------------------------------------------------------

    def _key(self, region: SiteSet) -> SiteSet:
        """``region``, or with ``side`` set the least sorted translate of it
        that moves one of its sites to the origin: one key per class."""
        if self.side is None or not region:
            return region
        return frozenset(min(
            tuple(sorted(tuple((a - b) % self.side for a, b in zip(site, anchor))
                         for site in region)) for anchor in region))

    def _from_source_free(self, region: SiteSet) -> bool:
        """Whether ``source_free`` gives Z and K0 of ``region``: it holds no source site."""
        return self.source_free is not None and not region & self._source_sites

    def _integral(self, region: SiteSet) -> GrassmannElement:
        """Z(region) from the items within it, in mask order, capped after
        each step and factor."""
        terms = sorted((item for sup, items in self._by_support.items() if sup <= region
                        for item in items), key=operator.itemgetter(0))
        if not terms:
            return GrassmannElement.one(1.0)
        self.integrals_computed += 1
        cap = self.options.eta_degree_cap
        log = effective_log_integral(self.universe, GrassmannElement(dict(terms)), cap)
        return exp_series(log, cap, ~self.universe.psi_block_mask)

    def _restricted_exp(self, region: SiteSet) -> GrassmannElement:
        """Z(region): integral of exp(f restricted to supports within the region).

        ``source_free`` gives it for a region without a source site, and an
        eta degree cap prunes inside elimination (module docstring).
        """
        key = self._key(region)
        if key not in self._exp_cache:
            self._exp_cache[key] = (self.source_free._restricted_exp(key)
                                    if self._from_source_free(key) else self._integral(key))
        return self._exp_cache[key]

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
        key = self._key(support)
        if key in self._activity_cache:
            return self._activity_cache[key]
        if self._from_source_free(key):
            k0 = self.source_free.polymer_activity(key)
        else:
            anchor = min(key)
            value = self._restricted_exp(key) - self._restricted_exp(key - {anchor})
            for sub in self.candidates:
                if anchor in sub and sub < key:
                    value = value - self.polymer_activity(sub) * self._restricted_exp(key - sub)
            k0 = self._capped(value)
        self._activity_cache[key] = k0
        return k0

    # -- assembly ------------------------------------------------------------

    def eta_sector(self, activities: Sequence[GrassmannElement]
                   ) -> tuple[np.ndarray, np.ndarray] | None:
        """The activities as dense matrices over the eta monomials they reach.

        The basis is the closure of {0} under ``m | k`` for every activity
        mask k disjoint from m, without the masks of eta degree above the
        cap, shifted down by ``n_psi_bits``; basis[0] is the empty mask.
        Row m of matrix j holds ``e_m * activities[j]`` restricted to the
        basis: cell (m, m | k) gets c_k with the product's sign, and no cell
        gets more than one term since k = column & ~row.  The matrices sit
        side by side in one basis-by-(len(activities) x basis) array, so a
        row vector times a slice of it is every product of a descent node.
        Returns None when the matrices would hold more than
        DENSE_MAX_ENTRIES entries.
        """
        shift = self.universe.n_psi_bits
        cap = self.options.eta_degree_cap
        keys = sorted({m >> shift for k0 in activities for m in k0.terms} - {0})
        limit = math.isqrt(DENSE_MAX_ENTRIES // max(1, len(activities)))
        # after key i, ``found`` holds the unions of disjoint keys up to i
        found = {0}
        for k in keys:
            found |= {m | k for m in found
                      if not m & k and (cap is None or (m | k).bit_count() <= cap)}
            if len(found) > limit:
                return None
        basis = np.array(sorted(found), dtype=np.uint64)
        r = len(basis)
        parity = prefix_parity(basis)
        wide = np.zeros((r, len(activities) * r), dtype=np.complex128)
        for j, k0 in enumerate(activities):
            ks = np.array([m >> shift for m in k0.terms], dtype=np.uint64)
            cs = np.array(list(k0.terms.values()), dtype=np.complex128)
            rows, t = np.nonzero((basis[:, None] & ks[None, :]) == 0)
            target = basis[rows] | ks[t]
            cols = np.searchsorted(basis, target).clip(max=r - 1)
            hit = basis[cols] == target
            odd = np.bitwise_count(ks[t] & parity[rows]) & 1
            wide[rows[hit], j * r + cols[hit]] = np.where(odd, -cs[t], cs[t])[hit]
        return basis, wide

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

        shrinking = all(norm <= 1.0 for _, _, norm in polymers)
        one, children, add, result = (
            self._dense_descent(polymers) or self._sparse_descent(polymers))
        # polymer j's sites as a bitmask, the polymers it overlaps (itself
        # included) and the sites that polymers j.. cover
        site_bit = {site: 1 << b for b, site in enumerate(
            sorted({site for support, _, _ in polymers for site in support}))}
        sites = [sum(site_bit[site] for site in support) for support, _, _ in polymers]
        adj = [sum(1 << k for k, other in enumerate(sites) if mask & other)
               for mask in sites]
        reach = list(itertools.accumulate(reversed(sites), operator.or_))[::-1]
        memo: dict = {}

        # pre-order walk; a frame is (multiset as (index, copies) pairs, its
        # site components, weight, children still to visit)
        stack = [((), [], 1.0, enumerate(children(one, 0)))]
        if opts.n_max < 1:  # the root already sits at the depth cap
            report.tail, report.exact, stack = 1.0, False, []
        while stack:
            counts, comps, weight, pending = stack[-1]
            for j, (product, norm1) in pending:
                if norm1 == 0.0:
                    continue
                if norm1 < opts.floor:
                    report.tail = max(report.tail, norm1)
                    if shrinking:
                        continue
                copies = counts[-1][1] + 1 if counts and counts[-1][0] == j else 1
                sub = (*counts[:len(counts) - (copies > 1)], (j, copies))
                sub_weight = weight / copies
                depth = len(stack)
                report.n_reached = max(report.n_reached, depth)
                report.clusters_visited += 1
                parts = _merged(comps, sites[j])
                if len(parts) == 1:
                    rho = _ursell(sub, adj, memo)
                    if rho:
                        add(product, rho * sub_weight)
                        report.cluster_count += 1
                if depth >= opts.n_max:
                    report.tail = max(report.tail, norm1)
                    if norm1 >= opts.floor:
                        report.exact = False
                    continue
                # a component no remaining polymer can reach keeps every
                # extension disconnected, so the whole branch contributes zero
                if len(parts) >= 2 and any(not comp & reach[j] for comp in parts):
                    continue
                stack.append((sub, parts, sub_weight, enumerate(children(product, j), j)))
                break
            else:
                stack.pop()
        report.exact = not capped and report.exact
        log = debug_logger(__name__)
        if log is not None:
            shared = self.source_free.integrals_computed - self._shared_before if (
                self.source_free) else 0
            log.debug("%d candidates, %d restricted integrals computed, %d by the "
                      "source-free engine", len(self.candidates), self.integrals_computed,
                      shared)
        return self.pure_eta + result(), report

    def _dense_descent(self, polymers):
        """Descent operations on basis vectors, or None past the entry budget.

        A product is a complex vector over the eta sector basis; a node's
        children are that vector times the matrices of polymers start..
        """
        sector = self.eta_sector([k0 for _, k0, _ in polymers])
        if sector is None:
            return None
        basis, wide = sector
        r = len(basis)
        one = np.zeros(r, dtype=np.complex128)
        one[0] = 1.0
        acc = np.zeros(r, dtype=np.complex128)

        def children(v, start):
            block = (v @ wide[:, start * r:]).reshape(-1, r)
            return zip(block, np.abs(block).sum(axis=1).tolist())

        def add(v, factor):
            nonlocal acc
            acc += factor * v

        def result():
            shift = self.universe.n_psi_bits
            return GrassmannElement(
                {int(m) << shift: c for m, c in zip(basis, acc.tolist())})

        return one, children, add, result

    def _sparse_descent(self, polymers):
        """Descent operations on sparse elements, capped after each product."""
        total = GrassmannElement()

        def children(product, start):
            for _, k0, _ in polymers[start:]:
                new_product = self._capped(product * k0)
                yield new_product, _element_1norm(new_product)

        def add(product, factor):
            for mask, coeff in product.scaled(factor).terms.items():
                total.terms[mask] = total.terms.get(mask, 0j) + coeff

        return GrassmannElement.one(1.0), children, add, lambda: total


def assemble_b(universe: GeneratorUniverse, f: GrassmannElement,
               options: ClusterOptions | None = None,
               source_free: ClusterEngine | None = None,
               ) -> tuple[LogSeries, ExpansionReport]:
    """Resummed cluster logarithm of the normalized exp(f) integral."""
    engine = ClusterEngine(universe, f, options, source_free)
    element, report = engine.assemble()
    return LogSeries(universe, element), report
