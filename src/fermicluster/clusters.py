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
pair run's engine holds only its source items, and reads the other items
and its options from the source-free engine.

A region X that holds source sites, its marks M, is linear in the sources
once the eta degree is capped at 2: each surviving term is a constant or
one eta-bar times one eta.  Replace every source item psi_y eta-bar_a by
one unit probe psi_y eta-bar_y per psi mode y of X, and every psi-bar_b
eta_c by psi-bar_b eta_b at each psi mode b on a mark, with eta modes on
the sites of X.  The algebra map phi that sends eta-bar_y to the sum over
a of K(a, y) eta-bar_a, K the coefficients of the psi_y eta-bar_a items,
and eta_b to the sum over c of the psi-bar_b eta_c coefficients times
eta_c, turns the probe exponent into the pair's.  phi acts on eta
generators alone and keeps eta degrees, so it commutes with psi
integration, the exponential and the cap, and Z(X) = phi(Z°(X, M)), Z° the
probe integral.  Z° depends only on the translation class of (X, M), so
the source-free engine computes it once per marked class, and a pair
engine under a cap of 2 or less builds Z(X) as the matrix product
K Z° Λ^T without any elimination.  Exact runs and higher caps integrate
each source region per pair run: their probe sector would hold far more
eta monomials than the pair's.

Every activity has its psi fields integrated out, so the polymer sum is
linear algebra over the few eta monomials that products of activities
reach.  The descent holds each product as a complex vector over that basis
and each activity as one sparse matrix, built once per run; an eta degree
cap simply leaves the higher monomials out of the basis.  A node's
children are one matrix product with the matrices laid out dense while
they hold at most ``DENSE_MAX_ENTRIES`` entries, and one bincount over
their entries past that.
"""

from __future__ import annotations

import itertools
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
#: Most matrix entries (basis size squared times live polymers) the descent
#: lays out dense for its matrix products; past it, it sums sparse entries.
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

    ``source_free``, an engine of the eta-free part on the same psi modes,
    owns those items, their candidate closure, and Z and K0 of every region
    without a source site; f then holds only source items, each one psi
    generator times one eta generator of the other kind (psi eta-bar, or
    psi-bar eta on a source site), the exponent is f plus that engine's
    items, and the options are that engine's (others raise ValueError).
    Under an eta degree cap of 2 or less, ``source_free`` gives Z of a
    region with source sites too, by linear response (module docstring).
    ``side`` declares f translation invariant on a periodic lattice of that
    side, so Z and K0 are computed once per translation class.
    """

    def __init__(self, universe: GeneratorUniverse, f: GrassmannElement,
                 options: ClusterOptions | None = None,
                 source_free: ClusterEngine | None = None, side: int | None = None):
        if not f.is_even():
            raise ParityError("cluster expansion requires an even interaction")
        if source_free is not None:
            if options not in (None, source_free.options):
                raise ValueError("with source_free, the options are source_free's")
            options = source_free.options
        self.universe = universe
        self.options = options or ClusterOptions()
        self.source_free = source_free
        self.side = side
        self._source_sites = frozenset(site for site, _, _ in universe.eta_modes)
        self._mode_index = {mode: k for k, mode in enumerate(universe.psi_modes)}
        # eliminations this engine ran, and those ``source_free`` had run
        # before it; its marked classes (Z° by class of (region, marks)), and
        # those this engine read
        self.integrals_computed = 0
        self._shared_before = source_free.integrals_computed if source_free else 0
        self._marked_cache: dict = {}
        self._marked_before = len(source_free._marked_cache) if source_free else 0
        self._marked_read: set = set()
        element = self._capped(f)

        psi_block = universe.psi_block_mask
        cap = self.options.max_polymer_sites
        self.pure_eta = GrassmannElement(
            {mask: coeff for mask, coeff in element.terms.items() if not mask & psi_block})
        own = [(mask, coeff, frozenset(g.site for g in universe.indices_of(mask & psi_block)))
               for mask, coeff in element.terms.items() if mask & psi_block]
        # the source items' coefficients, and whether they and ``source_free``
        # give Z of a region with source sites (module docstring)
        self._response = self._source_response(own) if source_free else None
        eta_cap = self.options.eta_degree_cap
        self._linear = self._response is not None and eta_cap is not None and eta_cap <= 2
        # this engine's own psi-supported items by support; no candidate and
        # no restricted region holds one on more than ``cap`` sites
        self._by_support: dict[SiteSet, list[tuple[int, complex]]] = {}
        for mask, coeff, sup in own:
            if not cap or len(sup) <= cap:
                self._by_support.setdefault(sup, []).append((mask, coeff))

        self.candidates = self._candidate_supports()
        self._activity_cache: dict[SiteSet, GrassmannElement] = {}
        self._exp_cache: dict[SiteSet, GrassmannElement] = {}
        log = debug_logger(__name__) if side is not None else None
        if log is not None:
            log.debug("source-free engine: %d items, %d candidates",
                      sum(map(len, self._by_support.values())), len(self.candidates))

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

    def _source_response(self, own: list[tuple[int, complex, SiteSet]],
                         ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
        """The source items as (K, Λ, eta pairs): K[a, y] is the coefficient
        of psi_y eta-bar_a and Λ[c, b] that of psi-bar_b eta_c, over eta and
        psi mode indices; entry a * (eta modes) + c of the eta pairs is the
        mask and sign of eta-bar_a eta_c.  Raises ValueError on any other item, or on a
        psi-bar eta item off the source sites."""
        u = self.universe
        n_psi, n_eta = u.n_psi_bits, len(u.eta_modes)
        bar = np.zeros((n_eta, len(u.psi_modes)), dtype=np.complex128)
        unbar = np.zeros_like(bar)
        for mask, coeff, sup in own:
            psi_part, eta_part = mask & u.psi_block_mask, mask >> n_psi
            k, a = psi_part.bit_length() - 1, eta_part.bit_length() - 1
            # bar bits are even, so a source item has one of each parity
            if (psi_part.bit_count() != 1 or eta_part.bit_count() != 1 or k % 2 == a % 2
                    or k % 2 == 0 and not sup <= self._source_sites):
                raise ValueError("with source_free, f holds only source items: psi eta-bar, "
                                 "or psi-bar eta on a source site")
            (bar if k % 2 else unbar)[a // 2, k // 2] = coeff
        pairs = [(1 << n_psi + 2 * a | 1 << n_psi + 2 * c + 1, 1 if a <= c else -1)
                 for a in range(n_eta) for c in range(n_eta)]
        return bar, unbar, pairs

    def _capped(self, el: GrassmannElement) -> GrassmannElement:
        """``el`` without the terms of eta degree above the cap, if one is
        set; exact on the kept terms (module docstring)."""
        return truncated(el, ~self.universe.psi_block_mask, self.options.eta_degree_cap)

    # -- activities --------------------------------------------------------

    def _moved(self, sites: SiteSet, anchor: Site) -> tuple[Site, ...]:
        """``sites`` moved by minus ``anchor``, sorted."""
        return tuple(sorted(tuple((a - b) % self.side for a, b in zip(site, anchor))
                            for site in sites))

    def _class(self, region: SiteSet, marks: SiteSet = frozenset(),
               ) -> tuple[Site | None, SiteSet, SiteSet]:
        """The anchor a in ``region`` whose move by -a gives the least sorted
        (region, marks), and both moved by -a, one per translation class;
        without ``side``, no anchor and both as they are."""
        if self.side is None or not region:
            return None, region, marks
        anchor = min(region, key=lambda a: (self._moved(region, a), self._moved(marks, a)))
        region, marks = (frozenset(self._moved(sites, anchor)) for sites in (region, marks))
        return anchor, region, marks

    def _key(self, region: SiteSet) -> SiteSet:
        """``region``'s representative in its translation class: one key per class."""
        return self._class(region)[1]

    def _marked_integral(self, region: SiteSet, marks: SiteSet,
                        ) -> tuple[tuple, complex, np.ndarray, list[int]]:
        """Z°(region, marks) of the module docstring, computed once per
        translation class of the pair: (class key, constant, C, cols), with
        C[i, j] the coefficient of eta-bar_i eta_j and row and column i
        standing for the psi mode of ``region`` at index ``cols[i]``."""
        anchor, region, marks = self._class(region, marks)
        key = (region, marks)
        if key not in self._marked_cache:
            self._marked_cache[key] = self._probe_integral(region, marks)
        constant, matrix, modes = self._marked_cache[key]
        if anchor is not None:
            modes = [(tuple((a + b) % self.side for a, b in zip(site, anchor)), *rest)
                     for site, *rest in modes]
        return key, constant, matrix, [self._mode_index[mode] for mode in modes]

    def _probe_integral(self, region: SiteSet, marks: SiteSet,
                        ) -> tuple[complex, np.ndarray, list]:
        """Z° on the universe of the psi modes of ``region`` with an eta mode
        for each: this engine's items within it, psi_y eta-bar_y at every psi
        mode y and psi-bar_b eta_b at every psi mode b on ``marks``, all of
        coefficient 1.  The items' psi bits move down to the region's modes
        in order, which keeps every sign and the masks narrow."""
        modes = [mode for mode in self.universe.psi_modes if mode[0] in region]
        probe = GeneratorUniverse(modes, modes)
        n = probe.n_psi_bits
        moved_bit = {}
        for j, mode in enumerate(modes):
            k = self._mode_index[mode]
            moved_bit[1 << 2 * k], moved_bit[2 << 2 * k] = 1 << 2 * j, 2 << 2 * j
        terms = []
        for mask, coeff in self._items_within(region):
            moved = 0
            while mask:
                low = mask & -mask
                moved |= moved_bit[low]
                mask ^= low
            terms.append((moved, coeff))
        for j, mode in enumerate(modes):
            terms.append((2 << 2 * j | 1 << n + 2 * j, 1.0))
            if mode[0] in marks:
                terms.append((1 << 2 * j | 2 << n + 2 * j, 1.0))
        z = self._eliminated(probe, terms)
        # each term is the constant or, by charge, one eta-bar and one eta
        matrix = np.zeros((len(modes), len(modes)), dtype=np.complex128)
        for mask, coeff in z.without_constant().terms.items():
            eta_part = mask >> n
            low = (eta_part & -eta_part).bit_length() - 1
            high = eta_part.bit_length() - 1
            if low % 2:  # eta_low eta-bar_high = -eta-bar_high eta_low
                matrix[high // 2, low // 2] = -coeff
            else:
                matrix[low // 2, high // 2] = coeff
        return z.constant, matrix, modes

    def _from_source_free(self, region: SiteSet) -> bool:
        """Whether ``source_free`` gives Z and K0 of ``region``: it holds no source site."""
        return self.source_free is not None and not region & self._source_sites

    def _items_within(self, region: SiteSet) -> list[tuple[int, complex]]:
        """The items within ``region``, ``source_free``'s included."""
        own = [item for sup, items in self._by_support.items() if sup <= region
               for item in items]
        return own + self.source_free._items_within(region) if self.source_free else own

    def _eliminated(self, universe: GeneratorUniverse,
                    terms: list[tuple[int, complex]]) -> GrassmannElement:
        """The integral of exp of ``terms``, in mask order, capped after each
        step and factor."""
        if not terms:
            return GrassmannElement.one(1.0)
        self.integrals_computed += 1
        cap = self.options.eta_degree_cap
        f = GrassmannElement(dict(sorted(terms, key=operator.itemgetter(0))))
        return exp_series(effective_log_integral(universe, f, cap), cap,
                          ~universe.psi_block_mask)

    def _linear_response(self, region: SiteSet) -> GrassmannElement:
        """Z(region) = phi(Z°(region, marks)) for a region with source sites,
        without elimination: the constant, and K C Λ^T over the eta pairs."""
        key, constant, matrix, cols = self.source_free._marked_integral(
            region, region & self._source_sites)
        self._marked_read.add(key)
        bar, unbar, pairs = self._response
        z = bar[:, cols] @ matrix @ unbar[:, cols].T
        terms = {0: constant}
        for (mask, sign), value in zip(pairs, z.ravel().tolist()):
            if value:
                terms[mask] = sign * value
        return GrassmannElement(terms)

    def _restricted_exp(self, region: SiteSet) -> GrassmannElement:
        """Z(region): integral of exp(f restricted to supports within the region).

        ``source_free`` gives it for a region without a source site, and
        under an eta cap of 2 or less through its marked classes for the
        rest; an eta degree cap prunes inside elimination (module docstring).
        """
        key = self._key(region)
        if key not in self._exp_cache:
            if self._from_source_free(key):
                self._exp_cache[key] = self.source_free._restricted_exp(key)
            elif self._linear:
                self._exp_cache[key] = self._linear_response(key)
            else:
                self._exp_cache[key] = self._eliminated(self.universe, self._items_within(key))
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
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The activities as sparse matrices over the eta monomials they reach.

        The basis is the closure of {0} under ``m | k`` for every activity
        mask k disjoint from m, without the masks of eta degree above the
        cap, shifted down by ``n_psi_bits``; basis[0] is the empty mask.
        Row m of matrix j holds ``e_m * activities[j]`` restricted to the
        basis: cell (m, m | k) gets c_k with the product's sign, and no cell
        gets more than one term since k = column & ~row.  Returns the basis
        and the entries (rows, j * r + columns, values) of every matrix j, r
        the basis size, from starts[j] to starts[j + 1]: the matrices side by
        side in one basis-by-(len(activities) x basis) array, so a row vector
        times a slice of it is every product of a descent node.
        """
        shift = self.universe.n_psi_bits
        cap = self.options.eta_degree_cap
        keys = sorted({m >> shift for k0 in activities for m in k0.terms} - {0})
        # after key i, ``found`` holds the unions of disjoint keys up to i
        found = {0}
        for k in keys:
            found |= {m | k for m in found
                      if not m & k and (cap is None or (m | k).bit_count() <= cap)}
        basis = np.array(sorted(found), dtype=np.uint64)
        r = len(basis)
        # every activity's terms side by side, broadcast against the basis
        # at once; a stable sort by activity keeps each matrix's entries in
        # (row, term) order
        ks = np.array([m >> shift for k0 in activities for m in k0.terms], dtype=np.uint64)
        cs = np.array([c for k0 in activities for c in k0.terms.values()], dtype=np.complex128)
        owner = np.repeat(np.arange(len(activities)), [len(k0.terms) for k0 in activities])
        rows, t = np.nonzero((basis[:, None] & ks[None, :]) == 0)
        target = basis[rows] | ks[t]
        cols = np.searchsorted(basis, target).clip(max=r - 1)
        hit = basis[cols] == target
        rows, t, cols = rows[hit], t[hit], cols[hit]
        order = np.argsort(owner[t], kind="stable")
        rows, t, cols = rows[order], t[order], cols[order]
        odd = np.bitwise_count(ks[t] & prefix_parity(basis)[rows]) & 1
        starts = np.concatenate(([0], np.cumsum(np.bincount(owner[t], minlength=len(activities)))))
        return basis, rows, owner[t] * r + cols, np.where(odd, -cs[t], cs[t]), starts

    def assemble(self) -> tuple[LogSeries, ExpansionReport]:
        """The resummed cluster logarithm of the normalized exp(f) integral.

        Each product is a complex vector over the eta sector basis, and a
        node's children are that vector times the matrices of polymers start..
        """
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
        basis, rows, cols, values, starts = self.eta_sector([k0 for _, k0, _ in polymers])
        r, n = len(basis), len(polymers)
        kernel = "matmul" if r * r * n <= DENSE_MAX_ENTRIES else "bincount"
        if kernel == "matmul":
            wide = np.zeros((r, n * r), dtype=np.complex128)
            wide[rows, cols] = values

            def products(v, start):
                return v @ wide[:, start * r:]
        else:
            slots = (2 * cols[:, None] + [0, 1]).ravel()  # real, then imaginary part

            def products(v, start):
                first = starts[start]
                weights = (v[rows[first:]] * values[first:]).view(np.float64)
                sums = np.bincount(slots[2 * first:], weights, 2 * n * r)
                return sums[2 * start * r:].view(np.complex128)

        def children(v, start):
            block = products(v, start).reshape(-1, r)
            return enumerate(zip(block, np.abs(block).sum(axis=1).tolist()), start)

        # polymer j's sites as a bitmask, the polymers it overlaps (itself
        # included) and the sites that polymers j.. cover
        site_bit = {site: 1 << b for b, site in enumerate(
            sorted({site for support, _, _ in polymers for site in support}))}
        sites = [sum(site_bit[site] for site in support) for support, _, _ in polymers]
        adj = [sum(1 << k for k, other in enumerate(sites) if mask & other)
               for mask in sites]
        reach = list(itertools.accumulate(reversed(sites), operator.or_))[::-1]
        memo: dict = {}

        one = np.zeros(r, dtype=np.complex128)
        one[0] = 1.0
        total = np.zeros(r, dtype=np.complex128)
        # pre-order walk; a frame is (multiset as (index, copies) pairs, its
        # site components, weight, children still to visit)
        stack = [((), [], 1.0, children(one, 0))]
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
                        total += rho * sub_weight * product
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
                stack.append((sub, parts, sub_weight, children(product, j)))
                break
            else:
                stack.pop()
        report.exact = not capped and report.exact
        log = debug_logger(__name__)
        if log is not None:
            shared = marked = 0
            if self.source_free:
                shared = self.source_free.integrals_computed - self._shared_before
                marked = len(self.source_free._marked_cache) - self._marked_before
            log.debug("%d candidates, %d restricted integrals computed, %d by the "
                      "source-free engine; marked classes: %d computed, %d read; "
                      "eta sector: r = %d, %d entries, %s",
                      len(self.candidates), self.integrals_computed, shared, marked,
                      len(self._marked_read), r, len(values), kernel)
        shift = self.universe.n_psi_bits
        result = GrassmannElement({int(m) << shift: c for m, c in zip(basis, total.tolist())})
        return LogSeries(self.universe, self.pure_eta + result), report
