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
reads a pair's sources by linear response (below), which keeps the terms
of eta degree 2 or less, and exact otherwise.

In a pair run of the lattice model, every item is charge-neutral (psi-bar
and eta-bar count +1, psi and eta -1) and integration keeps only terms of
psi charge 0, so a surviving term holds as many eta-bar as eta bits.  The
only items with an unbarred eta, psi-bar_x eta_x, sit on source sites x.
So a region that holds no source site has a scalar restricted integral,
which the eta-free items alone give, and a support that holds none a
scalar activity, read off the integrals of regions inside it.  With a
translation-invariant eta-free part, both depend only on the translation
class, and the source-free :class:`ClusterEngine` of that part (``side``
set) computes each such Z and K0 once per class.

A region X that holds source sites is linear in the sources once the eta
degree is capped at 2: each surviving term is a constant or one eta-bar
times one eta, and the eta-bar eta coefficients of log Z need no term of
higher degree, since degrees only add.  Replace the source items by unit
probes psi_y eta-bar_y and psi-bar_y eta_y at every psi mode y of X, with
eta modes on its sites.  The algebra map phi that sends eta-bar_y to the
sum over a of K(a, y) eta-bar_a and eta_y to the sum over c of Λ(c, y)
eta_c, K and Λ the coefficients of the psi_y eta-bar_a and psi-bar_y eta_c
items, turns the probe exponent into the pair's; Λ vanishes off the source
sites, so the probes there map to zero.  phi acts on eta generators alone
and keeps eta degrees, so it commutes with psi integration, the
exponential, the cap and the anchor recursion: K0(X) = phi(K0°(X)), K0°
the probe activity and Z° the probe integral.  Under the cap each Z° and
K0° is a pair (s, T) of a constant and a matrix over X's psi modes,
T[i, j] the coefficient of eta-bar_i eta_j, and (s1, T1)(s2, T2) =
(s1 s2, s1 T2 + s2 T1) exactly, since T1 T2 has eta degree 4.  s is the
source-free Z or K0 and T° depends only on X's translation class, so the
source-free engine computes T° once per region class, and its
``assemble(pair)`` takes each activity of the pair as s(X) + K T°(X) Λ^T:
no elimination, Grassmann product or eta-sector matrix.  An exact pair
run instead hands the whole interaction to an engine of its own, which
integrates every region itself: its probe sector would hold far more eta
monomials than the pair's.

Every activity has its psi fields integrated out, so the polymer sum is
linear algebra over the few eta monomials that products of activities
reach.  The descent holds each product as a complex vector over that basis.
It goes one depth at a time and takes the children of a chunk of nodes, at
most ``CHUNK_ENTRIES`` child entries, in one kernel call; numpy drops the
zero and below-floor children, and Python visits only the rest.  A chunk
only groups the kernel calls of a depth and moves nothing but rounding.
Each chunk costs a fixed dozen numpy calls, so it holds as many nodes as
fit, 15 of the widest nodes of an exact 2x2 run, at the price of a
chunk-sized buffer or two in peak memory.  The route picks the kernel.
``assemble(pair)`` takes the rank-one kernel: activity j is s_j + t_j, s_j
its constant and t_j its mapped part of eta degree 2, over the empty
monomial and the eta-bar eta pairs they reach, and a nonempty basis
monomial times t_j has eta degree 4 or vanishes, so the cap drops it: a
product v has the children s_j v + v_0 t_j, O(n r) work per node for n
polymers over r monomials, and no matrix product.  ``assemble()``, in the
pipeline an exact run's, takes a chunk's children from one matrix product
with the activities' matrices laid out dense side by side, built once per
run.  Exact mode's size limit keeps that array small: r = 36 monomials
over 15 polymers on 2x2.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .algebra import GrassmannElement, exp_series, prefix_parity
from .berezin import LogSeries, debug_logger, effective_log_integral
# not called here; bench/tracing.py's EXPECTED_COPIES lists this binding
from .berezin import integrate_element  # noqa: F401
from .errors import CapacityError, ParityError
from .generators import GeneratorUniverse, Site

SiteSet = frozenset[Site]

#: Largest polymer support closure the engine builds before giving up.
MAX_CANDIDATES = 4096
#: Most child entries (nodes, times children, times basis size) the descent
#: computes in one step.  Each chunk pays one kernel call and about ten
#: numpy calls, so small chunks cost exact runs most of their descent time
#: (an exact 2x2 node has up to 540 child entries); past 1 << 13 the gain
#: is small and a run's peak memory grows with the chunk.
CHUNK_ENTRIES = 1 << 13


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


def _by_size(support: SiteSet) -> tuple:
    """The candidates' order: by size, then by sorted sites."""
    return len(support), sorted(support)


def _source_sites(universe: GeneratorUniverse) -> SiteSet:
    """The sites of ``universe``'s eta modes."""
    return frozenset(site for site, _, _ in universe.eta_modes)


def _source_response(universe: GeneratorUniverse, sources: GrassmannElement,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A pair's source items as (K, Λ, masks, signs): K[a, y] is the
    coefficient of psi_y eta-bar_a and Λ[c, b] that of psi-bar_b eta_c, over
    eta and psi mode indices; masks[a, c] is the eta mask of eta-bar_a eta_c,
    shifted down by ``n_psi_bits``, and signs[a, c] its sign as a product in
    that order.  Raises ValueError on any other item, or on a psi-bar eta
    item off the source sites."""
    n_psi, n_eta = universe.n_psi_bits, len(universe.eta_modes)
    source_sites = _source_sites(universe)
    bar = np.zeros((n_eta, len(universe.psi_modes)), dtype=np.complex128)
    unbar = np.zeros_like(bar)
    for mask, coeff in sources.terms.items():
        psi_part, eta_part = mask & universe.psi_block_mask, mask >> n_psi
        k, a = psi_part.bit_length() - 1, eta_part.bit_length() - 1
        # bar bits are even, so a source item has one of each parity
        if (psi_part.bit_count() != 1 or eta_part.bit_count() != 1 or k % 2 == a % 2
                or k % 2 == 0 and universe.psi_modes[k // 2][0] not in source_sites):
            raise ValueError("a pair holds only source items: psi eta-bar, "
                             "or psi-bar eta on a source site")
        (bar if k % 2 else unbar)[a // 2, k // 2] = coeff
    masks = np.array([[1 << 2 * a | 2 << 2 * c for c in range(n_eta)]
                      for a in range(n_eta)], dtype=np.uint64)
    order = np.arange(n_eta)
    return bar, unbar, masks, np.where(order[:, None] <= order, 1.0, -1.0)


# ---------------------------------------------------------------- options


@dataclass(frozen=True)
class ClusterOptions:
    """Caps and floors for the expansion.

    max_polymer_sites drops every support of more sites; a run that sets it
    is truncated, as is every linear-response pair run (module docstring).
    floor is the 1-norm below which a product branch is dropped (its size
    is reported as the tail).
    """

    n_max: int = 24
    floor: float = 1e-15
    max_polymer_sites: int | None = None


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

    ``side`` declares f translation invariant on a periodic lattice of that
    side, so Z and K0 are computed once per translation class; the
    source-free engine of a lattice model sets it, and its
    ``assemble(pair)`` gives each pair run by linear response (module
    docstring).  ``ursell_memos``, a dict that other engines may share,
    holds the rho^T memos by adjacency: rho^T depends on the multiset and
    the adjacency alone.
    """

    def __init__(self, universe: GeneratorUniverse, f: GrassmannElement,
                 options: ClusterOptions | None = None, side: int | None = None,
                 ursell_memos: dict | None = None):
        if not f.is_even():
            raise ParityError("cluster expansion requires an even interaction")
        self.universe = universe
        self.options = options or ClusterOptions()
        self.side = side
        self._mode_index = {mode: k for k, mode in enumerate(universe.psi_modes)}
        # eliminations this engine ran; its probe integrals and activities
        # (matrices of Z° and T° by region class); its Ursell memos
        self.integrals_computed = 0
        self._probe_cache: dict = {}
        self._probe_activities: dict = {}
        self._ursell_memos = {} if ursell_memos is None else ursell_memos
        self._classes: dict = {}  # _class by region

        psi_block = universe.psi_block_mask
        cap = self.options.max_polymer_sites
        self.pure_eta = GrassmannElement(
            {mask: coeff for mask, coeff in f.terms.items() if not mask & psi_block})
        # the psi-supported items by support; no candidate and no restricted
        # region holds one on more than ``cap`` sites
        self._by_support: dict[SiteSet, list[tuple[int, complex]]] = {}
        for mask, coeff in f.terms.items():
            if mask & psi_block:
                sup = frozenset(g.site for g in universe.indices_of(mask & psi_block))
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
        # each support tries only the seeds that share one of its sites
        by_site: dict[Site, list[SiteSet]] = {}
        for seed in seeds:
            for site in seed:
                by_site.setdefault(site, []).append(seed)
        found: set[SiteSet] = set(seeds)
        frontier = seeds
        while frontier:
            nxt = []
            for cand in frontier:
                for seed in dict.fromkeys(near for site in cand for near in by_site[site]):
                    if not cand >= seed:
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
        return sorted(found, key=_by_size)

    # -- activities --------------------------------------------------------

    def _moved(self, sites: SiteSet, anchor: Site) -> tuple[Site, ...]:
        """``sites`` moved by minus ``anchor``, sorted."""
        return tuple(sorted(tuple((a - b) % self.side for a, b in zip(site, anchor))
                            for site in sites))

    def _class(self, region: SiteSet) -> tuple[Site | None, SiteSet]:
        """The anchor a in ``region`` whose move by -a gives the least sorted
        region, and the region moved by -a, one per translation class;
        without ``side``, no anchor and the region as it is."""
        if self.side is None or not region:
            return None, region
        if region not in self._classes:
            anchor = min(region, key=lambda a: self._moved(region, a))
            self._classes[region] = anchor, frozenset(self._moved(region, anchor))
        return self._classes[region]

    def _key(self, region: SiteSet) -> SiteSet:
        """``region``'s representative in its translation class: one key per class."""
        return self._class(region)[1]

    def _probe(self, cache: dict, build, region: SiteSet) -> tuple[SiteSet, np.ndarray, list[int]]:
        """``build`` of ``region``'s class key, computed once per class in
        ``cache``: (class key, matrix, cols), row and column i of the matrix
        standing for the psi mode of ``region`` at index ``cols[i]``."""
        anchor, key = self._class(region)
        if key not in cache:
            cache[key] = build(key)
        matrix, modes = cache[key]
        if anchor is not None:
            modes = [(tuple((a + b) % self.side for a, b in zip(site, anchor)), *rest)
                     for site, *rest in modes]
        return key, matrix, [self._mode_index[mode] for mode in modes]

    def _probe_integral(self, region: SiteSet) -> tuple[np.ndarray, list]:
        """T of Z°(region) = (s, T) of the module docstring, and the psi modes
        of ``region`` it stands on: the integral on the universe of those
        modes with an eta mode for each, of this engine's items within
        ``region``, psi_y eta-bar_y and psi-bar_y eta_y at every psi mode y,
        all of coefficient 1.  The items' psi bits move down to the region's
        modes in order, which keeps every sign and the masks narrow."""
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
        for j in range(len(modes)):
            terms += [(2 << 2 * j | 1 << n + 2 * j, 1.0), (1 << 2 * j | 2 << n + 2 * j, 1.0)]
        z = self._eliminated(probe, terms, cap=2)
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
        return matrix, modes

    def _probe_activity(self, region: SiteSet) -> tuple[np.ndarray, list]:
        """T° of K0°(region) = (s, T°), and the psi modes of ``region`` it
        stands on: :meth:`polymer_activity`'s anchor recursion on (s, T)
        pairs, with s from this engine's Z and K0.  The probes sit on every
        site, so the supports inside ``region`` are its candidates and its
        single sites."""
        modes = [mode for mode in self.universe.psi_modes if mode[0] in region]
        at = {self._mode_index[mode]: i for i, mode in enumerate(modes)}

        def placed(cache, build, part):  # T of ``part``, over ``region``'s modes
            matrix = np.zeros((len(modes), len(modes)), dtype=np.complex128)
            if part:
                _, t, cols = self._probe(cache, build, part)
                index = [at[col] for col in cols]
                matrix[np.ix_(index, index)] = t
            return matrix

        def z(part):
            return placed(self._probe_cache, self._probe_integral, part)

        anchor = min(region)
        t = z(region) - z(region - {anchor})
        for sub in dict.fromkeys([frozenset([anchor]), *self.candidates]):
            if anchor in sub and sub < region:
                rest = region - sub
                t -= (self.polymer_activity(sub).constant * z(rest)
                      + self._restricted_exp(rest).constant
                      * placed(self._probe_activities, self._probe_activity, sub))
        return t, modes

    def _items_within(self, region: SiteSet) -> list[tuple[int, complex]]:
        """The items on supports within ``region``."""
        return [item for sup, items in self._by_support.items() if sup <= region
                for item in items]

    def _eliminated(self, universe: GeneratorUniverse, terms: list[tuple[int, complex]],
                    cap: int | None = None) -> GrassmannElement:
        """The integral of exp of ``terms``, in mask order, without the terms
        of eta degree above ``cap`` after each step and factor, if it is set."""
        if not terms:
            return GrassmannElement.one(1.0)
        self.integrals_computed += 1
        f = GrassmannElement(dict(sorted(terms, key=operator.itemgetter(0))))
        return exp_series(effective_log_integral(universe, f, cap), cap,
                          ~universe.psi_block_mask)

    def _restricted_exp(self, region: SiteSet) -> GrassmannElement:
        """Z(region): integral of exp(f restricted to supports within the region)."""
        key = self._key(region)
        if key not in self._exp_cache:
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
        anchor = min(key)
        k0 = self._restricted_exp(key) - self._restricted_exp(key - {anchor})
        for sub in self.candidates:
            if anchor in sub and sub < key:
                k0 = k0 - self.polymer_activity(sub) * self._restricted_exp(key - sub)
        self._activity_cache[key] = k0
        return k0

    # -- assembly ------------------------------------------------------------

    def eta_sector(self, activities: Sequence[GrassmannElement]
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The activities as matrices over the eta monomials they reach.

        The basis is the closure of {0} under ``m | k`` for every activity
        mask k disjoint from m, shifted down by ``n_psi_bits``; basis[0] is
        the empty mask.
        Row m of matrix j holds ``e_m * activities[j]`` restricted to the
        basis: cell (m, m | k) gets c_k with the product's sign, and no cell
        gets more than one term since k = column & ~row.  Returns the basis
        and the matrices side by side in one dense r-by-(len(activities) x r)
        array, r the basis size, matrix j in columns j * r to (j + 1) * r,
        so a row vector times a slice of it is every product of a descent
        node.
        """
        shift = self.universe.n_psi_bits
        keys = sorted({m >> shift for k0 in activities for m in k0.terms} - {0})
        # after key i, ``found`` holds the unions of disjoint keys up to i
        found = {0}
        for k in keys:
            found |= {m | k for m in found if not m & k}
        basis = np.array(sorted(found), dtype=np.uint64)
        r = len(basis)
        # every activity's terms side by side, broadcast against the basis at once
        ks = np.array([m >> shift for k0 in activities for m in k0.terms], dtype=np.uint64)
        cs = np.array([c for k0 in activities for c in k0.terms.values()], dtype=np.complex128)
        owner = np.repeat(np.arange(len(activities)), [len(k0.terms) for k0 in activities])
        rows, t = np.nonzero((basis[:, None] & ks[None, :]) == 0)
        target = basis[rows] | ks[t]
        cols = np.searchsorted(basis, target).clip(max=r - 1)
        hit = basis[cols] == target
        rows, t, cols = rows[hit], t[hit], cols[hit]
        odd = np.bitwise_count(ks[t] & prefix_parity(basis)[rows]) & 1
        wide = np.zeros((r, len(activities) * r), dtype=np.complex128)
        wide[rows, owner[t] * r + cols] = np.where(odd, -cs[t], cs[t])
        return basis, wide

    def _mapped_polymers(self, candidates: list[SiteSet], universe: GeneratorUniverse,
                         sources: GrassmannElement,
                         ) -> tuple[list[SiteSet], np.ndarray, np.ndarray, np.ndarray]:
        """A pair's polymers by linear response (module docstring): the live
        ``candidates``, their constants s (this engine's K0), their parts of
        eta degree 2 over the basis, and the basis, shifted down by
        ``n_psi_bits``: the empty mask and every eta-bar eta pair some part
        reaches, in mask order."""
        bar, unbar, masks, signs = _source_response(universe, sources)
        source_sites = _source_sites(universe)
        s = np.array([self.polymer_activity(support).constant for support in candidates],
                     dtype=np.complex128)
        t = np.zeros((len(s), *masks.shape), dtype=np.complex128)
        for j, support in enumerate(candidates):
            if support & source_sites:
                _, matrix, cols = self._probe(self._probe_activities, self._probe_activity,
                                              support)
                t[j] = signs * (bar[:, cols] @ matrix @ unbar[:, cols].T)
        live = np.abs(s) + np.abs(t).sum(axis=(1, 2)) > 0.0
        t = t[live]
        reached = (t != 0).any(axis=0)
        order = np.argsort(masks[reached])
        top = np.zeros((len(t), 1 + len(order)), dtype=np.complex128)
        top[:, 1:] = t[:, reached][:, order]
        basis = np.insert(masks[reached][order], 0, 0)
        return [sup for sup, keep in zip(candidates, live) if keep], s[live], top, basis

    def assemble(self, pair: tuple[GeneratorUniverse, GrassmannElement] | None = None,
                 ) -> tuple[LogSeries, ExpansionReport]:
        """The resummed cluster logarithm of the normalized exp(f) integral.

        Given ``pair``, a universe on this engine's psi modes and the source
        items of a pair run there, it is that of exp(f + sources) on the
        pair's universe, up to eta degree 2, by linear response (module
        docstring); its candidates are this engine's and the one-site
        supports of the source sites.  Each product is a complex vector
        over the eta sector basis, and a node's children are that vector
        times the matrices of its last polymer and those after it, taken a
        chunk of nodes at a time.
        """
        opts = self.options
        capped = pair is not None or opts.max_polymer_sites is not None
        report = ExpansionReport(mode="truncated" if capped else "exact")
        universe = self.universe if pair is None else pair[0]
        source_sites = _source_sites(universe)
        integrals, probes = self.integrals_computed, len(self._probe_activities)
        candidates = self.candidates
        if pair is not None:
            # the source sites join the closure, which is empty at g = 0
            candidates = sorted({*candidates, *(frozenset([site]) for site in source_sites)},
                                key=_by_size)
            supports, s, top, basis = self._mapped_polymers(candidates, *pair)
            norms = np.abs(s) + np.abs(top).sum(axis=1)
            kernel, entries = "rank-one", np.count_nonzero(s) + np.count_nonzero(top)

            def products(v, start):
                out = s[start:, None] * v[:, None, :]
                out += v[:, :1, None] * top[start:]  # no third array for the sum
                return out
        else:
            supports, activities, norms = [], [], []
            for support in candidates:
                k0 = self.polymer_activity(support)
                norm = _element_1norm(k0)
                if norm > 0.0:
                    supports.append(support)
                    activities.append(k0)
                    norms.append(norm)
            basis, wide = self.eta_sector(activities)
            kernel, entries = "matmul", np.count_nonzero(wide)

            def products(v, start):
                return (v @ wide[:, start * r:]).reshape(len(v), n - start, r)
        r, n = len(basis), len(supports)
        report.polymer_count = n
        shrinking = bool(np.all(np.less_equal(norms, 1.0)))

        # polymer j's sites as a bitmask, the polymers it overlaps (itself
        # included), through the polymers on each site, and the sites that
        # polymers j.. cover
        site_bit = {site: 1 << b for b, site in enumerate(
            sorted({site for support in supports for site in support}))}
        sites = [sum(site_bit[site] for site in support) for support in supports]
        on_site = dict.fromkeys(site_bit, 0)
        for j, support in enumerate(supports):
            for site in support:
                on_site[site] |= 1 << j
        adj = [functools.reduce(operator.or_, map(on_site.get, support)) for support in supports]
        reach = list(itertools.accumulate(reversed(sites), operator.or_))[::-1]
        memo = self._ursell_memos.setdefault(tuple(adj), {})

        total = np.zeros(r, dtype=np.complex128)
        # one depth at a time: a level holds its nodes' products and, per
        # node, its multiset as (index, copies) pairs, its site components,
        # weight and first child
        vectors = np.eye(1, r, dtype=np.complex128)
        nodes = [((), [], 1.0, 0)] if n else []
        if opts.n_max < 1:  # the root already sits at the depth cap
            report.tail, report.exact, nodes = 1.0, False, []
        depth = 0
        while nodes:
            depth += 1
            # in order of first child, a chunk's children start at its first node's
            first = np.array([node[3] for node in nodes])
            order = np.argsort(first, kind="stable")
            first, nodes = first[order], [nodes[i] for i in order]
            size = max(1, CHUNK_ENTRIES // ((n - first[0]) * r))
            next_vectors, next_nodes = [], []
            for lo in range(0, len(nodes), size):
                start = first[lo]
                block = products(vectors[order[lo:lo + size]], start)
                norms = np.abs(block).sum(axis=2)
                norms[np.arange(start, n) < first[lo:lo + size, None]] = 0.0
                live = norms != 0.0  # NaN children stay, so an overflow still shows
                low = live & (norms < opts.floor)
                if low.any():
                    report.tail = max(report.tail, float(norms[low].max()))
                    if shrinking:
                        live &= ~low
                at, child = np.nonzero(live)
                coeffs = np.zeros(len(at))
                descend = []
                for k, (i, j, norm1) in enumerate(zip(
                        (at + lo).tolist(), (child + start).tolist(), norms[at, child].tolist())):
                    counts, comps, weight, _ = nodes[i]
                    copies = counts[-1][1] + 1 if counts and counts[-1][0] == j else 1
                    sub = (*counts[:len(counts) - (copies > 1)], (j, copies))
                    sub_weight = weight / copies
                    parts = _merged(comps, sites[j])
                    if len(parts) == 1:
                        rho = _ursell(sub, adj, memo)
                        if rho:
                            coeffs[k] = rho * sub_weight
                            report.cluster_count += 1
                    if depth >= opts.n_max:
                        report.tail = max(report.tail, norm1)
                        if norm1 >= opts.floor:
                            report.exact = False
                    # a component no remaining polymer can reach keeps every
                    # extension disconnected, so the whole branch contributes zero
                    elif len(parts) == 1 or all(comp & reach[j] for comp in parts):
                        descend.append(k)
                        next_nodes.append((sub, parts, sub_weight, j))
                if len(at):
                    report.n_reached = depth
                    report.clusters_visited += len(at)
                    kids = block[at, child]
                    total += (coeffs[:, None] * kids).sum(axis=0)
                    next_vectors.append(kids[descend])
                # free this chunk's arrays before the kernel builds the next
                block = kids = None
            nodes = next_nodes
            vectors = np.concatenate(next_vectors) if next_nodes else None
        report.exact = not capped and report.exact
        log = debug_logger(__name__)
        if log is not None:
            log.debug("%d candidates, %d restricted integrals computed; probe classes: "
                      "%d computed; %d of %d polymers meet the sources; eta sector: "
                      "r = %d, %d entries, %s", len(candidates),
                      self.integrals_computed - integrals,
                      len(self._probe_activities) - probes,
                      sum(1 for support in supports if support & source_sites), n,
                      r, entries, kernel)
        shift = universe.n_psi_bits
        result = GrassmannElement({int(m) << shift: c for m, c in zip(basis, total.tolist())})
        return LogSeries(universe, result if pair is not None else self.pure_eta + result), report
