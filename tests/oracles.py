"""Brute-force reference evaluations that the library code is checked against.

Each one computes the same quantity as a production routine by a slow,
independent route: the Ursell factor from adjacency rows, Gaussian
integrals by explicit Wick pairing, the log-partition series by literal
expansion and by mode elimination in index order, kernels spread over
every slot ordering, Grassmann products by sorting generator lists, the
capped even exponential as a product of elements,
Prufer decoding by a smallest-leaf search, pinned kernel norms entry by
entry, and the covariance as the inverse of the dense Dirac matrix.
Exponential or cubic cost; test scale only.  Two small helpers compare
elements and spell masks by generator.
"""

import cmath
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from fermicluster import berezin
from fermicluster.algebra import GrassmannElement, canonicalize, log1p_nilpotent, truncated
from fermicluster.berezin import LogSeries, integrate_element
from fermicluster.coeffsys import CoefficientSystem
from fermicluster.errors import NormalizationError, ParityError
from fermicluster.generators import GeneratorIndex, GeneratorUniverse
from fermicluster.grossneveu import LatticeSpec, gamma_matrices
from fermicluster.trees import _decode, _edge_table
from fermicluster.weights import WeightSystem


def ursell_adjacency(adj: tuple[int, ...]) -> int:
    """Hard-core Ursell value from adjacency bitmask rows.

    Anchor recursion over vertex subsets: with A(S) = 1 iff S induces no
    edge, the connected part satisfies
    C(S) = A(S) - sum over proper S1 containing the anchor of C(S1) A(S-S1).
    Equals the signed sum over connected spanning subgraphs.
    """
    n = len(adj)
    full = (1 << n) - 1

    def edgeless(mask: int) -> bool:
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if adj[i] & mask:
                return False
            m ^= low
        return True

    memo: dict[int, int] = {}

    def connected_part(mask: int) -> int:
        if mask.bit_count() == 1:
            return 1
        if mask in memo:
            return memo[mask]
        anchor = mask & -mask
        rest = mask ^ anchor
        value = 1 if edgeless(mask) else 0
        # proper submasks of `mask` containing the anchor
        sub = rest
        while True:
            sub = (sub - 1) & rest
            s1 = sub | anchor
            if s1 != mask and edgeless(mask ^ s1):
                value -= connected_part(s1)
            if sub == 0:
                break
        memo[mask] = value
        return value

    return connected_part(full)


def wick_expectation(universe: GeneratorUniverse, ordered: tuple[GeneratorIndex, ...]) -> int:
    """Wick evaluation of an ordered psi-generator product.

    Recursive pairing sum with ``<psibar psi> = +1`` for matching modes and
    the transposition sign tracked explicitly.
    """
    n = len(ordered)
    if n % 2:
        return 0
    if n == 0:
        return 1
    first, rest = ordered[0], ordered[1:]
    total = 0
    for j, g in enumerate(rest):
        if g.mode != first.mode or g.bar == first.bar:
            continue
        pair = 1 if first.bar else -1  # <psibar psi> = +1, <psi psibar> = -1
        sign = -1 if j % 2 else 1
        remaining = rest[:j] + rest[j + 1:]
        total += sign * pair * wick_expectation(universe, remaining)
    return total


def exp_power_series(f: GrassmannElement) -> GrassmannElement:
    """exp(f) by its power series, for input of any parity.

    The series terminates because the non-constant part is nilpotent.
    """
    rest = f.without_constant()
    out = GrassmannElement.one(1.0)
    power = GrassmannElement.one(1.0)
    k = 0
    while True:
        k += 1
        power = power * rest
        if power.is_zero():
            break
        out = out + power.scaled(1.0 / math.factorial(k))
    return out.scaled(cmath.exp(f.constant))


def exp_by_products(f: GrassmannElement, cap: int | None = None, bits: int = 0) -> GrassmannElement:
    """``exp_series`` as a product of elements: e^c times each factor
    ``GrassmannElement({0: 1.0, m: c})`` in mask order, truncated after
    every factor.  The library folds the same pairs into one dict, and must
    match this bit for bit."""
    if not f.is_even():
        raise ParityError("exp_by_products needs an even element")
    scale = cmath.exp(f.constant) if f.constant.imag else math.exp(f.constant.real)
    out = GrassmannElement.one(1.0)
    for m in sorted(f.terms):
        if m:
            out = truncated(out * GrassmannElement({0: 1.0, m: f.terms[m]}), bits, cap)
    return out.scaled(scale)


def log_expand(universe: GeneratorUniverse, f: GrassmannElement) -> LogSeries:
    """log of the Gaussian integral of exp(f) by literal expansion.

    Exponentiates by the power series, integrates monomial by monomial and
    takes the logarithm: the reference that mode elimination
    (``berezin.log_direct``) is checked against.
    """
    integrated = integrate_element(universe, exp_power_series(f))
    s = integrated.constant
    if s == 0:
        raise NormalizationError("vanishing partition function")
    rest = integrated.without_constant().scaled(1 / s)
    return LogSeries(universe, log1p_nilpotent(rest) + cmath.log(s))


def eliminate_in_index_order(universe: GeneratorUniverse, f: GrassmannElement) -> GrassmannElement:
    """Mode elimination in the fixed order 0..n-1, skipping modes no term holds.

    The reference for the order ``berezin.effective_log_integral`` picks:
    the integrals of even mode pairs commute, so both give the same series.
    Each step goes through ``berezin.log_bracket``, so a test can wrap it.
    """
    if not f.is_even():
        raise ParityError("mode elimination needs an even exponent")
    held = 0
    for m in f.terms:
        held |= m
    current = f
    for k in range(len(universe.psi_modes)):
        bar_bit, unbar_bit = universe.psi_mode_bits(k)
        if not held & (bar_bit | unbar_bit):
            continue
        f0, u, v, w = berezin._split_mode(current, bar_bit, unbar_bit)
        current = f0 + berezin.log_bracket(u, v, w)
    return current


def _perm_sign(perm: Iterable[int]) -> int:
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def antisymmetrized(system: CoefficientSystem) -> CoefficientSystem:
    """Equivalent kernel spread antisymmetrically over slot orderings."""
    out = CoefficientSystem()
    for (zs, ws), value in system:
        n, m = len(zs), len(ws)
        norm = 1.0
        for k in range(2, n + 1):
            norm *= k
        for k in range(2, m + 1):
            norm *= k
        for sigma in itertools.permutations(range(n)):
            zsp = tuple(zs[i] for i in sigma)
            ssign = _perm_sign(sigma)
            for tau in itertools.permutations(range(m)):
                wsp = tuple(ws[i] for i in tau)
                out.add(zsp, wsp, ssign * _perm_sign(tau) * value / norm)
    return out


def reference_product(universe: GeneratorUniverse, a: GrassmannElement,
                      b: GrassmannElement) -> dict[int, complex]:
    """Terms of ``a * b``, each pair signed by sorting its generator list.

    Pairs are summed in (left, right) order and exact zeros dropped at the
    end, so the values equal the production product's bit for bit.
    """
    acc: dict[int, complex] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mask, sign = canonicalize(universe, universe.indices_of(ma) + universe.indices_of(mb))
            if sign:
                acc[mask] = acc.get(mask, 0j) + sign * ca * cb
    return {m: c for m, c in acc.items() if c != 0}


def prufer_to_tree(seq: tuple[int, ...], n: int) -> frozenset[tuple[int, int]]:
    """Decode a Prufer sequence of length n-2 into its labelled tree, by the
    pointer decode that ``trees.enumerate_trees`` runs."""
    return _decode(seq, n, _edge_table(n))


def prufer_to_tree_by_min_leaf(seq: tuple[int, ...], n: int) -> frozenset[tuple[int, int]]:
    """Prufer decode that searches for the smallest leaf at every step.

    Quadratic per tree: the reference that :func:`prufer_to_tree`'s
    pointer decode is checked against.
    """
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return frozenset(edges)


def coeff_norm_by_entry(a: CoefficientSystem, w: WeightSystem) -> float:
    """``weights.coeff_norm`` with a running sum per (pin, site) bucket.

    Walks the entries of each class in stored order, weighs each new site
    set on the frozenset of the entry that first holds it, and adds the
    entry's mass to the bucket of every site its pinned slots hold.  The
    production kernel sums the same buckets in the same order, so the two
    must agree bit for bit.
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
        weight_of: dict[frozenset, float] = {}
        for zs, ws, value in items:
            sites = frozenset(g.site for g in zs + ws)
            if sites not in weight_of:
                weight_of[sites] = w.weight(n, m, sites)
            mass = weight_of[sites] * abs(value)
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


def dirac_matrix(spec: LatticeSpec, m_f: float) -> np.ndarray:
    """Dense matrix of D + m_f with D = gamma.grad - Laplacian/2.

    Symmetric first differences for the gradient, the 2d+1 point stencil
    for the Laplacian, periodic wrap.  Index layout is site-major with the
    spinor inside; flavors are an exact copy and stay implicit.  Its
    inverse is ``grossneveu.covariance``'s table spread over site pairs.
    """
    gams = gamma_matrices(spec.d)
    sd = spec.spinor_dim
    sites = spec.sites
    index = {s: i for i, s in enumerate(sites)}
    n = len(sites) * sd
    out = np.zeros((n, n), dtype=complex)
    eye = np.eye(sd, dtype=complex)
    for s in sites:
        row = index[s] * sd
        out[row:row + sd, row:row + sd] += (m_f + spec.d) * eye
        for mu in range(spec.d):
            step = list(s)
            step[mu] = (step[mu] + 1) % spec.L
            fwd = index[tuple(step)] * sd
            step[mu] = (s[mu] - 1) % spec.L
            bwd = index[tuple(step)] * sd
            out[row:row + sd, fwd:fwd + sd] += (gams[mu] - eye) / 2
            out[row:row + sd, bwd:bwd + sd] += -(gams[mu] + eye) / 2
    return out


def allclose(a: GrassmannElement, b: GrassmannElement,
             rel: float = 1e-12, abs_tol: float = 1e-15) -> bool:
    """Every coefficient of ``a`` and ``b`` agrees within ``abs_tol + rel * max``."""
    for m in set(a.terms) | set(b.terms):
        x = a.terms.get(m, 0j)
        y = b.terms.get(m, 0j)
        if abs(x - y) > abs_tol + rel * max(abs(x), abs(y)):
            return False
    return True


def mask_of(universe: GeneratorUniverse, indices: Sequence[GeneratorIndex]) -> int:
    """Bitmask of a set of distinct generators (order-insensitive)."""
    mask = 0
    for g in indices:
        b = universe.bit(g)
        if mask & b:
            raise ValueError(f"repeated generator {g!r}")
        mask |= b
    return mask
