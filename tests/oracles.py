"""Brute-force reference evaluations that the library code is checked against.

Each one computes the same quantity as a production routine by a slow,
independent route: the Ursell factor from adjacency rows, Gaussian
integrals by explicit Wick pairing, the log-partition series by literal
expansion, kernels spread over every slot ordering, and Grassmann products
by sorting generator lists.  Exponential cost; test scale only.  Two
small helpers compare elements and spell masks by generator.
"""

import cmath
import itertools
import math
from typing import Iterable, Sequence

from fermicluster.algebra import GrassmannElement, canonicalize, log1p_nilpotent
from fermicluster.berezin import LogSeries, integrate_element
from fermicluster.coeffsys import CoefficientSystem
from fermicluster.errors import NormalizationError
from fermicluster.generators import GeneratorIndex, GeneratorUniverse


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
