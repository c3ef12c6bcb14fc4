"""Exact arithmetic in a finite anticommuting algebra.

Monomials are bitmasks over a :class:`~fermicluster.generators.GeneratorUniverse`;
an element is a finite complex linear combination of monomials.  All products
track the permutation sign exactly, so the algebra is exact up to floating
point roundoff in the coefficients.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Mapping

from .errors import ParityError
from .generators import GeneratorIndex, GeneratorUniverse


def merge_parity(a: int, b: int) -> int:
    """Parity of the permutation that sorts the concatenation of two masks.

    Both masks are read in canonical (ascending-bit) order; the result is the
    number of transpositions, mod 2, needed to interleave ``b`` into ``a``.
    Assumes ``a & b == 0``.
    """
    parity = 0
    while b:
        low = b & -b
        j = low.bit_length() - 1
        parity ^= (a >> (j + 1)).bit_count() & 1
        b ^= low
    return parity


def multiply_masks(a: int, b: int) -> tuple[int, int]:
    """Product of two canonical monomials: (mask, sign); sign 0 on collision."""
    if a & b:
        return 0, 0
    return a | b, -1 if merge_parity(a, b) else 1


def canonicalize(universe: GeneratorUniverse, indices: Iterable[GeneratorIndex]) -> tuple[int, int]:
    """Mask and permutation sign of an ordered generator product.

    Returns ``(0, 0)`` when a generator repeats (the product vanishes).
    """
    mask = 0
    sign = 1
    for g in indices:
        b = universe.bit(g)
        if mask & b:
            return 0, 0
        if (mask >> (b.bit_length())).bit_count() & 1:
            sign = -sign
        mask |= b
    return mask, sign


class GrassmannElement:
    """Finite linear combination of canonical monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, complex] | None = None):
        self.terms: dict[int, complex] = {}
        if terms:
            for m, c in terms.items():
                c = complex(c)
                if c != 0:
                    self.terms[m] = c

    @classmethod
    def zero(cls) -> "GrassmannElement":
        return cls()

    @classmethod
    def one(cls, c: complex = 1.0) -> "GrassmannElement":
        return cls({0: c})

    @classmethod
    def monomial(cls, mask: int, c: complex = 1.0) -> "GrassmannElement":
        return cls({mask: c})

    @property
    def constant(self) -> complex:
        return self.terms.get(0, 0j)

    def without_constant(self) -> "GrassmannElement":
        out = GrassmannElement()
        out.terms = {m: c for m, c in self.terms.items() if m != 0}
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def is_even(self) -> bool:
        return all(m.bit_count() % 2 == 0 for m in self.terms)

    def is_nilpotent(self) -> bool:
        return 0 not in self.terms

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.terms), default=0)

    def copy(self) -> "GrassmannElement":
        out = GrassmannElement()
        out.terms = dict(self.terms)
        return out

    def scaled(self, c: complex) -> "GrassmannElement":
        c = complex(c)
        out = GrassmannElement()
        if c != 0:
            out.terms = {m: v * c for m, v in self.terms.items()}
        return out

    def pruned(self, floor: float) -> "GrassmannElement":
        """Drop coefficients with magnitude at or below ``floor``."""
        out = GrassmannElement()
        out.terms = {m: c for m, c in self.terms.items() if abs(c) > floor}
        return out

    def __add__(self, other) -> "GrassmannElement":
        if not isinstance(other, GrassmannElement):
            other = GrassmannElement.one(other)
        out = self.copy()
        for m, c in other.terms.items():
            v = out.terms.get(m, 0j) + c
            if v == 0:
                out.terms.pop(m, None)
            else:
                out.terms[m] = v
        return out

    __radd__ = __add__

    def __neg__(self) -> "GrassmannElement":
        return self.scaled(-1)

    def __sub__(self, other) -> "GrassmannElement":
        if not isinstance(other, GrassmannElement):
            other = GrassmannElement.one(other)
        return self + other.scaled(-1)

    def __rsub__(self, other) -> "GrassmannElement":
        return GrassmannElement.one(other) + self.scaled(-1)

    def __mul__(self, other) -> "GrassmannElement":
        if not isinstance(other, GrassmannElement):
            return self.scaled(other)
        out = GrassmannElement()
        acc = out.terms
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if ma & mb:
                    continue
                m = ma | mb
                c = ca * cb
                if merge_parity(ma, mb):
                    c = -c
                v = acc.get(m, 0j) + c
                if v == 0:
                    acc.pop(m, None)
                else:
                    acc[m] = v
        return out

    def __rmul__(self, other) -> "GrassmannElement":
        # Only scalars reach here; scalars commute with everything.
        return self.scaled(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"GrassmannElement({n} terms, max degree {self.max_degree()})"

    def allclose(self, other: "GrassmannElement", rel: float = 1e-12, abs_tol: float = 1e-15) -> bool:
        masks = set(self.terms) | set(other.terms)
        for m in masks:
            a = self.terms.get(m, 0j)
            b = other.terms.get(m, 0j)
            if abs(a - b) > abs_tol + rel * max(abs(a), abs(b)):
                return False
        return True


def exp_series(f: GrassmannElement, floor: float = 0.0) -> GrassmannElement:
    """Exponential of an element whose non-constant part is nilpotent.

    Even input factorizes into commuting binomials: every single monomial
    squares to zero, so exp(sum t_i) = prod (1 + t_i).  Odd or mixed input
    falls back to the power series, which terminates by nilpotency.
    """
    scale = cmath.exp(f.constant) if f.constant.imag else math.exp(f.constant.real)
    rest = f.without_constant()
    if rest.is_zero():
        return GrassmannElement.one(scale)
    if rest.is_even():
        out = GrassmannElement.one(1.0)
        for m in sorted(rest.terms):
            out = out * GrassmannElement({0: 1.0, m: rest.terms[m]})
            if floor > 0.0:
                out = out.pruned(floor)
        return out.scaled(scale)
    out = GrassmannElement.one(1.0)
    power = GrassmannElement.one(1.0)
    k = 0
    while True:
        k += 1
        power = power * rest
        if floor > 0.0:
            power = power.pruned(floor * k)
        if power.is_zero():
            break
        out = out + power.scaled(1.0 / math.factorial(k))
    return out.scaled(scale)


def log1p_nilpotent(r: GrassmannElement, floor: float = 0.0) -> GrassmannElement:
    """log(1 + r) for nilpotent r, via the alternating power series."""
    if not r.is_nilpotent():
        raise ParityError("log1p_nilpotent needs an element without constant term")
    out = GrassmannElement.zero()
    power = GrassmannElement.one(1.0)
    k = 0
    while True:
        k += 1
        power = power * r
        if floor > 0.0:
            power = power.pruned(floor)
        if power.is_zero():
            break
        out = out + power.scaled((-1.0) ** (k + 1) / k)
    return out
