"""Exact arithmetic in a finite anticommuting algebra.

Monomials are bitmasks over a :class:`~fermicluster.generators.GeneratorUniverse`;
an element is a finite complex linear combination of monomials.  All products
track the permutation sign exactly, so the algebra is exact up to floating
point roundoff in the coefficients.

Sign rule: bit j of ``prefix_parity(a)`` is the parity of the bits of ``a``
above j, so moving the generators of ``b`` past those of ``a`` into
canonical order costs ``popcount(b & prefix_parity(a)) & 1`` transpositions
(the Jordan-Wigner string of each bit of ``b``).  The prefix is computed once
per left monomial and the sign of each pair is a single popcount.

Products take one of two routes by operand size.  Below ``VECTOR_MIN_PAIRS``
pair visits a Python loop runs over every pair.  From there on the masks are
split into 64-bit words and the collision test and sign run over blocks of
left rows in numpy; the surviving pairs are then accumulated in the same
(left, right) order as the loop, so both routes give identical terms in
identical key order.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Mapping

import numpy as np

from .errors import ParityError
from .generators import GeneratorIndex, GeneratorUniverse

#: Pair visits (``len(a) * len(b)``) from which a product runs in numpy.
VECTOR_MIN_PAIRS = 512
#: Pairs tested per numpy block; bounds the temporaries of one block.
_BLOCK_PAIRS = 1 << 13
_WORD_BITS = 64
_WORD = (1 << _WORD_BITS) - 1


def prefix_parity(a: int) -> int:
    """Mask whose bit j is the parity of the bits of ``a`` above j.

    Covers masks of up to 128 bits, the psi plus eta capacity.  Applied to
    a uint64 array it gives each word's prefix within that word alone.
    """
    x = a >> 1
    x ^= x >> 1
    x ^= x >> 2
    x ^= x >> 4
    x ^= x >> 8
    x ^= x >> 16
    x ^= x >> 32
    x ^= x >> 64
    return x


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


def _words(masks: list[int], n_words: int) -> list[np.ndarray]:
    """``masks`` as ``n_words`` uint64 arrays, least significant word first."""
    if n_words == 1:
        return [np.array(masks, dtype=np.uint64)]
    return [np.array([(m >> (_WORD_BITS * w)) & _WORD for m in masks], dtype=np.uint64)
            for w in range(n_words)]


def _vector_products(a: dict[int, complex], b: dict[int, complex]):
    """Non-vanishing pair products of ``a`` x ``b`` in (left, right) order.

    Yields one ``(masks, coefficients)`` pair of lists per block of left
    rows.  The coefficient product is spelled out in real arithmetic, the
    same operations as Python's complex multiply, so the values match the
    loop route bit for bit.
    """
    ka = list(a)
    kb = list(b)
    n_words = max(1, (max(max(ka), max(kb)).bit_length() + _WORD_BITS - 1) // _WORD_BITS)
    wa = _words(ka, n_words)
    wb = _words(kb, n_words)
    if n_words == 1:
        wp = [prefix_parity(wa[0])]
    else:
        wp = _words([prefix_parity(m) for m in ka], n_words)
    ca = np.array(list(a.values()), dtype=np.complex128)
    cb = np.array(list(b.values()), dtype=np.complex128)
    ar, ai, br, bi = ca.real, ca.imag, cb.real, cb.imag
    na, nb = len(ka), len(kb)
    rows = max(1, _BLOCK_PAIRS // nb)
    cols = min(nb, _BLOCK_PAIRS)
    for i0 in range(0, na, rows):
        for j0 in range(0, nb, cols):
            left = slice(i0, i0 + rows)
            right = slice(j0, j0 + cols)
            free = (wa[0][left, None] & wb[0][None, right]) == 0
            for w in range(1, n_words):
                free &= (wa[w][left, None] & wb[w][None, right]) == 0
            ii, jj = np.nonzero(free)
            if not len(ii):
                continue
            ii += i0
            jj += j0
            odd = np.bitwise_count(wb[0][jj] & wp[0][ii])
            for w in range(1, n_words):
                odd += np.bitwise_count(wb[w][jj] & wp[w][ii])
            flip = 1.0 - 2.0 * (odd & 1)
            c = np.empty(len(ii), dtype=np.complex128)
            c.real = (ar[ii] * br[jj] - ai[ii] * bi[jj]) * flip
            c.imag = (ar[ii] * bi[jj] + ai[ii] * br[jj]) * flip
            if n_words == 1:
                masks = (wa[0][ii] | wb[0][jj]).tolist()
            else:
                masks = [ka[i] | kb[j] for i, j in zip(ii.tolist(), jj.tolist())]
            yield masks, c.tolist()


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
    def one(cls, c: complex = 1.0) -> "GrassmannElement":
        return cls({0: c})

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

    def without_zeros(self) -> "GrassmannElement":
        """Copy without exactly-zero coefficients."""
        out = GrassmannElement()
        out.terms = {m: c for m, c in self.terms.items() if c != 0}
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
        a, b = self.terms, other.terms
        if len(a) * len(b) >= VECTOR_MIN_PAIRS:
            for masks, coeffs in _vector_products(a, b):
                for m, c in zip(masks, coeffs):
                    v = acc.get(m, 0j) + c
                    if v == 0:
                        acc.pop(m, None)
                    else:
                        acc[m] = v
            return out
        for ma, ca in a.items():
            pa = prefix_parity(ma)
            for mb, cb in b.items():
                if ma & mb:
                    continue
                m = ma | mb
                c = ca * cb
                if (mb & pa).bit_count() & 1:
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
        degree = max((m.bit_count() for m in self.terms), default=0)
        return f"GrassmannElement({len(self.terms)} terms, max degree {degree})"


def exp_series(f: GrassmannElement) -> GrassmannElement:
    """Exponential of an even element.

    Every even monomial commutes with every other and squares to zero, so
    exp(c + sum t_i) = e^c prod (1 + t_i).  Odd input raises ParityError.
    """
    if not f.is_even():
        raise ParityError("exp_series needs an even element")
    scale = cmath.exp(f.constant) if f.constant.imag else math.exp(f.constant.real)
    out = GrassmannElement.one(1.0)
    for m in sorted(f.terms):
        if m:
            out = out * GrassmannElement({0: 1.0, m: f.terms[m]})
    return out.scaled(scale)


def log1p_nilpotent(r: GrassmannElement) -> GrassmannElement:
    """log(1 + r) for nilpotent r, via the alternating power series."""
    if 0 in r.terms:
        raise ParityError("log1p_nilpotent needs an element without constant term")
    out = GrassmannElement()
    power = GrassmannElement.one(1.0)
    k = 0
    while True:
        k += 1
        power = power * r
        if power.is_zero():
            break
        out = out + power.scaled((-1.0) ** (k + 1) / k)
    return out
