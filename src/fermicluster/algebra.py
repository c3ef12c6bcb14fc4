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

Products take one of two routes.  A product of at least ``VECTOR_MIN_PAIRS``
pair visits whose masks all lie below bit 64 runs in numpy, one ``uint64``
per mask: the collision test and sign run over blocks of ``_BLOCK_PAIRS``
pairs, and the surviving pairs merge into running (key, sum, first
position) arrays with ``np.unique`` and ``np.add.at`` once they number a
sixteenth of a block and as many as the keys so far: a product merges a
logarithmic number of times, and its temporaries stay within a block and a
few times its terms.  Every other product runs a Python loop over every pair,
which takes masks of any width.

Both routes add each key's pairs in (left, right) order onto a sum that
starts at 0j and never restarts, list the keys in order of first occurrence
and drop exact zeros at the end; so they give identical terms, signed zeros
included, in identical key order.
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
#: Pairs tested per numpy block; bounds the temporaries of a product.
_BLOCK_PAIRS = 1 << 15


def prefix_parity(a: int) -> int:
    """Mask whose bit j is the parity of the bits of ``a`` above j.

    Takes a Python int of any width, or a uint64 array of masks, elementwise.
    """
    x = a >> 1
    x ^= x >> 1
    x ^= x >> 2
    x ^= x >> 4
    x ^= x >> 8
    x ^= x >> 16
    x ^= x >> 32
    x ^= x >> 64
    shift = 128
    while not isinstance(x, np.ndarray) and x >> shift:
        x ^= x >> shift
        shift <<= 1
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


def _vector_product(a: dict[int, complex], b: dict[int, complex]) -> dict[int, complex]:
    """Terms of ``a`` x ``b`` summed in numpy, keys in first-occurrence order.

    Every mask of both operands must lie below bit 64.  The coefficient
    product is spelled out in real arithmetic, the same operations as
    Python's complex multiply, and ``np.add.at`` adds unbuffered in pair
    order onto partial sums carried across merges, so every sum is the same
    floating-point sequence as the loop route's.
    """
    wa = np.array(list(a), dtype=np.uint64)
    wb = np.array(list(b), dtype=np.uint64)
    wp = prefix_parity(wa)
    ca = np.array(list(a.values()), dtype=np.complex128)
    cb = np.array(list(b.values()), dtype=np.complex128)
    ar, ai, br, bi = ca.real, ca.imag, cb.real, cb.imag
    na, nb = len(wa), len(wb)
    rows = max(1, _BLOCK_PAIRS // nb)
    cols = min(nb, _BLOCK_PAIRS)
    keys = np.empty(0, dtype=np.uint64)
    sums = np.empty(0, dtype=np.complex128)
    first = np.empty(0, dtype=np.int64)
    merged = 0  # survivors already merged; the position of the next one
    masks: list[np.ndarray] = []
    coeffs: list[np.ndarray] = []
    pending = 0

    def merge():
        nonlocal keys, sums, first, merged, pending
        new = np.concatenate(masks)
        keys, index, inverse = np.unique(np.concatenate((keys, new)),
                                         return_index=True, return_inverse=True)
        old = len(sums)
        carried = np.zeros(len(keys), dtype=np.complex128)
        carried[inverse[:old]] = sums
        np.add.at(carried, inverse[old:], np.concatenate(coeffs))
        sums = carried
        first = np.concatenate((first, np.arange(merged, merged + len(new))))[index]
        merged += len(new)
        masks.clear()
        coeffs.clear()
        pending = 0

    for i0 in range(0, na, rows):
        for j0 in range(0, nb, cols):
            free = (wa[i0:i0 + rows, None] & wb[None, j0:j0 + cols]) == 0
            # one flat scan; two-dimensional nonzero takes about twice as long
            ii, jj = np.divmod(np.flatnonzero(free), free.shape[1])
            if not len(ii):
                continue
            ii += i0
            jj += j0
            odd = np.bitwise_count(wb[jj] & wp[ii])
            flip = 1.0 - 2.0 * (odd & 1)
            c = np.empty(len(ii), dtype=np.complex128)
            c.real = (ar[ii] * br[jj] - ai[ii] * bi[jj]) * flip
            c.imag = (ar[ii] * bi[jj] + ai[ii] * br[jj]) * flip
            masks.append(wa[ii] | wb[jj])
            coeffs.append(c)
            pending += len(ii)
            if pending >= max(1, _BLOCK_PAIRS // 16, len(keys)):
                merge()
    if pending:
        merge()
    order = np.argsort(first)
    keys, sums = keys[order], sums[order]
    kept = sums != 0
    return dict(zip(keys[kept].tolist(), sums[kept].tolist()))


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

    def __iadd__(self, other) -> "GrassmannElement":
        """Add in place, dropping sums that are exactly 0."""
        if not isinstance(other, GrassmannElement):
            other = GrassmannElement.one(other)
        acc = self.terms
        for m, c in other.terms.items():
            v = acc.get(m, 0j) + c
            if v == 0:
                acc.pop(m, None)
            else:
                acc[m] = v
        return self

    def __add__(self, other) -> "GrassmannElement":
        out = self.copy()
        out += other
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
        a, b = self.terms, other.terms
        if len(a) * len(b) >= VECTOR_MIN_PAIRS and (max(a) | max(b)) >> 64 == 0:
            out.terms = _vector_product(a, b)
            return out
        acc: dict[int, complex] = {}
        for ma, ca in a.items():
            pa = prefix_parity(ma)
            for mb, cb in b.items():
                if ma & mb:
                    continue
                m = ma | mb
                c = ca * cb
                if (mb & pa).bit_count() & 1:
                    c = -c
                acc[m] = acc.get(m, 0j) + c
        if 0 in acc.values():
            acc = {m: c for m, c in acc.items() if c != 0}
        out.terms = acc
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


def truncated(el: GrassmannElement, bits: int, cap: int | None) -> GrassmannElement:
    """``el`` without the terms that hold more than ``cap`` of ``bits``
    (``el`` itself when ``cap`` is None)."""
    if cap is None:
        return el
    out = GrassmannElement()
    out.terms = {m: c for m, c in el.terms.items() if (m & bits).bit_count() <= cap}
    return out


def exp_series(f: GrassmannElement, cap: int | None = None, bits: int = 0) -> GrassmannElement:
    """Exponential of an even element.

    Every even monomial commutes with every other and squares to zero, so
    exp(c + sum t_i) = e^c prod (1 + t_i).  Odd input raises ParityError.
    With ``cap`` set, each partial product drops the terms that hold more
    than ``cap`` of ``bits``: the count only adds under products, so the
    kept terms come out as if the whole product were truncated at the end,
    bit for bit.
    """
    if not f.is_even():
        raise ParityError("exp_series needs an even element")
    scale = cmath.exp(f.constant) if f.constant.imag else math.exp(f.constant.real)
    out = GrassmannElement.one(1.0)
    for m in sorted(f.terms):
        if m:
            out = truncated(out * GrassmannElement({0: 1.0, m: f.terms[m]}), bits, cap)
    return out.scaled(scale)


def nilpotent_powers(r: GrassmannElement) -> list[GrassmannElement]:
    """The nonzero powers r, r^2, r^3, ... of a nilpotent r, in order."""
    powers = []
    power = r
    while not power.is_zero():
        powers.append(power)
        power = power * r
    return powers


def log1p_nilpotent(r: GrassmannElement) -> GrassmannElement:
    """log(1 + r) for nilpotent r, via the alternating power series."""
    if 0 in r.terms:
        raise ParityError("log1p_nilpotent needs an element without constant term")
    out = GrassmannElement()
    for k, power in enumerate(nilpotent_powers(r), 1):
        out = out + power.scaled((-1.0) ** (k + 1) / k)
    return out
