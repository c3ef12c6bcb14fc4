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
per mask.  When its pairs fit in one block of ``_BLOCK_PAIRS``, as nearly
all of an exact run's do, it takes a single pass: one collision test, one
``np.unique`` of the survivors' keys and one ``np.bincount`` sum per part,
so its cost is a fixed number of numpy calls.  A larger product runs the
collision test and sign over blocks, and the surviving pairs merge into
running (key, sum, first position) arrays with ``np.unique`` and
``np.add.at`` once they number a sixteenth of a block and as many as the
keys so far: it merges a logarithmic number of times, and its temporaries
stay within a block and a few times its terms.  Every other product runs a
Python loop over every pair, which takes masks of any width.

Both routes add each key's pairs in (left, right) order onto a sum that
starts at +0.0 in each part and never restarts, list the keys in order of
first occurrence and drop exact zeros at the end; so they give identical
terms, signed zeros included, in identical key order.
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


def _free_pairs(wa: np.ndarray, wp: np.ndarray, ar: np.ndarray, ai: np.ndarray,
                wb: np.ndarray, br: np.ndarray, bi: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks and the real and imaginary coefficients of the pairs of
    ``wa`` x ``wb`` that share no bit, in (left, right) order, each signed
    by the transpositions that bring it into canonical order."""
    free = (wa[:, None] & wb[None, :]) == 0
    # one flat scan; two-dimensional nonzero takes about twice as long
    ii, jj = np.divmod(np.flatnonzero(free), len(wb))
    flip = 1.0 - 2.0 * (np.bitwise_count(wb[jj] & wp[ii]) & 1)
    re = (ar[ii] * br[jj] - ai[ii] * bi[jj]) * flip
    im = (ar[ii] * bi[jj] + ai[ii] * br[jj]) * flip
    return wa[ii] | wb[jj], re, im


def _vector_product(a: dict[int, complex], b: dict[int, complex]) -> dict[int, complex]:
    """Terms of ``a`` x ``b`` summed in numpy, keys in first-occurrence order.

    Every mask of both operands must lie below bit 64.  The coefficient
    product is spelled out in real arithmetic, the same operations as
    Python's complex multiply.  A product of at most ``_BLOCK_PAIRS`` pairs
    sums its survivors in one pass, each part by ``np.bincount``; a larger
    one merges block by block, and ``np.add.at`` adds onto partial sums
    carried across merges.  Both add unbuffered in pair order onto sums
    that start at +0.0, so every sum is the same floating-point sequence as
    the loop route's.
    """
    wa = np.array(list(a), dtype=np.uint64)
    wb = np.array(list(b), dtype=np.uint64)
    wp = prefix_parity(wa)
    ca = np.array(list(a.values()), dtype=np.complex128)
    cb = np.array(list(b.values()), dtype=np.complex128)
    ar, ai, br, bi = ca.real, ca.imag, cb.real, cb.imag
    na, nb = len(wa), len(wb)
    if na * nb <= _BLOCK_PAIRS:
        new, re, im = _free_pairs(wa, wp, ar, ai, wb, br, bi)
        keys, first, inverse = np.unique(new, return_index=True, return_inverse=True)
        order = np.argsort(first)
        sums = np.empty(len(keys), dtype=np.complex128)
        sums.real = np.bincount(inverse, re, len(keys))[order]
        sums.imag = np.bincount(inverse, im, len(keys))[order]
        keys = keys[order]
        kept = sums != 0
        return dict(zip(keys[kept].tolist(), sums[kept].tolist()))
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
            i1, j1 = i0 + rows, j0 + cols
            new, re, im = _free_pairs(wa[i0:i1], wp[i0:i1], ar[i0:i1], ai[i0:i1],
                                      wb[j0:j1], br[j0:j1], bi[j0:j1])
            if not len(new):
                continue
            c = np.empty(len(new), dtype=np.complex128)
            c.real = re
            c.imag = im
            masks.append(new)
            coeffs.append(c)
            pending += len(new)
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
        get = acc.get
        right = tuple(b.items())
        for ma, ca in a.items():
            pa = prefix_parity(ma)
            for mb, cb in right:
                if ma & mb:
                    continue
                m = ma | mb
                # x - y is x + (-y) bit for bit, signed zeros included
                if (mb & pa).bit_count() & 1:
                    acc[m] = get(m, 0j) - ca * cb
                else:
                    acc[m] = get(m, 0j) + ca * cb
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
    With ``cap`` set (at least 0), each partial product drops the terms
    that hold more than ``cap`` of ``bits``: the count only adds under
    products, so the kept terms come out as if the whole product were
    truncated at the end, bit for bit.

    Each factor (1 + c m), in mask order, folds straight into a dict of the
    partial product, without building an element or calling ``__mul__``:
    the pairs are visited in the product's (left, right) order, a key past
    the cap is never inserted, and exact zeros drop after each factor.  So
    the terms, their order and their signed zeros are those of the
    product ``out * GrassmannElement({0: 1.0, m: c})`` truncated after each
    factor, which the tests keep as the reference.
    """
    if not f.is_even():
        raise ParityError("exp_series needs an even element")
    scale = cmath.exp(f.constant) if f.constant.imag else math.exp(f.constant.real)
    one = complex(1.0)
    out = {0: one}
    for m in sorted(f.terms):
        if not m:
            continue
        c = complex(f.terms[m])
        room = None if cap is None else cap - (m & bits).bit_count()
        acc: dict[int, complex] = {}
        for ma, ca in out.items():
            acc[ma] = acc.get(ma, 0j) + ca * one  # inf * 0j parts turn NaN, as in a product
            if c != 0 and not ma & m and (room is None or (ma & bits).bit_count() <= room):
                p = ca * c
                if (m & prefix_parity(ma)).bit_count() & 1:
                    p = -p
                acc[ma | m] = acc.get(ma | m, 0j) + p
        if 0 in acc.values():
            acc = {k: v for k, v in acc.items() if v != 0}
        out = acc
    el = GrassmannElement()
    el.terms = out
    return el.scaled(scale)


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
