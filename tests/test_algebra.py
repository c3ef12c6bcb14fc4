import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicluster import algebra
from fermicluster.algebra import (
    GrassmannElement,
    canonicalize,
    exp_series,
    log1p_nilpotent,
    prefix_parity,
)
from fermicluster.errors import CapacityError, ParityError
from fermicluster.generators import Family, GeneratorUniverse, psi

from oracles import allclose, exp_power_series, mask_of, reference_product


def bubble_sign(seq):
    """Brute-force permutation sign by counting inversions."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def mask_of_positions(positions):
    m = 0
    for p in positions:
        m |= 1 << p
    return m


# ---------------------------------------------------------------- generators


def small_universe():
    sites = [(0,), (1,)]
    modes = [(s, sp, 0) for s in sites for sp in (0, 1)]
    return GeneratorUniverse(modes, [(s, 0, 0) for s in sites])


def test_canonical_order_bar_first():
    u = small_universe()
    gbar = psi((0,), 0, 0, bar=True)
    g = psi((0,), 0, 0, bar=False)
    assert u.position(gbar) == 0
    assert u.position(g) == 1


def test_psi_bits_precede_eta_bits():
    u = small_universe()
    assert all(u.position(g) >= u.n_psi_bits for g in u.generators() if g.family == Family.ETA)
    psi_part, eta_part = u.split_mask((1 << u.n_bits) - 1)
    assert psi_part == (1 << u.n_psi_bits) - 1
    assert eta_part == ((1 << u.n_bits) - 1) ^ psi_part


def test_capacity_limit():
    too_many = [((i,), 0, 0) for i in range(33)]
    with pytest.raises(CapacityError, match="33 eta modes need 66 bits"):
        GeneratorUniverse([], too_many)
    GeneratorUniverse([], too_many[:32])  # exactly at capacity is fine
    # psi masks are Python ints of any width
    wide = GeneratorUniverse([((i,), 0, 0) for i in range(200)], too_many[:32])
    assert wide.n_psi_bits == 400 and wide.n_bits == 464
    assert wide.position(psi((199,), bar=False)) == 399


def test_mask_roundtrip():
    u = small_universe()
    gens = u.generators()[:5]
    mask = mask_of(u, gens)
    assert u.indices_of(mask) == tuple(sorted(gens, key=u.position))


# ------------------------------------------------------------------- parity


@given(st.lists(st.integers(min_value=0, max_value=127), unique=True, max_size=12),
       st.lists(st.integers(min_value=0, max_value=127), unique=True, max_size=12))
def test_prefix_parity_matches_inversion_count(a_pos, b_pos):
    a = mask_of_positions(a_pos)
    p = prefix_parity(a)
    for j in range(128):
        assert (p >> j) & 1 == sum(1 for q in a_pos if q > j) % 2
    if set(a_pos) & set(b_pos):
        return
    b = mask_of_positions(b_pos)
    # Concatenate the two sorted blocks, then count inversions directly.
    seq = sorted(a_pos) + sorted(b_pos)
    expected = 0 if bubble_sign(seq) == 1 else 1
    assert (b & p).bit_count() & 1 == expected


def brute_prefix_parity(a):
    """Bit j set when an odd number of bits of ``a`` lie above j, bit by bit."""
    return sum(1 << j for j in range(a.bit_length())
               if sum(a >> q & 1 for q in range(j + 1, a.bit_length())) & 1)


def test_prefix_parity_takes_masks_of_any_width():
    rng = random.Random(5)
    for width in range(1, 301):
        a = rng.getrandbits(width) | 1 << (width - 1)
        assert prefix_parity(a) == brute_prefix_parity(a)
    assert prefix_parity(1 << 299) == (1 << 299) - 1


def test_prefix_parity_works_elementwise_on_a_uint64_array():
    rng = random.Random(6)
    masks = [rng.getrandbits(64) for _ in range(200)] + [0, 1, 1 << 63, (1 << 64) - 1]
    got = prefix_parity(np.array(masks, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == [brute_prefix_parity(a) for a in masks]


@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=8))
def test_canonicalize_matches_bubble_sort(positions):
    u = GeneratorUniverse([((i,), 0, 0) for i in range(8)])
    gens = [u.generators()[p] for p in positions]
    mask, sign = canonicalize(u, gens)
    if len(set(positions)) != len(positions):
        assert sign == 0
    else:
        assert mask == mask_of_positions(positions)
        assert sign == bubble_sign(positions)


# ------------------------------------------------------------------ algebra


def rand_element(draw_masks, coeffs):
    return GrassmannElement(dict(zip(draw_masks, coeffs)))


element_strategy = st.builds(
    rand_element,
    st.lists(st.integers(min_value=0, max_value=2 ** 8 - 1), unique=True, min_size=0, max_size=6),
    st.lists(st.integers(min_value=-3, max_value=3).map(float), min_size=6, max_size=6),
)


@given(element_strategy, element_strategy, element_strategy)
@settings(max_examples=60)
def test_product_associative(a, b, c):
    assert allclose((a * b) * c, a * (b * c))


@given(element_strategy, element_strategy, element_strategy)
@settings(max_examples=60)
def test_product_distributive(a, b, c):
    assert allclose((a + b) * c, a * c + b * c)


def universe_with_sources(n_psi_modes: int, n_eta_modes: int) -> GeneratorUniverse:
    return GeneratorUniverse([((i,), 0, 0) for i in range(n_psi_modes)],
                             [((i,), 0, 0) for i in range(n_eta_modes)])


SOURCED = universe_with_sources(6, 2)


def terms_over(n_bits):
    masks = st.lists(st.integers(min_value=0, max_value=n_bits - 1), max_size=6).map(mask_of_positions)
    coeffs = st.one_of(st.integers(min_value=-2, max_value=2).map(float),
                       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
    return st.dictionaries(masks, coeffs, max_size=40).map(GrassmannElement)


@given(terms_over(SOURCED.n_bits), terms_over(SOURCED.n_bits))
@settings(max_examples=60)
def test_product_matches_generator_sorting_reference(a, b):
    assert (a * b).terms == reference_product(SOURCED, a, b)


def random_element(rng, n_bits, n_terms, lowest_bit=0):
    terms = {}
    for _ in range(n_terms):
        mask = mask_of_positions(rng.sample(range(lowest_bit, n_bits), rng.randint(0, 3)))
        # Small integers make sums cancel to exactly 0 mid-product.
        terms[mask] = (float(rng.randint(-2, 2)) if rng.random() < 0.75
                       else complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return GrassmannElement(terms)


def cancel_and_return(rng, n_bits, lowest_bit):
    """Operands on which the sum of one key passes exactly 0 and comes back.

    x and y have odd degree and every bit of x lies below every bit of y, so
    x*y = +xy and y*x = -xy.  With a = {x, y, 1, ...} and b = {y, x, xy, ...}
    in that order, the sum of xy runs 1, 0, 1 over the left rows x, y and 1
    before any other row adds to it.
    """
    bits = sorted(rng.sample(range(lowest_bit, n_bits), 4))
    x, y = mask_of_positions(bits[:1]), mask_of_positions(bits[1:])
    a = {x: 1.0, y: 1.0, 0: 1.0}
    b = {y: 1.0, x: 1.0, x | y: 1.0}
    for side in (a, b):
        extra = random_element(rng, n_bits, rng.randint(1, 25), lowest_bit)
        for m, c in extra.terms.items():
            side.setdefault(m, c)
    return GrassmannElement(a), GrassmannElement(b)


def both_routes(monkeypatch, a, b):
    monkeypatch.setattr(algebra, "VECTOR_MIN_PAIRS", 1)
    vector = a * b
    monkeypatch.setattr(algebra, "VECTOR_MIN_PAIRS", 10 ** 12)
    loop = a * b
    return vector, loop


# Blocks of at most 16 pairs merge their survivors after every block; a
# block of 16 spans several left rows when the right side has at most 8 terms.
@pytest.mark.parametrize("block", [1, 7, 16, 1 << 15])
@pytest.mark.parametrize("lowest_bit,n_bits", [(0, 12), (52, 64)])
def test_vector_and_loop_routes_agree_bit_for_bit(monkeypatch, lowest_bit, n_bits, block):
    monkeypatch.setattr(algebra, "_BLOCK_PAIRS", block)
    rng = random.Random(1000 * n_bits + block)
    for trial in range(30):
        if trial % 2:
            a, b = cancel_and_return(rng, n_bits, lowest_bit)
        else:
            a = random_element(rng, n_bits, rng.randint(1, 30), lowest_bit)
            b = random_element(rng, n_bits, rng.randint(1, 30), lowest_bit)
        vector, loop = both_routes(monkeypatch, a, b)
        assert list(vector.terms.items()) == list(loop.terms.items())
        assert repr(list(vector.terms.values())) == repr(list(loop.terms.values()))


def test_merges_wait_for_as_many_pairs_as_keys(monkeypatch):
    """At 64 pairs a block, the 60 x 60 product of masks on bits 0-5 by masks
    on bits 6-11 keeps all 3,600 pairs as distinct terms, one 60-pair block
    per left row.  Merging after every row would call np.unique 60 times;
    waiting for as many pairs as keys merges after rows 1, 2, 4, 8, 16 and 32
    and at the end, 7 times, and the sums stay those of the loop route."""
    monkeypatch.setattr(algebra, "_BLOCK_PAIRS", 64)
    rng = random.Random(60)
    a, b = (GrassmannElement({m << shift: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                              for m in range(1, 61)}) for shift in (0, 6))
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kw: calls.append(1) or unique(*args, **kw))
    vector, loop = both_routes(monkeypatch, a, b)
    assert len(calls) == 7
    assert len(vector.terms) == 3600
    assert list(vector.terms.items()) == list(loop.terms.items())
    assert repr(list(vector.terms.values())) == repr(list(loop.terms.values()))


def test_cancelled_key_keeps_its_first_position_on_both_routes(monkeypatch):
    a = GrassmannElement({0b01: 1.0, 0b10: 1.0, 0: 1.0})
    b = GrassmannElement({0b10: 1.0, 0b01: 1.0, 0b11: 1.0})
    # 0b11 gets +1, then -1 (its sum is exactly 0), then +1 again after
    # 0b10 and 0b01 first appear; keys are listed by first occurrence.
    for product in both_routes(monkeypatch, a, b):
        assert list(product.terms.items()) == [(0b11, 1.0), (0b10, 1.0), (0b01, 1.0)]


def test_signed_zero_parts_agree_across_routes(monkeypatch):
    parts = (0.0, -0.0, 1.0, -1.0, 0.5)
    rng = random.Random(5)
    for _ in range(20):
        a, b = (GrassmannElement({
            mask_of_positions(rng.sample(range(10), rng.randint(0, 3))):
                complex(rng.choice(parts), rng.choice(parts))
            for _ in range(30)}) for _ in range(2))
        assert any(math.copysign(1.0, c.real) < 0 or math.copysign(1.0, c.imag) < 0
                   for c in a.terms.values() if 0.0 in (c.real, c.imag))
        vector, loop = both_routes(monkeypatch, a, b)
        assert list(vector.terms.items()) == list(loop.terms.items())
        assert repr(list(vector.terms.values())) == repr(list(loop.terms.values()))


def test_large_product_keeps_its_temporaries_bounded(monkeypatch):
    # 1,000 x 1,000 five-bit masks over 13 bits: about 4% of the pairs
    # survive and they collapse to at most C(13, 10) = 286 terms, the low
    # hit ratio of the largest mode-elimination products.
    rng = random.Random(13)
    subsets = [mask_of_positions(c) for c in itertools.combinations(range(13), 5)]
    a, b = (GrassmannElement({m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                              for m in rng.sample(subsets, 1000)}) for _ in range(2))
    survivors = sum(1 for ma in a.terms for mb in b.terms if not ma & mb)
    assert survivors >= 20_000
    tracemalloc.start()
    try:
        product = a * b
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Summing every survivor in one np.unique peaks at about 3.5 MB here.
    assert peak < 2 * 2 ** 20
    monkeypatch.setattr(algebra, "VECTOR_MIN_PAIRS", 10 ** 12)
    assert list(product.terms.items()) == list((a * b).terms.items())


def test_product_across_bit_64(monkeypatch):
    # 32 psi modes fill bits 0..63; the 4 eta modes sit at bits 64..71.
    universe = universe_with_sources(32, 4)
    assert universe.n_bits == 72
    rng = random.Random(64)
    a = random_element(rng, universe.n_bits, 40, lowest_bit=56)
    b = random_element(rng, universe.n_bits, 40, lowest_bit=56)
    vector, loop = both_routes(monkeypatch, a, b)
    assert max(vector.terms).bit_length() > 64
    assert vector.terms == reference_product(universe, a, b)
    assert list(vector.terms.items()) == list(loop.terms.items())


@pytest.mark.parametrize("top_bit", [63, 64, 127])
def test_numpy_route_takes_only_one_word_masks(monkeypatch, top_bit):
    universe = universe_with_sources(32, 32)
    calls = []
    vector_product = algebra._vector_product
    monkeypatch.setattr(algebra, "_vector_product",
                        lambda a, b: calls.append((max(a) | max(b)).bit_length())
                        or vector_product(a, b))
    monkeypatch.setattr(algebra, "VECTOR_MIN_PAIRS", 1)
    rng = random.Random(top_bit)
    a = random_element(rng, top_bit, 20, lowest_bit=top_bit - 10)
    b = random_element(rng, top_bit, 20, lowest_bit=top_bit - 10)
    a.terms[1 << top_bit] = 0.5
    assert (a * b).terms == reference_product(universe, a, b)
    # Bit 0 moves past the top bit into canonical order: one transposition.
    top = GrassmannElement({1 << top_bit: 1.0})
    assert (top * GrassmannElement({1: 1.0})).terms == {(1 << top_bit) | 1: -1.0}
    assert calls == ([64, 64] if top_bit == 63 else [])


def test_anticommutation():
    x = GrassmannElement({0b01: 1.0})
    y = GrassmannElement({0b10: 1.0})
    assert (x * y + y * x).is_zero()
    assert (x * x).is_zero()


def test_even_elements_commute():
    a = GrassmannElement({0b0011: 2.0, 0b1100: -1.0})
    b = GrassmannElement({0b0110: 0.5})
    assert allclose(a * b, b * a)


def test_scalar_ops():
    a = GrassmannElement({0: 1.0, 0b11: 2.0})
    assert (2 * a).terms == {0: 2.0, 0b11: 4.0}
    assert (a - 1).terms == {0b11: 2.0}
    assert (-a).terms == {0: -1.0, 0b11: -2.0}


# ---------------------------------------------------------------- exp / log


def test_exp_single_even_monomial():
    t = GrassmannElement({0b11: 0.7})
    e = exp_series(t)
    assert e.terms == {0: 1.0, 0b11: 0.7}


def test_exp_constant_and_even():
    f = GrassmannElement({0: 0.5, 0b0011: 1.0, 0b1100: 2.0})
    e = exp_series(f)
    s = math.exp(0.5)
    expected = {0: s, 0b0011: s * 1.0, 0b1100: s * 2.0, 0b1111: s * 2.0}
    assert set(e.terms) == set(expected)
    for m, v in expected.items():
        assert e.terms[m] == pytest.approx(v)


def test_exp_series_rejects_odd_input():
    with pytest.raises(ParityError):
        exp_series(GrassmannElement({0b11: 1.0, 0b001: 0.5}))


def test_oracle_exp_power_series_on_odd_input():
    f = GrassmannElement({0b001: 1.0, 0b110: 2.0})
    e = exp_power_series(f)
    # (odd + even) exponential, by hand: 1 + f + f^2/2 with f^2 = 2*odd*even
    direct = GrassmannElement.one() + f + (f * f).scaled(0.5)
    assert allclose(e, direct)
    assert (f * f).terms == {0b111: 4.0}


@given(st.lists(st.sampled_from([0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100]),
                unique=True, min_size=1, max_size=4),
       st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=4, max_size=4))
@settings(max_examples=40)
def test_log_exp_roundtrip_even(masks, coeffs):
    n = GrassmannElement(dict(zip(masks, coeffs)))
    r = exp_series(n) - 1
    back = log1p_nilpotent(r)
    assert allclose(back, n, rel=1e-10, abs_tol=1e-12)


def test_exp_multiplicative_for_even():
    a = GrassmannElement({0b0011: 1.25})
    b = GrassmannElement({0b1100: -0.5})
    assert allclose(exp_series(a + b), exp_series(a) * exp_series(b))


def test_log_rejects_constant():
    with pytest.raises(ParityError):
        log1p_nilpotent(GrassmannElement.one(0.1))
