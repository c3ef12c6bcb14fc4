import math
import random

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
    with pytest.raises(CapacityError):
        GeneratorUniverse(too_many)
    GeneratorUniverse(too_many[:32])  # exactly at capacity is fine


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
        # Small integers make exact cancellations, which drop and re-insert keys.
        terms[mask] = (float(rng.randint(-2, 2)) if rng.random() < 0.75
                       else complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return GrassmannElement(terms)


def both_routes(monkeypatch, a, b):
    monkeypatch.setattr(algebra, "VECTOR_MIN_PAIRS", 1)
    vector = a * b
    monkeypatch.setattr(algebra, "VECTOR_MIN_PAIRS", 10 ** 12)
    loop = a * b
    return vector, loop


@pytest.mark.parametrize("block", [1, 7, 1 << 15])
@pytest.mark.parametrize("lowest_bit,n_bits", [(0, 12), (52, 64), (58, 72), (116, 128)])
def test_vector_and_loop_routes_agree_bit_for_bit(monkeypatch, lowest_bit, n_bits, block):
    monkeypatch.setattr(algebra, "_BLOCK_PAIRS", block)
    rng = random.Random(1000 * n_bits + block)
    for _ in range(15):
        a = random_element(rng, n_bits, rng.randint(1, 30), lowest_bit)
        b = random_element(rng, n_bits, rng.randint(1, 30), lowest_bit)
        vector, loop = both_routes(monkeypatch, a, b)
        assert list(vector.terms.items()) == list(loop.terms.items())
        assert repr(list(vector.terms.values())) == repr(list(loop.terms.values()))


def test_cancelled_key_is_reinserted_last_on_both_routes(monkeypatch):
    a = GrassmannElement({0b01: 1.0, 0b10: 1.0, 0: 1.0})
    b = GrassmannElement({0b10: 1.0, 0b01: 1.0, 0b11: 1.0})
    # 0b11 gets +1, then -1 (dropped), then +1 again after 0b10 and 0b01.
    for product in both_routes(monkeypatch, a, b):
        assert list(product.terms.items()) == [(0b10, 1.0), (0b01, 1.0), (0b11, 1.0)]


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
