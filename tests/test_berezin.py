import cmath
import itertools
import math

import numpy as np
import pytest

from fermicluster.algebra import GrassmannElement
from fermicluster.berezin import (
    LogSeries,
    effective_log_integral,
    integrate_element,
    integrate_monomial,
    log_direct,
)
from fermicluster.coeffsys import CoefficientSystem
from fermicluster.errors import NormalizationError, ParityError
from fermicluster.generators import GeneratorUniverse, eta, psi
from oracles import allclose, log_expand, mask_of, wick_expectation

ROUTES = [pytest.param(log_direct, id="eliminate"), pytest.param(log_expand, id="expand")]


def universe_n(n_psi, n_eta=0):
    return GeneratorUniverse([((i,), 0, 0) for i in range(n_psi)],
                             [((i,), 0, 0) for i in range(n_eta)])


def bilinear_exponent(u, m):
    """sum_ij M_ij psibar_i psi_j as an element."""
    n = m.shape[0]
    sys = CoefficientSystem()
    for i in range(n):
        for j in range(n):
            if m[i, j] != 0:
                sys.add((psi((i,), 0, 0, bar=True), psi((j,), 0, 0)), (), m[i, j])
    return sys.to_element(u)


# ---------------------------------------------------- monomial-level oracle


def test_integrate_monomial_matches_wick_exhaustively():
    u = universe_n(3)
    for mask in range(1 << u.n_psi_bits):
        ordered = u.indices_of(mask)
        expected = wick_expectation(u, ordered)
        residual, value = integrate_monomial(u, mask)
        assert residual == 0
        assert value == expected, f"mask {mask:06b}"


def test_integrate_keeps_eta_factor():
    u = universe_n(2, n_eta=1)
    eta_bit = u.bit(eta((0,), 0, 0))
    pair = mask_of(u, [psi((0,), 0, 0, bar=True), psi((0,), 0, 0)])
    el = GrassmannElement({pair | eta_bit: 2.0, eta_bit: 1.0, pair: 3.0, 0: 4.0})
    out = integrate_element(u, el)
    assert out.terms == {eta_bit: 3.0, 0: 7.0}


def test_integrate_drops_unbalanced():
    u = universe_n(2)
    lone = u.bit(psi((0,), 0, 0, bar=True))
    crossed = mask_of(u, [psi((0,), 0, 0, bar=True), psi((1,), 0, 0)])
    assert integrate_element(u, GrassmannElement({lone: 1.0, crossed: 1.0})).is_zero()


# ---------------------------------------------------- determinant identities


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("route", ROUTES)
def test_gaussian_bilinear_gives_log_det(n, route):
    rng = np.random.default_rng(17 + n)
    m = rng.normal(size=(n, n)) * 0.6 + 1j * rng.normal(size=(n, n)) * 0.3
    u = universe_n(n)
    f = bilinear_exponent(u, m)
    series = route(u, f)
    expected = cmath.log(np.linalg.det(np.eye(n) + m))
    assert series.constant == pytest.approx(expected, rel=1e-10, abs=1e-12)
    assert series.element.without_constant().is_zero()


def test_hopping_pair_by_hand():
    # f = a psibar_0 psi_1 + b psibar_1 psi_0 integrates to 1 - a b
    u = universe_n(2)
    m = np.array([[0.0, 0.7], [0.3, 0.0]])
    f = bilinear_exponent(u, m)
    series = log_expand(u, f)
    assert series.constant == pytest.approx(math.log(1 - 0.7 * 0.3))


@pytest.mark.parametrize("n", [2, 3])
def test_source_identity(n):
    # int dmu exp(psibar M psi + psibar P eta + etabar Q psi)
    #   = det(I+M) exp(-etabar Q (I+M)^-1 P eta)
    rng = np.random.default_rng(5 + n)
    m = rng.normal(size=(n, n)) * 0.4
    p = rng.normal(size=(n, n)) * 0.8
    q = rng.normal(size=(n, n)) * 0.8
    u = universe_n(n, n_eta=n)
    sys = CoefficientSystem()
    for i, j in itertools.product(range(n), repeat=2):
        sys.add((psi((i,), 0, 0, bar=True), psi((j,), 0, 0)), (), m[i, j])
        sys.add((psi((i,), 0, 0, bar=True),), (eta((j,), 0, 0),), p[i, j])
        # stored orientation is psi-then-eta, so etabar_i Q psi_j flips sign
        sys.add((psi((j,), 0, 0),), (eta((i,), 0, 0, bar=True),), -q[i, j])
    f = sys.to_element(u)
    series = log_direct(u, f)
    target = -q @ np.linalg.inv(np.eye(n) + m) @ p
    assert series.constant == pytest.approx(cmath.log(np.linalg.det(np.eye(n) + m)), rel=1e-10)
    for i, j in itertools.product(range(n), repeat=2):
        got = series.antisym_eval(eta((i,), 0, 0, bar=True), eta((j,), 0, 0))
        assert got == pytest.approx(target[i, j], rel=1e-10, abs=1e-12)
        flipped = series.antisym_eval(eta((j,), 0, 0), eta((i,), 0, 0, bar=True))
        assert flipped == pytest.approx(-target[i, j], rel=1e-10, abs=1e-12)


# ------------------------------------------------- route-vs-route agreement


def random_even_exponent(u, rng, n_terms=8, scale=0.4):
    masks = []
    all_bits = u.n_bits
    while len(masks) < n_terms:
        mask = int(rng.integers(1, 1 << all_bits))
        if mask.bit_count() % 2 == 0:
            masks.append(mask)
    el = GrassmannElement()
    for mask in masks:
        el = el + GrassmannElement({mask: scale * float(rng.normal())})
    return el


@pytest.mark.parametrize("seed", range(6))
def test_eliminate_matches_expand_on_random_even_input(seed):
    rng = np.random.default_rng(100 + seed)
    u = universe_n(3, n_eta=2)
    f = random_even_exponent(u, rng)
    a = log_direct(u, f)
    b = log_expand(u, f)
    assert allclose(a.element, b.element, rel=1e-9, abs_tol=1e-11)
    assert a.element.is_even()


@pytest.mark.parametrize("seed", range(4))
def test_elimination_skips_modes_no_term_holds(seed):
    """Modes 1 and 3 appear in no term, and mode 4 through one generator
    only: a mode is skipped only when neither of its generators appears."""
    rng = np.random.default_rng(200 + seed)
    u = universe_n(5, n_eta=2)
    untouched = sum(bit for k in (1, 3) for bit in u.psi_mode_bits(k))
    untouched |= u.psi_mode_bits(4)[seed % 2]
    f = GrassmannElement()
    while len(f) < 8:
        mask = int(rng.integers(1, 1 << u.n_bits)) & ~untouched
        if mask and mask.bit_count() % 2 == 0:
            f = f + GrassmannElement({mask: 0.4 * float(rng.normal())})
    got = effective_log_integral(u, f)
    assert allclose(got, log_expand(u, f).element, rel=1e-9, abs_tol=1e-11)


def test_pure_eta_part_passes_through():
    u = universe_n(2, n_eta=2)
    eta_pair = mask_of(u, [eta((0,), 0, 0, bar=True), eta((0,), 0, 0)])
    psi_pair = mask_of(u, [psi((0,), 0, 0, bar=True), psi((0,), 0, 0)])
    f = GrassmannElement({eta_pair: 0.9, psi_pair: 0.5})
    series = log_direct(u, f)
    assert series.element.terms[eta_pair] == pytest.approx(0.9)
    assert series.constant == pytest.approx(math.log(1.5))


def test_constant_in_exponent_adds_up():
    u = universe_n(1)
    f = GrassmannElement({0: 2.0, mask_of(u, [psi((0,), 0, 0, bar=True), psi((0,), 0, 0)]): 1.0})
    series = log_direct(u, f)
    assert series.constant == pytest.approx(2.0 + math.log(2.0))


def test_odd_exponent_rejected_by_elimination():
    u = universe_n(1)
    f = GrassmannElement({u.bit(psi((0,), 0, 0)): 1.0})
    with pytest.raises(ParityError):
        effective_log_integral(u, f)


def test_vanishing_normalization_raises():
    u = universe_n(1)
    pair = mask_of(u, [psi((0,), 0, 0, bar=True), psi((0,), 0, 0)])
    with pytest.raises(NormalizationError):
        log_direct(u, GrassmannElement({pair: -1.0}))


def test_log_series_rejects_odd_term():
    u = universe_n(1, n_eta=2)
    lone = u.bit(eta((0,), 0, 0))
    pair = mask_of(u, [eta((0,), 0, 0, bar=True), eta((1,), 0, 0)])
    LogSeries(u, GrassmannElement({0: 0.5, pair: 1.0}))
    with pytest.raises(ParityError):
        LogSeries(u, GrassmannElement({0: 0.5, pair: 1.0, lone: 0.25}))
