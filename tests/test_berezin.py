import cmath
import itertools
import logging
import math
import subprocess
import sys

import numpy as np
import pytest

from fermicluster import berezin, pipeline
from fermicluster.algebra import GrassmannElement, log1p_nilpotent, nilpotent_powers
from fermicluster.berezin import (
    LogSeries,
    _split_mode,
    effective_log_integral,
    integrate_element,
    integrate_monomial,
    log_bracket,
    log_direct,
)
from fermicluster.coeffsys import CoefficientSystem
from fermicluster.config import RunConfig
from fermicluster.errors import NormalizationError, ParityError
from fermicluster.generators import GeneratorUniverse, eta, psi
from oracles import allclose, eliminate_in_index_order, log_expand, mask_of, wick_expectation

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


def random_element(u, rng, n_terms, parity, scale=0.4, max_degree=4):
    """n_terms distinct monomials of one parity and degree <= max_degree."""
    el = GrassmannElement()
    while len(el) < n_terms:
        mask = int(rng.integers(1, 1 << u.n_bits))
        if mask.bit_count() % 2 == parity and mask.bit_count() <= max_degree:
            el = el + GrassmannElement({mask: complex(*(scale * rng.normal(size=2)))})
    return el


@pytest.mark.parametrize("seed, dense", [
    *[pytest.param(seed, False, id=str(seed)) for seed in range(6)],
    *[pytest.param(seed, True, id=f"dense{seed}") for seed in range(3)],
])
def test_eliminate_matches_expand_on_random_even_input(monkeypatch, seed, dense):
    rng = np.random.default_rng(100 + seed)
    if dense:
        # bilinear and quartic terms only, so the w ladders run deep
        u = universe_n(4, n_eta=2)
        f = random_element(u, rng, 64, parity=0)
    else:
        u = universe_n(3, n_eta=2)
        f = random_even_exponent(u, rng)
    ladders = []

    def recorded(r):
        powers = nilpotent_powers(r)
        ladders.append(len(powers))
        return powers

    monkeypatch.setattr(berezin, "nilpotent_powers", recorded)
    a = log_direct(u, f)
    b = log_expand(u, f)
    assert allclose(a.element, b.element, rel=1e-9, abs_tol=1e-11)
    assert a.element.is_even()
    if dense:
        assert max(ladders) >= 3


@pytest.mark.parametrize("seed", range(6))
def test_product_of_odd_elements_squares_to_zero(seed):
    rng = np.random.default_rng(400 + seed)
    u = universe_n(3, n_eta=2)
    a = random_element(u, rng, 10, parity=1)
    b = random_element(u, rng, 10, parity=1)
    uv = a * b
    assert not uv.is_zero()
    assert uv.constant == 0
    # zero up to the roundoff of terms that cancel in pairs
    assert allclose(uv * uv, GrassmannElement(), rel=0, abs_tol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_log_bracket_matches_log_of_whole_bracket(seed):
    """log(1 + u v + w) from the powers of w alone equals the series over
    the powers of the whole bracket."""
    rng = np.random.default_rng(500 + seed)
    uni = universe_n(3, n_eta=2)
    u = random_element(uni, rng, 8, parity=1)
    v = random_element(uni, rng, 8, parity=1)
    w = random_element(uni, rng, 12, parity=0, scale=0.6)
    w0 = complex(*rng.normal(size=2))
    w = w.without_constant() + w0
    s = 1 + w0
    expected = log1p_nilpotent((u * v + w - w0).scaled(1 / s)) + cmath.log(s)
    assert allclose(log_bracket(u, v, w), expected, rel=1e-12, abs_tol=1e-14)


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


# ------------------------------------------------------ elimination order


@pytest.fixture(scope="module")
def oracle_inputs():
    """(universe, f) of the three pair runs of the ``RunConfig()`` oracle."""
    cfg = RunConfig()
    spec, cov = pipeline.lattice_objects(cfg)
    model = pipeline.lattice_model(cfg, spec, cov)
    origin = spec.sites[0]
    return [pipeline._pair_interaction(model, origin, target)
            for target in pipeline.representative_targets(spec)]


def _uv_pair_visits(monkeypatch, eliminate, universe, f):
    """Result of ``eliminate`` and the sum of |u| |v| over its steps."""
    visits = []

    def counted(u, v, w):
        visits.append(len(u) * len(v))
        return log_bracket(u, v, w)

    with monkeypatch.context() as patch:
        patch.setattr(berezin, "log_bracket", counted)
        out = eliminate(universe, f)
    return out, sum(visits)


def test_elimination_order_keeps_the_oracle_series(monkeypatch, oracle_inputs):
    """Cheapest-first elimination equals the index order on the default
    oracle inputs and visits at least five times fewer u v pairs."""
    assert len(oracle_inputs) == 3
    for universe, f in oracle_inputs:
        greedy, greedy_visits = _uv_pair_visits(monkeypatch, effective_log_integral, universe, f)
        ordered, ordered_visits = _uv_pair_visits(
            monkeypatch, eliminate_in_index_order, universe, f)
        assert allclose(greedy, ordered, rel=1e-12, abs_tol=1e-14)
        assert 5 * greedy_visits <= ordered_visits, (greedy_visits, ordered_visits)


@pytest.mark.parametrize("seed", range(3))
def test_elimination_order_keeps_dense_random_series(seed):
    # the dense cases of test_eliminate_matches_expand_on_random_even_input
    rng = np.random.default_rng(100 + seed)
    u = universe_n(4, n_eta=2)
    f = random_element(u, rng, 64, parity=0)
    assert allclose(effective_log_integral(u, f), eliminate_in_index_order(u, f),
                    rel=1e-12, abs_tol=1e-14)


def test_each_step_takes_the_cheapest_mode_and_logs_it(caplog):
    """Mode 0 holds three sources on each side and its pair (cost 3 * 3 + 1);
    modes 1 and 2 share one quartic term (cost 1 each).  The tie goes to
    mode 1, then mode 2 costs 1, and mode 0 comes last."""
    u = universe_n(3, n_eta=3)
    bar = [psi((i,), 0, 0, bar=True) for i in range(3)]
    unbar = [psi((i,), 0, 0) for i in range(3)]
    f = GrassmannElement({mask_of(u, [bar[0], unbar[0]]): 0.5,
                          mask_of(u, [bar[1], unbar[1], bar[2], unbar[2]]): 0.25})
    for j in range(3):
        f = f + GrassmannElement({mask_of(u, [bar[0], eta((j,), 0, 0)]): 0.1 * (j + 1),
                                  mask_of(u, [unbar[0], eta((j,), 0, 0, bar=True)]): 0.2})
    with caplog.at_level(logging.DEBUG, logger="fermicluster.berezin"):
        got = effective_log_integral(u, f)
    steps = [r.getMessage() for r in caplog.records if r.name == "fermicluster.berezin"]
    assert steps == [
        "eliminated psi mode 1: |u|=0 |v|=0 |w|=1, 8 terms after",
        "eliminated psi mode 2: |u|=0 |v|=0 |w|=1, 8 terms after",
        f"eliminated psi mode 0: |u|=3 |v|=3 |w|=1, {len(got)} terms after",
    ]
    assert allclose(got, log_expand(u, f).element, rel=1e-12, abs_tol=1e-14)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="fermicluster.berezin"):
        effective_log_integral(u, f)
    assert not caplog.records


def test_elimination_leaves_logging_unimported():
    """Importing logging costs every run start-up time and memory, so the
    package and an elimination run only look it up."""
    code = (
        "import sys\n"
        "from fermicluster import berezin, cli\n"
        "from fermicluster.algebra import GrassmannElement\n"
        "from fermicluster.generators import GeneratorUniverse\n"
        "u = GeneratorUniverse([((0,), 0, 0)])\n"
        "berezin.log_direct(u, GrassmannElement({0b11: 0.5}))\n"
        "assert 'logging' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


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


def test_vanishing_normalization_raises_with_sources():
    # -psibar_0 psi_0 (1 - 0.5 psibar_1 psi_1) + 0.3 psibar_0 eta + 0.7 psi_0 etabar:
    # the mode-0 bracket has u and v nonzero (from the eta terms) and w0 = -1,
    # but the integral is not 0: taking mode 1 first leaves w0 = -0.5 at mode 0
    u = universe_n(2, n_eta=1)
    bar0, psi0 = psi((0,), 0, 0, bar=True), psi((0,), 0, 0)
    etabar, eta0 = eta((0,), 0, 0, bar=True), eta((0,), 0, 0)
    f = GrassmannElement({
        mask_of(u, [bar0, psi0]): -1.0,
        mask_of(u, [bar0, psi0, psi((1,), 0, 0, bar=True), psi((1,), 0, 0)]): 0.5,
        mask_of(u, [bar0, eta0]): 0.3,
        mask_of(u, [psi0, etabar]): 0.7,
    })
    _, uu, vv, w = _split_mode(f, *u.psi_mode_bits(0))
    assert not uu.is_zero() and not vv.is_zero() and w.constant == -1
    with pytest.raises(NormalizationError):
        log_bracket(uu, vv, w)
    got, expected = log_direct(u, f), log_expand(u, f)
    assert allclose(got.element, expected.element, rel=1e-12, abs_tol=1e-14)
    assert got.constant == pytest.approx(math.log(0.5), rel=1e-12)
    assert got.element.terms[mask_of(u, [etabar, eta0])] == pytest.approx(0.42, rel=1e-12)
    # with mode 0 alone the integral 0.3 * 0.7 etabar eta has no constant
    lone = universe_n(1, n_eta=1)
    f = GrassmannElement({
        mask_of(lone, [bar0, psi0]): -1.0,
        mask_of(lone, [bar0, eta0]): 0.3,
        mask_of(lone, [psi0, etabar]): 0.7,
    })
    _, uu, vv, w = _split_mode(f, *lone.psi_mode_bits(0))
    assert not uu.is_zero() and not vv.is_zero() and w.constant == -1
    with pytest.raises(NormalizationError):
        log_direct(lone, f)


def test_log_series_rejects_odd_term():
    u = universe_n(1, n_eta=2)
    lone = u.bit(eta((0,), 0, 0))
    pair = mask_of(u, [eta((0,), 0, 0, bar=True), eta((1,), 0, 0)])
    LogSeries(u, GrassmannElement({0: 0.5, pair: 1.0}))
    with pytest.raises(ParityError):
        LogSeries(u, GrassmannElement({0: 0.5, pair: 1.0, lone: 0.25}))
