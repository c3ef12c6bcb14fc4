"""Cluster engine tests: Ursell factors, activities, and the resummed log."""

import collections
import dataclasses
import itertools
import logging
import math
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fermicluster import clusters, pipeline
from fermicluster.algebra import GrassmannElement, exp_series
from fermicluster.berezin import integrate_element, log_direct
from fermicluster.clusters import (
    ClusterEngine,
    ClusterOptions,
    _components,
    ursell_factor,
)
from fermicluster.coeffsys import CoefficientSystem
from fermicluster.config import RunConfig
from fermicluster.errors import ParityError
from fermicluster.generators import GeneratorUniverse, eta, psi
from fermicluster.grossneveu import LatticeSpec, Model, truncated_two_point, universe_for
from oracles import exp_power_series, reference_product, ursell_adjacency

f = frozenset


def _max_abs(element) -> float:
    return max((abs(c) for c in element.terms.values()), default=0.0)


def _eta_capped(u, element, cap):
    """``element`` without the terms of eta degree above ``cap`` (None: all kept)."""
    eta_bits = ~u.psi_block_mask
    return GrassmannElement({m: c for m, c in element.terms.items()
                             if cap is None or (m & eta_bits).bit_count() <= cap})


# ------------------------------------------------------------------ graphs


def _sites(sites):
    return f((s,) for s in sites)


def _bits(sites):
    return sum(1 << s for s in sites)


def test_incidence_graph_edges():
    # parts meet when they share a site; each component is the union of its parts
    cases = [
        ([{0}, {0, 1}, {2}], [{0, 1}, {2}]),
        ([{0, 1}, {1}, {5}], [{0, 1}, {5}]),
        ([{0}, {2}, {1, 2}, {0, 1}], [{0, 1, 2}]),
    ]
    for parts, components in cases:
        for part in (_sites, _bits):
            assert _components([part(p) for p in parts]) == [part(c) for c in components]


def test_graph_connectivity():
    cases = [
        ([{0}], 1),
        ([{0, 1}, {1, 2}, {2, 3}], 1),
        ([{0, 1}, {1}, {5}], 2),
        ([{0}, {1}], 2),
    ]
    for parts, count in cases:
        for part in (_sites, _bits):
            assert len(_components([part(p) for p in parts])) == count


# ------------------------------------------------------------------ Ursell


def test_ursell_hand_values():
    assert ursell_factor([f({(0,)})]) == 1
    assert ursell_factor([f({(0,)}), f({(0,), (1,)})]) == -1
    assert ursell_factor([f({(0,)}), f({(1,)})]) == 0
    assert ursell_factor([f({(0,)}), f({(0,), (1,)}), f({(1,)})]) == 1
    assert ursell_factor([f({(0,), (1,)}), f({(1,), (2,)}), f({(0,), (2,)})]) == 2


def test_ursell_repeated_polymer_factorials():
    for m in range(1, 9):
        expected = (-1) ** (m - 1) * math.factorial(m - 1)
        assert ursell_factor([f({(0,)})] * m) == expected


def test_ursell_permutation_invariance():
    rng = random.Random(5)
    base = [f({(0,)}), f({(0,), (1,)}), f({(1,), (2,)}), f({(0,)})]
    reference = ursell_factor(base)
    for _ in range(6):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert ursell_factor(shuffled) == reference


def test_ursell_blocks_match_expanded_adjacency():
    rng = random.Random(11)
    pool = [f({(0,)}), f({(0,), (1,)}), f({(1,)}), f({(1,), (2,)}), f({(2,)})]
    for _ in range(40):
        supports = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        n = len(supports)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if supports[i] & supports[j]:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        assert ursell_factor(supports) == ursell_adjacency(tuple(adj))


def test_ursell_empty_supports():
    assert ursell_factor([f()]) == 1
    assert ursell_factor([f(), f()]) == 0
    assert ursell_factor([f(), f({(0,)})]) == 0


def test_ursell_memo_is_shared_across_multisets():
    """One memo serves every multiset over a polymer family: each connected
    multiset gets the value of its expanded adjacency, a disconnected one 0,
    and no entry that one multiset writes moves another's value."""
    rng = random.Random(13)
    polymers = [_bits(rng.sample(range(7), rng.randint(1, 2))) for _ in range(6)]
    adj = [sum(1 << k for k, other in enumerate(polymers) if mask & other)
           for mask in polymers]
    memo = {}
    connected = disconnected = 0
    for size in range(1, 7):
        for multiset in itertools.combinations_with_replacement(range(len(polymers)), size):
            counts = tuple(sorted(collections.Counter(multiset).items()))
            value = clusters._ursell(counts, adj, memo)
            expanded = [polymers[i] for i in multiset]
            if len(_components(expanded)) > 1:
                assert value == 0, multiset
                disconnected += 1
            else:
                rows = tuple(sum(1 << k for k, other in enumerate(expanded)
                                 if k != i and mask & other)
                             for i, mask in enumerate(expanded))
                assert value == ursell_adjacency(rows), multiset
                connected += 1
    assert connected and disconnected
    for counts, value in memo.items():
        assert clusters._ursell(counts, adj, {}) == value, counts


# ------------------------------------------------------- scalar polymer gas


def test_single_polymer_reproduces_log1p():
    u = GeneratorUniverse([((0,), 0, 0)])
    system = CoefficientSystem()
    system.add((psi((0,), bar=True), psi((0,))), (), 0.3)
    series, report = ClusterEngine(u, system.to_element(u), ClusterOptions(n_max=40)).assemble()
    assert report.exact
    assert series.constant == pytest.approx(math.log(1.3), rel=1e-12)


def test_disjoint_polymers_add_logs():
    u = GeneratorUniverse([((0,), 0, 0), ((5,), 0, 0)])
    system = CoefficientSystem()
    system.add((psi((0,), bar=True), psi((0,))), (), 0.25)
    system.add((psi((5,), bar=True), psi((5,))), (), -0.4)
    series, report = ClusterEngine(u, system.to_element(u), ClusterOptions(n_max=60)).assemble()
    assert report.exact
    expected = math.log(1.25) + math.log(0.6)
    assert series.constant == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------ random systems


def _random_even_system(rng, sites, eta_sites, scale=0.2, n_source=4):
    system = CoefficientSystem()
    psis = [psi(s, bar=b) for s in sites for b in (True, False)]
    etas = [eta(s, bar=b) for s in eta_sites for b in (True, False)]
    for _ in range(6):
        a, b = rng.sample(psis, 2)
        system.add((a, b), (), scale * (rng.random() - 0.5))
    for _ in range(4):
        a, b, c, d = rng.sample(psis, 4)
        system.add((a, b, c, d), (), scale * (rng.random() - 0.5))
    for _ in range(n_source):
        a = rng.choice(psis)
        e = rng.choice(etas)
        system.add((a,), (e,), scale * (rng.random() - 0.5))
    e1, e2 = rng.sample(etas, 2)
    system.add((), (e1, e2), scale * (rng.random() - 0.5))
    return system


@pytest.fixture(scope="module")
def three_site_universe():
    sites = [(0,), (1,), (2,)]
    eta_sites = [(0,), (2,)]
    return (
        sites,
        eta_sites,
        GeneratorUniverse(
            [(s, 0, 0) for s in sites], [(s, 0, 0) for s in eta_sites]
        ),
    )


@pytest.mark.parametrize("seed", [7, 21, 99, 123])
def test_assembly_matches_direct_log(three_site_universe, seed):
    sites, eta_sites, u = three_site_universe
    rng = random.Random(seed)
    element = _random_even_system(rng, sites, eta_sites).to_element(u)
    oracle = log_direct(u, element)
    series, report = ClusterEngine(u, element, ClusterOptions(n_max=40, floor=1e-16)).assemble()
    assert report.exact
    diff = series.element - oracle.element
    scale = max(_max_abs(oracle.element), 1e-30)
    assert _max_abs(diff) / scale < 1e-10
    assert series.element.is_even()


def _neutral_items(rng, sites, scale=0.2):
    """Random charge-neutral psi items, psi-bar psi and psi-bar psi psi-bar
    psi, as the eta-free part of a lattice model."""
    system = CoefficientSystem()
    bars, plains = ([psi(s, bar=b) for s in sites] for b in (True, False))
    for _ in range(6):
        system.add((rng.choice(bars), rng.choice(plains)), (), scale * (rng.random() - 0.5))
    for _ in range(4):
        a, c = rng.sample(bars, 2)
        b, d = rng.sample(plains, 2)
        system.add((a, b, c, d), (), scale * (rng.random() - 0.5))
    return system


def _random_sources(rng, sites, eta_sites, scale=0.2):
    """Random source items: psi eta-bar at every psi site, and psi-bar eta
    on the eta sites, which are the source sites."""
    system = CoefficientSystem()
    for e in eta_sites:
        for s in sites:
            system.add((psi(s),), (eta(e, bar=True),), scale * (rng.random() - 0.5))
        for s in eta_sites:
            system.add((psi(s, bar=True),), (eta(e),), scale * (rng.random() - 0.5))
    return system


def _probe_terms(n_psi_bits, matrix, cols):
    """T° over the psi modes at ``cols`` as terms eta-bar_i eta_j, in the
    universe with an eta mode per psi mode."""
    terms = {}
    for (p, i), (q, j) in itertools.product(enumerate(cols), repeat=2):
        if matrix[p, q]:
            mask = 1 << n_psi_bits + 2 * i | 2 << n_psi_bits + 2 * j
            terms[mask] = matrix[p, q] if i <= j else -matrix[p, q]
    return terms


@pytest.mark.parametrize("seed", [0, 9, 27])
def test_capped_activity_is_restricted_activity(three_site_universe, seed):
    """The probe activity (s, T°) of every support is exactly the part of eta
    degree 2 or less of K0 of the probed exponent: the eta-free items plus
    psi_y eta-bar_y and psi-bar_y eta_y at every psi mode y, all of
    coefficient 1, which an uncapped engine integrates."""
    sites, _, _ = three_site_universe
    modes = [(s, 0, 0) for s in sites]
    items = _neutral_items(random.Random(seed), sites)
    bare = GeneratorUniverse(modes)
    engine = ClusterEngine(bare, items.to_element(bare))
    probed = GeneratorUniverse(modes, modes)
    probes = CoefficientSystem()
    for s in sites:
        probes.add((psi(s),), (eta(s, bar=True),), 1.0)
        probes.add((psi(s, bar=True),), (eta(s),), 1.0)
    full = ClusterEngine(probed, (items + probes).to_element(probed))
    assert len(engine.candidates) >= 3
    dropped = 0
    for support in engine.candidates:
        k0 = full.polymer_activity(support)
        kept = _eta_capped(probed, k0, 2)
        dropped += len(k0) - len(kept)
        _, matrix, cols = engine._probe(engine._probe_activities, engine._probe_activity,
                                        support)
        mapped = GrassmannElement({0: engine.polymer_activity(support).constant,
                                   **_probe_terms(probed.n_psi_bits, matrix, cols)})
        assert _max_abs(mapped - kept) < 1e-12
    assert dropped  # the cap bites


@pytest.mark.parametrize("cap", [None, 2], ids=["exact", "truncated"])
@pytest.mark.parametrize("seed", [7, 21])
def test_polymer_identity_on_every_region(three_site_universe, seed, cap):
    """Z(X), the integral of exp(f|X) by the literal route, equals the sum
    over families of disjoint candidates in X of their activities' product;
    under a site cap, on every region within the cap."""
    sites, eta_sites, u = three_site_universe
    system = _random_even_system(random.Random(seed), sites, eta_sites)
    element = system.to_element(u)
    engine = ClusterEngine(u, element, ClusterOptions(max_polymer_sites=cap))
    psi_block = u.psi_block_mask
    supports = {mask: f(g.site for g in u.indices_of(mask & psi_block))
                for mask in element.terms if mask & psi_block}
    for size in range(len(sites) + 1 if cap is None else cap + 1):
        for region in map(f, itertools.combinations(sites, size)):
            restricted = GrassmannElement(
                {mask: element.terms[mask] for mask, sup in supports.items()
                 if sup <= region})
            literal = integrate_element(u, exp_power_series(restricted))
            inside = [s for s in engine.candidates if s <= region]
            families = GrassmannElement()
            for n in range(len(inside) + 1):
                for family in itertools.combinations(inside, n):
                    if sum(map(len, family)) != len(f().union(*family)):
                        continue
                    product = GrassmannElement.one(1.0)
                    for s in family:
                        product = product * engine.polymer_activity(s)
                    families = families + product
            assert _max_abs(families - literal) < 1e-12, (region, cap)


def test_disjoint_systems_factorize():
    sites_a = [(0,), (1,)]
    sites_b = [(7,), (8,)]
    u = GeneratorUniverse([(s, 0, 0) for s in sites_a + sites_b])
    rng = random.Random(17)

    def quartic_block(sites):
        system = CoefficientSystem()
        ps = [psi(s, bar=b) for s in sites for b in (True, False)]
        system.add((ps[0], ps[1]), (), 0.3 * rng.random())
        system.add((ps[2], ps[3]), (), 0.3 * rng.random())
        system.add((ps[0], ps[1], ps[2], ps[3]), (), 0.2 * rng.random())
        return system

    part_a = quartic_block(sites_a)
    part_b = quartic_block(sites_b)
    options = ClusterOptions(n_max=40)
    whole, _ = ClusterEngine(u, (part_a + part_b).to_element(u), options).assemble()
    only_a, _ = ClusterEngine(u, part_a.to_element(u), options).assemble()
    only_b, _ = ClusterEngine(u, part_b.to_element(u), options).assemble()
    diff = whole.element - (only_a.element + only_b.element)
    assert _max_abs(diff) < 1e-12


def test_odd_system_rejected():
    u = GeneratorUniverse([((0,), 0, 0)], [((0,), 0, 0)])
    system = CoefficientSystem()
    system.add((psi((0,), bar=True),), (), 0.5)
    with pytest.raises(ParityError):
        ClusterEngine(u, system.to_element(u))


def test_single_quadratic_activity_is_plain_coefficient():
    u = GeneratorUniverse([((0,), 0, 0)])
    system = CoefficientSystem()
    system.add((psi((0,), bar=True), psi((0,))), (), 0.125)
    engine = ClusterEngine(u, system.to_element(u))
    k0 = engine.polymer_activity(f({(0,)}))
    assert k0.constant == pytest.approx(0.125)
    assert len(k0) == 1


def _linear_response_runs(three_site_universe, seed, options=None):
    """A source-free engine of random neutral items on the three sites, the
    universe with sources on the eta sites and random source items there,
    and an engine of the items and the sources together."""
    sites, eta_sites, u = three_site_universe
    rng = random.Random(seed)
    items, sources = _neutral_items(rng, sites), _random_sources(rng, sites, eta_sites)
    bare = GeneratorUniverse(u.psi_modes)
    free = ClusterEngine(bare, items.to_element(bare), options)
    both = ClusterEngine(u, (items + sources).to_element(u), options)
    return free, (u, sources.to_element(u)), both


def test_truncated_mode_never_reports_exact(three_site_universe):
    sites, eta_sites, u = three_site_universe
    system = _random_even_system(random.Random(2), sites, eta_sites)
    _, report = ClusterEngine(u, system.to_element(u), ClusterOptions(max_polymer_sites=3)
                              ).assemble()
    free, pair, _ = _linear_response_runs(three_site_universe, 2)
    _, pair_report = free.assemble(pair)
    for report in (report, pair_report):
        assert report.mode == "truncated"
        assert not report.exact


def test_eta_cap_exact_on_retained_sector(three_site_universe):
    """``assemble(pair)`` gives the terms of eta degree 2 or less of the
    series of the items and the sources together, and no other term."""
    options = ClusterOptions(n_max=40, floor=1e-16)
    free, pair, engine = _linear_response_runs(three_site_universe, 31, options)
    full, _ = engine.assemble()
    capped, _ = free.assemble(pair)
    u = pair[0]
    psi_block = u.psi_block_mask
    assert max((m & ~psi_block).bit_count() for m in full.element.terms) > 2
    for mask, coeff in full.element.terms.items():
        eta_degree = (mask & ~psi_block).bit_count()
        got = capped.element.terms.get(mask, 0j)
        if eta_degree <= 2:
            assert abs(got - coeff) < 1e-10
    for mask in capped.element.terms:
        assert (mask & ~psi_block).bit_count() <= 2


def test_small_n_max_reports_inexact():
    u = GeneratorUniverse([((0,), 0, 0)])
    system = CoefficientSystem()
    system.add((psi((0,), bar=True), psi((0,))), (), 0.5)
    series, report = ClusterEngine(u, system.to_element(u), ClusterOptions(n_max=3)).assemble()
    assert not report.exact
    assert report.tail > 0
    # three terms of log(1+x)
    partial = 0.5 - 0.25 / 2 + 0.125 / 3
    assert series.constant == pytest.approx(partial, rel=1e-12)


def test_report_dict_round_trip(three_site_universe):
    sites, eta_sites, u = three_site_universe
    system = _random_even_system(random.Random(4), sites, eta_sites)
    _, report = ClusterEngine(u, system.to_element(u), ClusterOptions(n_max=30)).assemble()
    payload = report.as_dict()
    assert payload["mode"] == "exact"
    assert payload["polymer_count"] >= 1
    assert payload["cluster_count"] >= payload["polymer_count"]
    assert isinstance(payload["exact"], bool)


def test_truncated_engine_drops_entries_past_the_site_cap(three_site_universe):
    sites, eta_sites, u = three_site_universe
    element = _random_even_system(random.Random(3), sites, eta_sites).to_element(u)
    options = ClusterOptions(max_polymer_sites=2)
    filtered = ClusterEngine(u, element, options)
    assert all(len(sup) <= 2 for sup in filtered._by_support)
    psi_block = u.psi_block_mask
    supported = [(m, c, f(g.site for g in u.indices_of(m & psi_block)))
                 for m, c in sorted(element.terms.items()) if m & psi_block]
    assert any(len(sup) > 2 for *_, sup in supported)
    # no region holds more than the cap, so the dropped monomials never
    # enter: handing them back to the index that Z reads changes nothing
    unfiltered = ClusterEngine(u, element, options)
    for m, c, sup in supported:
        if len(sup) > 2:
            unfiltered._by_support.setdefault(sup, []).append((m, c))
    out, report = filtered.assemble()
    reference, reference_report = unfiltered.assemble()
    assert out.element.terms == reference.element.terms
    assert report == reference_report


# ------------------------------------------------------------- eta sector


@pytest.mark.parametrize("cap", [None, 2], ids=["exact", "truncated"])
@pytest.mark.parametrize("seed", [7, 21])
def test_sector_matrices_are_products_with_each_activity(three_site_universe, seed, cap):
    """Row m of matrix j is the monomial m times activity j, on the basis."""
    sites, eta_sites, u = three_site_universe
    system = _random_even_system(random.Random(seed), sites, eta_sites, n_source=8)
    engine = ClusterEngine(u, system.to_element(u), ClusterOptions(max_polymer_sites=cap))
    activities = [k0 for k0 in map(engine.polymer_activity, engine.candidates) if k0.terms]
    basis, wide = engine.eta_sector(activities)
    shift = u.n_psi_bits
    masks = [int(m) << shift for m in basis]
    r = len(masks)
    assert masks[0] == 0 and r > 1
    assert wide.shape == (r, len(activities) * r)
    for j, k0 in enumerate(activities):
        matrix = wide[:, j * r:(j + 1) * r]
        for row, m in enumerate(masks):
            product = reference_product(u, GrassmannElement({m: 1.0}), k0)
            assert all(mask in masks for mask in product)
            assert matrix[row].tolist() == [product.get(n, 0j) for n in masks]


def _assert_reports_agree(report, other):
    for field in ("polymer_count", "cluster_count", "clusters_visited", "n_reached",
                  "exact"):
        assert getattr(report, field) == getattr(other, field), field
    assert abs(report.tail - other.tail) < 1e-15


@pytest.mark.parametrize("cap", [None, 2], ids=["exact", "truncated"])
def test_an_engine_without_polymers_walks_no_descent(three_site_universe, cap):
    """Pure eta items make no polymer: the series is those items, and the
    descent visits nothing."""
    _, _, u = three_site_universe
    f_eta = GrassmannElement({u.bit(eta((0,), bar=True)) | u.bit(eta((2,))): 0.5})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series, report = ClusterEngine(u, f_eta, ClusterOptions(max_polymer_sites=cap)).assemble()
    assert series.element.terms == f_eta.terms
    assert (report.polymer_count, report.clusters_visited, report.tail) == (0, 0, 0.0)


def test_default_pair_runs_take_the_dense_route_and_match_sparse(caplog):
    """Exact pair runs take the matmul kernel."""
    cfg = RunConfig()
    spec, cov = pipeline.lattice_objects(cfg)
    model = pipeline.lattice_model(cfg, spec, cov)
    origin = spec.sites[0]
    targets = pipeline.representative_targets(spec)
    assert len(targets) == 3
    for target in targets:
        universe, f = model.interaction((origin, target))
        with caplog.at_level(logging.DEBUG, logger="fermicluster.clusters"):
            ClusterEngine(universe, f, pipeline.engine_options(cfg)).assemble()
        assert caplog.records[-1].getMessage().endswith(" entries, matmul")


# ------------------------------------------------------ source-free engine

PAIR_RUN_CONFIGS = {
    "default": RunConfig(),
    "truncated-L3": RunConfig(L=3, m_f=3.0, g=0.05, mode="truncated"),
    "truncated-L4": RunConfig(L=4, m_f=3.0, g=0.05, mode="truncated"),
}


def _model(cfg):
    spec, cov = pipeline.lattice_objects(cfg)
    return spec, pipeline.lattice_model(cfg, spec, cov), pipeline.engine_options(cfg)


def _pairs(spec, pairs=None):
    """``pairs``, or the origin with each representative target."""
    return pairs or [(spec.sites[0], t) for t in pipeline.representative_targets(spec)]


class _CappedEngine(ClusterEngine):
    """Z and K0 without the terms of eta degree above 2, each restricted
    integral capped inside elimination, and the descent over the eta
    monomials of degree 2 or less: the reference that the linear response
    of a truncated pair run must reproduce."""

    def _restricted_exp(self, region):
        if region not in self._exp_cache:
            self._exp_cache[region] = self._eliminated(
                self.universe, self._items_within(region), cap=2)
        return self._exp_cache[region]

    def polymer_activity(self, support):
        return _eta_capped(self.universe, super().polymer_activity(support), 2)

    def eta_sector(self, activities):
        """The sector with its basis closed only up to eta degree 2: the
        products past the cap leave the basis, so the descent drops them."""
        shift = self.universe.n_psi_bits
        found = {0}
        for k in sorted({m >> shift for k0 in activities for m in k0.terms} - {0}):
            found |= {m | k for m in found if not m & k and (m | k).bit_count() <= 2}
        basis = sorted(found)
        column = {m: i for i, m in enumerate(basis)}
        r = len(basis)
        wide = np.zeros((r, len(activities) * r), dtype=np.complex128)
        for j, k0 in enumerate(activities):
            for mask, c in k0.terms.items():
                k = mask >> shift
                for row, m in enumerate(basis):
                    if not m & k and m | k in column:
                        # e_m e_k: each generator of k moves left past those of m above it
                        passes = sum((m >> b + 1).bit_count() for b in range(k.bit_length())
                                     if k >> b & 1)
                        wide[row, j * r + column[m | k]] = -c if passes & 1 else c
        return np.array(basis, dtype=np.uint64), wide


def _full_engines(cfg, pairs=None):
    """An engine of each pair run's whole interaction with every candidate's
    activity built: the exact run's own engine, or, in truncated mode, one
    capped at eta degree 2."""
    spec, model, options = _model(cfg)
    engines = []
    for pair in _pairs(spec, pairs):
        kind = ClusterEngine if cfg.mode == "exact" else _CappedEngine
        engine = kind(*model.interaction(pair), options)
        for support in engine.candidates:
            engine.polymer_activity(support)
        engines.append(engine)
    return engines


def test_linear_response_pair_runs_agree_on_both_kernels():
    """The truncated L = 3 pair runs, as the source-free engine's linear
    response on the rank-one kernel, give the terms of eta degree 2 or less
    of an engine of the whole interaction, which takes the matmul kernel
    over every eta degree: within 1e-11 of the largest eta-bar eta
    coefficient, both at floor 1e-15, for every representative target.
    Measured: 2.0e-12."""
    cfg = PAIR_RUN_CONFIGS["truncated-L3"]
    spec, model, options = _model(cfg)
    options = dataclasses.replace(options, floor=1e-15)
    source_free = model.source_free(options)
    for pair in _pairs(spec):
        universe, f = model.interaction(pair)
        dense, _ = ClusterEngine(universe, f, options).assemble()
        series, _ = source_free.assemble(model.sources(pair))
        low = _eta_capped(universe, dense.element, 2)
        assert max(len(dense.element), 1) > len(low)
        scale = max(abs(c) for m, c in low.terms.items() if m)
        assert _max_abs(low - series.element) <= 1e-11 * scale


@pytest.mark.parametrize("name", ["default", "truncated-L3", "exact-g0.2"])
def test_a_chunk_of_one_node_walks_like_the_default_chunk(monkeypatch, name):
    """Chunks only group the kernel calls of one depth: taking each node's
    children alone, or a whole depth's at once, gives the same counters and
    series.  The exact run at g = 0.2 is the deepest exact descent (its pair
    visits 7,915 clusters to depth 10), and takes the whole-depth chunk alone."""
    cfg = RunConfig(g=0.2) if name == "exact-g0.2" else PAIR_RUN_CONFIGS[name]
    spec, model, _ = _model(cfg)
    pair = (spec.sites[0], pipeline.representative_targets(spec)[-1])
    series, report = pipeline.pair_series(cfg, spec, model, *pair)
    for chunk in [1 << 30] if name == "exact-g0.2" else [1, 1 << 30]:
        with monkeypatch.context() as patch:
            patch.setattr(clusters, "CHUNK_ENTRIES", chunk)
            other, other_report = pipeline.pair_series(cfg, spec, model, *pair)
        assert _max_abs(series.element - other.element) < 1e-14, chunk
        _assert_reports_agree(report, other_report)


def _source_sites(engine):
    return {site for site, _, _ in engine.universe.eta_modes}


def _region_element(engine, region):
    """f restricted to the supports within ``region``: every item, sources included."""
    return GrassmannElement(dict(engine._items_within(region)))


@pytest.mark.parametrize("name", PAIR_RUN_CONFIGS)
def test_shared_source_free_integral_is_the_full_restricted_integral(name):
    """The charge argument, checked: on every region without a source site
    that an engine of a pair's whole interaction integrates, the source-free
    engine gives the same Z as all of the region's own items, the smeared
    sources away from the source sites included."""
    cfg = PAIR_RUN_CONFIGS[name]
    _, model, options = _model(cfg)
    source_free = model.source_free(options)
    checked = with_sources = 0
    for engine in _full_engines(cfg):
        for region in engine._exp_cache:
            if not region or region & _source_sites(engine):
                continue
            element = _region_element(engine, region)
            with_sources += any(m >> engine.universe.n_psi_bits for m in element.terms)
            shared = source_free._restricted_exp(region)
            full = exp_series(clusters.effective_log_integral(engine.universe, element))
            assert set(shared.terms) == set(full.terms) == {0}
            assert shared.constant == pytest.approx(full.constant, rel=1e-15, abs=0)
            checked += 1
    assert checked >= with_sources > 0


@pytest.mark.parametrize("name", PAIR_RUN_CONFIGS)
def test_source_free_activity_is_the_full_activity(name):
    """The charge argument for activities: K0 of every candidate without a
    source site is a scalar from the source-free engine, equal to the K0
    an engine builds from all of a pair's items.  Measured worst relative
    difference: 5.6e-11 on exact 2x2, 0 on the truncated runs."""
    cfg = PAIR_RUN_CONFIGS[name]
    _, model, options = _model(cfg)
    source_free = model.source_free(options)
    checked = 0
    for full in _full_engines(cfg):
        for support in full.candidates:
            if support & _source_sites(full):
                continue
            shared = source_free.polymer_activity(support)
            expected = full.polymer_activity(support)
            assert set(shared.terms) == {0}
            assert shared.constant == pytest.approx(expected.constant, rel=1e-9, abs=0)
            checked += 1
    assert checked > 0


def test_capping_inside_elimination_matches_capping_at_the_end():
    """Every region of the truncated L = 3 pair runs, sources included, as
    engines of their whole interaction read them: probe integrals eliminate
    under a cap of 2, and that keeps exactly the kept terms."""
    checked = 0
    for engine in _full_engines(PAIR_RUN_CONFIGS["truncated-L3"]):
        u = engine.universe
        for region in engine._exp_cache:
            element = _region_element(engine, region)
            if not element.terms:
                continue
            full = clusters.effective_log_integral(u, element)
            in_loop = clusters.effective_log_integral(u, element, 2)
            assert in_loop.terms == pytest.approx(_eta_capped(u, full, 2).terms,
                                                  rel=1e-15, abs=0)
            assert exp_series(in_loop, 2, ~u.psi_block_mask).terms == pytest.approx(
                _eta_capped(u, exp_series(full), 2).terms, rel=1e-15, abs=0)
            checked += 1
    assert checked == 135


@pytest.mark.parametrize("name, eliminations, classes", [
    ("default", 45, 0), ("truncated-L3", 10, 5), ("truncated-L4", 20, 10)])
def test_each_source_free_class_is_eliminated_once_per_experiment(
        monkeypatch, name, eliminations, classes):
    """The pair runs of the origin with each representative target.
    Truncated runs are the source-free engine's linear response: it runs
    every elimination, one per class without probes and one per region
    class with them; without probes they ran 48 and 181, and engines of
    each pair's interaction 135 and 816.  Exact runs build no source-free
    engine: each pair's engine eliminates every region of 2x2 itself."""
    calls = []
    original = clusters.effective_log_integral

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(clusters, "effective_log_integral", counted)
    cfg = PAIR_RUN_CONFIGS[name]
    spec, model, options = _model(cfg)
    for pair in _pairs(spec):
        pipeline.pair_series(cfg, spec, model, *pair)
    assert len(calls) == eliminations
    if cfg.mode == "exact":
        assert not model._source_free
        return
    source_free = model.source_free(options)
    assert len([key for key in source_free._exp_cache if key]) == classes
    assert source_free.integrals_computed == classes + len(source_free._probe_cache)
    assert source_free.integrals_computed == eliminations


@pytest.mark.parametrize("name, classes", [
    ("default", 6), ("truncated-L3", 5), ("truncated-L4", 10)])
def test_each_source_free_activity_is_computed_once_per_class(monkeypatch, name, classes):
    """The source-free engine's linear response to every pair asks for K0
    of every candidate, and computes each activity once per class."""
    computed = []
    original = ClusterEngine.polymer_activity

    def counted(self, support):
        if self._key(support) not in self._activity_cache:
            computed.append(support)
        return original(self, support)

    monkeypatch.setattr(ClusterEngine, "polymer_activity", counted)
    spec, model, options = _model(PAIR_RUN_CONFIGS[name])
    source_free = model.source_free(options)
    for pair in _pairs(spec):
        source_free.assemble(model.sources(pair))
    asked = {source_free._key(support) for support in source_free.candidates}
    assert len(computed) == len(source_free._activity_cache) == len(asked) == classes
    assert all(source_free._key(key) == key for key in source_free._activity_cache)


@pytest.mark.parametrize("g", [0.05, 0.2])
def test_source_free_engine_gives_the_series_constant(g):
    """log Z(0) from the source-free engine alone: it is the constant of
    every exact pair run's series.  Measured: 6.6e-12 relative at g = 0.05
    and 1.9e-11 at g = 0.2."""
    cfg = RunConfig(g=g)
    spec, cov = pipeline.lattice_objects(cfg)
    model = pipeline.lattice_model(cfg, spec, cov)
    free, report = model.source_free(pipeline.engine_options(cfg)).assemble()
    assert set(free.element.terms) == {0} and report.exact
    for target in pipeline.representative_targets(spec):
        series, _ = pipeline.pair_series(cfg, spec, model, spec.sites[0], target)
        assert free.constant == pytest.approx(series.constant, rel=1e-10, abs=0)


def test_an_engine_with_a_source_free_engine_takes_only_source_items():
    """The source-free engine owns the eta-free items: its linear response
    takes a pair's source items alone and refuses any other item."""
    spec, model, options = _model(PAIR_RUN_CONFIGS["truncated-L3"])
    source_free = model.source_free(options)
    pair = (spec.sites[0], spec.sites[-1])
    with pytest.raises(ValueError, match="only source items"):
        source_free.assemble(model.interaction(pair))
    universe, sources = model.sources(pair)
    psi_block = universe.psi_block_mask

    def site_of(mask):
        return {g.site for g in universe.indices_of(mask & psi_block)}

    two_sites = next(a | b for a in sources.terms for b in sources.terms
                     if not a & b and site_of(a) != site_of(b))
    # a psi-bar eta item off the source sites would make a region without
    # one depend on the sources; a psi-bar eta-bar item is not charge-neutral
    off_site = universe.bit(psi(spec.sites[1], bar=True)) | universe.bit(eta(pair[0]))
    not_neutral = universe.bit(psi(pair[0], bar=True)) | universe.bit(eta(pair[0], bar=True))
    quartic = next(iter(model.psi_element().terms))
    for item in (two_sites, off_site, not_neutral, quartic):
        with pytest.raises(ValueError, match="only source items"):
            source_free.assemble((universe, GrassmannElement({item: 1.0})))


SHORTCUT_RUNS = {
    "default": (RunConfig(), None),
    "truncated-L3": (PAIR_RUN_CONFIGS["truncated-L3"], None),
    "truncated-L4": (PAIR_RUN_CONFIGS["truncated-L4"], None),
    "truncated-L3-free": (RunConfig(L=3, m_f=3.0, g=0.0, mode="truncated"), None),
    "off-origin": (PAIR_RUN_CONFIGS["truncated-L3"], [((1, 2), (2, 0))]),
}


@pytest.mark.parametrize("name", SHORTCUT_RUNS)
def test_source_items_add_only_their_sites_to_the_source_free_closure(name):
    """The closure of a pair's whole interaction is the source-free
    engine's plus the one-site supports of the source items, and its items
    are the source-free engine's and the sources.  Those supports off the
    source sites and outside the source-free closure have K0 = 0, so
    ``assemble(pair)`` adds only the source sites to the closure; at g = 0
    the source-free closure is empty.  A truncated run's series agrees with
    that of the whole interaction capped at eta degree 2 within 1e-12 of
    the largest coefficient past the constant; measured: 8.5e-16 on
    truncated L = 3, 1.1e-15 on L = 4, 8.5e-16 off the origin, 0 at g = 0."""
    cfg, pairs = SHORTCUT_RUNS[name]
    spec, model, options = _model(cfg)
    source_free = model.source_free(options)
    for pair in _pairs(spec, pairs):
        universe, sources = model.sources(pair)
        full = ClusterEngine(*model.interaction(pair), options)
        psi_block = universe.psi_block_mask
        singles = {f(g.site for g in universe.indices_of(mask & psi_block))
                   for mask in sources.terms}
        assert full.candidates == sorted({*source_free.candidates, *singles},
                                         key=clusters._by_size)
        everywhere = f(site for site, _, _ in universe.psi_modes)
        assert sorted(full._items_within(everywhere)) == sorted(
            [*source_free._items_within(everywhere), *sources.terms.items()])
        taken = {*source_free.candidates, *(f([site]) for site in _source_sites(full))}
        for support in singles - taken:
            assert not _max_abs(full.polymer_activity(support))
        if cfg.mode == "exact":
            continue
        element = source_free.assemble((universe, sources))[0].element
        expected = _CappedEngine(*model.interaction(pair), options).assemble()[0].element
        scale = max(abs(c) for m, c in expected.terms.items() if m)
        for mask in set(element.terms) | set(expected.terms):
            difference = element.terms.get(mask, 0j) - expected.terms.get(mask, 0j)
            assert abs(difference) <= 1e-12 * scale


def test_a_free_truncated_pair_run_is_the_covariance():
    """At g = 0 the source-free closure is empty, so ``assemble(pair)``
    takes the one-site supports of the source sites as its only polymers,
    and the two-point function of each pair is S, probed with unit sources."""
    cfg = SHORTCUT_RUNS["truncated-L3-free"][0]
    spec, model, options = _model(cfg)
    assert not model.source_free(options).candidates
    origin = spec.sites[0]
    for target in pipeline.representative_targets(spec):
        series, _ = pipeline.pair_series(cfg, spec, model, origin, target)
        for alpha, beta in itertools.product(range(spec.spinor_dim), repeat=2):
            got = truncated_two_point(series, pipeline.probe_coupling(cfg), origin, target,
                                      alpha, beta)
            want = model.cov.entry(origin, target, alpha, beta)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


LINEAR_RESPONSE_RUNS = {
    "truncated-L3": (PAIR_RUN_CONFIGS["truncated-L3"], None),
    "truncated-L4": (PAIR_RUN_CONFIGS["truncated-L4"], None),
    "off-origin": (PAIR_RUN_CONFIGS["truncated-L3"], [((1, 2), (2, 0))]),
    "L2-N2": (RunConfig(N=2, mode="truncated"), None),
    "d3-L3": (RunConfig(d=3, L=3, m_f=3.0, mode="truncated"), None),
}


def _mapped_terms(response, shift, constant, matrix, cols):
    """constant + K matrix Λ^T as a pair's Grassmann terms, the matrix over
    the psi modes at ``cols``."""
    bar, unbar, masks, signs = response
    products = signs * (bar[:, cols] @ matrix @ unbar[:, cols].T)
    return {0: constant, **{int(m) << shift: c for m, c in
                            zip(masks.ravel().tolist(), products.ravel().tolist()) if c}}


def _assert_terms_close(terms, expected, scale):
    for mask in set(terms) | set(expected):
        assert abs(terms.get(mask, 0j) - expected.get(mask, 0j)) <= 1e-12 * scale


@pytest.mark.parametrize("name", LINEAR_RESPONSE_RUNS)
def test_linear_response_gives_every_source_region_its_integral(name):
    """A truncated pair run maps each activity that meets the sources from
    the source-free engine's probe activity of its region class, and the
    source-free engine eliminates once per class.  Against an engine of the
    pair's whole interaction capped at eta degree 2: every source region
    that engine integrates equals its probe integral mapped, and every
    source-meeting activity equals the mapped one, both within 1e-12 of the
    largest coefficient of the region's integral (K0 is a difference of
    products of those), the mapped polymers are that engine's candidates,
    and the series agree within 1e-12 of their largest coefficient past
    the constant, with the same counters.  Measured: 1.1e-16, 1.1e-16 and
    9.5e-14 at worst, all on L2-N2."""
    cfg, pairs = LINEAR_RESPONSE_RUNS[name]
    spec, model, options = _model(cfg)
    source_free = model.source_free(options)
    regions = activities = 0
    for pair, full in zip(_pairs(spec, pairs), _full_engines(cfg, pairs)):
        universe, pair_sources = model.sources(pair)
        response = clusters._source_response(universe, pair_sources)
        shift = universe.n_psi_bits
        sources = _source_sites(full)
        for region, z in full._exp_cache.items():
            if region & sources:
                regions += 1
                _, matrix, cols = source_free._probe(
                    source_free._probe_cache, source_free._probe_integral, region)
                constant = source_free._restricted_exp(region).constant
                _assert_terms_close(_mapped_terms(response, shift, constant, matrix, cols),
                                    z.terms, max(map(abs, z.terms.values())))
        supports, s, top, basis = source_free._mapped_polymers(
            full.candidates, universe, pair_sources)
        assert supports == full.candidates
        for support, constant, row in zip(supports, s.tolist(), top.tolist()):
            if support & sources:
                activities += 1
                mapped = {0: constant, **{int(m) << shift: c for m, c in zip(basis, row) if c}}
                scale = max(map(abs, full._restricted_exp(support).terms.values()))
                _assert_terms_close(mapped, full.polymer_activity(support).terms, scale)
        (series, report), (expected, expected_report) = (
            source_free.assemble((universe, pair_sources)), full.assemble())
        _assert_reports_agree(report, expected_report)
        _assert_terms_close(series.element.terms, expected.element.terms,
                            max(abs(c) for m, c in expected.element.terms.items() if m))
    assert regions and activities
    assert source_free.integrals_computed == (
        len([key for key in source_free._exp_cache if key]) + len(source_free._probe_cache))


@pytest.mark.parametrize("name", [*PAIR_RUN_CONFIGS, "exact-g0.2"])
def test_the_pair_runs_of_an_experiment_share_one_ursell_memo(monkeypatch, name):
    """rho^T depends on the multiset and the adjacency alone, and every pair
    run here keeps the same supports, so every engine of an experiment fills
    the model's one table, with one adjacency entry."""
    engines = []
    original = ClusterEngine.__init__

    def recorded(self, *args, **kwargs):
        original(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(ClusterEngine, "__init__", recorded)
    cfg = RunConfig(g=0.2) if name == "exact-g0.2" else PAIR_RUN_CONFIGS[name]
    spec, model, _ = _model(cfg)
    pipeline.run_correlations(cfg, spec, model, False, pipeline.representative_targets(spec))
    assert engines and all(engine._ursell_memos is model.ursell_memos for engine in engines)
    assert len(model.ursell_memos) == 1


def _count_builds(monkeypatch, cfg):
    """The calls of ``Model.psi_element``, ``ClusterEngine._candidate_supports``
    and ``ClusterEngine.__init__`` in a run of ``cfg``, and its model."""
    calls = collections.Counter()
    for owner, name in ((Model, "psi_element"), (ClusterEngine, "_candidate_supports"),
                        (ClusterEngine, "__init__")):
        def counted(self, *args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    spec, model, _ = _model(cfg)
    pipeline.run_correlations(cfg, spec, model, False, pipeline.representative_targets(spec))
    return calls, model


def test_a_truncated_experiment_builds_the_quartic_part_and_its_closure_once(monkeypatch):
    """A truncated experiment builds one engine, the source-free engine, so
    the quartic element and the support closure once; every pair run is
    that engine's ``assemble(pair)``."""
    calls, model = _count_builds(monkeypatch, PAIR_RUN_CONFIGS["truncated-L4"])
    assert calls == {"psi_element": 1, "_candidate_supports": 1, "__init__": 1}
    assert len(model._source_free) == 1


def test_an_exact_experiment_builds_one_engine_per_pair_run(monkeypatch):
    """An exact 2x2 experiment makes two pair runs (it reads the origin's
    rows off the nearest pair's), each an engine of the whole interaction
    that integrates its source regions itself, and builds no source-free
    engine."""
    calls, model = _count_builds(monkeypatch, RunConfig())
    assert calls == {"psi_element": 2, "_candidate_supports": 2, "__init__": 2}
    assert not model._source_free


def test_a_third_source_site_keeps_the_retained_coefficients():
    """Restricting the sources is setting the others to zero: on exact 2x2,
    a third source site leaves every coefficient of the (origin, far
    corner) pair, constant included.  Measured: 2.2e-19 absolute for the
    oracle, 2.5e-15 for the engine (6.5e-16 without the constant)."""
    spec, model, options = _model(RunConfig())
    pair = (spec.sites[0], spec.sites[-1])
    triple = (spec.sites[0], spec.sites[1], spec.sites[-1])

    def retained(series):
        return {key: value for key, value in series.coefficients()
                if all(g.site in pair for g in key[1])}

    for run in (lambda sites: log_direct(*model.interaction(sites)),
                lambda sites: ClusterEngine(*model.interaction(sites), options).assemble()[0]):
        two, three = retained(run(pair)), retained(run(triple))
        assert len(two) > 1 and set(two) == set(three)
        assert max(abs(two[key] - three[key]) for key in two) <= 1e-14


def test_translation_class_representative():
    engine = ClusterEngine(universe_for(LatticeSpec(L=3), ()), GrassmannElement(), side=3)
    pair = f({(0, 1), (2, 1)})
    translates = {f(((a + t0) % 3, (b + t1) % 3) for a, b in pair)
                  for t0 in range(3) for t1 in range(3)}
    assert {engine._key(r) for r in translates} == {f({(0, 0), (1, 0)})}
    assert engine._key(f({(2, 2)})) == f({(0, 0)})
    assert engine._key(f({(0, 0), (0, 1)})) != engine._key(pair)
    assert ClusterEngine(engine.universe, GrassmannElement())._key(pair) == pair


def test_experiments_in_one_process_match_fresh_processes():
    """The source-free engine belongs to one experiment's model: two
    different experiments in one process give the bytes of fresh ones."""
    code = (
        "import sys\n"
        "from fermicluster.config import RunConfig\n"
        "from fermicluster.pipeline import run_experiment\n"
        "from fermicluster.reports import render_report\n"
        "configs = [RunConfig(L=3, m_f=3.0, g=0.05, mode='truncated'), RunConfig()]\n"
        "for i in map(int, sys.argv[1:]):\n"
        "    sys.stdout.write(render_report(run_experiment(configs[i])[0]))\n"
    )

    def run(*indices):
        proc = subprocess.run([sys.executable, "-c", code, *map(str, indices)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    alone = run(0), run(1)
    assert run(0, 1) == alone[0] + alone[1]
    assert run(1, 0) == alone[1] + alone[0]


def test_each_pair_run_logs_its_integral_counts(caplog):
    cfg = PAIR_RUN_CONFIGS["truncated-L3"]
    spec, cov = pipeline.lattice_objects(cfg)
    model = pipeline.lattice_model(cfg, spec, cov)
    with caplog.at_level(logging.DEBUG, logger="fermicluster.clusters"):
        pipeline.run_correlations(cfg, spec, model, False, pipeline.representative_targets(spec))
    lines = [r.getMessage() for r in caplog.records if r.name == "fermicluster.clusters"]
    assert lines == [
        "source-free engine: 369 items, 45 candidates",
        "45 candidates, 10 restricted integrals computed; probe classes: 5 computed; "
        "9 of 45 polymers meet the sources; eta sector: r = 5, 78 entries, rank-one",
        "45 candidates, 0 restricted integrals computed; probe classes: 0 computed; "
        "17 of 45 polymers meet the sources; eta sector: r = 17, 183 entries, rank-one",
        "45 candidates, 0 restricted integrals computed; probe classes: 0 computed; "
        "17 of 45 polymers meet the sources; eta sector: r = 17, 183 entries, rank-one",
    ]


@pytest.mark.parametrize("cfg", [
    RunConfig(L=4, m_f=3.0, mode="truncated"),
    RunConfig(L=3, N=2, m_f=3.0, mode="truncated"),
    RunConfig(d=3, L=3, m_f=3.0, mode="truncated"),
], ids=["L4", "N2", "d3"])
def test_every_truncated_pair_run_takes_the_rank_one_kernel(caplog, cfg):
    """Under the default eta cap of 2, every pair run's descent takes its
    children from the rank-one kernel, so no truncated descent calls BLAS."""
    with caplog.at_level(logging.DEBUG, logger="fermicluster.clusters"):
        payload, _ = pipeline.run_experiment(cfg)
    kernels = [r.getMessage().rsplit(", ", 1)[1] for r in caplog.records
               if "eta sector" in r.getMessage()]
    assert kernels == ["rank-one"] * payload["expansion"]["runs"]


def test_a_default_run_leaves_logging_unimported():
    code = (
        "import sys\n"
        "from fermicluster.config import RunConfig\n"
        "from fermicluster.pipeline import run_experiment\n"
        "run_experiment(RunConfig(L=3, m_f=3.0, mode='truncated'))\n"
        "assert 'logging' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
