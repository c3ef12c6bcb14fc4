"""Cluster engine tests: Ursell factors, activities, and the resummed log."""

import collections
import dataclasses
import itertools
import logging
import math
import random
import subprocess
import sys

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
from fermicluster.grossneveu import LatticeSpec, Model, universe_for
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


@pytest.mark.parametrize("seed", [0, 9, 27])
def test_capped_activity_is_restricted_activity(three_site_universe, seed):
    """An eta degree cap keeps exactly the low-degree terms of every K0."""
    sites, eta_sites, u = three_site_universe
    # twice the default psi-eta terms: these seeds reach eta degree 4
    element = _random_even_system(random.Random(seed), sites, eta_sites,
                                  n_source=8).to_element(u)
    full = ClusterEngine(u, element)
    capped = ClusterEngine(u, element, ClusterOptions(eta_degree_cap=2))
    assert capped.candidates == full.candidates
    assert len(full.candidates) >= 3
    dropped = 0
    for support in full.candidates:
        k0 = full.polymer_activity(support)
        kept = _eta_capped(u, k0, 2)
        dropped += len(k0) - len(kept)
        assert _max_abs(capped.polymer_activity(support) - kept) < 1e-12
    assert dropped  # the cap bites


@pytest.mark.parametrize("eta_cap", [None, 2], ids=["exact", "truncated"])
@pytest.mark.parametrize("seed", [7, 21])
def test_polymer_identity_on_every_region(three_site_universe, seed, eta_cap):
    """Z(X), the integral of exp(f|X) by the literal route, equals the sum
    over families of disjoint candidates in X of their activities' product;
    under an eta degree cap, both sides agree on the kept terms."""
    sites, eta_sites, u = three_site_universe
    system = _random_even_system(random.Random(seed), sites, eta_sites)
    element = system.to_element(u)
    engine = ClusterEngine(u, element, ClusterOptions(eta_degree_cap=eta_cap))
    psi_block = u.psi_block_mask
    supports = {mask: f(g.site for g in u.indices_of(mask & psi_block))
                for mask in element.terms if mask & psi_block}
    for size in range(len(sites) + 1):
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
            diff = _eta_capped(u, families - literal, eta_cap)
            assert _max_abs(diff) < 1e-12, (region, eta_cap)


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


def test_truncated_mode_never_reports_exact(three_site_universe):
    sites, eta_sites, u = three_site_universe
    system = _random_even_system(random.Random(2), sites, eta_sites)
    for options in (ClusterOptions(max_polymer_sites=3), ClusterOptions(eta_degree_cap=4)):
        _, report = ClusterEngine(u, system.to_element(u), options).assemble()
        assert report.mode == "truncated"
        assert not report.exact


def test_eta_cap_exact_on_retained_sector(three_site_universe):
    sites, eta_sites, u = three_site_universe
    system = _random_even_system(random.Random(31), sites, eta_sites, n_source=8)
    full, _ = ClusterEngine(u, system.to_element(u),
                            ClusterOptions(n_max=40, floor=1e-16)).assemble()
    capped, _ = ClusterEngine(
        u,
        system.to_element(u),
        ClusterOptions(n_max=40, floor=1e-16, eta_degree_cap=2),
    ).assemble()
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
    options = ClusterOptions(max_polymer_sites=2, eta_degree_cap=2)
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


@pytest.mark.parametrize("eta_cap", [None, 2], ids=["exact", "truncated"])
@pytest.mark.parametrize("seed", [7, 21])
def test_sector_matrices_are_products_with_each_activity(three_site_universe, seed,
                                                         eta_cap):
    """Row m of matrix j is the monomial m times activity j, on the basis."""
    sites, eta_sites, u = three_site_universe
    system = _random_even_system(random.Random(seed), sites, eta_sites, n_source=8)
    engine = ClusterEngine(u, system.to_element(u), ClusterOptions(eta_degree_cap=eta_cap))
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
            assert all(mask in masks for mask, c in product.items()
                       if eta_cap is None or mask.bit_count() <= eta_cap)
            assert matrix[row].tolist() == [product.get(n, 0j) for n in masks]


def _assemble_by_route(monkeypatch, dense, universe, f, options):
    """``assemble`` on the dense eta-sector route or on the sparse one."""
    with monkeypatch.context() as patch:
        if dense:
            def no_sparse(self, polymers):
                raise AssertionError("dense route fell back to sparse products")

            patch.setattr(ClusterEngine, "_sparse_descent", no_sparse)
        else:
            patch.setattr(clusters, "DENSE_MAX_ENTRIES", 0)
        return ClusterEngine(universe, f, options).assemble()


def _assert_routes_agree(monkeypatch, universe, f, options):
    dense, dense_report = _assemble_by_route(monkeypatch, True, universe, f, options)
    sparse, sparse_report = _assemble_by_route(monkeypatch, False, universe, f, options)
    assert _max_abs(dense.element - sparse.element) < 1e-14
    for field in ("polymer_count", "cluster_count", "clusters_visited", "n_reached",
                  "exact"):
        assert getattr(dense_report, field) == getattr(sparse_report, field), field
    assert abs(dense_report.tail - sparse_report.tail) < 1e-15


@pytest.mark.parametrize("eta_cap", [None, 2], ids=["exact", "truncated"])
@pytest.mark.parametrize("seed", [7, 21, 99])
def test_dense_and_sparse_descents_agree(three_site_universe, monkeypatch, seed, eta_cap):
    sites, eta_sites, u = three_site_universe
    system = _random_even_system(random.Random(seed), sites, eta_sites, n_source=8)
    options = ClusterOptions(n_max=40, floor=1e-16, eta_degree_cap=eta_cap)
    _assert_routes_agree(monkeypatch, u, system.to_element(u), options)


def test_default_pair_runs_take_the_dense_route_and_match_sparse(monkeypatch):
    cfg = RunConfig()
    spec, cov = pipeline.lattice_objects(cfg)
    model = pipeline.lattice_model(cfg, spec, cov)
    origin = spec.sites[0]
    targets = pipeline.representative_targets(spec)
    assert len(targets) == 3
    for target in targets:
        universe, f = model.interaction((origin, target))
        _assert_routes_agree(monkeypatch, universe, f, pipeline.engine_options(cfg))


# ------------------------------------------------------ source-free engine

PAIR_RUN_CONFIGS = {
    "default": RunConfig(),
    "truncated-L3": RunConfig(L=3, m_f=3.0, g=0.05, mode="truncated"),
    "truncated-L4": RunConfig(L=4, m_f=3.0, g=0.05, mode="truncated"),
}


def _model(cfg):
    spec, cov = pipeline.lattice_objects(cfg)
    return spec, pipeline.lattice_model(cfg, spec, cov), pipeline.engine_options(cfg)


def _pair_engines(cfg, shared=True, pairs=None):
    """The source-free engine of ``cfg``'s model and the assembled engine of
    every pair run (default: the origin with each representative target),
    taking the pair's source items and reading that engine, or, unless
    ``shared``, taking the whole interaction and computing everything itself."""
    spec, model, options = _model(cfg)
    source_free = model.source_free(options)
    engines = []
    for pair in pairs or [(spec.sites[0], t) for t in pipeline.representative_targets(spec)]:
        if shared:
            engine = ClusterEngine(*model.sources(pair), options, source_free)
        else:
            engine = ClusterEngine(*model.interaction(pair), options)
        engine.assemble()
        engines.append(engine)
    return source_free, engines


def _source_sites(engine):
    return {site for site, _, _ in engine.universe.eta_modes}


def _region_element(engine, region):
    """f restricted to the supports within ``region``: every item, sources included."""
    return GrassmannElement(dict(engine._items_within(region)))


@pytest.mark.parametrize("name", PAIR_RUN_CONFIGS)
def test_shared_source_free_integral_is_the_full_restricted_integral(name):
    """The charge argument, checked: on every region without a source site
    that the pair runs read when they share nothing, the source-free engine
    gives the same Z as all of the region's own items, the smeared sources
    away from the source sites included."""
    source_free, engines = _pair_engines(PAIR_RUN_CONFIGS[name], shared=False)
    checked = with_sources = 0
    for engine in engines:
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
    """The charge argument for activities: K0 of every source-free candidate
    of the pair runs is a scalar from the source-free engine, equal to the
    K0 an engine builds from all of that run's items.  Measured worst
    relative difference: 5.6e-11 on the exact 2x2 runs, 0 on the truncated."""
    source_free, engines = _pair_engines(PAIR_RUN_CONFIGS[name])
    _, full_engines = _pair_engines(PAIR_RUN_CONFIGS[name], shared=False)
    checked = 0
    for engine, full in zip(engines, full_engines):
        for support in engine.candidates:
            if support & _source_sites(engine):
                continue
            shared = source_free.polymer_activity(support)
            expected = full.polymer_activity(support)
            assert set(shared.terms) == {0}
            assert shared.constant == pytest.approx(expected.constant, rel=1e-9, abs=0)
            checked += 1
    assert checked > 0


def test_capping_inside_elimination_matches_capping_at_the_end():
    """Every region of the truncated L = 3 pair runs, sources included, as
    the runs read them when they share nothing."""
    _, engines = _pair_engines(PAIR_RUN_CONFIGS["truncated-L3"], shared=False)
    checked = 0
    for engine in engines:
        u = engine.universe
        cap = engine.options.eta_degree_cap
        for region in engine._exp_cache:
            element = _region_element(engine, region)
            if not element.terms:
                continue
            full = clusters.effective_log_integral(u, element)
            in_loop = clusters.effective_log_integral(u, element, cap)
            assert in_loop.terms == pytest.approx(_eta_capped(u, full, cap).terms,
                                                  rel=1e-15, abs=0)
            assert engine._eliminated(u, engine._items_within(region)).terms == pytest.approx(
                _eta_capped(u, exp_series(full), cap).terms, rel=1e-15, abs=0)
            checked += 1
    assert checked == 135


@pytest.mark.parametrize("name, eliminations, classes", [
    ("default", 37, 5), ("truncated-L3", 16, 5), ("truncated-L4", 31, 10)])
def test_each_source_free_class_is_eliminated_once_per_experiment(
        monkeypatch, name, eliminations, classes):
    """Without the source-free engine the same runs eliminate 45, 135 and 816
    times, and without its marked classes 37, 48 and 181.  Under a cap of 2
    the source-free engine runs every elimination: one per unmarked class and
    one per marked class."""
    calls = []
    original = clusters.effective_log_integral

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(clusters, "effective_log_integral", counted)
    source_free, engines = _pair_engines(PAIR_RUN_CONFIGS[name])
    assert len(calls) == eliminations
    assert len([key for key in source_free._exp_cache if key]) == classes
    marked = len(source_free._marked_cache)
    assert source_free.integrals_computed == classes + marked
    assert (source_free.integrals_computed
            + sum(engine.integrals_computed for engine in engines)) == eliminations
    if PAIR_RUN_CONFIGS[name].mode == "truncated":
        assert all(engine.integrals_computed == 0 for engine in engines)
    else:
        assert marked == 0
    # the first run computes every unmarked class and later runs read them all
    assert all(engine._shared_before - engine._marked_before == classes
               for engine in engines[1:])


@pytest.mark.parametrize("name, classes", [
    ("default", 5), ("truncated-L3", 5), ("truncated-L4", 10)])
def test_each_source_free_activity_is_computed_once_per_class(monkeypatch, name, classes):
    capped = []
    original = ClusterEngine._capped

    def counted(self, value):
        if self.side is not None:
            capped.append(value)
        return original(self, value)

    # the source-free engine caps f once when it is built, and each activity
    # it computes once, as the activity's last step
    monkeypatch.setattr(ClusterEngine, "_capped", counted)
    source_free, engines = _pair_engines(PAIR_RUN_CONFIGS[name])
    asked = {source_free._key(support) for engine in engines for support in engine.candidates
             if not support & _source_sites(engine)}
    assert len(capped) - 1 == len(source_free._activity_cache) == len(asked) == classes
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
    """The source-free engine owns the eta-free items: handed the whole
    interaction, a pair engine would count every quartic item twice."""
    spec, model, options = _model(RunConfig())
    source_free = model.source_free(options)
    pair = (spec.sites[0], spec.sites[-1])
    with pytest.raises(ValueError, match="only source items"):
        ClusterEngine(*model.interaction(pair), options, source_free)
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
    for item in (two_sites, off_site, not_neutral):
        with pytest.raises(ValueError, match="only source items"):
            ClusterEngine(universe, GrassmannElement({item: 1.0}), options, source_free)


@pytest.mark.parametrize("name", PAIR_RUN_CONFIGS)
def test_a_pair_engine_indexes_only_its_own_source_items(name):
    """A pair engine keeps no copy of the quartic items: its support index
    holds exactly its source items, each on one site and with one psi bit,
    and it reads every other item from the source-free engine."""
    spec, model, options = _model(PAIR_RUN_CONFIGS[name])
    source_free = model.source_free(options)
    for target in pipeline.representative_targets(spec):
        universe, sources = model.sources((spec.sites[0], target))
        engine = ClusterEngine(universe, sources, source_free=source_free)
        held = [item for items in engine._by_support.values() for item in items]
        assert dict(held) == sources.terms and len(held) == len(sources.terms)
        assert all(len(sup) == 1 for sup in engine._by_support)
        assert all((mask & universe.psi_block_mask).bit_count() == 1 for mask, _ in held)
        everywhere = frozenset(site for site, _, _ in universe.psi_modes)
        assert (len(engine._items_within(everywhere))
                == len(held) + len(source_free._items_within(everywhere)))


def test_a_pair_engine_runs_under_its_source_free_engines_options():
    """Options that differ from the source-free engine's would mix two caps
    in one expansion (3-site polymers over a 2-site closure, say), so they
    raise; without options a pair engine takes the source-free engine's."""
    spec, model, options = _model(PAIR_RUN_CONFIGS["truncated-L3"])
    source_free = model.source_free(options)
    universe, sources = model.sources((spec.sites[0], spec.sites[1]))
    assert ClusterEngine(universe, sources, source_free=source_free).options == options
    assert ClusterEngine(universe, sources, options, source_free).options == options
    for other in (dataclasses.replace(options, max_polymer_sites=3),
                  dataclasses.replace(options, eta_degree_cap=4),
                  dataclasses.replace(options, floor=options.floor / 2), ClusterOptions()):
        with pytest.raises(ValueError, match="options"):
            ClusterEngine(universe, sources, other, source_free)


SHORTCUT_RUNS = {
    "default": (RunConfig(), None),
    "truncated-L3": (PAIR_RUN_CONFIGS["truncated-L3"], None),
    "truncated-L4": (PAIR_RUN_CONFIGS["truncated-L4"], None),
    "truncated-L3-free": (RunConfig(L=3, m_f=3.0, g=0.0, mode="truncated"), None),
    "off-origin": (PAIR_RUN_CONFIGS["truncated-L3"], [((1, 2), (2, 0))]),
}


@pytest.mark.parametrize("name", SHORTCUT_RUNS)
def test_source_items_add_only_their_sites_to_the_source_free_closure(name):
    """A pair engine's candidates are the source-free engine's plus its
    one-site source supports: the closure an engine of the whole
    interaction runs gives the same list, and the same items and series.
    Capped runs read source regions by linear response, so their series
    agree within 1e-12 of the largest coefficient past the constant;
    measured: 6.4e-16 on truncated L = 3, 2.4e-15 on L = 4, 9.4e-18 off the
    origin, 0 at g = 0."""
    cfg, pairs = SHORTCUT_RUNS[name]
    _, engines = _pair_engines(cfg, pairs=pairs)
    _, full_engines = _pair_engines(cfg, shared=False, pairs=pairs)
    for engine, full in zip(engines, full_engines):
        assert engine.candidates == full.candidates
        everywhere = frozenset(site for site, _, _ in engine.universe.psi_modes)
        assert sorted(engine._items_within(everywhere)) == sorted(full._items_within(everywhere))
        element, full_element = engine.assemble()[0].element, full.assemble()[0].element
        if cfg.mode == "exact":
            assert element.terms == full_element.terms
            continue
        scale = max(abs(c) for m, c in full_element.terms.items() if m)
        for mask in set(element.terms) | set(full_element.terms):
            difference = element.terms.get(mask, 0j) - full_element.terms.get(mask, 0j)
            assert abs(difference) <= 1e-12 * scale


LINEAR_RESPONSE_RUNS = {
    "truncated-L3": (PAIR_RUN_CONFIGS["truncated-L3"], None),
    "truncated-L4": (PAIR_RUN_CONFIGS["truncated-L4"], None),
    "off-origin": (PAIR_RUN_CONFIGS["truncated-L3"], [((1, 2), (2, 0))]),
    "L2-N2": (RunConfig(N=2, mode="truncated"), None),
    "d3-L3": (RunConfig(d=3, L=3, m_f=3.0, mode="truncated"), None),
}


@pytest.mark.parametrize("name", LINEAR_RESPONSE_RUNS)
def test_linear_response_gives_every_source_region_its_integral(name):
    """Under a cap of 2, every region with a source site that a pair run
    reads comes from the source-free engine's marked classes; each equals
    the pair engine's own elimination within 1e-12 of the region's largest
    coefficient.  Measured: 2.2e-19 at worst."""
    cfg, pairs = LINEAR_RESPONSE_RUNS[name]
    _, engines = _pair_engines(cfg, pairs=pairs)
    checked = 0
    for engine in engines:
        assert engine._linear and engine.integrals_computed == 0
        for region, z in list(engine._exp_cache.items()):
            if not region & _source_sites(engine):
                continue
            expected = engine._eliminated(engine.universe, engine._items_within(region))
            scale = max(abs(c) for c in expected.terms.values())
            assert len(expected) > 1
            for mask in set(z.terms) | set(expected.terms):
                assert abs(z.terms.get(mask, 0j) - expected.terms.get(mask, 0j)) <= 1e-12 * scale
            checked += 1
    assert checked > 0


def test_higher_caps_and_exact_runs_integrate_source_regions_per_pair():
    """Past a cap of 2 the probe sector outgrows the pair's, so those runs,
    like exact ones, eliminate each source region in the pair engine."""
    for cfg in (RunConfig(), RunConfig(L=3, m_f=3.0, mode="truncated", eta_cap=4)):
        source_free, engines = _pair_engines(cfg)
        assert not source_free._marked_cache
        assert all(not engine._linear and engine.integrals_computed for engine in engines)


def test_a_truncated_experiment_builds_the_quartic_part_and_its_closure_once(monkeypatch):
    """Only the source-free engine builds the quartic element and runs the
    support closure; the pair engines take its candidates."""
    calls = collections.Counter()
    for owner, name in ((Model, "psi_element"), (ClusterEngine, "_candidate_supports")):
        def counted(self, *args, _name=name, _original=getattr(owner, name)):
            if isinstance(self, Model) or self.source_free is None:
                calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counted)
    pipeline.run_experiment(PAIR_RUN_CONFIGS["truncated-L4"])
    assert calls == {"psi_element": 1, "_candidate_supports": 1}


def test_a_third_source_site_keeps_the_retained_coefficients():
    """Restricting the sources is setting the others to zero: on exact 2x2,
    a third source site leaves every coefficient of the (origin, far
    corner) pair, constant included.  Measured: 2.2e-19 absolute for the
    oracle, 2.5e-15 for the engine (6.5e-16 without the constant)."""
    spec, model, options = _model(RunConfig())
    source_free = model.source_free(options)
    pair = (spec.sites[0], spec.sites[-1])
    triple = (spec.sites[0], spec.sites[1], spec.sites[-1])

    def retained(series):
        return {key: value for key, value in series.coefficients()
                if all(g.site in pair for g in key[1])}

    for run in (lambda sites: log_direct(*model.interaction(sites)),
                lambda sites: ClusterEngine(*model.sources(sites), source_free=source_free)
                .assemble()[0]):
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
        "45 candidates, 0 restricted integrals computed, 14 by the source-free engine; "
        "marked classes: 9 computed, 9 read",
        "45 candidates, 0 restricted integrals computed, 1 by the source-free engine; "
        "marked classes: 1 computed, 10 read",
        "45 candidates, 0 restricted integrals computed, 1 by the source-free engine; "
        "marked classes: 1 computed, 10 read",
    ]


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
