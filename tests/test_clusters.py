"""Cluster engine tests: Ursell factors, activities, and the resummed log."""

import math
import random

import pytest

from fermicluster.berezin import log_direct
from fermicluster.clusters import (
    ClusterEngine,
    ClusterOptions,
    _components,
    assemble_b,
    ursell_factor,
)
from fermicluster.coeffsys import CoefficientSystem
from fermicluster.errors import ParityError
from fermicluster.generators import GeneratorUniverse, eta, psi
from oracles import ursell_adjacency

f = frozenset


def _max_abs(element) -> float:
    return max((abs(c) for c in element.terms.values()), default=0.0)


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


# ------------------------------------------------------- scalar polymer gas


def test_single_polymer_reproduces_log1p():
    u = GeneratorUniverse([((0,), 0, 0)])
    system = CoefficientSystem()
    system.add((psi((0,), bar=True), psi((0,))), (), 0.3)
    series, report = assemble_b(u, system, ClusterOptions(n_max=40))
    assert report.exact
    assert series.constant == pytest.approx(math.log(1.3), rel=1e-12)


def test_disjoint_polymers_add_logs():
    u = GeneratorUniverse([((0,), 0, 0), ((5,), 0, 0)])
    system = CoefficientSystem()
    system.add((psi((0,), bar=True), psi((0,))), (), 0.25)
    system.add((psi((5,), bar=True), psi((5,))), (), -0.4)
    series, report = assemble_b(u, system, ClusterOptions(n_max=60))
    assert report.exact
    expected = math.log(1.25) + math.log(0.6)
    assert series.constant == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------ random systems


def _random_even_system(rng, sites, eta_sites, scale=0.2):
    system = CoefficientSystem()
    psis = [psi(s, bar=b) for s in sites for b in (True, False)]
    etas = [eta(s, bar=b) for s in eta_sites for b in (True, False)]
    for _ in range(6):
        a, b = rng.sample(psis, 2)
        system.add((a, b), (), scale * (rng.random() - 0.5))
    for _ in range(4):
        a, b, c, d = rng.sample(psis, 4)
        system.add((a, b, c, d), (), scale * (rng.random() - 0.5))
    for _ in range(4):
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
    system = _random_even_system(rng, sites, eta_sites)
    oracle = log_direct(u, system.to_element(u))
    series, report = assemble_b(u, system, ClusterOptions(n_max=40, floor=1e-16))
    assert report.exact
    diff = series.element - oracle.element
    scale = max(_max_abs(oracle.element), 1e-30)
    assert _max_abs(diff) / scale < 1e-10
    assert series.odd_masks() == []


def test_activity_routes_agree(three_site_universe):
    sites, eta_sites, u = three_site_universe
    rng = random.Random(3)
    system = _random_even_system(rng, sites, eta_sites)
    exact_engine = ClusterEngine(u, system, ClusterOptions(mode="exact"))
    cover_engine = ClusterEngine(u, system, ClusterOptions(mode="truncated"))
    assert exact_engine.candidates == cover_engine.candidates
    assert len(exact_engine.candidates) >= 3
    for support in exact_engine.candidates:
        diff = exact_engine.polymer_activity(support) - cover_engine.polymer_activity(support)
        assert _max_abs(diff) < 1e-12


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
    whole, _ = assemble_b(u, part_a + part_b, ClusterOptions(n_max=40))
    only_a, _ = assemble_b(u, part_a, ClusterOptions(n_max=40))
    only_b, _ = assemble_b(u, part_b, ClusterOptions(n_max=40))
    diff = whole.element - (only_a.element + only_b.element)
    assert _max_abs(diff) < 1e-12


def test_odd_system_rejected():
    u = GeneratorUniverse([((0,), 0, 0)], [((0,), 0, 0)])
    system = CoefficientSystem()
    system.add((psi((0,), bar=True),), (), 0.5)
    with pytest.raises(ParityError):
        assemble_b(u, system)


def test_single_quadratic_activity_is_plain_coefficient():
    u = GeneratorUniverse([((0,), 0, 0)])
    system = CoefficientSystem()
    system.add((psi((0,), bar=True), psi((0,))), (), 0.125)
    engine = ClusterEngine(u, system)
    k0 = engine.polymer_activity(f({(0,)}))
    assert k0.constant == pytest.approx(0.125)
    assert len(k0) == 1


def test_truncated_mode_never_reports_exact(three_site_universe):
    sites, eta_sites, u = three_site_universe
    system = _random_even_system(random.Random(2), sites, eta_sites)
    _, report = assemble_b(u, system, ClusterOptions(mode="truncated", k_max=3))
    assert not report.exact


def test_eta_cap_exact_on_retained_sector(three_site_universe):
    sites, eta_sites, u = three_site_universe
    system = _random_even_system(random.Random(31), sites, eta_sites)
    full, _ = assemble_b(u, system, ClusterOptions(n_max=40, floor=1e-16))
    capped, _ = assemble_b(
        u,
        system,
        ClusterOptions(
            mode="truncated", n_max=40, floor=1e-16, eta_degree_cap=2
        ),
    )
    psi_block = u.psi_block_mask
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
    series, report = assemble_b(u, system, ClusterOptions(n_max=3))
    assert not report.exact
    assert report.tail > 0
    # three terms of log(1+x)
    partial = 0.5 - 0.25 / 2 + 0.125 / 3
    assert series.constant == pytest.approx(partial, rel=1e-12)


def test_report_dict_round_trip(three_site_universe):
    sites, eta_sites, u = three_site_universe
    system = _random_even_system(random.Random(4), sites, eta_sites)
    _, report = assemble_b(u, system, ClusterOptions(n_max=30))
    payload = report.as_dict()
    assert payload["mode"] == "exact"
    assert payload["polymer_count"] >= 1
    assert payload["cluster_count"] >= payload["polymer_count"]
    assert isinstance(payload["exact"], bool)
