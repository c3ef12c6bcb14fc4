import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicluster.coeffsys import (
    CoefficientSystem,
    onsite_density_quartic,
    source_coupling_bilinear,
)
from fermicluster.generators import eta, psi
from fermicluster.trees import enumerate_trees
from fermicluster.weights import (
    TorusMetric,
    WeightSystem,
    coeff_norm,
    lemma_tree_bound_check,
    log_norm_bound_check,
    logseries_norm,
    tree_length,
    treesum_coeff,
)

METRIC = TorusMetric((8, 8))


# ------------------------------------------------------------------- metric


def test_torus_wraps():
    m = TorusMetric((8, 8))
    assert m.distance((0, 0), (7, 0)) == 1.0
    assert m.distance((1, 1), (1, 5)) == 4.0
    assert m.distance((0, 0), (3, 4)) == 5.0
    assert TorusMetric((8, 8), kind="l1").distance((0, 0), (3, 4)) == 7.0


def test_tree_length_small_sets():
    assert tree_length(METRIC, []) == 0.0
    assert tree_length(METRIC, [(2, 2)]) == 0.0
    assert tree_length(METRIC, [(0, 0), (3, 0)]) == 3.0
    # L-shaped triple: two short legs win over any path through the long leg
    sites = [(0, 0), (2, 0), (0, 1)]
    legs = sorted(METRIC.distance(a, b) for a, b in itertools.combinations(sites, 2))
    assert tree_length(METRIC, sites) == pytest.approx(legs[0] + legs[1])


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=2, max_size=5))
@settings(max_examples=50)
def test_tree_length_matches_brute_force(sites):
    points = list(set(sites))
    n = len(points)
    if n < 2:
        return
    best = math.inf
    for edges in itertools.combinations(itertools.combinations(range(n), 2), n - 1):
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        ok = True
        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            best = min(best, sum(METRIC.distance(points[a], points[b]) for a, b in edges))
    assert tree_length(METRIC, points) == pytest.approx(best)


@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=4),
       st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=4))
@settings(max_examples=50)
def test_weight_submultiplicative_on_overlap(a_sites, b_sites):
    # guarantee overlap by inserting a shared site
    shared = (0, 0)
    a_sites = set(a_sites) | {shared}
    b_sites = set(b_sites) | {shared}
    w = WeightSystem(0.7, 3.0, 2.0, METRIC)
    na, nb = len(a_sites), len(b_sites)
    combined = w.weight(na + nb, 0, a_sites | b_sites)
    assert combined <= w.weight(na, 0, a_sites) * w.weight(nb, 0, b_sites) * (1 + 1e-12)


# -------------------------------------------------------------------- norms


def test_quartic_norm_counts_all_index_pairs():
    for d, n_flavor in [(2, 1), (2, 3), (3, 2)]:
        h1 = 4.0
        sites = [(x, 0) for x in range(4)]
        sys = onsite_density_quartic(sites, spinor_count=d, flavor_count=n_flavor, coupling=1.0)
        w = WeightSystem(0.5, h1, 1.0, TorusMetric((4, 4)))
        assert coeff_norm(sys, w) == pytest.approx(d ** 2 * n_flavor ** 2 * h1 ** 4)


def test_bilinear_norm_counts_both_orientations():
    d, n_flavor, h1, h2 = 2, 3, 4.0, 1.5
    sites = [(x, 0) for x in range(4)]
    sys = source_coupling_bilinear(sites, spinor_count=d, flavor_count=n_flavor, coupling=1.0)
    w = WeightSystem(0.5, h1, h2, TorusMetric((4, 4)))
    assert coeff_norm(sys, w) == pytest.approx(2 * d * n_flavor * h1 * h2)


def test_norm_zero_system():
    assert coeff_norm(CoefficientSystem(), WeightSystem(0.5, 4.0, 1.0, METRIC)) == 0.0


def test_norm_excludes_constant_entry():
    sys = CoefficientSystem()
    sys.add((), (), 42.0)
    assert coeff_norm(sys, WeightSystem(0.5, 4.0, 1.0, METRIC)) == 0.0


def test_norm_single_spread_entry_uses_tree_factor():
    sys = CoefficientSystem()
    sys.add((psi((0, 0), 0, 0, bar=True), psi((3, 0), 0, 0)), (), 2.0)
    kappa = 0.3
    w = WeightSystem(kappa, 4.0, 1.0, METRIC)
    assert coeff_norm(sys, w) == pytest.approx(2.0 * 16.0 * math.exp(kappa * 3.0))


def test_norm_pin_takes_max_over_sites():
    # two entries sharing a site through slot 0 add up; a lone entry does not
    sys = CoefficientSystem()
    sys.add((psi((0, 0), 0, 0, bar=True), psi((1, 0), 0, 0)), (), 1.0)
    sys.add((psi((0, 0), 0, 0, bar=True), psi((2, 0), 0, 0)), (), 1.0)
    sys.add((psi((5, 5), 0, 0, bar=True), psi((6, 5), 0, 0)), (), 1.5)
    w = WeightSystem(0.0, 1.0, 1.0, METRIC)
    assert coeff_norm(sys, w) == pytest.approx(2.0)


def test_norm_or_pin_counts_entry_once():
    # an entry whose psi and eta slots share the site is not double counted
    sys = CoefficientSystem()
    sys.add((psi((0, 0), 0, 0, bar=True),), (eta((0, 0), 0, 0),), 1.0)
    w = WeightSystem(0.0, 1.0, 1.0, METRIC)
    assert coeff_norm(sys, w) == pytest.approx(1.0)


def test_norm_monotone_in_weights():
    rng = np.random.default_rng(3)
    sys = CoefficientSystem()
    for _ in range(12):
        x = (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        y = (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        sys.add((psi(x, 0, 0, bar=True), psi(y, 0, 0)), (eta(x, 0, 0),), float(rng.normal()))
    base = coeff_norm(sys, WeightSystem(0.4, 2.0, 1.0, METRIC))
    assert coeff_norm(sys, WeightSystem(0.5, 2.0, 1.0, METRIC)) >= base
    assert coeff_norm(sys, WeightSystem(0.4, 2.5, 1.0, METRIC)) >= base
    assert coeff_norm(sys, WeightSystem(0.4, 2.0, 1.3, METRIC)) >= base


def test_logseries_norm_single_pair_entry():
    sys = CoefficientSystem()
    sys.add((), (eta((0, 0), 0, 0, bar=True), eta((3, 0), 0, 0)), 0.25)
    sys.add((), (), 9.0)  # constant must not contribute
    h, kappa = 1.5, 0.3
    got = logseries_norm(sys, h, kappa, METRIC)
    assert got == pytest.approx(0.25 * h ** 2 * math.exp(kappa * 3.0))


# ------------------------------------------------------------ tree-sum bound


def random_sparse_system(rng, n_entries=4, box=4):
    sys = CoefficientSystem()
    for _ in range(n_entries):
        x = (int(rng.integers(0, box)), int(rng.integers(0, box)))
        y = (int(rng.integers(0, box)), int(rng.integers(0, box)))
        zs = (psi(x, int(rng.integers(0, 2)), 0, bar=True), psi(y, int(rng.integers(0, 2)), 0))
        if rng.random() < 0.5:
            ws = (eta(x, 0, 0),)
            zs = zs[:1]
        else:
            ws = ()
        sys.add(zs, ws, float(rng.normal()))
    return sys


def test_treesum_single_vertex_is_identity():
    rng = np.random.default_rng(0)
    sys = random_sparse_system(rng)
    out = treesum_coeff(sys, frozenset(), 1)
    assert out.entries == sys.entries


def test_treesum_disjoint_supports_leave_only_diagonal():
    # distinct entries never overlap, so only the same-entry pairs survive
    sys = CoefficientSystem()
    e1 = ((psi((0, 0), 0, 0, bar=True),), (eta((0, 0), 0, 0),))
    e2 = ((psi((2, 2), 0, 0, bar=True),), (eta((2, 2), 0, 0),))
    sys.add(*e1, 1.0)
    sys.add(*e2, 2.0)
    out = treesum_coeff(sys, frozenset({(0, 1)}), 2)
    assert out.entries == {
        (e1[0] + e1[0], e1[1] + e1[1]): 1.0,
        (e2[0] + e2[0], e2[1] + e2[1]): 4.0,
    }


def test_treesum_pure_eta_system_cannot_realize_an_edge():
    sys = CoefficientSystem()
    sys.add((), (eta((0, 0), 0, 0, bar=True), eta((0, 0), 0, 0)), 1.0)
    out = treesum_coeff(sys, frozenset({(0, 1)}), 2)
    assert len(out) == 0


def test_treesum_two_vertex_hand_expansion():
    sys = CoefficientSystem()
    a1 = (psi((0, 0), 0, 0, bar=True), psi((1, 0), 0, 0))
    a2 = (psi((0, 0), 1, 0, bar=True), psi((0, 0), 1, 0))
    sys.add(a1, (), 2.0)
    sys.add(a2, (), 3.0)
    out = treesum_coeff(sys, frozenset({(0, 1)}), 2)
    # both share site (0,0): all four ordered pairs appear
    assert out.entries[(a1 + a2, ())] == 6.0
    assert out.entries[(a2 + a1, ())] == 6.0
    assert out.entries[(a1 + a1, ())] == 4.0
    assert out.entries[(a2 + a2, ())] == 9.0


@pytest.mark.parametrize("seed", range(100))
def test_tree_bound_holds_on_random_sparse_systems(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 4))
    sys = random_sparse_system(rng, n_entries=int(rng.integers(2, 5)))
    trees = enumerate_trees(n)
    tree = trees[int(rng.integers(0, len(trees)))]
    lhs, rhs, holds = lemma_tree_bound_check(sys, tree, n, h=1.0, kappa=0.4, metric=METRIC)
    assert holds, f"seed {seed}: {lhs} > {rhs}"


def test_bound_checks_trivial_and_gate():
    assert log_norm_bound_check(0.0, 0.0) == (0.0, 0.0, True)
    f, h, holds = log_norm_bound_check(0.25, 1.0)
    assert holds is None
    assert log_norm_bound_check(0.03, 0.05)[2] is True
    assert log_norm_bound_check(0.03, 0.3)[2] is False
