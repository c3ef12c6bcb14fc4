import itertools
import math

import pytest

from fermicluster.errors import CapacityError
from fermicluster.trees import (
    cayley_count,
    enumerate_trees,
    majorant_limit,
    majorant_partial_sum,
    majorant_term,
    prufer_to_tree,
    tree_degrees,
)
from oracles import prufer_to_tree_by_min_leaf


def is_connected(n, edges):
    if n == 1:
        return True
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n


def brute_force_trees(n):
    """All connected (n-1)-edge graphs, i.e. all trees, the slow way."""
    all_edges = list(itertools.combinations(range(n), 2))
    out = set()
    for subset in itertools.combinations(all_edges, n - 1):
        if is_connected(n, subset):
            out.add(frozenset(subset))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_enumeration_matches_brute_force(n):
    trees = enumerate_trees(n)
    assert len(trees) == cayley_count(n)
    assert set(trees) == brute_force_trees(n)
    assert len(set(trees)) == len(trees)


@pytest.mark.parametrize("n", list(range(2, 8)))
def test_cayley_and_degree_sum_identity(n):
    assert cayley_count(n) == n ** (n - 2)


def test_prufer_star_and_path():
    # constant sequence gives the star around that vertex
    assert prufer_to_tree((2, 2), 4) == frozenset({(0, 2), (1, 2), (2, 3)})
    degrees = tree_degrees(prufer_to_tree((1, 2), 4), 4)
    assert sorted(degrees) == [1, 1, 2, 2]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_prufer_decode_matches_min_leaf_reference(n):
    for seq in itertools.product(range(n), repeat=n - 2):
        assert prufer_to_tree(seq, n) == prufer_to_tree_by_min_leaf(seq, n), seq


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_enumeration_order_matches_min_leaf_reference(n):
    expected = [prufer_to_tree_by_min_leaf(seq, n)
                for seq in itertools.product(range(n), repeat=n - 2)]
    assert enumerate_trees(n) == expected


def test_enumerated_trees_share_one_tuple_per_edge():
    trees = enumerate_trees(7)
    assert len({id(edge) for tree in trees for edge in tree}) <= math.comb(7, 2)


def test_enumeration_capacity_guard():
    with pytest.raises(CapacityError):
        enumerate_trees(9)


def test_majorant_terms_by_hand():
    eps = 0.07
    assert majorant_term(2, eps) == pytest.approx(eps ** 2)
    assert majorant_term(3, eps) == pytest.approx(3 * eps ** 3)
    assert majorant_term(4, eps) == pytest.approx(12 * eps ** 4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_majorant_term_closed_form(n):
    # sum over compositions of prod d_i equals C(3n-3, 2n-1)
    eps = 0.05
    expected = eps ** n / (n - 1) * math.comb(3 * n - 3, 2 * n - 1)
    assert majorant_term(n, eps) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", list(range(2, 8)))
def test_majorant_term_matches_full_enumeration(n):
    eps = 0.03
    total = sum(math.prod(math.factorial(d) for d in tree_degrees(t, n))
                for t in enumerate_trees(n))
    assert majorant_term(n, eps) == (eps ** n) * total / math.factorial(n - 1)


# Pinned from the degree-profile enumeration the closed form replaced;
# the integer sum is the same, so the floats must match bit for bit.
@pytest.mark.parametrize("eps,expected", [
    (0.01, 0.010103125773),
    (0.05, 0.052971453125000005),
    (0.1, 0.11502300000000001),
    (0.12, 0.144256069632),
])
def test_majorant_partial_sum_pinned(eps, expected):
    assert majorant_partial_sum(eps, 6) == expected


@pytest.mark.parametrize("n,expected", [
    (2, 0.010000000000000002),
    (3, 0.003000000000000001),
    (4, 0.0012000000000000003),
    (5, 0.0005500000000000001),
    (6, 0.0002730000000000001),
    (7, 0.00014280000000000006),
    (8, 7.752000000000003e-05),
    (9, 4.326300000000002e-05),
    (10, 2.4667500000000014e-05),
    (11, 1.4307150000000008e-05),
    (12, 8.414640000000005e-06),
])
def test_majorant_term_pinned(n, expected):
    assert majorant_term(n, 0.1) == expected


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.12])
def test_partial_sums_below_geometric_limit(eps):
    limit = majorant_limit(eps)
    previous = 0.0
    for n_max in range(2, 13):
        s = majorant_partial_sum(eps, n_max)
        assert s >= previous  # monotone in the cutoff
        assert s <= limit
        previous = s
