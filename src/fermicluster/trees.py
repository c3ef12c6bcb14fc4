"""Labelled-tree enumeration and the tree-sum majorant.

Trees on vertices 0..n-1 are represented as frozensets of sorted edge
pairs.  Enumeration goes through Prufer sequences, so the Cayley count
n^(n-2) holds by construction.
"""

from __future__ import annotations

import math
from itertools import product

from .errors import CapacityError

Edge = tuple[int, int]
TreeEdges = frozenset[Edge]

#: Largest vertex count for explicit enumeration (8^6 = 262144 trees).
MAX_ENUMERATION_VERTICES = 8


def cayley_count(n: int) -> int:
    """Number of labelled trees on n vertices."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n <= 2:
        return 1
    return n ** (n - 2)


def _edge_table(n: int) -> list[list[Edge]]:
    """``table[a][b]`` is the sorted pair of a and b, one tuple per pair."""
    table = [[(a, b) for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(a):
            table[a][b] = table[b][a]
    return table


def _decode(seq: tuple[int, ...], n: int, edge: list[list[Edge]]) -> TreeEdges:
    """Decode a Prufer sequence of length n-2, taking edges from ``edge``.

    Linear time: a pointer walks up to the next unused leaf, and a vertex
    that becomes a leaf below the pointer is joined next, which is the
    smallest leaf at every step.
    """
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    pointer = degree.index(1)
    leaf = pointer
    edges = []
    for v in seq:
        edges.append(edge[leaf][v])
        degree[v] -= 1
        if degree[v] == 1 and v < pointer:
            leaf = v
        else:
            pointer = degree.index(1, pointer + 1)
            leaf = pointer
    edges.append(edge[leaf][n - 1])
    return frozenset(edges)


def prufer_to_tree(seq: tuple[int, ...], n: int) -> TreeEdges:
    """Decode a Prufer sequence of length n-2 into its labelled tree."""
    return _decode(seq, n, _edge_table(n))


def enumerate_trees(n: int) -> list[TreeEdges]:
    """All labelled trees on vertices 0..n-1, in Prufer sequence order.

    Every tree's edges are the n(n-1)/2 tuples of one shared edge table.
    """
    if n > MAX_ENUMERATION_VERTICES:
        raise CapacityError(f"refusing to enumerate {cayley_count(n)} trees on {n} vertices")
    if n == 1:
        return [frozenset()]
    edge = _edge_table(n)
    return [_decode(seq, n, edge) for seq in product(range(n), repeat=n - 2)]


def tree_degrees(edges: TreeEdges, n: int) -> tuple[int, ...]:
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return tuple(deg)


def majorant_term(n: int, eps: float) -> float:
    """Order-n contribution to the tree-sum majorant.

    eps^n / (n-1)! times the sum over labelled trees on n vertices of
    prod d_i!.  A degree profile d has (n-2)! / prod (d_i - 1)! trees, so
    the sum is (n-2)! times the sum of prod d_i over compositions of
    2(n-1) into n positive parts.  That sum is the coefficient of
    x^(n-2) in (1-x)^(-2n), which is C(3n-3, n-2).  Its growth rate
    27/4 < 8 is why ``majorant_limit`` holds for eps < 1/8.
    """
    if n < 2:
        raise ValueError("terms start at two vertices")
    total = math.factorial(n - 2) * math.comb(3 * n - 3, n - 2)
    return (eps ** n) * total / math.factorial(n - 1)


def majorant_partial_sum(eps: float, n_max: int) -> float:
    """eps plus the order-2..n_max majorant terms."""
    return eps + sum(majorant_term(n, eps) for n in range(2, n_max + 1))


def majorant_limit(eps: float) -> float:
    """Geometric closed form eps / (1 - 8 eps) that dominates every partial sum."""
    if eps >= 0.125:
        raise ValueError("closed form needs eps < 1/8")
    return eps / (1 - 8 * eps)
