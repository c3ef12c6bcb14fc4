"""Fixed-input microbenchmarks of the algebra, elimination, norm and tree kernels.

Inputs are rebuilt on every run through the public API, so a change of the
term representation cannot leave stale stored operands behind:

* ``mul_small``: seeded products of 3 to 10 term operands (9 to 100 pair
  visits each), the sizes of the truncated engine's products, where
  per-call overhead dominates;
* ``mul_large``: ``u * v`` of the 2x2 oracle's middle elimination step
  (204 x 267 terms at the seed commit);
* ``log1p``: ``log1p_nilpotent`` of that step's normalized bracket;
* ``elim``: ``effective_log_integral`` of the full 2x2 oracle input;
* ``coeff_norm``: the weighted norm of the L=3, m_f=3 quartic kernel;
* ``trees``: ``enumerate_trees(7)``.

Only ``mul_small`` depends on the seed; its products are checked against an
independent product built from ``canonicalize``.  Every other output is
compared with ``reference/kernels.json``, keyed by generator labels so the
bit layout of the monomials is free to change.
"""

from __future__ import annotations

import cmath
import random
import time
from pathlib import Path

from fermicluster import algebra, berezin, grossneveu, pipeline, trees, weights
from fermicluster.algebra import GrassmannElement
from fermicluster.config import RunConfig

SMALL_PRODUCTS = 3000
LARGE_REPEATS = 3
TREE_VERTICES = 7
REFERENCE = Path(__file__).resolve().parent / "reference" / "kernels.json"

ORACLE_CONFIG = RunConfig()
NORM_CONFIG = RunConfig(L=3, m_f=3.0, g=0.05, mode="truncated")


def _split(f: GrassmannElement, bar_bit: int, unbar_bit: int):
    """``f = f0 + psibar u + v psi + psibar psi w`` around one psi mode."""
    p = bar_bit.bit_length() - 1
    parts = [{}, {}, {}, {}]
    for m, c in f.terms.items():
        if m & bar_bit and m & unbar_bit:
            parts[3][m ^ bar_bit ^ unbar_bit] = c
        elif m & bar_bit:
            parts[1][m ^ bar_bit] = -c if (m & (bar_bit - 1)).bit_count() & 1 else c
        elif m & unbar_bit:
            parts[2][m ^ unbar_bit] = -c if (m >> (p + 2)).bit_count() & 1 else c
        else:
            parts[0][m] = c
    return [GrassmannElement(t) for t in parts]


def _middle_step(universe, f: GrassmannElement):
    """Operands of the middle step of mode elimination: (u, v, bracket).

    Runs ``int dmu_k exp(f) = exp(f0) (1 + u v + w)`` over the modes before
    the middle one, folding each bracket back through its logarithm.
    """
    middle = (len(universe.psi_modes) - 1) // 2
    current = f
    for k in range(middle + 1):
        f0, u, v, w = _split(current, *universe.psi_mode_bits(k))
        inner = u * v + w
        s = 1 + inner.constant
        rest = inner.without_constant().scaled(1 / s)
        if k == middle:
            return u, v, rest
        current = f0 + algebra.log1p_nilpotent(rest) + cmath.log(s)
    raise ValueError("universe has no psi modes")


def _small_operands(universe, f: GrassmannElement, seed: int):
    """Seeded pairs of even operands drawn from the monomials of ``f``."""
    rng = random.Random(seed)
    masks = sorted(f.terms)

    def operand():
        picked = rng.sample(masks, rng.randint(3, 10))
        return GrassmannElement({m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                 for m in picked})

    return [(operand(), operand()) for _ in range(SMALL_PRODUCTS)]


def build_inputs(seed: int) -> dict:
    cfg = ORACLE_CONFIG
    spec, cov = pipeline.lattice_objects(cfg)
    origin, target = spec.sites[0], pipeline.representative_targets(spec)[-1]
    sources = (origin, target)
    universe = grossneveu.universe_for(spec, sources)
    f = grossneveu.build_v1(spec, cov, pipeline.probe_coupling(cfg),
                            source_sites=sources).scaled(-1).to_element(universe)
    u, v, bracket = _middle_step(universe, f)
    norm_spec, norm_cov = pipeline.lattice_objects(NORM_CONFIG)
    return {
        "universe": universe,
        "f": f,
        "u": u,
        "v": v,
        "bracket": bracket,
        "small": _small_operands(universe, f, seed),
        "quartic": grossneveu.quartic_kernel(norm_spec, norm_cov, NORM_CONFIG.g),
        "weights": weights.WeightSystem(kappa=NORM_CONFIG.kappa, h1=NORM_CONFIG.h1,
                                        h2=NORM_CONFIG.h2, metric=norm_spec.metric),
    }


def run_suite(inputs: dict) -> tuple[dict, dict]:
    """One pass of every kernel: (outputs, seconds per kernel)."""
    clock = time.perf_counter
    seconds = {}
    out = {}

    t = clock()
    out["mul_small"] = [a * b for a, b in inputs["small"]]
    seconds["mul_small"] = clock() - t

    t = clock()
    for _ in range(LARGE_REPEATS):
        out["mul_large"] = inputs["u"] * inputs["v"]
    seconds["mul_large"] = clock() - t

    t = clock()
    for _ in range(LARGE_REPEATS):
        out["log1p"] = algebra.log1p_nilpotent(inputs["bracket"])
    seconds["log1p"] = clock() - t

    t = clock()
    out["elim"] = berezin.effective_log_integral(inputs["universe"], inputs["f"])
    seconds["elim"] = clock() - t

    t = clock()
    out["coeff_norm"] = weights.coeff_norm(inputs["quartic"], inputs["weights"])
    seconds["coeff_norm"] = clock() - t

    t = clock()
    out["trees"] = trees.enumerate_trees(TREE_VERTICES)
    seconds["trees"] = clock() - t
    return out, seconds


def _by_label(universe, element: GrassmannElement) -> dict[str, list[float]]:
    terms = {}
    for mask, c in element.terms.items():
        label = " ".join(repr(g) for g in universe.indices_of(mask))
        terms[label] = [c.real, c.imag]
    return dict(sorted(terms.items()))


def summarize(inputs: dict, out: dict) -> dict:
    """The reference-comparable part of one pass, as JSON data."""
    universe = inputs["universe"]
    return {
        "mul_large": _by_label(universe, out["mul_large"]),
        "log1p": _by_label(universe, out["log1p"]),
        "elim": _by_label(universe, out["elim"]),
        "coeff_norm": out["coeff_norm"],
        "trees": {"count": len(out["trees"]),
                  "distinct": len(set(out["trees"])),
                  "spanning": sum(_is_spanning_tree(t, TREE_VERTICES)
                                  for t in out["trees"])},
    }


def _is_spanning_tree(edges, n: int) -> bool:
    root = list(range(n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        root[ra] = rb
    return len(edges) == n - 1


def _reference_product(universe, a: GrassmannElement, b: GrassmannElement,
                       gens: dict) -> dict:
    acc: dict[int, complex] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mask, sign = algebra.canonicalize(universe, gens[ma] + gens[mb])
            if sign:
                acc[mask] = acc.get(mask, 0j) + sign * ca * cb
    return acc


def check_small(inputs: dict, products: list[GrassmannElement]) -> list[str]:
    universe = inputs["universe"]
    gens = {m: universe.indices_of(m) for m in inputs["f"].terms}
    problems = []
    for i, ((a, b), got) in enumerate(zip(inputs["small"], products)):
        want = _reference_product(universe, a, b, gens)
        for mask in set(want) | set(got.terms):
            x, y = want.get(mask, 0j), got.terms.get(mask, 0j)
            if abs(x - y) > 1e-12 + 1e-9 * max(abs(x), abs(y)):
                problems.append(f"mul_small[{i}] mask {mask:#x}: {y!r} != {x!r}")
                break
    return problems
