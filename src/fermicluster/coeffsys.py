"""Ordered coefficient kernels for interactions and expansion outputs.

A :class:`CoefficientSystem` stores complex values indexed by an ordered
tuple of psi-family generators and an ordered tuple of eta-family
generators.  The stored orientation is "psi factors in listed order, then
eta factors in listed order"; conversion to a :class:`GrassmannElement`
applies the permutation sign to reach canonical order.  Entries may repeat
a generator: they convert to zero but still count in weighted norms, which
measure the kernel as stored.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .algebra import GrassmannElement, canonicalize
from .generators import Family, GeneratorIndex, GeneratorUniverse, Site, eta, psi

Key = tuple[tuple[GeneratorIndex, ...], tuple[GeneratorIndex, ...]]


class CoefficientSystem:
    """Complex kernel over ordered generator tuples."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: dict[Key, complex] = {}

    def add(self, psi_part: Iterable[GeneratorIndex], eta_part: Iterable[GeneratorIndex],
            value: complex) -> None:
        psi_part = tuple(psi_part)
        eta_part = tuple(eta_part)
        if any(g.family != Family.PSI for g in psi_part):
            raise ValueError("psi slot holds a non-psi generator")
        if any(g.family != Family.ETA for g in eta_part):
            raise ValueError("eta slot holds a non-eta generator")
        value = complex(value)
        key = (psi_part, eta_part)
        v = self.entries.get(key, 0j) + value
        if v == 0:
            self.entries.pop(key, None)
        else:
            self.entries[key] = v

    def __iter__(self) -> Iterator[tuple[Key, complex]]:
        return iter(self.entries.items())

    def __len__(self) -> int:
        return len(self.entries)

    def scaled(self, c: complex) -> "CoefficientSystem":
        out = CoefficientSystem()
        if c != 0:
            out.entries = {k: v * c for k, v in self.entries.items()}
        return out

    def __add__(self, other: "CoefficientSystem") -> "CoefficientSystem":
        out = CoefficientSystem()
        acc = out.entries = dict(self.entries)
        for key, value in other.entries.items():
            v = acc.get(key, 0j) + value
            if v == 0:
                acc.pop(key, None)
            else:
                acc[key] = v
        return out

    def degrees(self) -> set[tuple[int, int]]:
        return {(len(zs), len(ws)) for zs, ws in self.entries}

    def is_even(self) -> bool:
        return all((len(zs) + len(ws)) % 2 == 0 for zs, ws in self.entries)

    def with_sources_at(self, sites: Iterable[Site] | None) -> "CoefficientSystem":
        """The kernel with every source off ``sites`` set to zero.

        Keeps the entries whose eta generators all sit on ``sites``, in
        stored order; None keeps every source.
        """
        if sites is None:
            return self
        keep = frozenset(sites)
        out = CoefficientSystem()
        out.entries = {key: v for key, v in self.entries.items()
                       if all(w.site in keep for w in key[1])}
        return out

    def to_element(self, universe: GeneratorUniverse) -> GrassmannElement:
        out = GrassmannElement()
        acc = out.terms
        for (zs, ws), value in self.entries.items():
            mask, sign = canonicalize(universe, zs + ws)
            if sign == 0:
                continue
            v = acc.get(mask, 0j) + sign * value
            if v == 0:
                acc.pop(mask, None)
            else:
                acc[mask] = v
        return out

    def __repr__(self) -> str:
        return f"CoefficientSystem({len(self.entries)} entries, degrees {sorted(self.degrees())})"


def system_from_element(universe: GeneratorUniverse, element: GrassmannElement) -> CoefficientSystem:
    """Kernel with one entry per canonical monomial of ``element``.

    Canonical masks list psi generators before eta generators, so the split
    introduces no extra sign.
    """
    out = CoefficientSystem()
    for mask, value in element.terms.items():
        gens = universe.indices_of(mask)
        zs = tuple(g for g in gens if g.family == Family.PSI)
        ws = tuple(g for g in gens if g.family == Family.ETA)
        out.add(zs, ws, value)
    return out


def onsite_density_quartic(sites: Iterable[Site], spinor_count: int, flavor_count: int,
                           coupling: complex) -> CoefficientSystem:
    """(sum_{alpha,a} psibar psi)^2 at each site, kernel as the double sum.

    One stored entry per index pair, including pairs whose product vanishes
    by repetition; the weighted norm counts them all.
    """
    out = CoefficientSystem()
    labels = [(al, a) for al in range(spinor_count) for a in range(flavor_count)]
    for x in sites:
        for al, a in labels:
            for be, b in labels:
                zs = (psi(x, al, a, bar=True), psi(x, al, a),
                      psi(x, be, b, bar=True), psi(x, be, b))
                out.add(zs, (), coupling)
    return out


def source_coupling_bilinear(sites: Iterable[Site], spinor_count: int, flavor_count: int,
                             coupling: complex) -> CoefficientSystem:
    """psibar-source and source-psi pairings at each site, one entry each."""
    out = CoefficientSystem()
    for x in sites:
        for al in range(spinor_count):
            for a in range(flavor_count):
                out.add((psi(x, al, a, bar=True),), (eta(x, al, a),), coupling)
                out.add((psi(x, al, a),), (eta(x, al, a, bar=True),), coupling)
    return out
