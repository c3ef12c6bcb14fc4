"""Generator bookkeeping for a finite anticommuting algebra.

A generator is identified by (family, site, spinor, flavor, bar).  The psi
family carries the integrated fields, the eta family carries external
sources that survive integration.  Every generator of a concrete problem is
assigned a fixed bit position, and monomials are stored as integer bitmasks
whose set bits list the participating generators in canonical order.

Canonical order sorts by family (psi first), then site (lexicographic),
then spinor, then flavor, and finally puts the barred generator before the
unbarred one within a mode.  Bit positions increase along this order, so a
mask can be read off left to right by iterating over its set bits.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, NamedTuple, Sequence

from .errors import CapacityError

Site = tuple[int, ...]
Mode = tuple[Site, int, int]

#: Hard cap on bit positions per family; one machine word each.
FAMILY_BIT_CAPACITY = 64


class Family(IntEnum):
    PSI = 0
    ETA = 1


class GeneratorIndex(NamedTuple):
    """A single anticommuting generator.

    ``bar`` is True for the conjugate partner; within a mode the barred
    generator precedes the unbarred one in canonical order.  Canonical
    order is the bit position a :class:`GeneratorUniverse` assigns, not the
    tuple order of the fields.
    """

    family: Family
    site: Site
    spinor: int
    flavor: int
    bar: bool

    @property
    def mode(self) -> Mode:
        return (self.site, self.spinor, self.flavor)

    def __repr__(self) -> str:
        fam = "psi" if self.family == Family.PSI else "eta"
        barmark = "bar" if self.bar else ""
        return f"{fam}{barmark}[{self.site},s{self.spinor},f{self.flavor}]"


def psi(site: Site, spinor: int = 0, flavor: int = 0, bar: bool = False) -> GeneratorIndex:
    return GeneratorIndex(Family.PSI, tuple(site), spinor, flavor, bar)


def eta(site: Site, spinor: int = 0, flavor: int = 0, bar: bool = False) -> GeneratorIndex:
    return GeneratorIndex(Family.ETA, tuple(site), spinor, flavor, bar)


class GeneratorUniverse:
    """Fixed assignment of bit positions for one concrete problem.

    Built from the list of psi modes and eta modes that can appear.  Each
    mode owns two adjacent bits: the even one for the barred generator,
    the odd one for the unbarred generator.  All psi bits precede all eta
    bits, matching canonical generator order.
    """

    def __init__(self, psi_modes: Iterable[Mode], eta_modes: Iterable[Mode] = ()):
        self.psi_modes: tuple[Mode, ...] = tuple(sorted(set(self._as_mode(m) for m in psi_modes)))
        self.eta_modes: tuple[Mode, ...] = tuple(sorted(set(self._as_mode(m) for m in eta_modes)))
        if 2 * len(self.psi_modes) > FAMILY_BIT_CAPACITY:
            raise CapacityError(
                f"{len(self.psi_modes)} psi modes need {2 * len(self.psi_modes)} bits, "
                f"capacity is {FAMILY_BIT_CAPACITY}"
            )
        if 2 * len(self.eta_modes) > FAMILY_BIT_CAPACITY:
            raise CapacityError(
                f"{len(self.eta_modes)} eta modes need {2 * len(self.eta_modes)} bits, "
                f"capacity is {FAMILY_BIT_CAPACITY}"
            )
        self.n_psi_bits = 2 * len(self.psi_modes)
        self.n_eta_bits = 2 * len(self.eta_modes)
        self.n_bits = self.n_psi_bits + self.n_eta_bits
        self._generators: list[GeneratorIndex] = []
        for site, spinor, flavor in self.psi_modes:
            self._generators.append(GeneratorIndex(Family.PSI, site, spinor, flavor, True))
            self._generators.append(GeneratorIndex(Family.PSI, site, spinor, flavor, False))
        for site, spinor, flavor in self.eta_modes:
            self._generators.append(GeneratorIndex(Family.ETA, site, spinor, flavor, True))
            self._generators.append(GeneratorIndex(Family.ETA, site, spinor, flavor, False))
        self._position = {g: p for p, g in enumerate(self._generators)}
        # Bar bits sit at even offsets within each family block.
        self.psi_bar_mask = sum(1 << p for p in range(0, self.n_psi_bits, 2))
        self.psi_block_mask = (1 << self.n_psi_bits) - 1

    @staticmethod
    def _as_mode(m: Mode) -> Mode:
        site, spinor, flavor = m
        return (tuple(site), int(spinor), int(flavor))

    def position(self, g: GeneratorIndex) -> int:
        try:
            return self._position[g]
        except KeyError:
            raise KeyError(f"generator {g!r} not in universe") from None

    def bit(self, g: GeneratorIndex) -> int:
        return 1 << self.position(g)

    def generators(self) -> tuple[GeneratorIndex, ...]:
        return tuple(self._generators)

    def mask_of(self, indices: Sequence[GeneratorIndex]) -> int:
        """Bitmask of a set of distinct generators (order-insensitive)."""
        mask = 0
        for g in indices:
            b = self.bit(g)
            if mask & b:
                raise ValueError(f"repeated generator {g!r}")
            mask |= b
        return mask

    def indices_of(self, mask: int) -> tuple[GeneratorIndex, ...]:
        """Generators of a mask in canonical (ascending-bit) order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self._generators[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def split_mask(self, mask: int) -> tuple[int, int]:
        """Split a mask into its (psi, eta) parts; eta part keeps its offsets."""
        return mask & self.psi_block_mask, mask & ~self.psi_block_mask

    def psi_mode_bits(self, mode_index: int) -> tuple[int, int]:
        """(bar_bit, unbar_bit) for psi mode number ``mode_index``."""
        p = 2 * mode_index
        return 1 << p, 1 << (p + 1)

    def __repr__(self) -> str:
        return (
            f"GeneratorUniverse({len(self.psi_modes)} psi modes, "
            f"{len(self.eta_modes)} eta modes, {self.n_bits} bits)"
        )
