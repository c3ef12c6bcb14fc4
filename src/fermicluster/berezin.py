"""Gaussian integration over the psi family and direct log-partition output.

The reference measure has identity covariance with the pairing
``<psibar_k psi_k> = +1`` for every psi mode k; eta-family generators pass
through integration untouched.

The log-partition series is computed by mode elimination: integrate out one
psi mode at a time directly at the level of the exponent.  Writing the
exponent as ``f = f0 + psibar_k u + v psi_k + psibar_k psi_k w``, one
Gaussian mode gives ``exp(f0) (1 + u v + w)``, which is folded back into
exponent form.  This keeps everything logarithmic and is the production
oracle.  The literal route (exponentiate, integrate monomial by monomial,
take the logarithm) is exponentially large and lives in ``tests/oracles.py``
as the reference that elimination is checked against.

:func:`log_direct` returns a :class:`LogSeries`, the logarithm of the
normalized integral as an even polynomial in the surviving eta generators.
"""

from __future__ import annotations

import cmath

from .algebra import GrassmannElement, canonicalize, log1p_nilpotent
from .coeffsys import CoefficientSystem, system_from_element
from .errors import NormalizationError, ParityError
from .generators import GeneratorIndex, GeneratorUniverse


def integrate_monomial(universe: GeneratorUniverse, mask: int) -> tuple[int, int]:
    """Gaussian integral of one canonical monomial: (eta residual mask, value).

    The psi part survives only when every mode contributes its barred and
    unbarred generator together; the canonical layout then factors it into
    adjacent even pairs, each integrating to +1, so no sign ever appears.
    """
    psi_part, eta_part = universe.split_mask(mask)
    bars = psi_part & universe.psi_bar_mask
    unbars = (psi_part >> 1) & universe.psi_bar_mask
    if bars != unbars:
        return 0, 0
    return eta_part, 1


def integrate_element(universe: GeneratorUniverse, element: GrassmannElement) -> GrassmannElement:
    """Gaussian integral over all psi modes; the result lives on eta bits only."""
    out = GrassmannElement()
    acc = out.terms
    for mask, c in element.terms.items():
        residual, value = integrate_monomial(universe, mask)
        if value == 0:
            continue
        v = acc.get(residual, 0j) + c
        if v == 0:
            acc.pop(residual, None)
        else:
            acc[residual] = v
    return out


class LogSeries:
    """Logarithm of a normalized Gaussian integral as an even eta polynomial."""

    def __init__(self, universe: GeneratorUniverse, element: GrassmannElement):
        psi_bits = universe.psi_block_mask
        if any(m & psi_bits for m in element.terms):
            raise ValueError("log series may only involve eta generators")
        if not element.is_even():
            raise ParityError("log series may only hold even-degree terms")
        self.universe = universe
        self.element = element

    @property
    def constant(self) -> complex:
        return self.element.constant

    def coefficients(self) -> CoefficientSystem:
        """One kernel entry per canonical monomial, constant included."""
        return system_from_element(self.universe, self.element)

    def antisym_eval(self, *gens: GeneratorIndex) -> complex:
        """Coefficient kernel extended antisymmetrically to any slot order."""
        mask, sign = canonicalize(self.universe, gens)
        if sign == 0:
            return 0j
        return sign * self.element.terms.get(mask, 0j)

    def __repr__(self) -> str:
        return f"LogSeries({len(self.element)} terms, constant {self.constant:.6g})"


def _split_mode(f: GrassmannElement, bar_bit: int, unbar_bit: int):
    """Split an even exponent around one psi mode.

    Returns (f0, u, v, w) with ``f = f0 + psibar u + v psi + psibar psi w``
    where psibar/psi are the generators of the given bits.  The pair term
    carries no sign (an adjacent even block); the single-generator terms
    pick up the parity of the bits they move across.
    """
    p = bar_bit.bit_length() - 1
    below = bar_bit - 1
    f0 = GrassmannElement()
    u = GrassmannElement()
    v = GrassmannElement()
    w = GrassmannElement()
    for m, c in f.terms.items():
        has_bar = m & bar_bit
        has_unbar = m & unbar_bit
        if has_bar and has_unbar:
            w.terms[m ^ bar_bit ^ unbar_bit] = c
        elif has_bar:
            sign = -1 if (m & below).bit_count() & 1 else 1
            u.terms[m ^ bar_bit] = sign * c
        elif has_unbar:
            sign = -1 if (m >> (p + 2)).bit_count() & 1 else 1
            v.terms[m ^ unbar_bit] = sign * c
        else:
            f0.terms[m] = c
    return f0, u, v, w


def effective_log_integral(universe: GeneratorUniverse, f: GrassmannElement) -> GrassmannElement:
    """log of the Gaussian integral of exp(f), eliminating one mode at a time.

    Requires an even exponent.  Each step integrates a single psi mode:
    ``int dmu_k exp(f) = exp(f0) (1 + u v + w)``, and the bracket is folded
    back into the exponent through its logarithm, so the working object
    stays a log-series throughout.  A mode that no term holds integrates to
    1 and is skipped; elimination never adds a mode to a term.
    """
    if not f.is_even():
        raise ParityError("mode elimination needs an even exponent")
    held = 0
    for m in f.terms:
        held |= m
    current = f
    for k in range(len(universe.psi_modes)):
        bar_bit, unbar_bit = universe.psi_mode_bits(k)
        if not held & (bar_bit | unbar_bit):
            continue
        f0, u, v, w = _split_mode(current, bar_bit, unbar_bit)
        inner = u * v + w
        s = 1 + inner.constant
        if s == 0:
            raise NormalizationError(f"vanishing normalization at psi mode {k}")
        rest = inner.without_constant().scaled(1 / s)
        current = f0 + log1p_nilpotent(rest) + cmath.log(s)
    return current


def log_direct(universe: GeneratorUniverse, f: GrassmannElement) -> LogSeries:
    """log of the Gaussian integral of an even exp(f) as a :class:`LogSeries`."""
    return LogSeries(universe, effective_log_integral(universe, f))
