"""Gaussian integration over the psi family and direct log-partition output.

The reference measure has identity covariance with the pairing
``<psibar_k psi_k> = +1`` for every psi mode k; eta-family generators pass
through integration untouched.

The log-partition series is computed by mode elimination: integrate out one
psi mode at a time directly at the level of the exponent.  Writing the
exponent as ``f = f0 + psibar_k u + v psi_k + psibar_k psi_k w``, one
Gaussian mode gives ``exp(f0) (1 + u v + w)``, which is folded back into
exponent form.  The exponent is even, so u and v are odd and square to
zero, and ``(u v)^2 = -u^2 v^2 = 0``.  With ``s = 1 + w0`` (w0 the constant
of w) and ``x = (w - w0) / s``, the bracket's logarithm is therefore exactly
``log s + log(1 + x) + (u v / s) (1 + x)^-1``: both series run over the
powers of x alone, never over the powers of the much larger ``u v + w``.
This keeps everything logarithmic and is the production oracle.  The
literal route (exponentiate, integrate monomial by monomial, take the
logarithm) is exponentially large and lives in ``tests/oracles.py`` as the
reference that elimination is checked against.

Each mode pair is even, so the mode integrals commute and every order of
the modes gives the same series.  The order sets the cost: each step takes
the held mode with the smallest ``|u| |v| + |w|`` (term counts), because
``u * v`` and the powers of w are the step's products and the source of
the terms it adds.  The fixed index order, the reference for this choice,
is ``eliminate_in_index_order`` in ``tests/oracles.py``.

:func:`log_direct` returns a :class:`LogSeries`, the logarithm of the
normalized integral as an even polynomial in the surviving eta generators.
"""

from __future__ import annotations

import cmath
import sys

from .algebra import GrassmannElement, canonicalize, nilpotent_powers, truncated
# not called here; bench/tracing.py's EXPECTED_COPIES lists this binding
from .algebra import log1p_nilpotent  # noqa: F401
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
    pair = bar_bit | unbar_bit
    # ``sign * c`` is a complex multiply by (+-1 + 0j), not a negation: it
    # can change the sign of a zero part
    for m, c in f.terms.items():
        held = m & pair
        if not held:
            f0.terms[m] = c
        elif held == pair:
            w.terms[m ^ pair] = c
        elif held == bar_bit:
            u.terms[m ^ bar_bit] = (-1 if (m & below).bit_count() & 1 else 1) * c
        else:
            v.terms[m ^ unbar_bit] = (-1 if (m >> (p + 2)).bit_count() & 1 else 1) * c
    return f0, u, v, w


def log_bracket(u: GrassmannElement, v: GrassmannElement, w: GrassmannElement) -> GrassmannElement:
    """log(1 + u v + w) for odd u and v and even w, the bracket of one mode.

    Since ``(u v)^2 = 0``, the logarithm is ``log s + log(1 + x) +
    (u v / s) (1 + x)^-1`` with ``s = 1 + w0`` and ``x = (w - w0) / s``;
    both series are summed from one ladder of powers of x.
    """
    s = 1 + w.constant
    if s == 0:
        raise NormalizationError("vanishing normalization: the bracket's constant is 0")
    log = {0: cmath.log(s)}
    inverse = {0: 1 + 0j}
    for k, power in enumerate(nilpotent_powers(w.without_constant().scaled(1 / s)), 1):
        a = (-1.0) ** (k + 1) / k
        b = (-1.0) ** k
        for m, c in power.terms.items():
            log[m] = log.get(m, 0j) + a * c
            inverse[m] = inverse.get(m, 0j) + b * c
    out = GrassmannElement(log)
    out += (u * v).scaled(1 / s) * GrassmannElement(inverse)
    return out


def _cheapest_mode(universe: GeneratorUniverse, f: GrassmannElement) -> tuple[int, int] | None:
    """Bits of the held psi mode whose step costs least, or None if none is held.

    One pass over the masks tallies their distinct psi parts; per held mode,
    the tally gives the terms with its barred bit only (|u|), its unbarred
    bit only (|v|) and both (|w|).  The cost is ``|u| |v| + |w|``, and ties
    go to the lowest mode index.
    """
    block = universe.psi_block_mask
    parts: dict[int, int] = {}
    for m in f.terms:
        part = m & block
        parts[part] = parts.get(part, 0) + 1
    parts.pop(0, None)
    held = 0
    for part in parts:
        held |= part
    held = (held | held >> 1) & universe.psi_bar_mask
    best = None
    while held:
        bar_bit = held & -held
        held ^= bar_bit
        unbar_bit = bar_bit << 1
        n_u = n_v = n_w = 0
        for part, n in parts.items():
            x = part & (bar_bit | unbar_bit)
            if x == bar_bit:
                n_u += n
            elif x == unbar_bit:
                n_v += n
            elif x:
                n_w += n
        cost = n_u * n_v + n_w
        if best is None or cost < best[0]:
            best = cost, bar_bit
    return None if best is None else (best[1], best[1] << 1)


def debug_logger(name: str):
    """The logger ``name`` if it emits DEBUG records, else None.

    A process that never imported :mod:`logging` cannot have turned DEBUG
    on, so the module is looked up rather than imported: importing it
    costs every run about 5 ms and 0.5 MB at start-up.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger(name)
    return log if log.isEnabledFor(logging.DEBUG) else None


def effective_log_integral(universe: GeneratorUniverse, f: GrassmannElement,
                           eta_cap: int | None = None) -> GrassmannElement:
    """log of the Gaussian integral of exp(f), eliminating one mode at a time.

    Requires an even exponent.  Each step integrates a single psi mode:
    ``int dmu_k exp(f) = exp(f0) (1 + u v + w)``, and the bracket is folded
    back into the exponent through its logarithm (:func:`log_bracket`), so
    the working object stays a log-series throughout.  As ``(u v)^2 = 0``,
    that logarithm needs the powers of ``(w - w0) / (1 + w0)`` only.

    The order of the modes changes the cost, not the result.  A step's
    products are ``u * v``, with |u| |v| pair visits, and the ladder of
    powers of w, which grows with |w|; so each step takes the held mode
    with the smallest ``|u| |v| + |w|``, ties to the lowest index
    (:func:`_cheapest_mode`).  The terms a step adds come from those
    products, so the choice also keeps the exponent small: on the two
    pair runs of the default 2x2 config, the origin with its nearest site
    and with the far corner, it peaks at 424 and 184 terms, against 1,752
    and 1,454 in index order.  Modes that no term holds integrate to 1 and
    are never taken; elimination never adds a mode to a term.  Each step is
    logged at DEBUG level on the ``fermicluster.berezin`` logger.

    With ``eta_cap`` set, the result keeps only the terms of eta degree up
    to the cap, and so does the exponent after every step.  That is exact
    on the kept terms: eta degrees only add under products, and a step
    removes psi bits alone.  It can change which mode is cheapest, and so
    the rounding, not the result.
    """
    if not f.is_even():
        raise ParityError("mode elimination needs an even exponent")
    log = debug_logger(__name__)
    eta_bits = ~universe.psi_block_mask
    current = f if eta_cap is None else truncated(f, eta_bits, eta_cap)
    while (bits := _cheapest_mode(universe, current)) is not None:
        current, u, v, w = _split_mode(current, *bits)
        current += log_bracket(u, v, w)
        if eta_cap is not None:
            current = truncated(current, eta_bits, eta_cap)
        if log is not None:
            log.debug("eliminated psi mode %d: |u|=%d |v|=%d |w|=%d, %d terms after",
                      (bits[0].bit_length() - 1) // 2, len(u), len(v), len(w), len(current))
    return current


def log_direct(universe: GeneratorUniverse, f: GrassmannElement) -> LogSeries:
    """log of the Gaussian integral of an even exp(f) as a :class:`LogSeries`."""
    return LogSeries(universe, effective_log_integral(universe, f))
