"""Lattice four-fermion model with a Wilson Dirac operator.

Builds the massive covariance S = (D + m_f)^-1, rewrites the quartic
density and source couplings on the unit-covariance side (psi -> S psi), and
exposes the truncated two-point function read off a resummed log series,
together with exponential decay fits of correlations and of S itself.  Both
S and the action are translation invariant, so a model keeps the quartic
density of one site and moves it to the others; S itself is one table over
displacements, computed from its momentum-space symbol.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import GrassmannElement
from .berezin import LogSeries
from .clusters import ClusterEngine, ClusterOptions
from .coeffsys import CoefficientSystem
from .errors import CapacityError, ConfigError
from .generators import GeneratorUniverse, Site, eta, psi
from .weights import TorusMetric


@dataclass(frozen=True)
class LatticeSpec:
    """Finite periodic lattice with spinor and flavor structure."""

    d: int = 2
    L: int = 2
    N: int = 1

    def __post_init__(self):
        if self.d < 2:
            raise ConfigError("dimension must be at least 2")
        if self.L < 2:
            raise ConfigError("side length must be at least 2")
        if self.N < 1:
            raise ConfigError("flavor count must be at least 1")

    @property
    def spinor_dim(self) -> int:
        return 2 ** (self.d // 2)

    @property
    def sites(self) -> tuple[Site, ...]:
        return tuple(itertools.product(range(self.L), repeat=self.d))

    @property
    def n_sites(self) -> int:
        return self.L ** self.d

    @property
    def metric(self) -> TorusMetric:
        return TorusMetric((self.L,) * self.d)


def gamma_matrices(d: int) -> tuple[np.ndarray, ...]:
    """Hermitian gamma matrices with {g_mu, g_nu} = 2 delta I, size 2^(d//2).

    d=2,3 use the Pauli set; d=4,5 the standard tensor construction
    (sigma1 x sigma_i and sigma2 x 1).
    """
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    if d == 2:
        return (s1, s2)
    if d == 3:
        return (s1, s2, s3)
    if d in (4, 5):
        gams = tuple(np.kron(s1, s) for s in (s1, s2, s3)) + (np.kron(s2, eye),)
        return gams[:d]
    raise ConfigError(f"no gamma construction wired for d={d}")


@dataclass(frozen=True)
class Covariance:
    """S = (D + m_f)^-1, flavor-diagonal: ``table[x]`` is the spinor block
    S(x, 0), and S(x, y) is ``table[(x - y) mod L]``.  Entries related by an
    axis reflection or permutation are equal floats, so those that vanish by
    symmetry are exact zeros."""

    spec: LatticeSpec
    m_f: float
    table: np.ndarray
    log_det: float

    def entry(self, x: Site, y: Site, alpha: int, beta: int) -> complex:
        return complex(self.block(x, y)[alpha, beta])

    def block(self, x: Site, y: Site) -> np.ndarray:
        return self.table[tuple((a - b) % self.spec.L for a, b in zip(x, y))]


def covariance(spec: LatticeSpec, m_f: float) -> Covariance:
    """S from the symbol of D + m_f = A + i sum_mu gamma_mu sin p_mu at
    momentum p, A = m_f + sum_mu (1 - cos p_mu): D = gamma.grad - Laplacian/2
    hops forward along mu with (gamma_mu - 1)/2 and backward with
    -(gamma_mu + 1)/2.  The gammas anticommute and are traceless, so
    S(p) = (A - i sum_mu gamma_mu sin p_mu) / n with n = A^2 + |sin p|^2
    >= m_f^2, and log det(D + m_f) = (spinor_dim / 2) sum_p log n.  The
    table is a(x) I + sum_mu c_mu(x) gamma_mu, a and c_mu the transforms of
    A / n and -i sin p_mu / n.  A mass so small that n underflows (m_f below
    about 1e-153) would leave it NaN, and is refused.
    """
    if m_f <= 0:
        raise ConfigError("fermion mass must be positive")
    d, L = spec.d, spec.L
    x = np.indices((L,) * d)
    p = 2 * np.pi * x / L
    A = m_f + (1 - np.cos(p)).sum(axis=0)
    sines = np.sin(p)
    # scaled by a power of two, which rounds nothing, so that n cannot
    # overflow at a large mass
    scale = math.frexp(float(A.max()))[1]
    A, sines = np.ldexp(A, -scale), np.ldexp(sines, -scale)
    n = A * A + (sines * sines).sum(axis=0)
    if n.min() < np.finfo(float).tiny:
        raise ConfigError(f"fermion mass {m_f} is too small: m_f^2 underflows")
    parts = np.ldexp(np.stack([A, sines[0]]) / n, -scale)
    # e^{i p x} / L per axis, its angle reduced mod 2 pi before rounding
    k = np.arange(L)
    phase = np.exp(2j * np.pi * (np.outer(k, k) % L) / L) / L
    for axis in range(1, d + 1):
        parts = np.moveaxis(np.tensordot(parts, phase, axes=(axis, 0)), -1, axis)
    # every entry is read at its orbit's representative under the axis
    # reflections and permutations: the sorted distances r <= L/2 from the
    # origin, c_mu's own distance first and its sign from the side of x_mu
    r = np.minimum(x, L - x)
    a = parts[0].real[tuple(np.sort(r, axis=0))]
    c = np.stack([np.sign(L - 2 * x[mu]) * (x[mu] != 0)
                  * parts[1].imag[(r[mu], *np.sort(np.delete(r, mu, axis=0), axis=0))]
                  for mu in range(d)])
    table = (a[..., None, None] * np.eye(spec.spinor_dim)
             + np.tensordot(c, np.array(gamma_matrices(d)), axes=(0, 0)))
    log_det = 0.5 * spec.spinor_dim * (np.log(n).sum() + 2 * scale * math.log(2) * n.size)
    return Covariance(spec=spec, m_f=m_f, table=table, log_det=float(log_det))


def covariance_decay_table(cov: Covariance) -> list[tuple[float, float]]:
    """Largest |S block entry| per torus distance, sorted by distance."""
    spec = cov.spec
    metric = spec.metric
    origin = spec.sites[0]
    best: dict[float, float] = {}
    for site in spec.sites:
        r = metric.distance(origin, site)
        peak = float(np.max(np.abs(cov.block(origin, site))))
        best[r] = max(best.get(r, 0.0), peak)
    return sorted(best.items())


# ------------------------------------------------------------------ kernels


def universe_for(spec: LatticeSpec,
                 source_sites: tuple[Site, ...] | None = None) -> GeneratorUniverse:
    """Generator universe with every field mode and sources where requested.

    source_sites None means sources at every site; capacity errors surface
    from the universe when a request does not fit the bit budget.
    """
    psi_modes = [
        (s, alpha, a)
        for s in spec.sites
        for alpha in range(spec.spinor_dim)
        for a in range(spec.N)
    ]
    if source_sites is None:
        source_sites = spec.sites
    eta_modes = [
        (s, alpha, a)
        for s in source_sites
        for alpha in range(spec.spinor_dim)
        for a in range(spec.N)
    ]
    return GeneratorUniverse(psi_modes, eta_modes)


def _add_quartic_at(system: CoefficientSystem, spec: LatticeSpec, cov: Covariance,
                    g: float, x: Site) -> None:
    """Add the quartic entries whose psi-bar site is ``x``: (x, x, y, y')
    carrying -g^2 S(x,y) S(x,y') over all spinor and flavor assignments."""
    sd = spec.spinor_dim
    sites = spec.sites
    gg = g * g
    for y in sites:
        sxy = cov.block(x, y)
        for yp in sites:
            sxyp = cov.block(x, yp)
            for alpha, beta, alphap, betap in itertools.product(range(sd), repeat=4):
                value = -gg * sxy[alpha, beta] * sxyp[alphap, betap]
                if value == 0:
                    continue
                for a in range(spec.N):
                    for ap in range(spec.N):
                        system.add(
                            (
                                psi(x, alpha, a, bar=True),
                                psi(x, alphap, ap, bar=True),
                                psi(y, beta, a),
                                psi(yp, betap, ap),
                            ),
                            (),
                            value,
                        )


def quartic_kernel(spec: LatticeSpec, cov: Covariance, g: float) -> CoefficientSystem:
    """Transformed quartic density: the entries of every psi-bar site in turn."""
    system = CoefficientSystem()
    if g != 0:
        for x in spec.sites:
            _add_quartic_at(system, spec, cov, g, x)
    return system


#: Most quartic stencil entries a model builds; L = 10 in d = 2 at N = 1
#: holds 160,000.
STENCIL_BUDGET = 200_000


def check_stencil(spec: LatticeSpec) -> None:
    """Refuse a lattice whose quartic stencil passes ``STENCIL_BUDGET``
    entries: one per (y, y') site pair, four spinor indices and two flavors."""
    size = (spec.n_sites * spec.spinor_dim ** 2 * spec.N) ** 2
    if size > STENCIL_BUDGET:
        raise CapacityError(
            f"the quartic stencil of {spec.n_sites} sites x {spec.spinor_dim} spinor x "
            f"{spec.N} flavors holds {size} entries, the budget is {STENCIL_BUDGET}; "
            f"lower lattice.L or lattice.N")


def _coords(spec: LatticeSpec) -> np.ndarray:
    """The sites' coordinates, one row per site in ``spec.sites`` order."""
    return np.indices((spec.L,) * spec.d).reshape(spec.d, -1).T


def _site_index(spec: LatticeSpec, coords: np.ndarray) -> np.ndarray:
    """Index in ``spec.sites`` of each coordinate row (last axis), taken mod L."""
    return (coords % spec.L) @ spec.L ** np.arange(spec.d - 1, -1, -1)


def _between(spec: LatticeSpec) -> np.ndarray:
    """``[x, y]``: the index of the displacement y - x, so S(x, y) = row[it]."""
    coords = _coords(spec)
    return _site_index(spec, coords[None, :, :] - coords[:, None, :])


def quartic_stencil(spec: LatticeSpec, row: np.ndarray, g: float,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The origin's part of -quartic, from S's origin row ``row[y] = S(0, y)``.

    The quartic entries whose psi-bar site is the origin are (0, 0, y, y')
    carrying -g^2 S(0,y) S(0,y'), as ``_add_quartic_at`` lists them.  This
    is the element that ``.scaled(-1).to_element(universe)`` makes of them,
    built in numpy: one row of ascending psi bit positions per monomial and
    its coefficient, in the same order and with the same coefficient bits.
    Complex products are spelled out in real arithmetic, the operations of
    Python's complex multiply.  (``to_element`` would move a mask whose sum
    reached exactly 0 part-way to the end; no such sum arises on the
    lattices tested.)  S and the action are translation invariant,
    so the element at any other site is this one moved there
    (``_translated``).
    """
    sd, N = spec.spinor_dim, spec.N
    if g == 0:
        return np.zeros((0, 4), dtype=np.intp), np.zeros(0, dtype=np.complex128)
    # the entries in (y, y', alpha, beta, alpha', beta', a, a') order
    shape = (spec.n_sites, spec.n_sites) + (sd,) * 4 + (N, N)
    y, yp, al, be, alp, bep, a, ap = np.indices(shape).reshape(len(shape), -1)
    # (-g^2) S(0, y), then times S(0, y'); the flavors share the value
    left_re, left_im = -(g * g) * row.real, -(g * g) * row.imag
    s1_re, s1_im = left_re[:, None, :, :, None, None], left_im[:, None, :, :, None, None]
    s2_re, s2_im = row.real[None, :, None, None, :, :], row.imag[None, :, None, None, :, :]
    product = np.empty(shape[:6], dtype=np.complex128)
    product.real = s1_re * s2_re - s1_im * s2_im
    product.imag = s1_re * s2_im + s1_im * s2_re
    values = np.broadcast_to(product[..., None, None], shape).ravel()
    positions = np.stack([2 * (al * N + a), 2 * (alp * N + ap),
                          2 * ((y * sd + be) * N + a) + 1,
                          2 * ((yp * sd + bep) * N + ap) + 1], axis=1)
    # a repeated generator gives no term
    keep = (values != 0) & (positions[:, 0] != positions[:, 1]) & (
        positions[:, 2] != positions[:, 3])
    positions, values = positions[keep], values[keep]
    inversions = sum(positions[:, i] > positions[:, j]
                     for i in range(4) for j in range(i + 1, 4))
    # the stored value, scaled by -1 and signed by the sorting permutation
    values = np.where(inversions & 1, values, -values)
    positions = np.sort(positions, axis=1)
    # repeated masks merge as ``_vector_product`` merges them: each sum
    # added in stream order onto 0j, the masks in order of first occurrence
    _, first, group = np.unique(positions, axis=0, return_index=True, return_inverse=True)
    sums = np.zeros(len(first), dtype=np.complex128)
    np.add.at(sums, group.ravel(), values)
    order = np.argsort(first)
    kept = order[sums[order] != 0]
    return positions[first[kept]], sums[kept]


def _translated(spec: LatticeSpec, positions: np.ndarray,
                coeffs: np.ndarray) -> GrassmannElement:
    """The sum of the origin element ``positions, coeffs`` moved by every
    lattice vector, on the psi bits of ``universe_for(spec, ...)``.

    Each row of ``positions`` lists the ascending bit positions of a psi
    monomial whose psi-bar generators all sit on the origin, each of the
    same degree, so no two moves give the same mask.  A site owns a fixed
    run of bits, so a move shifts each generator by whole runs and keeps
    its offset; the coefficient takes the sign of the permutation that
    sorts the moved generators back into canonical order.  The moved masks
    are Python ints, so the psi bits may run past bit 64.  Terms come move
    by move, in ``spec.sites`` order.
    """
    if not len(coeffs):
        return GrassmannElement()
    per_site = 2 * spec.spinor_dim * spec.N
    coords = _coords(spec)
    moved_site = _site_index(spec, coords[:, None, :] + coords[None, :, :])
    moved = moved_site[:, positions // per_site] * per_site + positions % per_site
    k = positions.shape[1]
    inversions = sum(moved[..., i] > moved[..., j] for i in range(k) for j in range(i + 1, k))
    bits = np.bitwise_or.reduce(np.left_shift(1, moved.astype(object)), axis=-1)
    values = np.where(inversions & 1, -coeffs, coeffs)
    out = GrassmannElement()
    out.terms = dict(zip(bits.ravel().tolist(), values.ravel().tolist()))
    return out


def source_kernels(spec: LatticeSpec, cov: Covariance, g: float,
                   ) -> tuple[CoefficientSystem, CoefficientSystem]:
    """The two source couplings (psibar J, Jbar S psi) as stored kernels.

    Sources sit on every site.  Entries are stored psi-factor-first; a Jbar
    eta standing left of psi in the written coupling therefore enters with
    a flipped sign so that the stored orientation reproduces the same
    element.
    """
    local = CoefficientSystem()
    smeared = CoefficientSystem()
    if g == 0:
        return local, smeared
    sd = spec.spinor_dim
    for x in spec.sites:
        for alpha in range(sd):
            for a in range(spec.N):
                local.add((psi(x, alpha, a, bar=True),), (eta(x, alpha, a),), g)
    for x in spec.sites:
        for y in spec.sites:
            block = cov.block(x, y)
            for alpha in range(sd):
                for beta in range(sd):
                    value = g * block[alpha, beta]
                    if value == 0:
                        continue
                    for a in range(spec.N):
                        # stored as psi eta: Jbar psi = -(psi Jbar)
                        smeared.add(
                            (psi(y, beta, a),),
                            (eta(x, alpha, a, bar=True),),
                            -value,
                        )
    return local, smeared


@dataclass(frozen=True, eq=False)
class Model:
    """S's origin row, the origin's quartic element and the couplings for
    one (lattice, m_f, g).

    Built once per run.  S and the action are translation invariant, so
    the origin row ``row[y] = S(0, y)``, a sites x spinor x spinor array,
    fixes the whole model: ``stencil`` (the element of the quartic entries
    whose psi-bar site is the origin, from :func:`quartic_stencil`), the
    sources of any sites (:meth:`sources`) and the norms
    (:func:`model_norms`) are numpy arrays over it, and translation gives
    the quartic density of the other sites.  The quartic density carries
    coupling g and the source couplings carry ``source_g``, which is g
    itself except for a free theory probed with unit sources.  A truncated
    pair run hands :meth:`sources` to :meth:`source_free`'s ``assemble``;
    an exact pair run's engine and the oracle take :meth:`interaction`, the
    whole exponent.  ``ursell_memos`` is the one table of rho^T memos that
    every engine of the model's experiment fills.
    """

    spec: LatticeSpec
    cov: Covariance
    g: float
    source_g: float
    row: np.ndarray
    stencil: tuple[np.ndarray, np.ndarray]
    _psi_elements: dict = field(default_factory=dict, init=False, repr=False)
    _source_free: dict = field(default_factory=dict, init=False, repr=False)
    ursell_memos: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def build(cls, spec: LatticeSpec, cov: Covariance, g: float,
              source_g: float | None = None) -> "Model":
        row = cov.table[tuple((-_coords(spec) % spec.L).T)]
        return cls(spec, cov, g, g if source_g is None else source_g, row,
                   quartic_stencil(spec, row, g))

    def psi_element(self, max_sites: int | None = None) -> GrassmannElement:
        """-quartic as one element on the psi bits that every
        ``universe_for(spec, ...)`` shares, without the monomials on more
        than ``max_sites`` sites; a site count does not change under
        translation, so the stencil is capped before it is moved."""
        if max_sites not in self._psi_elements:
            positions, coeffs = self.stencil
            if max_sites:
                sites = positions // (2 * self.spec.spinor_dim * self.spec.N)
                keep = 1 + (np.diff(sites, axis=1) != 0).sum(axis=1) <= max_sites
                positions, coeffs = positions[keep], coeffs[keep]
            self._psi_elements[max_sites] = _translated(self.spec, positions, coeffs)
        return self._psi_elements[max_sites]

    def source_free(self, options: ClusterOptions) -> ClusterEngine:
        """The engine of ``psi_element`` on the universe without sources
        under ``options``, built on first use; it keys Z and K0 by
        translation, and its ``assemble(pair)`` gives a pair run by linear
        response (``clusters`` module docstring)."""
        if options not in self._source_free:
            self._source_free[options] = ClusterEngine(
                universe_for(self.spec, ()), self.psi_element(options.max_polymer_sites),
                options, side=self.spec.L, ursell_memos=self.ursell_memos)
        return self._source_free[options]

    def sources(self, source_sites: tuple[Site, ...] | None,
                ) -> tuple[GeneratorUniverse, GrassmannElement]:
        """The universe and the source part of f = -V1 with sources on
        ``source_sites`` only (None: every site).  Each term has its psi on
        one site.

        The terms are those that ``source_kernels`` and ``to_element`` give
        the sources left after setting the others to zero, in the same order
        and with the same coefficient bits: first psi-bar J at each source
        site x, then -(psi Jbar) carrying -g S(x, y) for each source site x
        and each y, both in ``spec.sites`` order, spinor before flavor.
        """
        spec = self.spec
        universe = universe_for(spec, source_sites)
        if self.source_g == 0:
            return universe, GrassmannElement()
        sd, N = spec.spinor_dim, spec.N
        marked = _marked(spec, source_sites)
        # the universe lists the eta modes of the source sites in site order
        eta_block = np.cumsum(marked) - 1
        xs = np.flatnonzero(marked)
        x, al, a = np.indices((len(xs), sd, N)).reshape(3, -1)
        x = xs[x]
        local_psi = 2 * ((x * sd + al) * N + a)
        local_eta = universe.n_psi_bits + 2 * ((eta_block[x] * sd + al) * N + a) + 1
        x, y, al, be, a = np.indices((len(xs), spec.n_sites, sd, sd, N)).reshape(5, -1)
        x = xs[x]
        value = self.source_g * self.row[_between(spec)[x, y], al, be]
        keep = value != 0
        smeared_psi = 2 * ((y * sd + be) * N + a) + 1
        smeared_eta = universe.n_psi_bits + 2 * ((eta_block[x] * sd + al) * N + a)
        psi_bits = np.concatenate((local_psi, smeared_psi[keep])).astype(object)
        eta_bits = np.concatenate((local_eta, smeared_eta[keep])).astype(object)
        masks = np.left_shift(1, psi_bits) | np.left_shift(1, eta_bits)
        # a smeared entry is stored as -value, then added onto 0j
        values = np.concatenate((np.full(len(local_psi), complex(self.source_g)),
                                 0.0 - value[keep]))
        out = GrassmannElement()
        out.terms = dict(zip(masks.tolist(), values.tolist()))
        return universe, out

    def interaction(self, source_sites: tuple[Site, ...] | None,
                    ) -> tuple[GeneratorUniverse, GrassmannElement]:
        """The universe and the whole f = -V1: :meth:`sources` plus the
        quartic part, which holds no eta."""
        universe, sources = self.sources(source_sites)
        return universe, sources + self.psi_element()


def _marked(spec: LatticeSpec, source_sites: tuple[Site, ...] | None) -> np.ndarray:
    """Whether each site, in ``spec.sites`` order, holds sources (None: all)."""
    marked = np.full(spec.n_sites, source_sites is None)
    if source_sites is not None:
        marked[_site_index(spec, np.array(source_sites, dtype=np.intp).reshape(-1, spec.d))] = True
    return marked


def build_v1(spec: LatticeSpec, cov: Covariance, g: float,
             source_sites: tuple[Site, ...] | None = None) -> CoefficientSystem:
    """Full transformed interaction; feed its negation to the expansion."""
    local, smeared = source_kernels(spec, cov, g)
    v1 = local.scaled(-1) + smeared.scaled(-1) + quartic_kernel(spec, cov, g)
    return v1.with_sources_at(source_sites)


def model_norms(model: Model, kappa: float, h1: float = 4.0, h2: float = 1.0,
                source_sites: tuple[Site, ...] | None = None) -> dict:
    """Weighted kernel norms of the interaction pieces and the run gate.

    The values that ``coeff_norm`` gives the stored kernels, computed in
    numpy from S's origin row; they agree up to rounding.  A free model
    (g = 0) has no interaction: probe sources are not part of V1, so every
    norm is zero.  Every pin site of the full quartic kernel gives the same
    bucket under translation, the origin's psi-bar pin its whole:
    g^2 N^2 h1^4 sum_{y, y'} e^{kappa T(0, y, y')} A(y) A(y'), with
    A(y) = sum |S(0, y)| over the spinor pair and T the tree length of
    {0, y, y'}.  Like ``coeff_norm``, it counts the entries that repeat a
    generator.  A source pin p holds the local entries at p and the smeared
    entries -g S(x, y) with x = p, or with y = p and another source site x;
    a norm is the largest pin.
    """
    if kappa >= model.cov.m_f:
        raise ConfigError("report mass must stay below the fermion mass")
    if model.g == 0:
        v_norm = local_norm = smeared_norm = sources_norm = 0.0
    else:
        spec = model.spec
        sd, N, L = spec.spinor_dim, spec.N, spec.L
        coords = _coords(spec)
        r = np.sqrt((np.minimum(coords, L - coords) ** 2).sum(axis=1))
        between = _between(spec)
        # the two shortest sides of the triangle 0, y, y'
        sides = np.sort(np.stack(np.broadcast_arrays(
            r[:, None], r[None, :], r[between])), axis=0)
        tree = sides[0] + sides[1]
        a = np.abs(model.row).sum(axis=(1, 2))
        v_norm = float(model.g ** 2 * N ** 2 * h1 ** 4 * (a @ np.exp(kappa * tree) @ a))
        marked = _marked(spec, source_sites)
        g = abs(model.source_g)
        local = marked * (sd * N * h1 * h2 * g)
        # by displacement z, the smeared mass of the entries from x to x + z
        mass = N * h1 * h2 * g * np.exp(kappa * r) * a
        toward = mass[between]
        np.fill_diagonal(toward, 0.0)
        smeared = marked * mass.sum() + marked @ toward
        local_norm = float(local.max())
        smeared_norm = float(smeared.max())
        sources_norm = float((local + smeared).max())
    # The norm adds up per degree class, and the quartic (4, 0) class never
    # meets the (1, 1) class of the sources, so v1's norm splits exactly.
    v1_norm = v_norm + sources_norm
    return {
        "v_norm": v_norm,
        "source_local_norm": local_norm,
        "source_smeared_norm": smeared_norm,
        "v1_norm": v1_norm,
        "v1_triangle_bound": v_norm + local_norm + smeared_norm,
        "gate_sixteenth": v1_norm < 1.0 / 16.0,
    }


# ------------------------------------------------------------- correlations


def truncated_two_point(series: LogSeries, g: float, y1: Site, y2: Site,
                        alpha: int, beta: int, a: int = 0, b: int = 0) -> complex:
    """Connected <psibar_{beta b}(y1) psi_{alpha a}(y2)> from the log series.

    Reads the quadratic source coefficient bracket; the slot order below is
    the one that makes the free theory return S_{alpha beta}(y1, y2)
    exactly.  Values vanish unless the sources were kept in the series
    universe.
    """
    if g <= 0:
        raise ConfigError("coupling must be positive to normalize")
    bracket = series.antisym_eval(
        eta(y2, beta, b), eta(y1, alpha, a, bar=True)
    )
    return bracket / (g * g)


def correlation_rows(series: LogSeries, g: float, spec: LatticeSpec,
                     target: Site) -> list[dict]:
    """Truncated two-point rows from the origin ``spec.sites[0]`` to ``target``.

    One row per (spinor pair, flavor), in (alpha, beta, flavor) order, each
    at the torus distance of the target.  Only flavor-diagonal channels
    appear, the off-diagonal ones vanish identically for this action.
    """
    origin = spec.sites[0]
    r = spec.metric.distance(origin, target)
    rows = []
    for alpha in range(spec.spinor_dim):
        for beta in range(spec.spinor_dim):
            for flavor in range(spec.N):
                value = truncated_two_point(
                    series, g, origin, target, alpha, beta, flavor, flavor
                )
                rows.append(
                    {
                        "distance": r,
                        "alpha": alpha,
                        "beta": beta,
                        "flavor": flavor,
                        "re": value.real,
                        "im": value.imag,
                        "abs": abs(value),
                    }
                )
    return rows


# -------------------------------------------------------------------- fits

#: Magnitudes at or below this count as zero in the decay fits.
FIT_FLOOR = 1e-14


@dataclass(frozen=True)
class FitResult:
    c: float
    kappa: float
    r_squared: float
    decaying: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _scored_fit(samples: list, fit, min_rate: float) -> FitResult:
    """Score ``fit(usable) -> (kappa, intercept, ss_res, logs)`` on the
    samples above ``FIT_FLOOR``; the decaying flag asks for kappa > min_rate."""
    usable = [(x, m) for x, m in samples if m > FIT_FLOOR]
    if len(usable) < 3:
        raise ValueError("need at least three positive samples to fit decay")
    kappa, intercept, ss_res, logs = fit(usable)
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    if ss_tot < 1e-30:
        r_squared = 1.0 if ss_res < 1e-30 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return FitResult(float(math.exp(intercept)), kappa, r_squared, kappa > min_rate)


def decay_fit(samples: list[tuple[float, float]]) -> FitResult:
    """Least squares of log magnitude against distance.

    Zero magnitudes are dropped; needs three usable points.  kappa is the
    negated slope, c the exponentiated intercept, and the decaying flag asks
    for a clearly positive rate.
    """
    def fit(usable):
        xs = np.array([r for r, _ in usable], dtype=float)
        ys = np.log(np.array([m for _, m in usable], dtype=float))
        slope, intercept = np.polyfit(xs, ys, 1)
        predicted = slope * xs + intercept
        return float(-slope), intercept, float(np.sum((ys - predicted) ** 2)), ys

    return _scored_fit(samples, fit, 1e-9)


def _image_distances(site: Site, L: int) -> list[float]:
    """Euclidean lengths of the displacement and its one-shell wrap images."""
    out = []
    for shifts in itertools.product((-1, 0, 1), repeat=len(site)):
        out.append(math.sqrt(sum((s - n * L) ** 2 for s, n in zip(site, shifts))))
    return sorted(out)


#: Search interval and absolute tolerance of the torus fit's rate.
RATE_BOUNDS = (1e-6, 20.0)
RATE_XATOL = 1e-10
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MAX_EVALS = 500


def _bounded_minimum(f) -> float:
    """Minimizer of ``f`` over ``RATE_BOUNDS``: Brent's bounded method (Brent 1973).
    Steps and arithmetic are pinned: the fitted rate is only good to about 1e-9
    relative, and the stored reports were made with these exact evaluations."""
    a, b = RATE_BOUNDS
    fulc = nfc = xf = a + _GOLDEN_MEAN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = f(xf)
    evals = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + RATE_XATOL / 3.0
        tol2 = 2.0 * tol1
        if abs(xf - xm) <= tol2 - 0.5 * (b - a) or evals >= _MAX_EVALS:
            return xf
        parabolic = False
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, rat
            parabolic = abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf)
        if parabolic:
            rat = p / q
            if xf + rat - a < tol2 or b - (xf + rat) < tol2:
                rat = tol1 if xm >= xf else -tol1
        else:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN_MEAN * e
        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0 else -step)
        fu = f(x)
        evals += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu


def torus_decay_fit(samples: list[tuple[Site, float]], L: int) -> FitResult:
    """Exponential decay rate on a periodic box, wrap images summed.

    On small tori the naive distance fit absorbs the wrap multiplicity
    (every displacement is realized along several images) into the rate.
    Fitting magnitude against ``c * sum_images exp(-kappa |r_image|)``
    removes that finite-size artifact, so rates from different box sizes
    become comparable.  Least squares on the log, one bounded scalar
    minimization for kappa.
    """
    def fit(usable):
        logs = np.array([math.log(m) for _, m in usable])
        images = [_image_distances(site, L) for site, _ in usable]

        def model(kappa: float) -> np.ndarray:
            return np.array(
                [math.log(sum(math.exp(-kappa * r) for r in rr)) for rr in images])

        def sse(kappa: float) -> float:
            resid = logs - model(kappa)
            return float(np.sum((resid - resid.mean()) ** 2))

        kappa = _bounded_minimum(sse)
        resid = logs - model(kappa)
        intercept = float(resid.mean())
        return kappa, intercept, float(np.sum((resid - intercept) ** 2)), logs

    return _scored_fit(samples, fit, 1e-4)
