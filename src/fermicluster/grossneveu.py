"""Lattice four-fermion model with a Wilson Dirac operator.

Builds the massive covariance S = (D + m_f)^-1, rewrites the quartic
density and source couplings on the unit-covariance side (psi -> S psi), and
exposes the truncated two-point function read off a resummed log series,
together with exponential decay fits of correlations and of S itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .berezin import LogSeries
from .coeffsys import CoefficientSystem
from .errors import ConfigError
from .generators import Family, GeneratorUniverse, Site, eta, psi
from .weights import TorusMetric, WeightSystem, coeff_norm


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


def dirac_matrix(spec: LatticeSpec, m_f: float) -> np.ndarray:
    """Dense matrix of D + m_f with D = gamma.grad - Laplacian/2.

    Symmetric first differences for the gradient, the 2d+1 point stencil
    for the Laplacian, periodic wrap.  Index layout is site-major with the
    spinor inside; flavors are an exact copy and stay implicit.
    """
    if m_f <= 0:
        raise ConfigError("fermion mass must be positive")
    gams = gamma_matrices(spec.d)
    sd = spec.spinor_dim
    sites = spec.sites
    index = {s: i for i, s in enumerate(sites)}
    n = len(sites) * sd
    out = np.zeros((n, n), dtype=complex)
    eye = np.eye(sd, dtype=complex)
    for s in sites:
        row = index[s] * sd
        out[row:row + sd, row:row + sd] += (m_f + spec.d) * eye
        for mu in range(spec.d):
            step = list(s)
            step[mu] = (step[mu] + 1) % spec.L
            fwd = index[tuple(step)] * sd
            step[mu] = (s[mu] - 1) % spec.L
            bwd = index[tuple(step)] * sd
            out[row:row + sd, fwd:fwd + sd] += (gams[mu] - eye) / 2
            out[row:row + sd, bwd:bwd + sd] += -(gams[mu] + eye) / 2
    return out


@dataclass(frozen=True)
class Covariance:
    """Inverse of D + m_f on the (site x spinor) index, flavor-diagonal."""

    spec: LatticeSpec
    m_f: float
    matrix: np.ndarray
    log_det: float

    @cached_property
    def blocks(self) -> np.ndarray:
        """S as a (site, spinor, site, spinor) view of ``matrix``."""
        n, sd = self.spec.n_sites, self.spec.spinor_dim
        return self.matrix.reshape(n, sd, n, sd)

    @cached_property
    def site_index(self) -> dict[Site, int]:
        return {s: i for i, s in enumerate(self.spec.sites)}

    def entry(self, x: Site, y: Site, alpha: int, beta: int) -> complex:
        return complex(self.blocks[self.site_index[x], alpha, self.site_index[y], beta])

    def block(self, x: Site, y: Site) -> np.ndarray:
        return self.blocks[self.site_index[x], :, self.site_index[y], :]


def covariance(spec: LatticeSpec, m_f: float) -> Covariance:
    op = dirac_matrix(spec, m_f)
    sign, log_det = np.linalg.slogdet(op)
    if sign == 0:
        raise ConfigError("Dirac operator is singular at this mass")
    matrix = np.linalg.inv(op)
    return Covariance(spec=spec, m_f=m_f, matrix=matrix, log_det=float(log_det))


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


def quartic_kernel(spec: LatticeSpec, cov: Covariance, g: float) -> CoefficientSystem:
    """Transformed quartic density: entries at (x, x, y, y') carrying
    -g^2 S(x,y) S(x,y') over all spinor and flavor assignments."""
    system = CoefficientSystem()
    if g == 0:
        return system
    sd = spec.spinor_dim
    sites = spec.sites
    gg = g * g
    for x in sites:
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
    return system


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
    """S and the full-source kernels of V1 for one (lattice, m_f, g).

    Built once per run.  The quartic density carries coupling g and the
    source couplings carry ``source_g``, which is g itself except for a
    free theory probed with unit sources.  Restricting sources to a few
    sites only zeroes the other etas, so a restricted interaction is ``v1``
    filtered by ``CoefficientSystem.with_sources_at``, never a rebuild.
    """

    spec: LatticeSpec
    cov: Covariance
    g: float
    quartic: CoefficientSystem
    local: CoefficientSystem
    smeared: CoefficientSystem
    v1: CoefficientSystem

    @classmethod
    def build(cls, spec: LatticeSpec, cov: Covariance, g: float,
              source_g: float | None = None) -> "Model":
        quartic = quartic_kernel(spec, cov, g)
        local, smeared = source_kernels(spec, cov, g if source_g is None else source_g)
        v1 = local.scaled(-1) + smeared.scaled(-1) + quartic
        return cls(spec, cov, g, quartic, local, smeared, v1)


def build_v1(spec: LatticeSpec, cov: Covariance, g: float,
             source_sites: tuple[Site, ...] | None = None) -> CoefficientSystem:
    """Full transformed interaction; feed its negation to the expansion."""
    return Model.build(spec, cov, g).v1.with_sources_at(source_sites)


def model_norms(model: Model, kappa: float, h1: float = 4.0, h2: float = 1.0,
                source_sites: tuple[Site, ...] | None = None) -> dict:
    """Weighted kernel norms of the interaction pieces and the run gate.

    A free model (g = 0) has no interaction: probe sources are not part of
    V1, so every norm is zero.
    """
    if kappa >= model.cov.m_f:
        raise ConfigError("report mass must stay below the fermion mass")
    weights = WeightSystem(kappa=kappa, h1=h1, h2=h2, metric=model.spec.metric)

    def norm(system: CoefficientSystem) -> float:
        if model.g == 0:
            return 0.0
        return coeff_norm(system.with_sources_at(source_sites), weights)

    v_norm = norm(model.quartic)
    local_norm = norm(model.local)
    smeared_norm = norm(model.smeared)
    # The norm adds up per degree class, and the quartic (4, 0) class never
    # meets the (1, 1) class of the sources, so v1's norm splits exactly.
    v1_norm = v_norm + norm(model.local + model.smeared)
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


def correlation_rows(series: LogSeries, g: float, spec: LatticeSpec) -> list[dict]:
    """Truncated two-point table from the origin ``spec.sites[0]`` to every site.

    One row per (site, spinor pair, flavor); distances use the torus
    metric.  Only flavor-diagonal channels appear, the off-diagonal ones
    vanish identically for this action.
    """
    origin = spec.sites[0]
    metric = spec.metric
    rows = []
    eta_sites = {gidx.site for gidx in series.universe.generators()
                 if gidx.family == Family.ETA}
    for site in spec.sites:
        if site not in eta_sites or origin not in eta_sites:
            continue
        r = metric.distance(origin, site)
        for alpha in range(spec.spinor_dim):
            for beta in range(spec.spinor_dim):
                for flavor in range(spec.N):
                    value = truncated_two_point(
                        series, g, origin, site, alpha, beta, flavor, flavor
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
    rows.sort(key=lambda row: (row["distance"], row["alpha"], row["beta"], row["flavor"]))
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
