"""Run configuration: flat key-value text with dotted sections.

A config file is plain text, one ``section.key = value`` assignment per
line, with ``#`` comments and blank lines ignored.  Unknown keys are
rejected so that typos fail loudly instead of silently running with
defaults.  ``emit_config`` writes the canonical form; parsing it back
gives an identical config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError

_MODES = ("exact", "truncated")
# Torus distances are Euclidean throughout (norms, tree lengths, fits); the
# key stays in the schema so that canonical configs and their hashes keep it.
_METRICS = ("euclidean",)


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs, validated at construction."""

    d: int = 2
    L: int = 2
    N: int = 1
    g: float = 0.05
    m_f: float = 1.0
    h1: float = 4.0
    h2: float = 1.0
    kappa: float = 0.5
    metric: str = "euclidean"
    n_max: int = 30
    max_diameter: int = 2
    floor: float = 1e-9
    eta_cap: int = 2
    mode: str = "exact"
    out: str = ""

    def __post_init__(self):
        if self.d < 2:
            raise ConfigError("lattice.d must satisfy d >= 2")
        if self.L < 2:
            raise ConfigError("lattice.L must satisfy L >= 2")
        if self.N < 1:
            raise ConfigError("lattice.N must satisfy N >= 1")
        if self.g < 0:
            raise ConfigError("model.g must satisfy g >= 0")
        if self.m_f <= 0:
            raise ConfigError("model.m_f must satisfy m_f > 0")
        if not 0 < self.kappa < self.m_f:
            raise ConfigError("weights.kappa must satisfy 0 < kappa < m_f")
        if self.h1 <= 0 or self.h2 <= 0:
            raise ConfigError("weights.h1 and weights.h2 must be positive")
        if self.metric not in _METRICS:
            raise ConfigError(f"weights.metric must be one of {_METRICS}")
        for name in ("n_max", "max_diameter", "eta_cap"):
            if getattr(self, name) < 1:
                raise ConfigError(f"expansion.{name} must be >= 1")
        if not 0 < self.floor < 1:
            raise ConfigError("expansion.floor must lie in (0, 1)")
        if self.mode not in _MODES:
            raise ConfigError(f"run.mode must be one of {_MODES}")


_SCHEMA: dict[str, tuple[str, type]] = {
    "lattice.d": ("d", int),
    "lattice.L": ("L", int),
    "lattice.N": ("N", int),
    "model.g": ("g", float),
    "model.m_f": ("m_f", float),
    "weights.h1": ("h1", float),
    "weights.h2": ("h2", float),
    "weights.kappa": ("kappa", float),
    "weights.metric": ("metric", str),
    "expansion.n_max": ("n_max", int),
    "expansion.max_diameter": ("max_diameter", int),
    "expansion.floor": ("floor", float),
    "expansion.eta_cap": ("eta_cap", int),
    "run.mode": ("mode", str),
    "run.out": ("out", str),
}


def parse_config(source: str) -> RunConfig:
    """Parse dotted key-value text; absent keys fall back to defaults."""
    values = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, cast = _SCHEMA[key]
        if attr in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[attr] = cast(text) if cast is not str else text
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(**values)


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form; ``parse_config(emit_config(c)) == c``."""
    lines = [f"{key} = {getattr(cfg, _SCHEMA[key][0])}" for key in sorted(_SCHEMA)]
    return "\n".join(lines) + "\n"


def with_overrides(cfg: RunConfig, **kwargs) -> RunConfig:
    """Apply CLI-level overrides, revalidating the result."""
    updates = {k: v for k, v in kwargs.items() if v is not None}
    return replace(cfg, **updates) if updates else cfg
