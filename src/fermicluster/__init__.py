"""Exact fermionic cluster expansions on small lattices.

The package provides four layers:

* an exact finite anticommuting algebra with sign-tracked bitmask monomials,
* Gaussian (Berezin) integration and direct log-partition-function evaluation,
* a connected-cover cluster engine with labelled-tree and weighted-norm
  convergence diagnostics,
* a lattice Gross-Neveu style application with a Wilson-type propagator,
  truncated correlation functions and decay fits.
"""

from .algebra import GrassmannElement, canonicalize, exp_series, log1p_nilpotent
from .errors import CapacityError, ConfigError, FermiClusterError, NormalizationError, ParityError
from .generators import Family, GeneratorIndex, GeneratorUniverse, eta, psi

__all__ = [
    "CapacityError",
    "ConfigError",
    "Family",
    "FermiClusterError",
    "GeneratorIndex",
    "GeneratorUniverse",
    "GrassmannElement",
    "NormalizationError",
    "ParityError",
    "canonicalize",
    "exp_series",
    "eta",
    "log1p_nilpotent",
    "psi",
]

__version__ = "0.1.0"
