"""Isotropic cones of indefinite Hermitian spaces.

Core objects: the Hermitian form of signature (p, q), its isotropic cone,
the ray and projective quotients with canonical representatives, induced
(conformal) metrics and the degenerate quotient cometric, Witt bases and the
affine compactification chart with its orthogonal boundary stratification,
plus an exact oracle over the Gaussian rationals.  Each module's __all__
lists its public names; the package exports exactly their union.
"""

from . import charts, core, errors, exact, metrics, quotients, suites
from .charts import *
from .core import *
from .errors import *
from .exact import *
from .metrics import *
from .quotients import *
from .suites import *

__all__ = (core.__all__ + charts.__all__ + errors.__all__ + exact.__all__
           + metrics.__all__ + quotients.__all__ + suites.__all__)

__version__ = "0.1.0"
