"""Characteristic classes and Spin/Kahler deciders for real Bott manifolds.

Everything is exact finite algebra over GF(2): no floating point, no
tolerances.  See the bottcore module docstring for the mathematical
setup and README.md for usage.

Each module's __all__ is the one list of its public names; the package
re-exports them all, so the lists must stay disjoint.
"""

from . import bottcore, census, euclid, f2poly
from .bottcore import *  # noqa: F401,F403
from .census import *  # noqa: F401,F403
from .euclid import *  # noqa: F401,F403
from .f2poly import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*bottcore.__all__, *census.__all__, *euclid.__all__, *f2poly.__all__]
