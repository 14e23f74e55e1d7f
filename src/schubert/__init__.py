"""Exact Schubert calculus with osculating and isotropic flags.

Everything is computed over the rationals (or quadratic extensions of them
when square roots become unavoidable); there is no floating point anywhere,
so every verification in the package is a proof for the specific inputs it
ran on.  Each module's ``__all__`` declares its public names once; the
package republishes them all.
"""

from . import errors, flags, grassmann, linalg, poly, wronski
from .errors import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .poly import *  # noqa: F401,F403
from .flags import *  # noqa: F401,F403
from .grassmann import *  # noqa: F401,F403
from .wronski import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (errors, linalg, poly, flags, grassmann, wronski)
           for name in module.__all__]
