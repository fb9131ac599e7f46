"""
qwalk2d: two-dimensional coined quantum walks on the periodic lattice.

Direct unitary evolution and momentum-space spectral reconstruction of
4-chirality walks on the odd N x N torus, exact and empirical
time-averaged origin probabilities, infinite-lattice limits, and a
localization predictor built on eigenvalue degeneracy across momentum
blocks.

The public names are those of the five library modules' `__all__`.
"""

# bound before the star imports, which rebind `evolve` to the function
from . import coins as _coins, evolve as _evolve, spectral as _spectral
from . import state as _state, timeavg as _timeavg
from .coins import *  # noqa: F401,F403
from .evolve import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .state import *  # noqa: F401,F403
from .timeavg import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted({name for module in (_coins, _evolve, _spectral, _state, _timeavg)
                  for name in module.__all__})
