"""Coherence-assisted plasmon amplification in a driven three-level gain medium.

Time-domain integration of the coupled chromophore/plasmon equations of
motion, algebraic steady states, spasing threshold and stability
analysis, and parameter-sweep tooling with figure-ready table output.

Each module's ``__all__`` lists its public names, and the package
re-exports them.
"""

from . import analysis, dynamics, errors, params, state, units
from .analysis import *
from .dynamics import *
from .errors import *
from .params import *
from .state import *
from .units import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += units.__all__
__all__ += params.__all__
__all__ += state.__all__
__all__ += dynamics.__all__
__all__ += analysis.__all__
__all__ += errors.__all__
