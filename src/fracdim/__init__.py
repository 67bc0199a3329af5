"""Fractal interpolation with prescribed dimension and box-counting tools."""

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
from .errors import *  # noqa: F401,F403
from .functions import *  # noqa: F401,F403
from .bernstein import *  # noqa: F401,F403
from .fif import *  # noqa: F401,F403
from .dimension import *  # noqa: F401,F403
from .pipeline import *  # noqa: F401,F403
