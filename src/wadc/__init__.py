"""Wide-area damping control of a symmetric two-machine grid:
small-signal modeling, delay-aware sampled gain design, and evaluation.

``import wadc`` loads neither numpy nor SciPy.  Each submodule named in
``__all__`` is imported on first use, as ``wadc.synthesis``, ``from wadc
import synthesis`` or ``from wadc import *``, so that ``python -m wadc``
reaches its process entry (``wadc.__main__``) before any of them."""

import importlib

from .errors import WadcError

__version__ = "0.1.0"

__all__ = ["config", "dncs", "grid_model", "sampled", "sim_eval",
           "synthesis", "WadcError", "__version__"]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
