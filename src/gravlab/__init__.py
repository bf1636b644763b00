"""gravlab: a numerical laboratory for gravitationally induced collapse estimates.

Subpackages cover gravitational self-energy of superposed mass configurations,
the collapse-time criterion T = hbar/E_delta, stationary states and time
evolution of the self-gravitating (and electrostatically self-interacting)
wave equation, and a stochastic collapse toy model with an energy ledger.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy_numpy():
    """numpy, executed at its first attribute access, so that the commands
    that compute with ``math`` alone never pay for importing it.  gravlab's
    modules take it from here (``from . import np``): on Python 3.11 an
    ``import numpy`` statement reads ``__spec__``, which executes a lazy
    module at once."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()
