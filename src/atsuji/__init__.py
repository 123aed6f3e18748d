"""Finite metric spaces: uniform-continuity (Atsuji) checking with witnesses,
and remetrization to an equivalent-topology uniformly continuous metric."""

__version__ = "0.1.0"

from . import analysis, functions, generators, remetrize, space

# Each module's __all__ is the public API, re-exported here.  The modules are
# listed before the loop, so the function ``remetrize`` takes over the name of
# its module only once that module's names have been read.
__all__ = ["__version__"]
for _module in (space, analysis, functions, remetrize, generators):
    __all__ += _module.__all__
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module
