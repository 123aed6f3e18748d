"""Finite metric spaces: uniform-continuity (Atsuji) checking with witnesses,
and remetrization to an equivalent-topology uniformly continuous metric."""

__version__ = "0.1.0"

import os
import sys

# OpenBLAS reads its thread count from these when numpy loads it; a caller
# who sets any of them keeps that choice.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# atsuji makes no BLAS call; OpenBLAS's idle worker per extra CPU made `import
# numpy` cost 0.24 CPU-s on 2 vCPUs, against 0.11 s with one thread
if "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREADS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:  # removed at once, so no child process inherits it
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import analysis, functions, generators, remetrize, space

# Each module's __all__ is the public API, re-exported here.  The modules are
# listed before the loop, so the function ``remetrize`` takes over the name of
# its module only once that module's names have been read.
__all__ = ["__version__"]
for _module in (space, analysis, functions, remetrize, generators):
    __all__ += _module.__all__
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module
