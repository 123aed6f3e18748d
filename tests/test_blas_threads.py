"""``import atsuji`` holds OpenBLAS to one thread while it loads numpy, and
leaves the environment as it found it.

Each check runs in a fresh interpreter started without the variables that
OpenBLAS reads its thread count from, and counts the process's threads in
``/proc/self/status``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads the thread count from Linux's /proc"
)

# the variables OpenBLAS reads its thread count from
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
THREADS = ("int(next(line.split()[1] for line in open('/proc/self/status')"
           " if line.startswith('Threads:')))")

# OpenBLAS starts a worker per extra usable CPU when numpy loads it
BLAS = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
SPINS_UP_WORKERS = (
    hasattr(os, "sched_getaffinity")
    and len(os.sched_getaffinity(0)) >= 2
    and "openblas" in BLAS.get("name", "").lower()
)
needs_workers = pytest.mark.skipif(
    not SPINS_UP_WORKERS, reason="needs numpy's BLAS to be OpenBLAS and 2 or more usable CPUs"
)


def run(code: str, **env: str) -> str:
    """The standard output of ``python -c code``, started without any of
    ``BLAS_THREADS``, then with ``env`` added."""
    clean = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    proc = subprocess.run([sys.executable, "-c", code], env={**clean, **env},
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_import_atsuji_starts_no_blas_worker():
    assert run(f"import atsuji; print({THREADS})") == "1"


@needs_workers
def test_a_bare_numpy_import_starts_blas_workers():
    assert int(run(f"import numpy; print({THREADS})")) > 1


def test_import_atsuji_leaves_the_environment_as_it_found_it():
    code = """
import os, subprocess, sys
before = dict(os.environ)
import atsuji
assert "numpy" in sys.modules
assert dict(os.environ) == before
# a child sees the process's C-level environment, not os.environ
inherited = subprocess.run([sys.executable, "-c", "import os; print(sorted(os.environ.items()))"],
                           env=None, capture_output=True, text=True, check=True).stdout
print(inherited.strip() == repr(sorted(before.items())))
"""
    assert run(code) == "True"


@needs_workers
def test_a_callers_thread_count_wins():
    assert run(f"import atsuji; print({THREADS})", OPENBLAS_NUM_THREADS="2") == "2"


@needs_workers
def test_numpy_imported_first_keeps_its_default():
    assert int(run(f"import numpy, atsuji; print({THREADS})")) > 1
