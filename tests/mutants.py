"""A mutation gate: the test suite must catch each of a fixed table of
one-token defects.

    python tests/mutants.py

Each row of ``MUTANTS`` names a source file under ``src/atsuji``, a text
that occurs in it exactly once, its replacement, and the test files (or
pytest node ids) that must fail once it is made.  The script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, runs
the named tests there once unmutated (they must pass), and then applies one
row at a time and runs ``pytest -x -q`` on that row's tests, with a fixed
Hypothesis seed and no bytecode cache, so an edit of the same size within
one second is never hidden by a stale ``.pyc``.  A row whose tests still
pass is a survivor; a run that outlasts ``TIMEOUT`` seconds is stopped and
counts as killed, so a mutant that makes a loop run forever cannot stall the
gate.  It exits 1 naming every survivor, and 2 when a row no longer matches
its file or the unmutated copy fails.  Nothing is written into the checkout.
Standard library only; it is not collected by pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds per pytest run


class Mutant(NamedTuple):
    path: str  # under src/atsuji
    source: str  # occurs in the file exactly once
    replacement: str
    tests: tuple[str, ...]  # files or node ids under tests/


MUTANTS = [
    # an isolation equal to the threshold fails
    Mutant("analysis.py", "if worst.eta < threshold:", "if worst.eta <= threshold:",
           ("test_analysis.py",)),
    # an isolation bound met exactly at bound - tol fails
    Mutant("remetrize.py", "passed = report.eta >= bound - r.base.tol",
           "passed = report.eta > bound - r.base.tol", ("test_remetrize.py",)),
    # a pair touching D that moved by exactly tol fails the topology check
    Mutant("remetrize.py", "(np.abs(d_new[i, j] - d_old[i, j]) > tol)",
           "(np.abs(d_new[i, j] - d_old[i, j]) >= tol)", ("test_remetrize.py",)),
    # a new distance exactly tol below the base one fails domination
    Mutant("remetrize.py", "d_new[i, j] < d_old[i, j] - tol,", "d_new[i, j] <= d_old[i, j] - tol,",
           ("test_remetrize.py",)),
    # the isolation sweep breaks a tie to the greatest partner
    Mutant("analysis.py", "q = int(prev[vals == v].min())", "q = int(prev[vals == v].max())",
           ("test_analysis.py",)),
    # a pair's distance reads its entry (i, j) only
    Mutant("space.py", "near = np.minimum(d[i, j], d.T[i, j])", "near = np.minimum(d[i, j], d[i, j])",
           ("test_analysis.py",)),
    # the complement of B(D, eps) drops the points at distance exactly eps
    Mutant("analysis.py", "np.count_nonzero(self._reach >= eps)",
           "np.count_nonzero(self._reach > eps)", ("test_analysis.py",)),
    # the FAIL witness is taken at the smallest least-isolated scale
    Mutant("analysis.py", "key=lambda eps: (isolation[eps].eta, -eps)",
           "key=lambda eps: (isolation[eps].eta, eps)", ("test_analysis.py",)),
    # a run whose grid complements each hold at most one point is not INCONCLUSIVE
    Mutant("analysis.py", "elif math.isinf(worst.eta):", "elif math.isnan(worst.eta):",
           ("test_analysis.py", "test_golden.py")),
    # remetrize restores D's rows but not its columns
    Mutant("remetrize.py", "np.copyto(newdist, base.dist, where=member_mask)  # columns",
           "pass", ("test_remetrize.py",)),
    # the witness search takes pairs at distance exactly delta
    Mutant("functions.py", "(d[i, j] < delta)", "(d[i, j] <= delta)", ("test_functions.py",)),
    # the witness search misses a gap of exactly eps0
    Mutant("functions.py", "out=g) >= eps0)", "out=g) > eps0)", ("test_functions.py",)),
    # the modulus of continuity misses a gap of exactly eta
    Mutant("functions.py", "out=g) >= eta)", "out=g) > eta)", ("test_functions.py",)),
    # the greedy net covers a point at distance exactly eps from a net point
    Mutant("analysis.py", "_pair_distance(space.dist, k, slice(None)) >= eps",
           "_pair_distance(space.dist, k, slice(None)) > eps",
           ("test_analysis.py", "test_golden.py")),
    # a pair's distance keeps the sign of a zero entry
    Mutant("space.py", "near += 0.0", "near = near", ("test_analysis.py",)),
    # a symmetric matrix whose excess bound is exactly tol takes the triangle scan
    Mutant("space.py", "if not (symmetric and excess <= tol):",
           "if not (symmetric and excess < tol):",
           ("test_cli.py::test_remetrize_on_a_symmetric_matrix_scans_only_at_load",)),
    # a coordinate slot of exactly the digit limit is refused
    Mutant("cli.py", "if len(slot) > _SLOT_DIGITS:", "if len(slot) >= _SLOT_DIGITS:",
           ("test_cli.py::test_points_l2_overlong_slot_is_input_error",)),
    # an entry of exactly -tol breaks nonnegativity
    Mutant("space.py", "np.nonzero(rows < -tol)", "np.nonzero(rows <= -tol)",
           ("test_space.py::test_space_rejects_a_tolerance_that_is_not_finite_and_nonnegative",)),
    # a pair whose entries differ by exactly tol breaks symmetry
    Mutant("space.py", "above = gap > tol", "above = gap >= tol",
           ("test_space.py::test_tiled_scan_lists_exactly_the_per_j_violations",)),
    # a diagonal entry of exactly tol breaks the identity axiom
    Mutant("space.py", "np.flatnonzero(diag > tol)", "np.flatnonzero(diag >= tol)",
           ("test_space.py::test_space_rejects_a_tolerance_that_is_not_finite_and_nonnegative",)),
    # two distinct points exactly tol apart are taken as discernible
    Mutant("space.py", "lambda i, j: d[i, j] <= tol)", "lambda i, j: d[i, j] < tol)",
           ("test_space.py::test_tiled_scan_lists_exactly_the_per_j_violations",)),
    # a list of all-scalar lists is written on one line, as a record is
    Mutant("cli.py", "_is_scalar if keys is None else _is_field", "_is_field",
           ("test_emit.py::test_emit_writes_the_layout_as_stated",)),
    # a record's list member needs only one scalar member
    Mutant("cli.py", "return all(map(_is_scalar, value))", "return any(map(_is_scalar, value))",
           ("test_emit.py::test_emit_writes_the_layout_as_stated",)),
]


def pytest(tree: Path, tests: list[str]) -> tuple[int | None, float]:
    """The exit code and seconds of ``pytest -x -q`` on ``tests`` in ``tree``;
    None for the code of a run stopped at ``TIMEOUT``."""
    for cache in tree.rglob(".hypothesis"):  # no example carried from one run to the next
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *(f"tests/{name}" for name in tests)],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT,
        ).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="atsuji-mutants-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)

        for k, row in enumerate(MUTANTS, 1):
            count = (tree / "src" / "atsuji" / row.path).read_text(encoding="utf-8").count(row.source)
            if count != 1:
                print(f"row {k}: {row.source!r} occurs {count} times in {row.path}")
                return 2
        files = sorted({name for row in MUTANTS for name in row.tests})
        code, seconds = pytest(tree, files)
        if code != 0:
            print(f"the unmutated tree fails {files} (pytest exit {code})")
            return 2
        print(f"unmutated: {len(files)} test targets pass in {seconds:.1f} s")

        survivors = []
        for k, row in enumerate(MUTANTS, 1):
            path = tree / "src" / "atsuji" / row.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(row.source, row.replacement), encoding="utf-8")
            try:
                code, seconds = pytest(tree, list(row.tests))
            finally:
                path.write_text(original, encoding="utf-8")
            if code not in (0, 1, None):
                print(f"row {k}: pytest exit {code} on {row.path}: {row.replacement!r}")
                return 2
            verdict = {0: "SURVIVED", 1: "killed", None: "timed out"}[code]
            print(f"row {k:2}: {verdict:9} {seconds:5.1f} s  {row.path}: {row.replacement!r}")
            if code == 0:
                survivors.append(k)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: rows {survivors}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
