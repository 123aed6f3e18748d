"""Rewrite the golden corpus: the spec files of this directory, the report
each case writes, and ``cases.json``, which holds every case's command line,
exit code and stderr.

Run from the root of a checkout, against the package under test:

    PYTHONPATH=src python tests/golden/regen.py

This script is the only way the corpus is rewritten.  Run it only where the
report bytes are meant to change, and review the diff: ``tests/test_golden.py``
compares every later run byte for byte with what it writes, and CI reruns it
and fails on any difference from the committed corpus.  Each case runs
``atsuji.cli.main`` in one temporary working directory holding the specs, so
the reports echo the spec paths as written here, and an ``--out-matrix`` file
named by a case is written there too.  Everything written there is copied
here only when every case exits 0, 1 or 2 without a traceback: a crash is
never pinned as a golden result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from atsuji.cli import main
from atsuji.space import _PAIR_BLOCK

HERE = Path(__file__).resolve().parent


def _l2(coords: np.ndarray) -> np.ndarray:
    return np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))


def _table(n: int, seed: int) -> np.ndarray:
    """A Euclidean distance table of ``n`` points in the unit square."""
    return _l2(np.random.default_rng(seed).uniform(0.0, 1.0, (n, 2)))


def _matrix(ids: list[str], dist) -> dict:
    return {"space": {"kind": "matrix", "ids": ids, "matrix": np.asarray(dist).tolist()}}


def _planted() -> np.ndarray:
    """20 points with two inflated entries and a zero distance between two
    distinct points: triangle and identity violations, exactly symmetric."""
    d = _table(20, 1)
    for i, k in [(2, 11), (7, 19)]:
        d[i, k] = d[k, i] = d[i, k] + 4.0
    d[4, 5] = d[5, 4] = 0.0
    return d


def _asymmetric() -> np.ndarray:
    """12 points, a few entries changed on one side of the diagonal only."""
    d = _table(12, 2)
    d[0, 9] += 3.0
    d[3, 1] *= 0.5
    d[10, 6] = -0.25
    return d


def _within_tol() -> np.ndarray:
    """Symmetric within the default tol but not entrywise, so the triangle
    scan runs in full; one entry pair inflated."""
    d = _table(18, 3)
    d[1, 12] = d[12, 1] = d[1, 12] + 3.0
    for i in range(0, 18, 3):
        d[i, (i + 5) % 18] += 5e-13
    return d


def _within_tol_metric() -> np.ndarray:
    """A Euclidean table raised by 5e-13 on one side of three pairs: a metric
    within the default tol that is not symmetric entrywise."""
    d = _table(12, 6)
    for i, j in [(0, 5), (7, 2), (4, 11)]:
        d[i, j] += 5e-13
    return d


def _within_tol_closest() -> np.ndarray:
    """The same table with only the upper entry of its closest pair,
    (4, 10), raised by 5e-13: the pair is as close as its lower entry."""
    d = _table(12, 6)
    d[4, 10] += 5e-13
    return d


def _signed_zeros() -> np.ndarray:
    """40 points in the unit square with -0.0 on every third diagonal
    entry: the diagonal zero of a set's point keeps its sign in a set
    distance."""
    d = _table(40, 3)
    d[np.arange(0, 40, 3), np.arange(0, 40, 3)] = -0.0
    return d


OVERFLOW = [
    [0, -1.7e308, 1, 1.7e308],
    [-1.7e308, 0, -1.7e308, 1],
    [1, -1.7e308, 0, 2],
    [-1.7e308, 1, 2, 0],
]

TRICKY_IDS = ['"quoted"', "back\\slash", "tab\there", "nul\x00", "\x7f", "café",
              "\U0001f600", "\ud800", "\udfff lone", "comma, colon: ", "[", "}"]


def _tricky() -> np.ndarray:
    d = _table(len(TRICKY_IDS), 4)
    d[0, 7] = d[7, 0] = d[0, 7] + 3.0
    d[2, 11] = d[11, 2] = d[2, 11] + 3.0
    return d


def _pair_blocks() -> np.ndarray:
    """An integer line metric of ``_PAIR_BLOCK + 4`` points, so that the pair
    passes cross a row block, with each pair kind planted in rows on both
    sides of row ``_PAIR_BLOCK``: one-sided negative entries, one-sided
    raised entries, nonzero diagonal entries, and zero pairs from points
    that share a position (these break no triangle)."""
    n, edge = _PAIR_BLOCK + 4, _PAIR_BLOCK
    x = np.arange(n)
    x[61], x[edge + 1] = x[60], x[edge]
    d = np.abs(x[:, None] - x[None, :]).astype(float)
    d[3, 2] = d[edge + 3, edge + 2] = -0.5
    d[20, 21] += 0.25
    d[edge + 2, edge + 1] += 0.25
    d[40, 40] = d[edge + 2, edge + 2] = 0.5
    return d


POINTS = [
    {"id": point_id, "coords": {str(1 + k % 3): 1 + k / 4, str(4 + k % 5): 1.5 - k % 2}}
    for k, point_id in enumerate(TRICKY_IDS)
]


# a sequence converging to the origin in l2, with its limit given as the derived set
LIMIT = {
    "space": {
        "kind": "points_l2",
        "points": [{"id": "x0"}] + [
            {"id": f"x{k}", "coords": {"1": 1 / k, "2": (-1) ** k / k**2}} for k in range(1, 11)
        ],
    },
    "derived_set": {"kind": "oracle", "ids": ["x0"]},
}


def _many_slots_point(k: int) -> dict:
    """Point k alone in slot k + 2; every third point also in the shared slot 1."""
    coords = {str(k + 2): 1 + k / 40}
    if k % 3 == 0:
        coords["1"] = 0.5
    return {"id": f"m{k}", "coords": coords}


MANY_SLOTS = {"space": {"kind": "points_l2", "points": [_many_slots_point(k) for k in range(40)]}}

# a and b within the default tol in the lower entry only, 7e-13 apart: not
# symmetric entrywise, symmetric within tol, and indiscernible
LOWER_WITHIN_TOL = [[0, 1.5e-12, 5], [8e-13, 0, 5], [5, 5, 0]]

# " a" is a point of its own, as far from "b" as "a" is
PADDED_IDS = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]

# a and b closer than the spec's tol, though build_space keeps them apart
INDISCERNIBLE_AT_TOL = {
    "space": {
        "kind": "points_l2",
        "points": [{"id": "a"}, {"id": "b", "coords": {"1": 1e-6}},
                   {"id": "c", "coords": {"1": 1.0}}],
    },
    "tol": 1e-3,
    "derived_set": {"kind": "oracle", "ids": ["a"]},
}


def _builtin(name: str, derived: dict | None = None, **params) -> dict:
    spec = {"space": {"kind": "builtin", "name": name, "params": params}}
    if derived is not None:
        spec["derived_set"] = derived
    return spec


SPECS = {
    "planted.spec.json": _matrix([f"x{k}" for k in range(20)], _planted()),
    "asymmetric.spec.json": _matrix([f"a{k}" for k in range(12)], _asymmetric()),
    "within-tol.spec.json": _matrix([f"t{k}" for k in range(18)], _within_tol()),
    "overflow.spec.json": _matrix(["p0", "p1", "p2", "p3"], OVERFLOW),
    "tricky-ids.spec.json": _matrix(TRICKY_IDS, _tricky()),
    "clean.spec.json": _matrix([f"c{k}" for k in range(15)], _table(15, 5)),
    "remetrize.spec.json": {
        "space": {"kind": "builtin", "name": "convergent_sequence", "params": {"n_max": 8}},
    },
    "pair-blocks.spec.json": _matrix([f"q{k}" for k in range(_PAIR_BLOCK + 4)], _pair_blocks()),
    "sequence.spec.json": _builtin("convergent_sequence", n_max=30),
    "empty-derived.spec.json": _builtin("convergent_sequence", {"kind": "empty"}, n_max=40),
    "detect.spec.json": _builtin("convergent_sequence", {"kind": "detect", "radius": 2}, n_max=20),
    # the radius is below every gap of the truncation: nothing is detected
    "detect-fail.spec.json": _builtin("positive_integers", {"kind": "detect", "radius": 1e-6},
                                      n_max=200, metric="d2"),
    "grid.spec.json": _builtin("sequence_grid_E", i_max=3, j_max=12, include_origin=False),
    "grid-wide.spec.json": _builtin("sequence_grid_E", i_max=12, j_max=3, include_origin=True),
    "many-slots.spec.json": MANY_SLOTS,
    "within-tol-metric.spec.json": {
        **_matrix([f"w{k}" for k in range(12)], _within_tol_metric()),
        "derived_set": {"kind": "oracle", "ids": ["w0"]},
    },
    "within-tol-closest.spec.json": _matrix([f"w{k}" for k in range(12)], _within_tol_closest()),
    "points.spec.json": {"space": {"kind": "points_l2", "points": POINTS}},
    # radius 0.08 puts 20 of the 40 points in the detected derived set
    "signed-zeros.spec.json": {
        **_matrix([f"x{k}" for k in range(40)], _signed_zeros()),
        "derived_set": {"kind": "detect", "radius": 0.08},
    },
    "limit.spec.json": LIMIT,
    "unknown-kind.spec.json": {"space": {"kind": "hyperbolic", "n": 3}},
    "repeated-slot.spec.json": {"space": {"kind": "points_l2", "points": [
        {"id": "a", "coords": {"1": 0.5, "01": 0.25}}, {"id": "b"}]}},
    "ragged.spec.json": {"space": {"kind": "matrix", "ids": ["a", "b", "c"],
                                   "matrix": [[0, 1, 1], [1, 0], [1, 1, 0]]}},
    "unknown-param.spec.json": _builtin("convergent_sequence", n_max=5, k=2),
    "unknown-oracle.spec.json": _builtin("convergent_sequence",
                                         {"kind": "oracle", "ids": ["zero", "omega"]}, n_max=5),
    "indiscernible-at-tol.spec.json": INDISCERNIBLE_AT_TOL,
    "lower-within-tol.spec.json": _matrix(["a", "b", "c"], LOWER_WITHIN_TOL),
    "padded-ids.spec.json": _matrix(["a", " a", "b"], PADDED_IDS),
    # the text as written, not a JSON value: the closing brace is missing
    "malformed.spec.json": '{"space": {"kind": "matrix", "ids": ["a"], "matrix": [[0]]}\n',
}

# case name -> command line; the report is written to <name>.report.json
CASES = {
    "check-metric-planted": ["check-metric", "planted.spec.json"],
    "check-metric-asymmetric": ["check-metric", "asymmetric.spec.json"],
    "check-metric-within-tol": ["check-metric", "within-tol.spec.json"],
    "check-metric-overflow": ["check-metric", "overflow.spec.json"],
    "check-metric-tricky-ids": ["check-metric", "tricky-ids.spec.json"],
    "check-metric-clean": ["check-metric", "clean.spec.json"],
    "remetrize": ["remetrize", "remetrize.spec.json"],
    "atsuji-rejects-planted": ["atsuji", "planted.spec.json"],
    "check-metric-pair-blocks": ["check-metric", "pair-blocks.spec.json"],
    "atsuji-pass": ["atsuji", "sequence.spec.json"],
    "atsuji-fail": ["atsuji", "empty-derived.spec.json", "--threshold", "1e-3"],
    "atsuji-inconclusive": ["atsuji", "detect.spec.json"],
    # a detected derived set still FAILs when its radius is below the failing gap
    "atsuji-detect-fail": ["atsuji", "detect-fail.spec.json"],
    "remetrize-empty-derived": ["remetrize", "empty-derived.spec.json"],
    "witness-found": ["witness", "grid.spec.json", "--fn", "parity", "--eps0", "0.5",
                      "--delta", "0.1"],
    "witness-not-found": ["witness", "grid.spec.json", "--fn", "parity", "--eps0", "0.5",
                          "--delta", "0.001"],
    "separator": ["separator", "sequence.spec.json", "--a", "zero", "--b", "n1,n2"],
    "net-points": ["net", "points.spec.json", "--eps", "2.6"],
    "check-metric-points": ["check-metric", "points.spec.json"],
    "remetrize-points": ["remetrize", "points.spec.json"],
    "atsuji-oracle": ["atsuji", "limit.spec.json"],
    # also writes the matrix file named here, relative to the working directory
    "remetrize-out-matrix": ["remetrize", "limit.spec.json", "--out-matrix",
                             "remetrize-out-matrix.matrix.json"],
    # reads the matrix file that the case above writes
    "check-metric-out-matrix": ["check-metric", "remetrize-out-matrix.matrix.json"],
    "check-metric-malformed-json": ["check-metric", "malformed.spec.json"],
    "atsuji-unknown-kind": ["atsuji", "unknown-kind.spec.json"],
    "atsuji-bad-eps-grid": ["atsuji", "sequence.spec.json", "--eps-grid", "0.5,,0.25"],
    "witness-bad-delta": ["witness", "grid.spec.json", "--fn", "parity", "--eps0", "0.5",
                          "--delta", "1e400"],
    "check-metric-repeated-slot": ["check-metric", "repeated-slot.spec.json"],
    "atsuji-ragged-row": ["atsuji", "ragged.spec.json"],
    "net-unknown-param": ["net", "unknown-param.spec.json", "--eps", "0.5"],
    "remetrize-unknown-oracle-id": ["remetrize", "unknown-oracle.spec.json"],
    "remetrize-indiscernible-at-tol": ["remetrize", "indiscernible-at-tol.spec.json"],
    "check-metric-many-slots": ["check-metric", "many-slots.spec.json"],
    "remetrize-many-slots": ["remetrize", "many-slots.spec.json"],
    "atsuji-grid-wide": ["atsuji", "grid-wide.spec.json"],
    # the flags echo in the report pins their order: fn, eps0, delta, tol, a, b
    "witness-separator": ["witness", "sequence.spec.json", "--fn", "separator", "--a", "zero",
                          "--b", "n1", "--eps0", "0.5", "--delta", "1"],
    # an asymmetric base within tol: remetrize's topology check reads both entries
    "remetrize-within-tol": ["remetrize", "within-tol-metric.spec.json"],
    # the closest pair's entries differ by 5e-13: both read the smaller one
    "atsuji-within-tol-closest": ["atsuji", "within-tol-closest.spec.json"],
    "witness-within-tol-closest": ["witness", "within-tol-closest.spec.json", "--fn", "identity",
                                   "--eps0", "0.5", "--delta", "0.0524542655819311"],
    # set distances over a detected D of 20 points, with signed diagonal zeros
    "separator-signed-zeros": ["separator", "signed-zeros.spec.json", "--a", "x0,x3,x6,x9",
                               "--b", "x1,x2"],
    "atsuji-signed-zeros": ["atsuji", "signed-zeros.spec.json"],
    "remetrize-signed-zeros": ["remetrize", "signed-zeros.spec.json"],
    # the identity check reads a pair from both entries, at load and in check-metric alike
    "check-metric-lower-within-tol": ["check-metric", "lower-within-tol.spec.json"],
    "atsuji-lower-within-tol": ["atsuji", "lower-within-tol.spec.json"],
    # a point id is read as written: --a " a" names " a", not "a"
    "separator-padded-id": ["separator", "padded-ids.spec.json", "--a", " a", "--b", "b"],
}


def run(argv: list[str], out: Path, cwd: Path) -> tuple[int, str]:
    """``main(argv + ["--out", out])`` in ``cwd``: (exit code, stderr).  An
    exception that escapes ``main`` is a crash: its traceback goes to stderr
    and the exit code is 1, as the interpreter would have it."""
    err = io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "--out", str(out)])
            except Exception:
                traceback.print_exc()
                code = 1
    finally:
        os.chdir(previous)
    return code, err.getvalue()


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, spec in SPECS.items():
            text = spec if isinstance(spec, str) else json.dumps(spec, indent=1) + "\n"
            (work / name).write_text(text, encoding="ascii")
        cases = {}
        for name, argv in CASES.items():
            code, stderr = run(argv, work / f"{name}.report.json", work)
            if code not in (0, 1, 2) or "Traceback" in stderr:
                sys.exit(f"{name}: exit {code} is a crash, not a result; nothing written\n{stderr}")
            cases[name] = {"argv": argv, "exit": code, "stderr": stderr}
        (work / "cases.json").write_text(json.dumps(cases, indent=2) + "\n", encoding="ascii")
        for name in CASES:  # a case that writes no report leaves none behind
            (HERE / f"{name}.report.json").unlink(missing_ok=True)
        for path in work.iterdir():
            shutil.copyfile(path, HERE / path.name)


if __name__ == "__main__":
    regenerate()
