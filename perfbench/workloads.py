"""Workloads of the atsuji CLI benchmark: seeded inputs, the CLI invocations
that run on them, and an independent check of every report.

Each workload is built during untimed set-up from the seed alone.  The
program receives only the spec files written here; the expected outputs are
computed here too, with numpy, without calling the package.

Sizes are fixed per workload so that run-to-run spread reflects the program,
not the input size; the seed varies point positions, jitter, which entries
are corrupted and the numeric flags.  The one exception is
``positive_integers``, whose only input is its size: it moves by at most
0.5% so that the expected witness differs between seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TOL = 1e-12  # the package's default comparison tolerance
N_EPS_GRID = 11  # the CLI's default grid 2^0 .. 2^-10


@dataclass
class Invocation:
    """One CLI invocation and what a correct program must produce for it."""

    name: str
    args: list[str]  # CLI arguments, without --out
    exit_code: int
    check: Callable[[dict], list[str]]  # report -> mismatch descriptions
    points: int
    spec_bytes: int


def _write_spec(path: Path, spec: dict) -> int:
    text = json.dumps(spec)
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def _l2(coords: np.ndarray) -> np.ndarray:
    return np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))


def _expect(cond: bool, what: str, problems: list[str]) -> None:
    if not cond:
        problems.append(what)


# --- remetrize-l2 --------------------------------------------------------

def _dyadic_levels(t: np.ndarray) -> np.ndarray:
    """m with 2^m < t <= 2^(m+1), elementwise, for t > 0."""
    frac, exp = np.frexp(t)
    return np.where(frac == 0.5, exp - 2, exp - 1)


def remetrize_l2(rng: np.random.Generator, work: Path, smoke: bool, corrupt: bool):
    """``atsuji remetrize`` on points accumulating at an origin.

    Slot s holds the sequence 1/(k + u_k), u_k in [0, 0.5), which converges
    to the origin ``zero``; the oracle derived set is {zero}.  Chosen for the
    paper's construction with all three guarantees verified: the time goes
    to the happy path of the O(n^3) axiom scan on the output and to the
    newdist report, while parsing is trivial.
    """
    slots, per_slot = (3, 10) if smoke else (4, 250)
    points = [("zero", 0, 0.0)]
    for s in range(1, slots + 1):
        jitter = rng.uniform(0.0, 0.5, per_slot)
        points += [(f"p_{s}_{k}", s, 1.0 / (k + jitter[k - 1])) for k in range(1, per_slot + 1)]
    points = [points[k] for k in rng.permutation(len(points))]
    ids = [p for p, _, _ in points]
    spec = {
        "space": {
            "kind": "points_l2",
            "points": [
                {"id": p, "coords": {str(s): v} if s else {}} for p, s, v in points
            ],
        },
        "derived_set": {"kind": "oracle", "ids": ["zero"]},
    }
    path = work / "remetrize-l2.spec.json"
    spec_bytes = _write_spec(path, spec)

    # the three-case construction, evaluated directly
    n = len(points)
    coords = np.zeros((n, slots))
    for row, (_, s, v) in enumerate(points):
        if s:
            coords[row, s - 1] = v
    base = _l2(coords)
    origin = ids.index("zero")
    to_origin = base[:, origin].copy()
    to_origin[origin] = 1.0  # its level is never used
    levels = _dyadic_levels(to_origin)
    want = np.maximum(base, np.ldexp(1.0, np.maximum(levels[:, None], levels[None, :])))
    want[origin, :] = base[origin, :]
    want[:, origin] = base[:, origin]
    np.fill_diagonal(want, 0.0)
    if corrupt:
        want[0, 1] += 1.0

    def check(report: dict) -> list[str]:
        problems: list[str] = []
        r = report["result"]
        _expect(r["empty_derived_fallback_used"] is False, "fallback metric used", problems)
        _expect(r["axioms"]["passed"] is True, "axioms of the output failed", problems)
        _expect(r["same_topology"]["passed"] is True, "same topology failed", problems)
        bounds = r["isolation_bounds"]
        _expect(len(bounds) == N_EPS_GRID and all(b["passed"] for b in bounds.values()),
                "an isolation bound failed or is missing", problems)
        newdist = r["newdist"]
        if list(newdist) != ids or any(list(row) != ids for row in newdist.values()):
            problems.append("newdist ids are not the spec's ids in order")
            return problems
        got = np.array([list(row.values()) for row in newdist.values()], dtype=float)
        if not np.allclose(got, want, rtol=1e-12, atol=0.0):
            i, j = np.argwhere(~np.isclose(got, want, rtol=1e-12, atol=0.0))[0]
            problems.append(f"newdist[{ids[i]}][{ids[j]}] = {got[i, j]!r}, expected {want[i, j]!r}")
        return problems

    return [Invocation("remetrize", ["remetrize", str(path)], 0, check, n, spec_bytes)]


# --- verdicts-builtin ----------------------------------------------------

def _grid_values(i_max: int, j_max: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Origin-free sequence grid in canonical (row-major) order."""
    ids = [f"p_{i}_{j}" for i in range(1, i_max + 1) for j in range(1, j_max + 1)]
    slot = np.repeat(np.arange(1, i_max + 1), j_max)
    j = np.tile(np.arange(1, j_max + 1), i_max)
    return ids, slot, j


def _first_parity_witness(i_max: int, j_max: int, delta: float):
    """Lexicographically least index pair closer than delta with i+j parity
    differing, found row by row."""
    ids, slot, j = _grid_values(i_max, j_max)
    value = 1.0 / j
    parity = (slot + j) % 2
    for a in range(len(ids)):
        rest = slice(a + 1, len(ids))
        same = slot[rest] == slot[a]
        dist = np.where(same, np.abs(value[a] - value[rest]), np.hypot(value[a], value[rest]))
        hits = np.flatnonzero((dist < delta) & (parity[rest] != parity[a]))
        if hits.size:
            b = a + 1 + int(hits[0])
            return ids[a], ids[b], float(dist[hits[0]])
    return None


def verdicts_builtin(rng: np.random.Generator, work: Path, smoke: bool, corrupt: bool):
    """Three reference-space verdicts: a PASS, a FAIL and a found witness.

    Chosen for the analysis, functions and generators layers: builtin specs
    skip the axiom scan and the reports are a few KB.
    """
    i_max, j_max = (4, 10) if smoke else (30, 100)
    n_int = 40 if smoke else 3000
    n_int += int(rng.integers(-(n_int // 200), n_int // 200 + 1))
    invocations = []

    # (a) the grid with its origin is Atsuji: its smallest complement gap is
    # 1/(j_max (j_max - 1)), so any threshold below that passes
    threshold = float(rng.uniform(0.5, 0.99)) / (j_max * (j_max - 1))
    spec = {"space": {"kind": "builtin", "name": "sequence_grid_E",
                      "params": {"i_max": i_max, "j_max": j_max, "include_origin": True}}}
    path = work / "grid-origin.spec.json"
    size = _write_spec(path, spec)
    want_a = "INCONCLUSIVE" if corrupt else "PASS"

    def check_a(report: dict) -> list[str]:
        problems: list[str] = []
        r = report["result"]
        _expect(r["status"] == want_a, f"status {r['status']}, expected {want_a}", problems)
        _expect(r["fail_witness"] is None, "a PASS carries a witness", problems)
        return problems

    invocations.append(Invocation(
        "atsuji-grid", ["atsuji", str(path), "--threshold", repr(threshold)],
        0, check_a, 1 + i_max * j_max, size))

    # (b) d2 on the integers fails at the last, closest pair n{N-1}/n{N}
    eta = 1.0 / (n_int - 1) - 1.0 / n_int
    threshold = eta * float(rng.uniform(2.0, 10.0))
    spec = {"space": {"kind": "builtin", "name": "positive_integers",
                      "params": {"n_max": n_int, "metric": "d2"}}}
    path = work / "integers-d2.spec.json"
    size = _write_spec(path, spec)
    want_b = [f"n{n_int - 1}", f"n{n_int}"]
    if corrupt:
        want_b.reverse()

    def check_b(report: dict) -> list[str]:
        problems: list[str] = []
        r = report["result"]
        _expect(r["status"] == "FAIL", f"status {r['status']}, expected FAIL", problems)
        w = r["fail_witness"] or {}
        got = [w.get("x"), w.get("y")]
        _expect(got == want_b, f"witness {got}, expected {want_b}", problems)
        return problems

    invocations.append(Invocation(
        "atsuji-integers", ["atsuji", str(path), "--threshold", repr(threshold)],
        1, check_b, n_int, size))

    # (c) parity is continuous but not uniformly continuous on the
    # origin-free grid; the witness is the least close pair of mixed parity
    eps0 = float(rng.uniform(0.5, 1.0))
    delta = float(rng.uniform(2.0, 20.0)) / j_max ** 2
    spec = {"space": {"kind": "builtin", "name": "sequence_grid_E",
                      "params": {"i_max": i_max, "j_max": j_max, "include_origin": False}}}
    path = work / "grid-no-origin.spec.json"
    size = _write_spec(path, spec)
    x, y, dist = _first_parity_witness(i_max, j_max, delta)
    want_c = [x, y if not corrupt else x]

    def check_c(report: dict) -> list[str]:
        problems: list[str] = []
        r = report["result"]
        _expect(r["found"] is True, "no witness found", problems)
        w = r["witness"] or {}
        got = [w.get("x"), w.get("y")]
        _expect(got == want_c, f"witness {got}, expected {want_c}", problems)
        _expect(w.get("gap") == 1.0, f"gap {w.get('gap')}, expected 1.0", problems)
        _expect(isinstance(w.get("distance"), float) and math.isclose(w["distance"], dist, rel_tol=1e-12),
                f"distance {w.get('distance')}, expected {dist!r}", problems)
        return problems

    invocations.append(Invocation(
        "witness-parity",
        ["witness", str(path), "--fn", "parity", "--eps0", repr(eps0), "--delta", repr(delta)],
        1, check_c, i_max * j_max, size))
    return invocations


# --- diagnose-matrix -----------------------------------------------------

def diagnose_matrix(rng: np.random.Generator, work: Path, smoke: bool, corrupt: bool):
    """``atsuji check-metric`` on a Euclidean distance table with a few
    entries inflated, like typos.

    Each inflated entry exceeds twice the table's diameter, so it breaks the
    triangle inequality through every third point; the inflated pairs share
    no point, so no other triple breaks.  Chosen for the scan's
    violation-listing path, which runs for every middle point here, and for
    the parse and echo of a large inline matrix.  A speed-up of the scan's
    happy path alone can lose time here.
    """
    n, n_typos = (40, 3) if smoke else (650, 10)
    dist = _l2(rng.uniform(0.0, 1.0, (n, 3)))
    diameter = dist.max()
    order = rng.permutation(n)[: 2 * n_typos]
    typos = [(int(order[2 * t]), int(order[2 * t + 1])) for t in range(n_typos)]
    for i, k in typos:
        dist[i, k] = dist[k, i] = dist[i, k] + diameter * float(rng.uniform(2.0, 3.0))
    ids = [f"x{i}" for i in range(n)]
    spec = {"space": {"kind": "matrix", "ids": ids, "matrix": dist.tolist()}}
    path = work / "diagnose-matrix.spec.json"
    spec_bytes = _write_spec(path, spec)

    # ordered triples (i, j, k) and (k, j, i) for every breaking middle point j
    expected = sum(
        2 * int(np.count_nonzero(dist[i, k] - (dist[i, :] + dist[:, k]) > TOL))
        for i, k in typos
    )
    if corrupt:
        expected += 1
    typo_pairs = {frozenset(p) for p in typos}

    def check(report: dict) -> list[str]:
        problems: list[str] = []
        r = report["result"]
        _expect(r["passed"] is False, "the corrupted table passed", problems)
        violations = r["violations"]
        _expect(all(v["kind"] == "triangle" for v in violations),
                "a violation other than the triangle inequality", problems)
        _expect(len(violations) == expected,
                f"{len(violations)} violations, expected {expected}", problems)
        found = {frozenset((v["indices"][0], v["indices"][2])) for v in violations}
        missing = typo_pairs - found
        _expect(not missing, f"inflated pairs not reported: {sorted(map(sorted, missing))}", problems)
        return problems

    return [Invocation("check-metric", ["check-metric", str(path)], 1, check, n, spec_bytes)]


WORKLOADS = {
    "remetrize-l2": remetrize_l2,
    "verdicts-builtin": verdicts_builtin,
    "diagnose-matrix": diagnose_matrix,
}


def build(name: str, seed: int, work: Path, smoke: bool = False,
          corrupt: bool = False) -> list[Invocation]:
    """Write the workload's specs under ``work`` and return its invocations.

    ``corrupt`` makes every expectation wrong, to show that the checks catch
    a mismatch.
    """
    return WORKLOADS[name](np.random.default_rng(seed), work, smoke, corrupt)
