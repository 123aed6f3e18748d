"""Finite metric spaces: construction, axiom verification, and ball queries.

Conventions used throughout the package:

- Points are addressed by string ids.  A point's canonical index is its
  position in ``FiniteSpace.ids``; every tie-break (witness pairs, minimizers)
  picks the lexicographically least index pair, so results are deterministic
  regardless of how the caller orders its input sets.
- Balls are open: ``y`` belongs to ``B(A, eps)`` iff ``dist(y, a) < eps`` for
  some ``a`` in ``A``.
- The distance to the empty set is ``math.inf``, which propagates correctly
  through min/max reductions.
- Axiom-style comparisons are slack by the space's ``tol`` (default 1e-12);
  ball membership and threshold tests compare raw floats.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, NamedTuple

import numpy as np

__all__ = [
    "PointId",
    "PointSpec",
    "FiniteSpace",
    "Violation",
    "AxiomReport",
    "MaxTriple",
    "DuplicatePointError",
    "IndiscerniblePointsError",
    "build_space",
    "verify_metric_axioms",
    "triple_max_triangle",
    "set_distance",
    "neighborhood",
    "uniform_interior_radius",
]

# A point is addressed by its string id; its index is the position in
# FiniteSpace.ids.
PointId = str

DEFAULT_TOL = 1e-12


class DuplicatePointError(ValueError):
    """Two point specs share the same id."""


class IndiscerniblePointsError(ValueError):
    """Two distinct point specs are closer than the comparison tolerance."""


@dataclass(frozen=True)
class PointSpec:
    """A point given by sparse Euclidean coordinates.

    ``coords`` maps a positive-integer slot to a real coordinate; absent slots
    are zero, and explicit zeros are equivalent to absent slots.
    """

    id: str
    coords: dict[int, float]

    def support(self) -> tuple[tuple[int, float], ...]:
        """Canonical (slot, value) pairs: zeros dropped, slots validated."""
        items = []
        for slot, value in self.coords.items():
            if not isinstance(slot, int) or slot < 1:
                raise ValueError(f"point {self.id!r}: slot {slot!r} must be an integer >= 1")
            v = float(value)
            if not math.isfinite(v):
                raise ValueError(f"point {self.id!r}: coordinate in slot {slot} is not finite")
            if v != 0.0:
                items.append((slot, v))
        return tuple(sorted(items))


def _point_ids(ids: Iterable[PointId]) -> tuple[PointId, ...]:
    """``ids`` as a tuple, checked to be nonempty and free of repeats."""
    ids = tuple(ids)
    if not ids:
        raise ValueError("a finite space needs at least one point")
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise DuplicatePointError(f"duplicate point ids: {dupes}")
    return ids


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """An immutable finite point set with a precomputed distance matrix.

    ``dist`` is an n-by-n matrix aligned with ``ids``; it is copied and made
    read-only at construction (the package's own fresh matrices are adopted
    without a copy, so a space holds one n-by-n buffer).  Only structural
    properties are enforced here (shape, unique ids, finite entries); the
    metric axioms are checked by :func:`verify_metric_axioms` so that invalid
    matrices can be loaded, diagnosed, and reported.
    """

    ids: tuple[PointId, ...]
    dist: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        self._settle(self.ids, np.array(self.dist, dtype=float), self.tol)

    @classmethod
    def _adopt(
        cls, ids: Iterable[PointId], dist: np.ndarray, tol: float = DEFAULT_TOL
    ) -> FiniteSpace:
        """A space over ``dist`` itself, not a copy: the package's path for a
        float64 matrix that it has just built, or that is already read-only,
        so that no code writes it afterwards.  Same checks as the constructor."""
        space = object.__new__(cls)
        space._settle(ids, dist, tol)
        return space

    def _settle(self, ids: Iterable[PointId], d: np.ndarray, tol: float) -> None:
        ids = _point_ids(ids)
        if d.shape != (len(ids), len(ids)):
            raise ValueError(f"distance matrix shape {d.shape} does not match {len(ids)} points")
        # min and max propagate NaN and +-inf, so no n x n mask is needed
        if not (math.isfinite(d.min()) and math.isfinite(d.max())):
            bad = np.argwhere(~np.isfinite(d))[0]
            raise ValueError(f"distance matrix entry {tuple(int(k) for k in bad)} is not finite")
        d.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "tol", float(tol))

    @cached_property
    def _index(self) -> dict[PointId, int]:
        return {p: k for k, p in enumerate(self.ids)}

    @property
    def n(self) -> int:
        return len(self.ids)

    def index(self, point: PointId) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise KeyError(f"point {point!r} is not in the space") from None

    def mask(self, points: Iterable[PointId]) -> np.ndarray:
        """Membership of ``points`` as a boolean vector over canonical indices;
        the one place where a set of point ids becomes indices."""
        member = np.zeros(self.n, dtype=bool)
        member[[self.index(p) for p in points]] = True
        return member

    def indices(self, points: Iterable[PointId]) -> np.ndarray:
        """Sorted, deduplicated canonical indices of ``points``."""
        return np.flatnonzero(self.mask(points))

    def reach(self, points: Iterable[PointId]) -> np.ndarray:
        """Distance from every point to the set ``points`` (``dist[y, a]``
        minimized over a); ``math.inf`` everywhere when the set is empty."""
        return self.dist[:, self.mask(points)].min(axis=1, initial=math.inf)

    def distance(self, x: PointId, y: PointId) -> float:
        return float(self.dist[self.index(x), self.index(y)])


class Violation(NamedTuple):
    """One metric-axiom breach: kind, point indices involved, and how far the
    constraint is missed (tol-relative for the near-zero identity case)."""

    kind: str  # "nonneg" | "symmetry" | "identity" | "triangle"
    where: tuple[int, ...]
    magnitude: float


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    violations: list[Violation]


class MaxTriple(NamedTuple):
    triple: tuple[float, float, float]
    satisfies: bool


# Rows per block of the least-pair search and of build_space's slot pass,
# chosen by measurement on a 2-core Xeon: at 3000 points a full
# indiscernibility scan took 23 ms in blocks of 128 or 256 rows, 30 ms in
# blocks of 32 or 64, and 29 ms as one n x n mask; the slot pass took the same
# time in blocks of 32 to 512 rows.
_PAIR_BLOCK = 128


def _least_pair(n: int, test: Callable[[slice], np.ndarray]) -> tuple[int, int] | None:
    """The lexicographically least ``(i, j)`` with ``i < j`` for which the
    predicate holds, or None: the tie-break of every witness pair.

    ``test(rows)`` returns the predicate for a slice of rows against all n
    columns.  Blocks of rows are tested in row order and the search stops at
    the first block with a hit, so no caller holds an n x n predicate."""
    for start in range(0, n, _PAIR_BLOCK):
        upper = np.triu(test(slice(start, start + _PAIR_BLOCK)), k=start + 1)
        first = int(upper.argmax())  # the first True in row-major order
        if upper.flat[first]:
            i, j = divmod(first, n)
            return start + i, j
    return None


def _run(indices: np.ndarray) -> slice | np.ndarray:
    """``indices`` (sorted, distinct, nonempty) as a slice when they are one
    contiguous run, so that indexing with them gives a view, not a copy."""
    first, last = int(indices[0]), int(indices[-1])
    return slice(first, last + 1) if last - first == len(indices) - 1 else indices


def build_space(specs: Iterable[PointSpec]) -> FiniteSpace:
    """Build a space from sparse point specs under the l2 distance.

    Raises :class:`DuplicatePointError` on repeated ids, ValueError when the
    distance of two points overflows a double, and
    :class:`IndiscerniblePointsError` when two specs land within
    ``DEFAULT_TOL`` of each other (identical coordinates included), which
    would break the identity-of-indiscernibles axiom.
    """
    specs = list(specs)
    supports = [s.support() for s in specs]
    ids = _point_ids(s.id for s in specs)
    slots = sorted({slot for sup in supports for slot, _ in sup})
    slot_col = {slot: k for k, slot in enumerate(slots)}
    coords = np.zeros((len(specs), max(len(slots), 1)))
    for row, sup in enumerate(supports):
        for slot, value in sup:
            coords[row, slot_col[slot]] = value

    # Squares summed slot by slot, in slot order for every pair, into the one
    # n x n buffer.  A pair that is zero in a slot would only add +0.0, so a
    # slot adds (c[i] - c[j])^2 to the rows i nonzero there, a block of rows at
    # a time.  Their columns j in the rows that are zero there need c[i]^2,
    # which row i now holds at j: the matrix is symmetric after every slot, so
    # when the slot has zero rows the updated rows are copied into their
    # columns.
    n = len(specs)
    sq = np.zeros((n, n))
    diff = np.empty((min(_PAIR_BLOCK, n), n))
    with np.errstate(over="ignore"):  # an overflow is reported below
        for col in coords.T:
            nz = np.flatnonzero(col)
            blocks = [nz[k : k + _PAIR_BLOCK] for k in range(0, len(nz), _PAIR_BLOCK)]
            for block in blocks:
                part = np.subtract(col[block, None], col, out=diff[: len(block)])
                sq[_run(block)] += np.square(part, out=part)
            if len(nz) < n:
                for rows in map(_run, blocks):
                    sq[:, rows] = sq[rows].T
    dist = np.sqrt(sq, out=sq)
    np.fill_diagonal(dist, 0.0)

    try:
        space = FiniteSpace._adopt(ids, dist)
    except ValueError:  # the ids are checked, so an entry is not finite: inf
        i, j = _least_pair(n, lambda rows: dist[rows] == math.inf)
        raise ValueError(
            f"points {ids[i]!r} and {ids[j]!r}: their l2 distance overflows a double"
        ) from None
    close = _least_pair(n, lambda rows: space.dist[rows] <= DEFAULT_TOL)
    if close is not None:
        i, j = close
        raise IndiscerniblePointsError(
            f"points {space.ids[i]!r} and {space.ids[j]!r} are indiscernible "
            f"(distance {float(space.dist[i, j])!r} <= tol {DEFAULT_TOL!r})"
        )
    return space


# Tile shape of the triangle scan, chosen by measurement at 650 to 2001 points
# on a 2-core Xeon with 2 MB of L2 per core: a block of _ROW_BLOCK rows meets
# _MID_BLOCK middle points at a time, so a worker's tile holds
# _ROW_BLOCK * _MID_BLOCK * n doubles (1 MB at n = 1001).
_ROW_BLOCK = 8
_MID_BLOCK = 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _triangle_block(d: np.ndarray, tol: float, free: list, start: int) -> list[Violation]:
    """Triangle violations ``(i, j, k)`` whose ``i`` lies in the row block
    starting at ``start``, in lexicographic order, computed in a
    (tile, shortest, part) buffer set taken from ``free`` and put back."""
    n = len(d)
    rows = d[start : start + _ROW_BLOCK]
    held = free.pop()
    try:
        tile, shortest, part = (b[: len(rows)] for b in held)
        shortest.fill(math.inf)  # min over j of d[i, j] + d[j, k]
        for j0 in range(0, n, _MID_BLOCK):
            mids = d[j0 : j0 + _MID_BLOCK]
            sums = np.add(rows[:, j0 : j0 + len(mids), None], mids, out=tile[:, : len(mids)])
            np.minimum.reduce(sums, axis=1, out=part)
            np.minimum(shortest, part, out=shortest)
        worst = np.subtract(rows, shortest, out=shortest).max(axis=1)

        # a violating row lists its (j, k) excesses, chunk of middle points
        # by chunk, through the same tile memory
        flat = tile.reshape(-1, n)
        found: list[Violation] = []
        for i in start + np.flatnonzero(worst > tol):
            for j0 in range(0, n, len(flat)):
                mids = d[j0 : j0 + len(flat)]
                excess = np.add(d[i, j0 : j0 + len(mids), None], mids, out=flat[: len(mids)])
                np.subtract(d[i], excess, out=excess)
                for j, k in np.argwhere(excess > tol):
                    found.append(
                        Violation("triangle", (int(i), j0 + int(j), int(k)), float(excess[j, k]))
                    )
        return found
    finally:
        free.append(held)


def verify_metric_axioms(space: FiniteSpace) -> AxiomReport:
    """Exhaustively check all pairs and all ordered triples of the matrix.

    Every breach beyond ``space.tol`` is reported; the scan never samples.
    Violations are listed by kind (nonneg, symmetry, identity, triangle) and
    lexicographically by index within each kind.

    The triangle inequality is decided row by row with min-plus tiles: for a
    block of rows ``i`` the scan accumulates ``min_j (d[i, j] + d[j, k])``
    over blocks of middle points ``j``, and row ``i`` violates iff
    ``max_k (d[i, k] - min_j (...)) > tol``.  This decides exactly what a
    per-triple test ``d[i, k] - (d[i, j] + d[j, k]) > tol`` decides: each sum
    is the same rounded float, and a rounded difference ``a - s`` never
    increases as ``s`` grows, so subtracting the least sum gives the largest
    excess.  Only violating rows list their triples, from the same per-triple
    differences, so magnitudes are those of the per-triple test.  Row blocks
    run on a thread pool sized to the usable CPUs (numpy releases the GIL in
    the tile arithmetic), created for the call, and are gathered in block
    order.
    """
    d = space.dist
    tol = space.tol
    violations: list[Violation] = []

    for i, j in np.argwhere(d < -tol):
        violations.append(Violation("nonneg", (int(i), int(j)), float(-d[i, j])))

    gap = np.abs(d - d.T)
    for i, j in np.argwhere(np.triu(gap > tol, k=1)):
        violations.append(Violation("symmetry", (int(i), int(j)), float(gap[i, j])))

    diag = np.abs(np.diagonal(d))
    for (i,) in np.argwhere(diag > tol):
        violations.append(Violation("identity", (int(i), int(i)), float(diag[i])))
    for i, j in np.argwhere(np.triu(d <= tol, k=1)):
        violations.append(Violation("identity", (int(i), int(j)), float(tol - d[i, j])))

    starts = range(0, space.n, _ROW_BLOCK)
    workers = min(_usable_cpus(), len(starts))
    # One buffer set per worker, allocated by the caller: after the scan the
    # caller's heap reuses that memory, which a worker thread's allocator arena
    # would keep.  A worker holds one set at a time, so pop never finds the
    # list empty; list pop and append are atomic.
    free = [
        (
            np.empty((_ROW_BLOCK, min(_MID_BLOCK, space.n), space.n)),
            np.empty((_ROW_BLOCK, space.n)),
            np.empty((_ROW_BLOCK, space.n)),
        )
        for _ in range(workers)
    ]
    scan = partial(_triangle_block, d, tol, free)
    if workers == 1:
        blocks = map(scan, starts)
    else:
        # imported here, not with the module: it loads logging, ~10 ms
        from concurrent.futures import ThreadPoolExecutor

        # every block runs in a copy of the caller's context, so numpy's
        # errstate (a context variable) holds in the workers as it does inline
        caller = contextvars.copy_context()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(lambda start: caller.copy().run(scan, start), starts))
    triangle = [v for block in blocks for v in block]
    triangle.sort(key=lambda v: v.where)
    violations.extend(triangle)

    return AxiomReport(passed=not violations, violations=violations)


def triple_max_triangle(
    t1: tuple[float, float, float], t2: tuple[float, float, float]
) -> MaxTriple:
    """Componentwise max of two side triples, plus whether the result
    satisfies all three triangle inequalities.

    Raw float comparisons: rounding is monotone, so the max of two
    triangle-satisfying triples never spuriously fails.
    """
    if len(t1) != 3 or len(t2) != 3:
        raise ValueError("expected two triples of three side lengths")
    values = [float(v) for v in (*t1, *t2)]
    if any(v < 0 for v in values):
        raise ValueError("side lengths must be nonnegative")
    a, b, c = (max(values[k], values[k + 3]) for k in range(3))
    satisfies = a <= b + c and b <= a + c and c <= a + b
    return MaxTriple((a, b, c), satisfies)


def set_distance(space: FiniteSpace, x: PointId, A: Iterable[PointId]) -> float:
    """min over a in A of dist(x, a); ``math.inf`` when A is empty."""
    return float(space.dist[space.index(x), space.mask(A)].min(initial=math.inf))


def neighborhood(space: FiniteSpace, A: Iterable[PointId], eps: float) -> set[PointId]:
    """Open-ball union B(A, eps) = { y : dist(y, a) < eps for some a in A }."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    return {space.ids[k] for k in np.flatnonzero(space.reach(A) < eps)}


def uniform_interior_radius(
    space: FiniteSpace, K: Iterable[PointId], U: Iterable[PointId]
) -> float:
    """Largest r with B(z, r) contained in U for every z in K.

    Equals the minimum over z in K of the distance from z to the complement
    of U, and ``math.inf`` when U is the whole space.  Requires K nonempty
    and K a subset of U.
    """
    k_mask, u_mask = space.mask(K), space.mask(U)
    if not k_mask.any():
        raise ValueError("K must be nonempty")
    outside = np.flatnonzero(k_mask & ~u_mask)
    if outside.size:
        raise ValueError(
            f"K must be a subset of U; outside points: {sorted(space.ids[k] for k in outside)}"
        )
    return float(space.dist[np.ix_(k_mask, ~u_mask)].min(initial=math.inf))
