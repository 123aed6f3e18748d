"""Finite metric spaces: construction, axiom verification, and ball queries.

Conventions used throughout the package:

- Points are addressed by string ids.  A point's canonical index is its
  position in ``FiniteSpace.ids``; every tie-break (witness pairs, minimizers)
  picks the lexicographically least index pair, so results are deterministic
  regardless of how the caller orders its input sets.
- A pair search takes a pair as close as its smaller entry, +0.0 at a zero pair
  (:func:`_pair_distance`), and walks all pairs by :func:`_pair_blocks`, but for
  ``detect_limit_points`` (see why there); only a point's distance to a set (its
  row, ``dist[y, a]``) and the axiom scan's entry checks read one entry.
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
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple

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
            try:
                v = float(value)
            except OverflowError:  # an integer beyond the largest double
                v = math.inf
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
        dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
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

    A space also carries a private ``_excess``: a proven upper bound on the
    computed triangle excess ``fl(d[i, k] - fl(d[i, j] + d[j, k]))`` over
    every ordered triple, which holds whenever ``dist`` equals its transpose
    entrywise.  It is ``math.inf`` (unknown) for every space made through the
    constructor, and only the package sets it: :func:`build_space` from its
    rounding analysis, the CLI's load gate of a matrix spec once its scan
    passes (``tol``), and :func:`~atsuji.remetrize.remetrize` from its
    base's.  A space with a finite bound has no negative entry off the
    diagonal, which each of the three ensures.
    """

    ids: tuple[PointId, ...]
    dist: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        self._settle(self.ids, np.array(self.dist, dtype=float), self.tol)

    @classmethod
    def _adopt(
        cls,
        ids: Iterable[PointId],
        dist: np.ndarray,
        tol: float = DEFAULT_TOL,
        excess: float | Callable[[float], float] = math.inf,
    ) -> FiniteSpace:
        """A space over ``dist`` itself, not a copy: the package's path for a
        float64 matrix that it has just built, or that is already read-only,
        so that no code writes it afterwards.  Same checks as the constructor.
        ``excess`` is the space's ``_excess``, or a function that gives it
        from the largest entry, which the finiteness check takes anyway."""
        space = object.__new__(cls)
        space._settle(ids, dist, tol, excess)
        return space

    def _settle(
        self,
        ids: Iterable[PointId],
        d: np.ndarray,
        tol: float,
        excess: float | Callable[[float], float] = math.inf,
    ) -> None:
        ids, tol = _point_ids(ids), float(tol)
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
        if d.shape != (len(ids), len(ids)):
            raise ValueError(f"distance matrix shape {d.shape} does not match {len(ids)} points")
        # min and max propagate NaN and +-inf, so no n x n mask is needed
        largest = float(d.max())
        if not (math.isfinite(d.min()) and math.isfinite(largest)):
            bad = np.argwhere(~np.isfinite(d))[0]
            raise ValueError(f"distance matrix entry {tuple(int(k) for k in bad)} is not finite")
        d.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "_excess", float(excess(largest) if callable(excess) else excess))

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
        """Distance from every point to the set ``points``: ``dist[y, a]`` minimized
        over a in place, under the set's mask; ``math.inf`` everywhere when it is empty."""
        return np.min(self.dist, axis=1, where=self.mask(points), initial=math.inf)

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


# Rows per block of the pair searches, limit-point detection and build_space's slot pass,
# chosen by measurement on a 2-core Xeon: at 3000 points a full
# indiscernibility scan took 23 ms in blocks of 128 or 256 rows, 30 ms in
# blocks of 32 or 64, and 29 ms as one n x n mask; the slot pass took the same
# time in blocks of 32 to 512 rows.
_PAIR_BLOCK = 128


def _pair_blocks(
    n: int, offends: Callable[[slice, slice], np.ndarray]
) -> Iterator[tuple[int, np.ndarray]]:
    """The one pair walk: per block of rows, in order and when asked, ``(start,
    hit)``; ``hit[i, j]`` holds for ``j > i`` when ``offends(rows, columns)``,
    a predicate on a slice of rows against a slice of columns, holds at
    ``(start + i, start + j)`` or at its mirror.  No n x n predicate is held."""
    for start in range(0, n, _PAIR_BLOCK):
        rows, columns = slice(start, start + _PAIR_BLOCK), slice(start, n)
        hit = offends(rows, columns) | offends(columns, rows).T
        hit[:, : len(hit)] &= ~np.tri(len(hit), dtype=bool)  # only j > i in the leading square
        yield start, hit


def _pair_distance(d: np.ndarray, i, j):
    """A pair's distance, index by index: the smaller of ``d[i, j]`` and its mirror
    ``d.T[i, j]``, and +0.0 at a zero pair.  ``i`` and ``j`` index as in ``d[i, j]``."""
    near = np.minimum(d[i, j], d.T[i, j])
    near += 0.0  # -0.0 + 0.0 is +0.0, whichever entry held it; in place on an array
    return near


def _least_pair(n: int, offends: Callable[[slice, slice], np.ndarray]) -> tuple[int, int] | None:
    """The lexicographically least ``(i, j)`` with ``i < j`` at which
    ``offends`` holds at ``(i, j)`` or at ``(j, i)``; None if there is none.
    Walks :func:`_pair_blocks` up to the first block with a hit."""
    for start, hit in _pair_blocks(n, offends):
        first = int(hit.argmax())  # the first True in row-major order
        if hit.flat[first]:
            i, j = divmod(first, n - start)
            return start + i, start + j
    return None


def _run(indices: np.ndarray) -> slice | np.ndarray:
    """``indices`` (sorted, distinct, nonempty) as a slice when they are one
    contiguous run, so that indexing with them gives a view, not a copy."""
    first, last = int(indices[0]), int(indices[-1])
    return slice(first, last + 1) if last - first == len(indices) - 1 else indices


def _l2_excess(terms: int, largest: float) -> float:
    """:func:`build_space`'s bound on the computed triangle excess, when a
    pair sums at most ``terms`` squares and the largest entry is ``largest``."""
    k = (terms + 5) * 2.0**-53
    return 2 * largest * (k / (1 - k)) + 4 * math.sqrt(terms) * 2.0**-537


def build_space(specs: Iterable[PointSpec]) -> FiniteSpace:
    """Build a space from sparse point specs under the l2 distance.

    Raises :class:`DuplicatePointError` on repeated ids, ValueError when the
    squared l2 distance of two points overflows a double, and
    :class:`IndiscerniblePointsError` when two specs land within
    ``DEFAULT_TOL`` of each other (identical coordinates included), which
    would break the identity-of-indiscernibles axiom.

    The space's ``_excess`` comes from a forward rounding analysis.  Let
    ``u = 2^-53``, ``g(k) = k u / (1 - k u)``, ``M`` the largest computed
    entry, and ``m`` the number of slots one pair sums: those where either
    point is nonzero, so at most twice the largest support and at most the
    number of distinct slots.  Without underflow, each term
    ``fl(fl(a - b)^2)`` carries three roundings and the running sum of ``m``
    nonnegative terms from 0 at most ``m - 1`` more, so the computed sum of
    squares is within ``g(m + 2)`` of the true one, relatively; ``sqrt``
    rounds once more, so every computed distance ``d^`` is within
    ``r = g(m + 3)`` of the true ``d``.  The true distances are a metric,
    ``d[i, k] <= d[i, j] + d[j, k]``, and the computed sum of the two legs
    rounds once, so the computed excess ``x`` before its own rounding is at
    most ``d^[i, k] (1 - (1 - u)(1 - r) / (1 + r)) <= M (2r + u)``, and
    ``fl(x) <= M (2r + u)(1 + u) <= 2 M g(m + 4)``.  Gradual underflow costs
    at most ``2^-1075`` per square and none in the differences and sums
    (those are exact when subnormal), so the sum of squares may be off by
    ``m 2^-1074`` more.  That moves a distance by at most
    ``(1 + u) sqrt(m) 2^-537``, and the excess by at most
    ``3 (1 + u)^2 sqrt(m) 2^-537 < 4 sqrt(m) 2^-537``.  The bound is
    evaluated at ``g(m + 5)``: the step from ``m + 4`` is far larger than the
    three roundings of evaluating it.
    """
    specs = list(specs)
    entries: dict[int, list[tuple[int, float]]] = {}  # slot -> its (row, value) pairs
    widest = 0  # the largest support
    for row, spec in enumerate(specs):
        support = spec.support()
        widest = max(widest, len(support))
        for slot, value in support:
            entries.setdefault(slot, []).append((row, value))
    ids = _point_ids(s.id for s in specs)

    # Squares summed slot by slot, in slot order for every pair, into the one
    # n x n buffer.  A pair that is zero in a slot would only add +0.0, so a
    # slot adds (c[i] - c[j])^2 to the rows i nonzero there, a block of rows at
    # a time, c being the slot's column, set at those rows and zeroed after.
    # Their columns j in the rows zero there need c[i]^2, which row i now
    # holds at j: the matrix is symmetric after every slot, so when the slot
    # has zero rows the updated rows are copied into their columns.  The
    # diagonal only ever gains (c[i] - c[i])^2 = +0.0, so it stays +0.0.
    n = len(specs)
    sq = np.zeros((n, n))
    col = np.zeros(n)
    diff = np.empty((min(_PAIR_BLOCK, n), n))
    with np.errstate(over="ignore"):  # an overflow is reported below
        for slot in sorted(entries):
            nz, values = map(np.array, zip(*entries[slot]))
            col[nz] = values
            blocks = [nz[k : k + _PAIR_BLOCK] for k in range(0, len(nz), _PAIR_BLOCK)]
            for block in blocks:
                part = np.subtract(col[block, None], col, out=diff[: len(block)])
                sq[_run(block)] += np.square(part, out=part)
            if len(nz) < n:
                for rows in map(_run, blocks):
                    sq[:, rows] = sq[rows].T
            col[nz] = 0.0
    dist = np.sqrt(sq, out=sq)

    terms = min(2 * widest, len(entries))
    try:
        space = FiniteSpace._adopt(ids, dist, excess=partial(_l2_excess, terms))
    except ValueError:  # the ids are checked, so an entry is not finite: inf
        i, j = _least_pair(n, lambda i, j: dist[i, j] == math.inf)
        raise ValueError(
            f"points {ids[i]!r} and {ids[j]!r}: their squared l2 distance overflows a double"
        ) from None
    _require_discernible(space, DEFAULT_TOL)
    return space


def _require_discernible(space: FiniteSpace, tol: float) -> None:
    """Raise :class:`IndiscerniblePointsError` naming the least pair of
    distinct points within ``tol`` of each other, if there is one."""
    close = _least_pair(space.n, lambda i, j: space.dist[i, j] <= tol)
    if close is not None:
        i, j = close
        raise IndiscerniblePointsError(
            f"points {space.ids[i]!r} and {space.ids[j]!r} are indiscernible "
            f"(distance {float(_pair_distance(space.dist, i, j))!r} <= tol {tol!r})"
        )


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


def _listed(kind: str, magnitudes: np.ndarray, *where: np.ndarray) -> Iterator[Violation]:
    """The violations of one kind at index arrays ``where`` already in report
    order, made Python ints and floats in bulk: one ``tolist`` per array."""
    return map(Violation, repeat(kind), zip(*(w.tolist() for w in where)), magnitudes.tolist())


def _triangle_block(
    d: np.ndarray, tol: float, free: list, symmetric: bool, start: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decide the row block starting at ``start`` over the columns ``k`` from
    its first column on: ``start`` on a symmetric matrix, 0 otherwise.
    Returns the rows ``i`` with a violating ``(i, j, k)`` among those columns,
    and on a symmetric matrix the columns ``k`` at which some row of the
    block violates.  Computed in a (tile, shortest, part) buffer set taken
    from ``free`` and put back."""
    n = len(d)
    first = start if symmetric else 0
    rows = d[start : start + _ROW_BLOCK]
    width = n - first
    held = free.pop()
    try:
        size = len(rows) * width
        tile = held[0][: size * min(_MID_BLOCK, n)].reshape(len(rows), -1, width)
        shortest = held[1][:size].reshape(len(rows), width)
        part = held[2][:size].reshape(len(rows), width)
        shortest.fill(math.inf)  # min over j of d[i, j] + d[j, k]
        for j0 in range(0, n, _MID_BLOCK):
            mids = d[j0 : j0 + _MID_BLOCK, first:]
            sums = np.add(rows[:, j0 : j0 + len(mids), None], mids, out=tile[:, : len(mids)])
            np.minimum.reduce(sums, axis=1, out=part)
            np.minimum(shortest, part, out=shortest)
        excess = np.subtract(rows[:, first:], shortest, out=shortest)
        flagged = start + np.flatnonzero(excess.max(axis=1) > tol)
        if not symmetric:
            return flagged, flagged[:0]
        return flagged, first + np.flatnonzero(excess.max(axis=0) > tol)
    finally:
        free.append(held)


def _triangles(d: np.ndarray, tol: float, symmetric: bool):
    """Yield the triangle violations in row order: decide the row blocks in
    order, inline or on a pool created here, and list each block's flagged
    rows once the block is decided.  A column flag marks rows only from its
    own block's start on, so by then those rows are final.  A row is listed
    chunk of middle points by chunk, from the per-triple differences: one
    ``np.nonzero`` per chunk gives its violating ``(j, k)`` in row-major
    order."""
    n = len(d)
    starts = range(0, n, _ROW_BLOCK)
    workers = min(_usable_cpus(), len(starts))
    # One buffer set per worker, allocated by the caller: after the scan the
    # caller's heap reuses that memory, which a worker thread's allocator arena
    # would keep.  A worker holds one set at a time, so pop never finds the
    # list empty; list pop and append are atomic.
    tile, row = _ROW_BLOCK * min(_MID_BLOCK, n) * n, _ROW_BLOCK * n
    free = [(np.empty(tile), np.empty(row), np.empty(row)) for _ in range(workers)]
    decide = partial(_triangle_block, d, tol, free, symmetric)
    pool = None
    if workers == 1:
        decided = map(decide, starts)
    else:
        # imported here, not with the module: it loads logging, ~10 ms
        from concurrent.futures import ThreadPoolExecutor

        # every task runs in a copy of the caller's context, so numpy's
        # errstate (a context variable) holds in the workers as inline
        caller = contextvars.copy_context()
        pool = ThreadPoolExecutor(max_workers=workers)
        decided = pool.map(lambda start: caller.copy().run(decide, start), starts)
    try:
        flagged = np.zeros(n, dtype=bool)
        chunk = min(_ROW_BLOCK * _MID_BLOCK, n)
        flat = None  # the listing's buffer, allocated at the first flagged row
        for start, (rows, columns) in zip(starts, decided):
            flagged[rows] = flagged[columns] = True
            for i in (start + np.flatnonzero(flagged[start : start + _ROW_BLOCK])).tolist():
                if flat is None:
                    flat = np.empty((chunk, n))
                for j0 in range(0, n, chunk):
                    mids = d[j0 : j0 + chunk]
                    excess = np.add(d[i, j0 : j0 + len(mids), None], mids, out=flat[: len(mids)])
                    np.subtract(d[i], excess, out=excess)
                    js, ks = np.nonzero(excess > tol)
                    yield from _listed("triangle", excess[js, ks], np.full_like(js, i), js + j0, ks)
    finally:
        if pool is not None:  # no block starts once the consumer stops
            pool.shutdown(cancel_futures=True)


def _violations(d: np.ndarray, tol: float, excess: float = math.inf):
    """Yield every axiom violation of ``d`` in report order, each computed
    only when the consumer asks for it: nonneg over row blocks, symmetry and
    off-diagonal identity through :func:`_pair_blocks` (the symmetry walk's
    exact inequality also decides ``d == d.T`` entrywise), and then the
    triangle scan, so no n x n temporary is held.  The scan is skipped when
    ``d == d.T`` and ``excess``, a bound on every triple's computed excess
    that holds on such a matrix, is at most ``tol``: it would list nothing."""
    n = len(d)
    for start in range(0, n, _PAIR_BLOCK):
        rows = d[start : start + _PAIR_BLOCK]
        i, j = np.nonzero(rows < -tol)
        yield from _listed("nonneg", -rows[i, j], start + i, j)
    symmetric = True
    for start, hit in _pair_blocks(n, lambda i, j: d[i, j] != d[j, i].T):
        i, j = (start + k for k in np.nonzero(hit))
        symmetric = symmetric and not i.size
        gap = np.abs(d[i, j] - d[j, i])
        above = gap > tol
        yield from _listed("symmetry", gap[above], i[above], j[above])
    diag = np.abs(np.diagonal(d))
    i = np.flatnonzero(diag > tol)
    yield from _listed("identity", diag[i], i, i)
    for start, hit in _pair_blocks(n, lambda i, j: d[i, j] <= tol):
        i, j = (start + k for k in np.nonzero(hit))
        yield from _listed("identity", tol - _pair_distance(d, i, j), i, j)
    if not (symmetric and excess <= tol):
        yield from _triangles(d, tol, symmetric)


def verify_metric_axioms(space: FiniteSpace, limit: int | None = None) -> AxiomReport:
    """Exhaustively check all pairs and all ordered triples of the matrix.

    Every breach beyond ``space.tol`` is reported; the scan never samples.
    Violations are listed by kind (nonneg, symmetry, identity, triangle) and
    lexicographically by index within each kind, except that identity lists
    every diagonal entry ``(i, i)`` before the off-diagonal pairs ``(i, j)``
    with ``i < j``: on 6 points, ``(5, 5)`` comes before ``(0, 1)``.  A
    positive ``limit`` lists the first ``limit`` and stops the scan once it
    holds them.  ``passed`` stays exact, since a failing matrix always lists
    at least one violation.  Unlimited calls decide every pair and every
    triple: a triple either in the triangle scan, or all at once by the
    space's proven bound on the computed excess (see :class:`FiniteSpace`),
    which the scan uses only on a matrix that equals its transpose entrywise
    and only when the bound is at most ``tol``.  Then no triple can violate,
    so the scan would list nothing, and the report is the same.  Symmetry
    and off-diagonal identity read a pair from both entries, in the row
    blocks of every least-pair search; the symmetry walk's exact inequality
    test also finds whether the matrix equals its transpose entrywise.  Every
    kind is listed in bulk, one pair block or listing chunk at a time.

    The triangle inequality is decided row by row with min-plus tiles: for a
    block of rows ``i`` the scan accumulates ``min_j (d[i, j] + d[j, k])``
    over blocks of middle points ``j``, and row ``i`` violates iff
    ``max_k (d[i, k] - min_j (...)) > tol``.  This decides exactly what a
    per-triple test ``d[i, k] - (d[i, j] + d[j, k]) > tol`` decides: each sum
    is the same rounded float, and a rounded difference ``a - s`` never
    increases as ``s`` grows, so subtracting the least sum gives the largest
    excess.

    On a matrix with ``d == d.T`` entrywise (mirrored +0.0 and -0.0 count as
    equal) a block decides only the columns ``k`` from its start on.  There
    ``d[k, j] + d[j, i]`` equals ``d[i, j] + d[j, k]`` as a number, since
    addition is commutative and the summands are equal pairwise, and
    ``d[k, i]`` equals ``d[i, k]``; so the excess of ``(k, j, i)`` equals that
    of ``(i, j, k)``, ``> tol`` decides both alike, and a sum or difference
    overflows in both or in neither (numpy's errstate sees every overflow of
    the full scan).  A row ``k`` violates iff its own block flags it or some
    earlier row violates at column ``k``, which its block reports as a column
    flag.  A matrix symmetric only within ``tol`` gets the full scan.

    The flagged rows of a decided block list their triples, from the same
    per-triple differences, so magnitudes are those of the per-triple test.
    The blocks are decided on a thread pool sized to the usable CPUs (numpy
    releases the GIL in the tile arithmetic), created for the call, shut
    down when the call returns, and gathered in order; with one usable CPU
    they are decided inline.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be a positive integer or None, got {limit!r}")
    with closing(_violations(space.dist, space.tol, space._excess)) as stream:
        violations = list(islice(stream, limit))
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
    return float(np.min(space.dist, axis=1, where=~u_mask, initial=math.inf)[k_mask].min())
