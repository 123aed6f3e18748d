"""build_space's blocked slot pass, its one n x n buffer, its bound on the
computed triangle excess, and which paths of FiniteSpace copy a matrix."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atsuji import (
    DuplicatePointError,
    FiniteSpace,
    IndiscerniblePointsError,
    PointSpec,
    build_space,
    positive_integers,
    sequence_grid,
)
from atsuji.space import _PAIR_BLOCK


def unblocked_slot_pass(coords: np.ndarray) -> np.ndarray:
    """The l2 matrix with one n x n step per slot: squares summed slot by
    slot, in slot order, +0.0 terms skipped.  The reference for the blocked
    pass, which must give the same floats."""
    n = len(coords)
    sq = np.zeros((n, n))
    for col in coords.T:
        nz = np.flatnonzero(col)
        diff = np.subtract.outer(col[nz], col)
        sq[nz] += np.square(diff, out=diff)
        sq[np.ix_(np.flatnonzero(col == 0.0), nz)] += np.square(col[nz])
    dist = np.sqrt(sq, out=sq)
    np.fill_diagonal(dist, 0.0)
    return dist


def _layout(name: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Rows nonzero in the main slot."""
    rows = np.arange(n)
    if name == "dense":
        return np.ones(n, dtype=bool)
    if name == "contiguous":  # one run crossing block boundaries
        return (rows >= 3) & (rows < n - 2)
    if name == "strided":  # never contiguous
        return rows % 2 == 1
    if name == "one-gap":  # a first block that misses one row
        return rows != _PAIR_BLOCK // 2
    if name == "runs":  # two runs, a gap around the first block boundary
        return (rows < _PAIR_BLOCK - 5) | (rows >= _PAIR_BLOCK + 7)
    if name == "minority-run":  # one run of under half the rows
        return (rows >= 10) & (rows < 10 + (n - 20) // 2)
    if name == "sparse":
        return rows % 3 == 0
    return rng.random(n) < 0.5  # "random"


@pytest.mark.parametrize("n", [_PAIR_BLOCK - 1, _PAIR_BLOCK, _PAIR_BLOCK + 1, 2 * _PAIR_BLOCK + 44])
@pytest.mark.parametrize(
    "layout",
    ["dense", "contiguous", "one-gap", "strided", "runs", "minority-run", "sparse", "random"],
)
def test_blocked_slot_pass_is_bitwise_the_unblocked_one(n, layout):
    # slot 1 is nonzero on the layout's rows and slot 2 on the others but row
    # 0, so slot 1 of the dense layout has no zero rows and the other slots
    # copy slice or scattered blocks of rows into their columns; slots 3 to 12
    # give every point 0 to 3 sparse coordinates
    rng = np.random.default_rng([n, len(layout)])
    main = _layout(layout, n, rng)
    coords = np.zeros((n, 12))
    scale = 10.0 ** rng.integers(-3, 4, size=(n, 12))
    values = rng.normal(size=(n, 12)) * scale
    coords[main, 0] = values[main, 0]
    other = ~main
    other[0] = False
    coords[other, 1] = values[other, 1]
    for row in range(n):
        slots = 2 + rng.choice(10, size=rng.integers(0, 4), replace=False)
        coords[row, slots] = values[row, slots]
    specs = [PointSpec(f"q{k}", {s + 1: float(v) for s, v in enumerate(row) if v})
             for k, row in enumerate(coords)]

    space = build_space(specs)

    assert space.dist.tobytes() == unblocked_slot_pass(coords).tobytes()


@pytest.mark.parametrize(
    "build",
    [lambda: positive_integers(1500, "d2"), lambda: sequence_grid(15, 100, False),
     lambda: sequence_grid(1500, 1, False)],
    ids=["integers-d2", "grid", "one-slot-per-point"],
)
def test_building_a_space_holds_one_n_by_n_buffer(build):
    # numpy reports its buffers to tracemalloc, so the peak is deterministic:
    # the matrix itself, block buffers (128 rows, under 0.15 of it at 1500
    # points) and the point specs, however many slots the points use
    tracemalloc.start()
    try:
        space, _ = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.n == 1500
    assert peak < 1.15 * space.dist.nbytes + 2 * 2**20


def test_the_constructor_copies_a_callers_matrix():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    space = FiniteSpace(ids=("a", "b"), dist=d)
    d[0, 1] = 5.0
    assert space.dist[0, 1] == 1.0
    assert d.flags.writeable


@pytest.mark.parametrize(
    "make",
    [lambda: FiniteSpace(ids=("a", "b"), dist=np.array([[0.0, 1.0], [1.0, 0.0]])),
     lambda: build_space([PointSpec("a", {}), PointSpec("b", {1: 1.0})])],
    ids=["constructor", "build_space"],
)
def test_dist_is_read_only_on_both_paths(make):
    space = make()
    assert not space.dist.flags.writeable
    with pytest.raises(ValueError):
        space.dist[0, 1] = 5.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 0), (2, 2)])
def test_non_finite_entries_are_rejected_wherever_they_are(bad, where):
    d = np.ones((3, 3))
    d[where] = bad
    message = rf"distance matrix entry \({where[0]}, {where[1]}\) is not finite"
    with pytest.raises(ValueError, match=message):
        FiniteSpace(ids=("a", "b", "c"), dist=d)


def test_an_overflowing_distance_names_the_least_pair():
    # (a, b) is indiscernible, but a non-finite distance is reported first:
    # the least pair whose squared distance overflows, not a matrix index; the
    # distance of (a, c) is about 1e200, a finite double, but its square is not
    specs = [PointSpec("a", {1: 1.0}), PointSpec("b", {1: 1.0}), PointSpec("c", {1: 1e200}),
             PointSpec("d", {2: -1e200})]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an error, not a numpy warning
        with pytest.raises(ValueError) as raised:
            build_space(specs)
    assert str(raised.value) == "points 'a' and 'c': their squared l2 distance overflows a double"


def test_duplicates_are_reported_before_an_overflow():
    with pytest.raises(DuplicatePointError):
        build_space([PointSpec("a", {1: 1e200}), PointSpec("a", {1: -1e200})])


# --- the proven bound on the computed triangle excess --------------------------


@st.composite
def sparse_specs(draw):
    """2 to 12 points over 1 to 6 slots with arbitrary slot numbers, each
    point zero in a random share of them, at one coordinate scale from 1e-9
    to 1e12.  Integer coordinates put many triples on a line, where the
    triangle inequality is tight and only rounding decides the excess."""
    n = draw(st.integers(2, 12))
    width = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.integers(-9, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slots = np.sort(rng.choice(10**6, width, replace=False)) + 1
    if draw(st.booleans()):
        coords = rng.integers(-20, 21, (n, width)).astype(float)
    else:
        coords = rng.uniform(-1.0, 1.0, (n, width))
    coords[rng.random((n, width)) < draw(st.sampled_from([0.0, 0.5, 0.8]))] = 0.0
    coords *= scale
    return [PointSpec(f"q{k}", {int(slot): float(c) for slot, c in zip(slots, row) if c})
            for k, row in enumerate(coords)]


def build_or_skip(specs):
    try:
        return build_space(specs)
    except IndiscerniblePointsError:  # repeated rows
        assume(False)


def largest_excess(d: np.ndarray) -> float:
    """The largest computed d[i, k] - (d[i, j] + d[j, k]) over every ordered
    triple, by brute force."""
    return float((d[:, None, :] - (d[:, :, None] + d[None, :, :])).max())


@settings(max_examples=400, deadline=None)
@given(sparse_specs())
def test_the_excess_bound_holds_on_every_triple(specs):
    space = build_or_skip(specs)
    assert largest_excess(space.dist) <= space._excess
    # and it is a few dozen ulps of the largest entry, not a vacuous bound
    assert space._excess <= 1e-14 * space.dist.max() + 1e-150


@pytest.mark.parametrize(
    "make",
    [
        # the ROADMAP's large-coordinate repros: one slot, uniform on [0, 1e5];
        # 40 collinear points in two slots, spread out to ~1.4e6
        lambda: [PointSpec(f"p{k}", {1: float(x)})
                 for k, x in enumerate(np.random.default_rng(1).uniform(0.0, 1e5, 60))],
        lambda: [PointSpec(f"p{k}", {1: 25000.0 * k, 2: 25000.0 * k}) for k in range(40)],
    ],
    ids=["one-slot", "collinear"],
)
def test_a_large_coordinate_space_has_a_bound_above_tol(make):
    # the bound does not certify these, so their false triangle violations
    # are still listed by the full scan
    space = build_space(make())
    assert space._excess > space.tol
    assert largest_excess(space.dist) > space.tol
