"""Properties of the point-set primitives ``FiniteSpace.mask`` and
``FiniteSpace.reach`` against per-point references, over arbitrary finite
matrices (not only metrics) and arbitrary subsets, the empty one included."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atsuji import (
    FiniteSpace,
    convergent_sequence,
    detect_limit_points,
    neighborhood,
    separator,
    set_distance,
)

# small integers give ties; the halves give inexact sums and quotients
ENTRIES = st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 8.0).map(lambda v: v / 3))


@st.composite
def spaces_and_sets(draw):
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    dist = np.array(rows)
    if draw(st.booleans()):
        np.fill_diagonal(dist, 0.0)
    ids = tuple(f"p{k}" for k in draw(st.permutations(range(n))))
    space = FiniteSpace(ids=ids, dist=dist)
    subset = st.lists(st.sampled_from(ids), max_size=n + 2)  # repeats allowed
    return space, draw(subset), draw(subset)


@settings(max_examples=200)
@given(case=spaces_and_sets(), eps=ENTRIES.filter(lambda v: v > 0))
def test_reach_and_neighborhood_match_per_point_references(case, eps):
    space, A, _ = case
    reach = space.reach(A)
    assert reach.shape == (space.n,)
    for k, p in enumerate(space.ids):
        assert reach[k] == set_distance(space, p, A)
        assert reach[k] == min((space.distance(p, a) for a in A), default=math.inf)
    assert neighborhood(space, A, eps) == {
        p for k, p in enumerate(space.ids) if reach[k] < eps
    }
    assert space.mask(A).tolist() == [p in set(A) for p in space.ids]


@settings(max_examples=200)
@given(case=spaces_and_sets(), data=st.data())
def test_separator_matches_per_point_quotient_bit_for_bit(case, data):
    space = case[0]
    side = data.draw(st.lists(st.sampled_from("-AB"), min_size=space.n, max_size=space.n))
    A = [p for p, s in zip(space.ids, side) if s == "A"]
    B = [p for p, s in zip(space.ids, side) if s == "B"]
    if not A or not B:
        with pytest.raises(ValueError, match="nonempty"):
            separator(space, A, B)
        return
    want = {}
    for p in space.ids:
        da = min(space.distance(p, a) for a in A)
        db = min(space.distance(p, b) for b in B)
        if not da + db > 0:
            with pytest.raises(ValueError, match=f"vanishes at {p!r}"):
                separator(space, A, B)
            return
        want[p] = da / (da + db)
    got = separator(space, A, B).values
    assert list(got) == list(space.ids)
    assert {p: v.hex() for p, v in got.items()} == {p: v.hex() for p, v in want.items()}


@settings(max_examples=200)
@given(case=spaces_and_sets(), data=st.data(), r=ENTRIES.filter(lambda v: v > 0))
def test_set_distances_and_detection_match_the_copying_formulas(case, data, r):
    # the masked reductions in place equal reductions over copied columns and
    # an n x n predicate (a row with several signed zeros may differ in the
    # sign of its zero only, and zeros of either sign compare equal)
    space, S, _ = case
    d = space.dist
    assert np.array_equal(space.reach(S), d[:, space.mask(S)].min(axis=1, initial=math.inf))
    close = d < r
    np.fill_diagonal(close, False)
    flagged = {space.ids[k] for k in np.flatnonzero(close.any(0) | close.any(1))}
    assert detect_limit_points(space, r).members == flagged

    side = data.draw(st.lists(st.sampled_from("-AB"), min_size=space.n, max_size=space.n))
    a, b = (np.array([s == t for s in side]) for t in "AB")
    if not a.any() or not b.any():
        return
    da, db = d[:, a].min(axis=1), d[:, b].min(axis=1)
    A, B = ([p for p, s in zip(space.ids, side) if s == t] for t in "AB")
    if not (da + db > 0).all():
        with pytest.raises(ValueError, match="vanishes"):
            separator(space, A, B)
        return
    assert list(separator(space, A, B).values.values()) == (da / (da + db)).tolist()


def test_reach_holds_no_n_squared_buffer():
    space, _ = convergent_sequence(1000)
    n = space.n
    tracemalloc.start()
    try:
        reach = space.reach(space.ids[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reach[0] == space.dist[0, 1:].min() and not reach[1:].any()
    assert peak < 0.25 * 8 * n * n


def test_mask_of_unknown_point_names_it():
    space = FiniteSpace(ids=("a", "b"), dist=[[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(KeyError, match="'ghost'"):
        space.mask(["a", "ghost"])
    assert space.reach([]).tolist() == [math.inf, math.inf]
