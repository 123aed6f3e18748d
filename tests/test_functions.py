import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atsuji import (
    FiniteSpace,
    WitnessPair,
    SampledFunction,
    convergent_sequence,
    modulus_of_continuity,
    parity_function,
    positive_integers,
    separator,
    sequence_grid,
    uc_witness_search,
)
from atsuji.space import _PAIR_BLOCK


def brute_modulus(space, f, eta):
    best = math.inf
    for i in range(space.n):
        for j in range(i + 1, space.n):
            if abs(f.values[space.ids[i]] - f.values[space.ids[j]]) >= eta:
                best = min(best, float(space.dist[i, j]), float(space.dist[j, i]))
    return best


# --- separator ---------------------------------------------------------------


def test_separator_pins_a_to_zero_and_b_to_one():
    space, _ = sequence_grid(4, 4, True)
    A = {"zero"}
    B = {"p_1_1", "p_2_1"}
    f = separator(space, A, B)
    for p in A:
        assert f.values[p] == 0.0
    for p in B:
        assert f.values[p] == 1.0
    assert all(0.0 <= v <= 1.0 for v in f.values.values())


def test_separator_midpoint_value():
    space, _ = convergent_sequence(10)
    f = separator(space, {"zero"}, {"n1"})
    assert f.values["n2"] == 0.5


def test_separator_preconditions():
    space, _ = convergent_sequence(10)
    with pytest.raises(ValueError):
        separator(space, set(), {"n1"})
    with pytest.raises(ValueError):
        separator(space, {"zero"}, set())
    with pytest.raises(ValueError):
        separator(space, {"zero", "n1"}, {"n1"})


def test_separator_sums_distances_at_the_top_of_the_double_range():
    # 1e308 + 1e308 overflows a double; the separator halves both first
    big = 1e308
    space = FiniteSpace(ids=("a", "b", "c"), dist=[[0, big, big], [big, 0, big], [big, big, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        f = separator(space, ["a"], ["b"])
    assert f.values == {"a": 0.0, "b": 1.0, "c": 0.5}


def test_separator_reads_set_distances_in_place():
    # d(x, A) and d(x, B) are masked reductions over the matrix: no column copies
    space, _ = convergent_sequence(1000)
    n = space.n
    A, B = space.ids[: n // 2], space.ids[n // 2 :]
    tracemalloc.start()
    try:
        f = separator(space, A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.values[A[0]] == 0.0 and f.values[B[0]] == 1.0
    assert peak < 0.25 * 8 * n * n


def test_separator_reads_each_set_once_from_the_caller():
    space, _ = convergent_sequence(10)
    f = separator(space, iter(["zero", "n3"]), (p for p in ["n1"]))
    assert f.values == separator(space, ["zero", "n3"], ["n1"]).values
    assert f.label == "separator(|A|=2,|B|=1)"


@pytest.mark.parametrize(
    "make,a,b",
    [
        (lambda: sequence_grid(10, 10, True)[0], "zero", "p_1_1"),
        (lambda: convergent_sequence(100)[0], "zero", "n1"),
    ],
)
def test_separator_stability_bound(make, a, b):
    # |f(x) - f(y)| <= 3 dist(x,y) / max(s(x), s(y)) with s = d(.,A) + d(.,B)
    space = make()
    A, B = {a}, {b}
    f = separator(space, A, B)
    s = {}
    for p in space.ids:
        da = min(space.distance(p, q) for q in A)
        db = min(space.distance(p, q) for q in B)
        s[p] = da + db
    for i in range(space.n):
        for j in range(i + 1, space.n):
            x, y = space.ids[i], space.ids[j]
            gap = abs(f.values[x] - f.values[y])
            bound = 3 * float(space.dist[i, j]) / max(s[x], s[y])
            assert gap <= bound + space.tol


# --- modulus_of_continuity ------------------------------------------------------


def test_modulus_constant_function():
    space, _ = convergent_sequence(20)
    f = SampledFunction({p: 7.0 for p in space.ids}, label="const")
    assert modulus_of_continuity(space, f, 0.5) == math.inf


def test_modulus_separator_convergent_frozen():
    space, _ = convergent_sequence(100)
    f = separator(space, {"zero"}, {"n1"})
    value = modulus_of_continuity(space, f, 0.5)
    assert value == brute_modulus(space, f, 0.5)
    assert value == 0.5  # achieved by (zero, n2) and (n1, n2)


def test_modulus_parity_frozen():
    space, _ = sequence_grid(50, 50, False)
    f = parity_function(space)
    value = modulus_of_continuity(space, f, 0.5)
    assert value == pytest.approx(1 / (49 * 50), abs=1e-12)


def test_modulus_holds_no_n_squared_buffer():
    space, _ = positive_integers(1001, "d2")
    n = space.n
    f = SampledFunction({p: float(k % 2) for k, p in enumerate(space.ids)}, label="parity")
    v = f.array(space)
    expected = float(space.dist[np.triu(np.abs(v[:, None] - v) >= 0.5, k=1)].min())
    tracemalloc.start()
    try:
        value = modulus_of_continuity(space, f, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == expected
    assert peak < 0.25 * 8 * n * n


@settings(max_examples=20, deadline=None)
@given(
    values=st.lists(st.sampled_from([0.0, 0.25, 1.0]),
                    min_size=_PAIR_BLOCK + 12, max_size=_PAIR_BLOCK + 12),
    eta=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
)
def test_modulus_matches_brute_force_across_row_blocks(values, eta):
    space, _ = convergent_sequence(_PAIR_BLOCK + 11)
    # the same matrix with its lower triangle scaled by 1.5: a pair's two entries differ
    asymmetric = FiniteSpace(space.ids, np.triu(space.dist) + 1.5 * np.tril(space.dist, -1))
    f = SampledFunction(dict(zip(space.ids, values)), label="random")
    for s in (space, asymmetric):
        assert modulus_of_continuity(s, f, eta) == brute_modulus(s, f, eta)


def test_modulus_rejects_bad_eta():
    space, _ = convergent_sequence(5)
    f = SampledFunction({p: 0.0 for p in space.ids}, label="const")
    with pytest.raises(ValueError):
        modulus_of_continuity(space, f, 0.0)


def test_function_domain_must_match():
    space, _ = convergent_sequence(5)
    f = SampledFunction({"zero": 0.0}, label="partial")
    with pytest.raises(ValueError):
        modulus_of_continuity(space, f, 0.5)


# --- uc_witness_search -------------------------------------------------------------


def test_witness_identity_on_d2_frozen():
    space, _ = positive_integers(100, "d2")
    f = SampledFunction({f"n{k}": float(k) for k in range(1, 101)}, label="identity")
    w = uc_witness_search(space, f, 0.5, 1e-3)
    assert (w.x, w.y) == ("n32", "n33")
    assert w.distance == pytest.approx(1 / 1056, abs=1e-15)
    assert w.gap == 1.0


def test_witness_constant_function_none():
    space, _ = positive_integers(100, "d2")
    f = SampledFunction({p: 0.0 for p in space.ids}, label="const")
    assert uc_witness_search(space, f, 0.5, 1e-3) is None


def test_witness_parity_frozen():
    space, _ = sequence_grid(50, 50, False)
    f = parity_function(space)
    w = uc_witness_search(space, f, 0.5, 1e-3)
    assert (w.x, w.y) == ("p_1_32", "p_1_33")
    assert w.gap == 1.0
    assert w.distance == pytest.approx(1 / (32 * 33), abs=1e-15)


def test_witness_rejects_bad_params():
    space, _ = convergent_sequence(5)
    f = SampledFunction({p: 0.0 for p in space.ids}, label="const")
    with pytest.raises(ValueError):
        uc_witness_search(space, f, 0.0, 1e-3)
    with pytest.raises(ValueError):
        uc_witness_search(space, f, 0.5, 0.0)


def test_witness_rejects_a_function_on_another_domain():
    space = FiniteSpace(ids=("a", "b", "c"), dist=[[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    f = SampledFunction({"a": 0.0, "b": 1.0, "z": 2.0}, label="other")
    message = "function 'other' domain does not match the space (missing ['c'], extra ['z'])"
    with pytest.raises(ValueError, match=re.escape(message)):
        uc_witness_search(space, f, 0.5, 1.0)


@pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
def test_witness_distance_is_the_entry_that_is_delta_close(lower):
    # the pair (a, b) is 1 apart at one entry and 0.25 at the other
    dist = np.array([[0.0, 1.0, 3.0], [0.25, 0.0, 3.0], [3.0, 3.0, 0.0]])
    space = FiniteSpace(ids=("a", "b", "c"), dist=dist if lower else dist.T)
    f = SampledFunction({"a": 0.0, "b": 1.0, "c": 2.0}, label="identity")
    assert uc_witness_search(space, f, 0.5, 0.5) == WitnessPair("a", "b", 0.25, 1.0)
    assert modulus_of_continuity(space, f, 0.5) == 0.25



@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(_PAIR_BLOCK + 2, 3 * _PAIR_BLOCK),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_witness_is_the_least_pair_when_the_first_hit_is_in_a_later_block(n, data, seed):
    # points before `first` lie on a line 10 apart, far from a cluster of the
    # rest, so no pair of theirs is delta-close and the least hit is in a row
    # at or after `first`, in the second or a later block of rows
    first = data.draw(st.integers(_PAIR_BLOCK, n - 2))
    rng = np.random.default_rng(seed)
    x = np.concatenate([10.0 * np.arange(first), 10.0 * first + 10 + 3 * rng.random(n - first)])
    values = rng.integers(0, 2, n).astype(float)
    space = FiniteSpace(ids=tuple(f"q{k}" for k in range(n)), dist=np.abs(x[:, None] - x))
    f = SampledFunction(dict(zip(space.ids, values.tolist())), label="random")

    gaps = np.abs(values[:, None] - values)
    hits = np.argwhere(np.triu((space.dist < 1.0) & (gaps >= 0.5), k=1))
    w = uc_witness_search(space, f, 0.5, 1.0)
    if not hits.size:
        assert w is None
        return
    i, j = hits[0]
    assert i >= first
    assert (w.x, w.y, w.distance, w.gap) == (
        space.ids[i], space.ids[j], float(space.dist[i, j]), float(gaps[i, j])
    )

@settings(max_examples=60)
@given(
    values=st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=6, max_size=6
    ),
    eps0=st.floats(min_value=0.01, max_value=3),
    delta=st.floats(min_value=0.01, max_value=3),
)
def test_witness_iff_modulus_below_delta(values, eps0, delta):
    space, _ = convergent_sequence(5)
    f = SampledFunction(dict(zip(space.ids, values)), label="random")
    witness = uc_witness_search(space, f, eps0, delta)
    modulus = modulus_of_continuity(space, f, eps0)
    assert (witness is not None) == (modulus < delta)
    if witness is not None:
        assert witness.distance < delta
        assert witness.gap >= eps0


# --- parity_function ----------------------------------------------------------------


def test_parity_values():
    space, _ = sequence_grid(2, 2, False)
    f = parity_function(space)
    assert f.values["p_1_1"] == 1.0
    assert f.values["p_1_2"] == 0.0
    assert f.values["p_2_2"] == 1.0


def test_parity_rejects_origin():
    space, _ = sequence_grid(2, 2, True)
    with pytest.raises(ValueError):
        parity_function(space)


def test_parity_rejects_foreign_ids():
    space, _ = positive_integers(5, "d1")
    with pytest.raises(ValueError):
        parity_function(space)


@pytest.mark.parametrize("point_id", ["p_1_2\n", "p_\u0661_3"], ids=["newline", "arabic-digit"])
def test_parity_rejects_ids_that_only_resemble_grid_ids(point_id):
    space = FiniteSpace(("p_1_1", point_id), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="does not encode grid indices"):
        parity_function(space)
