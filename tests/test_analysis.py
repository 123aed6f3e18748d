import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atsuji import (
    DerivedSetView,
    FiniteSpace,
    atsuji_check,
    convergent_sequence,
    detect_limit_points,
    greedy_epsilon_net,
    min_pairwise_distance,
    neighborhood,
    positive_integers,
    sequence_grid,
)
from atsuji.analysis import FINITE_EVIDENCE_NOTE

from test_space import small_spaces


def brute_min_pair(space, S):
    idx = sorted(space.index(p) for p in S)
    best, pair = math.inf, None
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            d = float(space.dist[idx[a], idx[b]])
            if d < best:
                best, pair = d, (space.ids[idx[a]], space.ids[idx[b]])
    return best, pair


# --- detect_limit_points -----------------------------------------------------


def test_detect_isolated_integers():
    space, _ = positive_integers(100, "d1")
    view = detect_limit_points(space, 0.5)
    assert view.kind == "detected"
    assert view.resolution == 0.5
    assert view.members == frozenset()


def test_detect_convergent_frozen():
    # At r = 0.01, the gap 1/(n(n+1)) < r exactly for n >= 10.  The point 0
    # sits exactly on the open-ball boundary (its nearest point 1/100 is at
    # distance 0.01), so strict balls exclude it; nudging r past the boundary
    # brings it in.
    space, _ = convergent_sequence(100)
    members = detect_limit_points(space, 0.01).members
    assert members == {f"n{k}" for k in range(10, 101)}
    widened = detect_limit_points(space, 0.0101).members
    assert widened == {"zero"} | {f"n{k}" for k in range(10, 101)}


def test_detect_above_diameter_flags_everything():
    space, _ = positive_integers(10, "d2")
    assert detect_limit_points(space, 2.0).members == set(space.ids)


def test_detect_rejects_bad_resolution():
    space, _ = convergent_sequence(5)
    with pytest.raises(ValueError):
        detect_limit_points(space, 0.0)


def test_detect_monotone_in_resolution():
    space, _ = convergent_sequence(50)
    previous = frozenset()
    for r in (0.001, 0.01, 0.05, 0.2, 1.5):
        members = detect_limit_points(space, r).members
        assert previous <= members
        previous = members


# --- min_pairwise_distance ----------------------------------------------------


def test_min_pairwise_integers_d1():
    space, _ = positive_integers(100, "d1")
    report = min_pairwise_distance(space, space.ids)
    assert report.eta == 1.0
    assert report.witness == ("n1", "n2")


def test_min_pairwise_integers_d2():
    space, _ = positive_integers(100, "d2")
    report = min_pairwise_distance(space, space.ids)
    assert report.eta == pytest.approx(1 / 9900, abs=1e-15)
    assert report.witness == ("n99", "n100")
    assert (report.eta, report.witness) == brute_min_pair(space, space.ids)


def test_min_pairwise_singleton_vacuous():
    space, _ = convergent_sequence(5)
    report = min_pairwise_distance(space, {"n1"})
    assert report.eta == math.inf
    assert report.witness is None


@settings(max_examples=50)
@given(data=st.data())
def test_min_pairwise_matches_brute_force(data):
    space = data.draw(small_spaces(min_size=2))
    S = data.draw(st.sets(st.sampled_from(space.ids), min_size=2))
    report = min_pairwise_distance(space, S)
    assert (report.eta, report.witness) == brute_min_pair(space, S)


# --- greedy_epsilon_net ---------------------------------------------------------


def test_net_convergent_frozen():
    space, _ = convergent_sequence(20)
    assert greedy_epsilon_net(space, space.ids, 0.3) == ["zero", "n1", "n2"]


def test_net_above_diameter_is_first_point():
    space, _ = convergent_sequence(20)
    assert greedy_epsilon_net(space, space.ids, 5.0) == ["zero"]


def test_net_empty_set():
    space, _ = convergent_sequence(5)
    assert greedy_epsilon_net(space, set(), 0.5) == []


def test_net_rejects_bad_eps():
    space, _ = convergent_sequence(5)
    with pytest.raises(ValueError):
        greedy_epsilon_net(space, space.ids, -0.1)


@settings(max_examples=50)
@given(data=st.data())
def test_net_packing_and_covering(data):
    space = data.draw(small_spaces(min_size=2))
    S = data.draw(st.sets(st.sampled_from(space.ids), min_size=1))
    eps = data.draw(st.floats(min_value=0.05, max_value=10))
    net = greedy_epsilon_net(space, S, eps)
    assert set(net) <= S
    for a in net:
        for b in net:
            if a != b:
                assert space.distance(a, b) >= eps
    for p in S:
        assert any(space.distance(p, q) < eps for q in net)


# --- atsuji_check ----------------------------------------------------------------


def test_atsuji_integers_d1_passes():
    space, oracle = positive_integers(1000, "d1")
    verdict = atsuji_check(space, oracle, [1.0, 0.1], 1e-3)
    assert verdict.status == "PASS"
    assert verdict.isolation[1.0].eta == 1.0
    assert verdict.isolation[0.1].eta == 1.0
    assert verdict.fail_witness is None
    assert FINITE_EVIDENCE_NOTE in verdict.notes


def test_atsuji_integers_d2_fails_with_witness():
    space, oracle = positive_integers(1000, "d2")
    verdict = atsuji_check(space, oracle, [1.0, 0.1], 1e-3)
    assert verdict.status == "FAIL"
    w = verdict.fail_witness
    assert (w.x, w.y) == ("n999", "n1000")
    assert w.distance == pytest.approx(1 / 999000, abs=1e-15)


def test_atsuji_grid_with_origin_passes():
    space, oracle = sequence_grid(50, 50, True)
    grid = [1 / m for m in range(1, 9)]
    verdict = atsuji_check(space, oracle, grid, 1e-3)
    assert verdict.status == "PASS"
    # total-boundedness evidence for the singleton derived set
    assert all(size == 1 for size in verdict.net_sizes.values())


def test_atsuji_fail_witness_is_consistent():
    space, oracle = positive_integers(200, "d2")
    threshold = 1e-3
    verdict = atsuji_check(space, oracle, [0.5, 0.05], threshold)
    assert verdict.status == "FAIL"
    w = verdict.fail_witness
    assert w.distance < threshold
    failing = [
        eps
        for eps, rep in verdict.isolation.items()
        if rep.eta == w.distance and rep.witness == (w.x, w.y)
    ]
    assert failing
    for eps in failing:
        outside = set(space.ids) - neighborhood(space, oracle.members, eps) if oracle.members else set(space.ids)
        assert {w.x, w.y} <= outside


@st.composite
def small_matrices(draw):
    """Integer-valued matrices, so ties are common; half of them asymmetric,
    with arbitrary diagonals."""
    n = draw(st.integers(1, 7))
    entries = st.integers(0, 4).map(float)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] if i != j else 0.0 for j in range(n)] for i in range(n)]
    return FiniteSpace(ids=tuple(f"m{k}" for k in range(n)), dist=rows)


@settings(max_examples=300)
@given(data=st.data())
def test_atsuji_isolation_matches_complement_reference(data):
    space = data.draw(small_matrices())
    members = data.draw(
        st.one_of(
            st.just(frozenset()),
            st.just(frozenset(space.ids)),
            st.frozensets(st.sampled_from(space.ids)),
        )
    )
    grid = data.draw(
        st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5]), min_size=1, max_size=6)
    )
    verdict = atsuji_check(space, DerivedSetView("oracle", members), grid, 1.0)
    for eps in grid:
        complement = set(space.ids) - neighborhood(space, members, eps)
        assert verdict.isolation[eps] == min_pairwise_distance(space, complement)
        assert (verdict.isolation[eps].eta, verdict.isolation[eps].witness) == brute_min_pair(
            space, complement
        )


def test_atsuji_inconclusive_when_every_complement_is_tiny():
    space, _ = convergent_sequence(10)
    everything = DerivedSetView("oracle", frozenset(space.ids))
    verdict = atsuji_check(space, everything, [5.0], 1e-3)
    assert verdict.status == "INCONCLUSIVE"
    assert verdict.isolation[5.0].eta == math.inf


def test_atsuji_detected_view_adds_note():
    space, _ = convergent_sequence(50)
    view = detect_limit_points(space, 0.05)
    verdict = atsuji_check(space, view, [0.5], 1e-6)
    assert any("over-approximate" in note for note in verdict.notes)


def test_atsuji_rejects_bad_inputs():
    space, oracle = convergent_sequence(5)
    with pytest.raises(ValueError):
        atsuji_check(space, oracle, [], 1e-3)
    with pytest.raises(ValueError):
        atsuji_check(space, oracle, [1.0, -0.5], 1e-3)
    with pytest.raises(ValueError):
        atsuji_check(space, oracle, [1.0], 0.0)
    with pytest.raises(KeyError):
        atsuji_check(space, DerivedSetView("oracle", frozenset({"ghost"})), [1.0], 1e-3)


def test_derived_set_view_validation():
    with pytest.raises(ValueError):
        DerivedSetView("magic", frozenset())
    with pytest.raises(ValueError):
        DerivedSetView("oracle", frozenset(), resolution=0.1)
    with pytest.raises(ValueError):
        DerivedSetView("detected", frozenset())
