import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atsuji import (
    DerivedSetView,
    FiniteSpace,
    IndiscerniblePointsError,
    IsolationReport,
    PointSpec,
    RemetrizedSpace,
    SampledFunction,
    WitnessPair,
    atsuji_check,
    build_space,
    convergent_sequence,
    greedy_epsilon_net,
    min_pairwise_distance,
    modulus_of_continuity,
    neighborhood,
    positive_integers,
    sequence_grid,
    uc_witness_search,
    verify_metric_axioms,
    verify_same_topology,
)
from atsuji.analysis import DEFAULT_EPS_GRID, FINITE_EVIDENCE_NOTE, _IsolationProfile
from atsuji.space import _require_discernible

from test_space import small_spaces


def brute_min_pair(space, S):
    idx = sorted(space.index(p) for p in S)
    best, pair = math.inf, None
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            d = float(min(space.dist[idx[a], idx[b]], space.dist[idx[b], idx[a]]))
            if d < best:
                best, pair = d, (space.ids[idx[a]], space.ids[idx[b]])
    return best, pair


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


def reference_net(d, S, eps):
    """The greedy net in pure Python: each member of S, in canonical order,
    joins unless a net point is strictly within eps of it by the pair rule."""
    net = []
    for k in sorted(set(S)):
        if all(_reference_pair(d, k, q) >= eps for q in net):
            net.append(k)
    return net


@st.composite
def net_matrices(draw):
    """1-8 points, each entry drawn on its own: asymmetric pairs, zero pairs
    of either sign, and diagonal entries at, above and below the scales."""
    n = draw(st.integers(1, 8))
    entry = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    return FiniteSpace(ids=tuple(f"m{k}" for k in range(n)), dist=rows)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_net_is_the_pure_python_greedy_net(data):
    space = data.draw(net_matrices())
    S = data.draw(st.lists(st.integers(0, space.n - 1), max_size=2 * space.n))  # repeats kept
    eps = data.draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]))
    net = greedy_epsilon_net(space, [space.ids[k] for k in S], eps)
    assert net == [space.ids[k] for k in reference_net(space.dist, S, eps)]


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
def small_matrices(draw, sizes=st.integers(1, 7)):
    """Integer-valued matrices, so ties are common; half of them asymmetric,
    with arbitrary diagonals."""
    n = draw(sizes)
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
    verdict = atsuji_check(space, DerivedSetView(members), grid, 1.0)
    for eps in grid:
        complement = set(space.ids) - neighborhood(space, members, eps)
        assert verdict.isolation[eps] == min_pairwise_distance(space, complement)
        assert (verdict.isolation[eps].eta, verdict.isolation[eps].witness) == brute_min_pair(
            space, complement
        )


# two pairs 0.125 apart: (c, d) only in the complement at eps 0.5, (a, b) at
# both scales, so both grid entries reach the least isolation
TIED_SCALES = build_space([PointSpec("c", {1: 0.5}), PointSpec("d", {1: 0.625}),
                           PointSpec("a", {1: 4.0}), PointSpec("b", {1: 4.125}),
                           PointSpec("z", {})])


@pytest.mark.parametrize("grid", [[1.0, 0.5], [0.5, 1.0]], ids=["descending", "ascending"])
def test_atsuji_fail_witness_is_taken_at_the_largest_least_isolated_scale(grid):
    verdict = atsuji_check(TIED_SCALES, DerivedSetView(frozenset({"z"})), grid, 0.2)
    assert verdict.status == "FAIL"
    assert verdict.fail_witness == WitnessPair("a", "b", distance=0.125, gap=0.0)
    assert verdict.notes[-1] == "isolation 0.125 at eps 1.0 fell below threshold 0.2"


@settings(max_examples=200)
@given(data=st.data())
def test_atsuji_verdict_does_not_depend_on_the_grid_order(data):
    space = data.draw(small_matrices())
    members = data.draw(st.frozensets(st.sampled_from(space.ids)))
    grid = data.draw(
        st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5]), min_size=1, max_size=6)
    )
    shuffled = data.draw(st.permutations(grid))
    threshold = data.draw(st.sampled_from([0.5, 1.0, 2.0, 5.0]))
    derived = DerivedSetView(members)
    one, other = (atsuji_check(space, derived, g, threshold) for g in (grid, shuffled))
    assert (one.status, one.fail_witness, one.notes) == (
        other.status, other.fail_witness, other.notes)


def test_isolation_exactly_at_the_threshold_passes():
    # only isolation below the threshold fails: the line 0, 1 - 2^-10, 1 has
    # its closest pair exactly 2^-10 apart, outside B(D, eps) for D = {p0}
    x = np.array([0.0, 1 - 2**-10, 1.0])
    space = FiniteSpace(["p0", "p1", "p2"], np.abs(x[:, None] - x[None, :]))
    derived = DerivedSetView(frozenset({"p0"}))
    assert atsuji_check(space, derived, [0.5], 2**-10).status == "PASS"
    verdict = atsuji_check(space, derived, [0.5], np.nextafter(2**-10, 1.0))
    assert (verdict.status, verdict.fail_witness) == ("FAIL", WitnessPair("p1", "p2", 2**-10, 0.0))


def test_atsuji_inconclusive_when_every_complement_is_tiny():
    space, _ = convergent_sequence(10)
    everything = DerivedSetView(frozenset(space.ids))
    verdict = atsuji_check(space, everything, [5.0], 1e-3)
    assert verdict.status == "INCONCLUSIVE"
    assert verdict.isolation[5.0].eta == math.inf


def _shortest_paths(space):
    """A metric from a drawn matrix: its pairs' smaller entries plus one,
    closed under shortest paths, so its entries stay small integers and ties
    stay common (few drawn matrices are metrics: none in 2,000 at 7 points)."""
    d = np.minimum(space.dist, space.dist.T) + 1.0
    np.fill_diagonal(d, 0.0)
    for k in range(space.n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return FiniteSpace(space.ids, d)


def _isolation_index(space):
    """Atsuji's isolation index of each point, I(x) = d(x, M - {x}), read from
    both entries of each pair; inf when x is the only point."""
    near = np.minimum(space.dist, space.dist.T)
    np.fill_diagonal(near, math.inf)
    return near.min(axis=1, initial=math.inf)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_atsuji_isolation_agrees_with_the_isolation_index(data):
    # the classical characterization reads I(eps), the least I(x) over the
    # complement {x : dist(x, D) >= eps}.  Each pair there is at least
    # I(eps) apart, and the nearest partner y of a point x is at least
    # eps - I(x) from D by the triangle inequality, so
    # eta(eps - I(eps)) <= I(eps) <= eta(eps)
    metrics = small_matrices(st.integers(2, 7)).map(_shortest_paths)
    space = data.draw(small_spaces(min_size=2) | metrics)
    assert verify_metric_axioms(space).passed
    members = data.draw(st.frozensets(st.sampled_from(space.ids)))
    profile = _IsolationProfile(space, members)
    reach, index = space.reach(members), _isolation_index(space)
    for eps in {*DEFAULT_EPS_GRID, *reach[np.isfinite(reach)].tolist()}:
        if not (far := index[reach >= eps]).size:
            continue
        least = float(far.min())
        assert least <= profile.at(eps).eta
        assert profile.at(eps - least).eta <= least + 1e-9 * max(1.0, eps)


def test_atsuji_rejects_bad_inputs():
    space, oracle = convergent_sequence(5)
    with pytest.raises(ValueError):
        atsuji_check(space, oracle, [], 1e-3)
    with pytest.raises(ValueError):
        atsuji_check(space, oracle, [1.0, -0.5], 1e-3)
    with pytest.raises(ValueError):
        atsuji_check(space, oracle, [1.0], 0.0)
    with pytest.raises(KeyError):
        atsuji_check(space, DerivedSetView(frozenset({"ghost"})), [1.0], 1e-3)


# --- one pair rule: a pair is as close as its smaller entry ------------------

# its pair (a, b) is 1 apart above the diagonal and 0.25 below it
ONE_SIDED = [[0.0, 1.0, 3.0], [0.25, 0.0, 3.0], [3.0, 3.0, 0.0]]


@pytest.mark.parametrize("dist", [ONE_SIDED, np.transpose(ONE_SIDED)], ids=["lower", "upper"])
def test_limit_points_and_nets_read_both_entries_of_a_pair(dist):
    space = FiniteSpace(ids=("a", "b", "c"), dist=dist)
    assert greedy_epsilon_net(space, space.ids, 0.5) == ["a", "c"]
    assert min_pairwise_distance(space, space.ids) == IsolationReport(0.25, ("a", "b"))


def _raised(check, *args):
    """The message that ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except IndiscerniblePointsError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_pair_search_is_the_same_on_the_transposed_matrix(data):
    space = data.draw(small_matrices())
    flipped = FiniteSpace(space.ids, space.dist.T)
    ids = space.ids
    subset = data.draw(st.frozensets(st.sampled_from(ids)))
    values = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=space.n,
                                max_size=space.n))
    f = SampledFunction(dict(zip(ids, values)), label="drawn")
    scale = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.5]))
    tol = data.draw(st.sampled_from([1e-12, 0.5, 1.0, 2.0]))
    for call in [
        lambda s: min_pairwise_distance(s, subset),
        lambda s: uc_witness_search(s, f, 0.5, scale),
        lambda s: modulus_of_continuity(s, f, scale),
        lambda s: greedy_epsilon_net(s, subset, scale),
        lambda s: _raised(_require_discernible, s, tol),
        lambda s: [v for v in verify_metric_axioms(FiniteSpace(s.ids, s.dist, tol)).violations
                   if v.kind in ("symmetry", "identity")],
    ]:
        assert call(space) == call(flipped)

    new = data.draw(small_matrices(st.just(space.n))).dist
    derived = DerivedSetView(subset)
    r = RemetrizedSpace(base=space, derived=derived, newdist=new)
    r_flipped = RemetrizedSpace(base=flipped, derived=derived, newdist=new.T)
    assert verify_same_topology(r) == verify_same_topology(r_flipped)


# --- a zero pair reads +0.0, whichever entry holds -0.0 ---------------------


def _reference_pair(d, i, j):
    """The pair rule in pure Python: the smaller entry, a zero pair as +0.0."""
    return min(float(d[i, j]), float(d[j, i])) + 0.0


def _reference_discernible(space, tol):
    """The message of ``_require_discernible``, from the pair rule."""
    for i in range(space.n):
        for j in range(i + 1, space.n):
            if (distance := _reference_pair(space.dist, i, j)) <= tol:
                return (f"points {space.ids[i]!r} and {space.ids[j]!r} are indiscernible "
                        f"(distance {distance!r} <= tol {tol!r})")
    return None


@st.composite
def signed_zero_matrices(draw):
    """2-8 points, each entry off the diagonal drawn on its own, so a pair at
    distance zero may hold 0.0 and -0.0 in either order; diagonal 0.0 or -0.0."""
    n = draw(st.integers(2, 8))
    zero, entry = st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])
    rows = [[draw(zero if i == j else entry) for j in range(n)] for i in range(n)]
    return FiniteSpace(ids=tuple(f"z{k}" for k in range(n)), dist=rows)


@settings(max_examples=300, deadline=None)
@given(space=signed_zero_matrices())
@example(space=FiniteSpace(("a", "b"), [[0.0, 0.0], [-0.0, 0.0]]))
def test_every_pair_search_reads_a_zero_pair_as_positive_zero(space):
    for s in (space, FiniteSpace(space.ids, space.dist.T)):
        f = SampledFunction({p: float(k % 2) for k, p in enumerate(s.ids)}, label="alternating")
        pairs = [(i, j) for i in range(s.n) for j in range(i + 1, s.n)]
        eta = min(_reference_pair(s.dist, i, j) for i, j in pairs)
        assert repr(min_pairwise_distance(s, s.ids).eta) == repr(eta)
        # every entry is below delta 3, so (0, 1) is the least pair with a gap
        assert repr(uc_witness_search(s, f, 0.5, 3.0).distance) == repr(_reference_pair(s.dist, 0, 1))
        modulus = min(_reference_pair(s.dist, i, j) for i, j in pairs if (i + j) % 2)
        assert repr(modulus_of_continuity(s, f, 0.5)) == repr(modulus)
        assert _raised(_require_discernible, s, 1e-12) == _reference_discernible(s, 1e-12)
