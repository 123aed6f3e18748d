import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atsuji import (
    DEFAULT_EPS_GRID,
    DerivedSetView,
    FiniteSpace,
    IndiscerniblePointsError,
    PointSpec,
    RemetrizedSpace,
    atsuji_check,
    build_space,
    convergent_sequence,
    dyadic_level,
    positive_integers,
    remetrize,
    sequence_grid,
    verify_isolation_bound,
    verify_metric_axioms,
    verify_same_topology,
)
from atsuji.space import _PAIR_BLOCK


def brute_isolation_ok(r, eta):
    """Independent pair scan of the guarantee at scale eta."""
    n = dyadic_level(eta)
    bound = math.ldexp(1.0, n)
    space = r.space
    members = r.derived.members
    outside = []
    for p in space.ids:
        if members and min(space.distance(p, q) for q in members) < eta:
            continue
        outside.append(p)
    for a in range(len(outside)):
        for b in range(a + 1, len(outside)):
            if space.distance(outside[a], outside[b]) < bound - space.tol:
                return False
    return True


# --- dyadic_level ------------------------------------------------------------


@pytest.mark.parametrize("t,m", [(1.0, -1), (3.0, 1), (0.5, -2), (0.1, -4), (4.0, 1)])
def test_dyadic_level_examples(t, m):
    assert dyadic_level(t) == m


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, 5e-324])
def test_dyadic_level_rejects(bad):
    with pytest.raises(ValueError):
        dyadic_level(bad)


@given(st.floats(min_value=1e-300, max_value=1e300))
def test_dyadic_level_interval(t):
    m = dyadic_level(t)
    assert math.ldexp(1.0, m) < t <= math.ldexp(1.0, m + 1)


# --- remetrize ----------------------------------------------------------------


def test_remetrize_three_cases_convergent():
    space, view = convergent_sequence(10)
    r = remetrize(space, view)
    # case 1: x = y
    assert all(r.newdist[k, k] == 0.0 for k in range(space.n))
    # case 2: a derived endpoint keeps the base distance
    assert r.space.distance("zero", "n3") == space.distance("zero", "n3")
    # case 3: d(1/2, 1/3) = max(1/6, 2^dyadic_level(1/2)) = 1/4
    assert r.space.distance("n2", "n3") == 0.25
    assert r.levels["n2"] == -2
    assert r.levels["n3"] == dyadic_level(1 / 3)
    assert "zero" not in r.levels
    assert not r.empty_derived_fallback_used


def test_remetrize_level_coherence():
    # the stored per-point levels reproduce the per-pair dyadic interval
    space, view = convergent_sequence(60)
    r = remetrize(space, view)
    dist_to_derived = {p: space.distance(p, "zero") for p in space.ids}
    for x in space.ids:
        for y in space.ids:
            if x == y or "zero" in (x, y):
                continue
            m = max(r.levels[x], r.levels[y])
            top = max(dist_to_derived[x], dist_to_derived[y])
            assert math.ldexp(1.0, m) < top <= math.ldexp(1.0, m + 1)
            assert r.space.distance(x, y) == max(
                space.distance(x, y), math.ldexp(1.0, m)
            )


def test_remetrize_dominates_base():
    space, view = convergent_sequence(100)
    r = remetrize(space, view)
    assert (r.newdist >= space.dist - space.tol).all()
    zero = space.index("zero")
    assert np.array_equal(r.newdist[zero, :], space.dist[zero, :])


def test_remetrized_space_is_a_metric():
    space, view = convergent_sequence(200)
    assert verify_metric_axioms(remetrize(space, view).space).passed
    space, view = sequence_grid(10, 10, True)
    assert verify_metric_axioms(remetrize(space, view).space).passed


def test_remetrize_rejects_unknown_members():
    space, _ = convergent_sequence(5)
    with pytest.raises(KeyError):
        remetrize(space, DerivedSetView("oracle", frozenset({"ghost"})))


def test_remetrize_rejects_zero_distance_oracle():
    # a degenerate matrix can put an outside point at distance 0 from the
    # declared derived set; the dyadic level would be undefined
    space = FiniteSpace(ids=("a", "b", "c"), dist=[[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    with pytest.raises(ValueError):
        remetrize(space, DerivedSetView("oracle", frozenset({"a"})))


def test_remetrize_empty_derived_fallback():
    space, view = positive_integers(50, "d2")
    r = remetrize(space, view)
    assert r.empty_derived_fallback_used
    assert r.levels == {}
    expected = np.maximum(space.dist, 1.0)
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(r.newdist, expected)
    assert verify_metric_axioms(r.space).passed
    assert verify_same_topology(r).passed
    verdict = atsuji_check(r.space, view)
    assert verdict.status == "PASS"
    assert all(rep.eta == 1.0 for rep in verdict.isolation.values())


# --- verify_same_topology --------------------------------------------------------


def test_same_topology_passes_for_construction():
    space, view = convergent_sequence(200)
    assert verify_same_topology(remetrize(space, view)).passed
    space, view = positive_integers(200, "d2")
    assert verify_same_topology(remetrize(space, view)).passed


def test_same_topology_catches_tampering():
    space, view = convergent_sequence(10)
    r = remetrize(space, view)
    tampered = np.array(r.newdist)
    i, j = space.index("n2"), space.index("n3")
    tampered[i, j] = tampered[j, i] = space.dist[i, j] / 2
    bad = RemetrizedSpace(
        base=space,
        derived=view,
        newdist=tampered,
        levels=r.levels,
        empty_derived_fallback_used=False,
    )
    report = verify_same_topology(bad)
    assert not report.passed
    assert report.witness == ("n2", "n3")
    assert report.failed_check == "domination"


def test_same_topology_catches_changed_derived_pairs():
    space, view = convergent_sequence(10)
    r = remetrize(space, view)
    tampered = np.array(r.newdist)
    i, j = space.index("zero"), space.index("n1")
    tampered[i, j] = tampered[j, i] = space.dist[i, j] + 1.0
    bad = RemetrizedSpace(
        base=space, derived=view, newdist=tampered, levels=r.levels
    )
    report = verify_same_topology(bad)
    assert not report.passed
    assert report.witness == ("zero", "n1")
    assert report.failed_check == "derived_equality"


# --- verify_isolation_bound --------------------------------------------------------


def test_isolation_bound_convergent():
    space, view = convergent_sequence(200)
    r = remetrize(space, view)
    report = verify_isolation_bound(r, 0.1)
    assert report.passed
    assert report.n == -4
    assert brute_isolation_ok(r, 0.1)


def test_isolation_bound_above_diameter_vacuous():
    space, view = convergent_sequence(10)
    r = remetrize(space, view)
    report = verify_isolation_bound(r, 64.0)
    assert report.passed
    assert report.observed_eta == math.inf


def test_isolation_bound_fails_for_unremetrized_d2():
    # feeding the base matrix through the same check exposes the original
    # failure: adjacent integers get arbitrarily close
    space, view = positive_integers(1000, "d2")
    identity = RemetrizedSpace(base=space, derived=view, newdist=space.dist, levels={})
    report = verify_isolation_bound(identity, 0.1)
    assert not report.passed
    assert report.witness == ("n999", "n1000")
    assert not brute_isolation_ok(identity, 0.1)


def test_isolation_bound_fallback_claims_unit_floor():
    # max(delta, 1) keeps distinct points exactly 1 apart here, so scales with
    # 2^n > 1 are held to the floor 1 that the construction guarantees
    space, view = positive_integers(10, "d1")
    r = remetrize(space, view)
    assert r.empty_derived_fallback_used
    assert verify_metric_axioms(r.space).passed
    assert verify_same_topology(r).passed
    for eta in (0.5, 1.0, 3.0, 4.0, 8.0):
        report = verify_isolation_bound(r, eta)
        assert report.passed
        assert report.observed_eta == 1.0
        assert report.witness is None


def test_isolation_bound_rejects_bad_eta():
    space, view = convergent_sequence(10)
    r = remetrize(space, view)
    with pytest.raises(ValueError):
        verify_isolation_bound(r, 0.0)


def test_remetrized_convergent_passes_atsuji():
    space, view = convergent_sequence(300)
    r = remetrize(space, view)
    assert atsuji_check(r.space, view).status == "PASS"


# --- the guarantees on arbitrary metrics with arbitrary derived sets ---------


def assert_remetrization_guarantees(space, members):
    r = remetrize(space, DerivedSetView("oracle", frozenset(members)))
    assert verify_metric_axioms(r.space).passed
    assert verify_same_topology(r).passed
    for eta in DEFAULT_EPS_GRID:
        assert verify_isolation_bound(r, eta).passed, eta


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    dim=st.integers(1, 3),
    exponent=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_remetrized_l2_cloud_keeps_every_guarantee(n, dim, exponent, seed, data):
    coords = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, dim)) * 10.0**exponent
    specs = [PointSpec(f"q{k}", {s + 1: float(c) for s, c in enumerate(row)})
             for k, row in enumerate(coords)]
    try:
        space = build_space(specs)
    except IndiscerniblePointsError:
        assume(False)
    members = data.draw(st.sets(st.sampled_from(space.ids), min_size=1))
    assert_remetrization_guarantees(space, members)


def shortest_path_metric(weights):
    """Min-plus closure of an edge-weight matrix (inf for no edge), iterated
    until it no longer changes, so d[i, k] <= d[i, j] + d[j, k] holds for the
    rounded sums themselves."""
    d = weights
    while True:
        closed = np.minimum(d, (d[:, :, None] + d[None, :, :]).min(axis=1))
        if np.array_equal(closed, d):
            return d
        d = closed


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    extra_edges=st.integers(0, 60),
    exponent=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_remetrized_shortest_path_metric_keeps_every_guarantee(n, extra_edges, exponent,
                                                               seed, data):
    rng = np.random.default_rng(seed)
    # a random spanning tree keeps the graph connected; extra edges add cycles
    edges = [(k, int(rng.integers(0, k))) for k in range(1, n)]
    edges += [tuple(int(v) for v in rng.integers(0, n, 2)) for _ in range(extra_edges)]
    weights = np.full((n, n), math.inf)
    np.fill_diagonal(weights, 0.0)
    for a, b in edges:
        if a != b:
            weights[a, b] = weights[b, a] = rng.uniform(0.01, 1.0) * 10.0**exponent
    space = FiniteSpace(ids=tuple(f"v{k}" for k in range(n)), dist=shortest_path_metric(weights))
    assert verify_metric_axioms(space).passed
    members = data.draw(st.sets(st.sampled_from(space.ids), min_size=1))
    assert_remetrization_guarantees(space, members)


# --- one construction: the empty-D fallback is every point at level 0 ---------


def remetrize_by_branches(space, members):
    """The construction written as two branches: max(delta, 1) off the
    diagonal when D is empty, otherwise a per-pair dyadic level matrix."""
    member_mask = space.mask(members)
    if not member_mask.any():
        expected = np.maximum(space.dist, 1.0)
        np.fill_diagonal(expected, 0.0)
        return expected
    dist_to_derived = space.reach(members)
    levels = np.zeros(space.n, dtype=np.int32)
    for k in np.flatnonzero(~member_mask):
        levels[k] = dyadic_level(dist_to_derived[k])
    pair_level = np.maximum(levels[:, None], levels[None, :])
    expected = np.maximum(space.dist, np.ldexp(1.0, pair_level))
    expected[member_mask, :] = space.dist[member_mask, :]
    expected[:, member_mask] = space.dist[:, member_mask]
    np.fill_diagonal(expected, 0.0)
    return expected


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 30),
    metric=st.sampled_from(["l2", "l2_grid", "shortest_path"]),
    exponent=st.integers(-3, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_one_construction_matches_the_two_branch_construction(n, metric, exponent, seed,
                                                              data):
    rng = np.random.default_rng(seed)
    if metric == "shortest_path":
        weights = np.full((n, n), math.inf)
        np.fill_diagonal(weights, 0.0)
        for k in range(1, n):
            j = int(rng.integers(0, k))
            weights[k, j] = weights[j, k] = rng.uniform(0.01, 1.0) * 2.0**exponent
        space = FiniteSpace(ids=tuple(f"v{k}" for k in range(n)),
                            dist=shortest_path_metric(weights))
    else:
        # grid coordinates put distances (and distances to D) on exact powers of two
        coords = (rng.integers(-4, 5, (n, 2)) if metric == "l2_grid"
                  else rng.uniform(-1.0, 1.0, (n, 2))) * 2.0**exponent
        try:
            space = build_space(PointSpec(f"q{k}", {1: float(x), 2: float(y)})
                                for k, (x, y) in enumerate(coords))
        except IndiscerniblePointsError:
            assume(False)
    members = data.draw(st.sets(st.sampled_from(space.ids), max_size=3))
    r = remetrize(space, DerivedSetView("oracle", frozenset(members)))
    expected = remetrize_by_branches(space, members)
    assert [v.hex() for v in r.newdist.ravel().tolist()] == [
        v.hex() for v in expected.ravel().tolist()
    ]
    assert r.empty_derived_fallback_used == (not members)
    assert list(r.levels) == [p for p in space.ids if members and p not in members]


def test_isolation_check_names_a_pair_at_base_distance_zero():
    # b and c sit outside D = {a} at base distance 0: the base metric does not
    # keep them isolated even though the remetrized one puts them 1/2 apart
    space = FiniteSpace(ids=("a", "b", "c"), dist=[[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    r = remetrize(space, DerivedSetView("oracle", frozenset({"a"})))
    assert r.space.distance("b", "c") == 0.5
    report = verify_same_topology(r)
    assert not report.passed
    assert report.failed_check == "isolation"
    assert report.witness == ("b", "c")



def test_isolation_check_names_the_least_offending_pair():
    # b fails isolation twice (c at 0, d at -1): the witness is the least pair
    # (b, c), not b's nearest point d
    space = FiniteSpace(ids=("a", "b", "c", "d"),
                        dist=[[0, 1, 1, 1], [1, 0, 0, -1], [1, 0, 0, 1], [1, -1, 1, 0]])
    report = verify_same_topology(remetrize(space, DerivedSetView("oracle", frozenset({"a"}))))
    assert (report.passed, report.failed_check, report.witness) == (False, "isolation", ("b", "c"))


def reference_topology(base: FiniteSpace, member: np.ndarray, d_new: np.ndarray):
    """(failed_check, witness) of the three checks on full n x n masks, with
    the isolation check a pair loop; (None, None) on a pass."""
    d_old, tol, n = base.dist, base.tol, base.n

    def least(mask):
        hits = np.argwhere(np.triu(mask, k=1))
        return tuple(base.ids[k] for k in hits[0]) if hits.size else None

    below = least(d_new < d_old - tol)
    if below:
        return "domination", below
    changed = least((member[:, None] | member[None, :]) & (np.abs(d_new - d_old) > tol))
    if changed:
        return "derived_equality", changed
    for i in range(n):
        for j in range(i + 1, n):
            for k, other in ((i, j), (j, i)):
                if not member[k] and (d_old[k, other] <= 0 or d_new[k, other] <= 0):
                    return "isolation", (base.ids[i], base.ids[j])
    return None, None


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 5, 8, _PAIR_BLOCK + 12]),
    nonpositive=st.sampled_from([0.0, 1e-3, 1e-2, 0.2]),
    tampered=st.integers(0, 3),
    quiet=st.sampled_from([0, _PAIR_BLOCK]),
    seed=st.integers(0, 2**32 - 1),
)
def test_same_topology_matches_the_full_mask_reference(n, nonpositive, tampered, quiet, seed):
    # an asymmetric matrix with zeros and negatives, a random D, and a new
    # matrix that keeps the guarantees except at a few tampered entries; no
    # fault touches the first `quiet` points, so a witness can lie in a later
    # block of rows
    quiet = quiet if n > quiet + 1 else 0
    rng = np.random.default_rng(seed)
    d_old = rng.choice([0.5, 1.0, 2.0], size=(n, n))
    low = rng.random((n, n)) < nonpositive
    low[:quiet] = low[:, :quiet] = False
    d_old[low] = rng.choice([0.0, -1.0], size=low.sum())
    member = rng.random(n) < 0.3
    d_new = np.where(member[:, None] | member, d_old, np.maximum(d_old, rng.choice([0.0, 1.0])))
    for _ in range(tampered):
        d_new[rng.integers(quiet, n), rng.integers(quiet, n)] = rng.choice([-1.0, 0.0, 0.25, 3.0])
    base = FiniteSpace(ids=tuple(f"q{k}" for k in range(n)), dist=d_old)
    derived = DerivedSetView("oracle", frozenset(np.array(base.ids)[member].tolist()))
    r = RemetrizedSpace(base=base, derived=derived, newdist=d_new, levels={})
    report = verify_same_topology(r)
    assert (report.failed_check, report.witness) == reference_topology(base, member, d_new)
    assert report.passed == (report.failed_check is None)

@pytest.mark.parametrize(
    "newdist",
    [np.zeros((2, 2)), np.array([[0.0, 1.0, 1.0], [1.0, 0.0, math.inf], [1.0, math.inf, 0.0]])],
    ids=["wrong-shape", "non-finite"],
)
def test_remetrized_space_rejects_a_matrix_that_is_not_a_finite_space(newdist):
    space, view = convergent_sequence(2)
    with pytest.raises(ValueError):
        RemetrizedSpace(base=space, derived=view, newdist=newdist, levels={})


def test_remetrize_holds_one_n_squared_buffer():
    # the fresh newdist becomes the space's matrix without a copy
    space, view = convergent_sequence(1000)
    n = space.n
    tracemalloc.start()
    try:
        r = remetrize(space, view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.space.dist is r.newdist and not r.newdist.flags.writeable
    assert peak < 1.2 * 8 * n * n


def test_remetrized_space_copies_a_writable_matrix():
    space, view = convergent_sequence(3)
    newdist = np.array(space.dist)
    r = RemetrizedSpace(base=space, derived=view, newdist=newdist, levels={})
    assert r.newdist is not newdist and not r.newdist.flags.writeable
    newdist[0, 1] = 5.0
    assert r.space.dist[0, 1] == space.dist[0, 1]
