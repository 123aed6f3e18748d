import math

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
