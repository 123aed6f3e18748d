import json
import math
import subprocess
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atsuji import (
    AxiomReport,
    DuplicatePointError,
    FiniteSpace,
    IndiscerniblePointsError,
    PointSpec,
    build_space,
    convergent_sequence,
    neighborhood,
    sequence_grid,
    set_distance,
    triple_max_triangle,
    uniform_interior_radius,
    verify_metric_axioms,
)
from atsuji import space as space_module
from atsuji.space import (
    _MID_BLOCK,
    _PAIR_BLOCK,
    _ROW_BLOCK,
    _least_pair,
    _require_discernible,
)


def brute_axiom_violations(dist, tol):
    """Independent pure-python scan of all pairs and ordered triples."""
    n = len(dist)
    kinds = set()
    for i in range(n):
        if abs(dist[i][i]) > tol:
            kinds.add("identity")
        for j in range(n):
            if dist[i][j] < -tol:
                kinds.add("nonneg")
            if abs(dist[i][j] - dist[j][i]) > tol:
                kinds.add("symmetry")
            if i != j and dist[i][j] <= tol:
                kinds.add("identity")
            for k in range(n):
                if dist[i][k] - dist[i][j] - dist[j][k] > tol:
                    kinds.add("triangle")
    return kinds


@st.composite
def small_spaces(draw, min_size=1, max_size=8):
    pts = draw(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
    )
    specs = [PointSpec(f"q{k}", {1: a / 4, 2: b / 4}) for k, (a, b) in enumerate(pts)]
    return build_space(specs)


# --- build_space -----------------------------------------------------------


def test_build_space_unit_vectors_sqrt2():
    space = build_space([PointSpec("p11", {1: 1.0}), PointSpec("p21", {2: 1.0})])
    assert abs(space.distance("p11", "p21") - math.sqrt(2)) <= 1e-12


def test_build_space_single_point():
    space = build_space([PointSpec("a", {})])
    assert space.n == 1
    assert space.dist.shape == (1, 1)
    assert space.dist[0, 0] == 0.0


def test_build_space_one_dimensional():
    space = build_space([PointSpec("p11", {1: 1.0}), PointSpec("p12", {1: 0.5})])
    assert space.distance("p11", "p12") == 0.5


coordinates = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(-10, 10, allow_nan=False),
    st.integers(-6, 6),
)


@settings(max_examples=60)
@given(
    st.lists(
        st.dictionaries(st.integers(1, 12), coordinates, max_size=12),
        min_size=2,
        max_size=12,
    )
)
def test_build_space_matches_cdist_bitwise(points):
    specs = [PointSpec(f"q{k}", coords) for k, coords in enumerate(points)]
    try:
        space = build_space(specs)
    except IndiscerniblePointsError:
        assume(False)
    slots = sorted({slot for spec in specs for slot, _ in spec.support()})
    coords = [[spec.coords.get(slot, 0.0) for slot in slots] for spec in specs]
    # the definition, as cdist computes it: squared differences added in slot
    # order in a plain loop (sum() compensates float sums from Python 3.12 on)
    want = np.zeros((len(specs), len(specs)))
    for i, x in enumerate(coords):
        for j, y in enumerate(coords):
            if i != j:
                total = 0.0
                for a, b in zip(x, y):
                    diff = a - b
                    total += diff * diff
                want[i, j] = math.sqrt(total)
    assert space.dist.tobytes() == want.tobytes()


def test_import_does_not_load_scipy():
    # nor OpenSSL's hashes: the CLI imports hashlib only to digest a payload
    code = "import sys, atsuji.cli; print('scipy' in sys.modules, '_hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False False"


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_space_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    # with tol=nan every comparison is false, so a broken triangle passed the scan
    dist = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    with pytest.raises(ValueError, match=f"tol must be a finite number >= 0, got {tol!r}"):
        FiniteSpace(ids=("a", "b", "c"), dist=dist, tol=tol)
    with pytest.raises(ValueError, match="tol must be"):
        FiniteSpace._adopt(("a", "b", "c"), np.array(dist), tol)
    exact = FiniteSpace(ids=("a", "b", "c"), dist=dist, tol=0.0)
    assert exact.tol == 0.0
    assert [v.kind for v in verify_metric_axioms(exact).violations] == ["triangle", "triangle"]


def test_build_space_duplicate_id():
    with pytest.raises(DuplicatePointError):
        build_space([PointSpec("a", {1: 1.0}), PointSpec("a", {1: 2.0})])


def test_build_space_identical_coords():
    with pytest.raises(IndiscerniblePointsError):
        build_space([PointSpec("a", {1: 1.0}), PointSpec("b", {1: 1.0})])


def test_build_space_explicit_zero_equals_absent():
    # {1: 0.0} and {} are the same point
    with pytest.raises(IndiscerniblePointsError):
        build_space([PointSpec("a", {1: 0.0}), PointSpec("b", {})])


def test_build_space_rejects_bad_slots():
    with pytest.raises(ValueError):
        build_space([PointSpec("a", {0: 1.0})])
    with pytest.raises(ValueError):
        build_space([PointSpec("a", {1: math.nan})])


def test_finite_space_structural_checks():
    with pytest.raises(ValueError):
        FiniteSpace(ids=("a", "b"), dist=np.zeros((3, 3)))
    with pytest.raises(DuplicatePointError):
        FiniteSpace(ids=("a", "a"), dist=np.zeros((2, 2)))
    space = build_space([PointSpec("a", {}), PointSpec("b", {1: 1.0})])
    with pytest.raises(ValueError):
        space.dist[0, 1] = 5.0  # read-only
    with pytest.raises(KeyError):
        space.index("missing")


# --- verify_metric_axioms --------------------------------------------------


def test_axioms_two_point_matrix_passes():
    space = FiniteSpace(ids=("a", "b"), dist=[[0, 1], [1, 0]])
    report = verify_metric_axioms(space)
    assert report.passed
    assert report.violations == []


def test_axioms_triangle_violation():
    space = FiniteSpace(ids=("a", "b", "c"), dist=[[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    report = verify_metric_axioms(space)
    assert not report.passed
    triangle = [v for v in report.violations if v.kind == "triangle"]
    assert triangle
    assert triangle[0].where == (0, 1, 2)
    assert triangle[0].magnitude == pytest.approx(1.0, abs=1e-12)


def test_axioms_symmetry_and_nonneg_and_identity():
    space = FiniteSpace(ids=("a", "b"), dist=[[0, 1], [2, 0]])
    kinds = {v.kind for v in verify_metric_axioms(space).violations}
    assert "symmetry" in kinds

    space = FiniteSpace(ids=("a", "b"), dist=[[0, -1], [-1, 0]])
    kinds = {v.kind for v in verify_metric_axioms(space).violations}
    assert "nonneg" in kinds

    space = FiniteSpace(ids=("a", "b"), dist=[[0.5, 1], [1, 0]])
    kinds = {v.kind for v in verify_metric_axioms(space).violations}
    assert "identity" in kinds

    # duplicate points: zero off-diagonal
    space = FiniteSpace(ids=("a", "b"), dist=[[0, 0], [0, 0]])
    kinds = {v.kind for v in verify_metric_axioms(space).violations}
    assert "identity" in kinds


def test_axioms_grid_matches_brute_force():
    space, _ = sequence_grid(4, 4, True)
    report = verify_metric_axioms(space)
    assert report.passed
    assert brute_axiom_violations(space.dist.tolist(), space.tol) == set()


def test_axioms_brute_force_agrees_on_invalid_matrix():
    dist = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
    space = FiniteSpace(ids=("a", "b", "c"), dist=dist)
    got = {v.kind for v in verify_metric_axioms(space).violations}
    assert got == brute_axiom_violations(dist, space.tol)


# --- triple_max_triangle -----------------------------------------------------


@pytest.mark.parametrize(
    "t1,t2,expected",
    [
        ((1, 1, 1), (2, 2, 2), (2, 2, 2)),
        ((3, 2, 2), (1, 4, 3), (3, 4, 3)),
        ((5, 3, 2), (2, 2, 4), (5, 3, 4)),
    ],
)
def test_triple_max_examples(t1, t2, expected):
    result = triple_max_triangle(t1, t2)
    assert result.triple == expected
    assert result.satisfies


def test_triple_max_negative_input():
    with pytest.raises(ValueError):
        triple_max_triangle((1, -1, 1), (1, 1, 1))


def test_triple_max_rejects_a_non_triple():
    with pytest.raises(ValueError, match="expected two triples"):
        triple_max_triangle((1, 1), (1, 1, 1))


triangle_triples = st.tuples(
    st.floats(min_value=0.001, max_value=10, allow_nan=False),
    st.floats(min_value=0.001, max_value=10, allow_nan=False),
    st.floats(min_value=0.001, max_value=10, allow_nan=False),
).filter(lambda t: t[0] <= t[1] + t[2] and t[1] <= t[0] + t[2] and t[2] <= t[0] + t[1])


@given(t1=triangle_triples, t2=triangle_triples)
def test_triple_max_closure(t1, t2):
    assert triple_max_triangle(t1, t2).satisfies


# --- set_distance ------------------------------------------------------------


def test_set_distance_member_is_zero():
    space, _ = sequence_grid(3, 3, True)
    assert set_distance(space, "zero", {"zero"}) == 0.0


def test_set_distance_grid_norms():
    space, _ = sequence_grid(1, 5, True)
    for j in range(1, 6):
        assert set_distance(space, f"p_1_{j}", {"zero"}) == pytest.approx(1 / j, abs=1e-15)


def test_set_distance_min_of_two():
    space, _ = convergent_sequence(10)
    # from 1/2 to {0, 1/5}: min(1/2, 3/10) = 3/10
    assert set_distance(space, "n2", {"zero", "n5"}) == pytest.approx(0.3, abs=1e-15)


def test_set_distance_empty_set_is_inf():
    space, _ = convergent_sequence(5)
    assert set_distance(space, "n1", set()) == math.inf


def test_set_distance_unknown_point():
    space, _ = convergent_sequence(5)
    with pytest.raises(KeyError):
        set_distance(space, "nope", {"zero"})


@settings(max_examples=50)
@given(data=st.data())
def test_set_distance_reverse_triangle(data):
    space = data.draw(small_spaces(min_size=2))
    A = data.draw(st.sets(st.sampled_from(space.ids), min_size=1))
    for x in space.ids:
        for y in space.ids:
            dx = set_distance(space, x, A)
            dy = set_distance(space, y, A)
            assert abs(dx - dy) <= space.distance(x, y) + space.tol


# --- neighborhood --------------------------------------------------------------


def test_neighborhood_empty_set():
    space, _ = convergent_sequence(5)
    assert neighborhood(space, set(), 1.0) == set()


def test_neighborhood_whole_space():
    space, _ = convergent_sequence(5)
    assert neighborhood(space, set(space.ids), 0.001) == set(space.ids)


def test_neighborhood_grid_frozen():
    space, _ = sequence_grid(3, 3, True)
    got = neighborhood(space, {"zero"}, 0.5)
    assert got == {"zero", "p_1_3", "p_2_3", "p_3_3"}


def test_neighborhood_rejects_bad_eps():
    space, _ = convergent_sequence(5)
    with pytest.raises(ValueError):
        neighborhood(space, {"zero"}, 0.0)
    with pytest.raises(ValueError):
        neighborhood(space, {"zero"}, -1.0)


@settings(max_examples=50)
@given(data=st.data())
def test_neighborhood_monotone(data):
    space = data.draw(small_spaces(min_size=2))
    A1 = data.draw(st.sets(st.sampled_from(space.ids)))
    A2 = A1 | data.draw(st.sets(st.sampled_from(space.ids)))
    eps1 = data.draw(st.floats(min_value=0.01, max_value=5))
    eps2 = data.draw(st.floats(min_value=0.01, max_value=5))
    if eps1 > eps2:
        eps1, eps2 = eps2, eps1
    assert neighborhood(space, A1, eps1) <= neighborhood(space, A1, eps2)
    assert neighborhood(space, A1, eps1) <= neighborhood(space, A2, eps1)


# --- uniform_interior_radius -----------------------------------------------------


def test_uniform_interior_radius_convergent():
    space, _ = convergent_sequence(10)
    U = neighborhood(space, {"zero"}, 0.5)
    assert uniform_interior_radius(space, {"zero"}, U) == 0.5


def test_uniform_interior_radius_whole_space():
    space, _ = convergent_sequence(10)
    assert uniform_interior_radius(space, set(space.ids), set(space.ids)) == math.inf


def test_uniform_interior_radius_preconditions():
    space, _ = convergent_sequence(10)
    with pytest.raises(ValueError):
        uniform_interior_radius(space, set(), set(space.ids))
    with pytest.raises(ValueError):
        uniform_interior_radius(space, {"n1"}, {"n2", "n3"})


@settings(max_examples=50)
@given(data=st.data())
def test_uniform_interior_radius_cross_check(data):
    space = data.draw(small_spaces(min_size=2))
    U = data.draw(st.sets(st.sampled_from(space.ids), min_size=1))
    K = data.draw(st.sets(st.sampled_from(sorted(U)), min_size=1))
    r = uniform_interior_radius(space, K, U)

    brute = math.inf
    complement = [p for p in space.ids if p not in U]
    for z in K:
        for w in complement:
            brute = min(brute, space.distance(z, w))
    assert r == brute

    if math.isfinite(r):
        for z in K:
            assert neighborhood(space, {z}, r) <= U
        # maximal: some z in K has a complement point at exactly distance r
        assert any(space.distance(z, w) == r for z in K for w in complement)


def test_uniform_interior_radius_holds_no_copy_of_the_matrix():
    # K = U = the first half of the points: a gather of K's rows at the
    # columns outside U would copy a quarter of the matrix
    space, _ = convergent_sequence(2000)
    n = space.n
    half = space.ids[: n // 2]
    tracemalloc.start()
    try:
        r = uniform_interior_radius(space, half, half)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == space.dist[: n // 2, n // 2 :].min()
    assert peak < 0.05 * 8 * n * n


# --- the tiled triangle scan against the per-middle-point scan -------------


def per_j_axiom_violations(d, tol):
    """The axiom scan as it was before row tiles, kept as the reference: the
    triangle inequality is tested one middle point j at a time over an
    n-by-n excess buffer.  Returns (kind, where, magnitude.hex()) tuples."""
    found = []
    for i, j in np.argwhere(d < -tol):
        found.append(("nonneg", (int(i), int(j)), float(-d[i, j])))
    gap = np.abs(d - d.T)
    for i, j in np.argwhere(np.triu(gap > tol, k=1)):
        found.append(("symmetry", (int(i), int(j)), float(gap[i, j])))
    diag = np.abs(np.diagonal(d))
    for (i,) in np.argwhere(diag > tol):
        found.append(("identity", (int(i), int(i)), float(diag[i])))
    closest = np.minimum(d, d.T)  # a pair is as close as its smaller entry
    for i, j in np.argwhere(np.triu(closest <= tol, k=1)):
        found.append(("identity", (int(i), int(j)), float(tol - closest[i, j])))

    excess = np.empty_like(d)
    triangle = []
    for j in range(len(d)):
        np.add(d[:, j][:, None], d[j, :][None, :], out=excess)
        np.subtract(d, excess, out=excess)
        if excess.max() <= tol:
            continue
        for i, k in np.argwhere(excess > tol):
            triangle.append(("triangle", (int(i), j, int(k)), float(excess[i, k])))
    triangle.sort(key=lambda v: v[1])
    return [(kind, where, m.hex()) for kind, where, m in found + triangle]


# up to a few row blocks and middle-point blocks, most with a remainder; the
# line metric also crosses the chunks in which a violating row is listed
_LIST_CHUNK = _ROW_BLOCK * _MID_BLOCK
few_blocks = st.integers(1, 3 * _MID_BLOCK + 3)
past_chunks = st.sampled_from([_LIST_CHUNK - 1, _LIST_CHUNK, _LIST_CHUNK + 1, 2 * _LIST_CHUNK + 3])


@st.composite
def scan_cases(draw):
    kind = draw(st.sampled_from(["line", "symmetric", "asymmetric", "huge"]))
    n = draw(few_blocks | past_chunks if kind == "line" else few_blocks)
    tol = draw(st.sampled_from([1e-12, 0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "line":
        # distinct integers on a line: a triangle through a point between i
        # and k is tight, so a planted entry's excess is exactly what it adds
        x = rng.permutation(4 * n)[:n].astype(float)
        d = np.abs(x[:, None] - x[None, :])
    elif kind == "symmetric":
        d = rng.uniform(0.0, 1.0, (n, n))
        d = d + d.T
        np.fill_diagonal(d, 0.0)
    elif kind == "asymmetric":
        d = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(d, 0.0)
    else:  # sums overflow to +-inf
        d = rng.choice([0.0, 1.0, -1.0, 1e308, -1e308, 1.7e308], (n, n))
    for _ in range(draw(st.integers(0, 4))):
        i, k = (int(v) for v in rng.integers(0, n, 2))
        how = draw(st.sampled_from(["at tol", "1 ulp above", "far above"]))
        raised = {
            "at tol": d[i, k] + tol,
            "1 ulp above": np.nextafter(d[i, k] + tol, math.inf),
            "far above": d[i, k] + 1.0,
        }[how]
        d[i, k] = raised
        if draw(st.booleans()):
            d[k, i] = raised
    return d, tol


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=120, deadline=None)
@given(scan_cases(), st.sampled_from([3, 5, _PAIR_BLOCK]))
def test_tiled_scan_lists_exactly_the_per_j_violations(case, pair_block):
    # small pair blocks make the nonneg, symmetry and identity listings
    # cross row blocks on every matrix of more than a few points
    d, tol = case
    space = FiniteSpace(ids=tuple(f"p{k}" for k in range(len(d))), dist=d, tol=tol)
    with mock.patch.object(space_module, "_PAIR_BLOCK", pair_block):
        report = verify_metric_axioms(space)
    got = [(v.kind, v.where, float(v.magnitude).hex()) for v in report.violations]
    assert got == per_j_axiom_violations(space.dist, tol)
    assert report.passed == (not got)
    assert_magnitudes_at_least_zero(report)


def assert_magnitudes_at_least_zero(report):
    """Off-diagonal identity lists tol minus a distance at most tol, and every
    other kind lists more than tol: no magnitude is NaN or -inf, even where
    sums overflow, so the report writer has none to reject."""
    assert all(v.magnitude >= 0 for v in report.violations)


def test_planted_triangle_at_tol_passes_and_one_ulp_above_fails():
    x = np.arange(3 * _ROW_BLOCK + 1, dtype=float)
    d = np.abs(x[:, None] - x[None, :])
    ids = tuple(f"p{m}" for m in range(len(x)))
    i, k = 1, len(x) - 2

    d[i, k] = d[k, i] = d[i, k] + 0.25
    assert verify_metric_axioms(FiniteSpace(ids=ids, dist=d, tol=0.25)).passed

    d[i, k] = d[k, i] = np.nextafter(d[i, k], math.inf)
    report = verify_metric_axioms(FiniteSpace(ids=ids, dist=d, tol=0.25))
    assert [v.where for v in report.violations] == [
        *((i, j, k) for j in range(i + 1, k)),
        *((k, j, i) for j in range(i + 1, k)),
    ]
    assert all(v.kind == "triangle" and v.magnitude > 0.25 for v in report.violations)


def test_every_middle_point_can_be_a_rows_only_witness():
    # on a line, raising d[j - 1, j + 1] (not its mirror) gives row j - 1 a
    # lone witness j, at a different offset of the tiles for every row
    n = 3 * _MID_BLOCK + 3
    x = np.arange(n, dtype=float)
    d = np.abs(x[:, None] - x[None, :])
    for j in range(1, n - 1):
        d[j - 1, j + 1] = 2.5
    space = FiniteSpace(ids=tuple(f"p{m}" for m in range(n)), dist=d)
    report = verify_metric_axioms(space)
    assert [v.where for v in report.violations if v.kind == "triangle"] == [
        (j - 1, j, j + 1) for j in range(1, n - 1)
    ]
    got = [(v.kind, v.where, float(v.magnitude).hex()) for v in report.violations]
    assert got == per_j_axiom_violations(space.dist, space.tol)


# --- the half scan of exactly symmetric matrices ------------------------------


@st.composite
def symmetric_scan_cases(draw):
    """An exactly symmetric matrix over a few row blocks, most with a
    remainder, with mirrored +0.0/-0.0 entries and mirrored plants at tol,
    1 ulp above it or far above it; one plant joins a row of the first block
    to a row at least two blocks later, so that the later row (i > k) sees
    its violations only through the first block's column flags.  Also
    returns an off-diagonal pair at which to break the symmetry."""
    n = draw(st.integers(2 * _ROW_BLOCK + 1, 6 * _ROW_BLOCK + 3))
    tol = draw(st.sampled_from([1e-12, 0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["l2", "line", "huge"]))
    if kind == "l2":
        pts = rng.uniform(0.0, 1.0, (n, 3))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    elif kind == "line":
        x = rng.permutation(4 * n)[:n].astype(float)
        d = np.abs(x[:, None] - x[None, :])
    else:  # sums overflow to +-inf
        d = rng.choice([0.0, 1.0, -1.0, 1e308, -1e308, 1.7e308], (n, n))
    d = np.triu(d, k=1)
    d = d + d.T  # adding the zero lower triangle changes no entry's value
    pairs = [tuple(int(v) for v in rng.choice(n, 2, replace=False)) for _ in range(5)]
    for i, k in pairs[: draw(st.integers(0, 2))]:
        d[i, k], d[k, i] = 0.0, -0.0
    plants = pairs[2 : 2 + draw(st.integers(0, 3))]
    if draw(st.booleans()):
        plants.append((int(rng.integers(2 * _ROW_BLOCK, n)), int(rng.integers(0, _ROW_BLOCK))))
    for i, k in plants:
        how = draw(st.sampled_from(["at tol", "1 ulp above", "far above"]))
        d[i, k] = d[k, i] = {
            "at tol": d[i, k] + tol,
            "1 ulp above": np.nextafter(d[i, k] + tol, math.inf),
            "far above": d[i, k] + 1.0,
        }[how]
    return d, tol, pairs[-1]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(symmetric_scan_cases(), st.booleans())
def test_half_and_full_scans_list_exactly_the_per_j_violations(case, one_ulp_asymmetry):
    d, tol, (a, b) = case
    if one_ulp_asymmetry:
        d[a, b] = np.nextafter(d[a, b], math.inf)
    space = FiniteSpace(ids=tuple(f"p{k}" for k in range(len(d))), dist=d, tol=tol)
    with mock.patch.object(
        space_module, "_triangle_block", wraps=space_module._triangle_block
    ) as block:
        report = verify_metric_axioms(space)
    symmetric = {call.args[3] for call in block.call_args_list}
    assert symmetric == {not one_ulp_asymmetry}  # the half scan, or the full one
    got = [(v.kind, v.where, float(v.magnitude).hex()) for v in report.violations]
    assert got == per_j_axiom_violations(space.dist, tol)
    assert report.passed == (not got)
    assert_magnitudes_at_least_zero(report)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    scan_cases() | symmetric_scan_cases().map(lambda case: case[:2]),
    st.integers(1, 3) | st.integers(4, 80),
    st.sampled_from([3, 5, _PAIR_BLOCK]),
)
def test_a_limited_listing_is_the_full_listing_cut_at_the_limit(case, limit, pair_block):
    d, tol = case
    space = FiniteSpace(ids=tuple(f"p{k}" for k in range(len(d))), dist=d, tol=tol)
    with mock.patch.object(space_module, "_PAIR_BLOCK", pair_block):
        full = verify_metric_axioms(space)
        cut = verify_metric_axioms(space, limit=limit)
    listed = [(v.kind, v.where, float(v.magnitude).hex()) for v in cut.violations]
    assert listed == [(v.kind, v.where, float(v.magnitude).hex()) for v in full.violations][:limit]
    assert cut.passed == full.passed


@pytest.mark.parametrize("limit", [0, -1])
def test_a_limit_below_one_is_rejected(limit):
    space = FiniteSpace(ids=("a", "b"), dist=np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="limit must be a positive integer"):
        verify_metric_axioms(space, limit=limit)


def test_scan_holds_no_n_squared_buffer():
    # inline (scan_counting_blocks runs on one CPU), so one buffer set of the
    # triangle scan is alive; a single n^2 temporary, such as |d - d.T|,
    # would add 8n^2 bytes on its own
    n = 1001
    pts = np.random.default_rng(0).uniform(0.0, 1.0, (n, 3))
    built = build_space(
        PointSpec(f"p{k}", {1: float(a), 2: float(b), 3: float(c)})
        for k, (a, b, c) in enumerate(pts)
    )
    # the constructor's copy has no excess bound, so the scan runs its tiles
    space = FiniteSpace(built.ids, built.dist)
    tracemalloc.start()
    try:
        report, decided = scan_counting_blocks(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert decided == math.ceil(n / _ROW_BLOCK)
    assert peak < 0.25 * 8 * n * n


# --- the ordered violation stream --------------------------------------------


def scan_counting_blocks(space, limit=None, cpus=1):
    """The report of ``verify_metric_axioms(space, limit)`` on ``cpus`` usable
    CPUs, and how many row blocks the triangle scan decided."""
    with mock.patch.object(space_module, "_usable_cpus", lambda: cpus), mock.patch.object(
        space_module, "_triangle_block", wraps=space_module._triangle_block
    ) as block:
        report = verify_metric_axioms(space, limit=limit)
    return report, block.call_count


def line_space(n, plants=(), negative=None):
    """Points 0..n-1 on a line, each planted pair (i, k) raised by 1.0 on both
    sides, and one entry made negative."""
    x = np.arange(n, dtype=float)
    d = np.abs(x[:, None] - x[None, :])
    for i, k in plants:
        d[i, k] = d[k, i] = d[i, k] + 1.0
    if negative is not None:
        d[negative] = -1.0
    return FiniteSpace(ids=tuple(f"p{m}" for m in range(n)), dist=d)


def test_a_limit_of_one_decides_only_the_block_of_its_violation():
    n = 6 * _ROW_BLOCK + 3
    blocks = math.ceil(n / _ROW_BLOCK)
    early = line_space(n, plants=[(0, n - 2)])
    report, decided = scan_counting_blocks(early, limit=1)
    assert decided == 1
    assert [v.where for v in report.violations] == [(0, 1, n - 2)]
    full, decided = scan_counting_blocks(early)
    assert decided == blocks and full.violations[:1] == report.violations

    negative = line_space(n, plants=[(0, n - 2)], negative=(3, 5))
    report, decided = scan_counting_blocks(negative, limit=1)
    assert decided == 0
    assert report.violations == [("nonneg", (3, 5), 1.0)]
    assert scan_counting_blocks(line_space(n), limit=1) == (AxiomReport(True, []), blocks)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(
    scan_cases() | symmetric_scan_cases().map(lambda case: case[:2]),
    st.integers(1, 3) | st.integers(4, 80),
)
def test_a_limited_scan_decides_no_block_past_the_kth_violation(case, limit):
    d, tol = case
    space = FiniteSpace(ids=tuple(f"p{k}" for k in range(len(d))), dist=d, tol=tol)
    full, blocks = scan_counting_blocks(space)
    assert blocks == math.ceil(len(d) / _ROW_BLOCK)  # unlimited: every block
    cut, decided = scan_counting_blocks(space, limit=limit)
    assert cut.violations == full.violations[:limit]
    if len(full.violations) < limit:
        assert decided == blocks
    else:
        kth = full.violations[limit - 1]
        assert decided == (kth.where[0] // _ROW_BLOCK + 1 if kth.kind == "triangle" else 0)


def test_a_pooled_limited_scan_equals_the_inline_one_and_leaves_no_thread():
    n = 6 * _ROW_BLOCK + 3
    space = line_space(n, plants=[(2, n - 4), (4 * _ROW_BLOCK, n - 1)])
    threads = threading.active_count()
    for limit in (1, n, None):  # n crosses from the first flagged row into the next
        pooled, _ = scan_counting_blocks(space, limit=limit, cpus=3)
        assert threading.active_count() == threads
        assert pooled == scan_counting_blocks(space, limit=limit)[0]


@pytest.mark.parametrize("cpus", [1, 3])
def test_every_violation_holds_python_ints_and_floats(cpus):
    # every kind, listed in bulk on the inline and the pooled scan, holds no
    # numpy scalar, so a library caller can json.dumps its fields
    n = 3 * _ROW_BLOCK + 5
    d = line_space(n, plants=[(1, n - 2), (2 * _ROW_BLOCK, n - 1)], negative=(4, 9)).dist.copy()
    d[3, 3] = 0.5
    d[6, 7] = d[7, 6] = 0.0
    d[n - 3, 2] += 0.25
    space = FiniteSpace(ids=tuple(f"p{k}" for k in range(n)), dist=d)
    with mock.patch.object(space_module, "_PAIR_BLOCK", 5):
        report, _ = scan_counting_blocks(space, cpus=cpus)
    assert {v.kind for v in report.violations} == {"nonneg", "symmetry", "identity", "triangle"}
    for v in report.violations:
        assert type(v.where) is tuple and all(type(k) is int for k in v.where)
        assert type(v.magnitude) is float
        json.dumps([v.kind, v.where, v.magnitude])


# --- input checks --------------------------------------------------------------


def test_a_repeated_id_among_many_is_found_in_linear_time():
    specs = [PointSpec(f"p{k}", {1: float(k)}) for k in range(20_000)]
    specs.append(PointSpec("p7", {1: -1.0}))
    begin = time.perf_counter()
    with pytest.raises(DuplicatePointError, match=r"^duplicate point ids: \['p7'\]$"):
        build_space(specs)
    assert time.perf_counter() - begin < 1.0


def test_an_integer_coordinate_beyond_the_doubles_is_not_finite():
    specs = [PointSpec("a", {1: 10**400}), PointSpec("b", {})]
    with pytest.raises(ValueError, match=r"^point 'a': coordinate in slot 1 is not finite$"):
        build_space(specs)


# --- the least-pair tie-break ------------------------------------------------


@settings(max_examples=300)
@given(st.integers(1, 12).flatmap(lambda n: arrays(np.bool_, (n, n))))
def test_least_pair_is_the_first_upper_triangle_hit(mask):
    hits = np.argwhere(np.triu(mask | mask.T, k=1))
    want = tuple(int(k) for k in hits[0]) if hits.size else None
    got = _least_pair(len(mask), lambda i, j: mask[i, j])
    assert got == want
    assert got is None or all(type(k) is int for k in got)


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([1, _PAIR_BLOCK - 1, _PAIR_BLOCK, _PAIR_BLOCK + 1, 3 * _PAIR_BLOCK + 5]),
    data=st.data(),
)
def test_least_pair_tests_row_blocks_in_order_up_to_the_first_hit(n, data):
    # 0-3 hits planted anywhere, on and below the diagonal included
    cell = st.integers(0, n - 1)
    planted = data.draw(st.lists(st.tuples(cell, cell) | cell.map(lambda k: (k, k)), max_size=3))
    mask = np.zeros((n, n), dtype=bool)
    for i, j in planted:
        mask[i, j] = True
    hits = np.argwhere(np.triu(mask | mask.T, k=1))
    want = tuple(int(k) for k in hits[0]) if hits.size else None

    tested = []

    def offends(rows, columns):
        tested.append((rows, columns))
        return mask[rows, columns]

    assert _least_pair(n, offends) == want
    # blocks in row order, none past the block of the first hit; each block
    # reads its rows against the columns from its start, then the mirror
    last = (want[0] if want else n - 1) // _PAIR_BLOCK
    starts = range(0, (last + 1) * _PAIR_BLOCK, _PAIR_BLOCK)
    block = [(slice(s, s + _PAIR_BLOCK), slice(s, n)) for s in starts]
    assert tested == [call for rows, columns in block for call in [(rows, columns), (columns, rows)]]


@pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
def test_indiscernible_points_name_the_entry_within_tol(lower):
    dist = np.array([[0.0, 1.0], [1e-13, 0.0]])
    space = FiniteSpace(ids=("a", "b"), dist=dist if lower else dist.T)
    message = r"^points 'a' and 'b' are indiscernible \(distance 1e-13 <= tol 1e-12\)$"
    with pytest.raises(IndiscerniblePointsError, match=message):
        _require_discernible(space, 1e-12)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=st.sampled_from([0.0, -0.0, 5e-13, 0.5, 2.0]))
    ),
    st.sampled_from([1e-12, 0.5, 1.0]),
    st.sampled_from([3, 5, _PAIR_BLOCK]),
)
def test_indiscernibility_is_one_rule_for_the_load_gate_and_the_scan(d, tol, pair_block):
    # _require_discernible raises exactly when the scan lists an off-diagonal
    # identity violation, and then names the first one's pair; small pair
    # blocks make both walks cross row blocks
    space = FiniteSpace(ids=tuple(f"p{k}" for k in range(len(d))), dist=d, tol=tol)
    with mock.patch.object(space_module, "_PAIR_BLOCK", pair_block):
        pairs = [v.where for v in verify_metric_axioms(space).violations
                 if v.kind == "identity" and v.where[0] != v.where[1]]
        try:
            _require_discernible(space, tol)
        except IndiscerniblePointsError as exc:
            i, j = pairs[0]
            assert str(exc).startswith(f"points 'p{i}' and 'p{j}' are indiscernible")
        else:
            assert pairs == []


def test_build_space_reports_duplicates_before_indiscernible_points():
    with pytest.raises(DuplicatePointError, match=r"duplicate point ids: \['a'\]"):
        build_space([PointSpec("a", {1: 1.0}), PointSpec("a", {1: 1.0})])


def test_build_space_rejects_an_empty_list():
    with pytest.raises(ValueError, match="at least one point"):
        build_space([])


def test_build_space_indiscernible_message_prints_a_plain_float():
    with pytest.raises(IndiscerniblePointsError) as raised:
        build_space([PointSpec("a", {1: 0.5}), PointSpec("b", {1: 0.5})])
    assert str(raised.value) == "points 'a' and 'b' are indiscernible (distance 0.0 <= tol 1e-12)"


def test_identity_lists_the_diagonal_before_the_off_diagonal_pairs():
    # the identity kind lists every diagonal entry, then the pairs i < j, so
    # (5, 5) precedes (0, 1); a limit takes the prefix of that order
    d = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))
    d[5, 5] = 0.5
    d[0, 1] = d[1, 0] = 0.0
    space = FiniteSpace(ids=tuple("abcdef"), dist=d)
    violations = verify_metric_axioms(space).violations
    assert [(v.kind, v.where) for v in violations[:2]] == [
        ("identity", (5, 5)), ("identity", (0, 1))]
    assert {v.kind for v in violations[2:]} == {"triangle"}
    assert verify_metric_axioms(space, limit=1).violations == violations[:1]
