"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines."""

import json
import math
import time

import numpy as np

from atsuji import (
    FiniteSpace,
    atsuji_check,
    convergent_sequence,
    neighborhood,
    parity_function,
    positive_integers,
    remetrize,
    separator,
    sequence_grid,
    set_distance,
    triple_max_triangle,
    uc_witness_search,
    uniform_interior_radius,
    verify_isolation_bound,
    verify_metric_axioms,
    verify_same_topology,
)
from atsuji.cli import main
from atsuji.space import PointSpec, build_space


def criterion(num, desc, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"\n[criterion {num:2d}] {status} - {desc}")
    assert not problems, f"criterion {num}: {problems}"


def test_criterion_01_metric_axioms_at_scale():
    problems = []
    space, _ = sequence_grid(20, 20, True)
    if space.n != 401:
        problems.append(f"expected 401 points, got {space.n}")
    if not verify_metric_axioms(space).passed:  # by build_space's excess bound
        problems.append("the excess bound does not certify the grid")
    # the constructor's copy has no excess bound, so the scan decides every triple
    start = time.perf_counter()
    report = verify_metric_axioms(FiniteSpace(space.ids, space.dist))
    elapsed = time.perf_counter() - start
    if not report.passed or report.violations:
        problems.append(f"violations: {report.violations[:3]}")
    if elapsed >= 30:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    criterion(1, f"401-point grid passes exhaustive axiom scan in {elapsed:.2f}s", problems)


def test_criterion_02_grid_isolation_bound():
    problems = []
    space, _ = sequence_grid(50, 50, True)
    n = space.n
    for m in range(1, 9):
        ball = neighborhood(space, {"zero"}, 1 / m)
        outside = np.array([k for k, p in enumerate(space.ids) if p not in ball])
        if outside.size == 0:
            problems.append(f"m={m}: nothing outside the ball")
            continue
        rows = np.array(space.dist[outside], dtype=float)
        rows[np.arange(outside.size), outside] = math.inf  # exclude y = x
        bound = 1 / (m * (m + 1)) - 1e-12
        worst = float(rows.min())
        if worst < bound:
            problems.append(f"m={m}: min distance {worst!r} below 1/(m(m+1))")
    criterion(2, "outside B(0,1/m), every pair is >= 1/(m(m+1)) apart (m=1..8)", problems)


def test_criterion_03_parity_counterexample():
    problems = []
    space, _ = sequence_grid(50, 50, False)
    for j in range(1, 50):
        got = space.distance(f"p_1_{j}", f"p_1_{j + 1}")
        if abs(got - 1 / (j * (j + 1))) > 1e-12:
            problems.append(f"j={j}: adjacent distance {got!r}")
    witness = uc_witness_search(space, parity_function(space), 0.5, 1e-3)
    if witness is None:
        problems.append("no witness found")
    elif witness.gap != 1.0:
        problems.append(f"witness gap {witness.gap!r}, expected exactly 1")
    criterion(3, "adjacent grid distances are 1/(j(j+1)) and parity yields a gap-1 witness", problems)


def test_criterion_04_discrimination_between_metrics():
    problems = []
    space1, oracle1 = positive_integers(1000, "d1")
    verdict1 = atsuji_check(space1, oracle1, [1.0, 0.1], 1e-3)
    if verdict1.status != "PASS":
        problems.append(f"d1 status {verdict1.status}")
    if any(rep.eta != 1.0 for rep in verdict1.isolation.values()):
        problems.append(f"d1 eta {[r.eta for r in verdict1.isolation.values()]}")

    space2, oracle2 = positive_integers(1000, "d2")
    verdict2 = atsuji_check(space2, oracle2, [1.0, 0.1], 1e-3)
    if verdict2.status != "FAIL":
        problems.append(f"d2 status {verdict2.status}")
    else:
        w = verdict2.fail_witness
        if (w.x, w.y) != ("n999", "n1000"):
            problems.append(f"d2 witness ({w.x}, {w.y})")
        if abs(w.distance - 1 / 999000) > 1e-15:
            problems.append(f"d2 witness distance {w.distance!r}")
    criterion(4, "same integers: |a-b| passes with eta=1, |1/a-1/b| fails at (999,1000)", problems)


def test_criterion_05_remetrization_end_to_end():
    problems = []
    space, view = convergent_sequence(1000)
    r = remetrize(space, view)
    if not verify_metric_axioms(r.space).passed:
        problems.append("axioms failed")
    if not verify_same_topology(r).passed:
        problems.append("topology check failed")
    for k in range(11):
        report = verify_isolation_bound(r, 2.0 ** -k)
        if not report.passed:
            problems.append(f"isolation bound failed at eta=2^-{k}: {report}")
    verdict = atsuji_check(r.space, view)
    if verdict.status != "PASS":
        problems.append(f"post-remetrization verdict {verdict.status}")
    if r.space.distance("n2", "n3") != 0.25:
        problems.append(f"spot value d(1/2,1/3) = {r.space.distance('n2', 'n3')!r}")
    criterion(5, "remetrized convergent sequence: metric, topology, isolation, PASS, d(1/2,1/3)=0.25", problems)


def test_criterion_06_empty_derived_fallback():
    problems = []
    space, view = positive_integers(1000, "d2")
    r = remetrize(space, view)
    if not r.empty_derived_fallback_used:
        problems.append("fallback flag not set")
    if not verify_metric_axioms(r.space).passed:
        problems.append("axioms failed")
    if not verify_same_topology(r).passed:
        problems.append("topology check failed")
    for k in range(11):
        if not verify_isolation_bound(r, 2.0 ** -k).passed:
            problems.append(f"isolation bound failed at eta=2^-{k}")
    verdict = atsuji_check(r.space, view)
    if verdict.status != "PASS":
        problems.append(f"verdict {verdict.status}")
    if any(rep.eta != 1.0 for rep in verdict.isolation.values()):
        problems.append(f"eta values {[r_.eta for r_ in verdict.isolation.values()]}")
    criterion(6, "empty derived set: flagged fallback passes everything with eta=1", problems)


def test_criterion_07_max_triple_closure():
    problems = []
    rng = np.random.default_rng(20260810)

    def sample_triple():
        while True:
            a, b, c = 10.0 - 10.0 * rng.random(3)  # uniform in (0, 10]
            if a <= b + c and b <= a + c and c <= a + b:
                return (a, b, c)

    failures = 0
    for _ in range(10_000):
        if not triple_max_triangle(sample_triple(), sample_triple()).satisfies:
            failures += 1
    if failures:
        problems.append(f"{failures} max-triples violated the triangle inequality")
    criterion(7, "10^4 random triangle-triple pairs all stay triangles under max", problems)


def test_criterion_08_separator_suite():
    problems = []
    cases = [
        ("grid", *sequence_grid(10, 10, True)),
        ("convergent", *convergent_sequence(100)),
    ]
    for name, space, view in cases:
        origin = next(iter(view.members))
        norms = {p: space.distance(origin, p) for p in space.ids}
        far = max(space.ids, key=lambda p: (norms[p], -space.index(p)))
        A, B = {origin}, {far}
        f = separator(space, A, B)
        if any(not 0.0 <= v <= 1.0 for v in f.values.values()):
            problems.append(f"{name}: range escaped [0,1]")
        if f.values[origin] != 0.0 or f.values[far] != 1.0:
            problems.append(f"{name}: endpoints not pinned to 0 and 1")
        s = {p: set_distance(space, p, A) + set_distance(space, p, B) for p in space.ids}
        for i in range(space.n):
            for j in range(i + 1, space.n):
                x, y = space.ids[i], space.ids[j]
                gap = abs(f.values[x] - f.values[y])
                bound = 3 * float(space.dist[i, j]) / max(s[x], s[y])
                if gap > bound + space.tol:
                    problems.append(f"{name}: bound broken at ({x},{y})")
                    break
            else:
                continue
            break
    criterion(8, "separator: range, endpoint pinning, and the 3d/max(s) bound on all pairs", problems)


def test_criterion_09_interior_radius_cross_check():
    problems = []
    rng = np.random.default_rng(1729)
    for trial in range(100):
        n = int(rng.integers(2, 51))
        flat = rng.choice(200 * 200, size=n, replace=False)
        specs = [
            PointSpec(f"q{k}", {1: float(v // 200) / 8, 2: float(v % 200) / 8})
            for k, v in enumerate(flat)
        ]
        space = build_space(specs)
        u_size = int(rng.integers(1, n + 1))
        U = {space.ids[k] for k in rng.choice(n, size=u_size, replace=False)}
        k_size = int(rng.integers(1, len(U) + 1))
        K = set(rng.choice(sorted(U), size=k_size, replace=False))

        r = uniform_interior_radius(space, K, U)
        complement = [p for p in space.ids if p not in U]
        brute = math.inf
        for z in K:
            for w in complement:
                brute = min(brute, space.distance(z, w))
        if r != brute:
            problems.append(f"trial {trial}: r={r!r} brute={brute!r}")
            continue
        if math.isfinite(r):
            for z in K:
                if not neighborhood(space, {z}, r) <= U:
                    problems.append(f"trial {trial}: ball around {z} escapes U")
            if not any(
                space.distance(z, w) == r for z in K for w in complement
            ):
                problems.append(f"trial {trial}: radius {r!r} not attained")
    criterion(9, "100 random spaces: interior radius equals brute force and balls stay inside", problems)


def test_criterion_10_cli_roundtrip_and_determinism(tmp_path):
    problems = []
    spec = tmp_path / "convergent.json"
    spec.write_text(
        json.dumps(
            {"space": {"kind": "builtin", "name": "convergent_sequence", "params": {"n_max": 200}}}
        ),
        encoding="utf-8",
    )
    matrix_spec = tmp_path / "matrix.json"
    report1 = tmp_path / "r1.json"
    report2 = tmp_path / "r2.json"

    code = main(["remetrize", str(spec), "--out-matrix", str(matrix_spec), "--out", str(report1)])
    if code != 0:
        problems.append(f"remetrize exit {code}")
    code = main(["remetrize", str(spec), "--out-matrix", str(matrix_spec), "--out", str(report2)])
    if report1.read_bytes() != report2.read_bytes():
        problems.append("repeated remetrize reports differ")

    check_report = tmp_path / "check.json"
    code = main(["check-metric", str(matrix_spec), "--out", str(check_report)])
    if code != 0:
        problems.append(f"check-metric on reloaded matrix exit {code}")
    elif not json.loads(check_report.read_text(encoding="utf-8"))["result"]["passed"]:
        problems.append("reloaded matrix failed the axiom check")

    d2_spec = tmp_path / "d2.json"
    d2_spec.write_text(
        json.dumps(
            {
                "space": {
                    "kind": "builtin",
                    "name": "positive_integers",
                    "params": {"n_max": 300, "metric": "d2"},
                }
            }
        ),
        encoding="utf-8",
    )
    a1 = tmp_path / "a1.json"
    a2 = tmp_path / "a2.json"
    code = main(["atsuji", str(d2_spec), "--out", str(a1)])
    if code != 1:
        problems.append(f"failing verdict should exit 1, got {code}")
    main(["atsuji", str(d2_spec), "--out", str(a2)])
    if a1.read_bytes() != a2.read_bytes():
        problems.append("repeated atsuji reports differ")

    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text(json.dumps({"space": {"kind": "builtin"}}), encoding="utf-8")
    code = main(["check-metric", str(bad_spec)])
    if code != 2:
        problems.append(f"malformed spec should exit 2, got {code}")

    criterion(10, "CLI: matrix round-trip, byte-identical reruns, 0/1/2 exit contract", problems)
