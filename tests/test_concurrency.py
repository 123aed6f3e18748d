"""Operations are pure functions over immutable inputs: concurrent callers
sharing one space must all see identical results."""

import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from atsuji import (
    FiniteSpace,
    atsuji_check,
    convergent_sequence,
    greedy_epsilon_net,
    min_pairwise_distance,
    remetrize,
    verify_metric_axioms,
)
from atsuji import space as space_module
from atsuji.space import _ROW_BLOCK


def test_shared_space_concurrent_checks_agree():
    space, view = convergent_sequence(150)

    def job(_):
        verdict = atsuji_check(space, view, [1.0, 0.25, 0.01], 1e-6)
        net = greedy_epsilon_net(space, space.ids, 0.2)
        iso = min_pairwise_distance(space, space.ids)
        return verdict.status, tuple(net), iso.eta, iso.witness

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, range(16)))
    assert len(set(results)) == 1


def test_concurrent_remetrization_is_reproducible():
    space, view = convergent_sequence(100)

    with ThreadPoolExecutor(max_workers=6) as pool:
        outputs = list(pool.map(lambda _: remetrize(space, view), range(12)))
    first = outputs[0]
    assert verify_metric_axioms(first.space).passed
    for other in outputs[1:]:
        assert np.array_equal(first.newdist, other.newdist)
        assert first.levels == other.levels


def test_concurrent_axiom_scans_agree_under_fast_switching():
    # each scan runs its own pool of row-block workers; more callers than
    # cores (up to 8 cores, which keeps the thread count small on big hosts),
    # switching threads every microsecond, must not mix their results
    n = 5 * _ROW_BLOCK + 2
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 1.0, (n, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    d[3, n - 5] = d[n - 5, 3] = d[3, n - 5] + 5.0
    d[20, 21] += 1e-3
    space = FiniteSpace(ids=tuple(f"p{k}" for k in range(n)), dist=d)
    callers = 2 * min(os.cpu_count() or 1, 8) + 2

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=callers) as pool:
            futures = [pool.submit(verify_metric_axioms, space) for _ in range(2 * callers)]
            reports = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    first = reports[0]
    assert {v.kind for v in first.violations} == {"symmetry", "triangle"}
    assert all(r == first for r in reports)


def test_scan_workers_honour_the_callers_numpy_errstate():
    # every sum of two off-diagonal entries overflows, in every row block
    n = 3 * _ROW_BLOCK
    d = np.full((n, n), 1.7e308)
    np.fill_diagonal(d, 0.0)
    space = FiniteSpace(ids=tuple(f"p{k}" for k in range(n)), dist=d)

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        verify_metric_axioms(space)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_metric_axioms(space).passed


@pytest.mark.parametrize("symmetric", [True, False])
def test_inline_and_pooled_scans_agree(monkeypatch, symmetric):
    # mirrored plants whose later rows are reached through column flags, and
    # on the asymmetric matrix one pair off by 1e-3, which forces the full scan
    n = 5 * _ROW_BLOCK + 3
    pts = np.random.default_rng(1).uniform(0.0, 1.0, (n, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    d[2, n - 4] = d[n - 4, 2] = d[2, n - 4] + 3.0
    d[5, n - 1] = d[n - 1, 5] = d[5, n - 1] + 1.0
    if not symmetric:
        d[17, 30] += 1e-3
    space = FiniteSpace(ids=tuple(f"p{k}" for k in range(n)), dist=d)

    def scan(cpus):
        monkeypatch.setattr(space_module, "_usable_cpus", lambda: cpus)
        return verify_metric_axioms(space)

    inline = scan(1)
    assert scan(3) == inline
    rows = {v.where[0] for v in inline.violations if v.kind == "triangle"}
    assert {2, 5, n - 4, n - 1} <= rows
    assert any(v.kind == "symmetry" for v in inline.violations) == (not symmetric)


def test_usable_cpus_without_cpu_affinity_is_the_cpu_count(monkeypatch):
    # a platform without os.sched_getaffinity, such as macOS or Windows
    monkeypatch.delattr(space_module.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(space_module.os, "cpu_count", lambda: 3)
    assert space_module._usable_cpus() == 3
    monkeypatch.setattr(space_module.os, "cpu_count", lambda: None)  # undetermined
    assert space_module._usable_cpus() == 1
