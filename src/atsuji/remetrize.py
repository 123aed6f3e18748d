"""Remetrization: replace a metric by an equivalent-topology metric whose
neighborhood complements are uniformly isolated.

Given a base metric delta and a derived-set view D, the new distance is

- 0 when x = y,
- delta(x, y) when x or y lies in D,
- max(delta(x, y), 2^m) otherwise, where m is the dyadic level of
  max(delta(x, D), delta(y, D)).

The dyadic level of t > 0 is the unique integer m with 2^m < t <= 2^(m+1);
exact powers of two sit at the top of their interval, and levels are computed
by exponent extraction so no boundary is ever misclassified by a logarithm.

Points outside D keep their own level, and a pair's level is the max of its
endpoint levels (dyadic_level is monotone, so this equals the per-pair
definition above).  The complement of every eps-ball union around D then has
pairwise new-distances at least 2^(dyadic_level(eps)), while balls around
derived points are unchanged and isolated points stay isolated, so the
topology survives.

The construction needs delta(x, D) finite.  When D is empty every point sits
at level 0 instead, which gives max(delta, 1) off the diagonal (the pointwise
max of delta with the unit discrete metric); it preserves the then-discrete
topology and is flagged on the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# neighborhood, min_pairwise_distance: unused; perfbench/trace_child.py wraps them by name
from .analysis import DerivedSetView, _IsolationProfile, min_pairwise_distance  # noqa: F401
from .space import FiniteSpace, PointId, _least_pair, neighborhood  # noqa: F401

__all__ = [
    "RemetrizedSpace",
    "TopologyReport",
    "IsolationBoundReport",
    "dyadic_level",
    "remetrize",
    "verify_same_topology",
    "verify_isolation_bound",
]


@dataclass(frozen=True, eq=False)
class RemetrizedSpace:
    """A base space plus the rebuilt distance matrix and per-point dyadic
    levels (absent for derived-set members, and empty in fallback mode).

    ``space`` is the remetrized space as a plain FiniteSpace (same ids and
    tol), built at construction; ``newdist`` is its read-only matrix.  A
    read-only float64 ``newdist``, such as the fresh one :func:`remetrize`
    builds, is adopted without a copy; any other is copied.
    """

    base: FiniteSpace
    derived: DerivedSetView
    newdist: np.ndarray
    levels: dict[PointId, int]
    empty_derived_fallback_used: bool = False
    space: FiniteSpace = field(init=False, repr=False)

    def __post_init__(self):
        d = self.newdist
        fresh = isinstance(d, np.ndarray) and d.dtype == np.float64 and not d.flags.writeable
        space = (FiniteSpace._adopt if fresh else FiniteSpace)(self.base.ids, d, self.base.tol)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "newdist", space.dist)

    @cached_property
    def _isolation_profile(self) -> _IsolationProfile:
        return _IsolationProfile(self.space, self.derived.members)


@dataclass(frozen=True)
class TopologyReport:
    passed: bool
    witness: tuple[PointId, PointId] | None = None
    failed_check: str | None = None  # "domination" | "derived_equality" | "isolation"


@dataclass(frozen=True)
class IsolationBoundReport:
    passed: bool
    n: int
    witness: tuple[PointId, PointId] | None = None
    observed_eta: float = math.inf


def dyadic_level(t: float) -> int:
    """The unique integer m with 2^m < t <= 2^(m+1), for finite t > 0.

    Uses frexp, so t = 2^k lands exactly at level k-1.  Raises when t is not
    a positive finite float or when 2^m would underflow to zero.
    """
    t = float(t)
    if not math.isfinite(t) or t <= 0:
        raise ValueError(f"dyadic level needs a positive finite value, got {t!r}")
    frac, exp = math.frexp(t)  # t = frac * 2^exp with frac in [0.5, 1)
    m = exp - 2 if frac == 0.5 else exp - 1
    if math.ldexp(1.0, m) == 0.0:
        raise ValueError(f"2^{m} underflows for t = {t!r}")
    return m


def remetrize(base: FiniteSpace, derived: DerivedSetView) -> RemetrizedSpace:
    """Apply the three-case construction to a finite space.

    Requires every derived member to be a point of the space, and rejects a
    view that leaves some outside point at distance 0 from it (impossible for
    a true derived set, which is closed, but a sloppy oracle over an invalid
    matrix could do it and the dyadic level would be undefined).
    """
    member_mask = base.mask(derived.members)
    dist_to_derived = base.reach(derived.members)  # inf everywhere when D is empty
    bad = np.flatnonzero(~member_mask & (dist_to_derived <= 0.0))
    if bad.size:
        raise ValueError(
            f"point {base.ids[bad[0]]!r} is outside the derived set but at "
            "distance 0 from it; the dyadic level is undefined"
        )

    # a point outside D has the floor 2^level, and a pair the larger floor of
    # its endpoints; when D is empty every point sits at level 0, floor 1
    leveled = np.flatnonzero(np.isfinite(dist_to_derived) & ~member_mask)
    levels = {base.ids[k]: dyadic_level(dist_to_derived[k]) for k in leveled}
    floor = np.ones(base.n)
    floor[leveled] = [math.ldexp(1.0, m) for m in levels.values()]

    newdist = np.maximum.outer(floor, floor)
    np.maximum(newdist, base.dist, out=newdist)
    # pairs touching the derived set keep the base distance, x = y stays 0
    newdist[member_mask, :] = base.dist[member_mask, :]
    newdist[:, member_mask] = base.dist[:, member_mask]
    np.fill_diagonal(newdist, 0.0)
    newdist.setflags(write=False)  # so RemetrizedSpace adopts it

    return RemetrizedSpace(
        base=base,
        derived=derived,
        newdist=newdist,
        levels=levels,
        empty_derived_fallback_used=not member_mask.any(),
    )


def verify_same_topology(r: RemetrizedSpace) -> TopologyReport:
    """Check the topology-preservation guarantees pair by pair.

    (a) the new distance dominates the base distance, (b) pairs touching the
    derived set are unchanged, and (c) every non-derived point stays isolated
    (it is at positive distance from every other point under both metrics).
    The first failing check reports its lexicographically least offending
    pair.
    """
    base = r.base
    d_old, d_new, tol = base.dist, r.newdist, base.tol
    member = base.mask(r.derived.members)

    def collapsed(rows):
        # {i, j} offends when either point lies outside D at distance <= 0
        # from the other: the predicate of the rows, or of the columns transposed
        return (~member[rows, None] & ((d_old[rows] <= 0) | (d_new[rows] <= 0))) | (
            ~member & ((d_old[:, rows] <= 0) | (d_new[:, rows] <= 0)).T
        )

    checks = {
        "domination": lambda rows: d_new[rows] < d_old[rows] - tol,
        "derived_equality": lambda rows: (
            (member[rows, None] | member) & (np.abs(d_new[rows] - d_old[rows]) > tol)
        ),
        "isolation": collapsed,
    }
    for name, offends in checks.items():
        pair = _least_pair(base.n, offends)
        if pair is not None:
            return TopologyReport(
                passed=False, witness=tuple(base.ids[k] for k in pair), failed_check=name
            )
    return TopologyReport(passed=True)


def verify_isolation_bound(r: RemetrizedSpace, eta: float) -> IsolationBoundReport:
    """Check the headline guarantee at scale eta: outside the eta-neighborhood
    of the derived set (new-metric balls), every pair is at least
    2^dyadic_level(eta) apart, up to the space tolerance.  Vacuous pass when
    the complement has at most one point.

    In fallback mode the checked floor is min(2^n, 1): max(delta, 1) keeps
    every distinct pair at least 1 apart and promises nothing more.

    The complement at eta is {x : dist(x, D) >= eta}, a prefix of the points
    ordered by distance to D, descending.  One sweep over that order, cached on
    ``r``, measures every prefix, so each further eta is a lookup.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    n = dyadic_level(eta)
    bound = math.ldexp(1.0, n)
    if r.empty_derived_fallback_used:
        bound = min(bound, 1.0)
    report = r._isolation_profile.at(eta)
    if report.eta >= bound - r.base.tol:
        return IsolationBoundReport(passed=True, n=n, observed_eta=report.eta)
    return IsolationBoundReport(
        passed=False, n=n, witness=report.witness, observed_eta=report.eta
    )
