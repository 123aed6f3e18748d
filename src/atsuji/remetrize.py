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
    """A base space, its derived-set view and the rebuilt distance matrix.

    ``space`` is the remetrized space as a plain FiniteSpace (same ids and
    tol), built at construction; ``newdist`` is its read-only matrix, a copy
    of the caller's.  Only :func:`remetrize` adopts the matrix it has just
    built, through :meth:`_adopt`.

    ``levels`` (the dyadic level of every point outside the derived set,
    none in fallback mode) and ``empty_derived_fallback_used`` are derived
    from ``base`` and ``derived``, never given, so a result over any matrix is
    checked against what ``remetrize(base, derived)`` guarantees.
    """

    base: FiniteSpace
    derived: DerivedSetView
    newdist: np.ndarray
    space: FiniteSpace = field(init=False, repr=False)

    def __post_init__(self):
        space = FiniteSpace(self.base.ids, self.newdist, self.base.tol)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "newdist", space.dist)

    @classmethod
    def _adopt(cls, base: FiniteSpace, derived: DerivedSetView, newdist: np.ndarray,
               levels: dict[PointId, int]) -> RemetrizedSpace:
        """A result over ``newdist`` itself, not a copy: the path for a matrix
        that the package has just built and that nothing else holds.
        ``levels`` is ``_levels(base, derived.members)[2]``, already computed.
        The space's excess bound is the base's, or 0 (see :func:`remetrize`)."""
        space = FiniteSpace._adopt(base.ids, newdist, base.tol, max(base._excess, 0.0))
        r = object.__new__(cls)
        vars(r).update(base=base, derived=derived, newdist=space.dist, levels=levels,
                       space=space)
        return r

    @property
    def empty_derived_fallback_used(self) -> bool:
        return not self.derived.members

    @cached_property
    def levels(self) -> dict[PointId, int]:
        return _levels(self.base, self.derived.members)[2]

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

    The result's space bounds its computed triangle excess by ``max(B, 0)``,
    ``B`` the base's bound (see :class:`~atsuji.space.FiniteSpace`): the
    paper's metric lemma, which holds in floating point too.  The bound is
    claimed only where the new matrix ``N`` equals its transpose entrywise;
    take an ordered triple ``(x, y, z)`` with excess
    ``e = fl(N[x, z] - fl(N[x, y] + N[y, z]))``, and ``f_x = 2^m`` the floor
    of a point x outside D, so ``f_x < reach(x)``, x's row minimum over D.

    - ``y = x`` or ``y = z``: the zero leg adds exactly, so ``e`` is 0.
    - ``x = z != y``: ``e = -fl(2 N[x, y]) <= 0``, since no entry of ``N`` off
      the diagonal is negative: it is a floor, or an entry of a base with a
      finite ``B``, which has none.
    - distinct, with ``N[x, z] = delta[x, z]``: off the diagonal ``N`` is
      ``delta`` or ``max(delta, floor)``, so the two legs only grow, and a
      rounded sum and difference are monotone in each argument: ``e`` is at
      most the base's excess at ``(x, y, z)``, at most ``B``.
    - distinct, with ``N[x, z]`` the floor ``F = max(f_x, f_z)`` of x and z
      outside D: both legs are positive, so if one is at least ``F``, their
      rounded sum is too (``F`` is a double) and ``e <= fl(F - F) = 0``.
      Through y outside D, ``N[x, y] >= f_x`` and ``N[y, z] >= f_z``.
      Through y in D, the legs are base entries: ``N[x, y] >= reach(x) > f_x``
      from row x, and ``N[y, z] = N[z, y] >= reach(z) > f_z`` by the
      symmetry of ``N``, which supplies the column entry.  Either way the
      leg at the point whose floor is ``F`` is at least ``F``.

    So the output's excess is at most ``max(B, 0)`` on every triple: when
    ``B <= tol``, :func:`~atsuji.space.verify_metric_axioms` decides its
    triangle inequality with no O(n^3) scan.  A base symmetric only within
    ``tol`` gives an ``N`` that is not exactly symmetric, which is scanned.
    """
    member_mask, leveled, levels = _levels(base, derived.members)
    # a point outside D has the floor 2^level, and a pair the larger floor of
    # its endpoints; when D is empty every point sits at level 0, floor 1
    floor = np.ones(base.n)
    floor[leveled] = [math.ldexp(1.0, m) for m in levels.values()]

    newdist = np.maximum.outer(floor, floor)
    np.maximum(newdist, base.dist, out=newdist)
    # pairs touching the derived set keep the base distance, x = y stays 0
    np.copyto(newdist, base.dist, where=member_mask[:, None])  # rows, in place
    np.copyto(newdist, base.dist, where=member_mask)  # columns
    np.fill_diagonal(newdist, 0.0)
    return RemetrizedSpace._adopt(base, derived, newdist, levels)


def _levels(
    base: FiniteSpace, members: frozenset[PointId]
) -> tuple[np.ndarray, np.ndarray, dict[PointId, int]]:
    """The membership mask of ``members`` in ``base``, the indices of the
    points outside them (none when there are no members), and those points'
    dyadic levels of distance to them, keyed by id in index order."""
    member_mask = base.mask(members)
    dist_to_derived = base.reach(members)  # inf everywhere when D is empty
    bad = np.flatnonzero(~member_mask & (dist_to_derived <= 0.0))
    if bad.size:
        raise ValueError(
            f"point {base.ids[bad[0]]!r} is outside the derived set but at "
            "distance 0 from it; the dyadic level is undefined"
        )
    leveled = np.flatnonzero(np.isfinite(dist_to_derived) & ~member_mask)
    return member_mask, leveled, {base.ids[k]: dyadic_level(dist_to_derived[k]) for k in leveled}


def verify_same_topology(r: RemetrizedSpace) -> TopologyReport:
    """Check the topology-preservation guarantees pair by pair.

    (a) the new distance dominates the base distance, (b) pairs touching the
    derived set are unchanged, and (c) every non-derived point stays isolated
    (it is at positive distance from every other point under both metrics).
    The first failing check reports its least offending pair (:func:`_least_pair`).
    """
    base = r.base
    d_old, d_new, tol = base.dist, r.newdist, base.tol
    member = base.mask(r.derived.members)

    checks = {  # predicates on the entries (i, j) of rows i and columns j
        "domination": lambda i, j: d_new[i, j] < d_old[i, j] - tol,
        "derived_equality": lambda i, j: (
            (member[i, None] | member[j]) & (np.abs(d_new[i, j] - d_old[i, j]) > tol)
        ),
        "isolation": lambda i, j: (
            (~member[i, None] | ~member[j]) & ((d_old[i, j] <= 0) | (d_new[i, j] <= 0))
        ),
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
    passed = report.eta >= bound - r.base.tol
    return IsolationBoundReport(passed, n, None if passed else report.witness, report.eta)
