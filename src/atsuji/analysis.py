"""Limit-point detection, isolation measurement, eps-nets, and the
uniform-continuity (Atsuji) characterization checker.

A space is Atsuji iff its derived set is compact and, for every eps > 0, the
complement of the eps-neighborhood of the derived set is uniformly isolated.
On a finite truncation only evidence-grade verdicts are possible: FAIL comes
with a concrete witness pair inside the truncation, PASS means no violation at
the given grid and threshold, and every verdict carries that caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .functions import WitnessPair
# neighborhood is unused here; perfbench/trace_child.py wraps it by this name
from .space import FiniteSpace, PointId, neighborhood  # noqa: F401

__all__ = [
    "DerivedSetView",
    "IsolationReport",
    "AtsujiVerdict",
    "DEFAULT_EPS_GRID",
    "DEFAULT_THRESHOLD",
    "FINITE_EVIDENCE_NOTE",
    "detect_limit_points",
    "min_pairwise_distance",
    "greedy_epsilon_net",
    "atsuji_check",
]

# Grid of scales at which the complement isolation is measured.
DEFAULT_EPS_GRID: tuple[float, ...] = tuple(2.0 ** -k for k in range(11))

# Isolation below this is a failure; at or above it is accepted evidence.
# Chosen below 2^-11, the isolation the remetrization construction guarantees
# at the smallest default grid point, and well above float noise at desk
# scale, so genuinely vanishing distances (e.g. 1/(n(n+1)) -> 0) still fail.
DEFAULT_THRESHOLD = 1e-4

FINITE_EVIDENCE_NOTE = (
    "finite-truncation evidence only: PASS means no violation at this "
    "grid and threshold, not a proof for any infinite space"
)


@dataclass(frozen=True)
class DerivedSetView:
    """A stand-in for the set of limit points.

    ``oracle`` views are declared authoritative (generators ship the true
    derived set of the infinite space); ``detected`` views come from
    :func:`detect_limit_points` at a finite resolution and over-approximate.
    """

    kind: str  # "oracle" | "detected"
    members: frozenset[PointId]
    resolution: float | None = None

    def __post_init__(self):
        if self.kind not in ("oracle", "detected"):
            raise ValueError(f"kind must be 'oracle' or 'detected', got {self.kind!r}")
        if (self.resolution is not None) != (self.kind == "detected"):
            raise ValueError("resolution must be present exactly when kind='detected'")
        object.__setattr__(self, "members", frozenset(self.members))


@dataclass(frozen=True)
class IsolationReport:
    """Minimum pairwise distance of a set and the pair achieving it.

    ``eta`` is ``math.inf`` and the witness absent when the set has at most
    one point (vacuously isolated).
    """

    eta: float
    witness: tuple[PointId, PointId] | None = None


@dataclass(frozen=True)
class AtsujiVerdict:
    status: str  # "PASS" | "FAIL" | "INCONCLUSIVE"
    net_sizes: dict[float, int]
    isolation: dict[float, IsolationReport]
    fail_witness: WitnessPair | None = None
    notes: list[str] = field(default_factory=list)


def detect_limit_points(space: FiniteSpace, r: float) -> DerivedSetView:
    """Points having another point strictly within r: a resolution-r surrogate
    for the derived set.  Over-approximates near accumulation (whole tails get
    flagged, not just the limit); oracle views are authoritative when known.
    """
    if not r > 0:
        raise ValueError(f"resolution must be positive, got {r!r}")
    off_diag = ~np.eye(space.n, dtype=bool)
    mask = ((space.dist < r) & off_diag).any(axis=1)
    members = frozenset(space.ids[k] for k in np.flatnonzero(mask))
    return DerivedSetView(kind="detected", members=members, resolution=float(r))


def _prefix_sweep(space: FiniteSpace, order: np.ndarray) -> list[IsolationReport]:
    """Isolation of every prefix of ``order`` (canonical indices): entry m is
    :func:`min_pairwise_distance` of ``order[:m]``, same upper-triangle entries
    and tie-break.  Each step scans one row, O(len(order)^2) in total.
    """
    dist = space.dist
    best = (math.inf, -1, -1)  # (eta, i, j); every finite distance beats it
    report = IsolationReport(eta=math.inf, witness=None)
    reports = [report]
    for k, p in enumerate(order.tolist()):
        if k:
            prev = order[:k]
            vals = np.where(prev < p, dist[prev, p], dist[p, prev])
            v = float(vals.min())
            if v <= best[0]:
                # among tied partners the least index closes the least pair
                q = int(prev[vals == v].min())
                cand = (v, min(p, q), max(p, q))
                if cand < best:
                    best = cand
                    report = IsolationReport(eta=v, witness=(space.ids[cand[1]], space.ids[cand[2]]))
        reports.append(report)
    return reports


class _IsolationProfile:
    """Isolation of the complement of B(D, eps) at every eps > 0.  That
    complement is {x : dist(x, D) >= eps} (every point when D is empty), a
    prefix of the points ordered by (distance to D descending, index).
    """

    def __init__(self, space: FiniteSpace, members: Iterable[PointId]):
        idx = space.indices(members)
        self._reach = space.dist[:, idx].min(axis=1) if idx.size else np.full(space.n, math.inf)
        order = np.lexsort((np.arange(space.n), -self._reach))
        self._reports = _prefix_sweep(space, order)

    def at(self, eps: float) -> IsolationReport:
        return self._reports[int(np.count_nonzero(self._reach >= eps))]


def min_pairwise_distance(space: FiniteSpace, S: Iterable[PointId]) -> IsolationReport:
    """Minimum distance over unordered pairs of S, with the lexicographically
    least achieving pair; inf/no witness when |S| <= 1."""
    return _prefix_sweep(space, space.indices(S))[-1]


def greedy_epsilon_net(
    space: FiniteSpace, S: Iterable[PointId], eps: float
) -> list[PointId]:
    """Greedy eps-net of S, scanned in canonical index order.

    A point joins the net iff no existing net point is strictly within eps.
    The result is eps-separated (pairwise distances >= eps) and covers S
    (every point of S is < eps from some net point), in canonical order.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    idx = space.indices(S)
    net: list[int] = []
    for k in idx:
        if not net or not (space.dist[k, net] < eps).any():
            net.append(int(k))
    return [space.ids[k] for k in net]


def atsuji_check(
    space: FiniteSpace,
    derived: DerivedSetView,
    eps_grid: Iterable[float] = DEFAULT_EPS_GRID,
    threshold: float = DEFAULT_THRESHOLD,
) -> AtsujiVerdict:
    """Evidence-grade check of the two-part characterization.

    For each eps in the grid the complement of B(derived, eps) is measured for
    uniform isolation; eps-net sizes of the derived set are recorded as
    total-boundedness evidence.  FAIL carries the globally minimizing pair
    (first grid entry achieving it) as a witness; INCONCLUSIVE means every
    grid complement had at most one point, so there was no pair to measure.

    The complement at eps is {x : dist(x, derived) >= eps}: a prefix of the
    points ordered by distance to the derived set, descending.  One sweep over
    that order measures every prefix, so the whole grid costs one O(n^2) pass.
    """
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise ValueError("eps_grid must be nonempty")
    if any(not e > 0 for e in grid):
        raise ValueError(f"eps_grid entries must be positive, got {grid}")
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold!r}")

    profile = _IsolationProfile(space, derived.members)
    net_sizes = {eps: len(greedy_epsilon_net(space, derived.members, eps)) for eps in grid}
    isolation = {eps: profile.at(eps) for eps in grid}
    worst_eps = min(grid, key=lambda eps: isolation[eps].eta)

    notes = [FINITE_EVIDENCE_NOTE]
    if derived.kind == "detected":
        notes.append(
            f"derived set detected at resolution {derived.resolution!r} "
            "over-approximates the true derived set"
        )

    worst = isolation[worst_eps]
    if worst.eta < threshold:
        x, y = worst.witness
        witness = WitnessPair(x=x, y=y, distance=worst.eta, gap=0.0)
        notes.append(
            f"isolation {worst.eta!r} at eps {worst_eps!r} fell below threshold {threshold!r}"
        )
        return AtsujiVerdict(
            status="FAIL",
            net_sizes=net_sizes,
            isolation=isolation,
            fail_witness=witness,
            notes=notes,
        )
    if math.isinf(worst.eta):
        notes.append(
            "no grid complement contained two points; isolation was never exercised"
        )
        return AtsujiVerdict(
            status="INCONCLUSIVE", net_sizes=net_sizes, isolation=isolation, notes=notes
        )
    return AtsujiVerdict(status="PASS", net_sizes=net_sizes, isolation=isolation, notes=notes)
