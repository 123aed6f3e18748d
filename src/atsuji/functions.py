"""Sampled real-valued functions on finite spaces and uniform-continuity
witness machinery.

Functions are finite value maps keyed by point id (serializable in reports),
not closures.  A witness pair is the universal counterexample currency: two
points at small distance whose function values differ by a lot.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .space import FiniteSpace, PointId, _least_pair, _pair_blocks, _pair_distance

__all__ = [
    "SampledFunction",
    "WitnessPair",
    "separator",
    "modulus_of_continuity",
    "uc_witness_search",
    "parity_function",
]

# used with fullmatch: "$" would also match before a trailing newline, and
# "\d" would accept non-ASCII digits
_GRID_ID = re.compile(r"p_([0-9]+)_([0-9]+)")


@dataclass(frozen=True)
class SampledFunction:
    """A real-valued function sampled on every point of a space."""

    values: dict[PointId, float]
    label: str

    def array(self, space: FiniteSpace) -> np.ndarray:
        """Values in canonical index order; the domain must match exactly."""
        if set(self.values) != set(space.ids):
            missing = sorted(set(space.ids) - set(self.values))[:3]
            extra = sorted(set(self.values) - set(space.ids))[:3]
            raise ValueError(
                f"function {self.label!r} domain does not match the space "
                f"(missing {missing}, extra {extra})"
            )
        return np.array([self.values[p] for p in space.ids], dtype=float)


@dataclass(frozen=True)
class WitnessPair:
    """Two points certifying a uniform-continuity failure: close in distance,
    far apart in value.  ``gap`` is 0 when no function is involved (pure
    isolation witnesses)."""

    x: PointId
    y: PointId
    distance: float
    gap: float


def separator(
    space: FiniteSpace, A: Iterable[PointId], B: Iterable[PointId]
) -> SampledFunction:
    """The ratio function x -> d(x,A) / (d(x,A) + d(x,B)).

    Exactly 0 on A and exactly 1 on B, with values in [0,1] everywhere;
    requires A and B nonempty and disjoint (which on a finite space with a
    valid metric keeps the denominator positive).
    """
    a, b = space.mask(A := tuple(A)), space.mask(B := tuple(B))  # read by mask, then by reach
    if not a.any() or not b.any():
        raise ValueError("A and B must both be nonempty")
    if (a & b).any():
        shared = sorted(space.ids[k] for k in np.flatnonzero(a & b))
        raise ValueError(f"A and B must be disjoint; shared points: {shared}")
    da, db = space.reach(A), space.reach(B)
    vanishing = np.flatnonzero(~(da + db > 0))
    if vanishing.size:
        p = space.ids[vanishing[0]]
        raise ValueError(f"d(x,A) + d(x,B) vanishes at {p!r}; matrix is degenerate")
    values = dict(zip(space.ids, (da / (da + db)).tolist()))
    return SampledFunction(values=values, label=f"separator(|A|={a.sum()},|B|={b.sum()})")


def modulus_of_continuity(space: FiniteSpace, f: SampledFunction, eta: float) -> float:
    """Minimum distance among pairs whose value gap is at least eta, each
    pair as close as its smaller entry.

    This is the largest valid delta for the gap threshold eta: every pair
    closer than the returned value has gap < eta.  ``math.inf`` when no pair
    reaches the gap.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    v, n, least = f.array(space), space.n, math.inf
    for start, hit in _pair_blocks(n, lambda i, j: np.abs(g := v[i, None] - v[j], out=g) >= eta):
        rows, columns = slice(start, start + len(hit)), slice(start, n)
        least = float(np.min(_pair_distance(space.dist, rows, columns), initial=least, where=hit))
    return least


def uc_witness_search(
    space: FiniteSpace, f: SampledFunction, eps0: float, delta: float
) -> WitnessPair | None:
    """Lexicographically least pair with distance (its smaller entry) < delta
    and gap >= eps0, or None when every delta-close pair has a small gap."""
    if not eps0 > 0:
        raise ValueError(f"eps0 must be positive, got {eps0!r}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    v, d = f.array(space), space.dist
    pair = _least_pair(
        space.n, lambda i, j: (d[i, j] < delta) & (np.abs(g := v[i, None] - v[j], out=g) >= eps0)
    )
    if pair is None:
        return None
    i, j = pair
    return WitnessPair(
        x=space.ids[i],
        y=space.ids[j],
        distance=float(_pair_distance(d, i, j)),
        gap=float(abs(v[i] - v[j])),
    )


def parity_function(space: FiniteSpace) -> SampledFunction:
    """1 where i+j is even, 0 where odd, reading (i, j) from ids ``p_{i}_{j}``.

    Continuous on the origin-free grid (its topology is discrete) yet not
    uniformly continuous: adjacent-j pairs get arbitrarily close while the
    gap stays 1.
    """
    values: dict[PointId, float] = {}
    for p in space.ids:
        m = _GRID_ID.fullmatch(p)
        if m is None:
            raise ValueError(f"point id {p!r} does not encode grid indices p_<i>_<j>")
        i, j = int(m.group(1)), int(m.group(2))
        values[p] = 1.0 if (i + j) % 2 == 0 else 0.0
    return SampledFunction(values=values, label="parity")
