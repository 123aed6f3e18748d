"""Deterministic generators for the reference spaces, with derived-set oracles.

Each generator returns ``(FiniteSpace, DerivedSetView)`` where the view is the
oracle derived set of the full infinite space the truncation samples, not the
(empty) derived set of the truncation itself.  Point-id encodings are fixed:

- ``sequence_grid``: ids ``p_{i}_{j}`` (e.g. ``p_1_2``), plus ``zero`` for the
  origin when included; canonical order is origin first, then row-major (i, j).
- ``positive_integers`` / ``convergent_sequence``: ids ``n{k}`` (``n1`` is the
  integer 1 resp. the value 1), plus ``zero`` for the limit point 0.
"""

from __future__ import annotations

from .analysis import DerivedSetView
from .space import FiniteSpace, PointSpec, build_space

__all__ = ["sequence_grid", "positive_integers", "convergent_sequence"]


def grid_point_id(i: int, j: int) -> str:
    return f"p_{i}_{j}"


def sequence_grid(
    i_max: int, j_max: int, include_origin: bool
) -> tuple[FiniteSpace, DerivedSetView]:
    """Points p_ij = (1/j in slot i, zeros elsewhere), optionally with the
    origin, under the l2 distance.

    Same-slot points are 1/j - 1/l apart; cross-slot points are
    sqrt(1/j^2 + 1/l^2) apart.  The origin is the unique limit point of the
    infinite space, so the oracle is {zero} when it is included, else empty.
    """
    if i_max < 1 or j_max < 1:
        raise ValueError(f"i_max and j_max must be >= 1, got ({i_max}, {j_max})")
    specs = []
    if include_origin:
        specs.append(PointSpec("zero", {}))
    for i in range(1, i_max + 1):
        for j in range(1, j_max + 1):
            specs.append(PointSpec(grid_point_id(i, j), {i: 1.0 / j}))
    space = build_space(specs)
    members = frozenset({"zero"}) if include_origin else frozenset()
    return space, DerivedSetView(members)


def positive_integers(n_max: int, metric: str = "d1") -> tuple[FiniteSpace, DerivedSetView]:
    """The integers 1..n_max under d1(a,b) = |a-b| or d2(a,b) = |1/a - 1/b|.

    Every point is isolated under both metrics, so the oracle is empty.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if metric == "d1":
        specs = [PointSpec(f"n{k}", {1: float(k)}) for k in range(1, n_max + 1)]
    elif metric == "d2":
        specs = [PointSpec(f"n{k}", {1: 1.0 / k}) for k in range(1, n_max + 1)]
    else:
        raise ValueError(f"metric must be 'd1' or 'd2', got {metric!r}")
    space = build_space(specs)
    return space, DerivedSetView(frozenset())


def convergent_sequence(n_max: int) -> tuple[FiniteSpace, DerivedSetView]:
    """{0} together with 1/n for n = 1..n_max under |x - y|; oracle {zero}.

    Canonical order is 0, 1, 1/2, 1/3, ...
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    specs = [PointSpec("zero", {})]
    specs += [PointSpec(f"n{k}", {1: 1.0 / k}) for k in range(1, n_max + 1)]
    space = build_space(specs)
    return space, DerivedSetView(frozenset({"zero"}))
