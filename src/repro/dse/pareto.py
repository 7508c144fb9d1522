"""Pareto-front utilities and the ADRS metric.

DSE quality is measured with the average distance from reference set (ADRS):
the mean, over points of the exact Pareto front, of the distance to the
closest point of the approximate front found by a method.  Lower is better.

Two front representations live here:

* :func:`pareto_front` — a one-shot function over a list of points, used by
  the explorers and the evaluation bookkeeping;
* :class:`ParetoFront` — an **incremental, mergeable** front used by the
  sharded DSE engine (:mod:`repro.dse.sharding`).  Its result is a pure
  function of the *set* of points fed to it — insertion order, chunking and
  shard boundaries never change the outcome — which is what makes the
  multi-worker Pareto merge deterministic (see the class docstring for the
  exact tie-break and ordering rules).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated design: its configuration key and objective values.

    Objectives are minimized.  For the paper's DSE we use latency and a
    resource cost; any number of objectives is supported.
    """

    key: str
    objectives: tuple[float, ...]
    metadata: dict = field(default_factory=dict, hash=False, compare=False)


def dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """True if objective vector ``a`` Pareto-dominates ``b`` (minimization)."""
    at_least_as_good = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return at_least_as_good and strictly_better


def pareto_front(points: list[DesignPoint]) -> list[DesignPoint]:
    """Non-dominated subset of ``points`` (duplicates collapse to one)."""
    front: list[DesignPoint] = []
    seen: set[tuple[float, ...]] = set()
    for candidate in points:
        if any(
            dominates(other.objectives, candidate.objectives)
            for other in points
            if other is not candidate
        ):
            continue
        if candidate.objectives in seen:
            continue
        seen.add(candidate.objectives)
        front.append(candidate)
    return front


class ParetoFront:
    """Incremental Pareto front with a deterministic merge.

    Points are added with a stable integer ``order`` (the sharded engine
    uses the configuration id assigned by
    :class:`~repro.dse.space.DesignSpace`).  The front maintains three
    invariants that together make it **order-independent**:

    * a point is kept iff no other added point Pareto-dominates it;
    * of several points with *identical* objective vectors, the one with the
      smallest ``order`` is kept (the deterministic tie-break);
    * :meth:`points` returns members sorted lexicographically by
      ``(objectives, order)``.

    Because each rule depends only on the multiset of ``(objectives,
    order)`` pairs ever added, any partition of a point set into shards,
    reduced per shard and combined with :meth:`merge` (or
    :func:`merge_fronts`), yields a front *identical* — same members, same
    tie-break winners, same output order — to feeding every point through a
    single front.  This is the determinism guarantee the multi-worker DSE
    coordinator relies on.
    """

    __slots__ = ("_entries", "_auto_order")

    def __init__(self) -> None:
        self._entries: list[tuple[tuple[float, ...], int, DesignPoint]] = []
        self._auto_order = 0

    @classmethod
    def from_points(
        cls, points: Iterable[DesignPoint], orders: Iterable[int] | None = None
    ) -> "ParetoFront":
        """Build a front from points (``orders`` defaults to enumeration)."""
        front = cls()
        if orders is None:
            for point in points:
                front.add(point)
        else:
            for point, order in zip(points, orders):
                front.add(point, order)
        return front

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DesignPoint]:
        return iter(self.points())

    def add(self, point: DesignPoint, order: int | None = None) -> bool:
        """Offer one point to the front; returns True if it was retained.

        ``order`` is the point's stable identity for tie-breaking.  When
        omitted, an insertion counter is used — fine within one process, but
        callers that need cross-process determinism (the sharded engine)
        must pass an id that is stable across any partition of the points.
        """
        if order is None:
            order = self._auto_order
        self._auto_order = max(self._auto_order, order) + 1
        objectives = point.objectives
        for index, (existing, existing_order, _) in enumerate(self._entries):
            if existing == objectives:
                if order < existing_order:
                    self._entries[index] = (objectives, order, point)
                    return True
                return False
            if dominates(existing, objectives):
                return False
        self._entries = [
            entry for entry in self._entries if not dominates(objectives, entry[0])
        ]
        self._entries.append((objectives, order, point))
        return True

    def merge(self, other: "ParetoFront") -> "ParetoFront":
        """Fold another front into this one (in place); returns ``self``.

        ``front(A) ∪ front(B)`` reduced again equals ``front(A ∪ B)``:
        dropping dominated points inside a shard can never discard a member
        of the global front, so merging per-shard fronts loses nothing.
        """
        for objectives, order, point in other._entries:
            self.add(point, order)
        return self

    def points(self) -> list[DesignPoint]:
        """Front members in canonical ``(objectives, order)`` order."""
        return [
            point
            for _, _, point in sorted(self._entries, key=lambda e: (e[0], e[1]))
        ]

    def orders(self) -> list[int]:
        """Stable orders of the members, aligned with :meth:`points`."""
        return [
            order
            for _, order, _ in sorted(self._entries, key=lambda e: (e[0], e[1]))
        ]


def merge_fronts(fronts: Iterable[ParetoFront]) -> ParetoFront:
    """Merge per-shard fronts into one (deterministic, order-independent).

    The result equals the :class:`ParetoFront` of the union of all points
    ever offered to any of the inputs — see the class docstring for why.
    """
    merged = ParetoFront()
    for front in fronts:
        merged.merge(front)
    return merged


def fronts_bit_equal(a: list[DesignPoint], b: list[DesignPoint]) -> bool:
    """True when two fronts are *bit-identical*: same length, and pairwise
    equal keys and objective vectors (``==`` on floats, no tolerance).

    The one front comparison of the sharded engine: its fronts are
    bit-identical to the single-process engine's, across processes, shard
    layouts, recovery and resume (see :mod:`repro.dse.sharding`).
    """
    if len(a) != len(b):
        return False
    return all(
        pa.key == pb.key and pa.objectives == pb.objectives
        for pa, pb in zip(a, b)
    )


def _normalized_distance(
    reference: tuple[float, ...], candidate: tuple[float, ...]
) -> float:
    """Relative worst-dimension gap of ``candidate`` vs ``reference``.

    The standard ADRS distance ``f(gamma, omega)``: the maximum over
    objectives of the relative degradation, clipped at zero (a candidate that
    is better in one dimension is not rewarded for it).
    """
    worst = 0.0
    for ref_value, cand_value in zip(reference, candidate):
        denominator = abs(ref_value) if abs(ref_value) > 1e-12 else 1.0
        worst = max(worst, (cand_value - ref_value) / denominator)
    return max(0.0, worst)


def adrs(exact_front: list[DesignPoint], approx_front: list[DesignPoint]) -> float:
    """Average distance from reference set, as a fraction (0.069 = 6.91 %)."""
    if not exact_front:
        return 0.0
    if not approx_front:
        return float("inf")
    total = 0.0
    for reference in exact_front:
        total += min(
            _normalized_distance(reference.objectives, candidate.objectives)
            for candidate in approx_front
        )
    return total / len(exact_front)


def hypervolume_2d(
    front: list[DesignPoint], reference_point: tuple[float, float]
) -> float:
    """2-D hypervolume of a front w.r.t. a reference point (minimization)."""
    if not front:
        return 0.0
    points = sorted(
        {p.objectives[:2] for p in front
         if p.objectives[0] <= reference_point[0]
         and p.objectives[1] <= reference_point[1]}
    )
    if not points:
        return 0.0
    volume = 0.0
    previous_y = reference_point[1]
    for x, y in points:
        if y < previous_y:
            volume += (reference_point[0] - x) * (previous_y - y)
            previous_y = y
    return volume


def normalize_objectives(points: list[DesignPoint]) -> list[DesignPoint]:
    """Scale every objective to [0, 1] over the given set of points."""
    if not points:
        return []
    matrix = np.array([p.objectives for p in points], dtype=np.float64)
    minima = matrix.min(axis=0)
    maxima = matrix.max(axis=0)
    span = np.maximum(maxima - minima, 1e-12)
    normalized = (matrix - minima) / span
    return [
        DesignPoint(key=p.key, objectives=tuple(row), metadata=p.metadata)
        for p, row in zip(points, normalized)
    ]


__all__ = [
    "DesignPoint", "dominates", "pareto_front", "ParetoFront", "merge_fronts",
    "fronts_bit_equal", "adrs", "hypervolume_2d", "normalize_objectives",
]
