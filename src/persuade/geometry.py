"""Pareto frontiers of type sets and slope-tangency queries, all in exact rationals.

A realized set of types is summarized by its Pareto frontier in the
(receiver utility, sender utility) plane. Signaling schemes for symmetric
instances recommend points on this frontier, indexed by the slope of the
tangent line: slope 0 touches the sender-optimal end, steeper (more negative)
slopes move toward the receiver-optimal end. The vertical slope is
``NEG_INF``, the float ``-math.inf``: `Fraction` orders, compares and hashes
against it, so it sorts below every rational slope, and any float -inf is
the same slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .model import ActionType

__all__ = [
    "NEG_INF",
    "FrontierSegment",
    "ParetoFrontier",
    "SegmentTangent",
    "Slope",
    "UniqueVertex",
    "line_side",
    "pareto_frontier",
    "point_for_slope",
    "slope_between",
]


# The slope of a vertical line: a float that compares below every rational.
NEG_INF = -math.inf

# A slope is an exact non-positive rational or NEG_INF.
Slope = Union[Fraction, float]


def slope_between(a: ActionType, b: ActionType) -> Slope | None:
    """Slope of the line through two type points; NEG_INF if vertical, None if coincident."""
    if a.rho == b.rho:
        return None if a.xi == b.xi else NEG_INF
    return (b.xi - a.xi) / (b.rho - a.rho)


def line_side(anchor: ActionType, s: Slope, point: ActionType) -> int:
    """Position of `point` relative to the line through `anchor` with slope `s`.

    Returns +1 strictly above, 0 on the line, -1 strictly below. For the
    vertical line (s = NEG_INF) "above" means strictly larger receiver utility,
    matching the limit of steep negative slopes.
    """
    if s == NEG_INF:
        if point.rho != anchor.rho:
            return 1 if point.rho > anchor.rho else -1
        return 0
    value = anchor.xi + s * (point.rho - anchor.rho)
    if point.xi == value:
        return 0
    return 1 if point.xi > value else -1


@dataclass(frozen=True)
class FrontierSegment:
    """Maximal straight segment of a frontier, with any interior vertices recorded."""

    left: ActionType
    right: ActionType
    slope: Fraction
    interior: tuple[ActionType, ...] = ()


@dataclass(frozen=True)
class ParetoFrontier:
    """Upper concave envelope of a type set, sorted by increasing receiver utility.

    Vertices are the types on the envelope: weakly dominated points and points
    strictly below a chord are dropped, collinear points stay (as segment
    interiors). Collinear runs are collapsed into one maximal segment per
    slope, so segment slopes are strictly decreasing and always negative.
    """

    vertices: tuple[ActionType, ...]
    segments: tuple[FrontierSegment, ...]


@dataclass(frozen=True)
class UniqueVertex:
    vertex: ActionType


@dataclass(frozen=True)
class SegmentTangent:
    left: ActionType
    right: ActionType


SlopeCorrespondence = Union[UniqueVertex, SegmentTangent]


def pareto_frontier(points: Iterable[ActionType]) -> ParetoFrontier:
    """Upper concave envelope of a non-empty set of type points.

    Weak dominance first: a point loses if some other point is at least as
    good in both coordinates (coincident duplicates keep only the lowest id).
    Undominated points strictly below a chord of the envelope are dropped too;
    tangency queries mix across them, never onto them.
    """
    seen: dict[str, ActionType] = {}
    for p in points:
        seen.setdefault(p.id, p)
    if not seen:
        raise ValueError("pareto_frontier: empty point set")
    ordered = sorted(seen.values(), key=lambda p: (-p.rho, -p.xi, p.id))
    staircase: list[ActionType] = []
    best_xi: Fraction | None = None
    for p in ordered:
        if best_xi is None or p.xi > best_xi:
            staircase.append(p)
            best_xi = p.xi
    staircase.reverse()  # rho ascending, xi descending

    # Concavity pass: edge slopes must never increase left to right. A strict
    # increase means the middle point sits below the chord around it; equal
    # slopes are collinear runs and stay.
    hull: list[ActionType] = []
    for p in staircase:
        while len(hull) >= 2:
            s_in = slope_between(hull[-2], hull[-1])
            s_out = slope_between(hull[-1], p)
            assert s_in is not None and s_out is not None
            if s_out > s_in:
                hull.pop()
            else:
                break
        hull.append(p)

    segments: list[FrontierSegment] = []
    run: list[ActionType] = []
    run_slope: Fraction | None = None
    for left, right in zip(hull, hull[1:]):
        s = slope_between(left, right)
        assert isinstance(s, Fraction) and s < 0, "staircase edges are finite and negative"
        if run_slope is not None and s == run_slope:
            run.append(right)
        else:
            if run_slope is not None:
                segments.append(
                    FrontierSegment(run[0], run[-1], run_slope, tuple(run[1:-1]))
                )
            run = [left, right]
            run_slope = s
    if run_slope is not None:
        segments.append(FrontierSegment(run[0], run[-1], run_slope, tuple(run[1:-1])))
    return ParetoFrontier(vertices=tuple(hull), segments=tuple(segments))


def _check_slope(s: Slope | int) -> Slope:
    """``s`` as a slope, an int as its `Fraction`; ValueError unless it is a
    rational <= 0 or -inf."""
    if isinstance(s, int):
        s = Fraction(s)
    if s != NEG_INF and (not isinstance(s, Fraction) or s > 0):
        raise ValueError(f"slope must be <= 0 or NEG_INF, got {s!r}")
    return s


def point_for_slope(frontier: ParetoFrontier, s: Slope | int) -> SlopeCorrespondence:
    """The frontier vertex or maximal segment tangent to slope `s` (s <= 0 or NEG_INF).

    The correspondence maximizes xi - s*rho over the frontier: slope 0 returns
    the sender-optimal vertex, NEG_INF the receiver-optimal vertex, and as s
    decreases the returned point moves weakly rightward.
    """
    s = _check_slope(s)
    if s == NEG_INF:
        return UniqueVertex(frontier.vertices[-1])
    for seg in frontier.segments:
        if seg.slope == s:
            return SegmentTangent(seg.left, seg.right)
    # Strictly between segment slopes: a unique vertex wins the tangency.
    best = frontier.vertices[0]
    best_score = best.xi - s * best.rho
    for v in frontier.vertices[1:]:
        score = v.xi - s * v.rho
        if score > best_score:
            best, best_score = v, score
    return UniqueVertex(best)
