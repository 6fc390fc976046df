"""The quadratic family mu*x*(1-x) above the escape threshold.

For mu > 4 the parabola leaves the unit square, its two inverse branches
contract [0, 1] into itself, and iterating them produces the nested
interval covers of the invariant Cantor-type set.  This module is the
double-precision side of the artifact, in plain Python floats: a cover is
one flat tuple of endpoints ``lo0, hi0, lo1, hi1, ...``, which the
kernels walk with ``map``, ``zip`` and slices, and identities here hold to
1e-12 at the working depths, while the exact arithmetic lives in the
symbolic layer.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
from functools import cached_property
from itertools import chain
from operator import gt, itemgetter, le, lt, sub

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .code_space import Address

__all__ = [
    "IDENTITY_TOL",
    "IntervalCover",
    "PointEstimate",
    "StatementReport",
    "WeakContractionSystem",
    "cover_chain",
    "forward_distance",
    "hausdorff_distance",
    "inverse_branches",
    "invariant_cover",
    "itinerary_point",
    "logistic",
    "refine_cover",
    "verify_statement_conditions",
]

IDENTITY_TOL = 1e-12


def logistic(mu: float, x):
    """Evaluate mu*x*(1-x)."""
    return mu * x * (1.0 - x)


class WeakContractionSystem:
    """Finitely many branches of [0, 1], each with a Lipschitz bound.

    ``modulus_inf`` holds one bound per branch: for smooth branches, the
    supremum of |f_j'|.  The constructor judges neither the bounds nor the
    recorded fixed points; ``verify_statement_conditions`` reports whether
    the bounds contract and sum below one, and each fixed point's residual.
    """

    __slots__ = ("branches", "modulus_inf", "fixed_points")

    def __init__(
        self,
        branches: tuple[Callable, ...],
        modulus_inf: tuple[float, ...],
        fixed_points: tuple[float, ...],
    ) -> None:
        if len(branches) < 2:
            raise ValueError("need at least two branches")
        if len(modulus_inf) != len(branches):
            raise ValueError("per-branch fields disagree on the branch count")
        self.branches = branches
        self.modulus_inf = modulus_inf
        self.fixed_points = fixed_points


def inverse_branches(mu: float) -> WeakContractionSystem:
    """The two inverse branches of the quadratic map as a contraction system.

    Solving mu*x*(1-x) = y gives x = (1 -+ sqrt(1 - 4y/mu))/2.  The low
    branch takes values in [0, 1/2] and the high branch in [1/2, 1], which
    fixes the symbolic coding orientation.  |f'| peaks at y = 1 with value
    1/sqrt(mu*(mu-4)), recorded as each branch's modulus; the fixed points
    are 0 (low branch) and 1 - 1/mu (high branch).  The branches are
    defined on all of [0, 1] only past the escape threshold mu = 4.
    """
    if not mu > 4:
        raise ValueError("mu must exceed 4: branch domain does not cover [0, 1]")

    def low(y):
        return 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * y / mu))

    def high(y):
        return 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * y / mu))

    alpha = 1.0 / math.sqrt(mu * (mu - 4.0))
    return WeakContractionSystem(
        branches=(low, high),
        modulus_inf=(alpha, alpha),
        fixed_points=(0.0, 1.0 - 1.0 / mu),
    )


class StatementReport:
    """Evidence for the injectivity / fixed-point / modulus-sum conditions.

    ``strictly_monotone`` holds one bool per branch, in branch order.
    """

    __slots__ = ("strictly_monotone", "fixed_points", "distinct_fixed_points", "fixed_point_residual", "modulus_sum")

    def __init__(
        self,
        strictly_monotone: tuple[bool, ...],
        fixed_points: tuple[float, ...],
        distinct_fixed_points: int,
        fixed_point_residual: float,
        modulus_sum: float,
    ) -> None:
        self.strictly_monotone = strictly_monotone
        self.fixed_points = fixed_points
        self.distinct_fixed_points = distinct_fixed_points
        self.fixed_point_residual = fixed_point_residual
        self.modulus_sum = modulus_sum

    @property
    def injective(self) -> bool:
        return all(self.strictly_monotone)

    @property
    def not_singleton(self) -> bool:
        return self.distinct_fixed_points >= 2

    @property
    def modulus_sum_below_one(self) -> bool:
        return self.modulus_sum < 1.0


def _increasing(v: list[float]) -> bool:
    """Whether ``v`` is strictly increasing."""
    return all(map(lt, v, v[1:]))


def _decreasing(v: list[float]) -> bool:
    """Whether ``v`` is strictly decreasing."""
    return all(map(gt, v, v[1:]))


def _distinct_count(values: tuple[float, ...], tol: float) -> int:
    if not values:
        return 0
    xs = sorted(values)
    return 1 + sum(1 for a, b in zip(xs, xs[1:]) if b - a > tol)


def verify_statement_conditions(sys: WeakContractionSystem) -> StatementReport:
    """Check the three contraction-system conditions; failures are reported,
    not raised.

    Injectivity is decided by strict monotonicity of each branch on the
    dyadic grid ``i / 4096``, i = 0..4096, exact on [0, 1], with a step of
    about 2.4e-4; the narrowest fold it is tested to catch is 3e-4 wide.
    """
    ys = [i / 4096 for i in range(4097)]
    monotone = []
    for branch in sys.branches:
        vals = list(map(float, map(branch, ys)))
        monotone.append(_increasing(vals) or _decreasing(vals))
    residual = max(
        (min(abs(float(b(z)) - z) for b in sys.branches) for z in sys.fixed_points),
        default=0.0,
    )
    return StatementReport(
        strictly_monotone=tuple(monotone),
        fixed_points=sys.fixed_points,
        distinct_fixed_points=_distinct_count(sys.fixed_points, IDENTITY_TOL),
        fixed_point_residual=residual,
        modulus_sum=float(sum(sys.modulus_inf)),
    )


Interval = tuple[float, float]


class IntervalCover:
    """Sorted disjoint closed subintervals of [0, 1] approximating the
    invariant set at one truncation depth.

    Built from ``(lo, hi)`` pairs, which are validated: every endpoint
    finite, no interval of negative length, and each interval strictly
    left of the next.  Stored as one flat tuple ``ends`` of endpoints
    ``lo0, hi0, lo1, hi1, ...``, which the kernels walk; ``intervals`` is
    the pair view, built on first read.
    """

    def __init__(self, depth: int, intervals) -> None:
        try:
            ends = tuple(float(x) for lo, hi in intervals for x in (lo, hi))
        except (TypeError, ValueError):
            ends = ()  # not a sequence of pairs: rejected like an empty one
        if not ends:
            raise ValueError("intervals must form a non-empty (m, 2) array")
        if not all(map(math.isfinite, ends)):
            raise ValueError("interval endpoint is not finite")
        if any(map(gt, ends[::2], ends[1::2])):
            raise ValueError("interval with negative length")
        if any(map(le, ends[2::2], ends[1::2])):
            raise ValueError("intervals overlap or are unsorted")
        self.depth = depth
        self.ends = ends

    @cached_property
    def intervals(self) -> tuple[Interval, ...]:
        """The ``(lo, hi)`` pairs in increasing order."""
        return tuple(zip(self.ends[::2], self.ends[1::2]))

    @cached_property
    def _least_gap(self) -> float:
        """The narrowest gap between neighbouring intervals; inf for one."""
        ends = self.ends
        return min(map(sub, ends[2::2], ends[1::2]), default=math.inf)

    def __len__(self) -> int:
        return len(self.ends) >> 1


def _trusted_cover(depth: int, ends: tuple[float, ...]) -> IntervalCover:
    """An ``IntervalCover`` of flat endpoints known to be sorted and
    separated: [0, 1] is, ``_branch_images`` checks its own, and
    ``forward_distance`` says why its sides are.

    Skips the validation of ``IntervalCover.__init__``; the branches and
    the map return floats, so the stored endpoints are the same.
    """
    cover = object.__new__(IntervalCover)
    cover.depth = depth
    cover.ends = ends
    return cover


class _OpenSetViolation(ValueError):
    """Two branch images of a cover meet: the open set condition fails.

    ``cover_chain`` stops at this error alone; any other error of a branch
    propagates.
    """


def _branch_images(sys: WeakContractionSystem, ends: tuple[float, ...]) -> tuple[float, ...]:
    """Endpoints of the images of the cover ``ends`` under every branch,
    sorted and disjoint.

    Each branch is evaluated once per endpoint.  A branch whose images are
    strictly monotone lists its image intervals already sorted, forwards
    or backwards; when every branch does and their ranges are disjoint,
    the branches in order of their least image are the sorted cover.
    Otherwise ``_paired_images`` sorts the same images, and any two image
    intervals that meet violate the open set condition.
    """
    images = [list(map(branch, ends)) for branch in sys.branches]
    runs = []
    for v in images:
        if _increasing(v):
            runs.append(v)
        elif _decreasing(v):
            runs.append(v[::-1])
        else:
            break
    else:
        runs.sort(key=itemgetter(0))
        if all(a[-1] < b[0] for a, b in zip(runs, runs[1:])):
            return tuple(chain.from_iterable(runs))
    pieces = _paired_images(images)
    if any(b[0] <= a[1] for a, b in zip(pieces, pieces[1:])):
        raise _OpenSetViolation("open set condition violated")
    return tuple(chain.from_iterable(pieces))


def _paired_images(images: list[list[float]]) -> list[Interval]:
    """Each branch's endpoint images paired into intervals, all sorted."""
    pieces = []
    for v in images:
        for a, b in zip(v[::2], v[1::2]):  # monotone branches map endpoints
            pieces.append((a, b) if a <= b else (b, a))
    pieces.sort()
    return pieces


def invariant_cover(sys: WeakContractionSystem, n: int) -> IntervalCover:
    """Depth-n cover of the invariant set: n-fold branch images of [0, 1]."""
    if n < 0:
        raise ValueError("depth must be non-negative")
    ends = (0.0, 1.0)
    for _ in range(n):
        ends = _branch_images(sys, ends)
    return _trusted_cover(n, ends)


def refine_cover(sys: WeakContractionSystem, cover: IntervalCover) -> IntervalCover:
    """One more branch application: the union of branch images of ``cover``."""
    return _trusted_cover(cover.depth + 1, _branch_images(sys, cover.ends))


def cover_chain(sys: WeakContractionSystem, depth: int) -> list[IntervalCover]:
    """The covers of depths 0..depth, each refining the one before, or up
    to the deepest one double precision separates: the chain stops where a
    refinement's branch images meet in floating point, a resolution limit
    that falls with ``mu``, not a false claim.  ``invariant_cover`` and
    ``refine_cover`` raise there instead, and any other error of a branch
    propagates."""
    covers = [invariant_cover(sys, 0)]
    for _ in range(depth):
        try:
            covers.append(refine_cover(sys, covers[-1]))
        except _OpenSetViolation:  # branch images meet in floating point
            break
    return covers


def forward_distance(mu: float, finer: IntervalCover, cover: IntervalCover) -> float:
    """How far mu*x*(1-x) is from taking ``finer`` onto ``cover``.

    The depth-(n + 1) cover of the invariant set has one copy of the
    depth-n cover on each side of the critical point 1/2, and the map
    takes each copy back onto the depth-n cover: increasingly on the left,
    decreasingly on the right.  Each side's images are listed in
    increasing order, and the larger of the two sides' Hausdorff
    distances to ``cover`` is returned.

    Every interval of ``finer`` lies on one side of 1/2, as at every depth
    n + 1 >= 1 for mu > 4.  The map is strictly monotone on each side, so
    a side's images are sorted and disjoint, as ``hausdorff_distance``
    needs; in double precision this was seen to hold on every cover built
    for mu in (4, 1000].  The map is evaluated once per endpoint, in
    ``logistic``'s order of operations.  A side with no interval is
    infinitely far from ``cover``, as the empty set is from any other.
    """
    ends = finer.ends
    k = 2 * bisect_left(ends[::2], 0.5)  # endpoints of the intervals starting left of 1/2
    if not 0 < k < len(ends):
        return math.inf
    images = [mu * x * (1.0 - x) for x in ends]  # logistic's expression
    sides = (images[:k], images[k:][::-1])
    return max(hausdorff_distance(_trusted_cover(cover.depth, tuple(side)), cover) for side in sides)


class PointEstimate:
    """A point located to within ``radius`` of ``value``."""

    __slots__ = ("value", "radius")

    def __init__(self, value: float, radius: float) -> None:
        self.value = value
        self.radius = radius

    @property
    def interval(self) -> tuple[float, float]:
        return (self.value - self.radius, self.value + self.radius)


def itinerary_point(sys: WeakContractionSystem, a: Address, n: int) -> PointEstimate:
    """Locate the point coded by ``a`` at depth ``n``.

    Applies the branches named by the first n symbols to [0, 1],
    innermost symbol first, and returns the midpoint and half-width of the
    resulting interval.  The radius shrinks like modulus**n.
    """
    if n < 1:
        raise ValueError("depth must be at least 1")
    word = a.symbols(n)
    lo, hi = 0.0, 1.0
    for sym in reversed(word):
        branch = sys.branches[int(sym)]
        lo, hi = sorted((float(branch(lo)), float(branch(hi))))
    return PointEstimate(0.5 * (lo + hi), 0.5 * (hi - lo))


def _directed_hausdorff(A: tuple[Interval, ...], B: tuple[Interval, ...]) -> float:
    # d(., B) is piecewise linear with slope +-1, so its sup over the
    # closed union A is attained at an endpoint of A or at a gap midpoint
    # of B lying inside A.  Both unions are sorted, so one sweep over A
    # moves two pointers forward through B: B[j] is the first interval of
    # B not wholly left of the current endpoint, and gap g, between B[g-1]
    # and B[g], is the first whose midpoint is not left of the current
    # interval.
    worst = 0.0
    nb = len(B)
    j, g = 0, 1
    for lo, hi in A:
        for x in (lo, hi):
            while j < nb and B[j][1] < x:
                j += 1
            if j == nb:
                d = x - B[-1][1]
            elif B[j][0] <= x:
                continue  # inside B[j]
            elif j == 0:
                d = B[0][0] - x
            else:
                d = min(x - B[j - 1][1], B[j][0] - x)
            if d > worst:
                worst = d
        while g < nb:
            left, right = B[g - 1][1], B[g][0]
            mid = 0.5 * (left + right)
            if mid > hi:
                break
            if lo <= mid:
                d = min(mid - left, right - mid)
                if d > worst:
                    worst = d
            g += 1
    return worst


def hausdorff_distance(c1: IntervalCover, c2: IntervalCover) -> float:
    """Exact Hausdorff distance between two closed interval unions.

    Covers with equal counts are first paired interval by interval.  Let
    e be the largest move between paired endpoints.  Each interval lies
    within e of its partner, and when 2e is below every gap of both
    covers, the endpoint that moved by e is e from the other union, so
    the distance is e, the same float the sweep returns.  Otherwise both
    directed distances are swept.
    """
    if len(c1.ends) == len(c2.ends):
        e = max(map(abs, map(sub, c1.ends, c2.ends)))
        if 2.0 * e < min(c1._least_gap, c2._least_gap):
            return e
    A, B = c1.intervals, c2.intervals
    return max(_directed_hausdorff(A, B), _directed_hausdorff(B, A))
