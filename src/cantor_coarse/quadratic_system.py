"""The quadratic family mu*x*(1-x) above the escape threshold.

For mu > 4 the parabola leaves the unit square, its two inverse branches
contract [0, 1] into itself, and iterating them produces the nested
interval covers of the invariant Cantor-type set.  This module is the
double-precision side of the artifact, in plain Python floats: a cover is
a tuple of ``(lo, hi)`` pairs, and identities here hold to 1e-12 at the
working depths, while the exact arithmetic lives in the symbolic layer.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import sub
from typing import Callable

from .code_space import Address

__all__ = [
    "IDENTITY_TOL",
    "IntervalCover",
    "PointEstimate",
    "QuadraticParams",
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


@dataclass(frozen=True)
class QuadraticParams:
    """Rate constant of the map mu*x*(1-x)."""

    mu: float

    def __post_init__(self) -> None:
        # the inverse branches are defined on all of [0, 1] only past the
        # escape threshold
        if not self.mu > 4:
            raise ValueError("mu must exceed 4: branch domain does not cover [0, 1]")


def logistic(p: QuadraticParams, x):
    """Evaluate mu*x*(1-x)."""
    return p.mu * x * (1.0 - x)


@dataclass(frozen=True)
class WeakContractionSystem:
    """Finitely many branches of an interval, each with a Lipschitz bound.

    ``modulus_inf`` holds one bound per branch: for smooth branches, the
    supremum of |f_j'|.  The constructor judges neither the bounds nor the
    recorded fixed points; ``verify_statement_conditions`` reports whether
    the bounds contract and sum below one, and each fixed point's residual.
    """

    branches: tuple[Callable, ...]
    modulus_inf: tuple[float, ...]
    fixed_points: tuple[float, ...]
    carrier: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        m = len(self.branches)
        if m < 2:
            raise ValueError("need at least two branches")
        if len(self.modulus_inf) != m:
            raise ValueError("per-branch fields disagree on the branch count")

    @property
    def branch_count(self) -> int:
        return len(self.branches)


def inverse_branches(p: QuadraticParams) -> WeakContractionSystem:
    """The two inverse branches of the quadratic map as a contraction system.

    Solving mu*x*(1-x) = y gives x = (1 -+ sqrt(1 - 4y/mu))/2.  The low
    branch takes values in [0, 1/2] and the high branch in [1/2, 1], which
    fixes the symbolic coding orientation.  |f'| peaks at y = 1 with value
    1/sqrt(mu*(mu-4)), recorded as each branch's modulus; the fixed points
    are 0 (low branch) and 1 - 1/mu (high branch).
    """
    mu = p.mu

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


@dataclass(frozen=True)
class BranchCheck:
    branch: int
    strictly_monotone: bool


@dataclass(frozen=True)
class StatementReport:
    """Evidence for the injectivity / fixed-point / modulus-sum conditions."""

    branch_checks: tuple[BranchCheck, ...]
    injective: bool
    fixed_points: tuple[float, ...]
    distinct_fixed_points: int
    fixed_point_residual: float
    not_singleton: bool
    modulus_sum: float
    modulus_sum_below_one: bool

    @property
    def conditions(self) -> tuple[bool, bool, bool]:
        return (self.injective, self.not_singleton, self.modulus_sum_below_one)

    @property
    def all_pass(self) -> bool:
        return all(self.conditions)


def _distinct_count(values: tuple[float, ...], tol: float) -> int:
    if not values:
        return 0
    xs = sorted(values)
    return 1 + sum(1 for a, b in zip(xs, xs[1:]) if b - a > tol)


def verify_statement_conditions(
    sys: WeakContractionSystem,
    grid: int = 2**12 + 1,
    tol: float = IDENTITY_TOL,
) -> StatementReport:
    """Check the three contraction-system conditions; failures are reported,
    not raised.

    Injectivity is decided by strict monotonicity of each branch on the
    grid ``lo + i*(hi-lo)/(grid-1)``, i = 0..grid-1.  The default grid is
    dyadic and exact on [0, 1], with a step of 1/4096 (about 2.4e-4); the
    narrowest fold it is tested to catch is 3e-4 wide.
    """
    lo, hi = sys.carrier
    ys = [lo + i * (hi - lo) / (grid - 1) for i in range(grid)]
    checks = []
    for j, branch in enumerate(sys.branches):
        vals = [float(branch(y)) for y in ys]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        monotone = all(d > 0 for d in diffs) or all(d < 0 for d in diffs)
        checks.append(BranchCheck(branch=j, strictly_monotone=monotone))
    injective = all(c.strictly_monotone for c in checks)
    residual = max(
        (min(abs(float(b(z)) - z) for b in sys.branches) for z in sys.fixed_points),
        default=0.0,
    )
    distinct = _distinct_count(sys.fixed_points, tol)
    modulus_sum = float(sum(sys.modulus_inf))
    return StatementReport(
        branch_checks=tuple(checks),
        injective=injective,
        fixed_points=sys.fixed_points,
        distinct_fixed_points=distinct,
        fixed_point_residual=residual,
        not_singleton=distinct >= 2,
        modulus_sum=modulus_sum,
        modulus_sum_below_one=modulus_sum < 1.0,
    )


Interval = tuple[float, float]


@dataclass(frozen=True, eq=False)
class IntervalCover:
    """Sorted disjoint closed subintervals of [0, 1] approximating the
    invariant set at one truncation depth."""

    depth: int
    intervals: tuple[Interval, ...]  # (lo, hi) pairs in increasing order

    def __post_init__(self) -> None:
        try:
            ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        except (TypeError, ValueError):
            ivs = ()  # not a sequence of pairs: rejected like an empty one
        if not ivs:
            raise ValueError("intervals must form a non-empty (m, 2) array")
        if any(lo > hi for lo, hi in ivs):
            raise ValueError("interval with negative length")
        if any(b[0] <= a[1] for a, b in zip(ivs, ivs[1:])):
            raise ValueError("intervals overlap or are unsorted")
        object.__setattr__(self, "intervals", ivs)

    def __len__(self) -> int:
        return len(self.intervals)

    def subset_of(self, other: "IntervalCover") -> bool:
        """Every interval of self contained in a single interval of other."""
        starts = [lo for lo, _ in other.intervals]
        for lo, hi in self.intervals:
            i = bisect_right(starts, lo) - 1
            if i < 0 or hi > other.intervals[i][1]:
                return False
        return True


def _trusted_cover(depth: int, pieces: list[Interval]) -> IntervalCover:
    """``IntervalCover(depth, pieces)`` for pieces ``_branch_images`` has
    already sorted and checked for overlap.

    Skips the second validation pass of ``IntervalCover.__post_init__``;
    the branches return floats, so the stored pairs are the same.
    """
    cover = object.__new__(IntervalCover)
    fields = cover.__dict__  # the frozen dataclass's own storage
    fields["depth"] = depth
    fields["intervals"] = tuple(pieces)
    return cover


def _branch_images(sys: WeakContractionSystem, intervals: tuple[Interval, ...]) -> list[Interval]:
    """Images of the intervals under every branch, sorted and disjoint."""
    pieces = []
    for branch in sys.branches:
        for lo, hi in intervals:
            a, b = branch(lo), branch(hi)  # monotone branches map endpoints
            pieces.append((a, b) if a <= b else (b, a))
    pieces.sort()
    if any(b[0] <= a[1] for a, b in zip(pieces, pieces[1:])):
        raise ValueError("open set condition violated")
    return pieces


def invariant_cover(sys: WeakContractionSystem, n: int) -> IntervalCover:
    """Depth-n cover of the invariant set: n-fold branch images of the carrier."""
    if n < 0:
        raise ValueError("depth must be non-negative")
    if n == 0:  # the carrier comes from the caller, so it is validated
        return IntervalCover(0, (sys.carrier,))
    ivs = (sys.carrier,)
    for _ in range(n):
        ivs = _branch_images(sys, ivs)
    return _trusted_cover(n, ivs)


def refine_cover(sys: WeakContractionSystem, cover: IntervalCover) -> IntervalCover:
    """One more branch application: the union of branch images of ``cover``."""
    return _trusted_cover(cover.depth + 1, _branch_images(sys, cover.intervals))


def cover_chain(sys: WeakContractionSystem, depth: int) -> list[IntervalCover]:
    """The covers of depths 0..depth, each refining the one before."""
    covers = [invariant_cover(sys, 0)]
    for _ in range(depth):
        covers.append(refine_cover(sys, covers[-1]))
    return covers


def forward_distance(p: QuadraticParams, finer: IntervalCover, cover: IntervalCover) -> float:
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
    for mu in (4, 1000].
    """
    ivs = finer.intervals
    k = bisect_left(ivs, (0.5,))  # the intervals that start left of 1/2
    low = [(logistic(p, lo), logistic(p, hi)) for lo, hi in ivs[:k]]
    high = [(logistic(p, hi), logistic(p, lo)) for lo, hi in reversed(ivs[k:])]
    return max(hausdorff_distance(_trusted_cover(cover.depth, side), cover) for side in (low, high))


@dataclass(frozen=True)
class PointEstimate:
    """A point located to within ``radius`` of ``value``."""

    value: float
    radius: float

    @property
    def interval(self) -> tuple[float, float]:
        return (self.value - self.radius, self.value + self.radius)


def itinerary_point(sys: WeakContractionSystem, a: Address, n: int) -> PointEstimate:
    """Locate the point coded by ``a`` at depth ``n``.

    Applies the branches named by the first n symbols to the carrier,
    innermost symbol first, and returns the midpoint and half-width of the
    resulting interval.  The radius shrinks like modulus**n.
    """
    if n < 1:
        raise ValueError("depth must be at least 1")
    word = a.symbols(n)
    lo, hi = sys.carrier
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


def _least_gap(ends: list[float]) -> float:
    """The narrowest gap of a cover given as its flattened endpoints."""
    return min(map(sub, ends[2::2], ends[1::2]), default=math.inf)


def hausdorff_distance(c1: IntervalCover, c2: IntervalCover) -> float:
    """Exact Hausdorff distance between two closed interval unions.

    Covers with equal counts are first paired interval by interval.  Let
    e be the largest move between paired endpoints.  Each interval lies
    within e of its partner, and when 2e is below every gap of both
    covers, the endpoint that moved by e is e from the other union, so
    the distance is e, the same float the sweep returns.  Otherwise both
    directed distances are swept.
    """
    A, B = c1.intervals, c2.intervals
    if len(A) == len(B):
        ends1, ends2 = list(chain.from_iterable(A)), list(chain.from_iterable(B))
        e = max(map(abs, map(sub, ends1, ends2)))
        if 2.0 * e < min(_least_gap(ends1), _least_gap(ends2)):
            return e
    return max(_directed_hausdorff(A, B), _directed_hausdorff(B, A))
