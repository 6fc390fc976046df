"""Tests for the quadratic branches, interval covers and the Hausdorff sweep."""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from itertools import chain
from operator import sub

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cantor_coarse import quadratic_system
from cantor_coarse.campaign import _statement_checks
from cantor_coarse.cli import RunConfig, run_campaign
from cantor_coarse.code_space import Address
from cantor_coarse.quadratic_system import (
    IntervalCover,
    WeakContractionSystem,
    _branch_images,
    _directed_hausdorff,
    cover_chain,
    forward_distance,
    hausdorff_distance,
    invariant_cover,
    inverse_branches,
    itinerary_point,
    logistic,
    refine_cover,
    verify_statement_conditions,
)
from conftest import subset_of

MU5 = 5.0


def toy_system(b1, b2, fixed, moduli):
    return WeakContractionSystem(
        branches=(b1, b2),
        modulus_inf=tuple(moduli),
        fixed_points=tuple(fixed),
    )


class TestLogistic:
    def test_origin_is_fixed(self):
        assert logistic(MU5, 0.0) == 0.0

    def test_interior_fixed_point(self):
        # solve mu*x*(1-x) = x: the nonzero root is 1 - 1/mu
        x = 1.0 - 1.0 / 5.0
        assert logistic(MU5, x) == pytest.approx(x, abs=1e-15)

    def test_peak_escapes_for_mu_above_four(self):
        assert logistic(4.5, 0.5) == pytest.approx(1.125)


class TestInverseBranches:
    def test_mu_validation(self):
        with pytest.raises(ValueError, match="mu must exceed 4"):
            inverse_branches(3.9)
        with pytest.raises(ValueError, match="mu must exceed 4"):
            inverse_branches(4.0)

    def test_endpoint_values(self):
        sys5 = inverse_branches(MU5)
        assert sys5.branches[0](0.0) == 0.0
        assert sys5.branches[1](0.0) == 1.0

    def test_fixed_points(self):
        sys5 = inverse_branches(MU5)
        assert sys5.fixed_points == (0.0, 0.8)
        for z in sys5.fixed_points:
            assert min(abs(float(b(z)) - z) for b in sys5.branches) < 1e-12

    def test_modulus_matches_grid_maximization(self):
        # oracle: maximize |f'| = 1/(mu*sqrt(1-4y/mu)) over a dense grid
        mu = 5.0
        ys = [i / 1_000_000 for i in range(1_000_001)]
        observed = max(1.0 / (mu * math.sqrt(1.0 - 4.0 * y / mu)) for y in ys)
        closed_form = 1.0 / math.sqrt(mu * (mu - 4.0))
        assert abs(observed - closed_form) < 1e-9
        assert inverse_branches(MU5).modulus_inf == (closed_form, closed_form)

    def test_branches_invert_the_map(self):
        sys5 = inverse_branches(MU5)
        rng = random.Random(0)
        for _ in range(10_000):
            y = rng.random()
            for branch in sys5.branches:
                assert abs(logistic(MU5, float(branch(y))) - y) < 1e-12

    def test_branch_ranges_fix_the_coding_orientation(self):
        sys5 = inverse_branches(MU5)
        ys = [i / 1000 for i in range(1001)]
        assert all(sys5.branches[0](y) <= 0.5 for y in ys)
        assert all(sys5.branches[1](y) >= 0.5 for y in ys)

    def test_lipschitz_bound_on_random_pairs(self):
        sys5 = inverse_branches(MU5)
        alpha = sys5.modulus_inf[0]
        rng = random.Random(1)
        for _ in range(10_000):
            y1, y2 = rng.random(), rng.random()
            for branch in sys5.branches:
                lhs = abs(float(branch(y1)) - float(branch(y2)))
                assert lhs <= alpha * abs(y1 - y2) + 1e-12


class TestStatementConditions:
    def test_mu_five_passes_all_three(self):
        report = verify_statement_conditions(inverse_branches(MU5))
        assert (report.injective, report.not_singleton, report.modulus_sum_below_one) == (True, True, True)
        assert report.distinct_fixed_points == 2
        assert report.fixed_point_residual < 1e-12
        assert abs(report.modulus_sum - 2.0 / math.sqrt(5.0)) < 1e-9

    def test_mu_four_and_a_half_fails_the_modulus_sum(self):
        report = verify_statement_conditions(inverse_branches(4.5))
        assert (report.injective, report.not_singleton, report.modulus_sum_below_one) == (True, True, False)
        assert report.modulus_sum == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_threshold_for_the_modulus_sum(self):
        # 2/sqrt(mu*(mu-4)) = 1 exactly at mu = 2 + 2*sqrt(2)
        thr = 2.0 + 2.0 * math.sqrt(2.0)
        assert verify_statement_conditions(
            inverse_branches(thr + 1e-4)
        ).modulus_sum_below_one
        assert not verify_statement_conditions(
            inverse_branches(thr - 1e-4)
        ).modulus_sum_below_one

    def test_shared_fixed_point_fails_not_singleton(self):
        sys_ = toy_system(lambda y: y / 3.0, lambda y: y / 4.0, (0.0, 0.0), (1 / 3, 1 / 4))
        report = verify_statement_conditions(sys_)
        assert report.not_singleton is False
        assert report.injective is True

    def test_fold_wider_than_one_grid_step_fails_injectivity(self):
        # a 3e-4 wide fold, a little over the 1/4096 grid step, in an
        # otherwise increasing branch
        def folded(y):
            return 0.25 * y - 0.5 * max(0.0, 3e-4 - abs(y - 0.3))

        def high(y):
            return 0.75 + 0.25 * y

        def system(low):
            return toy_system(low, high, (0.0, 1.0), (0.25, 0.25))

        assert verify_statement_conditions(system(lambda y: 0.25 * y)).injective
        report = verify_statement_conditions(system(folded))
        assert report.injective is False
        assert report.strictly_monotone == (False, True)

    def test_non_monotone_branch_fails_injectivity(self):
        sys_ = toy_system(
            lambda y: 0.25 + 0.1 * math.sin(6.0 * y),
            lambda y: 0.75 + 0.2 * (y - 0.5) ** 2,
            (),
            (0.6, 0.4),
        )
        report = verify_statement_conditions(sys_)
        assert report.injective is False


class TestSubsetOf:
    """The tests' nesting oracle, ``conftest.subset_of``."""

    OTHER = IntervalCover(0, [(0.1, 0.4), (0.5, 0.9)])

    def test_interval_straddling_two_intervals(self):
        assert not subset_of(IntervalCover(0, [(0.3, 0.6)]), self.OTHER)

    def test_interval_starting_before_the_first(self):
        assert not subset_of(IntervalCover(0, [(0.0, 0.2)]), self.OTHER)
        assert not subset_of(IntervalCover(0, [(0.05, 0.08)]), self.OTHER)

    def test_shared_endpoints_are_contained(self):
        assert subset_of(IntervalCover(0, [(0.1, 0.4), (0.5, 0.5), (0.9, 0.9)]), self.OTHER)

    def test_interval_past_the_last(self):
        assert not subset_of(IntervalCover(0, [(0.6, 0.95)]), self.OTHER)
        assert not subset_of(IntervalCover(0, [(0.95, 1.0)]), self.OTHER)


class TestInvariantCover:
    def test_depth_zero_is_the_carrier(self):
        c = invariant_cover(inverse_branches(MU5), 0)
        assert len(c) == 1
        assert c.intervals == ((0.0, 1.0),)

    def test_depth_one_endpoints(self):
        c = invariant_cover(inverse_branches(MU5), 1)
        f1_1 = 0.5 * (1.0 - math.sqrt(0.2))
        (lo0, hi0), (lo1, hi1) = c.intervals
        assert [lo0, hi0, lo1, hi1] == pytest.approx([0.0, f1_1, 1.0 - f1_1, 1.0], abs=1e-15)
        # the inner endpoints are the full preimages of 1
        assert logistic(MU5, hi0) == pytest.approx(1.0, abs=1e-9)
        assert logistic(MU5, lo1) == pytest.approx(1.0, abs=1e-9)

    def test_depth_two_against_word_enumeration(self):
        sys5 = inverse_branches(MU5)
        c2 = invariant_cover(sys5, 2)
        # oracle: apply the branch words directly, innermost symbol first
        expected = []
        for word in ("00", "01", "10", "11"):
            lo, hi = 0.0, 1.0
            for sym in reversed(word):
                lo, hi = sorted((float(sys5.branches[int(sym)](lo)), float(sys5.branches[int(sym)](hi))))
            expected.append((lo, hi))
        expected.sort()
        assert len(c2) == 4
        assert c2.intervals == tuple(expected)

    def test_counts_and_nesting_to_depth_14(self):
        sys5 = inverse_branches(MU5)
        prev = invariant_cover(sys5, 0)
        for n in range(1, 15):
            cover = invariant_cover(sys5, n)
            assert len(cover) == 2**n
            assert subset_of(cover, prev)
            prev = cover

    def test_each_interval_splits_into_exactly_two(self):
        # the finite-depth witness that no interval ever dies out or
        # fragments further: binary splitting all the way down
        sys5 = inverse_branches(MU5)
        for n in range(0, 9):
            coarse = invariant_cover(sys5, n)
            fine = invariant_cover(sys5, n + 1)
            starts = [lo for lo, _ in coarse.intervals]
            idx = [bisect_right(starts, lo) - 1 for lo, _ in fine.intervals]
            assert sorted(idx) == [k for k in range(len(coarse)) for _ in range(2)]

    def test_coverage_identity_to_depth_14(self):
        sys5 = inverse_branches(MU5)
        cover = invariant_cover(sys5, 0)
        for n in range(15):
            target = invariant_cover(sys5, n + 1)
            refined = refine_cover(sys5, cover)
            assert len(refined) == len(target)
            assert max(
                abs(r - t)
                for r_iv, t_iv in zip(refined.intervals, target.intervals)
                for r, t in zip(r_iv, t_iv)
            ) < 1e-12
            cover = target

    def test_overlapping_branches_rejected(self):
        bad = toy_system(lambda y: y / 2.0, lambda y: y / 2.0 + 0.4, (0.0, 0.8), (0.5, 0.5))
        with pytest.raises(ValueError, match="open set condition"):
            invariant_cover(bad, 1)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            invariant_cover(inverse_branches(MU5), -1)

    @pytest.mark.parametrize("mu", [5.0, 10.0, 90.0])
    def test_built_covers_equal_validated_ones(self, mu):
        # invariant_cover and refine_cover skip IntervalCover's validation of
        # the branch images; they must store what a validated cover would
        sys_ = inverse_branches(mu)
        reference = IntervalCover(0, ((0.0, 1.0),))
        for n in range(13):
            built = invariant_cover(sys_, n)
            assert built.depth == n
            assert built.ends == reference.ends, (mu, n)
            assert built.intervals == reference.intervals, (mu, n)
            assert type(built.ends) is tuple and len(built.ends) == 2 * len(built)
            assert all(type(x) is float for x in built.ends)
            assert type(built.intervals) is tuple
            assert all(type(iv) is tuple and len(iv) == 2 for iv in built.intervals)
            try:
                ends = _branch_images(sys_, reference.ends)
            except ValueError as exc:
                # mu=90 resolves its covers only to depth 9
                assert (mu, n, str(exc)) == (90.0, 9, "open set condition violated")
                with pytest.raises(ValueError, match="^open set condition violated$"):
                    refine_cover(sys_, built)
                with pytest.raises(ValueError, match="^open set condition violated$"):
                    invariant_cover(sys_, n + 1)
                return
            assert type(ends) is tuple
            reference = IntervalCover(n + 1, zip(ends[::2], ends[1::2]))
            refined = refine_cover(sys_, built)
            assert refined.depth == n + 1
            assert refined.ends == reference.ends, (mu, n + 1)
            assert type(refined.ends) is tuple

    def test_direct_covers_are_validated(self):
        with pytest.raises(ValueError, match="^interval with negative length$"):
            IntervalCover(0, [(0.5, 0.25)])
        with pytest.raises(ValueError, match="^intervals overlap or are unsorted$"):
            IntervalCover(0, [(0.0, 0.5), (0.5, 1.0)])
        with pytest.raises(ValueError, match="^intervals overlap or are unsorted$"):
            IntervalCover(0, [(0.6, 1.0), (0.0, 0.5)])
        assert IntervalCover(0, [[0, 1]]).intervals == ((0.0, 1.0),)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_endpoints_rejected(self, bad, slot):
        # a NaN passes both order checks, since every comparison with it is
        # false; the Hausdorff distance of such a cover to [0, 1] read 0.0
        ends = [0.0, 0.25, 0.5, 1.0]
        ends[slot] = bad
        with pytest.raises(ValueError, match="^interval endpoint is not finite$"):
            IntervalCover(0, [ends[:2], ends[2:]])
        with pytest.raises(ValueError, match="^interval endpoint is not finite$"):
            IntervalCover(0, [(bad, bad)])

    def test_flat_endpoints_and_the_pair_view(self):
        c = IntervalCover(3, [(0, 0.25), (0.5, 0.5), (0.75, 1)])
        assert c.ends == (0.0, 0.25, 0.5, 0.5, 0.75, 1.0)
        assert all(type(x) is float for x in c.ends)
        assert c.intervals == ((0.0, 0.25), (0.5, 0.5), (0.75, 1.0))
        assert c.intervals is c.intervals  # built once
        assert len(c) == 3 and c.depth == 3


def _resolved_chain(mu: float, top: int = 14):
    """The chain of covers of mu to depth ``top``, or to the deepest depth
    whose branch images double precision still separates."""
    sys_ = inverse_branches(mu)
    covers = [invariant_cover(sys_, 0)]
    while len(covers) <= top:
        try:
            covers.append(refine_cover(sys_, covers[-1]))
        except ValueError:
            break
    return covers


class TestForwardIdentity:
    """The quadratic map takes the depth-(n + 1) cover onto the depth-n one."""

    @pytest.mark.parametrize("mu", [4.5, 5.0, 12.0, 90.0, 1000.0])
    def test_holds_along_the_resolved_chain(self, mu):
        covers = _resolved_chain(mu)
        assert len(covers) >= 6
        for cover, finer in zip(covers, covers[1:]):
            assert 0.0 <= forward_distance(mu, finer, cover) <= 1e-13, (mu, cover.depth)

    @pytest.mark.parametrize("mu", [5.0, 12.0])
    def test_branches_of_a_nearby_mu_fail_at_every_depth(self, mu):
        # the images of branches built at mu + 1e-9 miss by about 2e-10
        sys_ = inverse_branches(mu + 1e-9)
        covers = cover_chain(sys_, 13)
        for cover, finer in zip(covers, covers[1:]):
            assert forward_distance(mu, finer, cover) > 1e-11, (mu, cover.depth)

    @pytest.mark.parametrize("side", [0, -1])
    def test_each_side_is_measured(self, side):
        sys5 = inverse_branches(MU5)
        cover, finer = cover_chain(sys5, 5)[4:]
        ivs = list(finer.intervals)
        lo, hi = ivs[side]
        ivs[side] = (lo, hi - 1e-9) if side == 0 else (lo + 1e-9, hi)
        moved = IntervalCover(finer.depth, ivs)
        assert forward_distance(MU5, moved, cover) > 1e-9 > forward_distance(MU5, finer, cover)

    def test_each_side_images_the_whole_cover(self):
        # on each side the images are listed in increasing order and pair
        # with the depth-n intervals one for one
        sys5 = inverse_branches(MU5)
        cover, finer = cover_chain(sys5, 4)[3:]
        half = len(cover)
        low = [(logistic(MU5, lo), logistic(MU5, hi)) for lo, hi in finer.intervals[:half]]
        high = [(logistic(MU5, hi), logistic(MU5, lo)) for lo, hi in reversed(finer.intervals[half:])]
        for side in (low, high):
            moves = [abs(x - y) for iv, civ in zip(side, cover.intervals) for x, y in zip(iv, civ)]
            assert max(moves) <= 1e-13
        assert forward_distance(MU5, finer, cover) == max(
            abs(x - y) for side in (low, high) for iv, civ in zip(side, cover.intervals) for x, y in zip(iv, civ)
        )


class TestItinerary:
    def test_constant_addresses_land_on_fixed_points(self):
        sys5 = inverse_branches(MU5)
        assert itinerary_point(sys5, Address("", "0"), 30).value == pytest.approx(0.0, abs=1e-12)
        est = itinerary_point(sys5, Address("", "1"), 40)
        assert est.value == pytest.approx(0.8, abs=1e-12)
        assert float(sys5.branches[1](0.8)) == pytest.approx(0.8, abs=1e-12)

    def test_one_zero_tail(self):
        sys5 = inverse_branches(MU5)
        est = itinerary_point(sys5, Address("1", "0"), 40)
        assert est.value == pytest.approx(1.0, abs=1e-12)  # f2(0) = 1

    def test_radius_shrinks_geometrically(self):
        sys5 = inverse_branches(MU5)
        alpha = sys5.modulus_inf[0]
        a = Address("0110101", "0")
        for n in range(1, 25):
            est = itinerary_point(sys5, a, n)
            assert est.radius <= alpha**n / 2.0 + 1e-15

    def test_equal_depth_addresses_hit_disjoint_intervals(self):
        sys5 = inverse_branches(MU5)
        n = 6
        spans = []
        for i in range(2**n):
            word = format(i, f"0{n}b")
            est = itinerary_point(sys5, Address(word, "0"), n)
            spans.append(est.interval)
        spans.sort()
        for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
            assert hi1 < lo2

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            itinerary_point(inverse_branches(MU5), Address("", "0"), 0)


def brute_force_hausdorff(a, b, samples: int = 100_000) -> float:
    def points_of(ivs):
        pts = []
        total = sum(hi - lo for lo, hi in ivs)
        for lo, hi in ivs:
            count = max(int(samples * (hi - lo) / total) if total else 1, 2)
            pts.extend(lo + (hi - lo) * i / (count - 1) for i in range(count))
        return pts

    def directed(xs, ivs):
        best = [math.inf] * len(xs)
        for lo, hi in ivs:
            d = [lo - x if x < lo else (x - hi if x > hi else 0.0) for x in xs]
            best = list(map(min, best, d))
        return max(best)

    return max(directed(points_of(a), b), directed(points_of(b), a))


def reference_distance_to_union(x: float, ivs) -> float:
    """Distance from x to a sorted disjoint closed interval union, one
    binary search per point."""
    flat = [e for iv in ivs for e in iv]
    idx = bisect_left(flat, x)
    if idx % 2 == 1 or (idx < len(flat) and flat[idx] == x):
        return 0.0
    left = x - flat[idx - 1] if idx > 0 else math.inf
    right = flat[idx] - x if idx < len(flat) else math.inf
    return min(left, right)


def reference_directed_hausdorff(a, b) -> float:
    """sup over A of the distance to B, taken over the endpoints of A and
    the gap midpoints of B that lie in A."""
    candidates = [e for iv in a for e in iv]
    mids = [0.5 * (b[k][1] + b[k + 1][0]) for k in range(len(b) - 1)]
    candidates += [m for m in mids if reference_distance_to_union(m, a) == 0.0]
    return max(reference_distance_to_union(x, b) for x in candidates)


@st.composite
def grid_unions(draw):
    """A sorted disjoint closed union with endpoints on the grid k/24, so
    that two draws often share endpoints; an odd cut count ends in a point."""
    cuts = sorted(draw(st.sets(st.integers(0, 24), min_size=1, max_size=9)))
    cuts = [k / 24 for k in cuts]
    if len(cuts) % 2:
        cuts.append(cuts[-1])
    return [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts), 2)]


class TestHausdorffSweep:
    @settings(max_examples=400, deadline=None)
    @given(grid_unions(), grid_unions())
    @example([(0.0, 1.0)], [(0.0, 0.25), (0.75, 1.0)])
    @example([(0.4, 0.6)], [(0.0, 0.1), (0.9, 1.0)])
    @example([(0.0, 0.1), (0.9, 1.0)], [(0.4, 0.6)])
    @example([(0.2, 0.3), (0.5, 0.7)], [(0.3, 0.5), (0.7, 0.9)])
    @example([(0.5, 0.5)], [(0.25, 0.25)])
    def test_sweep_equals_per_point_search(self, a, b):
        ca, cb = IntervalCover(0, a), IntervalCover(0, b)
        assert _directed_hausdorff(ca.intervals, cb.intervals) == reference_directed_hausdorff(a, b)
        assert _directed_hausdorff(cb.intervals, ca.intervals) == reference_directed_hausdorff(b, a)
        assert hausdorff_distance(ca, cb) == max(
            reference_directed_hausdorff(a, b), reference_directed_hausdorff(b, a)
        )

    def test_sweep_equals_per_point_search_on_invariant_covers(self):
        sys5 = inverse_branches(MU5)
        for n in range(8):
            a, b = invariant_cover(sys5, n).intervals, invariant_cover(sys5, n + 1).intervals
            assert _directed_hausdorff(a, b) == reference_directed_hausdorff(a, b)
            assert _directed_hausdorff(b, a) == reference_directed_hausdorff(b, a)


@st.composite
def paired_covers(draw):
    """A cover and the same cover with each endpoint moved by up to
    ``reach`` times the cover's narrowest gap, reach from 0 to 0.8: on
    both sides of the paired rule 2e < gap."""
    cuts = sorted(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=12, unique=True)))
    if len(cuts) % 2:
        cuts.append(cuts[-1])
    gap = min((b - a for a, b in zip(cuts[1::2], cuts[2::2])), default=1.0)
    reach = draw(st.floats(0, 0.8)) * gap
    moves = draw(st.lists(st.floats(-1, 1), min_size=len(cuts), max_size=len(cuts)))
    moved = [x + m * reach for x, m in zip(cuts, moves)]
    assume(all(a <= b for a, b in zip(moved[::2], moved[1::2])))
    assume(all(a < b for a, b in zip(moved[1::2], moved[2::2])))

    def pairs(ends):
        return [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)]

    return pairs(cuts), pairs(moved)


class TestPairedHausdorff:
    """Equal-count covers are paired interval by interval, and the paired
    rule returns the sweep's float bit for bit."""

    @settings(max_examples=600, deadline=None)
    @given(paired_covers())
    @example(([(0.0, 1.0), (2.0, 3.0)], [(0.4, 1.0), (2.0, 3.0)]))  # 2e < gap: e
    @example(([(0.0, 1.0), (2.0, 3.0)], [(0.0, 1.5), (2.0, 3.0)]))  # 2e == gap
    @example(([(0.0, 0.0), (1.0, 1.0), (3.0, 3.0)], [(0.0, 0.0), (2.9, 2.9), (3.1, 3.1)]))  # past it: not e
    @example(([(0.3, 0.3)], [(0.1, 0.7)]))
    def test_equals_the_per_point_search(self, pair):
        a, b = pair
        ca, cb = IntervalCover(0, a), IntervalCover(0, b)
        want = max(reference_directed_hausdorff(a, b), reference_directed_hausdorff(b, a))
        assert hausdorff_distance(ca, cb) == want
        assert hausdorff_distance(cb, ca) == want

    def test_the_rule_decides_the_path(self, monkeypatch):
        swept = []
        real = quadratic_system._directed_hausdorff
        monkeypatch.setattr(quadratic_system, "_directed_hausdorff", lambda a, b: swept.append(1) or real(a, b))
        near = IntervalCover(0, [(0.0, 1.0), (2.0, 3.0)]), IntervalCover(0, [(0.4, 1.0), (2.0, 3.0)])
        assert hausdorff_distance(*near) == 0.4 and not swept
        # the point 1 moves by 1.9 to 2.9, which lies 0.1 from 3, so the
        # distance is below the largest move
        far = (
            IntervalCover(0, [(0.0, 0.0), (1.0, 1.0), (3.0, 3.0)]),
            IntervalCover(0, [(0.0, 0.0), (2.9, 2.9), (3.1, 3.1)]),
        )
        assert hausdorff_distance(*far) == 1.0 and len(swept) == 2
        unequal = IntervalCover(0, [(0.0, 1.0)]), IntervalCover(0, [(0.0, 0.25), (0.75, 1.0)])
        assert hausdorff_distance(*unequal) == 0.25 and len(swept) == 4


class TestHausdorff:
    def test_identity(self):
        c = invariant_cover(inverse_branches(MU5), 3)
        assert hausdorff_distance(c, c) == 0.0

    def test_quarter_gap(self):
        c1 = IntervalCover(0, [[0.0, 1.0]])
        c2 = IntervalCover(1, [[0.0, 0.25], [0.75, 1.0]])
        assert hausdorff_distance(c1, c2) == 0.25

    def test_agrees_with_grid_oracle(self):
        c1 = IntervalCover(0, [[0.0, 0.1], [0.3, 0.55], [0.9, 1.0]])
        c2 = IntervalCover(0, [[0.05, 0.2], [0.6, 0.8]])
        exact = hausdorff_distance(c1, c2)
        approx = brute_force_hausdorff(c1.intervals, c2.intervals)
        assert abs(exact - approx) < 1e-4

    def test_random_covers_against_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            def random_cover():
                cuts = sorted(rng.random() for _ in range(6))
                ivs = [[cuts[i], cuts[i + 1]] for i in range(0, 6, 2)]
                return IntervalCover(0, ivs)

            a, b = random_cover(), random_cover()
            assert abs(hausdorff_distance(a, b) - brute_force_hausdorff(a.intervals, b.intervals)) < 1e-4

    def test_consecutive_covers_within_modulus_power(self):
        sys5 = inverse_branches(MU5)
        alpha = sys5.modulus_inf[0]
        for n in range(0, 10):
            d = hausdorff_distance(invariant_cover(sys5, n), invariant_cover(sys5, n + 1))
            assert d <= alpha**n

    def test_empty_cover_rejected(self):
        with pytest.raises(ValueError):
            IntervalCover(0, [])


class TestWeakContractionSystemValidation:
    """The constructor builds any system; the statement checks judge it."""

    def test_modulus_at_least_one_fails_the_modulus_sum_record(self):
        sys_ = toy_system(lambda y: y / 2, lambda y: y / 2 + 0.5, (0.0, 1.0), (1.0, 0.5))
        records = _statement_checks(RunConfig(), sys_)
        failing = [r for r in records if not r["passed"]]
        assert [(r["id"], r["measured"]) for r in failing] == [("statement.iii.modulus_sum", 1.5)]

    @pytest.mark.parametrize("mu", [4.1, 4.2])
    def test_mu_without_contraction_fails_only_the_modulus_sum(self, mu):
        # just above 4 the branch slope at y=1 exceeds 1
        alpha = 1.0 / math.sqrt(mu * (mu - 4.0))
        assert alpha > 1.0
        assert inverse_branches(mu).modulus_inf == (alpha, alpha)
        report = run_campaign(RunConfig(mu=mu))
        failing = [c for c in report["checks"] if not c["passed"]]
        assert [(c["id"], c["measured"]) for c in failing] == [("statement.iii.modulus_sum", 2 * alpha)]

    def test_a_false_fixed_point_fails_the_fixed_point_record(self):
        # 0 is fixed by the first branch; 0.25 is fixed by neither
        sys_ = toy_system(lambda y: y / 3, lambda y: y / 3 + 2 / 3, (0.0, 0.25), (1 / 3, 1 / 3))
        records = _statement_checks(RunConfig(), sys_)
        (failing,) = [r for r in records if not r["passed"]]
        assert failing["id"] == "statement.ii.fixed_points"
        assert failing["measured"] == {"points": [0.0, 0.25], "residual": pytest.approx(0.25 - 0.25 / 3)}


# Pair-form oracles: the kernels as they were when a cover stored a tuple of
# (lo, hi) pairs.  The flat kernels must return their floats bit for bit.


def oracle_branch_images(sys_, intervals):
    pieces = []
    for branch in sys_.branches:
        for lo, hi in intervals:
            a, b = branch(lo), branch(hi)  # monotone branches map endpoints
            pieces.append((a, b) if a <= b else (b, a))
    pieces.sort()
    if any(b[0] <= a[1] for a, b in zip(pieces, pieces[1:])):
        raise ValueError("open set condition violated")
    return pieces


def _oracle_least_gap(ends):
    return min(map(sub, ends[2::2], ends[1::2]), default=math.inf)


def oracle_hausdorff(A, B):
    if len(A) == len(B):
        ends1, ends2 = list(chain.from_iterable(A)), list(chain.from_iterable(B))
        e = max(map(abs, map(sub, ends1, ends2)))
        if 2.0 * e < min(_oracle_least_gap(ends1), _oracle_least_gap(ends2)):
            return e
    return max(_directed_hausdorff(A, B), _directed_hausdorff(B, A))


def oracle_forward_distance(mu, finer, cover):
    k = bisect_left(finer, (0.5,))  # the intervals that start left of 1/2
    low = [(logistic(mu, lo), logistic(mu, hi)) for lo, hi in finer[:k]]
    high = [(logistic(mu, hi), logistic(mu, lo)) for lo, hi in reversed(finer[k:])]
    return max(oracle_hausdorff(side, cover) for side in (low, high))


def bits(xs):
    return [float.hex(x) for x in xs]


def _count_pair_sorts(monkeypatch) -> list:
    calls = []
    real = quadratic_system._paired_images
    monkeypatch.setattr(quadratic_system, "_paired_images", lambda images: calls.append(1) or real(images))
    return calls


class TestFlatCoversAgainstPairOracles:
    """Flat covers give the pair form's covers, distances, nesting and
    raises, whichever path the image step takes."""

    @settings(max_examples=25, deadline=None)
    @given(st.floats(4.0, 1000.0, exclude_min=True), st.integers(0, 14))
    @example(95.75, 8)  # the deepest covers double precision separates
    @example(431.0, 6)
    @example(5.0, 14)
    @example(1000.0, 14)
    def test_chain_matches_bit_for_bit(self, mu, depth):
        # refines the covers of depths 0..depth, each one step
        sys_ = inverse_branches(mu)
        cover, pairs = invariant_cover(sys_, 0), ((0.0, 1.0),)
        for n in range(depth + 1):
            try:
                want = oracle_branch_images(sys_, pairs)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    refine_cover(sys_, cover)
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    invariant_cover(sys_, n + 1)
                return
            finer = refine_cover(sys_, cover)
            assert bits(finer.ends) == bits(chain.from_iterable(want)), (mu, n + 1)
            assert finer.intervals == tuple(want)
            assert bits([forward_distance(mu, finer, cover)]) == bits([oracle_forward_distance(mu, want, pairs)])
            assert bits([hausdorff_distance(finer, cover)]) == bits([oracle_hausdorff(want, pairs)])
            assert subset_of(finer, cover)
            cover, pairs = finer, want

    @pytest.mark.parametrize(("mu", "depth"), [(95.75, 8), (431.0, 6)])
    def test_refining_the_deepest_resolved_cover_raises(self, mu, depth):
        sys_ = inverse_branches(mu)
        covers = cover_chain(sys_, depth)
        with pytest.raises(ValueError, match="^open set condition violated$"):
            oracle_branch_images(sys_, covers[-1].intervals)
        with pytest.raises(ValueError, match="^open set condition violated$"):
            refine_cover(sys_, covers[-1])

    @pytest.mark.parametrize("mu", [4.0001, 4.5, 5.0, 7.3, 10.0])
    def test_small_mu_takes_the_fast_path_to_depth_15(self, monkeypatch, mu):
        calls = _count_pair_sorts(monkeypatch)
        assert len(cover_chain(inverse_branches(mu), 15)[-1]) == 2**15
        assert not calls

    @pytest.mark.parametrize("mu", [95.0, 500.0])
    def test_large_mu_takes_the_pair_sort(self, monkeypatch, mu):
        # the chain stops at the deepest cover double precision separates,
        # and refining that cover raises
        calls = _count_pair_sorts(monkeypatch)
        sys_ = inverse_branches(mu)
        covers = cover_chain(sys_, 15)
        assert calls
        assert len(covers) < 16
        assert [c.depth for c in covers] == list(range(len(covers)))
        with pytest.raises(ValueError, match="^open set condition violated$"):
            refine_cover(sys_, covers[-1])

    @pytest.mark.parametrize("depth", [1, 3])
    def test_a_branch_error_propagates_out_of_the_chain(self, depth):
        # only meeting branch images end the chain short: a branch that
        # raises on its own, here on the first endpoint of the refinement
        # to ``depth``, is a fault, and the chain must not stop before it
        sys_ = inverse_branches(MU5)
        low, high = sys_.branches
        # the refinements to depths 1..depth-1 call a branch on 2 + 4 + ... ends
        safe_calls = 2**depth - 2
        calls = []

        def faulty(y):
            calls.append(y)
            if len(calls) > safe_calls:
                raise ValueError("math domain error")
            return low(y)

        planted = WeakContractionSystem((faulty, high), sys_.modulus_inf, sys_.fixed_points)
        with pytest.raises(ValueError, match="^math domain error$"):
            cover_chain(planted, depth + 2)
        assert len(calls) == safe_calls + 1

    @pytest.mark.parametrize(
        ("low", "high"),
        [
            # increasing on each interval, with a jump down between them
            (lambda y: 0.25 * y + (0.5 if y < 0.5 else 0.0), lambda y: 0.75 + 0.2 * y),
            # monotone branches whose image intervals interleave
            (lambda y: 0.4 * y, lambda y: 0.15 + 0.4 * y),
            # a decreasing branch whose range overlaps the other's
            (lambda y: 0.4 * (1.0 - y), lambda y: 0.15 + 0.4 * (1.0 - y)),
        ],
        ids=["jump", "interleaved", "interleaved-decreasing"],
    )
    def test_other_branches_take_the_pair_sort(self, monkeypatch, low, high):
        sys_ = toy_system(low, high, (), (0.4, 0.4))
        pairs = ((0.0, 0.25), (0.75, 1.0))
        calls = _count_pair_sorts(monkeypatch)
        got = refine_cover(sys_, IntervalCover(1, pairs))
        assert calls == [1]
        assert bits(got.ends) == bits(chain.from_iterable(oracle_branch_images(sys_, pairs)))

    def test_touching_images_raise_on_both_paths(self, monkeypatch):
        # strictly monotone branches whose ranges share the point 0.5
        sys_ = toy_system(lambda y: 0.5 * y, lambda y: 0.5 + 0.5 * y, (0.0, 1.0), (0.5, 0.5))
        calls = _count_pair_sorts(monkeypatch)
        with pytest.raises(ValueError, match="^open set condition violated$"):
            invariant_cover(sys_, 1)
        assert calls == [1]
        # a constant branch is not strictly monotone: its point images meet
        flat = toy_system(lambda y: 0.25, lambda y: 0.75 + 0.25 * y, (), (0.0, 0.25))
        with pytest.raises(ValueError, match="^open set condition violated$"):
            refine_cover(flat, IntervalCover(1, ((0.0, 0.25), (0.75, 1.0))))
