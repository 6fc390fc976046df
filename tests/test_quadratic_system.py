"""Tests for the quadratic branches, interval covers and the Hausdorff sweep."""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantor_coarse.cli import RunConfig, _statement_checks, run_campaign
from cantor_coarse.code_space import Address
from cantor_coarse.quadratic_system import (
    IntervalCover,
    QuadraticParams,
    WeakContractionSystem,
    _branch_images,
    _directed_hausdorff,
    hausdorff_distance,
    invariant_cover,
    inverse_branches,
    itinerary_point,
    logistic,
    modulus_sum_threshold,
    refine_cover,
    verify_statement_conditions,
)

MU5 = QuadraticParams(5.0)


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
        assert logistic(QuadraticParams(4.5), 0.5) == pytest.approx(1.125)

    def test_mu_validation(self):
        with pytest.raises(ValueError, match="mu must exceed 4"):
            QuadraticParams(3.9)
        with pytest.raises(ValueError, match="mu must exceed 4"):
            QuadraticParams(4.0)


class TestInverseBranches:
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
        assert report.conditions == (True, True, True)
        assert report.distinct_fixed_points == 2
        assert report.fixed_point_residual < 1e-12
        assert abs(report.modulus_sum - 2.0 / math.sqrt(5.0)) < 1e-9

    def test_mu_four_and_a_half_fails_the_modulus_sum(self):
        report = verify_statement_conditions(inverse_branches(QuadraticParams(4.5)))
        assert report.conditions == (True, True, False)
        assert report.modulus_sum == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_threshold_for_the_modulus_sum(self):
        # 2/sqrt(mu*(mu-4)) = 1 exactly at mu = 2 + 2*sqrt(2)
        thr = modulus_sum_threshold()
        assert thr == pytest.approx(2.0 + 2.0 * math.sqrt(2.0))
        assert verify_statement_conditions(
            inverse_branches(QuadraticParams(thr + 1e-4))
        ).modulus_sum_below_one
        assert not verify_statement_conditions(
            inverse_branches(QuadraticParams(thr - 1e-4))
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
        assert not report.branch_checks[0].strictly_monotone
        assert report.branch_checks[1].strictly_monotone

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
    OTHER = IntervalCover(0, [(0.1, 0.4), (0.5, 0.9)])

    def test_interval_straddling_two_intervals(self):
        assert not IntervalCover(0, [(0.3, 0.6)]).subset_of(self.OTHER)

    def test_interval_starting_before_the_first(self):
        assert not IntervalCover(0, [(0.0, 0.2)]).subset_of(self.OTHER)
        assert not IntervalCover(0, [(0.05, 0.08)]).subset_of(self.OTHER)

    def test_shared_endpoints_are_contained(self):
        assert IntervalCover(0, [(0.1, 0.4), (0.5, 0.5), (0.9, 0.9)]).subset_of(self.OTHER)

    def test_interval_past_the_last(self):
        assert not IntervalCover(0, [(0.6, 0.95)]).subset_of(self.OTHER)
        assert not IntervalCover(0, [(0.95, 1.0)]).subset_of(self.OTHER)


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
            assert cover.subset_of(prev)
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
        sys_ = inverse_branches(QuadraticParams(mu))
        reference = IntervalCover(0, (sys_.carrier,))
        for n in range(13):
            built = invariant_cover(sys_, n)
            assert built.depth == n
            assert built.intervals == reference.intervals, (mu, n)
            assert type(built.intervals) is tuple
            assert all(type(iv) is tuple and len(iv) == 2 for iv in built.intervals)
            assert all(type(x) is float for iv in built.intervals for x in iv)
            try:
                pieces = _branch_images(sys_, reference.intervals)
            except ValueError as exc:
                # mu=90 resolves its covers only to depth 9
                assert (mu, n, str(exc)) == (90.0, 9, "open set condition violated")
                with pytest.raises(ValueError, match="^open set condition violated$"):
                    refine_cover(sys_, built)
                with pytest.raises(ValueError, match="^open set condition violated$"):
                    invariant_cover(sys_, n + 1)
                return
            reference = IntervalCover(n + 1, pieces)
            refined = refine_cover(sys_, built)
            assert refined.depth == n + 1
            assert refined.intervals == reference.intervals, (mu, n + 1)
            assert type(refined.intervals) is tuple

    def test_direct_covers_are_validated(self):
        with pytest.raises(ValueError, match="^interval with negative length$"):
            IntervalCover(0, [(0.5, 0.25)])
        with pytest.raises(ValueError, match="^intervals overlap or are unsorted$"):
            IntervalCover(0, [(0.0, 0.5), (0.5, 1.0)])
        with pytest.raises(ValueError, match="^intervals overlap or are unsorted$"):
            IntervalCover(0, [(0.6, 1.0), (0.0, 0.5)])
        assert IntervalCover(0, [[0, 1]]).intervals == ((0.0, 1.0),)


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
        records, all_pass = _statement_checks(RunConfig(), sys_)
        assert not all_pass
        failing = [r for r in records if not r.passed]
        assert [(r.check_id, r.measured) for r in failing] == [("statement.iii.modulus_sum", 1.5)]

    @pytest.mark.parametrize("mu", [4.1, 4.2])
    def test_mu_without_contraction_fails_only_the_modulus_sum(self, mu):
        # just above 4 the branch slope at y=1 exceeds 1
        alpha = 1.0 / math.sqrt(mu * (mu - 4.0))
        assert alpha > 1.0
        assert inverse_branches(QuadraticParams(mu)).modulus_inf == (alpha, alpha)
        report = run_campaign(RunConfig(mu=mu))
        failing = [c for c in report["checks"] if not c["passed"]]
        assert [(c["id"], c["measured"]) for c in failing] == [("statement.iii.modulus_sum", 2 * alpha)]

    def test_rejects_false_fixed_point(self):
        with pytest.raises(ValueError, match="residual"):
            toy_system(lambda y: y / 2, lambda y: y / 2 + 0.5, (0.25,), (0.5, 0.5))
