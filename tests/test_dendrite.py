"""Tests for the dendrite tree, its closed tour, and the code-space surjection."""

from __future__ import annotations

import bisect
import functools
import itertools
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantor_coarse import cli, dendrite
from cantor_coarse.code_space import Address, random_address
from cantor_coarse.dendrite import (
    DendriteGraph,
    _binary_numerator,
    _break_pairs,
    binary_expansion,
    check_continuity_modulus,
    check_surjectivity,
    check_tour_conservation,
    dendrite_map,
    fiber_of,
)


def _reference_edge_length(tree: DendriteGraph, child: int) -> Fraction:
    return Fraction(1, 3 ** tree.level(child))


def _total_edge_length(tree: DendriteGraph) -> Fraction:
    return sum((tree.edge_length(v) for v in range(2, tree.vertex_count + 1)), Fraction(0))


def _reference_breaks(tree: DendriteGraph) -> tuple[Fraction, ...]:
    """Tour breaks summed from the Fraction edge lengths; the last is the
    tour length."""
    return _reference_breaks_at(tree.depth)


@functools.cache
def _reference_breaks_at(depth: int) -> tuple[Fraction, ...]:
    tree = DendriteGraph(depth)
    lengths = (_reference_edge_length(tree, child) for child, _ in tree.tour_segments)
    return tuple(itertools.accumulate(lengths, initial=Fraction(0)))


def _reference_tour_point(tree: DendriteGraph, t: Fraction):
    """Tour lookup by bisecting the Fraction breaks directly."""
    if tree.depth == 0:
        return tree.vertex_point(1)
    breaks = _reference_breaks(tree)
    arc = t * breaks[-1]
    i = bisect.bisect_right(breaks, arc) - 1
    if i >= len(tree.tour_segments):
        return tree.vertex_point(1)
    child, direction = tree.tour_segments[i]
    delta = arc - breaks[i]
    if direction == "down":
        return tree.point(child, delta)
    return tree.point(child, _reference_edge_length(tree, child) - delta)


def _reference_tour_parameters(tree: DendriteGraph, p) -> tuple[Fraction, ...]:
    """Every tour time landing on ``p``, from the Fraction breaks: a vertex
    at each break the tour reaches it, an interior point once on the way
    down its edge and once on the way up."""
    if tree.depth == 0:
        return (Fraction(0),)
    breaks = _reference_breaks(tree)
    total = breaks[-1]
    v = tree.as_vertex(p)
    if v is not None:
        arcs = [Fraction(0)] if v == 1 else []
        for (child, direction), arc in zip(tree.tour_segments, breaks[1:]):
            if (child if direction == "down" else tree.parent(child)) == v:
                arcs.append(arc)
        return tuple(arc / total for arc in arcs)
    down = breaks[tree.tour_segments.index((p.edge_child, "down"))] + p.offset
    up = breaks[tree.tour_segments.index((p.edge_child, "up")) + 1] - p.offset
    return tuple(sorted((down / total, up / total)))


def _reference_time_addresses(t: Fraction, depth: int) -> list[Address]:
    """Witnesses at tour time ``t``: both binary expansions of a dyadic,
    else the first ``max(depth, WITNESS_DEPTH)`` digits."""
    if t == 0:
        return [Address("", "0")]
    if t == 1:
        return [Address("", "1")]
    den = t.denominator
    if den & (den - 1) == 0:
        m = den.bit_length() - 1
        return [Address(format(t.numerator, f"0{m}b"), "0"), Address(format(t.numerator - 1, f"0{m}b"), "1")]
    w = max(depth, dendrite.WITNESS_DEPTH)
    return [Address(format(int(t * 2**w), f"0{w}b"), "0")]


def _reference_fiber(tree: DendriteGraph, p, depth: int):
    """``fiber_of`` as (cylinder words, witnesses), each tour time placed by
    Fraction arithmetic: the depth-``depth`` cylinders whose closed dyadic
    interval holds it."""
    scale = 2**depth
    words: set[str] = set()
    witnesses: set[Address] = set()
    for t in _reference_tour_parameters(tree, p):
        x = t * scale
        i = min(int(x), scale - 1)
        words.add(format(i, f"0{depth}b") if depth else "")
        if x == i and i > 0:
            words.add(format(i - 1, f"0{depth}b"))
        witnesses.update(_reference_time_addresses(t, depth))
    return sorted(words), sorted(witnesses)


def _fiber_points(tree: DendriteGraph, seed: int = 0) -> list:
    """Every vertex, every edge midpoint and 20 seeded rational interior
    points, on edges and at offsets drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    points = [tree.vertex_point(v) for v in tree.vertices]
    edges = range(2, tree.vertex_count + 1)
    points += [tree.point(v, tree.edge_length(v) / 2) for v in edges]
    for _ in range(20 if tree.depth else 0):
        v = rng.choice(edges)
        den = rng.randrange(2, 10**6)
        points.append(tree.point(v, tree.edge_length(v) * Fraction(rng.randrange(1, den), den)))
    return points


def _fiber_depths(tree: DendriteGraph) -> list[int]:
    return sorted({0, 1, 2 * tree.depth + 4, 10, 30})


def _fiber_mismatches(tree: DendriteGraph, points, depths) -> list:
    """The (point, depth) pairs at which ``fiber_of`` differs from
    ``_reference_fiber`` in its cylinders or its witnesses."""
    out = []
    for depth in depths:
        for p in points:
            fib = fiber_of(tree, p, depth)
            got = list(fib.cylinders), list(fib.witnesses)
            if got != _reference_fiber(tree, p, depth):
                out.append((p, depth))
    return out


def _reference_fiber_soundness(tree: DendriteGraph, depth: int) -> float:
    """``cli._fiber_soundness`` from the reference fibers and tour lookup."""
    worst = Fraction(0)
    for v in tree.vertices:
        p = tree.vertex_point(v)
        for wit in _reference_fiber(tree, p, depth)[1]:
            image = _reference_tour_point(tree, _reference_binary_expansion(wit))
            worst = max(worst, tree.distance(image, p))
    return float(worst)


def _first_difference(a: Address, b: Address) -> int:
    """The first position at which two distinct addresses differ."""
    n = max(len(a.prefix), len(b.prefix)) + 1
    sa, sb = a.symbols(n), b.symbols(n)
    for i in range(n):
        if sa[i] != sb[i]:
            return i
    raise ValueError("addresses coincide")


def _scaled(a: Address, k: int) -> int:
    """An address's binary value times 2**k, for k at least its prefix length."""
    return _binary_numerator(a) << (k - len(a.prefix))


def _pair_distance(tree: DendriteGraph, na: int, nb: int, k: int) -> Fraction:
    """The continuity check's integer geodesic, scaled back to length."""
    den = 1 << k
    d = tree._tick_distance(tree._tick_point(na, den), tree._tick_point(nb, den), den)
    return Fraction(d, 3**tree.depth * 2**k)


def _tick_distance(tree: DendriteGraph, a: Address, b: Address) -> Fraction:
    """``_pair_distance`` of two distinct addresses."""
    k = max(len(a.prefix), len(b.prefix), _first_difference(a, b))
    return _pair_distance(tree, _scaled(a, k), _scaled(b, k), k)


def _reference_distance(tree: DendriteGraph, a: Address, b: Address) -> Fraction:
    """The geodesic between the reference tour points at two addresses'
    binary values, without the tick kernel."""
    p = _reference_tour_point(tree, binary_expansion(a))
    q = _reference_tour_point(tree, binary_expansion(b))
    return tree.distance(p, q)


def _reference_break_pairs(tree: DendriteGraph):
    """``_break_pairs`` as addresses: the K-bit word below each break with
    tails 0 and 1."""
    total = tree._break_ticks[-1]
    if not total:
        return
    k = total.bit_length() + 2
    for ticks in tree._break_ticks:
        word = format(min((ticks << k) // total, (1 << k) - 1), f"0{k}b")
        yield Address(word, "0"), Address(word, "1")


def _assert_pairs_match(pairs, reference):
    """Each integer pair is its reference address pair: both values at the
    pair's scale, and the first difference."""
    pairs, reference = list(pairs), list(reference)
    assert len(pairs) == len(reference)
    for (na, nb, k, m), (a, b) in zip(pairs, reference):
        assert k >= max(len(a.prefix), len(b.prefix)), (a, b, k)
        assert (na, nb, m) == (_scaled(a, k), _scaled(b, k), _first_difference(a, b)), (a, b, k)


def _break_addresses(tree: DendriteGraph) -> list[Address]:
    """Addresses at and next to the tour breaks.

    A break time is dyadic only at the quarter points of the tour, which
    get both of their binary expansions.  Every break time also gets the
    dyadics of 25 and 40 places just below and above it, with both tails,
    so the tick floor lands on each side of the break.
    """
    out = [Address(w, "0") for w in ("", "01", "1", "11")]
    out += [Address(w, "1") for w in ("", "00", "0", "10")]
    total = tree._break_ticks[-1]
    for ticks in tree._break_ticks:
        for n in (25, 40):
            below = ticks * 2**n // total
            for num in (below, below + 1):
                word = format(min(num, 2**n - 1), f"0{n}b")
                out += [Address(word, "0"), Address(word, "1")]
    return sorted(set(out))


def _reference_binary_expansion(a: Address) -> Fraction:
    """Binary value summed one symbol at a time."""
    total = Fraction(0)
    for i, sym in enumerate(a.prefix, start=1):
        if sym == "1":
            total += Fraction(1, 2**i)
    if a.tail == "1":
        total += Fraction(1, 2 ** len(a.prefix))
    return total


# -- planted faults: each writes a wrong table into one tree -------------


def _swap_two_segments(t: DendriteGraph) -> None:
    """The two segments around the tour's middle break trade places: the
    run back up to the root from the left subtree and the run down into
    the right one."""
    segments = list(t.tour_segments)
    i = len(segments) // 2
    segments[i - 1], segments[i] = segments[i], segments[i - 1]
    t.__dict__["tour_segments"] = tuple(segments)


def _swap_the_first_two_segments(t: DendriteGraph) -> None:
    """The tour opens with its second segment: below the root from depth 2
    on, and up the first edge before running it down at depth 1."""
    segments = list(t.tour_segments)
    segments[0], segments[1] = segments[1], segments[0]
    t.__dict__["tour_segments"] = tuple(segments)


def _run_a_leaf_up_before_down(t: DendriteGraph) -> None:
    """The tour runs the last leaf's edge up before it runs it down."""
    segments = list(t.tour_segments)
    i = segments.index((t.vertex_count, "down"))
    segments[i], segments[i + 1] = segments[i + 1], segments[i]
    t.__dict__["tour_segments"] = tuple(segments)


def _shift_a_break(shift: int, where: str):
    def plant(t: DendriteGraph) -> None:
        """A break moves ``shift`` ticks: the tour's middle one, between the
        runs of two edges, or the last leaf's turn, between the runs down
        and up its edge, which keeps that edge's time in the tour."""
        breaks = list(t._break_ticks)
        i = len(breaks) // 2 if where == "middle" else t.tour_segments.index((t.vertex_count, "up"))
        breaks[i] += shift
        t.__dict__["_break_ticks"] = tuple(breaks)

    return plant


def _shift_every_break(t: DendriteGraph) -> None:
    """Every break one tick late: each segment keeps its length, but the
    tour opens at tick 1 and its length reads one tick too long."""
    t.__dict__["_break_ticks"] = tuple(ticks + 1 for ticks in t._break_ticks)


def _drop_the_last_break(t: DendriteGraph) -> None:
    """The break table stops one segment short: the tour's length misses
    its last run, up the root's second edge."""
    t.__dict__["_break_ticks"] = t._break_ticks[:-1]


def _run_a_leaf_round_trip_twice(t: DendriteGraph) -> None:
    """The tour runs the last leaf's edge down and up twice over."""
    segments = list(t.tour_segments)
    i = segments.index((t.vertex_count, "down"))
    segments[i:i] = segments[i : i + 2]
    t.__dict__["tour_segments"] = tuple(segments)


def _run_an_edge_three_times(t: DendriteGraph) -> None:
    """The last two leaves are siblings: the tour runs the first one's edge
    down, up and down again where it should run the second one's down.
    Both edges have one length, so the tour's total stays right."""
    segments = list(t.tour_segments)
    first, second = t.vertex_count - 1, t.vertex_count
    segments[segments.index((second, "down"))] = (first, "down")
    t.__dict__["tour_segments"] = tuple(segments)


def _lengthen_a_leaf_edge(t: DendriteGraph) -> None:
    """The last leaf's edge table entry doubles after the tour and root
    tables are built, so the breaks and root distances keep its true
    length."""
    t._break_ticks, t._root_ticks
    edges = list(t._edge_ticks)
    edges[t.vertex_count] *= 2
    t.__dict__["_edge_ticks"] = tuple(edges)


def _misplace_a_vertex(t: DendriteGraph) -> None:
    """The parent of the last leaf (the root at depth 1) sits one tick too
    far from the root in the kernel's root distances."""
    root = list(t._root_ticks)
    root[t.vertex_count // 2] += 1
    t.__dict__["_root_ticks"] = tuple(root)


def _faulty_kernel(wrong):
    """Plant ``wrong(tree, num, den, point)`` as the tree's ``_tick_point``,
    ``point`` being the true kernel's answer: a fault of the evaluation
    kernel that the segment table cannot see."""

    def plant(t: DendriteGraph) -> None:
        true_point = t._tick_point
        t.__dict__["_tick_point"] = lambda num, den: wrong(t, num, den, true_point(num, den))

    return plant


def _on_the_sibling_edge(direction: str):
    def wrong(t: DendriteGraph, num: int, den: int, point):
        """Points of the ``direction`` runs land on the sibling edge."""
        i = bisect.bisect_right(t._break_ticks, num * t._break_ticks[-1] // den) - 1
        if i < len(t.tour_segments) and t.tour_segments[i][1] == direction:
            return (point[0] ^ 1, point[1])
        return point

    return _faulty_kernel(wrong)


@_faulty_kernel
def _close_the_tour_at_vertex_3(t: DendriteGraph, num: int, den: int, point):
    """Time 1 lands on vertex 3 instead of the root."""
    return (3, t._edge_ticks[3] * den) if num == den else point


@_faulty_kernel
def _run_the_last_leaf_edge_twice_its_length(t: DendriteGraph, num: int, den: int, point):
    """Points on the last leaf's edge lie twice as far from its parent, so
    the leaf itself lies past the end of its edge, off the tree."""
    child, offset = point
    return (child, 2 * offset) if child == t.vertex_count else point


def _one_tick_along_an_edge(t: DendriteGraph) -> None:
    """The geodesic puts any two points of one edge one tick apart, even a
    point and itself.  Both the continuity check and ``distance``, which
    fiber soundness measures with, read it."""
    true_distance = t._tick_distance
    t.__dict__["_tick_distance"] = lambda p, q, den: den if p[0] == q[0] else true_distance(p, q, den)


# planted fault -> the records it must fail
PLANTED_FAULTS = {
    "two-segments-swapped": (_swap_two_segments, {"dendrite.continuity"}),
    "tour-opens-with-its-second-segment": (
        _swap_the_first_two_segments,
        {"dendrite.continuity", "dendrite.surjectivity"},
    ),
    "leaf-run-up-before-down": (_run_a_leaf_up_before_down, {"dendrite.continuity", "dendrite.surjectivity"}),
    "middle-break-one-tick-late": (_shift_a_break(1, "middle"), {"dendrite.continuity", "dendrite.tour_conservation"}),
    "middle-break-one-tick-early": (
        _shift_a_break(-1, "middle"),
        {"dendrite.continuity", "dendrite.tour_conservation"},
    ),
    "leaf-turn-one-tick-late": (_shift_a_break(1, "leaf-turn"), {"dendrite.continuity", "dendrite.tour_conservation"}),
    "every-break-one-tick-late": (_shift_every_break, {"dendrite.continuity", "dendrite.tour_conservation"}),
    "last-break-dropped": (_drop_the_last_break, {"dendrite.tour_conservation"}),
    "edge-run-three-times": (_run_an_edge_three_times, {"dendrite.tour_conservation", "dendrite.surjectivity"}),
    "leaf-round-trip-run-twice": (
        _run_a_leaf_round_trip_twice,
        {"dendrite.tour_conservation", "dendrite.surjectivity"},
    ),
    "longer-leaf-edge": (_lengthen_a_leaf_edge, {"dendrite.continuity"}),
    "wrong-root-distance": (_misplace_a_vertex, {"dendrite.continuity"}),
    "kernel-runs-down-on-the-sibling-edge": (_on_the_sibling_edge("down"), {"dendrite.continuity"}),
    "kernel-runs-up-on-the-sibling-edge": (_on_the_sibling_edge("up"), {"dendrite.continuity"}),
    "kernel-closes-the-tour-at-vertex-3": (_close_the_tour_at_vertex_3, {"dendrite.continuity"}),
    "same-edge-distance-one-tick": (_one_tick_along_an_edge, {"dendrite.continuity", "dendrite.fiber_soundness"}),
}

def _planted_trees(plant):
    """A stand-in for ``DendriteGraph`` that plants ``plant`` in every tree
    it builds."""

    def build(depth: int) -> DendriteGraph:
        t = DendriteGraph(depth)
        plant(t)
        return t

    return build


# planted kernel fault -> the tree depths at which it moves a fiber witness
# off its target, so that ``dendrite.fiber_soundness`` fails too
KERNEL_FAULTS_IN_THE_MAP = {
    "kernel-closes-the-tour-at-vertex-3": range(1, 9),
    "kernel-runs-down-on-the-sibling-edge": range(2, 9),
    "wrong-root-distance": range(2, 9),
}


class TestTreeStructure:
    def test_counts(self):
        t = DendriteGraph(3)
        assert t.vertex_count == 15
        assert len(list(t.vertices)) == 15
        assert len(t.tour_segments) == 2 * 14

    def test_edge_lengths_by_level(self):
        t = DendriteGraph(3)
        assert t.edge_length(2) == Fraction(1, 3)
        assert t.edge_length(4) == Fraction(1, 9)
        assert t.edge_length(8) == Fraction(1, 27)
        for depth in range(9):
            t = DendriteGraph(depth)
            for v in range(2, t.vertex_count + 1):
                assert t.edge_length(v) == _reference_edge_length(t, v), (depth, v)
            for v in (0, 1, t.vertex_count + 1):
                with pytest.raises(ValueError, match="carries no edge"):
                    t.edge_length(v)

    def test_root_distances_sum_the_edges(self):
        for depth in range(9):
            t = DendriteGraph(depth)
            assert t.root_distance(1) == 0
            for v in range(2, t.vertex_count + 1):
                assert t.root_distance(v) == t.root_distance(v // 2) + _reference_edge_length(t, v), (depth, v)
            for v in (0, -1, t.vertex_count + 1):
                with pytest.raises(ValueError, match="not on the tree"):
                    t.root_distance(v)

    def test_tour_length_is_the_last_break(self):
        for depth in range(9):
            t = DendriteGraph(depth)
            assert t.tour_length == _reference_breaks(t)[-1]

    def test_tour_length_depth_one(self):
        assert DendriteGraph(1).tour_length == Fraction(4, 3)

    def test_tour_conservation(self):
        for depth in range(9):
            t = DendriteGraph(depth)
            assert t.tour_length == 2 * _total_edge_length(t)
            assert check_tour_conservation(t)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            DendriteGraph(-1)

    def test_coordinates_cover_all_vertices(self):
        t = DendriteGraph(4)
        assert set(t.coordinates) == set(t.vertices)


class TestGeodesicDistance:
    def test_same_edge(self):
        t = DendriteGraph(2)
        p = t.point(2, Fraction(1, 6))
        q = t.point(2, Fraction(1, 4))
        assert t.distance(p, q) == Fraction(1, 12)

    def test_vertex_to_root(self):
        t = DendriteGraph(2)
        assert t.distance(t.vertex_point(1), t.vertex_point(4)) == Fraction(1, 3) + Fraction(1, 9)

    def test_across_siblings(self):
        t = DendriteGraph(2)
        # leaf 4 and leaf 5 meet at vertex 2
        assert t.distance(t.vertex_point(4), t.vertex_point(5)) == Fraction(2, 9)
        # leaf 4 and leaf 7 meet at the root
        assert t.distance(t.vertex_point(4), t.vertex_point(7)) == 2 * (Fraction(1, 3) + Fraction(1, 9))

    def test_point_on_ancestor_path(self):
        t = DendriteGraph(2)
        p = t.point(2, Fraction(1, 6))
        q = t.point(4, Fraction(1, 18))
        assert t.distance(p, q) == (Fraction(1, 3) - Fraction(1, 6)) + Fraction(1, 18)
        assert t.distance(q, p) == t.distance(p, q)

    def test_symmetry_and_triangle_on_random_points(self):
        t = DendriteGraph(3)
        rng = random.Random(0)

        def random_point():
            v = rng.randrange(2, t.vertex_count + 1)
            length = t.edge_length(v)
            return t.point(v, length * Fraction(rng.randrange(0, 13), 12))

        for _ in range(200):
            p, q, r = random_point(), random_point(), random_point()
            assert t.distance(p, q) == t.distance(q, p)
            assert t.distance(p, r) <= t.distance(p, q) + t.distance(q, r)
            assert t.distance(p, p) == 0

    def test_off_tree_points_rejected(self):
        t = DendriteGraph(1)
        from cantor_coarse.dendrite import DendritePoint

        with pytest.raises(ValueError, match="off the tree"):
            t.distance(DendritePoint(9, Fraction(1, 100)), t.vertex_point(1))


class TestTour:
    def test_endpoints_close_at_the_root(self):
        t = DendriteGraph(2)
        root = t.vertex_point(1)
        assert t.tour_point(0) == root
        assert t.tour_point(1) == root

    def test_quarter_of_depth_one_tour_is_the_left_child(self):
        t = DendriteGraph(1)
        assert t.tour_point(Fraction(1, 4)) == t.vertex_point(2)

    def test_parameter_validation(self):
        t = DendriteGraph(1)
        with pytest.raises(ValueError):
            t.tour_point(Fraction(3, 2))
        with pytest.raises(ValueError):
            t.tour_point(-0.25)

    def test_depth_zero_tree_maps_everything_to_the_root(self):
        t = DendriteGraph(0)
        assert t.tour_point(Fraction(1, 2)) == t.vertex_point(1)

    def test_parameters_of_root_interior_and_leaf(self):
        t = DendriteGraph(1)
        assert t.tour_parameters(t.vertex_point(1)) == (Fraction(0), Fraction(1, 2), Fraction(1))
        interior = t.point(2, Fraction(1, 6))
        assert t.tour_parameters(interior) == (Fraction(1, 8), Fraction(3, 8))
        assert t.tour_parameters(t.vertex_point(2)) == (Fraction(1, 4),)

    def test_parameters_invert_the_tour(self):
        t = DendriteGraph(3)
        rng = random.Random(1)
        for _ in range(100):
            v = rng.randrange(2, t.vertex_count + 1)
            p = t.point(v, t.edge_length(v) * Fraction(rng.randrange(13), 12))
            for s in t.tour_parameters(p):
                assert t.tour_point(s) == p

    @pytest.mark.parametrize("depth", range(9))
    def test_tick_lookup_matches_the_fraction_definition(self, depth):
        t = DendriteGraph(depth)
        rng = random.Random(depth)
        breaks = _reference_breaks(t)
        # 0, 1, every exact break time (a segment boundary), every k / 1024,
        # then seeded dyadic times and times with odd denominators
        times = [Fraction(0), Fraction(1)] + [arc / breaks[-1] for arc in breaks[1:-1]]
        times += [Fraction(k, 1024) for k in range(1025)]
        for _ in range(300):
            m = rng.randrange(1, 60)
            times.append(Fraction(rng.randrange(2**m + 1), 2**m))
            den = rng.randrange(3, 10**9, 2)
            times.append(Fraction(rng.randrange(den + 1), den))
        for s in times:
            assert t.tour_point(s) == _reference_tour_point(t, s), (depth, s)

    def test_lookup_accepts_int_and_float_times(self):
        t = DendriteGraph(2)
        assert t.tour_point(0) == t.tour_point(1) == t.vertex_point(1)
        assert t.tour_point(0.25) == t.tour_point(Fraction(1, 4))

    @pytest.mark.parametrize("depth", range(9))
    def test_parameters_match_the_fraction_definition(self, depth):
        t = DendriteGraph(depth)
        for p in _fiber_points(t, seed=depth):
            assert t.tour_parameters(p) == _reference_tour_parameters(t, p), (depth, p)

    def test_internal_vertex_visit_count(self):
        t = DendriteGraph(2)
        # an internal vertex with two children is hit three times
        assert len(t.tour_parameters(t.vertex_point(2))) == 3
        # a leaf once
        assert len(t.tour_parameters(t.vertex_point(7))) == 1


class TestBinaryExpansion:
    def test_values(self):
        assert binary_expansion(Address("", "0")) == 0
        assert binary_expansion(Address("", "1")) == 1
        assert binary_expansion(Address("1", "0")) == Fraction(1, 2)
        assert binary_expansion(Address("01", "0")) == Fraction(1, 4)

    @given(a=st.builds(Address, prefix=st.text(alphabet="01", max_size=60), tail=st.sampled_from("01")))
    def test_closed_form_matches_symbol_sum(self, a):
        assert binary_expansion(a) == _reference_binary_expansion(a)

    def test_two_expansions_of_a_dyadic(self):
        assert binary_expansion(Address("1", "0")) == binary_expansion(Address("0", "1"))


class TestDendriteMap:
    def test_constant_addresses_hit_the_root(self):
        t = DendriteGraph(2)
        assert dendrite_map(t, Address("", "0")) == t.vertex_point(1)
        assert dendrite_map(t, Address("", "1")) == t.vertex_point(1)

    def test_quarter_value_address(self):
        t = DendriteGraph(1)
        assert dendrite_map(t, Address("01", "0")) == t.vertex_point(2)

    def test_continuity_modulus(self):
        for depth in range(9):
            assert check_continuity_modulus(DendriteGraph(depth)), depth


class TestTickGeometry:
    """The continuity check's integer geodesic against the Fraction API."""

    def test_random_pairs(self):
        rng = random.Random(7)
        for depth in range(9):
            t = DendriteGraph(depth)
            for _ in range(200):
                a, b = random_address(rng, 30), random_address(rng, 30)
                if a != b:
                    assert _tick_distance(t, a, b) == _reference_distance(t, a, b), (depth, a, b)

    def test_constant_addresses(self):
        a, b = Address("", "0"), Address("", "1")
        for depth in range(9):
            t = DendriteGraph(depth)
            assert _tick_distance(t, a, b) == 0
            assert t._tick_point(_binary_numerator(a), 1) in ((1, 0), (2, 0))
            assert t._tick_point(_binary_numerator(b), 1) == (1, 0)

    def test_tour_breaks(self):
        # depth 0 has no edges; the constant-address test covers it
        for depth in range(1, 9):
            t = DendriteGraph(depth)
            addrs = _break_addresses(t)
            # each address against its neighbours in order and one far away
            pairs = list(zip(addrs, addrs[1:])) + list(zip(addrs, addrs[len(addrs) // 2 :]))
            for a, b in pairs:
                assert _tick_distance(t, a, b) == _reference_distance(t, a, b), (depth, a, b)

    @pytest.mark.parametrize("depth", range(1, 9))
    @pytest.mark.parametrize(
        "fault",
        ["wrong-root-distance", "kernel-runs-down-on-the-sibling-edge", "kernel-runs-up-on-the-sibling-edge"],
    )
    def test_the_points_inside_the_segments_alone_catch_a_kernel_fault(self, monkeypatch, depth, fault):
        # without the break pairs the kernel is checked only inside the
        # segments; the table is intact, so only the kernel sees the fault
        monkeypatch.setattr(dendrite, "_break_pairs", lambda tree: iter(()))
        assert check_continuity_modulus(DendriteGraph(depth))
        t = DendriteGraph(depth)
        PLANTED_FAULTS[fault][0](t)
        assert not check_continuity_modulus(t)


class TestBreakPairs:
    def test_one_pair_straddling_each_break(self):
        for depth in range(1, 9):
            t = DendriteGraph(depth)
            total = t._break_ticks[-1]
            k = total.bit_length() + 2
            pairs = list(_break_pairs(t))
            assert len(pairs) == len(t._break_ticks)
            for ticks, (na, nb, scale, m) in zip(t._break_ticks, pairs):
                assert scale == k and m == k
                lo, hi = Fraction(na, 2**k), Fraction(nb, 2**k)
                assert hi - lo == Fraction(1, 2**k)
                assert lo <= Fraction(ticks, total) <= hi
                assert Fraction(ticks, total) < hi or ticks == total

    def test_no_breaks_on_the_one_vertex_tree(self):
        assert list(_break_pairs(DendriteGraph(0))) == []

    def test_matches_the_address_pairs(self):
        for depth in range(9):
            t = DendriteGraph(depth)
            _assert_pairs_match(_break_pairs(t), _reference_break_pairs(t))


class TestFibers:
    def test_root_fiber_contains_both_constants(self):
        t = DendriteGraph(2)
        fib = fiber_of(t, t.vertex_point(1), 4)
        assert Address("", "0") in fib.witnesses
        assert Address("", "1") in fib.witnesses
        words = set(fib.cylinders)
        assert "0000" in words and "1111" in words

    def test_interior_point_has_two_parameter_families(self):
        t = DendriteGraph(1)
        p = t.point(2, Fraction(1, 6))
        params = t.tour_parameters(p)
        assert len(params) == 2
        fib = fiber_of(t, p, 3)
        # t = 1/8 and 3/8 give the down-pass and up-pass cylinder families
        assert set(fib.cylinders) == {"000", "001", "010", "011"}

    def test_leaf_has_one_parameter(self):
        t = DendriteGraph(1)
        assert len(t.tour_parameters(t.vertex_point(2))) == 1

    def test_witnesses_map_onto_or_near_the_target(self):
        t = DendriteGraph(3)
        tol = Fraction(1, 10**9)
        rng = random.Random(2)
        points = [t.vertex_point(v) for v in t.vertices]
        for _ in range(20):
            v = rng.randrange(2, t.vertex_count + 1)
            points.append(t.point(v, t.edge_length(v) * Fraction(rng.randrange(1, 12), 12)))
        for p in points:
            fib = fiber_of(t, p, 8)
            assert fib.cylinders
            for wit in fib.witnesses:
                assert t.distance(dendrite_map(t, wit), p) <= tol

    def test_dyadic_witnesses_are_exact(self):
        t = DendriteGraph(1)
        # the leaf sits at tour time 1/4, a dyadic with two exact expansions
        fib = fiber_of(t, t.vertex_point(2), 4)
        for wit in fib.witnesses:
            assert dendrite_map(t, wit) == t.vertex_point(2)

    def test_net_fibers_exhaust_all_cylinders(self):
        import itertools

        t = DendriteGraph(2)
        depth = 5
        words_seen: set[str] = set()
        witnesses_by_point: dict = {}
        for i in range(2**depth + 1):
            p = t.tour_point(Fraction(i, 2**depth))
            fib = fiber_of(t, p, depth)
            words_seen.update(fib.cylinders)
            witnesses_by_point.setdefault(p, set()).update(fib.witnesses)
            # sharing criterion: every listed cylinder's dyadic interval
            # holds a tour time of the point
            for w in fib.cylinders:
                lo = Fraction(int(w, 2), 2**depth)
                assert any(lo <= s <= lo + Fraction(1, 2**depth) for s in t.tour_parameters(p))
        assert words_seen == {"".join(b) for b in itertools.product("01", repeat=depth)}
        # witnesses map onto their own target, so distinct points never share one
        points = list(witnesses_by_point)
        for p, q in itertools.combinations(points, 2):
            assert not (witnesses_by_point[p] & witnesses_by_point[q])

    def test_surjectivity(self):
        for depth in range(9):
            assert check_surjectivity(DendriteGraph(depth)), depth

    def test_off_tree_fiber_rejected(self):
        from cantor_coarse.dendrite import DendritePoint

        t = DendriteGraph(1)
        with pytest.raises(ValueError, match="off the tree"):
            fiber_of(t, DendritePoint(5, Fraction(1, 7)), 3)


class TestTickFibers:
    """``fiber_of`` and the soundness check against the Fraction definitions."""

    @pytest.mark.parametrize("depth", range(9))
    def test_fibers_match_the_fraction_definition(self, depth):
        t = DendriteGraph(depth)
        assert _fiber_mismatches(t, _fiber_points(t, seed=depth), _fiber_depths(t)) == []

    @pytest.mark.parametrize("depth", range(1, 9))
    @pytest.mark.parametrize("shift", [-1, 1])
    def test_a_visit_table_one_tick_off_fails(self, depth, shift):
        for v in (1, 2, 2**depth - 1, 2 ** (depth + 1) - 1):  # root, first child, an inner vertex, last leaf
            t = DendriteGraph(depth)
            visits = list(t._visit_ticks)
            # clamped to the tour: the root keeps 0 or the full tour, but not both
            visits[v] = tuple(min(max(ticks + shift, 0), t._break_ticks[-1]) for ticks in visits[v])
            assert visits[v] != t._visit_ticks[v]
            t.__dict__["_visit_ticks"] = tuple(visits)
            failed = _fiber_mismatches(t, [t.vertex_point(v)], _fiber_depths(t))
            assert [d for _, d in failed] == _fiber_depths(t), (depth, v, shift)

    @pytest.mark.parametrize("depth", range(9))
    def test_soundness_matches_the_fraction_definition(self, depth):
        t = DendriteGraph(depth)
        sound = cli._fiber_soundness(t, 2 * depth + 4)
        assert sound == _reference_fiber_soundness(t, 2 * depth + 4)
        assert sound <= 1e-9


class TestPlantedFaults:
    """Each dendrite record fails when the tour table makes its claim false."""

    @pytest.mark.parametrize("depth", range(1, 9))
    @pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
    def test_a_fault_fails_its_records(self, monkeypatch, fault, depth):
        plant, must_fail = PLANTED_FAULTS[fault]
        monkeypatch.setattr(dendrite, "DendriteGraph", _planted_trees(plant))
        records = cli._dendrite_checks(cli.RunConfig(dendrite_depth=depth))
        failing = {r["id"] for r in records if not r["passed"]}
        assert must_fail <= failing, (fault, depth, failing)

    @pytest.mark.parametrize(
        ("fault", "depth"), [(fault, depth) for fault, depths in KERNEL_FAULTS_IN_THE_MAP.items() for depth in depths]
    )
    def test_a_kernel_fault_reaches_the_map(self, monkeypatch, fault, depth):
        # ``dendrite_map`` runs the kernel the continuity check certifies, so
        # a kernel fault also moves the fiber witnesses
        monkeypatch.setattr(dendrite, "DendriteGraph", _planted_trees(PLANTED_FAULTS[fault][0]))
        soundness = cli._dendrite_checks(cli.RunConfig(dendrite_depth=depth))[-1]
        assert (soundness["id"], soundness["passed"]) == ("dendrite.fiber_soundness", False), soundness

    def test_a_witness_off_the_tree_fails_fiber_soundness(self, monkeypatch, caplog):
        # with the kernel running the last leaf's edge at twice its length,
        # the leaf's witness maps past the leaf, off the tree, and measuring
        # it raises
        monkeypatch.setattr(dendrite, "DendriteGraph", _planted_trees(_run_the_last_leaf_edge_twice_its_length))
        caplog.set_level(logging.INFO, logger="cantor_coarse")
        soundness = cli._dendrite_checks(cli.RunConfig())[-1]
        assert (soundness["id"], soundness["measured"], soundness["passed"]) == ("dendrite.fiber_soundness", None, False)
        (raised,) = [r for r in caplog.records if r.exc_info]
        assert raised.levelno == logging.INFO
        assert "off the tree" in str(raised.exc_info[1])

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_three_runs_of_one_edge_keep_the_total(self, depth):
        t = DendriteGraph(depth)
        _run_an_edge_three_times(t)
        assert t.tour_length == DendriteGraph(depth).tour_length == 2 * _total_edge_length(t)

    @pytest.mark.parametrize(
        ("check_id", "check"),
        [
            ("dendrite.tour_conservation", "check_tour_conservation"),
            ("dendrite.surjectivity", "check_surjectivity"),
            ("dendrite.continuity", "check_continuity_modulus"),
        ],
    )
    def test_each_record_reads_its_check(self, monkeypatch, check_id, check):
        monkeypatch.setattr(dendrite, check, lambda tree: False)
        records = cli._dendrite_checks(cli.RunConfig())
        assert [r["id"] for r in records if not r["passed"]] == [check_id]
