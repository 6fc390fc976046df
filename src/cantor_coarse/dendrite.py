"""Finite dendrites and the surjection from the code space onto them.

The dendrite is realized as a complete binary tree with level-l edges of
length 3**-l, walked by the closed depth-first tour that descends and
reascends every edge.  Composing binary expansion of an address with arc
length along the tour gives a continuous map of the whole code space onto
the whole tree; the point fibers of that map realize the tree as a
decomposition of the code space.

The geometry is kept in whole ticks, units of 3**-depth (the shortest
edge): every edge length, tour break and vertex visit is a whole number
of ticks, and the tick tables are the tree's only stored geometry.  The
kernels run on those integers:

- ``_tick_point`` bisects the break ticks at a time ``num / den`` and
  gives the point as an edge and an offset in units of 3**-depth / den;
  ``tour_point`` is that one lookup in canonical form;
- ``fiber_of`` takes a point's tour times as integer pairs ``(a, q)``
  for ``a / q`` and places each in its cylinder by ``divmod`` and its
  witnesses by ``gcd`` and shifts;
- the conservation, surjectivity and continuity checks are decided on
  the tour's segment table: its edges and break ticks.  The continuity
  check also runs ``_tick_point`` at one dyadic time inside each segment
  and on each side of each break, so the kernel it certifies is the one
  ``dendrite_map`` runs.

The public point API (``tour_point``, ``tour_parameters``, ``point``,
``distance``, ``dendrite_map``, ``edge_length``, ``root_distance``,
``tour_length``) still returns exact ``Fraction``s, so dyadic tour times
invert exactly, and it answers from the tick tables: a point's offset is
checked against its edge by one integer test, and ``distance`` is
``_tick_distance`` at the offsets' common denominator, so the continuity
and fiber soundness records trust one geodesic.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from functools import cached_property

from .code_space import Address, _Value

__all__ = [
    "DendriteFiber",
    "DendriteGraph",
    "DendritePoint",
    "WITNESS_DEPTH",
    "binary_expansion",
    "check_continuity_modulus",
    "check_surjectivity",
    "check_tour_conservation",
    "dendrite_map",
    "fiber_of",
]

# tour length stays below 4, so 4 * 2**-40 keeps truncated witnesses
# within 1e-9 of their targets
WITNESS_DEPTH = 40


class DendritePoint(_Value):
    """A point on the tree: ``offset`` from the parent end of the edge into
    ``edge_child``.

    Canonical form: a non-root vertex sits at full offset on its own parent
    edge, and the root is (1, 0); interior points keep 0 < offset < length.
    """

    __slots__ = ("edge_child", "offset")

    def __init__(self, edge_child: int, offset: Fraction) -> None:
        object.__setattr__(self, "edge_child", edge_child)
        object.__setattr__(self, "offset", offset)

    def __eq__(self, other: object) -> bool:
        if type(other) is not DendritePoint:
            return NotImplemented
        return self.edge_child == other.edge_child and self.offset == other.offset

    def __hash__(self) -> int:
        return hash((self.edge_child, self.offset))


_ROOT = DendritePoint(1, Fraction(0))


def _common_ancestor(a: int, b: int) -> int:
    """Lowest common ancestor of two heap-indexed vertices."""
    while a != b:
        if a > b:
            a //= 2
        else:
            b //= 2
    return a


class DendriteGraph:
    """Complete binary tree of the given depth, heap-indexed from 1.

    The edge into a level-l vertex has length 3**-l; the planar embedding
    fans children out inside their parent's angular slot.
    """

    def __init__(self, depth: int) -> None:
        if depth < 0:
            raise ValueError("depth must be non-negative")
        self.depth = depth

    @property
    def vertex_count(self) -> int:
        return 2 ** (self.depth + 1) - 1

    @property
    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def level(self, v: int) -> int:
        return v.bit_length() - 1

    def parent(self, v: int) -> int:
        return v // 2

    def children(self, v: int) -> tuple[int, ...]:
        if self.level(v) >= self.depth:
            return ()
        return (2 * v, 2 * v + 1)

    def _edge(self, child: int) -> int:
        """The length of the edge into ``child``, in ticks."""
        if not 2 <= child <= self.vertex_count:
            raise ValueError(f"vertex {child} carries no edge")
        return self._edge_ticks[child]

    def edge_length(self, child: int) -> Fraction:
        return Fraction(self._edge(child), 3**self.depth)

    def root_distance(self, v: int) -> Fraction:
        if not 1 <= v <= self.vertex_count:
            raise ValueError(f"vertex {v} is not on the tree")
        return Fraction(self._root_ticks[v], 3**self.depth)

    # -- points ----------------------------------------------------------

    def point(self, edge_child: int, offset) -> DendritePoint:
        """Canonical point at ``offset`` from the parent end of an edge."""
        off = Fraction(offset)
        if edge_child == 1:
            if off != 0:
                raise ValueError("the root carries no edge")
            return _ROOT
        if not 0 <= off.numerator * 3**self.depth <= self._edge(edge_child) * off.denominator:
            raise ValueError(f"offset {off} off the edge into {edge_child}")
        if off == 0:
            return self.vertex_point(self.parent(edge_child))
        return DendritePoint(edge_child, off)

    def vertex_point(self, v: int) -> DendritePoint:
        if v == 1:
            return _ROOT
        return DendritePoint(v, self.edge_length(v))

    def as_vertex(self, p: DendritePoint) -> int | None:
        """The vertex a point sits on, or None for interior edge points."""
        if p.edge_child == 1:
            return 1
        off = p.offset
        if off.numerator * 3**self.depth == self._edge(p.edge_child) * off.denominator:
            return p.edge_child
        return None

    def _validate(self, p: DendritePoint) -> None:
        """Raise unless ``p`` is the root or lies on an edge of the tree, past
        its parent end and at most at its child end."""
        child, off = p.edge_child, p.offset
        if child == 1 and off == 0:
            return
        if not (
            2 <= child <= self.vertex_count
            and 0 < off.numerator * 3**self.depth <= self._edge_ticks[child] * off.denominator
        ):
            raise ValueError("point off the tree")

    def distance(self, p: DendritePoint, q: DendritePoint) -> Fraction:
        """Tree geodesic distance between two points: ``_tick_distance``
        with both offsets in units of 3**-depth / den, den the least common
        denominator of the two offsets."""
        self._validate(p)
        self._validate(q)
        x, y = p.offset, q.offset
        den = math.lcm(x.denominator, y.denominator)
        scale = 3**self.depth
        ticks = self._tick_distance(
            (p.edge_child, x.numerator * (den // x.denominator) * scale),
            (q.edge_child, y.numerator * (den // y.denominator) * scale),
            den,
        )
        return Fraction(ticks, den * scale)

    # -- the closed tour ---------------------------------------------------

    @cached_property
    def tour_segments(self) -> tuple[tuple[int, str], ...]:
        """Depth-first segments (edge child, 'down'|'up') of the closed tour."""
        segs: list[tuple[int, str]] = []

        def walk(v: int) -> None:
            for c in self.children(v):
                segs.append((c, "down"))
                walk(c)
                segs.append((c, "up"))

        walk(1)
        return tuple(segs)

    @cached_property
    def _break_ticks(self) -> tuple[int, ...]:
        """Cumulative arc length at the segment boundaries, in whole units of
        3**-depth (the shortest edge); the last entry is the full tour."""
        edges = self._edge_ticks
        return tuple(itertools.accumulate((edges[child] for child, _ in self.tour_segments), initial=0))

    @cached_property
    def _edge_ticks(self) -> tuple[int, ...]:
        """Edge lengths in ticks (units of 3**-depth), indexed by child vertex;
        the root and the unused index 0 carry no edge and read 0."""
        return (0, 0) + tuple(3 ** (self.depth - self.level(v)) for v in range(2, self.vertex_count + 1))

    @cached_property
    def _root_ticks(self) -> tuple[int, ...]:
        """Vertex root distances in ticks, indexed like ``_edge_ticks``."""
        dist = [0, 0]
        for v in range(2, self.vertex_count + 1):
            dist.append(dist[v // 2] + self._edge_ticks[v])
        return tuple(dist)

    def _tick_point(self, num: int, den: int) -> tuple[int, int]:
        """The tour point at time ``num / den`` as (edge child, offset), the
        offset in units of 3**-depth / den.

        Not canonical: a vertex may come back as offset 0 on one of its
        child edges, which ``_tick_distance`` measures correctly.
        """
        breaks = self._break_ticks
        arc = num * breaks[-1]
        # every break is a whole number of ticks, so the breaks at or below
        # the arc are those at or below the whole ticks it contains
        i = bisect.bisect_right(breaks, arc // den) - 1
        if i >= len(self.tour_segments):  # t == 1 closes the tour (always at depth 0)
            return (1, 0)
        child, direction = self.tour_segments[i]
        delta = arc - breaks[i] * den
        if direction == "down":
            return (child, delta)
        return (child, self._edge_ticks[child] * den - delta)

    def _tick_distance(self, p: tuple[int, int], q: tuple[int, int], den: int) -> int:
        """The tree geodesic between two points given as ``_tick_point``
        gives them, (edge child, offset in units of 3**-depth / den), in
        the same units.  ``distance`` measures through it too."""
        (pe, x), (qe, y) = p, q
        if pe == qe:
            return abs(x - y)
        anc = _common_ancestor(pe, qe)
        root = self._root_ticks
        dp = root[pe // 2] * den + x
        dq = root[qe // 2] * den + y
        if anc == pe:  # p's edge lies on q's root path
            return dq - dp
        if anc == qe:
            return dp - dq
        return dp + dq - 2 * root[anc] * den

    @property
    def tour_length(self) -> Fraction:
        """The unnormalized length of the closed tour."""
        return Fraction(self._break_ticks[-1], 3**self.depth)

    def tour_point(self, t) -> DendritePoint:
        """The point at normalized arc length ``t`` along the closed tour:
        ``_tick_point`` at ``t``'s numerator and denominator, in canonical
        form."""
        if not isinstance(t, Fraction):
            t = Fraction(t)
        num, den = t.numerator, t.denominator
        if not 0 <= num <= den:
            raise ValueError("tour parameter outside [0, 1]")
        child, offset = self._tick_point(num, den)
        if child == 1:
            return _ROOT
        if not offset:  # the break that opens a down segment: its parent vertex
            return self.vertex_point(child // 2)
        return DendritePoint(child, Fraction(offset, den * 3**self.depth))

    @cached_property
    def _visit_ticks(self) -> tuple[tuple[int, ...], ...]:
        """Break ticks at which the tour sits on each vertex, indexed by vertex
        (index 0 is unused)."""
        visits: list[list[int]] = [[] for _ in range(self.vertex_count + 1)]
        visits[1].append(0)
        for (child, direction), ticks in zip(self.tour_segments, self._break_ticks[1:]):
            visits[child if direction == "down" else child // 2].append(ticks)
        return tuple(tuple(v) for v in visits)

    def _tour_times(self, p: DendritePoint) -> tuple[tuple[int, int], ...]:
        """All normalized tour times landing on ``p``, in increasing order, as
        integer pairs ``(a, q)`` for the time ``a / q``, not in lowest terms.

        A vertex's times are its visit ticks over the tour ticks.  An interior
        point at offset ``n / d`` lies ``n * 3**depth / d`` ticks into its
        edge, so its down and up times share the denominator ``d * tour ticks``.
        The tour enters the edge one edge length before the child's first
        visit and leaves it one edge length after the child's last.
        """
        self._validate(p)
        if self.depth == 0:  # the tour never leaves the root
            return ((0, 1),)
        total = self._break_ticks[-1]
        v = self.as_vertex(p)
        if v is not None:
            return tuple((ticks, total) for ticks in self._visit_ticks[v])
        child = p.edge_child
        n, d = p.offset.numerator, p.offset.denominator
        n *= 3**self.depth
        edge, visits = self._edge_ticks[child], self._visit_ticks[child]
        down = (visits[0] - edge) * d + n
        up = (visits[-1] + edge) * d - n
        return ((down, d * total), (up, d * total))

    def tour_parameters(self, p: DendritePoint) -> tuple[Fraction, ...]:
        """All normalized tour times landing on ``p``.

        Interior edge points are hit twice (down pass and up pass), leaves
        once, and a vertex of out-degree d is hit 1 + d times.
        """
        return tuple(Fraction(a, q) for a, q in self._tour_times(p))

    # -- planar embedding --------------------------------------------------

    @cached_property
    def coordinates(self) -> dict[int, tuple[float, float]]:
        """Planar positions: children fan out inside the parent's angular slot."""
        pos = {1: (0.0, 0.0)}

        def place(v: int, lo: float, hi: float) -> None:
            kids = self.children(v)
            for i, c in enumerate(kids):
                a = lo + (hi - lo) * i / len(kids)
                b = lo + (hi - lo) * (i + 1) / len(kids)
                theta = 0.5 * (a + b)
                length = self._edge_ticks[c] / 3**self.depth
                x, y = pos[v]
                pos[c] = (x + length * math.sin(theta), y + length * math.cos(theta))
                place(c, a, b)

        place(1, -math.pi / 3, math.pi / 3)
        return pos


def _binary_numerator(a: Address) -> int:
    """Binary value of an address times 2**len(prefix).

    The prefix is a binary numeral; a constant tail of ones adds one unit.
    """
    return int("0" + a.prefix, 2) + (a.tail == "1")


def binary_expansion(a: Address) -> Fraction:
    """The value sum s_i * 2**-i of an address; continuous and onto [0, 1]."""
    return Fraction(_binary_numerator(a), 2 ** len(a.prefix))


def dendrite_map(tree: DendriteGraph, a: Address) -> DendritePoint:
    """The surjection code space -> dendrite: tour point at the binary value."""
    return tree.tour_point(binary_expansion(a))


class DendriteFiber:
    """Preimage data of one tree point at a fixed cylinder depth.

    ``cylinders`` are the sorted words of all depth-n cylinders whose image
    interval covers the point; ``witnesses`` are eventually constant
    addresses mapping onto (dyadic tour times) or within tolerance of (all
    other times) the point.
    """

    __slots__ = ("cylinders", "witnesses")

    def __init__(self, cylinders: tuple[str, ...], witnesses: tuple[Address, ...]) -> None:
        self.cylinders = cylinders
        self.witnesses = witnesses


def _time_addresses(a: int, q: int, depth: int) -> list[Address]:
    """Addresses at the tour time ``a / q``: both binary expansions of a
    dyadic time, else its first ``max(depth, WITNESS_DEPTH)`` binary digits."""
    if a == 0:
        return [Address("", "0")]
    if a == q:
        return [Address("", "1")]
    g = math.gcd(a, q)
    den = q // g
    if den & (den - 1) == 0:  # dyadic: both exact binary expansions
        m = den.bit_length() - 1
        num = a // g
        return [
            Address(format(num, f"0{m}b"), "0"),
            Address(format(num - 1, f"0{m}b"), "1"),
        ]
    w = max(depth, WITNESS_DEPTH)
    return [Address(format((a << w) // q, f"0{w}b"), "0")]


def fiber_of(tree: DendriteGraph, p: DendritePoint, depth: int) -> DendriteFiber:
    """All depth-``depth`` cylinders whose tour image covers ``p``.

    A cylinder [w] maps to the tour arc over the dyadic interval of width
    2**-len(w) starting at the binary value of w, so membership of each
    tour time of ``p`` is decided exactly: the time ``a / q`` lies in the
    cylinder numbered ``(a << depth) // q``, and on its left boundary too
    when the division leaves no remainder.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    scale = 1 << depth
    words: set[str] = set()  # bin(scale | i)[3:] is i as a depth-digit word
    witnesses: set[Address] = set()
    for a, q in tree._tour_times(p):
        i, r = divmod(a << depth, q)
        if i == scale:  # t == 1 lies in the last cylinder only
            i -= 1
        elif not r and i:  # boundary time also belongs to the left cylinder
            words.add(bin(scale | (i - 1))[3:])
        words.add(bin(scale | i)[3:])
        witnesses.update(_time_addresses(a, q, depth))
    return DendriteFiber(tuple(sorted(words)), tuple(sorted(witnesses)))


def _segment_ends(child: int, direction: str) -> tuple[int, int]:
    """The vertex a tour segment leaves and the vertex it reaches."""
    return (child // 2, child) if direction == "down" else (child, child // 2)


def _segments_run_their_edges(tree: DendriteGraph) -> bool:
    """The tour starts at tick 0, and each segment runs an edge of the tree
    and lasts exactly that edge's length in ticks."""
    segments, breaks, edges = tree.tour_segments, tree._break_ticks, tree._edge_ticks
    return (
        len(breaks) == len(segments) + 1
        and breaks[0] == 0
        and all(
            2 <= child < len(edges) and stop - start == edges[child]
            for (child, _), start, stop in zip(segments, breaks, breaks[1:])
        )
    )


def check_tour_conservation(tree: DendriteGraph) -> bool:
    """The tour spends exactly twice each edge's length on that edge.

    Decided on the segment table in ticks: each segment lasts its edge's
    length, and each edge has two segments, so a tour that runs one edge
    three times and skips a run of another of the same length fails,
    although its total is right.
    """
    children = sorted(child for child, _ in tree.tour_segments)
    twice = [child for child in range(2, tree.vertex_count + 1) for _ in range(2)]
    return _segments_run_their_edges(tree) and children == twice


def check_surjectivity(tree: DendriteGraph) -> bool:
    """The tour runs every edge exactly once down and later once up, and
    starts and ends at the root.

    Decided on the segment table.  ``check_continuity_modulus`` shows that
    each segment runs its whole edge, so with this the tour, and the map
    from the code space through it, is onto the tree.
    """
    segments = tree.tour_segments
    position = {segment: i for i, segment in enumerate(segments)}
    edges = range(2, tree.vertex_count + 1)
    if len(position) != len(segments) or position.keys() != {(c, d) for c in edges for d in ("down", "up")}:
        return False
    if any(position[(c, "down")] > position[(c, "up")] for c in edges):
        return False
    return not segments or _segment_ends(*segments[0])[0] == 1 == _segment_ends(*segments[-1])[1]


def _break_pairs(tree: DendriteGraph):
    """One pair of addresses per tour break, as integers ``(na, nb, k, m)``:
    the binary values times 2**k of the K-bit dyadic times just below and
    just above its tour time, K = (tour ticks).bit_length() + 2, with
    k = m = K, the number of symbols the two addresses agree on.

    Each pair is a word w with tails 0 and 1, so the modulus holds it to
    under a quarter tick: a leaf edge a whole tick off shows at its
    breaks, however short the edge.
    """
    breaks = tree._break_ticks
    total = breaks[-1]
    if not total:  # depth 0: the tour never leaves the root
        return
    k = total.bit_length() + 2
    for ticks in breaks:
        word = min((ticks << k) // total, (1 << k) - 1)
        yield word, word + 1, k, k


def check_continuity_modulus(tree: DendriteGraph) -> bool:
    """Modulus of continuity: addresses agreeing on their first m symbols
    land within tour_length * 2**-m of each other on the tree.

    Two such addresses have binary values within 2**-m, so the claim holds
    for every pair once the tour runs at unit speed: each segment starts
    where the one before it stopped (the first at the root, and the last
    stops there), and lasts exactly its edge's length in ticks.  That is
    decided on the segment table.

    The evaluation kernel ``_tick_point`` is tied to the table at a K-bit
    time near the middle of each segment, where it must lie on the
    segment's edge as far from the vertex the segment left as the tour
    has run, and across every break by ``_break_pairs``.  Exact and on
    integers throughout, in units of 3**-depth * 2**-K with
    ``_break_pairs``' K.
    """
    segments, breaks, edges = tree.tour_segments, tree._break_ticks, tree._edge_ticks
    ends = [_segment_ends(child, direction) for child, direction in segments]
    if [start for start, _ in ends] + [1] != [1] + [stop for _, stop in ends]:
        return False
    if not _segments_run_their_edges(tree):
        return False
    total = breaks[-1]
    k = total.bit_length() + 2
    den = 1 << k
    point, distance = tree._tick_point, tree._tick_distance
    for (child, _), (start, stop), ticks in zip(segments, ends, breaks):
        # the K-bit time at or just below the middle, under a quarter tick
        # from it, so inside the segment; ``run`` is the arc since its start
        num = ((2 * ticks + edges[child]) << (k - 1)) // total
        run = num * total - ticks * den
        p = point(num, den)
        # a vertex v sits at full offset on its own edge (the root, edge 1, at 0)
        if distance(p, (start, edges[start] * den), den) != run:
            return False
        if distance(p, (stop, edges[stop] * den), den) != edges[child] * den - run:
            return False
    return all(
        distance(point(na, 1 << scale), point(nb, 1 << scale), 1 << scale) <= total << (scale - m)
        for na, nb, scale, m in _break_pairs(tree)
    )
