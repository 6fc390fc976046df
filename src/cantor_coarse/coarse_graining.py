"""Quotients of the code space and the tower of coarse grainings.

A quotient collapses every block of a clopen partition except the first
onto a chosen representative inside the first block.  Its fibers form a
decomposition space whose points are labeled by first-block points; the
labeling is a bijection, so transporting the metric across it is exact and
turns the labeling into an isometry.  Conjugating the branch maps through
the label coordinates makes each decomposition space self-similar again,
and the construction stacks indefinitely: space, first quotient, quotient
of the quotient, and so on.  The tower is purely symbolic: only the ground
space's realization by the quadratic system carries numbers, and the
floors' branches contract as the ground's do.
"""

from __future__ import annotations

import random

from . import _Value
from .clopen_partition import Partition, build_partition
from .code_space import (
    Address,
    AddressMap,
    ClopenSet,
    FULL_SPACE,
    OutsideDomainError,
    clopen_union,
    code_distance,
    compose,
    identity_map,
    map_clopen,
    prepend_map,
    random_address,
    recode_between,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Fiber",
    "HierarchyLevel",
    "QuotientSpec",
    "RATIO_SLACK",
    "SelfSimilarityReport",
    "base_system",
    "build_hierarchy",
    "check_conjugation",
    "check_coverage",
    "check_intertwining",
    "check_isometry",
    "conjugate_system",
    "default_representatives",
    "merged_representatives",
    "verify_self_similarity",
]

RATIO_SLACK = 1e-9


class Fiber:
    """A multi-point fiber of the collapse, named by its first-block point:
    the 1-based collapsed blocks glued onto that label."""

    __slots__ = ("label", "block_indices")

    def __init__(self, label: Address, block_indices: tuple[int, ...]) -> None:
        self.label = label
        self.block_indices = block_indices

    def __eq__(self, other: object) -> bool:
        if type(other) is not Fiber:
            return NotImplemented
        return self.label == other.label and self.block_indices == other.block_indices


class QuotientSpec(_Value):
    """The collapse map: identity on block 1, constant q_i on block i.

    Each of the ``size - 1`` collapsed blocks joins the fiber of its
    representative, and ``multi_fibers`` lists those fibers by label;
    every other first-block point is a singleton fiber.  Representatives
    may coincide, gluing several blocks into one fiber.  A one-block
    partition collapses nothing: the quotient is trivial, with no
    multi-point fiber, and ``quotient.nontrivial`` fails on it.
    """

    __slots__ = ("partition", "representatives", "multi_fibers")

    def __init__(self, partition: Partition, representatives: tuple[Address, ...]) -> None:
        expected = partition.size - 1
        if len(representatives) != expected:
            raise ValueError(f"need {expected} representatives, got {len(representatives)}")
        first = partition.blocks[0]
        groups: dict[Address, list[int]] = {}
        for i, q in enumerate(representatives, start=2):
            if not first.contains(q):
                raise ValueError(f"representative {q} lies outside the first block")
            groups.setdefault(q, []).append(i)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "representatives", representatives)
        fibers = tuple(Fiber(label, tuple(ix)) for label, ix in sorted(groups.items()))
        object.__setattr__(self, "multi_fibers", fibers)

    # ``multi_fibers`` follows from the other two fields, so it is not compared
    def __eq__(self, other: object) -> bool:
        if type(other) is not QuotientSpec:
            return NotImplemented
        return self.partition == other.partition and self.representatives == other.representatives

    def __hash__(self) -> int:
        return hash((self.partition, self.representatives))


def default_representatives(partition: Partition) -> tuple[Address, ...]:
    """q_i = c + 1^(i-1) + 0^inf with c the first cylinder word of block 1.

    Distinct by construction, one per collapsed block.
    """
    word = partition.blocks[0].words[0]
    return tuple(Address(word + "1" * (i - 1), "0") for i in range(2, partition.size + 1))


def merged_representatives(partition: Partition) -> tuple[Address, ...]:
    """All collapsed blocks share one representative, merging their fibers."""
    word = partition.blocks[0].words[0]
    q = Address(word + "1", "0")
    return tuple(q for _ in range(2, partition.size + 1))


class HierarchyLevel:
    """One floor of the coarse-graining tower, in label coordinates.

    ``maps`` are the floor's branch maps, acting on its clopen ``carrier``.
    ``hom`` recodes the previous carrier onto this one, and is the
    floor-to-floor homeomorphism: it sends x to the fiber of ``quotient``
    labeled ``hom(x)``.  ``to_base`` pulls label coordinates all the way back to
    the ground space, which is how the transported metric is evaluated.
    The ground floor has no quotient and no ``hom``.  A floor is purely
    symbolic and carries no modulus: labels pull back to ground addresses,
    so every floor realizes to the same interval covers of the quadratic
    system, with the ground's contraction bound, and callers build those
    once rather than per floor.
    """

    __slots__ = ("level", "maps", "carrier", "quotient", "hom", "to_base")

    def __init__(
        self,
        level: int,
        maps: tuple[AddressMap, ...],
        carrier: ClopenSet,
        quotient: QuotientSpec | None,
        hom: AddressMap | None,
        to_base: AddressMap,
    ) -> None:
        self.level = level
        self.maps = maps
        self.carrier = carrier
        self.quotient = quotient
        self.hom = hom
        self.to_base = to_base

    def metric(self, y1: Address, y2: Address) -> Fraction:
        """Transported ground metric; the tower maps are isometries for it."""
        return code_distance(self.to_base(y1), self.to_base(y2))


def base_system() -> HierarchyLevel:
    """The ground floor: the two inverse branches in exact symbolic
    coordinates.

    Under the coding map the inverse branches act on addresses by
    prepending one symbol, so the symbolic model is exact.
    """
    return HierarchyLevel(
        level=0,
        maps=(prepend_map("0"), prepend_map("1")),
        carrier=FULL_SPACE,
        quotient=None,
        hom=None,
        to_base=identity_map(),
    )


def conjugate_system(maps: tuple[AddressMap, ...], hom: AddressMap) -> tuple[AddressMap, ...]:
    """Transport branch maps through a homeomorphism: q_j = h o p_j o h^-1.

    In the transported metric each conjugate contracts exactly as its
    source does, so the ground's modulus bound holds on every floor, and
    the coverage identity transports along with it.
    """
    inv = hom.inverse()
    return tuple(compose(inv, m, hom) for m in maps)


def build_hierarchy(
    levels: int,
    partition_n: int = 2,
    representatives: str = "distinct",
    explicit_representatives: tuple[tuple[Address, ...], ...] | None = None,
) -> list[HierarchyLevel]:
    """Stack ``levels`` coarse grainings over the ground code space.

    Each new floor partitions the previous carrier into ``partition_n``
    blocks, collapses everything onto the first block, and conjugates the
    branch maps through the recoding onto that block.  The collapsed
    blocks take ``default_representatives`` (``distinct``),
    ``merged_representatives`` (``merged``), or floor k's list from
    ``explicit_representatives`` (``explicit``).

    Building a tower takes no base system, checks nothing and reads no
    modulus, so a tower exists at every ``mu``; only the verify command
    judges the base system's contraction conditions, and floors are
    verified on demand:
    check_coverage decides each floor's coverage identity exactly, and
    check_isometry, check_conjugation and check_intertwining decide their
    map equalities exactly, over every point of a carrier.  The verify
    command reads the contraction ratio on the ground's interval cover, and
    a floor that intertwines with the ground floor has the ground's ratios.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    if representatives == "explicit":
        if explicit_representatives is None or len(explicit_representatives) < levels:
            raise ValueError(f"the explicit policy needs representatives for each of {levels} levels")
    elif representatives not in ("distinct", "merged"):
        raise ValueError(f"unknown representative policy {representatives!r}")
    tower = [base_system()]
    for k in range(1, levels + 1):
        prev = tower[-1]
        partition = build_partition(prev.carrier, partition_n)
        if representatives == "explicit":
            reps = explicit_representatives[k - 1]
        elif representatives == "merged":
            reps = merged_representatives(partition)
        else:
            reps = default_representatives(partition)
        g = recode_between(prev.carrier, partition.blocks[0])
        tower.append(
            HierarchyLevel(
                level=k,
                maps=conjugate_system(prev.maps, g),
                carrier=map_clopen(g, prev.carrier),
                quotient=QuotientSpec(partition, reps),
                hom=g,
                to_base=compose(g.inverse(), prev.to_base),
            )
        )
    return tower


class SelfSimilarityReport:
    """Checkable self-similarity content of one floor: coverage + contraction."""

    __slots__ = ("coverage_exact", "cylinders_enumerated", "max_ratio", "ratio_samples")

    def __init__(
        self,
        coverage_exact: bool,
        cylinders_enumerated: int,
        max_ratio: tuple[float, ...],
        ratio_samples: int,
    ) -> None:
        self.coverage_exact = coverage_exact
        self.cylinders_enumerated = cylinders_enumerated
        self.max_ratio = max_ratio
        self.ratio_samples = ratio_samples


def check_coverage(level: HierarchyLevel) -> bool:
    """The branch images of the carrier union back to the carrier, exactly.

    Each image is the carrier's canonical words pushed through the composed
    label maps, which refine a word only where they must; canonical form
    makes the union's equality with the carrier an exact cylinder identity.
    """
    carrier = level.carrier
    return clopen_union(*(map_clopen(branch, carrier) for branch in level.maps)) == carrier


def verify_self_similarity(level: HierarchyLevel, samples: int = 400, seed: int = 0) -> SelfSimilarityReport:
    """Machine-check one floor of the tower, symbolically.

    Coverage is ``check_coverage``.  Contraction: address pairs drawn by
    ``random_address`` from ``random.Random(seed)`` are measured in the
    transported middle-thirds code metric before and after each branch;
    on the tower's floors each ratio is exactly 1/3, so no document depends
    on which pairs are drawn.  Only the hierarchy document calls this, once
    per tower on its top floor, and again for a floor that does not
    intertwine with the ground; ``verify`` reads the ground's ratio in the
    real metric, from its interval cover.  The interval realization is the
    same on every floor and is checked by the caller, once.
    """
    carrier = level.carrier
    rng = random.Random(seed)
    max_ratio = [0.0] * len(level.maps)
    used = 0
    while used < samples:
        y1, y2 = random_address(rng, 20, carrier), random_address(rng, 20, carrier)
        if y1 == y2:
            continue
        used += 1
        dy = level.metric(y1, y2)
        for j, branch in enumerate(level.maps):
            ratio = level.metric(branch(y1), branch(y2)) / dy
            max_ratio[j] = max(max_ratio[j], float(ratio))
    return SelfSimilarityReport(
        coverage_exact=check_coverage(level),
        cylinders_enumerated=len(carrier.words) * len(level.maps),
        max_ratio=tuple(max_ratio),
        ratio_samples=used,
    )


def _agree_on(f: AddressMap, g: AddressMap, carrier: ClopenSet) -> bool:
    """Whether two address maps agree at every point of ``carrier``.

    Each carrier word is refined, as ``push_word`` refines it, until both
    ``word_image``s are defined.  A prefix rewrite maps [w] onto its image
    word with the rest of the sequence passed through, so equal image words
    mean the maps agree on all of [w], and different ones mean they differ
    at some point of it.  A map undefined on part of the carrier disagrees.
    """
    stack = list(carrier.words)
    while stack:
        w = stack.pop()
        try:
            a, b = f.word_image(w), g.word_image(w)
        except OutsideDomainError:
            return False
        if a is None or b is None:
            stack.append(w + "1")
            stack.append(w + "0")
        elif a != b:
            return False
    return True


def check_conjugation(level: HierarchyLevel, prev: HierarchyLevel) -> bool:
    """The branches conjugate back: h^-1 o q_j o h = p_j on the previous
    carrier, for each branch pair (p_j, q_j) of the previous floor and this
    one, decided exactly as map equality over every point."""
    if level.hom is None:
        raise ValueError("the ground level has no conjugation to check")
    inv = level.hom.inverse()
    return all(
        _agree_on(compose(level.hom, q, inv), p, prev.carrier)
        for p, q in zip(prev.maps, level.maps)
    )


def check_isometry(level: HierarchyLevel, prev: HierarchyLevel) -> bool:
    """The floor map is an isometry: d_k(h x1, h x2) = d_(k-1)(x1, x2), exactly.

    Decides ``to_base o hom == prev.to_base`` as map equality over every
    point of the previous carrier.  Each floor's metric is the ground metric
    pulled back through its ``to_base``, so the equality gives the isometry
    for every pair; it is also the invariant ``build_hierarchy`` builds.  A
    floor whose pull-back disagrees with its recoding fails.
    """
    if level.hom is None:
        raise ValueError("the ground level has no floor map to check")
    return _agree_on(compose(level.hom, level.to_base), prev.to_base, prev.carrier)


def check_intertwining(level: HierarchyLevel, ground: HierarchyLevel) -> bool:
    """Each branch is the ground's in label coordinates: to_base o q_j =
    p_j o to_base on this floor's carrier, for each branch pair (p_j, q_j)
    of the ground floor and this one, decided exactly as map equality over
    every point.

    The floor's metric is the ground metric pulled back through
    ``to_base``, so under this identity the floor's contraction ratio at
    (y1, y2) is the ground's at (to_base y1, to_base y2), and the ground's
    ratio bounds the floor's.  A floor with another branch count fails.
    """
    if len(level.maps) != len(ground.maps):
        return False
    return all(
        _agree_on(compose(q, level.to_base), compose(level.to_base, p), level.carrier)
        for p, q in zip(ground.maps, level.maps)
    )
