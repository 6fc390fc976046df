"""Quotients of the code space and the tower of coarse grainings.

A quotient collapses every block of a clopen partition except the first
onto a chosen representative inside the first block.  Its fibers form a
decomposition space whose points are labeled by first-block points; the
labeling is a bijection, so transporting the metric across it is exact and
turns the labeling into an isometry.  Conjugating the branch maps through
the label coordinates makes each decomposition space self-similar again
with the same modulus bound, and the construction stacks indefinitely:
space, first quotient, quotient of the quotient, and so on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from .quadratic_system import WeakContractionSystem

__all__ = [
    "Fiber",
    "HierarchyLevel",
    "HierarchyPolicy",
    "QuotientSpace",
    "QuotientSpec",
    "RATIO_SLACK",
    "SelfSimilarityReport",
    "SymbolicSystem",
    "base_system",
    "build_hierarchy",
    "build_quotient",
    "check_conjugation",
    "check_coverage",
    "check_intertwining",
    "check_isometry",
    "conjugate_system",
    "default_representatives",
    "merged_representatives",
    "quotient_map",
    "verify_self_similarity",
]

RATIO_SLACK = 1e-9


@dataclass(frozen=True)
class QuotientSpec:
    """The collapse map: identity on block 1, constant q_i on block i."""

    partition: Partition
    representatives: tuple[Address, ...]
    allow_coincident: bool = False

    def __post_init__(self) -> None:
        expected = self.partition.size - 1
        if len(self.representatives) != expected:
            raise ValueError(f"need {expected} representatives, got {len(self.representatives)}")
        first = self.partition.blocks[0]
        for q in self.representatives:
            if not first.contains(q):
                raise ValueError(f"representative {q} lies outside the first block")
        if not self.allow_coincident and len(set(self.representatives)) != expected:
            raise ValueError("coincident representatives")


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


def quotient_map(spec: QuotientSpec, x: Address) -> Address:
    """Collapse a point: identity on the first block, q_i on block i."""
    blocks = spec.partition.blocks
    if blocks[0].contains(x):
        return x
    for i, block in enumerate(blocks[1:]):
        if block.contains(x):
            return spec.representatives[i]
    raise ValueError(f"{x} lies outside the carrier")


@dataclass(frozen=True)
class Fiber:
    """One preimage class of the collapse, named by its first-block point.

    ``block_indices`` lists the 1-based collapsed blocks glued onto the
    label; an empty tuple marks a singleton fiber.
    """

    label: Address
    block_indices: tuple[int, ...]
    spec: QuotientSpec = field(repr=False)

    @property
    def is_singleton(self) -> bool:
        return not self.block_indices

    def contains(self, y: Address) -> bool:
        return quotient_map(self.spec, y) == self.label


@dataclass(frozen=True)
class QuotientSpace:
    """The decomposition of the carrier into fibers of the collapse map.

    Fibers are represented by their first-block labels, never materialized
    as point sets; membership resolves lazily through the collapse map.
    """

    spec: QuotientSpec
    multi_fibers: tuple[Fiber, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        groups: dict[Address, list[int]] = {}
        for i, q in enumerate(self.spec.representatives, start=2):
            groups.setdefault(q, []).append(i)
        fibers = tuple(
            Fiber(label, tuple(ix), self.spec) for label, ix in sorted(groups.items())
        )
        object.__setattr__(self, "multi_fibers", fibers)

    def fiber(self, label: Address) -> Fiber:
        """The fiber through a first-block point (the map x -> f^-1(x))."""
        if not self.spec.partition.blocks[0].contains(label):
            raise ValueError(f"{label} lies outside the first block")
        for f in self.multi_fibers:
            if f.label == label:
                return f
        return Fiber(label, (), self.spec)


def build_quotient(spec: QuotientSpec) -> QuotientSpace:
    """Build the decomposition space of the collapse map.

    Rejects the one-block case: the collapse would be the identity and the
    decomposition trivial.  Otherwise each of the ``size - 1`` collapsed
    blocks joins the fiber of its representative, so some fiber has more
    than one point.
    """
    if spec.partition.size < 2:
        raise ValueError("trivial quotient")
    return QuotientSpace(spec)


@dataclass(frozen=True)
class SymbolicSystem:
    """Branch maps acting on a clopen carrier of the code space."""

    maps: tuple[AddressMap, ...]
    carrier: ClopenSet
    modulus_bound: tuple[float, ...]

    @property
    def branch_count(self) -> int:
        return len(self.maps)


def base_system(sys: WeakContractionSystem) -> SymbolicSystem:
    """The branch system in exact symbolic coordinates.

    Under the coding map the inverse branches act on addresses by
    prepending one symbol, so the symbolic model is exact; the recorded
    bounds are the branch moduli.
    """
    if sys.branch_count != 2:
        raise ValueError("the symbolic model covers two-branch systems")
    return SymbolicSystem(
        maps=(prepend_map("0"), prepend_map("1")),
        carrier=FULL_SPACE,
        modulus_bound=tuple(sys.modulus_inf),
    )


def conjugate_system(sys: SymbolicSystem, hom: AddressMap) -> SymbolicSystem:
    """Transport a branch system through a homeomorphism: q_j = h o p_j o h^-1.

    In the transported metric each conjugate contracts exactly as its
    source does, so the modulus bounds carry over unchanged, and the
    coverage identity transports along with it.
    """
    inv = hom.inverse()
    maps = tuple(compose(inv, m, hom) for m in sys.maps)
    return SymbolicSystem(
        maps=maps,
        carrier=map_clopen(hom, sys.carrier),
        modulus_bound=sys.modulus_bound,
    )


@dataclass(frozen=True)
class HierarchyLevel:
    """One floor of the coarse-graining tower, in label coordinates.

    ``hom`` recodes the previous carrier onto this one (composing it with
    the fiber map of ``quotient`` gives the floor-to-floor homeomorphism),
    and ``to_base`` pulls label coordinates all the way back to the ground
    space, which is how the transported metric is evaluated.  A floor is
    purely symbolic: labels pull back to ground addresses, so every floor
    realizes to the same interval covers of the quadratic system, and
    callers build those once rather than per floor.
    """

    level: int
    system: SymbolicSystem
    quotient: QuotientSpace | None
    hom: AddressMap | None
    to_base: AddressMap

    @property
    def carrier(self) -> ClopenSet:
        return self.system.carrier

    def metric(self, y1: Address, y2: Address) -> Fraction:
        """Transported ground metric; the tower maps are isometries for it."""
        return code_distance(self.to_base(y1), self.to_base(y2))

    def h(self, x: Address) -> Fiber:
        """The floor map: recode into the first block, then take the fiber."""
        if self.quotient is None or self.hom is None:
            raise ValueError("the ground level has no quotient")
        return self.quotient.fiber(self.hom(x))


@dataclass(frozen=True)
class HierarchyPolicy:
    """How each floor of the tower is built: the block count of each
    floor's partition and how the collapsed blocks pick representatives.

    Building a tower checks nothing; the commands check the base system's
    contraction conditions first, and floors are verified on demand:
    check_coverage decides each floor's coverage identity exactly, and
    check_isometry, check_conjugation and check_intertwining decide their
    map equalities exactly, over every point of a carrier.  Only the
    contraction ratio is sampled, by verify_self_similarity, and a floor
    that intertwines with the ground floor has the ground's ratios.
    """

    blocks_per_level: int = 2
    representative_policy: str = "distinct"  # distinct | merged | explicit
    explicit_representatives: tuple[tuple[Address, ...], ...] | None = None

    def representatives_for(self, level: int, partition: Partition) -> tuple[tuple[Address, ...], bool]:
        if self.representative_policy == "explicit":
            reps = self.explicit_representatives
            if reps is None or len(reps) < level:
                raise ValueError(f"no explicit representatives for level {level}")
            chosen = reps[level - 1]
            return chosen, len(set(chosen)) != len(chosen)
        if self.representative_policy == "merged":
            return merged_representatives(partition), True
        if self.representative_policy == "distinct":
            return default_representatives(partition), False
        raise ValueError(f"unknown representative policy {self.representative_policy!r}")


def build_hierarchy(
    real: WeakContractionSystem,
    levels: int,
    policy: HierarchyPolicy = HierarchyPolicy(),
) -> list[HierarchyLevel]:
    """Stack ``levels`` coarse grainings over the invariant set of ``real``.

    Checks nothing: the caller decides whether ``real`` passes the three
    contraction conditions.  Each new floor partitions the previous carrier,
    collapses everything onto the first block, and conjugates the branch
    maps through the recoding onto that block.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    tower = [
        HierarchyLevel(
            level=0,
            system=base_system(real),
            quotient=None,
            hom=None,
            to_base=identity_map(),
        )
    ]
    for k in range(1, levels + 1):
        prev = tower[-1]
        partition = build_partition(prev.carrier, policy.blocks_per_level)
        reps, coincident = policy.representatives_for(k, partition)
        spec = QuotientSpec(partition, reps, allow_coincident=coincident)
        quot = build_quotient(spec)
        g = recode_between(prev.carrier, partition.blocks[0])
        tower.append(
            HierarchyLevel(
                level=k,
                system=conjugate_system(prev.system, g),
                quotient=quot,
                hom=g,
                to_base=compose(g.inverse(), prev.to_base),
            )
        )
    return tower


@dataclass(frozen=True)
class SelfSimilarityReport:
    """Checkable self-similarity content of one floor: coverage + contraction."""

    level: int
    coverage_exact: bool
    cylinders_enumerated: int
    max_ratio: tuple[float, ...]
    ratio_bound: tuple[float, ...]
    ratio_samples: int

    @property
    def ratio_pass(self) -> bool:
        return all(r <= b for r, b in zip(self.max_ratio, self.ratio_bound))


def check_coverage(level: HierarchyLevel) -> bool:
    """The branch images of the carrier union back to the carrier, exactly.

    Each image is the carrier's canonical words pushed through the composed
    label maps, which refine a word only where they must; canonical form
    makes the union's equality with the carrier an exact cylinder identity.
    """
    carrier = level.carrier
    return clopen_union(*(map_clopen(branch, carrier) for branch in level.system.maps)) == carrier


def verify_self_similarity(level: HierarchyLevel, samples: int = 400, seed: int = 0) -> SelfSimilarityReport:
    """Machine-check one floor of the tower, symbolically.

    Coverage is ``check_coverage``.  Contraction: address pairs drawn by
    ``random_address`` from ``random.Random(seed)`` are measured in the
    transported metric before and after each branch; each ratio is exact,
    so no report depends on which pairs are drawn.  ``verify`` samples the
    ground floor only: a floor that passes ``check_intertwining`` has the
    ground's ratio at every pair.  The interval realization is the same on
    every floor and is checked by the caller, once.
    """
    carrier = level.carrier
    rng = random.Random(seed)
    max_ratio = [0.0] * level.system.branch_count
    used = 0
    while used < samples:
        y1, y2 = random_address(rng, 20, carrier), random_address(rng, 20, carrier)
        if y1 == y2:
            continue
        used += 1
        dy = level.metric(y1, y2)
        for j, branch in enumerate(level.system.maps):
            ratio = level.metric(branch(y1), branch(y2)) / dy
            max_ratio[j] = max(max_ratio[j], float(ratio))
    return SelfSimilarityReport(
        level=level.level,
        coverage_exact=check_coverage(level),
        cylinders_enumerated=len(carrier.words) * level.system.branch_count,
        max_ratio=tuple(max_ratio),
        ratio_bound=tuple(b + RATIO_SLACK for b in level.system.modulus_bound),
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
        for p, q in zip(prev.system.maps, level.system.maps)
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
    if level.system.branch_count != ground.system.branch_count:
        return False
    return all(
        _agree_on(compose(q, level.to_base), compose(level.to_base, p), level.carrier)
        for p, q in zip(ground.system.maps, level.system.maps)
    )
