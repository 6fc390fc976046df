"""Tests for quotient construction, metric transport and the hierarchy."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_coarse.clopen_partition import build_partition
from cantor_coarse.code_space import (
    Address,
    ClopenSet,
    FULL_SPACE,
    OutsideDomainError,
    PrefixRewrite,
    code_distance,
    compose,
    embed_cmts,
    identity_map,
    map_clopen,
    prepend_map,
    push_word,
    random_address,
    recode_homeomorphism,
)
from cantor_coarse.coarse_graining import (
    Fiber,
    HierarchyLevel,
    QuotientSpec,
    RATIO_SLACK,
    base_system,
    build_hierarchy,
    check_conjugation,
    check_coverage,
    check_intertwining,
    check_isometry,
    conjugate_system,
    default_representatives,
    merged_representatives,
    verify_self_similarity,
)
from cantor_coarse.quadratic_system import inverse_branches

# the modulus of the mu=5 branches, which bounds every floor's ratio
ALPHA5 = max(inverse_branches(5.0).modulus_inf)


def floor_with(level: HierarchyLevel, *, maps=None, hom=None, to_base=None) -> HierarchyLevel:
    """``level`` with its branch maps, floor map or pull-back replaced."""
    return HierarchyLevel(
        level.level,
        level.maps if maps is None else tuple(maps),
        level.carrier,
        level.quotient,
        level.hom if hom is None else hom,
        level.to_base if to_base is None else to_base,
    )


def quotient_map(spec: QuotientSpec, x: Address) -> Address:
    """Oracle for the collapse: identity on the first block, q_i on block i."""
    blocks = spec.partition.blocks
    if blocks[0].contains(x):
        return x
    for i, block in enumerate(blocks[1:]):
        if block.contains(x):
            return spec.representatives[i]
    raise ValueError(f"{x} lies outside the carrier")


def two_block_spec() -> QuotientSpec:
    p = build_partition(FULL_SPACE, 2)
    return QuotientSpec(p, default_representatives(p))


def three_block_spec() -> QuotientSpec:
    p = build_partition(FULL_SPACE, 3)
    return QuotientSpec(p, default_representatives(p))


class TestQuotientSpec:
    def test_default_representatives(self):
        assert default_representatives(build_partition(FULL_SPACE, 2)) == (Address("01", "0"),)
        assert default_representatives(build_partition(FULL_SPACE, 3)) == (
            Address("01", "0"),
            Address("011", "0"),
        )

    def test_representative_must_lie_in_first_block(self):
        p = build_partition(FULL_SPACE, 2)
        with pytest.raises(ValueError, match="outside the first block"):
            QuotientSpec(p, (Address("1", "0"),))

    def test_coincident_representatives_glue_one_fiber(self):
        p = build_partition(FULL_SPACE, 3)
        q = Address("01", "0")
        assert QuotientSpec(p, (q, q)).multi_fibers == (Fiber(q, (2, 3)),)

    def test_wrong_count_rejected(self):
        p = build_partition(FULL_SPACE, 3)
        with pytest.raises(ValueError, match="representatives"):
            QuotientSpec(p, (Address("01", "0"),))

    def test_equal_by_partition_and_representatives(self):
        spec = three_block_spec()
        same = three_block_spec()
        assert spec is not same and spec.partition is not same.partition
        assert spec == same and hash(spec) == hash(same)
        q2, q3 = spec.representatives
        assert spec != QuotientSpec(spec.partition, (q3, q2))
        assert spec != QuotientSpec(build_partition(ClopenSet(["0"]), 3), (Address("001", "0"),) * 2)
        with pytest.raises(AttributeError):
            spec.multi_fibers = ()


class TestQuotientMap:
    def test_identity_on_first_block(self):
        spec = two_block_spec()
        x = Address("00", "0")
        assert quotient_map(spec, x) == x

    def test_constant_on_collapsed_blocks(self):
        spec = two_block_spec()
        q2 = spec.representatives[0]
        assert quotient_map(spec, Address("", "1")) == q2
        assert quotient_map(spec, Address("1", "0")) == q2

    def test_outside_carrier_rejected(self):
        p = build_partition(ClopenSet(["0"]), 2)
        spec = QuotientSpec(p, default_representatives(p))
        with pytest.raises(ValueError, match="outside the carrier"):
            quotient_map(spec, Address("", "1"))


class TestMultiFibers:
    def test_one_block_quotient_has_no_multi_fiber(self):
        spec = QuotientSpec(build_partition(FULL_SPACE, 1), ())
        assert spec.multi_fibers == ()
        # the collapse is the identity, so every fiber is a point
        for w in FULL_SPACE.refine(3):
            x = Address(w, "0")
            assert quotient_map(spec, x) == x

    def test_fiber_enumeration_two_blocks(self):
        spec = two_block_spec()
        q2 = spec.representatives[0]
        # oracle: group the endpoints of every depth-4 cylinder by image
        members: dict[Address, set[Address]] = {}
        for w in FULL_SPACE.refine(4):
            for pt in (Address(w, "0"), Address(w, "1")):
                members.setdefault(quotient_map(spec, pt), set()).add(pt)
        multi = {label for label, pts in members.items() if len(pts) > 1}
        assert multi == {q2}
        # every other label is a singleton fiber, so none is listed
        assert spec.multi_fibers == (Fiber(q2, (2,)),)

    def test_fiber_count_three_blocks(self):
        fibers = three_block_spec().multi_fibers
        assert [f.block_indices for f in fibers] == [(2,), (3,)]

    def test_fibers_are_listed_by_label(self):
        p = build_partition(FULL_SPACE, 3)
        q2, q3 = default_representatives(p)
        # q3 > q2, so listing by label lists block 3's fiber second
        assert QuotientSpec(p, (q3, q2)).multi_fibers == (Fiber(q2, (3,)), Fiber(q3, (2,)))

    def test_merged_representatives_merge_fibers(self):
        p = build_partition(FULL_SPACE, 3)
        spec = QuotientSpec(p, merged_representatives(p))
        assert len(spec.multi_fibers) == 1
        assert spec.multi_fibers[0].block_indices == (2, 3)


class TestFloorMetric:
    """HierarchyLevel.metric: the ground metric pulled back to a floor."""

    def test_zero_on_equal_points(self):
        level = build_hierarchy(1)[1]
        y = Address("00", "0")
        assert level.metric(y, y) == 0

    def test_matches_code_distance_through_the_floor_map(self):
        level = build_hierarchy(1)[1]
        x1, x2 = Address("001", "0"), Address("110", "1")
        assert level.metric(level.hom(x1), level.hom(x2)) == code_distance(x1, x2)

    def test_distance_between_representative_fibers(self):
        level = build_hierarchy(1, 3)[1]
        q2, q3 = level.quotient.representatives
        assert {f.label for f in level.quotient.multi_fibers} == {q2, q3}
        # independent evaluation through the embedding of the ground points
        ground = level.hom.inverse()
        expected = abs(embed_cmts(ground(q2)) - embed_cmts(ground(q3)))
        assert expected > 0
        assert level.metric(q2, q3) == expected

    def test_point_outside_the_carrier_rejected(self):
        level = build_hierarchy(1)[1]
        with pytest.raises(OutsideDomainError):
            level.metric(Address("1", "0"), Address("0", "0"))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_floor_map_preserves_the_metric_on_random_pairs(self, k):
        tower = build_hierarchy(3)
        level, prev = tower[k], tower[k - 1]
        rng = random.Random(k)
        for _ in range(300):
            x1 = random_address(rng, 12, prev.carrier)
            x2 = random_address(rng, 12, prev.carrier)
            assert level.metric(level.hom(x1), level.hom(x2)) == prev.metric(x1, x2)


class TestConjugateSystem:
    def test_identity_hom_keeps_the_maps(self):
        ground = base_system()
        conj = conjugate_system(ground.maps, identity_map())
        rng = random.Random(2)
        for _ in range(50):
            x = random_address(rng, 15)
            for p, q in zip(ground.maps, conj):
                assert p(x) == q(x)

    def test_composition_order(self):
        ground = base_system()
        hom = recode_homeomorphism(ClopenSet(["0"]))
        conj = conjugate_system(ground.maps, hom)
        inv = hom.inverse()
        carrier = map_clopen(hom, ground.carrier)
        assert carrier == ClopenSet(["0"])
        rng = random.Random(3)
        for _ in range(100):
            y = random_address(rng, 20, carrier)
            for p, q in zip(ground.maps, conj):
                assert q(y) == hom(p(inv(y)))

    def test_floors_carry_the_transported_carrier(self):
        tower = build_hierarchy(3, 3)
        for prev, level in zip(tower, tower[1:]):
            assert level.carrier == map_clopen(level.hom, prev.carrier)

    def test_points_outside_the_target_are_rejected(self):
        ground = base_system()
        hom = recode_homeomorphism(ClopenSet(["0"]))
        conj = conjugate_system(ground.maps, hom)
        with pytest.raises(OutsideDomainError):
            conj[0](Address("1", "0"))  # not in the transported carrier

    def test_contraction_ratio_in_transported_metric(self):
        tower = build_hierarchy(1)
        level = tower[1]
        rng = random.Random(4)
        for _ in range(500):
            y1 = random_address(rng, 20, level.carrier)
            y2 = random_address(rng, 20, level.carrier)
            if y1 == y2:
                continue
            dy = level.metric(y1, y2)
            for branch in level.maps:
                ratio = level.metric(branch(y1), branch(y2)) / dy
                assert ratio == Fraction(1, 3)  # exact for the symbolic branches
                assert float(ratio) <= ALPHA5 + 1e-9


class TestHierarchy:
    def test_level_zero_only(self):
        tower = build_hierarchy(0)
        assert len(tower) == 1
        assert tower[0].carrier == FULL_SPACE
        assert tower[0].quotient is None

    def test_three_levels(self):
        tower = build_hierarchy(3)
        assert [lv.level for lv in tower] == [0, 1, 2, 3]
        assert [lv.carrier.words for lv in tower] == [("",), ("0",), ("00",), ("000",)]

    def test_conjugation_identity_at_every_level(self):
        tower = build_hierarchy(3)
        for k in range(1, 4):
            assert check_conjugation(tower[k], tower[k - 1])

    def test_conjugation_detects_a_swapped_branch(self):
        tower = build_hierarchy(2)
        for k in (1, 2):
            level = tower[k]
            maps = level.maps
            broken = floor_with(level, maps=(maps[1], maps[1]))
            assert check_conjugation(level, tower[k - 1])
            assert not check_conjugation(broken, tower[k - 1]), k

    def test_floor_map_lands_on_first_block_labels(self):
        level = build_hierarchy(1)[1]
        x = Address("10", "1")
        assert level.quotient.partition.blocks[0].contains(level.hom(x))

    def test_base_level_has_no_quotient(self):
        ground = build_hierarchy(1)[0]
        assert ground.quotient is None and ground.hom is None

    def test_three_block_policy(self):
        tower = build_hierarchy(2, 3)
        for level in tower[1:]:
            assert level.quotient.partition.size == 3
            assert len(level.quotient.multi_fibers) == 2

    def test_merged_policy(self):
        tower = build_hierarchy(1, 3, "merged")
        assert len(tower[1].quotient.multi_fibers) == 1

    def test_explicit_policy(self):
        reps = ((Address("000", "0"),),)
        tower = build_hierarchy(1, representatives="explicit", explicit_representatives=reps)
        assert tower[1].quotient.representatives == reps[0]

    @pytest.mark.parametrize(
        ("levels", "knobs"),
        [
            pytest.param(-1, {}, id="negative-levels"),
            pytest.param(1, {"representatives": "nearest"}, id="unknown-policy"),
            pytest.param(1, {"representatives": "explicit"}, id="explicit-without-lists"),
            pytest.param(1, {"representatives": "explicit", "explicit_representatives": ()}, id="explicit-no-list"),
            pytest.param(
                3,
                {"representatives": "explicit", "explicit_representatives": ((Address("000", "0"),),) * 2},
                id="explicit-two-lists-for-three-levels",
            ),
        ],
    )
    def test_bad_input_is_a_value_error(self, levels, knobs):
        # an IndexError or a TypeError would escape pytest.raises
        with pytest.raises(ValueError):
            build_hierarchy(levels, **knobs)

    @pytest.mark.parametrize("policy", ["distinct", "merged"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_floor_maps_are_isometries(self, n, policy):
        tower = build_hierarchy(3, n, policy)
        for prev, level in zip(tower, tower[1:]):
            assert check_isometry(level, prev)

    def test_isometry_detects_a_wrong_pull_back(self):
        tower = build_hierarchy(2)
        assert check_isometry(tower[2], tower[1])
        # floor 2 pulled back by floor 1's map measures a third of the distance
        broken = floor_with(tower[2], to_base=tower[1].to_base)
        assert not check_isometry(broken, tower[1])

    def test_isometry_needs_a_floor_map(self):
        tower = build_hierarchy(1)
        with pytest.raises(ValueError, match="no floor map"):
            check_isometry(tower[0], tower[0])

    def test_fibers_partition_the_carrier(self):
        tower = build_hierarchy(1)
        level = tower[1]
        spec = level.quotient
        # every depth-5 endpoint of the carrier belongs to exactly one
        # fiber, keyed by a first-block label; the labels that collapsed
        # blocks reach are the multi-point fibers, with those blocks
        glued: dict[Address, set[int]] = {}
        for w in spec.partition.carrier.refine(5):
            for pt in (Address(w, "0"), Address(w, "1")):
                label = quotient_map(spec, pt)
                assert spec.partition.blocks[0].contains(label)
                blocks = [i for i, b in enumerate(spec.partition.blocks, start=1) if b.contains(pt)]
                assert len(blocks) == 1
                if blocks[0] > 1:
                    glued.setdefault(label, set()).add(blocks[0])
        assert spec.multi_fibers
        assert {f.label: set(f.block_indices) for f in spec.multi_fibers} == glued


# build_hierarchy's keyword arguments for each tower
EXACT_TOWERS = [
    pytest.param({"partition_n": n, "representatives": policy}, id=f"{n}-{policy}")
    for n in (2, 3, 5, 64)
    for policy in ("distinct", "merged")
] + [
    # coincident representatives on floor 2
    pytest.param(
        {
            "partition_n": 3,
            "representatives": "explicit",
            "explicit_representatives": (
                (Address("01", "0"), Address("", "0")),
                (Address("001", "1"), Address("001", "1")),
            ),
        },
        id="3-explicit",
    ),
    # coincident representatives on floor 1
    pytest.param(
        {
            "partition_n": 3,
            "representatives": "explicit",
            "explicit_representatives": (
                (Address("01", "0"), Address("01", "0")),
                (Address("001", "1"), Address("", "0")),
            ),
        },
        id="3-explicit-floor-1",
    ),
]

# a cylinder word no point of ``random_address(rng, 20, ...)`` starts with:
# a body of at most 20 symbols, then a constant tail, cannot alternate for 30
DEEP = "10" * 15


def deep_swap(word: str) -> PrefixRewrite:
    """A homeomorphism of the full space that swaps [word 0] and [word 1]
    and is the identity off [word]."""
    flip = {"0": "1", "1": "0"}
    rules = [(word[:i] + flip[word[i]],) * 2 for i in range(len(word))]
    rules += [(word + "0", word + "1"), (word + "1", word + "0")]
    return PrefixRewrite(tuple(rules))


def sampled_points(prev: HierarchyLevel, count: int, seed: int = 0) -> list[Address]:
    rng = random.Random(seed)
    return [random_address(rng, 20, prev.carrier) for _ in range(count)]


class TestExactFloorChecks:
    """check_isometry and check_conjugation decide map equality on the
    previous carrier, over every point."""

    @pytest.mark.parametrize("knobs", EXACT_TOWERS)
    def test_exact_checks_hold_with_the_pointwise_identities(self, knobs):
        levels = 2 if knobs["representatives"] == "explicit" else 8
        tower = build_hierarchy(levels, **knobs)
        for prev, level in zip(tower, tower[1:]):
            assert check_isometry(level, prev), level.level
            assert check_conjugation(level, prev), level.level
            inv = level.hom.inverse()
            for x in sampled_points(prev, 500, seed=level.level):
                assert level.to_base(level.hom(x)) == prev.to_base(x)
                for p, q in zip(prev.maps, level.maps):
                    assert inv(q(level.hom(x))) == p(x)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_isometry_fails_a_pull_back_wrong_only_deep_down(self, k):
        tower = build_hierarchy(3)
        level, prev = tower[k], tower[k - 1]
        broken = floor_with(level, to_base=compose(level.to_base, deep_swap(DEEP)))
        # the fault lies beyond every sampled point
        for x in sampled_points(prev, 1000):
            assert broken.to_base(broken.hom(x)) == prev.to_base(x)
        assert check_isometry(level, prev)
        assert not check_isometry(broken, prev)

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_conjugation_fails_a_branch_wrong_only_deep_down(self, k, j):
        tower = build_hierarchy(3)
        level, prev = tower[k], tower[k - 1]
        maps = list(level.maps)
        # this floor's branch j maps its carrier [0^k] onto [0^k j]
        maps[j] = compose(maps[j], deep_swap("0" * k + str(j) + DEEP))
        broken = floor_with(level, maps=maps)
        inv = level.hom.inverse()
        for x in sampled_points(prev, 1000):
            assert inv(maps[j](level.hom(x))) == prev.maps[j](x)
        assert check_conjugation(level, prev)
        assert not check_conjugation(broken, prev)

    def test_a_floor_map_undefined_on_part_of_the_carrier_fails(self):
        tower = build_hierarchy(2)
        # floor 2's recoding of [0] onto [00], defined on [00] only
        partial = floor_with(tower[2], hom=PrefixRewrite((("00", "000"),)))
        with pytest.raises(OutsideDomainError):
            partial.hom(Address("01", "0"))
        assert check_isometry(partial, tower[1]) is False
        assert check_conjugation(partial, tower[1]) is False


def deep_broken(level: HierarchyLevel, part: str) -> HierarchyLevel:
    """A floor of the default tower with its branch 0 (``part="branch"``)
    or its pull-back to the ground (``part="to_base"``) wrong only on a
    cylinder at least 31 symbols deep, where no sampled point reaches."""
    if part == "to_base":
        return floor_with(level, to_base=compose(level.to_base, deep_swap(DEEP)))
    maps = list(level.maps)
    # floor k's branch 0 maps its carrier [0^k] onto [0^k 0]
    maps[0] = compose(maps[0], deep_swap("0" * (level.level + 1) + DEEP))
    return floor_with(level, maps=maps)


class TestIntertwining:
    """check_intertwining decides to_base o q_j == p_j o to_base on the
    floor's carrier, over every point; under it a floor's contraction
    ratios are the ground's."""

    @pytest.mark.parametrize("knobs", EXACT_TOWERS)
    def test_holds_on_every_floor_with_the_pointwise_identity(self, knobs):
        levels = 2 if knobs["representatives"] == "explicit" else 8
        tower = build_hierarchy(levels, **knobs)
        ground = tower[0]
        for level in tower:
            assert check_intertwining(level, ground), level.level
            ys = sampled_points(level, 60, seed=level.level)
            for y1, y2 in zip(ys, ys[1:]):
                x1, x2 = level.to_base(y1), level.to_base(y2)
                for p, q in zip(ground.maps, level.maps):
                    assert level.to_base(q(y1)) == p(x1)
                    if y1 != y2:
                        # the floor's ratio at (y1, y2) is the ground's at (x1, x2)
                        floor_ratio = level.metric(q(y1), q(y2)) / level.metric(y1, y2)
                        assert floor_ratio == ground.metric(p(x1), p(x2)) / ground.metric(x1, x2)

    @pytest.mark.parametrize("part", ["branch", "to_base"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fails_a_floor_wrong_only_deep_down(self, k, part):
        tower = build_hierarchy(3)
        broken = deep_broken(tower[k], part)
        # the fault lies beyond every sampled point: the pointwise identity
        # holds there, and the floor's sampled ratios still pass
        for y in sampled_points(broken, 1000):
            for p, q in zip(tower[0].maps, broken.maps):
                assert broken.to_base(q(y)) == p(broken.to_base(y))
        assert max(verify_self_similarity(broken, samples=300).max_ratio) <= ALPHA5 + RATIO_SLACK
        assert check_intertwining(tower[k], tower[0])
        assert not check_intertwining(broken, tower[0])

    def test_fails_another_branch_count(self):
        tower = build_hierarchy(1)
        level = tower[1]
        three = floor_with(level, maps=level.maps + level.maps[:1])
        assert not check_intertwining(three, tower[0])


@st.composite
def complete_codes(draw, size: int) -> list[str]:
    """A random complete binary prefix code of ``size`` words, in
    lexicographic order: the empty word, with a drawn word split in two
    until there are ``size``."""
    code = [""]
    while len(code) < size:
        i = draw(st.integers(0, len(code) - 1))
        word = code[i]
        code[i : i + 1] = [word + "0", word + "1"]
    return code


@st.composite
def code_homeomorphisms(draw, min_size: int = 1) -> PrefixRewrite:
    """A homeomorphism of the code space: a bijection between two random
    complete prefix codes of ``min_size``..24 words."""
    size = draw(st.integers(min_size, 24))
    sources = draw(complete_codes(size))
    targets = draw(st.permutations(draw(complete_codes(size))))
    return PrefixRewrite(tuple(zip(sources, targets)))


def transported(ground: HierarchyLevel, hom: PrefixRewrite) -> HierarchyLevel:
    """Floor 1 over ``ground``, with its branches conjugated through
    ``hom``, built as ``build_hierarchy`` builds a floor."""
    return HierarchyLevel(
        level=1,
        maps=conjugate_system(ground.maps, hom),
        carrier=map_clopen(hom, ground.carrier),
        quotient=None,
        hom=hom,
        to_base=compose(hom.inverse(), ground.to_base),
    )


class TestTransport:
    """A space homeomorphic to a self-similar space is self-similar: the
    ground conjugated through a homeomorphism of the code space the tower
    never builds passes the four exact floor checks, and each planted
    fault fails the checks that read it."""

    @settings(max_examples=100, deadline=None)
    @given(code_homeomorphisms())
    def test_a_homeomorphism_transports_every_check(self, hom):
        ground = base_system()
        floor = transported(ground, hom)
        assert floor.carrier == FULL_SPACE
        assert check_coverage(floor)
        assert check_conjugation(floor, ground)
        assert check_isometry(floor, ground)
        assert check_intertwining(floor, ground)

    @settings(max_examples=50, deadline=None)
    @given(code_homeomorphisms(min_size=2), st.data())
    def test_a_pull_back_with_two_targets_swapped_fails(self, hom, data):
        ground = base_system()
        floor = transported(ground, hom)
        rules = list(hom.inverse().rules)
        i, k = data.draw(st.lists(st.integers(0, len(rules) - 1), min_size=2, max_size=2, unique=True))
        (src_i, dst_i), (src_k, dst_k) = rules[i], rules[k]
        rules[i], rules[k] = (src_i, dst_k), (src_k, dst_i)
        swapped = floor_with(floor, to_base=PrefixRewrite(tuple(rules)))
        # to_base o hom swaps two cylinders of the ground: no isometry, and
        # a swap commutes with both prepending branches only if it is the
        # identity, so the floor does not intertwine
        assert not check_isometry(swapped, ground)
        assert not check_intertwining(swapped, ground)
        # coverage and conjugation do not read the pull-back
        assert check_coverage(swapped)
        assert check_conjugation(swapped, ground)

    @settings(max_examples=50, deadline=None)
    @given(code_homeomorphisms(), st.integers(2, 24).flatmap(complete_codes), st.data())
    def test_a_branch_code_that_is_not_complete_fails_coverage(self, hom, code, data):
        # the ground's branch code {0, 1} replaced by a prefix code with one
        # word left out: the branch images miss that word's cylinder, on the
        # ground and on every floor transported from it
        code.pop(data.draw(st.integers(0, len(code) - 1)))
        ground = floor_with(base_system(), maps=[PrefixRewrite((("", word),)) for word in code])
        floor = transported(ground, hom)
        assert not check_coverage(ground)
        assert not check_coverage(floor)
        assert check_conjugation(floor, ground)
        assert check_isometry(floor, ground)
        assert check_intertwining(floor, ground)


def refined_coverage(level, extra: int) -> bool:
    """Reference coverage identity: every branch image of the carrier
    refined ``extra`` symbols below its deepest word, pushed word by word."""
    carrier = level.carrier
    base_len = max(len(w) for w in carrier.words)
    image_words = []
    for branch in level.maps:
        for w in carrier.refine(base_len + extra):
            image_words.extend(push_word(branch, w))
    return ClopenSet(image_words) == carrier


def broken_level() -> HierarchyLevel:
    """A ground floor whose second branch misses the carrier's right half."""
    return HierarchyLevel(
        level=0,
        maps=(prepend_map("0"), compose(prepend_map("0"), prepend_map("1"))),
        carrier=FULL_SPACE,
        quotient=None,
        hom=None,
        to_base=identity_map(),
    )


class TestSelfSimilarity:
    def test_reports_pass_on_all_levels(self):
        tower = build_hierarchy(3)
        for level in tower:
            report = verify_self_similarity(level, samples=150, seed=0)
            assert report.coverage_exact
            assert all(r <= 1.0 / 5.0**0.5 + RATIO_SLACK for r in report.max_ratio)

    def test_coverage_detects_a_broken_system(self):
        report = verify_self_similarity(broken_level(), samples=30, seed=0)
        assert not report.coverage_exact
        assert not check_coverage(broken_level())
        assert not any(refined_coverage(broken_level(), extra) for extra in range(1, 5))

    @pytest.mark.parametrize("policy", ["distinct", "merged", "explicit"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_canonical_coverage_matches_the_refined_identity(self, n, policy):
        explicit = None
        if policy == "explicit":
            # carriers do not depend on the representatives, so a distinct
            # tower shows every floor's first block; list them reversed
            shape = build_hierarchy(4, n)
            explicit = tuple(tuple(reversed(lv.quotient.representatives)) for lv in shape[1:])
        for levels in range(5):
            for level in build_hierarchy(levels, n, policy, explicit):
                # the floor itself, and the floor with its first branch twice,
                # whose images miss the second branch's share of the carrier
                first_twice = floor_with(level, maps=(level.maps[0],) * 2)
                for floor in (level, first_twice):
                    verdict = verify_self_similarity(floor, samples=1).coverage_exact
                    for extra in range(1, 5):
                        assert verdict == refined_coverage(floor, extra), (levels, level.level, extra)

    def test_union_of_branch_images_is_the_carrier(self):
        tower = build_hierarchy(2)
        for level in tower:
            images = [map_clopen(m, level.carrier) for m in level.maps]
            from cantor_coarse.code_space import clopen_union

            assert clopen_union(*images) == level.carrier
