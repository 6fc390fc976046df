"""Tests for the inductive clopen partition construction."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantor_coarse.clopen_partition import (
    Partition,
    _overlapping,
    _split_block,
    build_partition,
    flatten_refinement,
    refine_block,
)
from cantor_coarse.code_space import Address, ClopenSet, FULL_SPACE, clopen_union


def _disjoint(x: ClopenSet, y: ClopenSet) -> bool:
    """The pairwise disjointness test the sorted scan replaced: cylinders
    [u] and [v] are disjoint when neither word extends the other."""
    return all(not (u.startswith(v) or v.startswith(u)) for u in x.words for v in y.words)


def _pairwise_overlapping(blocks) -> bool:
    return any(not _disjoint(b, other) for i, b in enumerate(blocks) for other in blocks[i + 1:])


_words = st.text(alphabet="01", max_size=5)
_blocks = st.lists(
    st.lists(_words, min_size=1, max_size=4).map(ClopenSet), min_size=1, max_size=6
)
_carriers = st.lists(st.text(alphabet="01", max_size=7), min_size=1, max_size=6).map(ClopenSet)


def _prepend(word: str, s: ClopenSet) -> ClopenSet:
    return ClopenSet([word + w for w in s.words])


def _split_from_the_definition(block: ClopenSet) -> tuple[ClopenSet, ClopenSet]:
    """The shallowest cylinder inside ``block`` that holds its least point
    but not its greatest, and the rest, found at one uniform depth."""
    depth = max(len(w) for w in block.words) + 1
    refined = set(block.refine(depth))
    least = Address(min(refined), "0")
    greatest = Address(max(refined), "1")
    for k in range(depth + 1):
        v = ClopenSet([least.symbols(k)])
        inside = set(v.refine(depth))
        if inside <= refined and not v.contains(greatest):
            return v, ClopenSet(sorted(refined - inside))
    raise AssertionError("no splitting cylinder above the uniform depth")


def assert_partition_laws(p: Partition) -> None:
    assert all(not b.is_empty for b in p.blocks)
    for i, b in enumerate(p.blocks):
        for other in p.blocks[i + 1:]:
            assert _disjoint(b, other)
    assert clopen_union(*p.blocks) == p.carrier


class TestBuildPartition:
    def test_one_block_is_the_carrier(self):
        p = build_partition(FULL_SPACE, 1)
        assert p.blocks == (FULL_SPACE,)

    def test_two_blocks(self):
        p = build_partition(FULL_SPACE, 2)
        assert [b.words for b in p.blocks] == [("0",), ("1",)]

    def test_three_blocks(self):
        p = build_partition(FULL_SPACE, 3)
        assert [b.words for b in p.blocks] == [("0",), ("10",), ("11",)]

    def test_laws_up_to_64_blocks(self):
        for n in range(1, 65):
            assert_partition_laws(build_partition(FULL_SPACE, n))

    def test_deterministic(self):
        a = build_partition(FULL_SPACE, 17)
        b = build_partition(FULL_SPACE, 17)
        assert a == b

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_partition(FULL_SPACE, 0)
        with pytest.raises(ValueError, match="empty carrier"):
            build_partition(ClopenSet(()), 2)

    def test_every_block_is_splittable(self):
        # the perfectness witness: a block always holds two distinct points
        p = build_partition(FULL_SPACE, 16)
        for b in p.blocks:
            least, greatest = Address(b.words[0], "0"), Address(b.words[-1], "1")
            assert b.contains(least) and b.contains(greatest)
            assert least != greatest

    @given(carrier=_carriers)
    @example(carrier=ClopenSet(["01"]))
    @example(carrier=ClopenSet(["0", "10"]))
    @settings(max_examples=300, deadline=None)
    def test_split_matches_the_definition(self, carrier):
        assert build_partition(carrier, 2).blocks == _split_from_the_definition(carrier)

    @given(word=st.text(alphabet="01", max_size=6), carrier=_carriers, n=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_commutes_with_prepending_a_word(self, word, carrier, n):
        shifted = build_partition(_prepend(word, carrier), n)
        assert shifted.blocks == tuple(_prepend(word, b) for b in build_partition(carrier, n).blocks)

    @given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_laws_on_random_carriers(self, n, seed):
        import random

        rng = random.Random(seed)
        words = {
            "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
            for _ in range(rng.randrange(1, 5))
        }
        carrier = ClopenSet(words)
        assert_partition_laws(build_partition(carrier, n))


class TestSplitBlock:
    def test_one_word_splits_at_the_next_symbol(self):
        assert _split_block(FULL_SPACE) == (ClopenSet(["0"]), ClopenSet(["1"]))
        assert _split_block(ClopenSet(["1"])) == (
            ClopenSet(["10"]),
            ClopenSet(["11"]),
        )

    def test_many_words_split_off_the_first_against_brute_force(self):
        block = ClopenSet(["0", "10"])
        piece, rest = _split_block(block)
        assert piece.words == ("0",)
        # oracle: the depth-2 cylinders of the block that miss the piece
        expected = [w for w in block.refine(2) if not piece.contains(Address(w, "0"))]
        assert rest == ClopenSet(expected)
        assert rest.words == ("10",)

    @given(block=_carriers)
    @settings(max_examples=200, deadline=None)
    def test_rest_is_the_complement_in_the_block(self, block):
        piece, rest = _split_block(block)
        assert len(piece.words) == 1 and not rest.is_empty
        assert clopen_union(piece, rest) == block
        assert _disjoint(piece, rest)

    @given(carrier=_carriers, n=st.integers(1, 32))
    @settings(max_examples=100, deadline=None)
    def test_blocks_run_left_to_right(self, carrier, n):
        # each split carves the leftmost piece and splits the rest again
        blocks = build_partition(carrier, n).blocks
        for left, right in zip(blocks, blocks[1:]):
            assert Address(left.words[-1], "1") < Address(right.words[0], "0")


class TestRefine:
    def test_refine_second_block(self):
        p = build_partition(FULL_SPACE, 2)
        sub = refine_block(p, 2, 2)
        assert [b.words for b in sub.blocks] == [("10",), ("11",)]

    def test_refine_into_one_returns_the_block(self):
        p = build_partition(FULL_SPACE, 3)
        sub = refine_block(p, 2, 1)
        assert sub.blocks == (p.blocks[1],)

    def test_refine_first_block_into_three(self):
        p = build_partition(FULL_SPACE, 3)
        sub = refine_block(p, 1, 3)
        assert [b.words for b in sub.blocks] == [("00",), ("010",), ("011",)]

    def test_index_validation(self):
        p = build_partition(FULL_SPACE, 3)
        with pytest.raises(ValueError, match="out of range"):
            refine_block(p, 0, 2)
        with pytest.raises(ValueError, match="out of range"):
            refine_block(p, 4, 2)

    def test_flatten_gives_valid_partition(self):
        p = build_partition(FULL_SPACE, 4)
        sub = refine_block(p, 2, 3)
        flat = flatten_refinement(p, 2, sub)
        assert flat.size == 4 - 1 + 3
        assert_partition_laws(flat)
        # untouched blocks stay in place
        assert flat.blocks[0] == p.blocks[0]
        assert flat.blocks[-2:] == p.blocks[-2:]

    def test_flatten_rejects_foreign_refinement(self):
        p = build_partition(FULL_SPACE, 3)
        sub = refine_block(p, 1, 2)
        with pytest.raises(ValueError, match="does not match"):
            flatten_refinement(p, 2, sub)

    def test_recursion_to_depth_three(self):
        p = build_partition(FULL_SPACE, 3)
        for _ in range(3):
            sub = refine_block(p, 1, 3)
            p = flatten_refinement(p, 1, sub)
        assert p.size == 3 + 2 + 2 + 2
        assert_partition_laws(p)


class TestPartitionType:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            Partition(FULL_SPACE, (ClopenSet(["0"]), ClopenSet(["01", "1"])))

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="cover"):
            Partition(FULL_SPACE, (ClopenSet(["0"]), ClopenSet(["10"])))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="empty block"):
            Partition(FULL_SPACE, (FULL_SPACE, ClopenSet(())))


class TestOverlapScan:
    """The sorted-scan overlap test against the pairwise oracle."""

    @given(blocks=_blocks)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_pairwise_oracle(self, blocks):
        assert _overlapping(blocks) == _pairwise_overlapping(blocks)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_on_partitions_with_a_planted_overlap(self, data):
        # a partition's own blocks never overlap; then one block takes a
        # cylinder from, or inside, another block anywhere in the order
        p = build_partition(FULL_SPACE, data.draw(st.integers(2, 12)))
        assert not _overlapping(p.blocks)
        src, dst = data.draw(st.lists(st.integers(0, p.size - 1), min_size=2, max_size=2, unique=True))
        word = data.draw(st.sampled_from(p.blocks[src].words)) + data.draw(_words)
        planted = list(p.blocks)
        planted[dst] = ClopenSet(planted[dst].words + (word,))
        assert _pairwise_overlapping(planted)
        assert _overlapping(planted)

    def test_overlap_between_non_adjacent_blocks(self):
        # [0] in the first block meets [011] in the third; the block in
        # between is disjoint from both
        blocks = [ClopenSet(w) for w in (["0"], ["10"], ["011", "11"])]
        assert _pairwise_overlapping(blocks)
        assert _overlapping(blocks)
        with pytest.raises(ValueError, match="overlap"):
            Partition(FULL_SPACE, tuple(blocks))

    def test_cylinder_duplicated_across_blocks(self):
        blocks = [ClopenSet(w) for w in (["00", "1"], ["01"], ["1"])]
        assert _pairwise_overlapping(blocks)
        assert _overlapping(blocks)
        with pytest.raises(ValueError, match="overlap"):
            Partition(FULL_SPACE, tuple(blocks))

    def test_disjoint_blocks_pass(self):
        blocks = [ClopenSet(w) for w in (["00", "11"], ["010"], ["011", "10"])]
        assert not _pairwise_overlapping(blocks)
        assert not _overlapping(blocks)
        assert Partition(FULL_SPACE, tuple(blocks)).size == 3
