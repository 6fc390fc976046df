"""Inductive clopen partitions of the code space.

Any clopen carrier splits into any number of non-empty clopen blocks by
repeatedly carving a cylinder out of the last block: take the
lexicographically least and greatest points a and b of the block, then the
shallowest cylinder inside the block that contains a but not b, and replace
the block by that cylinder and the rest.  The choice of a, b and the
cylinder is fixed, so outputs are reproducible.

The block's canonical words w1 < ... < wm fix that cylinder.  Suppose a
cylinder [p] lies inside the block and no word of the block is a prefix of
p.  Then the block's words under p form a complete prefix code of [p], and
the longest of them has its sibling in that code, which canonical form
forbids; so some word of the block is a prefix of p.  Hence a = w1.0^inf
lies in no cylinder of the block shallower than [w1].  The words are
prefix-free, so [w1] excludes b = wm.1^inf exactly when m > 1, and the
split is ([w1], [w2 ... wm]), the rest still canonical.  When m = 1 the
next depth gives ([w1.0], [w1.1]).  Prepending a word w to every word of a
carrier keeps it canonical and prepends w to every block, so
``build_partition`` of w.V is w.(``build_partition`` of V).
"""

from __future__ import annotations

from . import _Value
from .code_space import ClopenSet, clopen_union

__all__ = [
    "Partition",
    "build_partition",
    "flatten_refinement",
    "refine_block",
]


def _overlapping(blocks) -> bool:
    """Whether any two cylinders of different blocks meet.

    Each block is prefix-free, so two member cylinders meet exactly when one
    word starts with the other, across blocks.  In sorted order every word
    starting with w follows w before any word that does not, so some pair
    meets exactly when some word starts with the word just before it; a
    word repeated across blocks counts as starting with itself.
    """
    words = sorted(w for b in blocks for w in b.words)
    return any(w.startswith(prev) for prev, w in zip(words, words[1:]))


class Partition(_Value):
    """An ordered split of a clopen carrier into disjoint non-empty blocks."""

    __slots__ = ("carrier", "blocks")

    def __init__(self, carrier: ClopenSet, blocks: tuple[ClopenSet, ...]) -> None:
        if not blocks:
            raise ValueError("a partition needs at least one block")
        for b in blocks:
            if b.is_empty:
                raise ValueError("empty block")
        if _overlapping(blocks):
            raise ValueError("blocks overlap")
        if clopen_union(*blocks) != carrier:
            raise ValueError("blocks do not cover the carrier")
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "blocks", blocks)

    # the blocks cover exactly the carrier, so they decide the partition
    def __eq__(self, other: object) -> bool:
        if type(other) is not Partition:
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    @property
    def size(self) -> int:
        return len(self.blocks)


def _split_block(block: ClopenSet) -> tuple[ClopenSet, ClopenSet]:
    """Carve the canonical cylinder v out of ``block``: returns (v, block - v)."""
    first, *rest = block.words
    if rest:
        return ClopenSet([first]), ClopenSet(rest)
    return ClopenSet([first + "0"]), ClopenSet([first + "1"])


def build_partition(carrier: ClopenSet, n: int) -> Partition:
    """Split ``carrier`` into ``n`` non-empty clopen blocks.

    Induction on n: keep the first n-2 blocks and split the last one.
    """
    if n < 1:
        raise ValueError("block count must be at least 1")
    if carrier.is_empty:
        raise ValueError("empty carrier")
    blocks = [carrier]
    for _ in range(n - 1):
        v, rest = _split_block(blocks[-1])
        blocks[-1:] = [v, rest]
    return Partition(carrier, tuple(blocks))


def refine_block(p: Partition, index: int, n: int) -> Partition:
    """Partition block ``index`` (1-based) of ``p`` into ``n`` sub-blocks."""
    if not 1 <= index <= p.size:
        raise ValueError(f"block index {index} out of range 1..{p.size}")
    return build_partition(p.blocks[index - 1], n)


def flatten_refinement(p: Partition, index: int, refinement: Partition) -> Partition:
    """Splice a refinement of block ``index`` back into ``p``."""
    if refinement.carrier != p.blocks[index - 1]:
        raise ValueError("refinement does not match the chosen block")
    blocks = p.blocks[: index - 1] + refinement.blocks + p.blocks[index:]
    return Partition(p.carrier, blocks)
