"""Exact symbolic model of a Cantor-type space.

Points are the eventually constant binary sequences, written as a finite
prefix plus one repeated tail symbol.  Finite unions of cylinders give the
clopen sets, and the middle-thirds embedding pins the whole code space to
the classical ternary Cantor set inside [0, 1], which is what makes
"clopen", "diameter" and "distance" concrete here.  All arithmetic is
rational, so set and metric identities are asserted exactly, never within
a tolerance.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property, total_ordering

from . import _Value

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Address",
    "AddressMap",
    "ClopenSet",
    "ComposedMap",
    "FULL_SPACE",
    "OutsideDomainError",
    "PrefixRewrite",
    "clopen_union",
    "code_distance",
    "complete_prefix_code",
    "compose",
    "embed_cmts",
    "identity_map",
    "map_clopen",
    "prepend_map",
    "random_address",
    "recode_between",
    "recode_homeomorphism",
]

_SYMBOLS = ("0", "1")
_BITS = frozenset(_SYMBOLS)


class OutsideDomainError(ValueError):
    """An address or cylinder fell outside a partial map's domain."""


def _check_word(word: str) -> None:
    if not set(word) <= _BITS:
        raise ValueError(f"not a binary word: {word!r}")


@total_ordering
class Address(_Value):
    """An eventually constant binary sequence: ``prefix``, then ``tail`` forever.

    Stored in canonical form (the prefix never ends in the tail symbol), so
    value equality coincides with equality of the sequences, and every
    eventually constant sequence has exactly one representation.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix: str, tail: str) -> None:
        _check_word(prefix)
        if tail not in _SYMBOLS:
            raise ValueError(f"tail must be '0' or '1', got {tail!r}")
        _set_prefix(self, prefix.rstrip(tail))
        _set_tail(self, tail)

    def symbols(self, n: int) -> str:
        """The first ``n`` symbols of the sequence."""
        if n <= len(self.prefix):
            return self.prefix[:n]
        return self.prefix + self.tail * (n - len(self.prefix))

    def drop(self, n: int) -> "Address":
        """The sequence with its first ``n`` symbols removed."""
        return Address(self.prefix[n:], self.tail)

    def starts_with(self, word: str) -> bool:
        return self.symbols(len(word)) == word

    def __eq__(self, other: object) -> bool:
        if type(other) is not Address:
            return NotImplemented
        return self.prefix == other.prefix and self.tail == other.tail

    def __hash__(self) -> int:
        return hash((self.prefix, self.tail))

    def __lt__(self, other: "Address") -> bool:
        if not isinstance(other, Address):
            return NotImplemented
        # Beyond both prefixes every symbol is the tail, so one extra
        # position decides the lexicographic order of the sequences.
        n = max(len(self.prefix), len(other.prefix)) + 1
        return self.symbols(n) < other.symbols(n)

    def __str__(self) -> str:
        return f"{self.prefix}({self.tail})^inf"


# the slots' own setters, which ``Address.__setattr__`` does not reach
_set_prefix, _set_tail = Address.prefix.__set__, Address.tail.__set__


def _trusted_address(prefix: str, tail: str) -> Address:
    """``Address(prefix, tail)`` for symbols already known to be binary.

    Skips the symbol check of ``Address.__init__`` but still trims the
    prefix, so the result is canonical.
    """
    a = object.__new__(Address)
    _set_prefix(a, prefix.rstrip(tail))
    _set_tail(a, tail)
    return a


def embed_cmts(a: Address) -> Fraction:
    """Middle-thirds embedding of an address, as an exact rational.

    Symbol i contributes 2*s_i/3**i, so the prefix is the ternary numeral
    with each 1 written as 2, over 3**len(prefix); a constant tail of ones
    sums in closed form to 3**-len(prefix).
    """
    from fractions import Fraction

    return Fraction(int("0" + a.prefix.replace("1", "2"), 3) + (a.tail == "1"), 3 ** len(a.prefix))


def code_distance(a: Address, b: Address) -> Fraction:
    """Metric on the code space: pullback of |.| under the embedding."""
    return abs(embed_cmts(a) - embed_cmts(b))


def _canonical_words(words) -> tuple[str, ...]:
    """The unique maximal-cylinder form of a union of cylinders, sorted.

    The distinct words are checked to be binary once, joined into one
    string.  One scan over them, sorted, keeps a stack that is sorted and
    prefix-free.  In sorted order every extension of a word follows it
    before any word that does not extend it, so a word lies inside a
    stacked cylinder exactly when it starts with the top word, and is
    absorbed.  Likewise a complete sibling pair w0, w1 can only meet as the
    top two entries, so after each push they merge into w until the top
    pair is no longer a sibling pair.
    """
    distinct = sorted(set(words))
    if not set("".join(distinct)) <= _BITS:
        for w in distinct:
            _check_word(w)
    stack: list[str] = []
    for w in distinct:
        if stack and w.startswith(stack[-1]):
            continue
        while w and stack and w[-1] == "1" and stack[-1] == w[:-1] + "0":
            stack.pop()
            w = w[:-1]
        stack.append(w)
    return tuple(stack)


class ClopenSet(_Value):
    """A finite union of cylinders, kept canonical as the words of its
    member cylinders.

    Canonical means no member cylinder contains another, no two sibling
    cylinders w0 and w1 are both present (they merge to w), and the words
    are sorted.  Construction checks that every word is binary and reaches
    this form in one scan over the sorted words (``_canonical_words``),
    whose stack is sorted, prefix-free and free of sibling pairs after
    every step.  Equality and hashing go by the canonical words, and a
    member cylinder is its word.  The empty union is a valid value;
    operations that need a non-empty set say so.
    """

    __slots__ = ("words",)

    def __init__(self, words) -> None:
        """``words`` are the member words in any order, as a list or tuple;
        ``__post_init__`` replaces them by the canonical words."""
        object.__setattr__(self, "words", words)
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", _canonical_words(self.words))

    def __eq__(self, other: object) -> bool:
        if type(other) is not ClopenSet:
            return NotImplemented
        return self.words == other.words

    def __hash__(self) -> int:
        return hash(self.words)

    # ``words`` under the name bench/tracer.py counts, until it reads ``words``
    @property
    def cylinders(self) -> tuple[str, ...]:
        return self.words

    @property
    def is_empty(self) -> bool:
        return not self.words

    def contains(self, a: Address) -> bool:
        return any(map(a.starts_with, self.words))

    def refine(self, depth: int) -> tuple[str, ...]:
        """All member words expanded to one uniform depth."""
        out: list[str] = []
        for w in self.words:
            if len(w) > depth:
                raise ValueError(f"cylinder [{w}] is deeper than {depth}")
            out.extend(w + "".join(bits) for bits in itertools.product("01", repeat=depth - len(w)))
        return tuple(sorted(out))


FULL_SPACE = ClopenSet(("",))


def clopen_union(*sets: ClopenSet) -> ClopenSet:
    words: list[str] = []
    for s in sets:
        words.extend(s.words)
    return ClopenSet(words)


def complete_prefix_code(count: int) -> tuple[str, ...]:
    """A balanced complete binary prefix code with ``count`` codewords.

    Grown from the empty codeword by repeatedly splitting the first
    codeword, in lexicographic order, that still stands for two or more
    leaves of the final code; each split hands the floor half of the
    leaves to the 0-child.  The codeword lengths match an equal-weight
    Huffman code and the construction is deterministic.
    """
    if count < 1:
        raise ValueError("count must be positive")
    nodes: list[tuple[str, int]] = [("", count)]
    while len(nodes) < count:
        i = next(k for k, (_, c) in enumerate(nodes) if c >= 2)
        word, c = nodes[i]
        nodes[i : i + 1] = [(word + "0", c // 2), (word + "1", c - c // 2)]
    return tuple(word for word, _ in nodes)


def _check_prefix_free(words, what: str) -> None:
    ws = sorted(words)
    for u, v in zip(ws, ws[1:]):
        if v.startswith(u):
            raise ValueError(f"{what} words are not prefix-free: {u!r}, {v!r}")


class PrefixRewrite(_Value):
    """A partial address map that rewrites one initial block of symbols.

    ``rules`` pairs source words with replacement words.  Sources are
    pairwise prefix-free so at most one rule applies to a sequence, and
    replacements are prefix-free too, making the map a bijection from the
    union of its source cylinders onto the union of its replacement
    cylinders.  Sequences agreeing on a long prefix map to sequences
    agreeing on a prefix of comparable length, so both directions are
    uniformly continuous.
    """

    __slots__ = ("rules",)

    def __init__(self, rules: tuple[tuple[str, str], ...]) -> None:
        if not rules:
            raise ValueError("a rewrite needs at least one rule")
        for src, dst in rules:
            _check_word(src)
            _check_word(dst)
        _check_prefix_free((src for src, _ in rules), "source")
        _check_prefix_free((dst for _, dst in rules), "replacement")
        object.__setattr__(self, "rules", rules)

    def __eq__(self, other: object) -> bool:
        if type(other) is not PrefixRewrite:
            return NotImplemented
        return self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __call__(self, a: Address) -> Address:
        # rule words were checked at construction and ``a`` is canonical, so
        # the image needs trimming but no symbol check
        prefix, tail = a.prefix, a.tail
        for src, dst in self.rules:
            if prefix.startswith(src):
                return _trusted_address(dst + prefix[len(src):], tail)
            # a source longer than the prefix must run on into the tail
            if src.startswith(prefix) and src[len(prefix):] == tail * (len(src) - len(prefix)):
                return _trusted_address(dst, tail)
        raise OutsideDomainError(f"{a} lies outside the map's source cylinders")

    def word_image(self, word: str) -> str | None:
        """Image cylinder word, or None when [word] must be refined first."""
        for src, dst in self.rules:
            if word.startswith(src):
                return dst + word[len(src):]
            if src.startswith(word):
                return None
        raise OutsideDomainError(f"cylinder [{word}] lies outside the map's domain")

    def inverse(self) -> "PrefixRewrite":
        return PrefixRewrite(tuple((dst, src) for src, dst in self.rules))


def _then(rules, stage: PrefixRewrite) -> tuple[tuple[str, str], ...]:
    """The rules of ``stage`` applied after ``rules``, as one rewrite.

    Each rule's replacement cylinder is pushed through ``stage``: refined
    where it straddles a source of ``stage`` (its source refined alongside),
    and dropped where it falls outside that stage's domain, so the result's
    domain is exactly the points both maps carry.
    """
    out: list[tuple[str, str]] = []
    stack = list(reversed(rules))
    while stack:
        src, dst = stack.pop()
        try:
            img = stage.word_image(dst)
        except OutsideDomainError:
            continue
        if img is None:
            stack.append((src + "1", dst + "1"))
            stack.append((src + "0", dst + "0"))
        else:
            out.append((src, img))
    return tuple(out)


class ComposedMap:
    """Address maps applied left to right.

    ``stages`` is the staged form, which documents serialize; evaluation
    goes through one flattened ``PrefixRewrite`` built from it on first use.
    """

    def __init__(self, stages: tuple[PrefixRewrite, ...]) -> None:
        self.stages = stages

    @cached_property
    def _flat(self) -> PrefixRewrite:
        rules: tuple[tuple[str, str], ...] = (("", ""),)  # no stages: the identity
        for stage in self.stages:
            rules = _then(rules, stage)
        # built from checked stages: the sources are disjoint pieces of
        # checked sources and the replacements their disjoint images, so
        # only the at-least-one-rule check could fail, on an empty domain,
        # where the flat map must raise OutsideDomainError like the stages
        flat = object.__new__(PrefixRewrite)
        object.__setattr__(flat, "rules", rules)
        return flat

    def __call__(self, a: Address) -> Address:
        return self._flat(a)

    def word_image(self, word: str) -> str | None:
        return self._flat.word_image(word)

    def inverse(self) -> "ComposedMap":
        return ComposedMap(tuple(s.inverse() for s in reversed(self.stages)))


AddressMap = PrefixRewrite | ComposedMap


def compose(*maps: AddressMap) -> ComposedMap:
    """Compose address maps; the first argument is applied first."""
    stages: list[PrefixRewrite] = []
    for m in maps:
        if isinstance(m, ComposedMap):
            stages.extend(m.stages)
        else:
            stages.append(m)
    return ComposedMap(tuple(stages))


def identity_map() -> PrefixRewrite:
    return PrefixRewrite((("", ""),))


def prepend_map(symbol: str) -> PrefixRewrite:
    """The branch map s -> symbol.s of the full code space."""
    if symbol not in _SYMBOLS:
        raise ValueError(f"symbol must be '0' or '1', got {symbol!r}")
    return PrefixRewrite((("", symbol),))


def recode_homeomorphism(target: ClopenSet) -> PrefixRewrite:
    """A homeomorphism from the full code space onto ``target``.

    Pairs the codewords of a balanced complete prefix code with the
    target's cylinders, lexicographically on both sides; the map rewrites
    the matched codeword into the matched cylinder word and passes every
    later symbol through unchanged.
    """
    if target.is_empty:
        raise ValueError("empty subspace")
    code = complete_prefix_code(len(target.words))
    return PrefixRewrite(tuple(zip(code, target.words)))


def recode_between(source: ClopenSet, target: ClopenSet) -> ComposedMap:
    """A homeomorphism carrying ``source`` onto ``target``."""
    return compose(recode_homeomorphism(source).inverse(), recode_homeomorphism(target))


def push_word(m, word: str) -> list[str]:
    """Image cylinder words of [word] under an address map, refining as needed."""
    out: list[str] = []
    stack = [word]
    while stack:
        w = stack.pop()
        if len(w) > 4096:
            raise RuntimeError("cylinder image does not stabilize")
        img = m.word_image(w)
        if img is None:
            stack.append(w + "0")
            stack.append(w + "1")
        else:
            out.append(img)
    return out


def map_clopen(m, cs: ClopenSet) -> ClopenSet:
    """Exact image of a clopen set under an address map."""
    out: list[str] = []
    for w in cs.words:
        out.extend(push_word(m, w))
    return ClopenSet(out)


def random_address(rng: random.Random, max_prefix: int = 20, within: ClopenSet | None = None) -> Address:
    """A random eventually constant address, optionally inside ``within``.

    Draws a word of ``within`` with ``rng.choice``, the body length ``n``
    with ``rng.randrange(max_prefix + 1)``, then the body and the tail
    symbol as the ``n + 1`` bits of one ``rng.getrandbits``.
    """
    base = ""
    if within is not None:
        if within.is_empty:
            raise ValueError("empty subspace")
        base = rng.choice(within.words)
    n = rng.randrange(max_prefix + 1)
    symbols = format(rng.getrandbits(n + 1), f"0{n + 1}b")
    return _trusted_address(base + symbols[:-1], symbols[-1])
