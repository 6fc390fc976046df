"""Tests for the exact symbolic layer: addresses, cylinders, clopen algebra,
the middle-thirds embedding and the recoding homeomorphisms."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_coarse.clopen_partition import build_partition
from cantor_coarse.coarse_graining import build_hierarchy
from cantor_coarse.code_space import (
    Address,
    ClopenSet,
    ComposedMap,
    FULL_SPACE,
    OutsideDomainError,
    PrefixRewrite,
    _canonical_words,
    _trusted_address,
    clopen_union,
    code_distance,
    complete_prefix_code,
    compose,
    embed_cmts,
    identity_map,
    map_clopen,
    prepend_map,
    random_address,
    recode_between,
    recode_homeomorphism,
)

addresses = st.builds(
    Address,
    prefix=st.text(alphabet="01", max_size=10),
    tail=st.sampled_from("01"),
)


def _reference_canonical_words(words) -> tuple[str, ...]:
    """Quadratic fixpoint canonicalization, the oracle for the sorted scan.

    Absorbs every word that refines another, then merges complete sibling
    pairs deepest first until a whole pass merges nothing.
    """
    ws = set(words)
    ws = {w for w in ws if not any(u != w and w.startswith(u) for u in ws)}
    merged = True
    while merged:
        merged = False
        for w in sorted(ws, key=len, reverse=True):
            if w and w in ws:
                sibling = w[:-1] + ("1" if w[-1] == "0" else "0")
                if sibling in ws:
                    ws.discard(w)
                    ws.discard(sibling)
                    ws.add(w[:-1])
                    merged = True
    return tuple(sorted(ws))


def _reference_embed_cmts(a: Address) -> Fraction:
    """Middle-thirds embedding summed one symbol at a time."""
    total = Fraction(0)
    for i, sym in enumerate(a.prefix, start=1):
        if sym == "1":
            total += Fraction(2, 3**i)
    if a.tail == "1":
        total += Fraction(1, 3 ** len(a.prefix))
    return total


def _level_words(depth: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=depth)]


@st.composite
def dense_word_lists(draw):
    """A complete depth-d level with a few words dropped, plus stray words,
    shuffled: the holes and strays force long sibling-merge chains."""
    level = _level_words(draw(st.integers(0, 7)))
    dropped = draw(st.sets(st.sampled_from(level), max_size=3))
    strays = draw(st.lists(st.text(alphabet="01", max_size=9), max_size=6))
    return draw(st.permutations([w for w in level if w not in dropped] + strays))


word_lists = st.one_of(
    st.lists(st.text(alphabet="01", max_size=8), max_size=24),
    dense_word_lists(),
)


def _reference_rewrite(m: PrefixRewrite, a: Address) -> Address:
    """The rewrite through ``starts_with``, ``drop`` and a checked ``Address``."""
    for src, dst in m.rules:
        if a.starts_with(src):
            return Address(dst + a.drop(len(src)).prefix, a.tail)
    raise OutsideDomainError(f"{a} lies outside the map's source cylinders")


prefix_free_words = st.lists(st.text(alphabet="01", max_size=6), min_size=1, max_size=6).map(
    lambda ws: ClopenSet(ws).words
)


@st.composite
def rewrite_cases(draw):
    """A rewrite and an address; half the addresses are built to meet a
    source inside their tail (the source's trailing run is the tail)."""
    srcs, dsts = draw(prefix_free_words), draw(prefix_free_words)
    n = min(len(srcs), len(dsts))
    m = PrefixRewrite(tuple(zip(srcs[:n], dsts[:n])))
    if draw(st.booleans()):
        src = draw(st.sampled_from(srcs[:n]))
        tail = src[-1] if src else draw(st.sampled_from("01"))
        return m, Address(src.rstrip(tail), tail)
    return m, draw(addresses)


def _all_addresses(max_prefix: int) -> list[Address]:
    """Every canonical address with prefix length up to ``max_prefix``."""
    out = []
    for tail in "01":
        out.append(Address("", tail))
        for k in range(1, max_prefix + 1):
            for bits in itertools.product("01", repeat=k - 1):
                last = "1" if tail == "0" else "0"  # canonical: ends off-tail
                out.append(Address("".join(bits) + last, tail))
    return out


class TestAddress:
    def test_canonical_form_strips_tail_symbol(self):
        assert Address("0111", "1") == Address("0", "1")
        assert Address("100", "0") == Address("1", "0")
        assert Address("", "0").prefix == ""

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            Address("012", "0")
        with pytest.raises(ValueError):
            Address("0", "2")

    def test_symbols_and_drop(self):
        a = Address("01", "1")
        assert a.symbols(5) == "01111"
        assert a.drop(1) == Address("1", "1") == Address("", "1")
        assert a.drop(4) == Address("", "1")

    def test_lexicographic_order(self):
        assert Address("", "0") < Address("0001", "1")
        assert Address("10", "0") < Address("", "1")
        assert not Address("", "1") < Address("", "1")
        assert sorted([Address("", "1"), Address("", "0"), Address("1", "0")]) == [
            Address("", "0"),
            Address("1", "0"),
            Address("", "1"),
        ]


# per value type: two equal values built apart (the second by a fast path
# that skips validation, where there is one), a different value, a field
VALUES = {
    "Address": (Address("0111", "1"), _trusted_address("0111", "1"), Address("0", "0"), "prefix"),
    "ClopenSet": (ClopenSet(["00", "01", "1"]), FULL_SPACE, ClopenSet(["0"]), "words"),
    "PrefixRewrite": (prepend_map("0"), compose(identity_map(), prepend_map("0"))._flat, prepend_map("1"), "rules"),
}


@pytest.mark.parametrize(("a", "b", "other", "field"), VALUES.values(), ids=list(VALUES))
class TestValueTypes:
    def test_equal_values_compare_and_hash_equal(self, a, b, other, field):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != other and len({a, b, other}) == 2
        assert a != getattr(a, field)  # another type is never equal

    def test_fields_cannot_be_assigned(self, a, b, other, field):
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == b


class TestEmbedding:
    def test_endpoints(self):
        assert embed_cmts(Address("", "0")) == 0
        assert embed_cmts(Address("", "1")) == 1
        assert embed_cmts(Address("1", "0")) == Fraction(2, 3)

    def test_distances(self):
        assert code_distance(Address("", "0"), Address("", "1")) == 1
        a = Address("0110", "0")
        assert code_distance(a, a) == 0
        assert code_distance(Address("", "0"), Address("1", "0")) == Fraction(2, 3)

    def test_cylinder_diameter(self):
        for word in ("", "0", "10", "0110"):
            spread = embed_cmts(Address(word, "1")) - embed_cmts(Address(word, "0"))
            assert spread == Fraction(1, 3 ** len(word))

    @given(a=addresses, b=addresses)
    def test_metric_zero_iff_equal_and_symmetric(self, a, b):
        d = code_distance(a, b)
        assert d >= 0
        assert (d == 0) == (a == b)
        assert d == code_distance(b, a)

    @given(a=addresses, b=addresses, c=addresses)
    def test_triangle_inequality(self, a, b, c):
        assert code_distance(a, c) <= code_distance(a, b) + code_distance(b, c)

    @given(a=addresses, b=addresses)
    def test_embedding_is_strictly_order_preserving(self, a, b):
        if a < b:
            assert embed_cmts(a) < embed_cmts(b)
        elif b < a:
            assert embed_cmts(b) < embed_cmts(a)
        else:
            assert embed_cmts(a) == embed_cmts(b)

    def test_embedding_order_exhaustive_at_short_prefixes(self):
        points = sorted(_all_addresses(6))
        values = [embed_cmts(a) for a in points]
        for v1, v2 in zip(values, values[1:]):
            assert v1 < v2

    @given(a=st.builds(Address, prefix=st.text(alphabet="01", max_size=60), tail=st.sampled_from("01")))
    def test_closed_form_matches_symbol_sum(self, a):
        assert embed_cmts(a) == _reference_embed_cmts(a)

    @given(a=addresses)
    def test_image_has_a_ternary_expansion_without_ones(self, a):
        # reconstruct the value from digits 2*s_i, which witnesses
        # membership in the middle-thirds set
        digits = [2 * int(sym) for sym in a.symbols(12)]
        assert set(digits) <= {0, 2}
        partial = sum(Fraction(d, 3**i) for i, d in enumerate(digits, start=1))
        tail = Fraction(1, 3**12) if a.tail == "1" else Fraction(0)
        assert partial + tail == embed_cmts(a)


class TestClopenSet:
    def test_canonicalization_merges_and_absorbs(self):
        assert ClopenSet(["00", "01"]).words == ("0",)
        assert ClopenSet(["0", "01"]).words == ("0",)
        assert ClopenSet(["0", "10", "11"]).words == ("",)
        assert ClopenSet(["10", "0"]).words == ("0", "10")

    @pytest.mark.parametrize("words", [["2"], ["0a"], ["0", "0a"], ["00", "01", "1", "x"], [""] * 3 + ["10 "]])
    def test_non_binary_words_rejected(self, words):
        # a bad word is rejected even where a shallower word absorbs it
        bad = next(w for w in words if not set(w) <= {"0", "1"})
        with pytest.raises(ValueError, match=f"^not a binary word: {bad!r}$"):
            ClopenSet(words)
        with pytest.raises(ValueError, match="^not a binary word"):
            ClopenSet(tuple(words))

    @given(words=st.lists(st.text(alphabet="01", max_size=6), max_size=8))
    def test_cylinders_view_the_canonical_words(self, words):
        cs = ClopenSet(words)
        assert type(cs.words) is tuple
        assert cs.cylinders is cs.words
        assert cs.is_empty is (not words)

    @given(words=st.lists(st.text(alphabet="01", max_size=6), max_size=8))
    def test_equality_and_hash_go_by_canonical_words(self, words):
        cs = ClopenSet(words)
        # every word split into its two children: the same set
        split = ClopenSet([w + b for w in words for b in "01"])
        assert split == cs and hash(split) == hash(cs)
        assert len({cs, split, ClopenSet(cs.words)}) == 1
        assert ClopenSet(tuple(words)) == cs
        assert (cs == FULL_SPACE) is (cs.words == ("",))

    def test_cylinders_readable_before_and_after_construction(self, monkeypatch):
        # a wrapper around __post_init__ may count the input and the
        # canonical cylinders, as bench/tracer.py does
        seen = []
        real = ClopenSet.__post_init__

        def counted(self):
            seen.append(len(self.cylinders))
            real(self)
            seen.append(len(self.cylinders))

        monkeypatch.setattr(ClopenSet, "__post_init__", counted)
        assert ClopenSet(["00", "01", "1"]) == FULL_SPACE
        assert seen == [3, 1]

    @given(words=st.lists(st.text(alphabet="01", max_size=6), max_size=8))
    def test_canonicalization_idempotent_and_order_independent(self, words):
        cs = ClopenSet(words)
        assert ClopenSet(cs.words) == cs
        rng = random.Random(7)
        shuffled = list(words)
        rng.shuffle(shuffled)
        assert ClopenSet(shuffled) == cs

    @settings(max_examples=300)
    @given(words=word_lists)
    def test_sorted_scan_matches_fixpoint_oracle(self, words):
        assert _canonical_words(words) == _reference_canonical_words(words)
        assert ClopenSet(words).words == _reference_canonical_words(words)

    def test_complete_deep_level_canonicalizes_within_budget(self):
        # the fixpoint oracle needs about 2.7e8 prefix tests for this input
        level = _level_words(14)
        hole = level[5000]
        start = time.perf_counter()
        full = ClopenSet(level)
        holed = ClopenSet(level[:5000] + level[5001:])
        elapsed = time.perf_counter() - start
        assert full == FULL_SPACE
        # the complement of one deep cylinder is its path's 14 siblings
        siblings = {hole[:i] + ("1" if hole[i] == "0" else "0") for i in range(14)}
        assert len(holed.words) == 14
        assert set(holed.words) == siblings
        assert elapsed < 2.0, f"{elapsed:.2f}s"

    def test_membership_and_bounds(self):
        cs = ClopenSet(["0", "110"])
        assert cs.contains(Address("01", "0"))
        assert not cs.contains(Address("10", "0"))
        # canonical words are sorted and prefix-free, so the first and last
        # words carry the least and greatest points of the set
        least, greatest = Address(cs.words[0], "0"), Address(cs.words[-1], "1")
        assert least == Address("", "0")
        assert greatest == Address("110", "1")
        assert cs.contains(least) and cs.contains(greatest)

    def test_refine(self):
        assert ClopenSet(["0"]).refine(2) == ("00", "01")
        assert FULL_SPACE.refine(2) == ("00", "01", "10", "11")
        with pytest.raises(ValueError):
            ClopenSet(["010"]).refine(2)

    def test_subset(self):
        # canonical form is unique, so x lies inside y exactly when x | y == y
        def subset(x: ClopenSet, y: ClopenSet) -> bool:
            return clopen_union(x, y) == y

        assert subset(ClopenSet(["00", "10"]), FULL_SPACE)
        assert not subset(FULL_SPACE, ClopenSet(["0"]))
        # a union can cover a cylinder none of its members contains
        assert subset(ClopenSet(["0"]), ClopenSet(["00", "01"]))


class TestPrefixCode:
    def test_small_codes(self):
        assert complete_prefix_code(1) == ("",)
        assert complete_prefix_code(2) == ("0", "1")
        assert complete_prefix_code(3) == ("0", "10", "11")
        assert complete_prefix_code(4) == ("00", "01", "10", "11")
        assert complete_prefix_code(5) == ("00", "01", "10", "110", "111")

    @given(count=st.integers(min_value=1, max_value=40))
    def test_complete_and_prefix_free(self, count):
        code = complete_prefix_code(count)
        assert len(code) == count
        assert sum(Fraction(1, 2 ** len(w)) for w in code) == 1  # Kraft equality
        for u, v in itertools.permutations(code, 2):
            assert not v.startswith(u)


class TestRecode:
    def test_single_cylinder_target_prepends(self):
        g = recode_homeomorphism(ClopenSet(["0"]))
        assert g(Address("", "1")) == Address("0", "1")
        assert g(Address("101", "0")) == Address("0101", "0")

    def test_full_space_target_is_identity(self):
        g = recode_homeomorphism(FULL_SPACE)
        a = Address("0110", "1")
        assert g(a) == a

    def test_three_cylinder_target_passes_symbols_through(self):
        # {[0],[10],[11]} is the whole space, so the matched code is the
        # word list itself and the map acts as the identity
        g = recode_homeomorphism(ClopenSet(["0", "10", "11"]))
        assert g(Address("0110", "0")) == Address("0110", "0")
        assert g(Address("10", "1")) == Address("10", "1")

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="empty subspace"):
            recode_homeomorphism(ClopenSet(()))

    def test_roundtrip_on_random_addresses(self):
        target = ClopenSet(["0", "110"])
        g = recode_homeomorphism(target)
        g_inv = g.inverse()
        rng = random.Random(1)
        for _ in range(100):
            a = random_address(rng, 30)
            image = g(a)
            assert target.contains(image)
            assert g_inv(image) == a
        for _ in range(100):
            b = random_address(rng, 30, within=target)
            assert g(g_inv(b)) == b

    def test_roundtrip_exhaustive_to_prefix_twelve(self):
        target = ClopenSet(["01", "100", "11"])
        g = recode_homeomorphism(target)
        g_inv = g.inverse()
        for a in _all_addresses(12):
            assert g_inv(g(a)) == a
            if target.contains(a):
                assert g(g_inv(a)) == a

    def test_image_is_exactly_the_target(self):
        for words in (["0"], ["0", "110"], ["00", "01", "10", "110"]):
            target = ClopenSet(words)
            g = recode_homeomorphism(target)
            assert map_clopen(g, FULL_SPACE) == target
            # refined enumerations agree at a common depth beyond the
            # longest codeword plus the longest cylinder word
            depth = 4
            c = max(len(w) for w in g.rules for w in w)
            image_words: set[str] = set()
            for w in FULL_SPACE.refine(depth):
                img = g.word_image(w)
                assert img is not None
                image_words.add(img)
            assert ClopenSet(image_words).refine(depth + c) == target.refine(depth + c)

    def test_outside_domain(self):
        g = recode_homeomorphism(ClopenSet(["0"]))
        with pytest.raises(OutsideDomainError):
            g.inverse()(Address("", "1"))

    def test_uniform_continuity_both_ways(self):
        # agreeing prefixes map to agreeing prefixes, shifted by no more
        # than the max rule length
        target = ClopenSet(["00", "011", "11"])
        g = recode_homeomorphism(target)
        shift = max(len(w) for rule in g.rules for w in rule)
        rng = random.Random(9)
        for _ in range(300):
            shared = "".join(rng.choice("01") for _ in range(rng.randrange(3, 15)))
            a = Address(shared + rng.choice("01"), rng.choice("01"))
            b = Address(shared + rng.choice("01"), rng.choice("01"))
            m = len(shared)
            for mapped, x, y in ((g, a, b), (g.inverse(), g(a), g(b))):
                ga, gb = mapped(x), mapped(y)
                agree = ga.symbols(m - shift) == gb.symbols(m - shift)
                assert agree

    def test_recode_between(self):
        src = ClopenSet(["1"])
        dst = ClopenSet(["00"])
        g = recode_between(src, dst)
        assert g(Address("1", "0")) == Address("00", "0")
        assert map_clopen(g, src) == dst
        assert g.inverse()(Address("00", "1")) == Address("1", "1")


class TestMaps:
    def test_prepend(self):
        m = prepend_map("1")
        assert m(Address("", "0")) == Address("1", "0")
        assert m.word_image("01") == "101"
        assert map_clopen(m, FULL_SPACE).words == ("1",)

    def test_identity_and_compose(self):
        m = compose(prepend_map("0"), prepend_map("1"))
        assert m(Address("", "1")) == Address("10", "1")
        assert m.inverse()(Address("10", "1")) == Address("", "1")
        assert identity_map()(Address("01", "0")) == Address("01", "0")

    def test_word_image_requests_refinement(self):
        g = recode_homeomorphism(ClopenSet(["0", "110"]))
        assert g.word_image("") is None  # shorter than every source word
        assert g.word_image("0") == "0"
        assert g.word_image("11") == "1101"  # source '1' -> '110', passes '1' through

    @settings(max_examples=300)
    @given(case=rewrite_cases())
    def test_rewrite_matches_the_checked_reference(self, case):
        m, a = case
        try:
            want = _reference_rewrite(m, a)
        except OutsideDomainError:
            with pytest.raises(OutsideDomainError):
                m(a)
            return
        got = m(a)
        assert got == want
        assert (got.prefix, got.tail) == (want.prefix, want.tail)

    def test_rewrite_edge_cases(self):
        cases = [
            # the source runs past the prefix into the tail; the
            # replacement ends in the tail symbol with nothing left over
            (PrefixRewrite((("0111", "11"),)), Address("0", "1"), Address("", "1")),
            (PrefixRewrite((("01", "10"),)), Address("01", "0"), Address("1", "0")),
            (PrefixRewrite((("1", "0"), ("00", "11"))), Address("", "0"), Address("11", "0")),
            (identity_map(), Address("0110", "1"), Address("0110", "1")),
            (identity_map(), Address("", "0"), Address("", "0")),
        ]
        for m, a, want in cases:
            got = m(a)
            assert got == want == _reference_rewrite(m, a)
            assert (got.prefix, got.tail) == (want.prefix, want.tail)

    def test_rewrite_outside_domain(self):
        m = PrefixRewrite((("00", "1"), ("0110", "0")))
        for a in (Address("1", "0"), Address("", "1"), Address("01", "1"), Address("0111", "0")):
            with pytest.raises(OutsideDomainError):
                m(a)

    def test_random_address_respects_carrier(self):
        rng = random.Random(3)
        carrier = ClopenSet(["01", "10"])
        for _ in range(50):
            assert carrier.contains(random_address(rng, 10, carrier))


SAMPLER_CARRIERS = {
    "none": None,
    "full": FULL_SPACE,
    "one-word": ClopenSet(["0110"]),
    "three-words": ClopenSet(["00", "10", "111"]),
    "partition-block": build_partition(FULL_SPACE, 64).blocks[-1],
}


class TestRandomAddress:
    """``random_address`` draws a carrier word, a body length and then the
    body and the tail; each draw must reach its whole range."""

    @pytest.mark.parametrize("max_prefix", [0, 5, 20])
    @pytest.mark.parametrize("carrier", list(SAMPLER_CARRIERS))
    def test_draws_cover_words_lengths_and_tails(self, carrier, max_prefix):
        within = SAMPLER_CARRIERS[carrier]
        words = within.words if within is not None else ("",)
        for seed in range(3):
            rng = random.Random(seed)
            points = [random_address(rng, max_prefix, within) for _ in range(3000)]
            rng = random.Random(seed)
            assert [random_address(rng, max_prefix, within) for _ in range(3000)] == points, seed
            seen_words, lengths = set(), set()
            for a in points:
                # the carrier words are prefix-free: one holds the point
                (w,) = [w for w in words if a.starts_with(w)]
                seen_words.add(w)
                # the body adds max_prefix symbols at most; a body ending in
                # the tail symbol is trimmed, so shorter prefixes also occur
                lengths.add(len(a.prefix) - len(w))
            assert seen_words == set(words), seed
            assert max(lengths) == max_prefix and lengths >= set(range(max_prefix + 1)), seed
            assert {a.tail for a in points} == {"0", "1"}, seed

    def test_seeds_differ(self):
        streams = []
        for seed in range(3):
            rng = random.Random(seed)
            streams.append([random_address(rng, 20) for _ in range(50)])
        assert streams[0] != streams[1] != streams[2] != streams[0]

    def test_empty_ranges_raise(self):
        with pytest.raises(ValueError, match="empty range"):
            random_address(random.Random(0), -1)
        with pytest.raises(ValueError, match="empty subspace"):
            random_address(random.Random(0), 20, ClopenSet(()))


class _Staged:
    """A composite applied one stage at a time: the oracle for the
    flattened rewrite that ``ComposedMap`` evaluates through."""

    def __init__(self, m: ComposedMap) -> None:
        self.stages = m.stages

    def __call__(self, a: Address) -> Address:
        for stage in self.stages:
            a = stage(a)
        return a

    def word_image(self, word: str) -> str | None:
        img: str | None = word
        for stage in self.stages:
            img = stage.word_image(img)
            if img is None:
                return None
        return img


def _assert_matches_stages(m: ComposedMap, points, sets) -> None:
    oracle = _Staged(m)
    for a in points:
        try:
            want = oracle(a)
        except OutsideDomainError:
            with pytest.raises(OutsideDomainError):
                m(a)
            continue
        got = m(a)
        assert (got.prefix, got.tail) == (want.prefix, want.tail), a
    for cs in sets:
        try:
            want_set = map_clopen(oracle, cs)
        except OutsideDomainError:
            with pytest.raises(OutsideDomainError):
                map_clopen(m, cs)
            continue
        assert map_clopen(m, cs) == want_set, cs.words


def _tower_maps(level):
    """Every composite one floor holds, with inverses."""
    maps = [level.to_base, level.to_base.inverse(), level.hom, level.hom.inverse()]
    maps += list(level.maps) + [b.inverse() for b in level.maps]
    return maps


class TestFlatComposites:
    @pytest.mark.parametrize("n", [2, 3, 5, 64])
    @pytest.mark.parametrize("policy", ["distinct", "merged", "explicit"])
    def test_tower_maps_match_their_stages(self, n, policy):
        explicit = None
        if policy == "explicit":
            # carriers do not depend on the representatives, so a distinct
            # tower shows every floor's first block; list them reversed
            shape = build_hierarchy(8, n)
            explicit = tuple(tuple(reversed(lv.quotient.representatives)) for lv in shape[1:])
        tower = build_hierarchy(8, n, policy, explicit)
        rng = random.Random(n)
        for prev, level in zip(tower, tower[1:]):
            points = [random_address(rng, 20) for _ in range(15)]
            points += [random_address(rng, 20, level.carrier) for _ in range(15)]
            points += [random_address(rng, 20, prev.carrier) for _ in range(15)]
            sets = [FULL_SPACE, level.carrier, prev.carrier, *level.quotient.partition.blocks[:3]]
            for m in _tower_maps(level):
                assert isinstance(m, ComposedMap)
                _assert_matches_stages(m, points, sets)

    def test_multi_rule_composites_and_inverses(self):
        three = ClopenSet(["00", "10", "111"])
        target = ClopenSet(["0", "110", "1110"])
        g = recode_between(three, target)
        maps = [g, g.inverse(), compose(g.inverse(), prepend_map("0"), g)]
        points = _all_addresses(7)
        sets = [FULL_SPACE, three, target, ClopenSet(["00"]), ClopenSet(["1110", "0"])]
        for m in maps:
            _assert_matches_stages(m, points, sets)

    def test_later_stage_covers_part_of_the_image(self):
        partial = PrefixRewrite((("00", "1"), ("0111", "01")))
        maps = [
            compose(prepend_map("0"), partial),  # [0] lands in "00", [111] in "0111"
            compose(recode_homeomorphism(ClopenSet(["00", "10", "111"])), partial),
            compose(prepend_map("0"), partial).inverse(),
        ]
        points = _all_addresses(6)
        sets = [FULL_SPACE, ClopenSet(["0"]), ClopenSet(["0", "111"]), ClopenSet(["1"])]
        for m in maps:
            _assert_matches_stages(m, points, sets)
        assert maps[0]._flat.rules == (("0", "1"), ("111", "01"))

    def test_empty_domain_and_no_stages(self):
        nowhere = compose(prepend_map("0"), PrefixRewrite((("1", "1"),)))
        _assert_matches_stages(nowhere, _all_addresses(3), [FULL_SPACE, ClopenSet(["01"])])
        with pytest.raises(OutsideDomainError):
            nowhere(Address("", "0"))
        _assert_matches_stages(compose(), _all_addresses(3), [FULL_SPACE, ClopenSet(["01"])])

    @settings(max_examples=200)
    @given(
        rules=st.lists(st.tuples(prefix_free_words, prefix_free_words), min_size=1, max_size=4),
        words=st.lists(st.text(alphabet="01", max_size=6), min_size=1, max_size=4),
        points=st.lists(addresses, max_size=8),
    )
    def test_random_composites_match_their_stages(self, rules, words, points):
        stages = tuple(PrefixRewrite(tuple(zip(srcs, dsts))) for srcs, dsts in rules)
        _assert_matches_stages(ComposedMap(stages), points, [ClopenSet(words)])
