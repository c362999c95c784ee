import hashlib
import heapq
import itertools
import random
from collections import Counter, OrderedDict

import pytest
from hypothesis import example, given, strategies as st

from fpkit import rewriting
from fpkit.presentations import (
    Kind,
    Presentation,
    Relation,
    ValidationError,
    Word,
    encode_word,
    parse_presentation,
    parse_word,
    rename_generators,
)
from fpkit.rewriting import (
    Budget,
    Completeness,
    RewriteRule,
    RewritingSystem,
    _Completion,
    _RuleIndex,
    irreducible_words,
    knuth_bendix,
    normal_form,
    normal_forms,
    shortlex,
    words_equal,
)

W = parse_word


# -- independent oracle used for the derived completion examples: brute-force
#    every overlap of every rule pair and confirm both descendants agree
#    under naive fixpoint replacement.


def naive_rewrite(word: str, rules: list[tuple[str, str]]) -> str:
    while True:
        prev = word
        for lhs, rhs in rules:
            word = word.replace(lhs, rhs)
        if word == prev:
            return word


def brute_confluent(rules: list[tuple[str, str]]) -> bool:
    for (l1, r1), (l2, r2) in itertools.product(rules, repeat=2):
        for k in range(1, min(len(l1), len(l2))):
            if l1[-k:] != l2[:k]:
                continue
            one = naive_rewrite(r1 + l2[k:], rules)
            two = naive_rewrite(l1[:-k] + r2, rules)
            if one != two:
                return False
    return True


BYTES = 256  # a trie width that takes every letter code, the ASCII ones of hand-made tables too


def confluence_audit(rs: RewritingSystem, max_rules: int = 50) -> bool:
    """Exhaustively check that every critical pair joins; Complete systems only.

    Raises AssertionError with a witness on the first unresolved pair.
    """
    if len(rs.rules) > max_rules:
        raise ValueError(f"audit limited to {max_rules} rules")
    index = _RuleIndex(dict(enumerate(rs.rules)), BYTES)
    for r1 in rs.rules:
        for r2 in rs.rules:
            for k in range(1, min(len(r1.lhs), len(r2.lhs))):
                if not r2.lhs.startswith(r1.lhs[-k:]):
                    continue
                left = index.reduce(r1.rhs + r2.lhs[k:])
                right = index.reduce(r1.lhs[:-k] + r2.rhs)
                if left != right:
                    word = r1.lhs[:-k] + r2.lhs
                    raise AssertionError(f"critical pair of {r1} / {r2} at {word} diverges")
            # containment: a reduced system has none
            if r1 is not r2 and r1.lhs in r2.lhs:
                raise AssertionError(f"rule {r2} is reducible by {r1}")
    return True


def as_strings(rs) -> list[tuple[str, str]]:
    """Rules of a monoid system spelled with its generator names."""
    gens = rs.presentation.generators

    def spell(codes):
        return "".join(gens[c // 2] for c in codes)

    return [(spell(r.lhs), spell(r.rhs)) for r in rs.rules]


def test_kb_commuting_pair():
    p = parse_presentation("monoid\ngens: a, b\nrels: b a = a b")
    rs = knuth_bendix(p)
    assert rs.status is Completeness.COMPLETE
    assert as_strings(rs) == [("ba", "ab")]
    assert brute_confluent(as_strings(rs))  # exhaustive one-rule check


def test_kb_idempotent_generator():
    p = parse_presentation("monoid\ngens: g\nrels: g g = g")
    rs = knuth_bendix(p)
    assert rs.status is Completeness.COMPLETE
    assert as_strings(rs) == [("gg", "g")]
    # the single overlap ggg resolves both ways to g
    assert naive_rewrite("ggg", as_strings(rs)) == "g"
    assert brute_confluent(as_strings(rs))


def test_kb_free_monoid():
    p = parse_presentation("monoid\ngens: x\nrels:")
    rs = knuth_bendix(p)
    assert rs.status is Completeness.COMPLETE
    assert rs.rules == ()


def test_kb_rules_strictly_decreasing():
    p = parse_presentation("monoid\ngens: a, b\nrels: b a = a b, b b = a")
    rs = knuth_bendix(p)
    for rule in rs.rules:
        assert shortlex(rule.rhs) < shortlex(rule.lhs)


def test_normal_form_examples():
    p = parse_presentation("monoid\ngens: a, b\nrels: b a = a b")
    rs = knuth_bendix(p)
    assert normal_form(rs, W("b a")) == W("a b")
    idem = knuth_bendix(parse_presentation("monoid\ngens: g\nrels: g g = g"))
    assert normal_form(idem, W("g^3")) == W("g")
    assert normal_form(idem, Word()) == Word()


def test_knuth_bendix_takes_group_presentations():
    # a group is completed over its generators and their inverses directly
    c5 = knuth_bendix(parse_presentation("group\ngens: a\nrels: a^5 = 1"))
    assert c5.status is Completeness.COMPLETE
    assert normal_form(c5, W("a^4")) == W("a^-1")
    assert normal_form(c5, W("a^-3")) == W("a^2")


def test_knuth_bendix_starts_groups_from_cancellation_rules():
    free = knuth_bendix(parse_presentation("group\ngens: a, b\nrels:"))
    assert free.status is Completeness.COMPLETE
    assert [(r.lhs, r.rhs) for r in free.rules] == [
        (b"\x00\x01", b""), (b"\x01\x00", b""), (b"\x02\x03", b""), (b"\x03\x02", b"")
    ]


def test_knuth_bendix_keeps_monoids_on_even_codes():
    # a monoid starts from its own relations, with no inverse letters
    idem = knuth_bendix(parse_presentation("monoid\ngens: g\nrels: g^2 = g"))
    assert idem.rules == (RewriteRule(b"\x00\x00", b"\x00"),)
    assert list(irreducible_words(idem, 10)) == [b"", b"\x00"]


def test_normal_form_of_group_word_uses_the_presentations_generators():
    p = parse_presentation("group\ngens: a, b\nrels: a b = b a")
    rs = knuth_bendix(p)
    assert rs.status is Completeness.COMPLETE
    assert normal_form(rs, W("b a^-1 b^-1")) == W("a^-1")
    assert normal_form(rs, W("b^-1 a^-1")) == W("a^-1 b^-1")


def test_generator_named_like_an_inverse_is_its_own_letter():
    p = Presentation(Kind.GROUP, ("a", "a_inv"))
    assert encode_word(p, W("a^-1 a_inv")) == b"\x01\x02"
    assert words_equal(p, W("a_inv"), W("a^-1")).value == "distinct"
    assert words_equal(p, W("a a^-1 a_inv"), W("a_inv")).value == "equal"


def test_words_equal_examples():
    idem = parse_presentation("monoid\ngens: g\nrels: g g = g")
    assert words_equal(idem, W("g^3"), W("g")).value == "equal"
    free = parse_presentation("monoid\ngens: x, y\nrels:")
    assert words_equal(free, W("x"), W("y")).value == "distinct"


def test_words_equal_budget_exhaustion_is_unknown():
    # completion cannot finish within one iteration, so nothing is certified
    hostile = parse_presentation("monoid\ngens: a, b\nrels: b a = a b, b b b = a a")
    assert words_equal(hostile, W("a"), W("b"), Budget(2, 4, 1)).value == "unknown"


def test_words_equal_wrong_alphabet():
    p = parse_presentation("monoid\ngens: g\nrels:")
    with pytest.raises(ValidationError):
        words_equal(p, W("h"), W("g"))


def test_words_equal_group_words():
    c5 = parse_presentation("group\ngens: a\nrels: a^5 = 1")
    assert words_equal(c5, W("a^2"), W("a^7")).value == "equal"
    assert words_equal(c5, W("a"), W("a^2")).value == "distinct"
    assert words_equal(c5, W("a^-1"), W("a^4")).value == "equal"


small_words = st.lists(st.sampled_from("gh"), max_size=6).map(
    lambda ls: Word(tuple((s, 1) for s in ls))
)


@given(small_words, small_words)
def test_words_equal_symmetric_and_reflexive(u, v):
    p = parse_presentation("monoid\ngens: g, h\nrels: g h = h g, g g = g")
    assert words_equal(p, u, u, Budget(1, 4, 1)).value == "equal"
    assert words_equal(p, u, v) == words_equal(p, v, u)


def test_random_equal_pairs_share_normal_form():
    p = parse_presentation("monoid\ngens: a, b\nrels: b a = a b")
    rs = knuth_bendix(p)
    assert rs.status is Completeness.COMPLETE
    rng = random.Random(7)
    for _ in range(200):
        letters = [rng.choice("ab") for _ in range(rng.randint(0, 12))]
        u = "".join(letters)
        v = u
        for _ in range(rng.randint(1, 6)):  # random relation applications
            if rng.random() < 0.5:
                v = v.replace("ba", "ab", 1)
            else:
                i = v.find("ab")
                if i >= 0:
                    v = v[:i] + "ba" + v[i + 2:]
        wu = Word(tuple((s, 1) for s in u))
        wv = Word(tuple((s, 1) for s in v))
        assert normal_form(rs, wu) == normal_form(rs, wv)


def test_confluence_audit_on_corpus_systems():
    texts = [
        "monoid\ngens: a, b\nrels: b a = a b",
        "monoid\ngens: p, q\nrels: p q = p, q p = q",
        "monoid\ngens: m\nrels: m^4 = m^2",
    ]
    for text in texts:
        rs = knuth_bendix(parse_presentation(text))
        assert rs.status is Completeness.COMPLETE
        assert confluence_audit(rs)
    c5 = knuth_bendix(parse_presentation("group\ngens: a\nrels: a^5 = 1"))
    assert confluence_audit(c5)


def test_irreducible_words_count_matches_group_order():
    c5 = knuth_bendix(parse_presentation("group\ngens: a\nrels: a^5 = 1"))
    assert c5.status is Completeness.COMPLETE
    assert len(list(irreducible_words(c5, 50))) == 5


def test_partial_system_still_certifies_equality():
    p = parse_presentation("monoid\ngens: a, b\nrels: a b = b, b a = a, a a = a, b b = b")
    rs = knuth_bendix(p, Budget(2, 6, 3))
    if rs.status is Completeness.PARTIAL:
        # equality through an explicit derivation must still be accepted
        assert words_equal(p, W("a b"), W("b"), Budget(2, 6, 3)).value == "equal"


# -- the rule index must rewrite exactly as the plain scan it replaced:
#    leftmost redex, lowest rule id at that position.  Partial systems, and
#    so `equal` versus `unknown`, depend on that order.  The index never
#    looks inside a letter, so these tables spell letters as ASCII bytes,
#    in tries of width `ASCII`.


def reference_reduce(word, rules):
    if not rules:
        return word
    items = sorted(rules.items())
    maxlhs = max(len(r.lhs) for _, r in items)
    w = list(word)
    i = 0
    while i < len(w):
        for _, rule in items:
            L = len(rule.lhs)
            if i + L <= len(w) and bytes(w[i:i + L]) == rule.lhs:
                w[i:i + L] = rule.rhs
                i = max(0, i - maxlhs + 1)
                break
        else:
            i += 1
    return bytes(w)


ASCII = 128

letters3 = st.lists(st.sampled_from(b"abc"), max_size=4).map(bytes)
words3 = st.lists(st.sampled_from(b"abc"), max_size=14).map(bytes)


@st.composite
def rule_tables(draw):
    """Shortlex-decreasing rules with distinct lhs and scattered ids; not interreduced."""
    lhss = draw(st.lists(letters3.filter(bool), max_size=8, unique=True))
    ids = draw(st.lists(st.integers(0, 50), min_size=len(lhss), max_size=len(lhss), unique=True))
    table = {}
    for rid, lhs in zip(ids, lhss):
        rhs = draw(st.lists(st.sampled_from(b"abc"), max_size=len(lhs)).map(bytes))
        if not shortlex(rhs) < shortlex(lhs):
            rhs = rhs[1:]
        table[rid] = RewriteRule(lhs, rhs)
    return table


@given(rule_tables(), words3)
def test_rule_index_matches_reference_scan(table, word):
    assert _RuleIndex(table, ASCII).reduce(word) == reference_reduce(word, table)


@given(rule_tables(), rule_tables(), st.data())
def test_rule_index_tracks_added_and_removed_rules(table, extra, data):
    index = _RuleIndex(table, ASCII)
    gone = data.draw(st.sets(st.sampled_from(sorted(table)))) if table else set()
    for rid in gone:
        index.remove(rid)
        del table[rid]
    for rid, rule in extra.items():
        if all(r.lhs != rule.lhs for r in table.values()):
            table[100 + rid] = rule
            index.add(100 + rid)
    word = data.draw(words3)
    assert index.reduce(word) == reference_reduce(word, table)
    assert index.root == _RuleIndex(table, ASCII).root  # removal prunes dead branches


def R(lhs: str, rhs: str) -> RewriteRule:
    return RewriteRule(lhs.encode(), rhs.encode())


def test_rule_index_prefers_leftmost_start_then_lowest_id():
    # `b` ends first, but `abc` starts further left
    assert _RuleIndex({0: R("b", "a"), 1: R("abc", "")}, ASCII).reduce(b"abc") == b""
    # a prefix and its extension both start at 0: the lower id wins, either way round
    assert _RuleIndex({3: R("ab", "c"), 5: R("abb", "")}, ASCII).reduce(b"abb") == b"cb"
    assert _RuleIndex({3: R("abb", ""), 5: R("ab", "c")}, ASCII).reduce(b"abb") == b""
    for table in (
        {0: R("b", "a"), 1: R("abc", "")},
        {3: R("ab", "c"), 5: R("abb", "")},
        {2: R("cc", "a"), 7: R("acc", "b"), 9: R("c", "")},
    ):
        for word in (b"abc", b"abb", b"aacc", b"cacc", b"ababbcc"):
            assert _RuleIndex(table, ASCII).reduce(word) == reference_reduce(word, table)
    # the same over the top code of a full byte alphabet, whose child slot
    # sits next to the end slot: tables met mid-interreduction, where a new
    # lhs lies inside older ones not yet dropped
    a, b, top = 0, 1, 255
    table = {2: RewriteRule(bytes((a, b)), bytes((top,))), 5: RewriteRule(bytes((a, b, b)), b""),
             7: RewriteRule(bytes((b,)), bytes((a,)))}
    assert _RuleIndex(table, BYTES).reduce(bytes((a, b, b))) == bytes((top, a))
    held = {4: RewriteRule(bytes((top, b, top)), bytes((b,))), 9: RewriteRule(bytes((b,)), b"")}
    assert _RuleIndex(held, BYTES).reduce(bytes((a, top, b, top, b))) == bytes((a,))
    for t in (table, held, {**table, 4: held[4]}):
        for word in itertools.product((a, b, top), repeat=5):
            word = bytes(word)
            assert _RuleIndex(t, BYTES).reduce(word) == reference_reduce(word, t)


# -- a trie node is a list indexed by letter code, as wide as the alphabet:
#    the top code takes the last child slot, next to the end slot.


def coded_table(rng, width):
    """A rule table of distinct lhs over a few codes below `width`, its top
    code among them, with scattered ids; not interreduced."""
    codes = sorted({width - 1, *rng.sample(range(width), min(width, 2))})
    table, seen = {}, set()
    for rid in rng.sample(range(60), rng.randint(1, 9)):
        lhs = bytes(rng.choice(codes) for _ in range(rng.randint(1, 4)))
        if lhs in seen:
            continue
        seen.add(lhs)
        rhs = bytes(rng.choice(codes) for _ in range(rng.randint(0, len(lhs))))
        table[rid] = RewriteRule(lhs, rhs if shortlex(rhs) < shortlex(lhs) else rhs[1:])
    return table, codes


@pytest.mark.parametrize("width", [2, 3, 4, 10, 100, 255, 256])
def test_list_nodes_reduce_as_the_reference_over_any_alphabet(width):
    rng = random.Random(width)
    top_in_lhs = 0
    for _ in range(150):
        table, codes = coded_table(rng, width)
        top_in_lhs += any(width - 1 in r.lhs for r in table.values())
        index = _RuleIndex(table, width)
        reducer = rewriting._Reducer(tuple(table[rid] for rid in sorted(table)), width)
        ranked = dict(enumerate(table[rid] for rid in sorted(table)))
        for _ in range(5):
            word = bytes([width - 1, *(rng.choice(codes) for _ in range(rng.randint(0, 12)))])
            word = word[1:] + word[:1] if rng.random() < 0.5 else word
            assert index.reduce(word) == reference_reduce(word, table)
            assert reducer.reduce(word) == reference_reduce(word, ranked)
    assert top_in_lhs > 100


def test_removing_every_rule_prunes_to_a_fresh_root():
    rng = random.Random(5)
    for width in (2, 7, 256):
        for _ in range(40):
            table, _ = coded_table(rng, width)
            index = _RuleIndex(dict(table), width)
            suffixes = rewriting._Trie(index.rules, width, key=lambda lhs: lhs[::-1])
            order = list(table)
            rng.shuffle(order)
            for k, rid in enumerate(order):
                index.remove(rid)
                suffixes.remove(rid)
                del index.rules[rid]
                rest = {oid: table[oid] for oid in sorted(table) if oid in index.rules}
                assert index.root == _RuleIndex(rest, width).root
                assert suffixes.root == rewriting._Trie(rest, width, key=lambda lhs: lhs[::-1]).root
            assert index.root == suffixes.root == [None] * (width + 2)


def test_a_group_on_128_generators_completes_over_the_top_codes():
    gens = tuple(f"g{i}" for i in range(128))
    rels = (Relation(W("g127^3"), Word()), Relation(W("g0 g127"), W("g127 g0")))
    p = Presentation(Kind.GROUP, gens, rels)
    rs = knuth_bendix(p, Budget(300, 8, 3000))
    # 256 cancellation rules, 2 for the cube and 4 that move g127 past g0
    assert rs.status is Completeness.COMPLETE and len(rs.rules) == 262
    assert normal_form(rs, W("g127^-4 g0 g127^-1 g0^-1")) == W("g127")
    assert words_equal(p, W("g127^5"), W("g127^-1"), Budget(300, 8, 3000)).value == "equal"
    assert words_equal(p, W("g126 g127"), W("g127 g126"), Budget(300, 8, 3000)).value == "distinct"


def test_kept_tries_are_kept_per_width(monkeypatch):
    # every empty rule table is one object: a free monoid's trie must not
    # serve a wider one
    monkeypatch.setattr(rewriting, "_reducers", OrderedDict())
    narrow = parse_presentation("monoid\ngens: x\nrels:")
    wide = parse_presentation("monoid\ngens: x, y, z\nrels:")
    assert normal_forms(narrow, [W("x^2")])[1] == [b"\x00\x00"]
    assert normal_forms(wide, [W("z y")])[1] == [b"\x04\x02"]
    assert len(rewriting._reducers) == 2


def test_budgeted_one_relator_partial_system_is_pinned():
    # time-to-unknown path: the partial system must not drift with the strategy
    p = parse_presentation("group\ngens: a, b\nrels: a^-1 b^-2 a^-2 = 1")
    rs = knuth_bendix(p, Budget(400, 40, 4000))
    assert rs.status is Completeness.PARTIAL
    assert len(rs.rules) == 329
    # the digest was taken over rules spelled with these letter names
    names = ("a", "a_inv", "b", "b_inv")

    def spell(codes):
        return " ".join(names[c] for c in codes) or "1"

    text = "\n".join(f"{spell(r.lhs)} -> {spell(r.rhs)}" for r in rs.rules)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9e3ecd556902dee5c96f1a18d09fd19b4c2506626f2f60832b896b2a4961e430"
    )


def test_budgeted_baumslag_solitar_partial_system_is_pinned():
    # the exhaust workload's BS(2,3) base at its budget: completion stops at
    # max_iterations, so the dead pairs it popped, which count toward that
    # bound, are pinned along with the rules
    p = parse_presentation("group\ngens: b, a\nrels: a^-1 b^2 a = b^3")
    rs = knuth_bendix(p, Budget(100, 20, 1000))
    assert rs.status is Completeness.PARTIAL
    assert len(rs.rules) == 100
    names = ("b", "b_inv", "a", "a_inv")

    def spell(codes):
        return " ".join(names[c] for c in codes) or "1"

    text = "\n".join(f"{spell(r.lhs)} -> {spell(r.rhs)}" for r in rs.rules)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8f07a5c26f8eea44d1eda7db99f8324bf58eedbfe4f6d6f23609ab9f77f51dc6"
    )


@pytest.mark.parametrize(
    "text, count, digest",
    [
        (
            "group\ngens: y, x\nrels: x^-1 y^2 x = y",
            100,
            "44975928cd6b1a911f3f3babd13250b53b30c4eb36fd67df5b238276c5220b93",
        ),
        (
            "group\ngens: y, x\nrels: x^-1 y^3 x = y",
            100,
            "370e31b89903e95e3673921715f366053820682f25b5306d0eaf7662f50ab0be",
        ),
        (
            "monoid\ngens: a, b\nrels: a b a = b a b",
            17,
            "77d345ee4114ad14d1c73134e963714465656e53550369c7bf19c42269edb24b",
        ),
    ],
)
def test_exhaust_partial_systems_are_pinned(text, count, digest):
    # more of the exhaust workload's bases at its budget: two BS bases end
    # at the rule cap, the braid monoid at max_iterations
    p = parse_presentation(text)
    rs = knuth_bendix(p, Budget(100, 20, 1000))
    assert rs.status is Completeness.PARTIAL
    assert len(rs.rules) == count
    names = (p.generators[0], p.generators[0] + "_inv", p.generators[1], p.generators[1] + "_inv")

    def spell(codes):
        return " ".join(names[c] for c in codes) or "1"

    text = "\n".join(f"{spell(r.lhs)} -> {spell(r.rhs)}" for r in rs.rules)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_default_budget_baumslag_solitar_partial_system_is_pinned():
    # time to unknown at the default budget: the run of the CI step that
    # bounds its memory, which ends at a full table of 2000 rules
    p = parse_presentation("group\ngens: x, y\nrels: x^-1 y^2 x = y^3")
    rs = knuth_bendix(p)
    assert rs.status is Completeness.PARTIAL
    assert len(rs.rules) == 2000
    names = ("x", "x_inv", "y", "y_inv")

    def spell(codes):
        return " ".join(names[c] for c in codes) or "1"

    text = "\n".join(f"{spell(r.lhs)} -> {spell(r.rhs)}" for r in rs.rules)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e9d45cb90fcb73e9b008a7a685e2a790227f0977b177a6533ead01205bea2a5d"
    )


# -- critical pairs come from the tries, in the order of a heap of every
#    overlap pushed as its rule entered the table: combined lhs length, then
#    rule id, then other rule id, then direction, then overlap width.


def reference_overlaps(a, b):
    """Proper overlap widths: a nonempty suffix of `a` equals a prefix of `b`."""
    for k in range(1, min(len(a), len(b))):
        if a[-k:] == b[:k]:
            yield k


@st.composite
def queued_tables(draw):
    """A rule table, the ids to drop after each rule enters, and how many pairs to pop then."""
    table = draw(rule_tables())
    ids = sorted(table)
    drops = {rid: draw(st.sets(st.sampled_from(ids[: i + 1]))) for i, rid in enumerate(ids)}
    pops = {rid: draw(st.integers(0, 4)) for rid in ids}
    return table, drops, pops


@given(queued_tables())
@example(({0: R("aba", "b"), 1: R("aa", "a"), 2: R("ba", ""), 3: R("cab", "c")}, {}, {}))
def test_trie_overlaps_match_reference_scan(case):
    table, drops, pops = case
    comp = _Completion(Budget(), ASCII)
    reference = []  # (key, rid, other id, direction, width, pair)
    for rid in sorted(table):
        rule = comp.rules[rid] = table[rid]
        comp.index.add(rid)
        comp.suffixes.add(rid)
        comp._queue_pairs(rid)
        for oid, other in comp.rules.items():
            key = len(rule.lhs) + len(other.lhs)
            for k in reference_overlaps(rule.lhs, other.lhs):
                heapq.heappush(reference, (key, rid, oid, 0, k, (rid, oid, k)))
            if oid != rid:
                for k in reference_overlaps(other.lhs, rule.lhs):
                    heapq.heappush(reference, (key, rid, oid, 1, k, (oid, rid, k)))
        # as interreduction would, drop rules, perhaps the new one, whose
        # pairs are queued and must still come out
        for oid in sorted(drops.get(rid, set()) & set(comp.rules)):
            comp._drop(oid, rid)
        for _ in range(min(pops.get(rid, 0), len(reference))):
            assert comp._next_pair() == heapq.heappop(reference)[-1]
    popped = [comp._next_pair() for _ in range(len(reference))]
    assert popped == [heapq.heappop(reference)[-1] for _ in range(len(popped))]
    assert not comp.pairs


def test_confluence_audit_raises_on_divergence_and_containment():
    ab = parse_presentation("monoid\ngens: a, b\nrels:")
    diverging = RewritingSystem((R("ab", "a"), R("ba", "b")), ab, Completeness.COMPLETE)
    with pytest.raises(AssertionError, match="diverges"):
        confluence_audit(diverging)
    reducible = RewritingSystem((R("aa", ""), R("baa", "b")), ab, Completeness.COMPLETE)
    with pytest.raises(AssertionError, match="reducible"):
        confluence_audit(reducible)


def test_completion_refuses_a_rule_that_does_not_decrease(monkeypatch):
    monkeypatch.setattr(rewriting, "shortlex", lambda w: 0)  # a broken order
    comp = _Completion(Budget(), 4)
    with pytest.raises(RuntimeError, match="strictly decreasing"):
        comp.add_rule(b"\x00", b"\x02")
    assert not comp.rules and not comp.pairs  # refused before it entered the table


# -- the queue of eagerly listed pairs that the groups replaced: every
#    critical pair of a new rule heap-pushed at once, keyed (combined lhs
#    length, push sequence).  It is the reference for the groups.


def longer(trie, prefix):
    """Ids of the rules whose key starts with, and is longer than, `prefix`."""
    node = trie.find(prefix)
    if node is None:
        return []
    lengths = node[trie.width + 1]
    return [oid for length, ids in lengths.items() if length > len(prefix) for oid in ids]


class EagerCompletion(_Completion):
    def __init__(self, budget, width):
        super().__init__(budget, width)
        self.queued = []  # (key, seq, id1, id2, width)
        self.seq = itertools.count()

    def _queue_pairs(self, rid):
        lhs = self.rules[rid].lhs
        n = len(lhs)
        found = []
        for k in range(1, n):
            found += [(oid, 0, k) for oid in longer(self.index, lhs[n - k:])]
            found += [(oid, 1, k) for oid in longer(self.suffixes, lhs[k - 1::-1]) if oid != rid]
        found.sort()  # by other id, then direction, then width
        for oid, direction, k in found:
            a, b = (oid, rid) if direction else (rid, oid)
            key = len(self.rules[a].lhs) + len(self.rules[b].lhs)
            heapq.heappush(self.queued, (key, next(self.seq), a, b, k))

    def run(self, stop_when_full=True) -> Completeness:
        steps = 0
        while self.eqs or self.queued:
            steps += 1
            if steps > self.budget.max_iterations:
                self.overflow = True
                break
            if self.eqs:
                u, v = self.eqs.popleft()
                self.add_rule(u, v)
                if stop_when_full and self.overflow and len(self.rules) >= self.budget.max_rules:
                    break
                continue
            _, _, id1, id2, k = heapq.heappop(self.queued)
            if id1 not in self.rules or id2 not in self.rules:
                continue
            r1, r2 = self.rules[id1], self.rules[id2]
            left = self.index.reduce(r1.rhs + r2.lhs[k:])
            right = self.index.reduce(r1.lhs[:-k] + r2.rhs)
            if left != right:
                self.eqs.append((left, right))
        if self.eqs or self.queued:
            return Completeness.PARTIAL
        return Completeness.PARTIAL if self.overflow else Completeness.COMPLETE


def eager_knuth_bendix(monkeypatch, p, budget):
    with monkeypatch.context() as m:
        m.setattr(rewriting, "_Completion", EagerCompletion)
        return knuth_bendix(p, budget)


@pytest.mark.parametrize(
    "seed, count, budget",
    [(31, 200, Budget(40, 12, 300)), (37, 100, Budget(100, 20, 1000)), (41, 5, Budget())],
)
def test_pair_groups_complete_as_the_eager_queue(monkeypatch, seed, count, budget):
    statuses = []
    for p, _ in random_presentations(seed, count, lambda rng: None):
        got = knuth_bendix(p, budget)
        reference = eager_knuth_bendix(monkeypatch, p, budget)
        assert (got.rules, got.status) == (reference.rules, reference.status), p
        statuses.append(got.status)
    assert len(set(statuses)) == 2


def test_pair_groups_bound_the_queue(monkeypatch):
    # BS(2,3) ends Partial at a full table; the eager queue then held tens of
    # thousands of pairs, the groups at most one per rule and lhs length
    p = parse_presentation("group\ngens: b, a\nrels: a^-1 b^2 a = b^3")
    budget = Budget(max_rules=300)
    eager_sizes = []
    eager_queue_pairs = EagerCompletion._queue_pairs

    def eager_counted(self, rid):
        eager_queue_pairs(self, rid)
        eager_sizes.append(len(self.queued))

    monkeypatch.setattr(EagerCompletion, "_queue_pairs", eager_counted)
    reference = eager_knuth_bendix(monkeypatch, p, budget)
    sizes, lengths = [], set()
    queue_pairs = _Completion._queue_pairs

    def counted(self, rid):
        queue_pairs(self, rid)
        lengths.add(len(self.rules[rid].lhs))
        assert len(self.pairs) <= self.next_id * len(lengths)
        sizes.append(len(self.pairs))

    monkeypatch.setattr(_Completion, "_queue_pairs", counted)
    rs = knuth_bendix(p, budget)
    assert rs.status is reference.status is Completeness.PARTIAL
    assert rs.rules == reference.rules and len(rs.rules) == 300
    assert len(sizes) > 300 and 10 * max(sizes) < max(eager_sizes)


# -- completion stops once its table is full and an equation is refused:
#    from then on no rule can be added, so interreduction removes none.


def unstopped_run(self) -> Completeness:
    """`_Completion.run` without the stop at a full table: the reference."""
    steps = 0
    while self.eqs or self.pairs:
        steps += 1
        if steps > self.budget.max_iterations:
            self.overflow = True
            break
        if self.eqs:
            u, v = self.eqs.popleft()
            self.add_rule(u, v)
            continue
        id1, id2, k = self._next_pair()
        if id1 not in self.rules or id2 not in self.rules:
            continue
        r1, r2 = self.rules[id1], self.rules[id2]
        left = self.index.reduce(r1.rhs + r2.lhs[k:])
        right = self.index.reduce(r1.lhs[:-k] + r2.rhs)
        if left != right:
            self.eqs.append((left, right))
    if self.eqs or self.pairs:
        return Completeness.PARTIAL
    return Completeness.PARTIAL if self.overflow else Completeness.COMPLETE


STOPPED_RUN, ADD_RULE = _Completion.run, _Completion.add_rule


def completed_both_ways(monkeypatch, p, budget):
    """(system, add_rule calls) under the current loop, then the reference one."""
    results = []
    for run in (STOPPED_RUN, unstopped_run):
        calls = []
        monkeypatch.setattr(_Completion, "run", run)
        monkeypatch.setattr(
            _Completion, "add_rule", lambda c, u, v: calls.append(u) or ADD_RULE(c, u, v)
        )
        results.append((knuth_bendix(p, budget), len(calls)))
    return results


def test_completion_stops_when_its_full_table_refuses_a_rule(monkeypatch):
    # the Complete system has 6 rules and the table never needs a seventh
    p = parse_presentation("monoid\ngens: a, b\nrels: a^3 = 1, b^2 = 1, b a = a a b")
    assert len(knuth_bendix(p).rules) == 6
    # filled to exactly max_rules and drained without a refusal: still Complete
    (full, _), (reference, _) = completed_both_ways(monkeypatch, p, Budget(6, 64, 20000))
    assert full.status is reference.status is Completeness.COMPLETE
    assert full.rules == reference.rules == knuth_bendix(p).rules
    # one rule short: Partial with the reference's rules, after fewer equations
    (short, calls), (reference, unstopped) = completed_both_ways(
        monkeypatch, p, Budget(5, 64, 20000)
    )
    assert short.status is reference.status is Completeness.PARTIAL
    assert short.rules == reference.rules and len(short.rules) == 5
    assert calls < unstopped


def random_presentations(seed: int, count: int, budget):
    """Seeded groups and monoids on 1-3 generators, each with `budget(rng)`."""
    rng = random.Random(seed)
    for _ in range(count):
        gens = ("a", "b", "c")[: rng.randint(1, 3)]
        kind = rng.choice((Kind.GROUP, Kind.MONOID))
        exps = (-2, -1, 1, 2) if kind is Kind.GROUP else (1, 2)

        def word():
            length = rng.randint(0, 4)
            return Word(tuple((rng.choice(gens), rng.choice(exps)) for _ in range(length)))

        rels = tuple(Relation(word(), word()) for _ in range(rng.randint(1, 3)))
        yield Presentation(kind, gens, rels), budget(rng)


def tight_budget(rng) -> Budget:
    return Budget(rng.randint(1, 12), rng.randint(2, 12), rng.randint(5, 300))


def test_stopped_completion_matches_the_unstopped_loop(monkeypatch):
    stopped = 0
    for p, budget in random_presentations(5, 60, tight_budget):
        (new, calls), (old, unstopped) = completed_both_ways(monkeypatch, p, budget)
        assert (new.rules, new.status) == (old.rules, old.status)
        stopped += calls < unstopped
    assert stopped > 10


# -- the completion cache is keyed on letter codes: a repeated or renamed
#    presentation is completed once, over the caller's generators.


@pytest.fixture
def completions(monkeypatch):
    """Clear the completion cache and count the completions `normal_forms` runs."""
    monkeypatch.setattr(rewriting, "_systems", OrderedDict())
    calls = []
    complete = rewriting.knuth_bendix
    monkeypatch.setattr(
        rewriting, "knuth_bendix", lambda *args: calls.append(args) or complete(*args)
    )
    return calls


COMMUTING = "group\ngens: a, b\nrels: a b = b a"


def test_equal_and_renamed_presentations_complete_once(completions):
    p = parse_presentation(COMMUTING)
    again = parse_presentation(COMMUTING)
    renamed = rename_generators(p, {"a": "u", "b": "v"})
    systems = [normal_forms(q, ())[0] for q in (p, again, renamed)]
    assert len(completions) == 1
    assert [rs.presentation for rs in systems] == [p, again, renamed]
    fresh = knuth_bendix(p)
    assert fresh.complete
    assert all((rs.rules, rs.status) == (fresh.rules, fresh.status) for rs in systems)


def test_budget_is_part_of_the_completion_key(completions):
    hostile = parse_presentation("monoid\ngens: a, b\nrels: b a = a b, b b b = a a")
    starved = Budget(2, 4, 1)
    assert words_equal(hostile, W("a"), W("b"), starved).value == "unknown"
    assert words_equal(hostile, W("a"), W("b")).value == "distinct"
    assert words_equal(hostile, W("a"), W("b"), starved).value == "unknown"
    assert len(completions) == 2


def test_kind_and_generator_count_are_part_of_the_completion_key(completions):
    group = parse_presentation(COMMUTING)
    monoid = Presentation(Kind.MONOID, group.generators, group.relations)
    wider = Presentation(Kind.GROUP, (*group.generators, "c"), group.relations)
    systems = [normal_forms(q, ())[0] for q in (group, monoid, wider, group, monoid, wider)]
    assert len(completions) == 3
    assert systems[:3] == systems[3:]
    assert len({rs.rules for rs in systems}) == 3


def test_presentations_too_wide_for_letter_codes_are_not_completed(completions):
    gens = tuple(f"g{i}" for i in range(129))
    for rels in ((), (Relation(W("g0"), Word()),)):
        with pytest.raises(ValidationError, match="129 generators"):
            normal_forms(Presentation(Kind.GROUP, gens, rels), ())
    # a monoid with zero z: on the zero path, with and without other
    # relations, and off it
    z = W("g128")
    absorption = [Relation(W(g) * z, z) for g in gens] + [Relation(z * W(g), z) for g in gens[:-1]]
    for extra in ([], [Relation(W("g0"), Word())], [Relation(W("g0 g1"), z)]):
        with pytest.raises(ValidationError, match="129 generators"):
            normal_forms(Presentation(Kind.MONOID, gens, tuple(absorption + extra), "g128"), ())
    assert not rewriting._systems


def test_cached_systems_equal_fresh_ones(completions):
    cases = list(random_presentations(11, 150, lambda rng: Budget(rng.randint(3, 30), 12, 300)))
    # repeats, renamings and more distinct keys than the cache holds
    cases += [(rename_generators(p, {"a": "x"}), budget) for p, budget in cases[:100:3]]
    cases += cases[::2]
    cached = [normal_forms(p, (), budget)[0] for p, budget in cases]
    assert len(rewriting._systems) == 128
    # the cache holds rules and status, never a presentation or a trie
    assert all(
        type(rules) is tuple and all(type(r) is RewriteRule for r in rules)
        and type(status) is Completeness
        for rules, status in rewriting._systems.values()
    )
    assert len(completions) < len(cases)
    assert cached == [knuth_bendix(p, budget) for p, budget in cases]
    assert {rs.status for rs in cached} == set(Completeness)


def test_completion_keys_are_equal_exactly_when_the_letter_codes_are():
    def codes(p):
        rels = tuple((encode_word(p, r.lhs), encode_word(p, r.rhs)) for r in p.relations)
        return p.kind, len(p.generators), rels

    cases = [p for p, _ in random_presentations(3, 120, lambda rng: None)]
    cases += [rename_generators(p, {"a": "x", "b": "a"}) for p in cases if "b" in p.generators]
    pairs = [(p.key == q.key, codes(p) == codes(q)) for p in cases for q in cases]
    assert all(same_key == same_codes for same_key, same_codes in pairs)
    assert sum(same for same, _ in pairs) > len(cases) + 50  # some distinct cases collide
    # the same runs, split between the sides at another place
    split = [parse_presentation(f"group\ngens: a, b\nrels: {rel}") for rel in ("a = b a", "a b = a")]
    assert split[0].key != split[1].key


def test_normal_form_over_a_renamed_cache_hit_uses_the_callers_generators(completions):
    normal_forms(parse_presentation(COMMUTING), ())
    renamed = rename_generators(parse_presentation(COMMUTING), {"a": "x", "b": "y"})
    rs, (code,) = normal_forms(renamed, (W("y x^-1 y^-1"),))
    assert len(completions) == 1
    assert rs.presentation is renamed
    assert normal_form(rs, W("y x^-1 y^-1")) == W("x^-1")
    assert code == encode_word(renamed, W("x^-1"))


# -- the reduction tries of the 16 most recently used rule tables are kept:
#    a kept trie reduces exactly as a fresh one over the same table.


@pytest.fixture
def reducers(monkeypatch):
    """Clear the kept tries and record the rule tables `normal_forms` builds one for."""
    monkeypatch.setattr(rewriting, "_reducers", OrderedDict())
    built = []
    make = rewriting._Reducer
    monkeypatch.setattr(
        rewriting, "_Reducer", lambda rules, width: built.append(rules) or make(rules, width)
    )
    return built


def test_kept_tries_reduce_as_fresh_ones(completions, reducers):
    budget = Budget(100, 20, 1000)
    rng = random.Random(31)
    cases = [p for p, _ in random_presentations(37, 60, lambda rng: budget)]

    def check(p):
        exps = (-1, 1) if p.kind is Kind.GROUP else (1,)
        letters = [(g, e) for g in p.generators for e in exps]
        words = [Word(tuple(rng.choices(letters, k=rng.randint(0, 12)))) for _ in range(5)]
        rs, codes = normal_forms(p, words, budget)
        fresh = _RuleIndex(dict(enumerate(rs.rules)), 2 * len(p.generators))
        assert codes == [fresh.reduce(encode_word(p, w)) for w in words]
        assert len(rewriting._reducers) <= 16
        return rs

    systems = [check(p) for p in cases for _ in range(2)]  # first use, then reuse
    assert len(reducers) == len({p.key for p in cases}) > 16
    assert {rs.status for rs in systems} == set(Completeness)
    assert sum(not rs.complete for rs in systems[::2]) >= 10
    # the first cases' tries were evicted; their tables are still cached
    for p in cases[:5]:
        check(p)
    assert len(reducers) == len({p.key for p in cases}) + len({p.key for p in cases[:5]})
    assert len(completions) == len({p.key for p in cases})
    # a renamed presentation reduces through the same kept trie
    kept = len(reducers)
    check(rename_generators(cases[-1], {"a": "x"}))
    assert len(reducers) == kept
    assert len(rewriting._reducers) == 16


# -- a completion memoizes normal forms per rule table; the memo changes
#    no rule, status or normal form.


def test_memoized_completion_matches_the_memo_free_one(monkeypatch):
    cases = list(random_presentations(17, 150, tight_budget))
    cases += random_presentations(19, 60, lambda rng: Budget(200, 20, 2000))
    hits = []
    memoized = _Completion._reduce

    def counted(self, w):
        hits.append(w in self.reduced)
        return memoized(self, w)

    def ascending(self, u, v):
        ADD_RULE(self, u, v)
        assert list(self.rules) == sorted(self.rules)  # interreduction walks them in order

    monkeypatch.setattr(_Completion, "_reduce", counted)
    monkeypatch.setattr(_Completion, "add_rule", ascending)
    got = [knuth_bendix(p, budget) for p, budget in cases]
    monkeypatch.setattr(_Completion, "_reduce", lambda self, w: self.index.reduce(w))
    reference = [knuth_bendix(p, budget) for p, budget in cases]
    assert [(rs.rules, rs.status) for rs in got] == [(rs.rules, rs.status) for rs in reference]
    assert {rs.status for rs in got} == set(Completeness)
    assert sum(hits) > len(hits) // 10


def test_reducing_a_normal_form_again_changes_nothing():
    rng = random.Random(23)
    partial = 0
    for p, budget in random_presentations(29, 120, tight_budget):
        rs = knuth_bendix(p, budget)
        if rs.complete:
            continue
        partial += 1
        index = _RuleIndex(dict(enumerate(rs.rules)), 2 * len(p.generators))
        letters = range(0, 2 * len(p.generators), 1 if p.kind is Kind.GROUP else 2)
        for _ in range(20):
            nf = index.reduce(bytes(rng.choice(letters) for _ in range(rng.randint(0, 10))))
            assert index.reduce(nf) == nf
    assert partial > 20


# -- interreduction finds the rules holding a new lhs by one search of the
#    table's text; testing every rule for it, as it used to, is the reference.


class PerRuleCompletion(_Completion):
    counts = None  # a Counter of the drops and rhs rewrites, set by the test

    def add_rule(self, u, v):
        u = self._reduce(u)
        v = self._reduce(v)
        if u == v:
            return
        lhs, rhs = (u, v) if shortlex(v) < shortlex(u) else (v, u)
        if len(lhs) > self.budget.max_rule_length or len(self.rules) >= self.budget.max_rules:
            self.overflow = True
            return
        rid = self.next_id
        self.next_id += 1
        self.reduced.clear()
        self.rules[rid] = RewriteRule(lhs, rhs)
        self.index.add(rid)
        self.suffixes.add(rid)
        self._queue_pairs(rid)
        for oid, other in list(self.rules.items())[:-1]:
            if lhs in other.lhs:
                self._drop(oid, rid)
                self.eqs.append((other.lhs, other.rhs))
                self.counts["drops"] += 1
            elif lhs in other.rhs:
                self.rules[oid] = RewriteRule(other.lhs, self.index.reduce(other.rhs))
                self.counts["rewrites"] += 1


def test_text_search_interreduces_as_the_per_rule_scan(monkeypatch):
    cases = list(random_presentations(43, 150, tight_budget))
    cases += random_presentations(47, 40, lambda rng: Budget(200, 20, 2000))
    cases.append((parse_presentation("group\ngens: b, a\nrels: a^-1 b^2 a = b^3"), Budget(300)))
    rebuilds = []
    write = _Completion._write

    def checked(c, u, v):
        ADD_RULE(c, u, v)
        # each rule's latest region holds its current lhs + rhs
        ends = c.starts[1:] + [len(c.text)]
        latest = {rid: c.text[i:j] for i, j, rid in zip(c.starts, ends, c.owners)}
        assert all(latest[rid] == r.lhs + r.rhs for rid, r in c.rules.items())

    monkeypatch.setattr(
        _Completion, "_write", lambda c, rids: rebuilds.append(rids is c.rules) or write(c, rids)
    )
    monkeypatch.setattr(_Completion, "add_rule", checked)
    got = [knuth_bendix(p, budget) for p, budget in cases]
    monkeypatch.setattr(PerRuleCompletion, "counts", Counter())
    monkeypatch.setattr(rewriting, "_Completion", PerRuleCompletion)
    reference = [knuth_bendix(p, budget) for p, budget in cases]
    assert [(rs.rules, rs.status) for rs in got] == [(rs.rules, rs.status) for rs in reference]
    assert {rs.status for rs in got} == set(Completeness)
    counts = PerRuleCompletion.counts
    assert counts["drops"] > 100 and counts["rewrites"] > 20, counts
    assert sum(rebuilds) > 10  # dead regions came to outnumber live rules


# -- a monoid whose zero z occurs only in its absorption relations completes
#    as its zero-free part N plus `x z -> z`, `z x -> z` for each letter x
#    irreducible in N and `z z -> z`: the reduced complete system is unique
#    for its order, so wherever the whole completion is Complete the two agree.


def random_zero_monoids(seed: int, count: int, extra=None):
    """Seeded monoids N on 1-3 letters with a zero z adjoined at any position.

    Some letters of N are reducible (``b = 1``, ``b = a``), and the
    absorption relations come either way round and in any order.  `extra`,
    given the random source, adds relations of its own.  Each comes with a
    budget from `Budget(2, 4, 1)` to `Budget(200, 20, 2000)`.
    """
    rng = random.Random(seed)
    budgets = (Budget(2, 4, 1), Budget(3, 5, 4), Budget(8, 8, 30), Budget(60, 12, 600))
    for _ in range(count):
        letters = ("a", "b", "c")[: rng.randint(1, 3)]

        def word(lo, hi):
            return Word(tuple((rng.choice(letters), 1) for _ in range(rng.randint(lo, hi))))

        rels = [Relation(word(0, 4), word(0, 4)) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.4:
            rels.append(Relation(W(rng.choice(letters)), word(0, 1)))
        if extra is not None:
            rels += extra(rng, letters)
        gens = list(letters)
        gens.insert(rng.randint(0, len(letters)), "z")
        z = W("z")
        for g in gens:
            for w in {W(g) * z, z * W(g)}:  # one relation, z^2 = z, when g is z
                rels.append(Relation(z, w) if rng.random() < 0.5 else Relation(w, z))
        rng.shuffle(rels)
        budget = rng.choice(budgets + (tight_budget(rng), Budget(200, 20, 2000)))
        yield Presentation(Kind.MONOID, tuple(gens), tuple(rels), "z"), budget


def by_shortlex(rules) -> tuple[RewriteRule, ...]:
    return tuple(sorted(rules, key=lambda r: (shortlex(r.lhs), shortlex(r.rhs))))


def general_completion(p, budget):
    """(rules, status) of completing every relation of `p`, the zero's too."""
    encoded = [(encode_word(p, r.lhs), encode_word(p, r.rhs)) for r in p.relations]
    rules, status = rewriting._complete(encoded, budget, 2 * len(p.generators))
    return by_shortlex(rules), status


def zero_free_completion(p, budget):
    """The system the zero path should give, from N completed on its own."""
    z = encode_word(p, W(p.zero))
    n = Presentation(Kind.MONOID, p.generators, [r for r in p.relations if p.zero not in r.symbols()])
    part = knuth_bendix(n, budget)
    letters = [bytes((x,)) for x in range(0, 2 * len(p.generators), 2) if bytes((x,)) != z]
    irreducible = [x for x in letters if all(r.lhs != x for r in part.rules)]
    absorbing = [RewriteRule(z + z, z)]
    absorbing += [RewriteRule(x + z, z) for x in irreducible] + [RewriteRule(z + x, z) for x in irreducible]
    rules = by_shortlex(part.rules + tuple(absorbing))
    within = len(rules) <= budget.max_rules and budget.max_rule_length >= 2
    return rules, Completeness.COMPLETE if part.complete and within else Completeness.PARTIAL


def test_zero_monoids_complete_as_their_zero_free_part():
    seen = set()
    for p, budget in random_zero_monoids(37, 300):
        rs = knuth_bendix(p, budget)
        assert (rs.rules, rs.status) == zero_free_completion(p, budget), (p, budget)
        rules, status = general_completion(p, budget)
        if status is Completeness.COMPLETE:
            assert (rs.rules, rs.status) == (rules, status), (p, budget)
            seen.add("both complete")
            if any(len(r.lhs) == 1 for r in rules):
                seen.add("a reducible letter")
            if p.generators[-1] != "z":
                seen.add("zero not last")
        elif rs.complete:
            seen.add("only the zero path complete")
        else:
            seen.add("both partial")
        if rs.complete:
            assert confluence_audit(rs, max_rules=500)
            seen.add("audited")
    assert len(seen) == 6


def zero_elsewhere(rng, letters):
    """One relation that puts the zero outside the absorption relations."""
    a, b = rng.choice(letters), rng.choice(letters)
    return [rng.choice((
        Relation(W(f"{a} {b}"), W("z")),
        Relation(W(f"z {a}"), W(f"{a} z")),
        Relation(W(f"{a} z"), W(f"{b} z")),
        Relation(W("z"), W("z")),
        Relation(W("z^3"), W("z")),
        Relation(W(f"z {a} {b}"), W("z")),
        Relation(W(f"{a} z^2"), W("z")),
    ))]


def test_a_zero_in_another_relation_takes_the_general_path():
    statuses = set()
    for p, budget in random_zero_monoids(41, 200, zero_elsewhere):
        rs = knuth_bendix(p, budget)
        assert (rs.rules, rs.status) == general_completion(p, budget), (p, budget)
        statuses.add(rs.status)
    assert statuses == set(Completeness)
