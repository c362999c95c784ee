import random
from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from fpkit.constructions import GroupTestInstance, triviality_test_group
from fpkit.coset import is_trivial, todd_coxeter
from fpkit.presentations import (
    Kind,
    ParseError,
    Presentation,
    Relation,
    ValidationError,
    Word,
    _merge,
    decode_word,
    eliminate,
    encode_word,
    extend,
    lru,
    parse_presentation,
    parse_word,
    rename_generators,
    serialize_presentation,
    serialize_word,
    substitute,
    tietze_simplify,
)
from fpkit.rewriting import knuth_bendix

W = parse_word


def test_parse_group_example():
    p = parse_presentation("group\ngens: a\nrels: a^5 = 1")
    assert p.kind is Kind.GROUP
    assert p.generators == ("a",)
    assert p.relations == (Relation(W("a^5"), Word()),)


def test_parse_monoid_example():
    p = parse_presentation("monoid\ngens: g\nrels: g g = g")
    assert p.kind is Kind.MONOID
    assert p.relations == (Relation(W("g^2"), W("g")),)


def test_parse_undeclared_generator():
    with pytest.raises(ParseError, match="undeclared generator b"):
        parse_presentation("group\ngens: a\nrels: b = 1")


def test_parse_negative_exponent_in_monoid():
    with pytest.raises(ParseError, match="negative exponent"):
        parse_presentation("monoid\ngens: g\nrels: g^-1 = g")


def test_parse_duplicate_generator():
    with pytest.raises(ParseError, match="duplicate generator"):
        parse_presentation("group\ngens: a, a\nrels:")


def test_parse_reports_line_and_column():
    try:
        parse_presentation("group\ngens: a\nrels: a = ^3")
    except ParseError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected a parse error")


def test_serialize_examples():
    p = Presentation(Kind.GROUP, ("a",), (Relation(W("a^5"), Word()),))
    assert serialize_presentation(p) == "group\ngens: a\nrels: a^5 = 1\n"
    empty = Presentation(Kind.GROUP, ("a", "b"))
    assert serialize_presentation(empty) == "group\ngens: a, b\nrels:\n"


def test_serialize_zero_line():
    text = "monoid\ngens: x, z\nzero: z\nrels: x z = z, z x = z, z^2 = z\n"
    p = parse_presentation(text)
    assert p.zero == "z"
    assert "zero: z" in serialize_presentation(p)


def test_zero_requires_absorption():
    with pytest.raises(ParseError, match="absorption"):
        parse_presentation("monoid\ngens: x, z\nzero: z\nrels: z^2 = z")


def reference_absorption_error(p: Presentation, z: str) -> str | None:
    """The hashed check over every relation pair, kept as the oracle."""
    pairs = {frozenset((r.lhs, r.rhs)) for r in p.relations}
    zw = Word.single(z)
    for g in p.generators:
        for w in {Word.single(g) * zw, zw * Word.single(g)}:
            if frozenset((w, zw)) not in pairs:
                return f"zero {z} lacks absorption relation for generator {g}"
    return None


def test_absorption_check_matches_the_reference_on_seeded_zero_monoids():
    rng = random.Random(31)
    seen = set()
    for _ in range(400):
        gens = ("a", "b", "c", "d")[: rng.randint(1, 4)]
        z = rng.choice(gens)
        zw = W(z)
        rels = []
        for g in gens:
            for w in {W(g) * zw, zw * W(g)}:  # one relation, z^2 = z, when g is z
                if rng.random() < 0.08:
                    seen.add("z^2 missing" if g == z else "g z or z g missing")
                    continue
                flipped = rng.random() < 0.5
                seen.add("written z = w" if flipped else "written w = z")
                rels.append(Relation(zw, w) if flipped else Relation(w, zw))
        for _ in range(rng.randint(0, 3)):  # noise, possibly with z alone on a side
            noise = [W(" ".join(rng.choice(gens) for _ in range(rng.randint(1, 3)))) for _ in "uv"]
            rels.append(Relation(*noise))
        rng.shuffle(rels)
        seen.add("zero not last" if z != gens[-1] else "zero last")
        expected = reference_absorption_error(Presentation(Kind.MONOID, gens, rels), z)
        try:
            Presentation(Kind.MONOID, gens, rels, z)
            got = None
        except ValidationError as exc:
            got = str(exc)
        seen.add("rejected" if expected else "accepted")
        assert got == expected
    assert len(seen) == 8


def reference_word_error(kind: Kind, gens, relations) -> str | None:
    """The per-word set check over every relation, kept as the oracle."""
    seen = set(gens)
    for rel in relations:
        for w in (rel.lhs, rel.rhs):
            bad = w.symbols() - seen
            if bad:
                return f"undeclared generator {sorted(bad)[0]}"
            if kind is Kind.MONOID and not w.is_positive:
                return f"negative exponent in monoid word {w}"
    return None


def test_relation_word_check_matches_the_reference_on_seeded_presentations():
    rng = random.Random(43)
    seen = set()
    for _ in range(600):
        kind = rng.choice((Kind.GROUP, Kind.MONOID))
        gens = ("a", "b", "c")[: rng.randint(1, 3)]
        # undeclared letters, sometimes several in one word and after a negative exponent
        letters = gens + ("x", "y")
        exps = (-2, -1, 1, 1, 2)

        def word():
            length = rng.randint(0, 4)
            return Word(tuple((rng.choice(letters), rng.choice(exps)) for _ in range(length)))

        rels = [Relation(word(), word()) for _ in range(rng.randint(0, 4))]
        expected = reference_word_error(kind, gens, rels)
        try:
            Presentation(kind, gens, rels)
            got = None
        except ValidationError as exc:
            got = str(exc)
        seen.add((kind, expected.split()[0] if expected else None))
        assert got == expected, (kind, gens, rels)
    assert len(seen) == 5  # both kinds accepted, undeclared in both, negative in a monoid


def test_roundtrip_structural_equality():
    texts = [
        "group\ngens: a, b\nrels: a^2 = 1, b^3 = 1, a b a b = 1",
        "monoid\ngens: p, q\nrels: p q = p, q p = q",
        "group\ngens: a\nrels:",
    ]
    for text in texts:
        p = parse_presentation(text)
        assert parse_presentation(serialize_presentation(p)) == p


def test_free_reduce_examples():
    # words are freely reduced on construction
    assert W("a a^-1 b") == Word((("b", 1),))
    assert W("a^2 a^3") == Word((("a", 5),))
    assert W("a b^2 b^-2 a^-1") == Word()
    assert Word((("a", 1), ("a", -1))).letters == ()


group_words = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(-4, 4).filter(bool)), max_size=12
).map(lambda pairs: Word(tuple(pairs)))


@given(group_words)
def test_free_reduce_idempotent_and_cancels(w):
    assert Word(w.letters) == w
    assert all(a != b for (a, _), (b, _) in zip(w.letters, w.letters[1:]))
    assert (w * w.inverse()).is_empty


GROUP_ABC = Presentation(Kind.GROUP, ("a", "b", "c"))


@given(group_words)
def test_encode_decode_round_trip(w):
    codes = encode_word(GROUP_ABC, w)
    assert len(codes) == w.length()
    assert decode_word(GROUP_ABC, codes) == w
    # the inverse word is the reversed codes with each letter's low bit flipped
    assert encode_word(GROUP_ABC, w.inverse()) == bytes(c ^ 1 for c in reversed(codes))


def test_encode_examples():
    assert encode_word(GROUP_ABC, W("a b^-2 c")) == bytes((0, 3, 3, 4))
    monoid = Presentation(Kind.MONOID, ("x", "y"))
    assert encode_word(monoid, W("y x^2")) == bytes((2, 0, 0))
    assert decode_word(monoid, bytes((2, 0, 0))) == W("y x^2")


def test_encoder_rejects_undeclared_symbols_and_monoid_inverses():
    with pytest.raises(ValidationError, match="word uses symbol d outside the presentation"):
        encode_word(GROUP_ABC, W("a d"))
    monoid = Presentation(Kind.MONOID, ("a",))
    with pytest.raises(ValidationError, match=r"negative exponent in monoid word a\^-1"):
        encode_word(monoid, W("a^-1"))


def test_letter_codes_fit_a_byte_up_to_128_generators():
    gens = tuple(f"g{i}" for i in range(129))
    widest = Presentation(Kind.GROUP, gens[:128])
    assert encode_word(widest, W("g127^-1 g0")) == b"\xff\x00"
    assert decode_word(widest, b"\xff\x00") == W("g127^-1 g0")
    too_wide = Presentation(Kind.GROUP, gens)
    with pytest.raises(ValidationError, match="129 generators"):
        encode_word(too_wide, W("g0"))
    with pytest.raises(ValidationError, match="129 generators"):
        knuth_bendix(too_wide)  # no relations: the cancellation rules are encoded too
    with pytest.raises(ValidationError, match="129 generators"):
        todd_coxeter(Presentation(Kind.GROUP, gens, (Relation(W("g0"), Word()),)))


def stepwise_pow(w, k):
    """w^k multiplied one factor at a time, each product merged."""
    base = w if k > 0 else w.inverse()
    out = Word()
    for _ in range(abs(k)):
        out = out * base
    return out


def random_group_word(rng, gens):
    exponents = (-3, -2, -1, 1, 2, 3)
    return Word(tuple((rng.choice(gens), rng.choice(exponents)) for _ in range(rng.randint(0, 4))))


def test_pow_and_substitute_match_the_stepwise_product():
    rng = random.Random(8117)
    cancelled = 0
    for _ in range(500):
        w = random_group_word(rng, ("a", "b"))
        k = rng.randint(-4, 4)
        want = stepwise_pow(w, k)
        assert w.pow(k) == want, (w, k)
        cancelled += want.length() < abs(k) * w.length()
        image = random_group_word(rng, ("a", "b", "c"))
        stepwise = Word()
        for s, e in w.letters:
            stepwise = stepwise * (stepwise_pow(image, e) if s == "a" else Word.single(s, e))
        assert substitute(w, {"a": image}) == stepwise, (w, image)
    assert cancelled >= 10


def test_word_fast_paths_match_the_merge_reference():
    rng = random.Random(2029)
    seen = set()
    for _ in range(2000):
        u = random_group_word(rng, ("a", "b", "c"))
        v = random_group_word(rng, ("a", "b", "c"))
        if rng.random() < 0.4:  # v starts by undoing a suffix of u: a cascade at the junction
            cut = rng.randint(0, len(u.letters))
            undo = tuple((s, -e) for s, e in reversed(u.letters[cut:]))
            v = Word(undo + v.letters)
        product = u * v
        assert product.letters == _merge(u.letters + v.letters), (u, v)
        lost = len(u.letters) + len(v.letters) - len(product.letters)
        seen.add({0: "no merge", 1: "junction merge"}.get(lost, "cascade"))
        s, e = rng.choice("abc"), rng.randint(-3, 3)
        assert Word.single(s, e).letters == _merge(((s, e),))
        seen.add("zero exponent" if e == 0 else "single")
        assert u.inverse().letters == _merge(tuple((s, -e) for s, e in reversed(u.letters)))
        images = dict(zip("abc", rng.sample(["a", "b", "c", "d"], 3)))
        assert u.renamed(images).letters == _merge(tuple((images[s], e) for s, e in u.letters))
        for w in (product, Word.single(s, e), u.inverse(), u.renamed(images)):
            assert _merge(w.letters) == w.letters
    assert seen == {"no merge", "junction merge", "cascade", "zero exponent", "single"}


def _validation_error(make) -> str | None:
    try:
        make()
    except ValidationError as exc:
        return str(exc)
    return None


def test_extend_equals_and_fails_like_the_whole_presentation():
    rng = random.Random(4111)
    seen = set()
    for _ in range(1500):
        kind = rng.choice((Kind.GROUP, Kind.MONOID))
        exps = (1, 2) if kind is Kind.MONOID else (-2, -1, 1, 2)

        def word(letters):
            length = rng.randint(0, 3)
            return Word(tuple((rng.choice(letters), rng.choice(exps)) for _ in range(length)))

        def absorbing(z, gens, keep):
            rels = []
            for g in gens:
                for w in {Word.single(g) * Word.single(z), Word.single(z) * Word.single(g)}:
                    if rng.random() < keep:
                        pair = (w, Word.single(z))
                        flip = rng.random() < 0.5
                        rels.append(Relation(*pair[::-1]) if flip else Relation(*pair))
            return rels

        gens = ("a", "b")[: rng.randint(1, 2)]
        rels = [Relation(word(gens), word(gens)) for _ in range(rng.randint(0, 2))]
        base_zero, a_absorbs = None, False
        if kind is Kind.MONOID and rng.random() < 0.4:
            base_zero, gens = "z", gens + ("z",)
            rels += absorbing("z", gens, keep=1)
        elif rng.random() < 0.3:  # a absorbs, but is not declared a zero
            a_absorbs = True
            rels += absorbing("a", gens, keep=1)
        base = Presentation(kind, gens, rels, base_zero)
        # mostly fresh generators; now and then an invalid or duplicate name
        fresh = ["c", "d", "e"]
        added = [
            fresh.pop(0) if rng.random() < 0.85 else rng.choice(["a", "z", "9x"])
            for _ in range(rng.randint(0, 2))
        ]
        letters = gens + tuple(added) + ("x",) * (rng.random() < 0.2)
        negative = rng.random() < 0.05
        new_rels = [
            Relation(word(letters), Word(((rng.choice(gens), -1),)) if negative else word(gens))
            for _ in range(rng.randint(0, 2))
        ]
        zero = None
        if base_zero is None and rng.random() < 0.4:
            zero = rng.choice(["z", "z", "a", "y"])
            if zero == "z" and "z" not in added:
                added.append("z")
        if (base_zero or zero) and zero != "y":  # y is no generator
            z = base_zero or zero
            # the base holds the old generators' relations for its zero, and for a if a absorbs
            in_base = base_zero or (zero == "a" and a_absorbs)
            new_gens = [g for g in added if g not in gens] if in_base else list(gens) + added
            new_rels += absorbing(z, [g for g in new_gens if g != "9x"], keep=0.9)
        rng.shuffle(new_rels)
        whole = lambda: Presentation(kind, gens + tuple(added), rels + new_rels, zero or base_zero)
        expected = _validation_error(whole)
        got = _validation_error(lambda: extend(base, added, new_rels, zero))
        assert got == expected, (base, added, new_rels, zero)
        seen.add(expected.split()[0] if expected else "accepted")
        if expected is None:
            out, ref = extend(base, added, new_rels, zero), whole()
            assert out == ref and str(out) == str(ref)
            assert out.generator_index == ref.generator_index and out.key == ref.key
    # accepted, and each kind of error: invalid, duplicate, undeclared,
    # negative, zero (not a generator / only on monoids / lacks absorption)
    assert seen == {"accepted", "invalid", "duplicate", "undeclared", "negative", "zero"}


def test_lru_evicts_the_least_recently_used_key():
    cache, made = OrderedDict(), []

    def make(key):
        return lambda: made.append(key) or -key

    for key in range(128):
        assert lru(cache, key, make(key)) == -key
    # a hit runs nothing and makes key 0 the most recently used, so the
    # 129th key evicts key 1, not key 0, the first inserted
    assert lru(cache, 0, make(0)) == 0
    assert lru(cache, 128, make(128)) == -128
    assert len(cache) == 128 and 0 in cache and 1 not in cache
    assert made == list(range(129))
    assert lru(cache, 1, make(1)) == -1  # evicted, so made again
    assert made[-1] == 1 and len(made) == 130 and 2 not in cache

    def fail():
        raise ValueError("no value")

    with pytest.raises(ValueError):
        lru(cache, 129, fail)
    assert 129 not in cache and len(cache) == 128 and 3 in cache


def test_rename_generators():
    p = parse_presentation("group\ngens: a\nrels: a^5 = 1")
    q = rename_generators(p, {"a": "x"})
    assert q.generators == ("x",)
    assert q.relations == (Relation(W("x^5"), Word()),)
    assert rename_generators(p, {}) == p


def test_rename_collision_rejected():
    p = parse_presentation("group\ngens: a, b\nrels:")
    with pytest.raises(ValidationError, match="not injective"):
        rename_generators(p, {"a": "b"})


def test_rename_preserves_counts():
    p = parse_presentation("group\ngens: a, b\nrels: a^2 = 1, a b = b a")
    q = rename_generators(p, {"a": "u", "b": "v"})
    assert len(q.generators) == len(p.generators)
    assert len(q.relations) == len(p.relations)


def test_tietze_eliminates_defined_generator():
    p = parse_presentation("group\ngens: a, b\nrels: b = a^2, a^5 = 1")
    q = tietze_simplify(p)
    assert q.generators == ("a",)
    assert q.relations == (Relation(W("a^5"), Word()),)


def test_tietze_drops_trivial_relation():
    p = parse_presentation("group\ngens: a\nrels: a = a")
    assert tietze_simplify(p) == Presentation(Kind.GROUP, ("a",))


def test_tietze_no_applicable_move():
    p = parse_presentation("group\ngens: a\nrels: a^2 = 1")
    assert tietze_simplify(p) == p


def test_tietze_respects_budget():
    p = parse_presentation("group\ngens: a\nrels: a = a, a = a, a = a")
    q = tietze_simplify(p, max_moves=2)
    assert len(q.relations) == 1


# -- elimination


def _t1(base_text):
    base = parse_presentation(base_text)
    return triviality_test_group(GroupTestInstance(base, Word())).presentation


def replay(p, steps):
    """Whether `steps` proves `p` trivial: each generator x goes in turn, x
    occurs once in a relator that x = image makes freely trivial, x is not
    in its image, and no generator is left."""
    relators = [r.lhs * r.rhs.inverse() for r in p.relations]
    for x, image in steps:
        once = lambda r: sum(abs(e) for s, e in r.letters if s == x) == 1
        if x in image.symbols():
            return False
        if not any(once(r) and substitute(r, {x: image}).is_empty for r in relators):
            return False
        relators = [substitute(r, {x: image}) for r in relators]
    return sorted(x for x, _ in steps) == sorted(p.generators)


@pytest.mark.parametrize(
    "base",
    [
        "group\ngens: a\nrels: a^2 = 1",  # Z/2
        "group\ngens: a, b\nrels: a^2 = 1, b^2 = 1, a b a b = 1",  # Klein
        "group\ngens: a, b\nrels: a^2 = 1, b^3 = 1, a b a b = 1",  # S3
        "group\ngens: x, y\nrels: x^-1 y^2 x = y^3",  # BS(2,3)
        "group\ngens: a, b\nrels:",  # F2
    ],
)
def test_eliminate_proves_the_test_group_of_the_empty_word_trivial(base):
    t1 = _t1(base)
    steps = eliminate(t1)
    assert steps is not None
    assert replay(t1, steps)
    # 1 = d and the welds are the shortest relators; then each 1 = x_i d^(i+1) is x_i
    assert all(image == Word() for _, image in steps)
    assert is_trivial(t1).value == "trivial"


def test_eliminate_solves_the_shortest_relator_for_a_generator_that_occurs_once():
    p = parse_presentation("group\ngens: a, b\nrels: a b a^-1 = b^2, a = b")
    # a b a^-1 b^-2 holds a twice and b in two runs; a b^-1 holds a once
    assert eliminate(p) == (("a", W("b")), ("b", Word()))
    # b^2 a is a b^2 cyclically, so a = b^-2, which leaves a b^3 as b
    q = parse_presentation("group\ngens: a, b\nrels: a b^3 = 1, b^2 a = 1")
    assert eliminate(q) == (("a", W("b^-2")), ("b", Word()))
    # b a^-1 b is cyclically reduced to b^2 a^-1, so a = b^2
    r = parse_presentation("group\ngens: a, b\nrels: a^2 b^-3 = 1, b a^-1 b = 1")
    assert eliminate(r) == (("a", W("b^2")), ("b", Word()))
    # the shortest relator goes first: b = 1 before a = b^-2
    t = parse_presentation("group\ngens: a, b\nrels: b^2 a = 1, b^3 = b^2")
    assert eliminate(t) == (("b", Word()), ("a", Word()))


@pytest.mark.parametrize(
    "text",
    [
        "group\ngens: a\nrels: a^2 = 1",  # a occurs twice
        "group\ngens: a, b\nrels: a b = b a",  # Z^2
        "group\ngens: a, b\nrels: a = 1",  # b occurs in no relator
        "group\ngens: a, b\nrels: a b^2 = 1, b^3 = 1",  # Z/3 once a = b^-2
    ],
)
def test_eliminate_gives_no_proof_when_stuck(text):
    assert eliminate(parse_presentation(text)) is None


def test_eliminate_expects_a_group():
    with pytest.raises(ValidationError):
        eliminate(parse_presentation("monoid\ngens: a\nrels: a = 1"))


def test_word_text_roundtrip():
    for text in ("1", "a", "a^3 b^-2 a", "x y x"):
        assert serialize_word(W(text)) == text


def test_tietze_eliminates_from_either_side_and_inverse_definitions():
    p = parse_presentation("group\ngens: a, b\nrels: a^2 = b, a^5 = 1")
    q = tietze_simplify(p)
    assert q.generators == ("a",)
    inv_def = parse_presentation("group\ngens: a, b\nrels: b^-1 = a^2, b^3 = 1")
    r = tietze_simplify(inv_def)
    assert r.generators == ("a",)
    # b = a^-2, so b^3 = 1 becomes a^-6 = 1
    assert r.relations == (Relation(W("a^-6"), Word()),)


def test_tietze_never_eliminates_the_zero():
    p = parse_presentation(
        "monoid\ngens: x, z\nzero: z\nrels: x z = z, z x = z, z^2 = z, z = x"
    )
    q = tietze_simplify(p)
    assert q.zero == "z" and "z" in q.generators


def test_parse_word_edge_cases():
    assert W("a 1 b") == W("a b")  # inline identity token is absorbed
    with pytest.raises(ParseError, match="zero exponent"):
        W("a^0")
    with pytest.raises(ParseError, match="bad word token"):
        W("3a")
    with pytest.raises(ParseError, match="bad exponent"):
        W("a^x")


def test_parse_empty_and_trailing_garbage():
    with pytest.raises(ParseError, match="empty presentation"):
        parse_presentation("   \n  ")
    with pytest.raises(ParseError, match="unexpected line"):
        parse_presentation("group\ngens: a\nrels:\nwhat is this")


def test_zero_line_requires_monoid():
    with pytest.raises(ParseError, match="zero line on a group"):
        parse_presentation("group\ngens: a\nzero: a\nrels:")
