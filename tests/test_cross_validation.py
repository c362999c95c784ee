"""Seeded randomized agreement checks between the independent engines.

The rewriting route (Knuth-Bendix normal forms) and the enumeration route
(Todd-Coxeter) know nothing about each other, so agreement on randomly
generated presentations is a strong end-to-end correctness signal for
both.
"""

import random

import pytest

from fpkit.constructions import MarkovInstance, XiRange, markov_semigroup
from fpkit.coset import EnumLimits, todd_coxeter
from fpkit.presentations import (
    Kind,
    Presentation,
    Relation,
    Word,
    parse_presentation,
    parse_word,
    rename_generators,
    tietze_simplify,
)
from fpkit.rewriting import (
    Budget,
    Completeness,
    Verdict,
    irreducible_words,
    knuth_bendix,
    words_equal,
)
from fpkit.verify import CheckVerdict, abelianization, collapse_check, embedding_by_rewriting

LIMITS = EnumLimits(5_000, 500_000)
BUDGET = Budget(400, 40, 4000)


def _random_group(rng, max_gens=2, max_rels=3, max_len=5):
    gens = tuple("ab"[:rng.randint(1, max_gens)])
    rels = []
    for _ in range(rng.randint(0, max_rels)):
        letters = tuple(
            (rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, max_len))
        )
        w = Word(letters)
        if not w.is_empty:
            rels.append(Relation(w, Word()))
    return Presentation(Kind.GROUP, gens, tuple(rels))


def test_random_groups_element_counts_agree():
    rng = random.Random(4242)
    checked = 0
    for _ in range(120):
        p = _random_group(rng)
        rs = knuth_bendix(p, BUDGET)
        if rs.status is not Completeness.COMPLETE:
            continue
        forms = list(irreducible_words(rs, 301))
        if len(forms) > 300:
            continue  # infinite or too large to enumerate
        result = todd_coxeter(p, (), LIMITS)
        assert result.closed, p
        assert result.index == len(forms), p
        checked += 1
    assert checked >= 40  # the generator must exercise plenty of finite cases


def test_random_groups_abelianization_invariance():
    rng = random.Random(77)
    for _ in range(60):
        p = _random_group(rng, max_gens=2, max_rels=4)
        inv = abelianization(p)
        assert abelianization(tietze_simplify(p)) == inv
        renaming = {g: f"r{i}" for i, g in enumerate(p.generators)}
        assert abelianization(rename_generators(p, renaming)) == inv
        shuffled = list(p.relations)
        rng.shuffle(shuffled)
        assert abelianization(Presentation(Kind.GROUP, p.generators, tuple(shuffled))) == inv


def _random_monoid(rng):
    gens = tuple("gh"[:rng.randint(1, 2)])
    rels = []
    for _ in range(rng.randint(0, 2)):
        letters = [rng.choice(gens) for _ in range(rng.randint(1, 4))]
        lhs = Word(tuple((s, 1) for s in letters))
        rhs_letters = [rng.choice(gens) for _ in range(rng.randint(0, len(letters) - 1))]
        rels.append(Relation(lhs, Word(tuple((s, 1) for s in rhs_letters))))
    return Presentation(Kind.MONOID, gens, tuple(rels))


def _random_word(rng, gens, max_len=3):
    letters = [rng.choice(gens) for _ in range(rng.randint(1, max_len))]
    return Word(tuple((s, 1) for s in letters))


def test_random_markov_instances_respect_the_dichotomy():
    s0 = Presentation(Kind.MONOID, ("x",))
    s4 = Presentation(Kind.MONOID, ())
    rng = random.Random(2718)
    equal_seen = distinct_seen = 0
    for _ in range(60):
        s1 = _random_monoid(rng)
        g = _random_word(rng, s1.generators)
        h = _random_word(rng, s1.generators)
        verdict = words_equal(s1, g, h, BUDGET)
        if verdict is Verdict.UNKNOWN:
            continue
        inst = MarkovInstance(s0, s1, s4, g, h, xi_range=XiRange.ALL_GENERATORS)
        build = markov_semigroup(inst)
        rs = knuth_bendix(build.presentation, BUDGET)
        if rs.status is not Completeness.COMPLETE:
            continue
        collapse = collapse_check(build.presentation, s4, {}, BUDGET)
        embed = embedding_by_rewriting(
            s0, build.presentation, {"x": Word.single(build.maps["s0"]["x"])}, BUDGET, "embed"
        )
        if verdict is Verdict.EQUAL:
            equal_seen += 1
            assert collapse.verdict is CheckVerdict.PASS, (s1, g, h)
            assert embed.verdict is CheckVerdict.FAIL, (s1, g, h)
        else:
            distinct_seen += 1
            assert embed.verdict is CheckVerdict.PASS, (s1, g, h)
            assert collapse.verdict is CheckVerdict.FAIL, (s1, g, h)
    assert equal_seen >= 5 and distinct_seen >= 10


# S4s with generators: finite, free and commutative.  Their letters stay
# outside the xi range, so on the equal side the monoid collapses onto S4
# with a zero, and on the distinct side S0 still embeds.
NONTRIVIAL_S4 = (
    "monoid\ngens: e\nrels: e e = e",
    "monoid\ngens: e\nrels:",
    "monoid\ngens: e, f\nrels: e f = f e",
)


@pytest.mark.parametrize("s4_text", NONTRIVIAL_S4, ids=("finite", "free", "commutative"))
@pytest.mark.parametrize(
    "s1_text, g, h, equal",
    [
        ("monoid\ngens: g\nrels: g^2 = g", "g", "g g", True),
        ("monoid\ngens: y\nrels:", "y", "y y", False),
    ],
    ids=("equal", "distinct"),
)
def test_markov_instances_over_a_nontrivial_s4_respect_the_dichotomy(s4_text, s1_text, g, h, equal):
    s0 = Presentation(Kind.MONOID, ("x",))
    s1, s4 = parse_presentation(s1_text), parse_presentation(s4_text)
    inst = MarkovInstance(s0, s1, s4, parse_word(g), parse_word(h))
    build = markov_semigroup(inst)
    big = build.presentation
    projection = {s: Word.single(img) for s, img in build.maps["s4"].items()}
    collapse = collapse_check(big, s4, projection, BUDGET)
    embed = embedding_by_rewriting(
        s0, big, {"x": Word.single(build.maps["s0"]["x"])}, BUDGET, "embed"
    )
    assert (words_equal(s1, inst.g, inst.h, BUDGET) is Verdict.EQUAL) is equal
    if equal:
        assert collapse.verdict is CheckVerdict.PASS, collapse
        assert embed.verdict is CheckVerdict.FAIL, embed
    else:
        assert embed.verdict is CheckVerdict.PASS, embed
        assert collapse.verdict is CheckVerdict.FAIL, collapse
