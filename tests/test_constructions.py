import random

import pytest

from fpkit.constructions import (
    AuditTrail,
    GroupTestInstance,
    MarkovInstance,
    PropertySpec,
    adjoin_zero,
    free_product,
    hnn_extension,
    markov_property_reduction,
    markov_semigroup,
    triviality_test_group,
)
from fpkit.coset import EnumLimits, is_trivial
from fpkit.presentations import (
    Kind,
    Presentation,
    Relation,
    ValidationError,
    Word,
    fresh_symbol,
    parse_presentation,
    parse_word,
    rename_generators,
    serialize_presentation,
    tietze_simplify,
)
from fpkit.rewriting import Budget, words_equal
from fpkit.verify import abelianization
from test_verify import merge_invariants

W = parse_word
LIMITS = EnumLimits(10_000, 1_000_000)


def P(text):
    return parse_presentation(text)


# -- free product


def test_free_product_definition():
    out = free_product(P("group\ngens: a\nrels: a^2 = 1"), P("group\ngens: b\nrels: b^3 = 1"))
    assert out == P("group\ngens: a, b\nrels: a^2 = 1, b^3 = 1")


def test_free_product_collision_renamed_and_reported():
    trail = AuditTrail()
    out = free_product(
        P("group\ngens: a\nrels: a^2 = 1"), P("group\ngens: a\nrels: a^3 = 1"), trail
    )
    assert out.generators == ("a", "a_1")
    assert out.relations[1] == Relation(W("a_1^3"), Word())
    assert any("a->a_1" in step.detail for step in trail.steps)


def test_free_product_with_trivial_factor():
    p = P("group\ngens: a\nrels: a^2 = 1")
    assert free_product(p, P("group\ngens:\nrels:")) == p


def test_free_product_kind_and_zero_guards():
    with pytest.raises(ValidationError):
        free_product(P("group\ngens: a\nrels:"), P("monoid\ngens: b\nrels:"))
    z = adjoin_zero(P("monoid\ngens: x\nrels:"), "z")
    with pytest.raises(ValidationError):
        free_product(z, P("monoid\ngens: y\nrels:"))


def test_free_product_counts_additive_and_abelianization_merges():
    p = P("group\ngens: a\nrels: a^4 = 1")
    q = P("group\ngens: b, c\nrels: b^6 = 1")
    out = free_product(p, q)
    assert len(out.generators) == 3 and len(out.relations) == 2
    assert abelianization(out) == merge_invariants(abelianization(p), abelianization(q))


# -- zero adjunction


def test_adjoin_zero_definition():
    out = adjoin_zero(P("monoid\ngens: x\nrels:"), "z")
    assert out.zero == "z"
    assert out.generators == ("x", "z")
    assert out.relations == (
        Relation(W("x z"), W("z")),
        Relation(W("z x"), W("z")),
        Relation(W("z^2"), W("z")),
    )


def test_adjoin_zero_degenerate_and_counting():
    out = adjoin_zero(P("monoid\ngens:\nrels:"), "z")
    assert out.relations == (Relation(W("z^2"), W("z")),)
    out = adjoin_zero(P("monoid\ngens: x, y\nrels: x y = y x"), "z")
    assert len(out.relations) == 1 + 5  # original plus 2*2+1 absorption rules


def test_adjoin_zero_collision():
    with pytest.raises(ValidationError):
        adjoin_zero(P("monoid\ngens: z\nrels:"), "z")


# -- HNN


def test_hnn_of_trivial_base_is_free():
    out = hnn_extension(P("group\ngens:\nrels:"), "t", [])
    assert out == P("group\ngens: t\nrels:")


def test_hnn_baumslag_solitar_shape():
    out = hnn_extension(P("group\ngens: a\nrels:"), "t", [(W("a"), W("a^2"))])
    assert out.generators == ("a", "t")
    assert out.relations == (Relation(W("t^-1 a t"), W("a^2")),)


def test_hnn_identity_association_doubles_free_rank():
    # derived via the Smith-form oracle on the relation matrix
    out = hnn_extension(P("group\ngens: a\nrels:"), "t", [(W("a"), W("a"))])
    assert abelianization(out).free_rank == 2


def test_hnn_guards():
    base = P("group\ngens: a\nrels:")
    with pytest.raises(ValidationError):
        hnn_extension(base, "a", [])
    with pytest.raises(ValidationError):
        hnn_extension(base, "t", [(W("b"), W("a"))])
    with pytest.raises(ValidationError):
        hnn_extension(P("monoid\ngens: a\nrels:"), "t", [])


def test_iterated_hnn_extensions_examples():
    out = P("group\ngens:\nrels:")
    for stable in ("q1", "q2"):
        out = hnn_extension(out, stable, [])
    assert out == P("group\ngens: q1, q2\nrels:")
    three = P("group\ngens: a\nrels:")
    # a later step may use the stable letters of earlier ones
    for stable, assoc in [("q1", [(W("a"), W("a"))]), ("q2", []), ("q3", [(W("q1"), W("a"))])]:
        three = hnn_extension(three, stable, assoc)
    assert len(three.generators) == 1 + 3


def test_iterated_hnn_extensions_with_empty_associations_raise_free_rank_by_step_count():
    base = P("group\ngens: a\nrels: a^2 = 1")
    out = base
    for stable in ("q1", "q2", "q3"):
        out = hnn_extension(out, stable, [])
    assert abelianization(out).free_rank == abelianization(base).free_rank + 3


def test_iterated_hnn_extensions_scope_and_duplicates():
    base = P("group\ngens: a\nrels:")
    with pytest.raises(ValidationError):
        hnn_extension(hnn_extension(base, "q1", []), "q1", [])
    with pytest.raises(ValidationError):
        # q2 is not available at step one
        hnn_extension(base, "q1", [(W("q2"), W("a"))])


# -- Markov semigroup


def _markov(s1_text, g, h):
    return MarkovInstance(
        P("monoid\ngens: x\nrels:"),
        P(s1_text),
        P("monoid\ngens:\nrels:"),
        W(g),
        W(h),
    )


def test_markov_generator_count():
    inst = _markov("monoid\ngens: g\nrels: g g = g", "g", "g g")
    build = markov_semigroup(inst)
    assert len(build.presentation.generators) == 1 + 1 + 0 + 4 + 1


def test_markov_xi_ranges_over_every_letter_outside_s4_and_the_zero():
    inst = MarkovInstance(
        P("monoid\ngens: x\nrels:"),
        P("monoid\ngens: g\nrels: g g = g"),
        P("monoid\ngens: e, f\nrels: e f = f e"),
        W("g"),
        W("g g"),
    )
    build = markov_semigroup(inst)
    before = free_product(
        free_product(free_product(inst.s0, inst.s1), inst.s4),
        Presentation(Kind.MONOID, ("a", "b", "c", "d")),
    )
    zeroed = adjoin_zero(before, "z")
    # c G d = 1, and xi c H d = c H d for x, g and a..d
    assert len(build.presentation.relations) == len(zeroed.relations) + 1 + 6
    assert "xi-range = all" in build.trail.to_text()


def test_markov_schema_words_equal_inside_s1():
    inst = _markov("monoid\ngens: g\nrels: g g = g", "g", "g g")
    assert words_equal(inst.s1, inst.g, inst.h).value == "equal"


def test_markov_instance_validation():
    with pytest.raises(ValidationError, match="nonempty"):
        _markov("monoid\ngens: g\nrels:", "1", "g")
    with pytest.raises(ValidationError, match="outside s1"):
        _markov("monoid\ngens: g\nrels:", "h", "g")


def test_markov_build_is_deterministic():
    inst = _markov("monoid\ngens: g\nrels: g g = g", "g", "g g")
    one = serialize_presentation(markov_semigroup(inst).presentation)
    two = serialize_presentation(markov_semigroup(inst).presentation)
    assert one == two


def test_markov_collision_renaming_keeps_letters_apart():
    # s1 reuses the letters a..d and z; everything must stay disjoint
    inst = MarkovInstance(
        P("monoid\ngens: a\nrels:"),
        P("monoid\ngens: c, z\nrels: c z = z c"),
        P("monoid\ngens:\nrels:"),
        W("c"),
        W("c z"),
    )
    build = markov_semigroup(inst)
    gens = build.presentation.generators
    assert len(set(gens)) == len(gens) == 1 + 2 + 0 + 4 + 1
    # the schema relations refer to the renamed copies
    c_letter = build.maps["letters"]["c"]
    assert c_letter not in ("c",)  # collided, so it was suffixed


# -- triviality test group


def test_test_group_trivial_cases():
    for base_text, a, b in (
        ("group\ngens: a\nrels: a = 1", "a", None),
        ("group\ngens: a\nrels: a^5 = 1", "a^2", "a^7"),
    ):
        inst = GroupTestInstance(P(base_text), W(a), W(b) if b else None)
        build = triviality_test_group(inst)
        assert is_trivial(build.presentation, LIMITS).value == "trivial"


def test_test_group_nontrivial_case():
    inst = GroupTestInstance(P("group\ngens: a\nrels:"), W("a"))
    build = triviality_test_group(inst)
    verdict = is_trivial(build.presentation, LIMITS)
    assert verdict.value == "nontrivial"
    assert not abelianization(build.presentation).is_trivial


def test_test_group_empty_word_behaves_as_identity():
    inst = GroupTestInstance(P("group\ngens: a\nrels:"), Word())
    build = triviality_test_group(inst)
    assert is_trivial(build.presentation, LIMITS).value == "trivial"


def _test_group_over(x, rels, a, b):
    """The test group of the base <x | rels> and words a, b, spelled in {x}."""
    base = P(f"group\ngens: {x}\nrels: {rels.format(x=x)}")
    inst = GroupTestInstance(base, W(a.format(x=x)), W(b.format(x=x)) if b else None)
    return triviality_test_group(inst).presentation


@pytest.mark.parametrize(
    "x,rels,a,b", [("q1", "{x}^5 = 1", "{x}^2", "{x}^7"), ("q", "", "{x}", None)]
)
def test_test_group_over_a_generator_named_like_a_stable_letter(x, rels, a, b):
    # the stable letter named x steps aside to x_1, so the group is the one
    # built over a generator named a, renamed
    built = _test_group_over(x, rels, a, b)
    assert len(set(built.generators)) == len(built.generators) == 5
    over_a = _test_group_over("a", rels, a, b)
    assert rename_generators(over_a, {"a": x, x: f"{x}_1"}) == built
    verdict = is_trivial(built, LIMITS)
    assert verdict.definite
    assert verdict == is_trivial(over_a, LIMITS)


def test_test_group_validation():
    base = P("group\ngens: a\nrels:")
    with pytest.raises(ValidationError, match="outside the base"):
        GroupTestInstance(base, W("b"))


def test_test_group_dichotomy_matches_word_problem_on_corpus_bases():
    cases = [
        ("group\ngens: a\nrels: a = 1", "a", None),
        ("group\ngens: a, b\nrels: a^2 = 1, b^2 = 1, a b a b = 1", "a b", "b a"),
        ("group\ngens: a\nrels:", "a", None),
        ("group\ngens: a, b\nrels:", "a b", "b"),
        ("group\ngens: a\nrels: a^6 = 1", "a^2", "a^4"),
    ]
    for base_text, a, b in cases:
        base = P(base_text)
        a_word, b_word = W(a), W(b) if b else None
        inner = words_equal(base, a_word, b_word if b_word else Word())
        build = triviality_test_group(GroupTestInstance(base, a_word, b_word))
        outer = is_trivial(build.presentation, LIMITS)
        assert inner.definite and outer.definite
        assert (inner.value == "equal") == (outer.value == "trivial")


def test_test_group_deterministic():
    inst = GroupTestInstance(P("group\ngens: a\nrels: a^5 = 1"), W("a^2"), W("a^7"))
    one = serialize_presentation(triviality_test_group(inst).presentation)
    two = serialize_presentation(triviality_test_group(inst).presentation)
    assert one == two


def test_test_group_audit_lists_intermediates():
    inst = GroupTestInstance(P("group\ngens: a\nrels:"), W("a"))
    build = triviality_test_group(inst)
    labels = [s.label for s in build.trail.steps]
    assert "hnn-extension" in labels and "welds" in labels
    assert build.trail.to_text().count("[") >= len(labels)


# -- property reduction


def _trivial_property():
    return PropertySpec(P("group\ngens:\nrels:"), P("group\ngens: a\nrels:"))


def test_property_reduction_trivial_test_passthrough():
    spec = _trivial_property()
    build = markov_property_reduction(spec, P("group\ngens:\nrels:"))
    assert build.presentation == spec.g_plus
    killed = markov_property_reduction(spec, P("group\ngens: a\nrels: a = 1"))
    assert tietze_simplify(killed.presentation) == P("group\ngens:\nrels:")


def test_property_reduction_witness_passthrough_z2():
    spec = PropertySpec(P("group\ngens: a\nrels: a^2 = 1"), P("group\ngens: a\nrels:"))
    build = markov_property_reduction(spec, P("group\ngens:\nrels:"))
    inv = abelianization(build.presentation)
    assert inv.torsion == (2,) and inv.free_rank == 0


def test_property_reduction_nontrivial_test_obstructs():
    spec = _trivial_property()
    build = markov_property_reduction(spec, P("group\ngens: a\nrels:"))
    assert not abelianization(build.presentation).is_trivial


def test_property_reduction_kind_guard():
    spec = _trivial_property()
    with pytest.raises(ValidationError):
        markov_property_reduction(spec, P("monoid\ngens: g\nrels:"))


def test_markov_build_serializes_and_reparses_with_zero():
    inst = _markov("monoid\ngens: g\nrels: g g = g", "g", "g g")
    built = markov_semigroup(inst).presentation
    text = serialize_presentation(built)
    assert "zero: z" in text
    assert parse_presentation(text) == built



# -- combinators validate only what they add; the result is what a full validation accepts


def _assert_rebuilds(p):
    whole = Presentation(p.kind, p.generators, p.relations, p.zero)
    assert whole == p and str(whole) == str(p)
    assert whole.generator_index == p.generator_index and whole.key == p.key


def _random_presentation(rng, kind, names):
    gens = tuple(rng.sample(names, rng.randint(1, 3)))
    rels = [Relation(_random_word(rng, kind, gens), _random_word(rng, kind, gens)) for _ in "12"]
    return Presentation(kind, gens, rels[: rng.randint(0, 2)])


def _random_word(rng, kind, gens, nonempty=False):
    exps = (1, 2) if kind is Kind.MONOID else (-2, -1, 1, 2)
    length = rng.randint(1 if nonempty else 0, 3)
    return Word(tuple((rng.choice(gens), rng.choice(exps)) for _ in range(length)))


def reference_free_product(p1, p2):
    """The free product renamed and validated in full, kept as the oracle."""
    used, renaming = set(p1.generators), {}
    for g in p2.generators:
        renaming[g] = fresh_symbol(g, used)
        used.add(renaming[g])
    q2 = rename_generators(p2, renaming)
    return Presentation(p1.kind, p1.generators + q2.generators, p1.relations + q2.relations)


def test_combinators_give_what_a_full_validation_accepts():
    rng = random.Random(97)
    # the constructions' own letters are among the names, so renamings happen
    names = ["a", "b", "c", "d", "q", "q1", "z", "c_1"]
    renamed = 0
    for _ in range(120):
        g1, g2 = (_random_presentation(rng, Kind.GROUP, names) for _ in "12")
        m0, m1, m4 = (_random_presentation(rng, Kind.MONOID, names) for _ in "014")
        builds = []
        for p, q in ((g1, g2), (m1, m0)):
            trail = AuditTrail()
            builds.append((free_product(p, q, trail), trail))
            assert builds[-1][0] == reference_free_product(p, q)
            renamed += "second factor renamed" in trail.steps[0].detail
        trail = AuditTrail()
        builds.append((adjoin_zero(m1, fresh_symbol("z", m1.generators), trail), trail))
        trail, laddered = AuditTrail(), g1
        for _ in range(rng.randint(1, 3)):
            letters = laddered.generators
            t = fresh_symbol("t", letters)
            pair = (_random_word(rng, Kind.GROUP, letters), _random_word(rng, Kind.GROUP, letters))
            laddered = hnn_extension(laddered, t, [pair] * rng.randint(0, 2), trail)
        builds.append((laddered, trail))
        g, h = (_random_word(rng, Kind.MONOID, m1.generators, nonempty=True) for _ in "gh")
        markov = markov_semigroup(MarkovInstance(m0, m1, m4, g, h))
        builds.append((markov.presentation, markov.trail))
        b_word = _random_word(rng, Kind.GROUP, g1.generators) if rng.random() < 0.5 else None
        test = triviality_test_group(
            GroupTestInstance(g1, _random_word(rng, Kind.GROUP, g1.generators), b_word)
        )
        builds.append((test.presentation, test.trail))
        prop = markov_property_reduction(PropertySpec(g2, g1), test.presentation)
        builds.append((prop.presentation, prop.trail))
        for out, trail in builds:
            _assert_rebuilds(out)
            for step in trail.steps:
                if step.presentation is not None:
                    _assert_rebuilds(step.presentation)
    assert renamed > 100
