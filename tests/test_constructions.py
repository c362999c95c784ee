import pytest

from fpkit.constructions import (
    AuditTrail,
    GroupTestInstance,
    MarkovInstance,
    Mode,
    PropertySpec,
    XiRange,
    adjoin_zero,
    free_product,
    hnn_extension,
    hnn_ladder,
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
    parse_presentation,
    parse_word,
    serialize_presentation,
    tietze_simplify,
)
from fpkit.rewriting import Budget, Verdict, words_equal
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


def test_hnn_ladder_examples():
    base = P("group\ngens:\nrels:")
    assert hnn_ladder(base, []) == base
    out = hnn_ladder(base, [("q1", []), ("q2", [])])
    assert out == P("group\ngens: q1, q2\nrels:")
    three = hnn_ladder(
        P("group\ngens: a\nrels:"),
        [("q1", [(W("a"), W("a"))]), ("q2", []), ("q3", [(W("q1"), W("a"))])],
    )
    assert len(three.generators) == 1 + 3


def test_hnn_ladder_empty_associations_raise_free_rank_by_step_count():
    base = P("group\ngens: a\nrels: a^2 = 1")
    out = hnn_ladder(base, [("q1", []), ("q2", []), ("q3", [])])
    assert abelianization(out).free_rank == abelianization(base).free_rank + 3


def test_hnn_ladder_scope_and_duplicates():
    base = P("group\ngens: a\nrels:")
    with pytest.raises(ValidationError):
        hnn_ladder(base, [("q1", []), ("q1", [])])
    with pytest.raises(ValidationError):
        # q2 is not available at step one
        hnn_ladder(base, [("q1", [(W("q2"), W("a"))]), ("q2", [])])


# -- Markov semigroup


def _markov(s1_text, g, h, xi=XiRange.ALL_GENERATORS):
    return MarkovInstance(
        P("monoid\ngens: x\nrels:"),
        P(s1_text),
        P("monoid\ngens:\nrels:"),
        W(g),
        W(h),
        xi_range=xi,
    )


def test_markov_verbatim_adds_exactly_five_schema_relations():
    inst = _markov("monoid\ngens: g\nrels: g g = g", "g", "g g", XiRange.VERBATIM)
    build = markov_semigroup(inst)
    before = free_product(
        free_product(free_product(inst.s0, inst.s1), inst.s4),
        Presentation(Kind.MONOID, inst.letters),
    )
    zeroed = adjoin_zero(before, "z")
    assert len(build.presentation.relations) == len(zeroed.relations) + 5


def test_markov_generator_count():
    inst = _markov("monoid\ngens: g\nrels: g g = g", "g", "g g")
    build = markov_semigroup(inst)
    assert len(build.presentation.generators) == 1 + 1 + 0 + 4 + 1


def test_markov_schema_words_equal_inside_s1():
    inst = _markov("monoid\ngens: g\nrels: g g = g", "g", "g g")
    assert words_equal(inst.s1, inst.g, inst.h) is Verdict.EQUAL


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
    c_letter = build.letters[2]
    assert c_letter not in ("c",)  # collided, so it was suffixed


# -- triviality test group


def test_test_group_trivial_cases():
    for base_text, a, b in (
        ("group\ngens: a\nrels: a = 1", "a", None),
        ("group\ngens: a\nrels: a^5 = 1", "a^2", "a^7"),
    ):
        inst = GroupTestInstance(P(base_text), W(a), W(b) if b else None)
        build = triviality_test_group(inst)
        assert is_trivial(build.presentation, LIMITS).is_trivial


def test_test_group_nontrivial_case():
    inst = GroupTestInstance(P("group\ngens: a\nrels:"), W("a"))
    build = triviality_test_group(inst)
    verdict = is_trivial(build.presentation, LIMITS)
    assert verdict.status == "nontrivial"
    assert not abelianization(build.presentation).is_trivial


def test_test_group_empty_word_behaves_as_identity():
    inst = GroupTestInstance(P("group\ngens: a\nrels:"), Word())
    build = triviality_test_group(inst)
    assert is_trivial(build.presentation, LIMITS).is_trivial


def test_test_group_stable_letters_shape():
    base = P("group\ngens: a, b\nrels:")
    inst = GroupTestInstance(base, W("a b"))
    assert inst.stable_letters == ("q1", "q2", "q")
    build = triviality_test_group(inst)
    assert set(inst.stable_letters) < set(build.presentation.generators)


def test_test_group_validation():
    base = P("group\ngens: a\nrels:")
    with pytest.raises(ValidationError, match="unknown recipe"):
        GroupTestInstance(base, W("a"), recipe="nonsense")
    with pytest.raises(ValidationError, match="outside the base"):
        GroupTestInstance(base, W("b"))
    with pytest.raises(ValidationError, match="not fresh"):
        GroupTestInstance(base, W("a"), stable_letters=("a", "q"))


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
        assert inner is not Verdict.UNKNOWN and outer.definite
        assert (inner is Verdict.EQUAL) == outer.is_trivial


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
    return PropertySpec(
        "being the trivial group",
        P("group\ngens:\nrels:"),
        P("group\ngens: a\nrels:"),
        Mode.MARKOV,
    )


def test_property_reduction_trivial_test_passthrough():
    spec = _trivial_property()
    build = markov_property_reduction(spec, P("group\ngens:\nrels:"))
    assert build.presentation == spec.g_plus
    killed = markov_property_reduction(spec, P("group\ngens: a\nrels: a = 1"))
    assert tietze_simplify(killed.presentation) == P("group\ngens:\nrels:")


def test_property_reduction_witness_passthrough_z2():
    spec = PropertySpec(
        "being a finite group",
        P("group\ngens: a\nrels: a^2 = 1"),
        P("group\ngens: a\nrels:"),
        Mode.HEREDITARY_PSEUDO_MARKOV,
    )
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


def test_former_recipe_alias_is_unknown():
    base = P("group\ngens: a\nrels: a^5 = 1")
    with pytest.raises(ValidationError, match="unknown recipe"):
        GroupTestInstance(base, W("a^2"), W("a^7"), recipe="adian-iterated-hnn")
