import itertools
import json
import math
import random
from typing import Mapping

import pytest

from fpkit.cli import RunConfig, _job_from_row, _markov_instance, parse_manifest, run_job
from fpkit.constructions import Build, MarkovInstance, adjoin_zero, markov_semigroup
from fpkit.corpus import bundled_manifest, corpus_dir
from fpkit.presentations import (
    Kind,
    Presentation,
    Relation,
    ValidationError,
    Word,
    parse_presentation,
    parse_word,
    rename_generators,
    substitute,
    tietze_simplify,
)
from fpkit.rewriting import Budget, normal_forms, words_equal
from fpkit.verify import (
    AbelianInvariants,
    CheckReport,
    CheckVerdict,
    abelianization,
    _check_images,
    assemble_certificate,
    collapse_by_derivation,
    diagonal_of,
    dump_json,
    embedding_by_rewriting,
    smith_normal_form,
)

W = parse_word
PASS, FAIL, UNKNOWN = CheckVerdict


# -- independent linear-algebra oracles, kept local to the tests


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def bareiss_det(m):
    """Fraction-free integer determinant."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinantal_divisors(m):
    """gcd of all k x k minors, brute force; d_k = g_k / g_(k-1)."""
    r, n = len(m), len(m[0]) if m else 0
    divisors = []
    for k in range(1, min(r, n) + 1):
        g = 0
        for rows in itertools.combinations(range(r), k):
            for cols in itertools.combinations(range(n), k):
                minor = [[m[i][j] for j in cols] for i in rows]
                g = math.gcd(g, abs(bareiss_det(minor)))
        divisors.append(g)
    return divisors


def test_snf_hundred_random_matrices_self_check():
    rng = random.Random(2024)
    for trial in range(100):
        r = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
        d, u, v = smith_normal_form(a)
        # exact decomposition
        assert mat_mul(mat_mul(u, a), v) == d, (trial, a)
        # unimodular transforms
        assert abs(bareiss_det(u)) == 1
        assert abs(bareiss_det(v)) == 1
        # diagonal, nonnegative, divisibility chain
        diag = diagonal_of(d)
        for i in range(len(d)):
            for j in range(len(d[0])):
                if i != j:
                    assert d[i][j] == 0
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        # canonical: brute-force determinantal divisors pin each d_k
        gk = determinantal_divisors(a)
        prev = 1
        for k, g in enumerate(gk):
            expected = 0 if g == 0 else g // prev
            assert diag[k] == expected, (trial, a, diag, gk)
            if g == 0:
                break
            prev = g


def test_abelianization_examples():
    assert abelianization(parse_presentation("group\ngens: a\nrels: a^5 = 1")) == AbelianInvariants((5,), 0)
    free_ab = parse_presentation("group\ngens: a, b\nrels: a b a^-1 b^-1 = 1")
    assert abelianization(free_ab) == AbelianInvariants((), 2)
    canonical = parse_presentation("group\ngens: a, b\nrels: a^2 = 1, b^3 = 1, a b a^-1 b^-1 = 1")
    assert abelianization(canonical) == AbelianInvariants((6,), 0)


def test_abelianization_rejects_monoids():
    with pytest.raises(ValidationError):
        abelianization(parse_presentation("monoid\ngens: g\nrels:"))


def test_abelianization_invariance_under_tietze_and_renaming():
    p = parse_presentation("group\ngens: a, b, c\nrels: c = a b, a^4 = 1, b^2 = a^2")
    inv = abelianization(p)
    assert abelianization(tietze_simplify(p)) == inv
    assert abelianization(rename_generators(p, {"a": "x", "b": "y", "c": "w"})) == inv
    shuffled = Presentation(Kind.GROUP, p.generators, p.relations[::-1])
    assert abelianization(shuffled) == inv


def merge_invariants(a, b):
    """Invariants of the direct sum of two abelian groups, re-canonicalized via SNF."""
    ts = list(a.torsion) + list(b.torsion)
    if not ts:
        return AbelianInvariants((), a.free_rank + b.free_rank)
    diag = [[ts[i] if i == j else 0 for j in range(len(ts))] for i in range(len(ts))]
    d, _, _ = smith_normal_form(diag)
    torsion = tuple(x for x in diagonal_of(d) if x > 1)
    return AbelianInvariants(torsion, a.free_rank + b.free_rank)


def test_invariants_merge_is_canonical():
    a = AbelianInvariants((2,), 1)
    b = AbelianInvariants((3,), 0)
    assert merge_invariants(a, b) == AbelianInvariants((6,), 1)
    c = AbelianInvariants((2, 4), 0)
    assert merge_invariants(c, AbelianInvariants((2,), 0)) == AbelianInvariants((2, 2, 4), 0)


def test_invariants_validation():
    with pytest.raises(ValidationError):
        AbelianInvariants((4, 2), 0)  # not a divisor chain
    with pytest.raises(ValidationError):
        AbelianInvariants((1,), 0)


def test_embedding_spot_check_identity():
    free = parse_presentation("monoid\ngens: x\nrels:")
    report = embedding_by_rewriting(free, free, {"x": W("x")}, Budget(), "embedding")
    assert report.verdict is CheckVerdict.PASS


def test_embedding_spot_check_collapse_detected():
    free = parse_presentation("monoid\ngens: x\nrels:")
    idem = parse_presentation("monoid\ngens: y\nrels: y^2 = y")
    report = embedding_by_rewriting(free, idem, {"x": W("y")}, Budget(), "embedding")
    assert report.verdict is CheckVerdict.FAIL
    assert report.witness == "x^2 | x"


# -- the reference collapse check: it completes the built monoid, and the
#    pipelines' derivation (`collapse_by_derivation`) is held to it


def collapse_check(
    built: Presentation,
    target: Presentation,
    projection: Mapping[str, Word],
    budget: Budget = Budget(),
    name: str = "collapse-check",
) -> CheckReport:
    """Decide whether `built` is the image of `target` plus the zero, by
    completing it; the pipelines prove the collapse by derivation
    (`collapse_by_derivation`), and the tests hold that proof to this.

    A target with generators must embed (`embedding_by_rewriting`).  Then
    each generator of `built` must equal an anchor: the image of the empty
    word or of a target letter, the identity or the zero.  A normal form of
    one letter is in the image only as an anchor's, so under a Complete
    system a generator that matches none fails at every length; under a
    Partial one it is blocked.  `comparisons` counts the anchors tried.
    """
    _check_images("projection", target, built, projection)
    notes = ""
    if target.generators:
        embedded = embedding_by_rewriting(target, built, projection, budget, name)
        if embedded.verdict is not CheckVerdict.PASS:
            return embedded
        notes = embedded.notes
    anchors = [Word()] + [projection[g] for g in target.generators] + [Word()]
    anchors += [Word.single(built.zero)] if built.zero is not None else []
    rs, nfs = normal_forms(built, anchors + [Word.single(g) for g in built.generators], budget)
    first = {nf: k for k, nf in reversed(list(enumerate(nfs[: len(anchors)])))}
    comparisons = blocked = 0
    for g, nf in zip(built.generators, nfs[len(anchors):]):
        # one comparison per anchor tried, up to the first match or all of them
        comparisons += first.get(nf, len(anchors) - 1) + 1
        if nf not in first and rs.complete:
            notes = "generator does not collapse onto the target image"
            used = {"comparisons": comparisons}
            return CheckReport(name, CheckVerdict.FAIL, witness=g, notes=notes, budget_used=used)
        blocked += nf not in first
    if blocked:
        notes = f"{blocked} comparisons exhausted the budget"
        used = {"comparisons": comparisons, "blocked": blocked}
        return CheckReport(name, CheckVerdict.UNKNOWN, notes=notes, budget_used=used)
    used = {"comparisons": comparisons}
    return CheckReport(name, CheckVerdict.PASS, notes=notes, budget_used=used)


def test_collapse_check_trivial_identity():
    trivial = parse_presentation("monoid\ngens:\nrels:")
    report = collapse_check(trivial, trivial, {})
    assert report.verdict is CheckVerdict.PASS


def test_collapse_check_free_generator_fails():
    built = parse_presentation("monoid\ngens: x\nrels:")
    trivial = parse_presentation("monoid\ngens:\nrels:")
    report = collapse_check(built, trivial, {})
    assert report.verdict is CheckVerdict.FAIL
    assert report.witness == "x"


def test_image_matches_the_stepwise_product():
    rng = random.Random(5903)
    letter = lambda: (rng.choice("abc"), rng.choice((-3, -2, -1, 1, 2, 3)))
    cancelled = 0
    for _ in range(500):
        w = Word(tuple((rng.choice("xy"), rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))))
        mapping = {g: Word(tuple(letter() for _ in range(rng.randint(0, 3)))) for g in "xy"}
        stepwise = Word()
        for s, e in w.letters:
            base = mapping[s] if e > 0 else mapping[s].inverse()
            for _ in range(abs(e)):
                stepwise = stepwise * base
        assert substitute(w, mapping) == stepwise, (w, mapping)
        cancelled += stepwise.length() < sum(abs(e) * mapping[s].length() for s, e in w.letters)
    assert cancelled >= 10


def test_check_reports_budget_blocked_is_unknown():
    hostile = parse_presentation("monoid\ngens: a, b\nrels: b a = a b, b b b = a a")
    free = parse_presentation("monoid\ngens: x\nrels:")
    report = embedding_by_rewriting(free, hostile, {"x": W("a")}, Budget(2, 4, 1), "embedding")
    assert report.verdict is CheckVerdict.UNKNOWN
    assert report.notes == "not proved: the big system is Partial"


@pytest.mark.parametrize(
    "target, projection, notes, used",
    [
        # no target letters: each generator is compared with the anchors
        ("monoid\ngens:\nrels:", {}, "2 comparisons exhausted the budget",
         {"comparisons": 4, "blocked": 2}),
        # target letters: the embedding names the hypothesis that failed
        ("monoid\ngens: x\nrels:", {"x": "a"}, "not proved: the big system is Partial", {}),
    ],
)
def test_collapse_check_budget_blocked_is_unknown(target, projection, notes, used):
    hostile = parse_presentation("monoid\ngens: a, b\nrels: b a = a b, b b b = a a")
    target = parse_presentation(target)
    projection = {g: W(img) for g, img in projection.items()}
    report = collapse_check(hostile, target, projection, Budget(2, 4, 1))
    assert report.verdict is CheckVerdict.UNKNOWN
    assert (report.notes, report.budget_used) == (notes, used)
    # with the default budget the system completes and the free b fails
    assert collapse_check(hostile, target, projection).verdict is CheckVerdict.FAIL


# -- the derivation of the Markov collapse, and the builds it must refuse


def _equal_build(s4="s4_idempotent.pres"):
    """markov-equal-idempotent over `s4`: G = g equals H = g g in S1."""
    load = lambda name: parse_presentation((corpus_dir() / name).read_text(encoding="utf-8"))
    inst = MarkovInstance(load("s0_free_x.pres"), load("s1_idempotent.pres"), load(s4), W("g"), W("g g"))
    return inst, markov_semigroup(inst)


def _with_relations(build, relations):
    p = build.presentation
    return Build(Presentation(p.kind, p.generators, relations, p.zero), build.trail, build.maps)


def test_collapse_by_derivation_passes_on_the_build():
    for s4, xi, relations in (("s4_trivial.pres", 6, 21), ("s4_idempotent.pres", 6, 24)):
        inst, build = _equal_build(s4)
        report = collapse_by_derivation(inst, build, "collapse-onto-s4")
        assert report.verdict is PASS, report
        assert report.notes == (
            f"G = H sets all {xi} xi to 1 (xi = xi c G d = xi c H d = c H d = c G d = 1),"
            " leaving S4 with a zero, into which S4 embeds"
        )
        assert report.budget_used == {"relations": relations}


def _refusal(build_relations, inst, build):
    report = collapse_by_derivation(inst, _with_relations(build, build_relations), "collapse")
    assert report.verdict is FAIL
    return report.witness, report.notes


def test_collapse_by_derivation_refuses_a_build_without_c_g_d_1():
    # the build of test_verify_markov_corrupted_construction_refuted
    inst, build = _equal_build("s4_trivial.pres")
    kept = [r for r in build.presentation.relations if str(r) != "c g d = 1"]
    assert len(kept) == len(build.presentation.relations) - 1
    assert _refusal(kept, inst, build) == ("c g d = 1", "not a relation of S_{G,H}")


def test_collapse_by_derivation_refuses_s4_letters_in_the_xi_range():
    # the relation family of a build that ranges xi over S4's letters too
    inst, build = _equal_build()
    chd = W("c g^2 d")
    extra = Relation(W("e") * chd, chd)
    got = _refusal(build.presentation.relations + (extra,), inst, build)
    assert got == ("e c g^2 d = c g^2 d", "left over once every xi is 1")


def test_collapse_by_derivation_refuses_an_extra_relation_among_s4_letters():
    inst, build = _equal_build()
    extra = Relation(W("e"), Word())
    got = _refusal(build.presentation.relations + (extra,), inst, build)
    assert got == ("e = 1", "left over once every xi is 1")


@pytest.mark.parametrize(
    "dropped, witness, notes",
    [
        ("g^2 = g", "g^2 = g", "not a relation of S_{G,H}"),  # S1's, which G = H needs
        ("d c g^2 d = c g^2 d", "d c g^2 d = c g^2 d", "not a relation of S_{G,H}"),
        ("e^2 = e", "e^2 = e", "not left once every xi is 1"),  # S4's own
    ],
)
def test_collapse_by_derivation_refuses_a_missing_relation(dropped, witness, notes):
    inst, build = _equal_build()
    kept = [r for r in build.presentation.relations if str(r) != dropped]
    assert len(kept) == len(build.presentation.relations) - 1
    assert _refusal(kept, inst, build) == (witness, notes)


def test_collapse_by_derivation_agrees_with_the_reference_on_the_bundled_rows():
    for row in parse_manifest(bundled_manifest()):
        if row.kind != "markov":
            continue
        inst = _markov_instance(_job_from_row(row, bundled_manifest().parent))
        if words_equal(inst.s1, inst.g, inst.h).value != "equal":
            continue
        build = markov_semigroup(inst)
        projection = {g: Word.single(img) for g, img in build.maps["s4"].items()}
        reference = collapse_check(build.presentation, inst.s4, projection)
        assert reference.verdict is PASS, row.name
        assert collapse_by_derivation(inst, build, "c").verdict is PASS, row.name


# -- a brute-force reference: every pair of words up to a length cutoff, one
#    `words_equal` call per comparison.  It is sound only up to the cutoff,
#    so it is the oracle the exact checks are held to on small instances.


def enumerate_words(generators, max_length):
    """All positive words over `generators` of length 0..max_length."""
    return [
        Word(tuple((s, 1) for s in combo))
        for k in range(max_length + 1)
        for combo in itertools.product(generators, repeat=k)
    ]


def reference_bounded_check(small, big, mapping, cutoff, budget, name, onto):
    lost = (
        "target words collapse in the built presentation"
        if onto
        else "distinct words collapse in the big presentation"
    )
    words = enumerate_words(small.generators, cutoff)
    images = [substitute(w, mapping) for w in words]
    comparisons = 0
    blocked = 0

    def fail(witness, notes):
        return CheckReport(
            name, CheckVerdict.FAIL, witness=witness, notes=notes,
            budget_used={"comparisons": comparisons},
        )

    for i, wa in enumerate(words):
        for j in range(i + 1, len(words)):
            inner = words_equal(small, wa, words[j], budget)
            comparisons += 1
            if inner.value == "unknown":
                blocked += 1
                continue
            if inner.value == "equal":
                continue
            outer = words_equal(big, images[i], images[j], budget)
            if outer.value == "equal":
                return fail(f"{wa} | {words[j]}", lost)
            if outer.value == "unknown":
                blocked += 1
    if onto:
        anchors = images + [Word()]
        if big.zero is not None:
            anchors.append(Word.single(big.zero))
        for g in big.generators:
            gw = Word.single(g)
            matched = False
            saw_unknown = False
            for anchor in anchors:
                verdict = words_equal(big, gw, anchor, budget)
                comparisons += 1
                if verdict.value == "equal":
                    matched = True
                    break
                if verdict.value == "unknown":
                    saw_unknown = True
            if not matched:
                if not saw_unknown:
                    return fail(str(g), "generator does not collapse onto the target image")
                blocked += 1
    if blocked:
        return CheckReport(
            name, CheckVerdict.UNKNOWN, notes=f"{blocked} comparisons exhausted the budget",
            budget_used={"comparisons": comparisons, "blocked": blocked},
        )
    return CheckReport(name, CheckVerdict.PASS, budget_used={"comparisons": comparisons})


def _random_positive_word(rng, gens, max_len):
    return Word(tuple((rng.choice(gens), 1) for _ in range(rng.randint(0, max_len))))


def _random_pair_monoid(rng, gens, fewest, most):
    rels = tuple(
        Relation(_random_positive_word(rng, gens, 4), _random_positive_word(rng, gens, 4))
        for _ in range(rng.randint(fewest, most))
    )
    return Presentation(Kind.MONOID, gens, rels)


def assert_pair_witness_is_sound(small, big, mapping, witness, budget):
    """A Fail's pair: distinct in `small`, with images equal in `big`."""
    u, v = (W(side) for side in witness.split(" | "))
    assert words_equal(small, u, v, budget).value == "distinct", witness
    images = (substitute(w, mapping) for w in (u, v))
    assert words_equal(big, *images, budget).value == "equal", witness


# -- the exact checks, held to the reference


def _prove(small, big, mapping, budget=Budget()):
    return embedding_by_rewriting(small, big, mapping, budget, "embedding")


def test_embedding_proof_passes_only_where_the_reference_passes():
    # letter maps from 2-letter monoids, some with a zero, into 3-letter
    # ones that mostly carry the small relations over the images; some
    # maps send both letters to one letter or one to a word of two
    rng = random.Random(7727)
    budgets = (Budget(3, 5, 4), Budget(60, 12, 600))
    verdicts = {v: 0 for v in CheckVerdict}
    proved_non_free = proved_with_zero = 0
    for trial in range(120):
        small = _random_pair_monoid(rng, ("x", "y"), 0, 1)
        letters = dict(zip(small.generators, rng.sample(("a", "b", "c"), 2)))
        carried = rename_generators(Presentation(Kind.MONOID, ("x", "y"), small.relations), letters)
        extra = _random_pair_monoid(rng, ("a", "b", "c"), 0, 1).relations
        kept = carried.relations if rng.random() < 0.8 else ()
        big = Presentation(Kind.MONOID, ("a", "b", "c"), kept + extra)
        if rng.random() < 0.4:
            small = adjoin_zero(small, "z")
            big = adjoin_zero(big, "o") if rng.random() < 0.8 else big
            letters["z"] = big.zero or "c"
        pick = rng.random()
        if pick < 0.15:
            letters["y"] = letters["x"]
        elif pick < 0.25:
            letters["y"] = f"{letters['x']} {letters['y']}"
        mapping = {g: W(s) for g, s in letters.items()}
        budget = rng.choice(budgets)
        got = _prove(small, big, mapping, budget)
        verdicts[got.verdict] += 1
        if got.verdict is CheckVerdict.FAIL:
            assert_pair_witness_is_sound(small, big, mapping, got.witness, budget)
        elif got.verdict is CheckVerdict.PASS:
            cutoff = 4 if small.zero else rng.randint(4, 5)
            want = reference_bounded_check(small, big, mapping, cutoff, budget, "embedding", False)
            assert want.verdict is CheckVerdict.PASS, (trial, small, big, mapping, cutoff, budget)
            proved_non_free += bool(carried.relations)
            proved_with_zero += small.zero is not None
        else:
            assert got.notes.startswith("not proved: "), got
    # every verdict, and proofs of non-free small sides and of ones with a zero
    assert verdicts[PASS] >= 20 and verdicts[FAIL] >= 15 and verdicts[UNKNOWN] >= 20, verdicts
    assert proved_non_free >= 8 and proved_with_zero >= 3, (proved_non_free, proved_with_zero)


def test_collapse_is_exact_on_nontrivial_targets():
    # targets on x, y sent to a, b of a built monoid that carries the
    # target's relations (mostly), sometimes one more relation on a, b, and
    # a third letter c, which collapses onto an image letter, the identity
    # or the zero, or onto a b, or stays free
    rng = random.Random(3301)
    budget = Budget(60, 12, 600)
    verdicts = {v: 0 for v in CheckVerdict}
    pair_fails = generator_fails = 0
    for trial in range(120):
        target = _random_pair_monoid(rng, ("x", "y"), 0, 1)
        mapping = {"x": W("a"), "y": W("b")}
        carried = rename_generators(target, {"x": "a", "y": "b"}).relations
        kept = carried if rng.random() < 0.8 else ()
        if rng.random() < 0.3:
            kept += _random_pair_monoid(rng, ("a", "b"), 1, 1).relations
        built = Presentation(Kind.MONOID, ("a", "b", "c"), kept)
        if rng.random() < 0.5:
            built = adjoin_zero(built, "z")
        fate = rng.choice(["a", "b", "1", "z", "a b", None])
        if fate == "z" and built.zero is None:
            fate = None
        rels = built.relations + ((Relation(W("c"), W(fate)),) if fate else ())
        built = Presentation(Kind.MONOID, built.generators, rels, zero=built.zero)
        got = collapse_check(built, target, mapping, budget, "collapse")
        verdicts[got.verdict] += 1
        cutoff = rng.randint(4, 5)
        if got.verdict is CheckVerdict.PASS:
            want = reference_bounded_check(target, built, mapping, cutoff, budget, "collapse", True)
            assert want.verdict is CheckVerdict.PASS, (trial, target, built, cutoff)
        elif got.verdict is CheckVerdict.FAIL and " | " in got.witness:
            pair_fails += 1
            assert_pair_witness_is_sound(target, built, mapping, got.witness, budget)
        elif got.verdict is CheckVerdict.FAIL:
            # a generator that is neither the zero nor any target word's image
            generator_fails += 1
            g = Word.single(got.witness)
            others = [substitute(w, mapping) for w in enumerate_words(target.generators, cutoff)]
            others += [Word.single(built.zero)] if built.zero else []
            for w in others:
                assert words_equal(built, g, w, budget).value == "distinct", (trial, built, w)
    assert verdicts[PASS] >= 20 and verdicts[UNKNOWN] >= 10, verdicts
    assert pair_fails >= 10 and generator_fails >= 10, (pair_fails, generator_fails)


def test_embedding_proof_of_a_non_free_monoid():
    small = parse_presentation("monoid\ngens: x, w\nrels: x w = w x")
    big = parse_presentation("monoid\ngens: a, b, c\nrels: a b = b a, c a = c")
    mapping = {"x": W("a"), "w": W("b")}
    report = _prove(small, big, mapping)
    assert report.verdict is CheckVerdict.PASS
    assert report.notes == (
        "letters to distinct letters map irreducible words to irreducible words of Complete"
        " systems (1 and 2 rules): distinct at every length"
    )
    assert report.budget_used == {}
    want = reference_bounded_check(small, big, mapping, 5, Budget(), "embedding", False)
    assert want.verdict is CheckVerdict.PASS


FREE_XW = "monoid\ngens: x, w\nrels:"
FREE_AB = "monoid\ngens: a, b\nrels:"


@pytest.mark.parametrize(
    "small, big, mapping, budget, verdict, outcome",
    [
        # (a) not injective: x and w both go to a
        (FREE_XW, FREE_AB, {"x": "a", "w": "a"}, Budget(), FAIL, "x | w"),
        # (a) an image of two letters: an embedding all the same, which
        # the proof does not cover
        (FREE_XW, FREE_AB, {"x": "a b", "w": "b"}, Budget(), UNKNOWN,
         "not proved: the image of x is not a single letter"),
        # (a) an image equal to the zero
        (FREE_XW, "monoid\ngens: a, z\nzero: z\nrels: a z = z, z a = z, z z = z",
         {"x": "a", "w": "z"}, Budget(), FAIL, "x w | w"),
        # (b) one rule is too few for the big system
        (FREE_XW, "monoid\ngens: a, b, c\nrels: c a = a c, c b = b c",
         {"x": "a", "w": "b"}, Budget(max_rules=1), UNKNOWN, "not proved: the big system is Partial"),
        # (c) a big lhs over the images pulls back to an irreducible word
        (FREE_XW, "monoid\ngens: a, b\nrels: a b = b a", {"x": "a", "w": "b"}, Budget(), FAIL,
         "w x | x w"),
        # (d) a relation of small fails among the images: x and x w are
        # distinct in small, a and a b equal in big
        ("monoid\ngens: x, w\nrels: x w = w", "monoid\ngens: a, b\nrels: a b = a",
         {"x": "a", "w": "b"}, Budget(), FAIL, "x w | x"),
        # (d) alone: a b and b differ in the free big monoid, so the letter
        # map is no homomorphism, although no two words collapse
        ("monoid\ngens: x, w\nrels: x w = w", FREE_AB, {"x": "a", "w": "b"}, Budget(), UNKNOWN,
         "not proved: the relations of sub do not hold among the images"),
        # (a) alone: x and w share a letter, but they are equal in small
        ("monoid\ngens: x, w\nrels: w = x", FREE_AB, {"x": "a", "w": "a"}, Budget(), UNKNOWN,
         "not proved: two generators equal in sub map to one letter"),
    ],
)
def test_embedding_proof_declines_unless_every_hypothesis_holds(
    small, big, mapping, budget, verdict, outcome
):
    small, big = parse_presentation(small), parse_presentation(big)
    mapping = {g: W(img) for g, img in mapping.items()}
    report = _prove(small, big, mapping, budget)
    assert report.verdict is verdict
    if verdict is FAIL:
        assert report.witness == outcome
        assert_pair_witness_is_sound(small, big, mapping, report.witness, budget)
    else:
        assert report.notes == outcome


def test_embedding_proof_leaves_an_unknown_image_symbol_to_the_spot_check():
    # both checks reject a map into letters the big presentation lacks
    free = parse_presentation(FREE_XW)
    big = parse_presentation("monoid\ngens: a, b\nrels:")
    mapping = {"x": W("a"), "w": W("q")}
    with pytest.raises(ValidationError, match="inclusion image of w uses unknown symbol q"):
        _prove(free, big, mapping)
    with pytest.raises(ValidationError, match="projection image of w uses unknown symbol q"):
        collapse_check(big, free, mapping)
    with pytest.raises(ValidationError, match="no image for generator w"):
        _prove(free, big, {"x": W("a")})


def test_fail_requires_witness():
    with pytest.raises(ValidationError):
        CheckReport("x", CheckVerdict.FAIL)


def _report(name, verdict):
    witness = "w" if verdict is CheckVerdict.FAIL else None
    return CheckReport(name, verdict, witness=witness)


def test_assemble_certificate_policy():
    instance = {"name": "i"}
    PASS, FAIL, UNKNOWN = CheckVerdict.PASS, CheckVerdict.FAIL, CheckVerdict.UNKNOWN
    cases = [
        ([PASS], "proved"),
        ([PASS, PASS], "proved"),
        ([PASS, FAIL], "refuted"),
        ([PASS, UNKNOWN], "unknown"),
        ([UNKNOWN, PASS, PASS], "unknown"),
        ([UNKNOWN, FAIL], "refuted"),
    ]
    for verdicts, overall in cases:
        reports = [_report(name, v) for name, v in zip("abc", verdicts)]
        assert assemble_certificate(instance, "c", reports).overall.value == overall, verdicts
    with pytest.raises(ValidationError):
        assemble_certificate(instance, "c", [])


def test_certificate_json_field_order():
    cert = assemble_certificate({"name": "i"}, "c", [_report("a", CheckVerdict.PASS)])
    payload = cert.to_json()
    first = payload.index('"instance"')
    assert first < payload.index('"construction"') < payload.index('"checks"')
    assert payload.index('"overall"') < payload.index('"version"') < payload.index('"elapsed_ms"')


def _random_json(rng, depth):
    pick = rng.randrange(9 if depth < 4 else 5)
    if pick == 0:
        # quotes, escapes, control characters, non-ASCII, astral, a lone surrogate
        chars = ["a", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "😀", "\ud800"]
        return "".join(rng.choice(chars) for _ in range(rng.randint(0, 6)))
    if pick == 1:
        return rng.choice([0, 1, -1, 7, -(2**70), 2**70])
    if pick == 2:
        return rng.choice([True, False])
    if pick in (3, 4):
        return None if pick == 3 else rng.choice([{}, [], ()])
    if pick in (5, 6):
        return [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    keys = [str(_random_json(rng, 4)) for _ in range(rng.randint(0, 4))]
    return {key: _random_json(rng, depth + 1) for key in keys}


def test_dump_json_writes_what_json_dumps_writes():
    rng = random.Random(1789)
    for _ in range(500):
        payload = {"top": _random_json(rng, 0), "more": [_random_json(rng, 1) for _ in range(3)]}
        assert dump_json(payload) == json.dumps(payload, indent=2)
    for scalar in ("é\n\"", 0, -5, True, None, [], {}, ()):
        assert dump_json(scalar) == json.dumps(scalar, indent=2)
    for unsupported in (1.5, {1: "a"}, {"a": {None: 1}}, b"x"):
        with pytest.raises(TypeError):
            dump_json(unsupported)


def test_bundled_certificates_are_written_as_json_dumps_writes_them():
    manifest = bundled_manifest()
    rows = parse_manifest(manifest)
    for row in rows:
        text = run_job(_job_from_row(row, manifest.parent, RunConfig()), RunConfig()).to_json()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", row.name
    assert len(rows) == 22
