import itertools
import math
import random

import pytest

from fpkit.constructions import MarkovInstance, XiRange, adjoin_zero, markov_semigroup
from fpkit.presentations import (
    Kind,
    Presentation,
    Relation,
    ValidationError,
    Word,
    parse_presentation,
    parse_word,
    rename_generators,
    tietze_simplify,
)
from fpkit.rewriting import Budget, Verdict, knuth_bendix, words_equal
from fpkit.verify import (
    AbelianInvariants,
    CheckReport,
    CheckVerdict,
    _image,
    abelianization,
    assemble_certificate,
    collapse_check,
    diagonal_of,
    embedding_by_rewriting,
    embedding_spot_check,
    enumerate_words,
    smith_normal_form,
)

W = parse_word


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
    report = embedding_spot_check(free, free, {"x": W("x")}, cutoff=5)
    assert report.verdict is CheckVerdict.PASS


def test_embedding_spot_check_collapse_detected():
    free = parse_presentation("monoid\ngens: x\nrels:")
    idem = parse_presentation("monoid\ngens: y\nrels: y^2 = y")
    report = embedding_spot_check(free, idem, {"x": W("y")}, cutoff=3)
    assert report.verdict is CheckVerdict.FAIL
    assert report.witness == "x | x^2"


def test_collapse_check_trivial_identity():
    trivial = parse_presentation("monoid\ngens:\nrels:")
    report = collapse_check(trivial, trivial, {}, cutoff=4)
    assert report.verdict is CheckVerdict.PASS


def test_collapse_check_free_generator_fails():
    built = parse_presentation("monoid\ngens: x\nrels:")
    trivial = parse_presentation("monoid\ngens:\nrels:")
    report = collapse_check(built, trivial, {}, cutoff=4)
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
        assert _image(w, mapping) == stepwise, (w, mapping)
        cancelled += stepwise.length() < sum(abs(e) * mapping[s].length() for s, e in w.letters)
    assert cancelled >= 10


def test_check_reports_budget_blocked_is_unknown():
    hostile = parse_presentation("monoid\ngens: a, b\nrels: b a = a b, b b b = a a")
    free = parse_presentation("monoid\ngens: x\nrels:")
    report = embedding_spot_check(free, hostile, {"x": W("a")}, cutoff=2, budget=Budget(2, 4, 1))
    assert report.verdict is CheckVerdict.UNKNOWN


# -- the per-pair bounded check, one `words_equal` call per comparison, kept
#    as the oracle for the loop that compares normal forms reduced once


def reference_bounded_check(small, big, mapping, cutoff, budget, name, onto):
    lost = (
        "target words collapse in the built presentation"
        if onto
        else "distinct words collapse in the big presentation"
    )
    words = enumerate_words(small.generators, cutoff)
    images = [_image(w, mapping) for w in words]
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
            if inner is Verdict.UNKNOWN:
                blocked += 1
                continue
            if inner is Verdict.EQUAL:
                continue
            outer = words_equal(big, images[i], images[j], budget)
            if outer is Verdict.EQUAL:
                return fail(f"{wa} | {words[j]}", lost)
            if outer is Verdict.UNKNOWN:
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
                if verdict is Verdict.EQUAL:
                    matched = True
                    break
                if verdict is Verdict.UNKNOWN:
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


def _random_monoid(rng, gens):
    gens = gens[:rng.randint(1, 2)]
    rels = tuple(
        Relation(_random_positive_word(rng, gens, 3), _random_positive_word(rng, gens, 3))
        for _ in range(rng.randint(0, 2))
    )
    p = Presentation(Kind.MONOID, gens, rels)
    return adjoin_zero(p, "z") if rng.random() < 0.3 else p


def test_bounded_checks_match_the_per_pair_reference():
    rng = random.Random(6151)
    budgets = (Budget(2, 4, 1), Budget(3, 5, 4), Budget(8, 8, 30), Budget(60, 12, 600))
    blocked_by_small = blocked_by_big = 0
    verdicts = set()
    # a zero monoid completes as its zero-free part, so under the tight
    # budgets fewer big sides stay Partial than the first 400 trials need
    for trial in range(700):
        small = _random_monoid(rng, ("x", "y"))
        big = _random_monoid(rng, ("a", "b"))
        mapping = {g: _random_positive_word(rng, big.generators, 2) for g in small.generators}
        cutoff = rng.randint(1, 3)
        budget = rng.choice(budgets)
        args = (mapping, cutoff, budget)
        embed = embedding_spot_check(small, big, *args)
        collapse = collapse_check(big, small, *args)
        for got, onto in ((embed, False), (collapse, True)):
            want = reference_bounded_check(small, big, *args, got.name, onto)
            assert got.as_dict() == want.as_dict(), (trial, small, big, mapping, cutoff, budget)
            verdicts.add(got.verdict)
        if embed.verdict is CheckVerdict.UNKNOWN:
            small_complete = knuth_bendix(small, budget).complete
            big_complete = knuth_bendix(big, budget).complete
            blocked_by_small += not small_complete and big_complete
            blocked_by_big += small_complete and not big_complete
    # the sample reaches every verdict, and comparisons blocked on either side alone
    assert verdicts == set(CheckVerdict)
    assert blocked_by_small >= 10 and blocked_by_big >= 10


def _random_pair_monoid(rng, gens, fewest, most):
    rels = tuple(
        Relation(_random_positive_word(rng, gens, 4), _random_positive_word(rng, gens, 4))
        for _ in range(rng.randint(fewest, most))
    )
    return Presentation(Kind.MONOID, gens, rels)


def test_grouped_checks_match_the_per_pair_reference_at_cutoffs_4_and_5():
    # 2-letter monoids, so the reference compares 465 (cutoff 4) or 1953
    # (cutoff 5) pairs; the small side has fewer relations, so that it is
    # Complete while the big side is Partial often enough
    rng = random.Random(4099)
    budgets = (Budget(2, 4, 1), Budget(3, 5, 4), Budget(8, 8, 30), Budget(60, 12, 600))
    late_fails = blocked_by_small = blocked_by_big = 0
    for trial in range(40):
        small = _random_pair_monoid(rng, ("x", "y"), 0, 1)
        big = _random_pair_monoid(rng, ("a", "b"), 1, 2)
        mapping = {
            g: Word(tuple((rng.choice(big.generators), 1) for _ in range(rng.randint(1, 2))))
            for g in small.generators
        }
        cutoff = rng.randint(4, 5)
        budget = rng.choice(budgets)
        args = (mapping, cutoff, budget)
        position = {str(w): k for k, w in enumerate(enumerate_words(small.generators, cutoff))}
        small_complete = knuth_bendix(small, budget).complete
        big_complete = knuth_bendix(big, budget).complete
        embed = embedding_spot_check(small, big, *args)
        collapse = collapse_check(big, small, *args)
        for got, onto in ((embed, False), (collapse, True)):
            want = reference_bounded_check(small, big, *args, got.name, onto)
            assert got.as_dict() == want.as_dict(), (trial, small, big, mapping, cutoff, budget)
            if got.verdict is CheckVerdict.FAIL and " | " in got.witness:
                i, j = (position[w] for w in got.witness.split(" | "))
                late_fails += i > 0 and j > i + 1
            if got.verdict is CheckVerdict.UNKNOWN:
                blocked_by_small += not small_complete and big_complete
                blocked_by_big += small_complete and not big_complete
    # a Fail at neither the empty word nor its first partner, and Unknowns
    # blocked on either side alone
    assert late_fails and blocked_by_small and blocked_by_big, (late_fails, blocked_by_small, blocked_by_big)


def test_roadmap_timing_instance_counts_are_pinned():
    # free x, w into the Markov monoid with G = s t, H = t s over free s, t
    s0 = Presentation(Kind.MONOID, ("x", "w"))
    s1 = Presentation(Kind.MONOID, ("s", "t"))
    inst = MarkovInstance(
        s0, s1, Presentation(Kind.MONOID, ()), W("s t"), W("t s"),
        xi_range=XiRange.ALL_GENERATORS,
    )
    build = markov_semigroup(inst)
    inclusion = {g: Word.single(img) for g, img in build.maps["s0"].items()}
    for cutoff, comparisons in ((6, 8001), (7, 32385), (8, 130305), (10, 2094081)):
        report = embedding_spot_check(s0, build.presentation, inclusion, cutoff=cutoff)
        assert report.verdict is CheckVerdict.PASS
        assert report.budget_used == {"comparisons": comparisons}


# -- the embedding proof: it may only pass where the bounded check cannot fail


def _prove(small, big, mapping, budget=Budget()):
    return embedding_by_rewriting(small, big, mapping, budget, "embedding")


def test_embedding_proof_passes_only_where_the_reference_passes():
    # letter-to-letter maps from 2-letter monoids, some with a zero, into
    # 3-letter ones that mostly carry the small relations over the images
    rng = random.Random(7727)
    budgets = (Budget(3, 5, 4), Budget(60, 12, 600))
    proved = proved_non_free = proved_with_zero = declined_fails = 0
    for trial in range(40):
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
        mapping = {g: W(s) for g, s in letters.items()}
        budget = rng.choice(budgets)
        cutoff = 4 if small.zero else rng.randint(4, 5)
        got = _prove(small, big, mapping, budget)
        if got is None:
            spot = embedding_spot_check(small, big, mapping, cutoff, budget)
            declined_fails += spot.verdict is CheckVerdict.FAIL
            continue
        assert got.verdict is CheckVerdict.PASS
        want = reference_bounded_check(small, big, mapping, cutoff, budget, "embedding", False)
        assert want.verdict is CheckVerdict.PASS, (trial, small, big, mapping, cutoff, budget)
        proved += 1
        proved_non_free += bool(carried.relations)
        proved_with_zero += small.zero is not None
    # the proof applies to free and non-free small sides, with a zero too,
    # and declines some maps that do collapse words
    assert proved >= 10 and proved_non_free >= 3 and proved_with_zero >= 2, proved
    assert declined_fails >= 3


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
    assert embedding_spot_check(small, big, mapping, cutoff=5).verdict is CheckVerdict.PASS


FREE_XW = "monoid\ngens: x, w\nrels:"
FREE_AB = "monoid\ngens: a, b\nrels:"
PASS, FAIL, UNKNOWN = CheckVerdict


@pytest.mark.parametrize(
    "small, big, mapping, budget, spot",
    [
        # (a) not injective: x and w both go to a
        (FREE_XW, FREE_AB, {"x": "a", "w": "a"}, Budget(), FAIL),
        # (a) an image of two letters: an embedding all the same
        (FREE_XW, FREE_AB, {"x": "a b", "w": "b"}, Budget(), PASS),
        # (a) an image equal to the zero
        (FREE_XW, "monoid\ngens: a, z\nzero: z\nrels: a z = z, z a = z, z z = z",
         {"x": "a", "w": "z"}, Budget(), FAIL),
        # (b) one rule is too few for the big system
        (FREE_XW, "monoid\ngens: a, b, c\nrels: c a = a c, c b = b c",
         {"x": "a", "w": "b"}, Budget(max_rules=1), UNKNOWN),
        # (c) a big lhs over the images pulls back to an irreducible word
        (FREE_XW, "monoid\ngens: a, b\nrels: a b = b a", {"x": "a", "w": "b"}, Budget(), FAIL),
        # (d) a relation of small fails among the images: x and x w are
        # distinct in small, a and a b equal in big, yet the lhs a b pulls
        # back to the reducible x w
        ("monoid\ngens: x, w\nrels: x w = w", "monoid\ngens: a, b\nrels: a b = a",
         {"x": "a", "w": "b"}, Budget(), FAIL),
    ],
)
def test_embedding_proof_declines_unless_every_hypothesis_holds(small, big, mapping, budget, spot):
    small, big = parse_presentation(small), parse_presentation(big)
    mapping = {g: W(img) for g, img in mapping.items()}
    assert _prove(small, big, mapping, budget) is None
    # the spot check then decides, and finds the collapses
    assert embedding_spot_check(small, big, mapping, 4, budget).verdict is spot


def test_embedding_proof_leaves_an_unknown_image_symbol_to_the_spot_check():
    free = parse_presentation(FREE_XW)
    big = parse_presentation("monoid\ngens: a, b\nrels:")
    mapping = {"x": W("a"), "w": W("q")}
    assert _prove(free, big, mapping) is None
    with pytest.raises(ValidationError, match="inclusion image of w uses unknown symbol q"):
        embedding_spot_check(free, big, mapping)


def test_fail_requires_witness():
    with pytest.raises(ValidationError):
        CheckReport("x", CheckVerdict.FAIL)


def _report(name, verdict):
    witness = "w" if verdict is CheckVerdict.FAIL else None
    return CheckReport(name, verdict, witness=witness)


def test_assemble_certificate_policy():
    instance = {"name": "i"}
    cert = assemble_certificate(instance, "c", [_report("a", CheckVerdict.PASS)], ["a"])
    assert cert.overall.value == "proved"
    cert = assemble_certificate(
        instance, "c", [_report("a", CheckVerdict.PASS), _report("b", CheckVerdict.FAIL)], ["a"]
    )
    assert cert.overall.value == "refuted"
    cert = assemble_certificate(
        instance, "c", [_report("a", CheckVerdict.PASS), _report("b", CheckVerdict.UNKNOWN)], ["a", "b"]
    )
    assert cert.overall.value == "unknown"
    with pytest.raises(ValidationError):
        assemble_certificate(instance, "c", [], ["a"])


def test_certificate_json_field_order():
    cert = assemble_certificate({"name": "i"}, "c", [_report("a", CheckVerdict.PASS)], ["a"])
    payload = cert.to_json()
    first = payload.index('"instance"')
    assert first < payload.index('"construction"') < payload.index('"checks"')
    assert payload.index('"overall"') < payload.index('"version"') < payload.index('"elapsed_ms"')
