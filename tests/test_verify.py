import itertools
import json
import math
import random

import pytest

from fpkit.cli import RunConfig, _job_from_row, parse_manifest, run_job
from fpkit.constructions import adjoin_zero
from fpkit.corpus import bundled_manifest
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
from fpkit.rewriting import Budget, Verdict, words_equal
from fpkit.verify import (
    AbelianInvariants,
    CheckReport,
    CheckVerdict,
    abelianization,
    assemble_certificate,
    collapse_check,
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


def _random_pair_monoid(rng, gens, fewest, most):
    rels = tuple(
        Relation(_random_positive_word(rng, gens, 4), _random_positive_word(rng, gens, 4))
        for _ in range(rng.randint(fewest, most))
    )
    return Presentation(Kind.MONOID, gens, rels)


def assert_pair_witness_is_sound(small, big, mapping, witness, budget):
    """A Fail's pair: distinct in `small`, with images equal in `big`."""
    u, v = (W(side) for side in witness.split(" | "))
    assert words_equal(small, u, v, budget) is Verdict.DISTINCT, witness
    images = (substitute(w, mapping) for w in (u, v))
    assert words_equal(big, *images, budget) is Verdict.EQUAL, witness


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
                assert words_equal(built, g, w, budget) is Verdict.DISTINCT, (trial, built, w)
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
    assert len(rows) == 20
