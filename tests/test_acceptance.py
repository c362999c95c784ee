"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time limit is pinned here.
"""

import io
import itertools
import json
import math
import random
import time

from fpkit.cli import (
    EXIT_PROVED,
    GroupTestJob,
    RunConfig,
    cmd_corpus,
    parse_manifest,
    verify_test_group,
)
from fpkit.constructions import (
    GroupTestInstance,
    MarkovInstance,
    XiRange,
    markov_property_reduction,
    markov_semigroup,
    triviality_test_group,
    PropertySpec,
    Mode,
)
from fpkit.corpus import bundled_manifest, corpus_dir
from fpkit.coset import EnumLimits, is_trivial, todd_coxeter
from fpkit.presentations import (
    Kind,
    Presentation,
    Word,
    decode_word,
    parse_presentation,
    parse_word,
    rename_generators,
    tietze_simplify,
)
from fpkit.rewriting import (
    Budget,
    Completeness,
    Verdict,
    knuth_bendix,
    normal_form,
    words_equal,
)
from fpkit.verify import (
    AbelianInvariants,
    CheckVerdict,
    abelianization,
    collapse_check,
    diagonal_of,
    embedding_spot_check,
    smith_normal_form,
)
from test_verify import merge_invariants

W = parse_word
CORPUS = corpus_dir()
LIMITS = EnumLimits(10_000, 1_000_000)


class Timer:
    def __init__(self, budget_s):
        self.budget_s = budget_s
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget_s, f"runtime {elapsed:.1f}s exceeds {self.budget_s}s"
        return elapsed


def _load(name):
    return parse_presentation((CORPUS / name).read_text(encoding="utf-8"))


def _manifest_rows(kind):
    return [r for r in parse_manifest(bundled_manifest()) if r.kind == kind]


def _markov_instance(row):
    return MarkovInstance(
        _load(row.inputs["s0"]),
        _load(row.inputs["s1"]),
        _load(row.inputs["s4"]),
        W(row.inputs["G"]),
        W(row.inputs["H"]),
        xi_range=XiRange(row.inputs["xi"]),
    )


def test_criterion_1_rewriting_soundness():
    timer = Timer(1.0)
    p = parse_presentation("monoid\ngens: a, b\nrels: b a = a b")
    rs = knuth_bendix(p)
    assert rs.status is Completeness.COMPLETE
    rules = [(decode_word(p, r.lhs), decode_word(p, r.rhs)) for r in rs.rules]
    assert rules == [(parse_word("b a"), parse_word("a b"))]

    rng = random.Random(99)
    for _ in range(1000):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 14)))
        v = u
        for _ in range(rng.randint(1, 8)):  # equal by construction
            if rng.random() < 0.5:
                v = v.replace("ba", "ab", 1)
            else:
                i = v.find("ab")
                if i >= 0:
                    v = v[:i] + "ba" + v[i + 2:]
        nu = normal_form(rs, Word(tuple((s, 1) for s in u)))
        nv = normal_form(rs, Word(tuple((s, 1) for s in v)))
        assert nu == nv, (u, v)
    elapsed = timer.check()
    print(f"\nACCEPTANCE 1 (rewriting soundness): PASS in {elapsed:.2f}s")


def test_criterion_2_enumeration_soundness():
    timer = Timer(5.0)
    c5 = todd_coxeter(parse_presentation("group\ngens: a\nrels: a^5 = 1"), (), LIMITS)
    assert c5.closed and c5.index == 5
    klein = todd_coxeter(
        parse_presentation("group\ngens: a, b\nrels: a^2 = 1, b^2 = 1, a b a b = 1"),
        (),
        LIMITS,
    )
    assert klein.closed and klein.index == 4
    trivial = parse_presentation("group\ngens: a, b\nrels: a b a^-1 = b^2, b a b^-1 = a^2")
    verdict = is_trivial(trivial, LIMITS)
    assert verdict.is_trivial
    elapsed = timer.check()
    print(f"\nACCEPTANCE 2 (enumeration soundness): PASS in {elapsed:.2f}s")


# independent integer oracles for criterion 3 (local on purpose)


def _det(m):
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign, prev = 1, 1
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


def _mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_criterion_3_abelianization_oracle():
    timer = Timer(30.0)
    assert abelianization(parse_presentation("group\ngens: a\nrels: a^5 = 1")) == AbelianInvariants((5,), 0)
    assert abelianization(
        parse_presentation("group\ngens: a, b\nrels: a b a^-1 b^-1 = 1")
    ) == AbelianInvariants((), 2)
    assert abelianization(
        parse_presentation("group\ngens: a, b\nrels: a^2 = 1, b^3 = 1, a b a^-1 b^-1 = 1")
    ) == AbelianInvariants((6,), 0)

    rng = random.Random(31337)
    for trial in range(100):
        r, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
        d, u, v = smith_normal_form(a)
        assert _mul(_mul(u, a), v) == d
        assert abs(_det(u)) == 1 and abs(_det(v)) == 1
        diag = diagonal_of(d)
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        # determinantal-divisor verification of canonicity, brute force
        prev = 1
        for k in range(1, min(r, n) + 1):
            g = 0
            for rows in itertools.combinations(range(r), k):
                for cols in itertools.combinations(range(n), k):
                    minor = [[a[i][j] for j in cols] for i in rows]
                    g = math.gcd(g, abs(_det(minor)))
            expected = 0 if g == 0 else g // prev
            assert diag[k - 1] == expected, (trial, a)
            if g == 0:
                break
            prev = g
    elapsed = timer.check()
    print(f"\nACCEPTANCE 3 (abelianization oracle): PASS in {elapsed:.2f}s")


def test_criterion_4_markov_collapse_dichotomy():
    timer = Timer(30.0)
    rows = _manifest_rows("markov")
    equal_rows = []
    for row in rows:
        inst = _markov_instance(row)
        if words_equal(inst.s1, inst.g, inst.h) is Verdict.EQUAL:
            equal_rows.append((row, inst))
    assert len(equal_rows) >= 5
    for row, inst in equal_rows:
        build = markov_semigroup(inst)
        projection = {g: Word.single(img) for g, img in build.maps["s4"].items()}
        report = collapse_check(build.presentation, inst.s4, projection, cutoff=6)
        assert report.verdict is CheckVerdict.PASS, (row.name, report)
    elapsed = timer.check()
    print(f"\nACCEPTANCE 4 (Markov collapse on {len(equal_rows)} instances): PASS in {elapsed:.2f}s")


def test_criterion_5_markov_embedding_dichotomy():
    timer = Timer(30.0)
    rows = _manifest_rows("markov")
    distinct_rows = []
    for row in rows:
        inst = _markov_instance(row)
        if words_equal(inst.s1, inst.g, inst.h) is Verdict.DISTINCT:
            distinct_rows.append((row, inst))
    assert len(distinct_rows) >= 5
    for row, inst in distinct_rows:
        assert inst.s0.generators == ("x",) and not inst.s0.relations
        build = markov_semigroup(inst)
        inclusion = {g: Word.single(img) for g, img in build.maps["s0"].items()}
        report = embedding_spot_check(inst.s0, build.presentation, inclusion, cutoff=6)
        assert report.verdict is CheckVerdict.PASS, (row.name, report)
        # x, x^2, ..., x^6 stay pairwise distinct in the built monoid
        powers = [W("x").pow(k) for k in range(1, 7)]
        for wa, wb in itertools.combinations(powers, 2):
            assert words_equal(build.presentation, wa, wb) is Verdict.DISTINCT
    elapsed = timer.check()
    print(f"\nACCEPTANCE 5 (Markov embedding on {len(distinct_rows)} instances): PASS in {elapsed:.2f}s")


def test_criterion_6_group_test_dichotomy():
    timer = Timer(60.0)
    rows = _manifest_rows("test-group")
    equal_count = distinct_count = 0
    for row in rows:
        base = _load(row.inputs["base"])
        a_word = W(row.inputs["w"])
        b_word = W(row.inputs["b"]) if "b" in row.inputs else None
        inner = words_equal(base, a_word, b_word if b_word is not None else Word())
        build = triviality_test_group(GroupTestInstance(base, a_word, b_word))
        outer = is_trivial(build.presentation, LIMITS)
        assert inner is not Verdict.UNKNOWN, row.name
        assert outer.definite, row.name
        # zero contradictions between the two engines
        assert (inner is Verdict.EQUAL) == outer.is_trivial, (row.name, inner, outer)
        if inner is Verdict.EQUAL:
            equal_count += 1
        else:
            distinct_count += 1
            assert "abelianization" in outer.reason or "index" in outer.reason
    assert equal_count >= 3 and distinct_count >= 3
    elapsed = timer.check()
    print(
        f"\nACCEPTANCE 6 (group dichotomy, {equal_count} trivial / {distinct_count} nontrivial): "
        f"PASS in {elapsed:.2f}s"
    )


def test_criterion_7_property_reduction_composition():
    timer = Timer(5.0)
    spec = PropertySpec(
        "being the trivial group",
        parse_presentation("group\ngens:\nrels:"),
        parse_presentation("group\ngens: a\nrels:"),
        Mode.MARKOV,
    )
    trivial_test = parse_presentation("group\ngens: a\nrels: a = 1")
    assert is_trivial(trivial_test, LIMITS).is_trivial
    composed = markov_property_reduction(spec, trivial_test)
    assert tietze_simplify(composed.presentation) == Presentation(Kind.GROUP, ())

    nontrivial_test = parse_presentation("group\ngens: a\nrels:")
    composed = markov_property_reduction(spec, nontrivial_test)
    assert not abelianization(composed.presentation).is_trivial
    elapsed = timer.check()
    print(f"\nACCEPTANCE 7 (property reduction): PASS in {elapsed:.2f}s")


def test_criterion_8_determinism_and_structural_invariants():
    timer = Timer(60.0)

    def masked(cert_json):
        payload = json.loads(cert_json)
        payload["elapsed_ms"] = 0
        payload["version"] = "X"
        return json.dumps(payload, indent=2)

    job = GroupTestJob("det", CORPUS / "base_c5.pres", "a^2", "a^7", "rabin-ladder")
    one = verify_test_group(job, RunConfig()).to_json()
    two = verify_test_group(job, RunConfig()).to_json()
    assert masked(one) == masked(two)

    group_files = sorted(p.name for p in CORPUS.glob("*.pres"))
    groups = [
        _load(name)
        for name in group_files
        if _load(name).kind is Kind.GROUP
    ]
    assert len(groups) >= 8
    rng = random.Random(50)
    for _ in range(50):
        p, q = rng.choice(groups), rng.choice(groups)
        from fpkit.constructions import free_product

        assert abelianization(free_product(p, q)) == merge_invariants(
            abelianization(p), abelianization(q)
        )

    # tietze / renaming invariance on every corpus presentation that
    # abelianization is defined for (the group ones)
    for p in groups:
        inv = abelianization(p)
        assert abelianization(tietze_simplify(p)) == inv
        renaming = {g: f"w{i}" for i, g in enumerate(p.generators)}
        assert abelianization(rename_generators(p, renaming)) == inv
    elapsed = timer.check()
    print(f"\nACCEPTANCE 8 (determinism and invariants): PASS in {elapsed:.2f}s")


def test_criterion_9_end_to_end_corpus_gate():
    timer = Timer(180.0)
    buf = io.StringIO()
    rc = cmd_corpus(bundled_manifest(), RunConfig(jobs=1), out=buf)
    assert rc == EXIT_PROVED, buf.getvalue()
    table = buf.getvalue()
    assert "MISMATCH" not in table
    assert len([ln for ln in table.splitlines() if ln and not ln.startswith("instance")]) >= 16
    elapsed = timer.check()
    print(f"\nACCEPTANCE 9 (end-to-end corpus gate): PASS in {elapsed:.2f}s")
