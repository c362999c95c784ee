import ast
import dataclasses
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fpkit
from fpkit import cli
from fpkit.cli import (
    EXIT_PROVED,
    EXIT_REFUTED,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    Job,
    ManifestRow,
    RunConfig,
    _build_parser,
    _forked_map,
    _job_from_row,
    _report,
    cmd_corpus,
    main,
    parse_manifest,
    run_job,
    verify_markov,
    verify_property,
    verify_test_group,
)
from fpkit import rewriting
from fpkit.constructions import GroupTestInstance, markov_semigroup, triviality_test_group
from fpkit.corpus import bundled_manifest, corpus_dir
from fpkit.coset import EnumLimits, is_trivial
from fpkit.rewriting import Budget, words_equal
from fpkit.presentations import (
    ParseError,
    Presentation,
    PresentationError,
    ValidationError,
    Word,
    parse_presentation,
    parse_word as W,
    serialize_presentation,
)
from fpkit.verify import CheckVerdict
from test_verify import collapse_check

CORPUS = corpus_dir()


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "fpkit.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_manifest_parses():
    rows = parse_manifest(bundled_manifest())
    assert len(rows) >= 16
    kinds = {r.kind for r in rows}
    assert kinds == {"markov", "test-group", "property"}
    assert all(r.expected == "proved" for r in rows)


def test_manifest_errors_are_reported(tmp_path):
    bad = tmp_path / "m.tsv"
    bad.write_text("too\tfew\tfields\n", encoding="utf-8")
    with pytest.raises(Exception, match="4 tab-separated"):
        parse_manifest(bad)
    bad.write_text("n\tmystery\ta=b\tproved\n", encoding="utf-8")
    with pytest.raises(Exception, match="unknown instance type"):
        parse_manifest(bad)


def test_empty_manifest_is_vacuous_success(tmp_path):
    empty = tmp_path / "m.tsv"
    empty.write_text("# nothing here\n", encoding="utf-8")
    buf = io.StringIO()
    assert cmd_corpus(empty, RunConfig(jobs=1), out=buf) == EXIT_PROVED


def test_corpus_mismatch_flagged(tmp_path):
    wrong = tmp_path / "m.tsv"
    wrong.write_text(
        "bad-expectation\ttest-group\t"
        f"base={CORPUS / 'base_z.pres'};w=a\trefuted\n",
        encoding="utf-8",
    )
    buf = io.StringIO()
    assert cmd_corpus(wrong, RunConfig(jobs=1), out=buf) == EXIT_REFUTED
    assert "MISMATCH" in buf.getvalue()


def test_manifest_rejects_a_repeated_instance_name(tmp_path, capsys):
    # both rows would write one.cert.json, the second over the first
    manifest = tmp_path / "m.tsv"
    row = f"one\tmarkov\t{ROW_INPUTS['markov']}\tproved\n"
    manifest.write_text("# two rows named one\n" + row + row, encoding="utf-8")
    message = r"m\.tsv:3: instance name 'one' already used on line 2"
    with pytest.raises(PresentationError, match=message):
        parse_manifest(manifest)
    out_dir = tmp_path / "certs"
    assert main(["corpus", str(manifest), "--out", str(out_dir)]) == EXIT_USAGE
    assert "already used on line 2" in capsys.readouterr().err
    assert not out_dir.exists()


def test_manifest_rejects_an_instance_name_that_is_not_a_file_name(tmp_path, capsys):
    # `../escaped` would write out/escaped.cert.json from --out out/inner
    manifest = tmp_path / "m.tsv"
    out_dir = tmp_path / "out" / "inner"
    for name in ("../escaped", "a/b", "a\\b", "..", ".", ""):
        row = f"{name}\tmarkov\t{ROW_INPUTS['markov']}\tproved\n"
        manifest.write_text("# one row\n" + row, encoding="utf-8")
        message = rf"m\.tsv:2: instance name {re.escape(repr(name))} is not a file name"
        with pytest.raises(PresentationError, match=message):
            parse_manifest(manifest)
        assert main(["corpus", str(manifest), "--out", str(out_dir)]) == EXIT_USAGE
        assert "is not a file name" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the names the bundled corpus and the benchmark's batches use stay valid
    names = ("markov-equal-idempotent", "m12", "t3", "br7", "a.b", ".hidden")
    rows = "".join(f"{name}\tmarkov\t{ROW_INPUTS['markov']}\tproved\n" for name in names)
    manifest.write_text(rows, encoding="utf-8")
    assert [row.name for row in parse_manifest(manifest)] == list(names)


@pytest.mark.parametrize("command", ["verify", "build"])
def test_name_flag_that_is_not_a_file_name_is_a_usage_error(command, tmp_path, capsys):
    out_dir = tmp_path / "out" / "inner"
    base = str(CORPUS / "base_z.pres")
    for name in ("../x", "a/b", "a\\b", "..", ".", ""):
        args = [command, "test-group", base, "--w", "a", "--name", name, "--out", str(out_dir)]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --name {name!r} is not a file name\n"
    assert not (tmp_path / "out").exists()


def test_manifest_rejects_an_input_given_twice(tmp_path):
    # the last value used to win: this row ran with w=a^5 and was proved
    manifest = tmp_path / "m.tsv"
    row = f"twice\ttest-group\tbase={CORPUS / 'base_c5.pres'};w=a; w = a^5\tproved\n"
    manifest.write_text(row, encoding="utf-8")
    with pytest.raises(PresentationError, match=r"m\.tsv:1: input 'w' given twice"):
        parse_manifest(manifest)


def test_manifest_rejects_inputs_its_kind_does_not_read(tmp_path, capsys):
    # `W=b` is a typo for `b=b`, `xi` and `cutoff` are not test-group inputs,
    # and the test group has one construction, so no row names a recipe
    manifest = tmp_path / "m.tsv"
    base = CORPUS / "base_z.pres"
    for extra in ("W=b", "xi=all", "cutoff=3", "recipe=rabin-ladder"):
        row = f"typo\ttest-group\tbase={base};w=a;{extra}\tproved\n"
        manifest.write_text(row, encoding="utf-8")
        assert main(["corpus", str(manifest)]) == EXIT_USAGE
        key = extra.partition("=")[0]
        assert f"error: instance typo: unknown input {key}\n" in capsys.readouterr().err


# the bundled row markov-equal-idempotent: G = g equals H = g g in S1
IDEMPOTENT = {
    "s0": CORPUS / "s0_free_x.pres",
    "s1": CORPUS / "s1_idempotent.pres",
    "s4": CORPUS / "s4_trivial.pres",
    "G": "g",
    "H": "g g",
}


def test_verify_markov_equal_instance_proved():
    job = Job("markov", "t", IDEMPOTENT)
    cert = verify_markov(job, RunConfig())
    assert cert.overall.value == "proved"
    names = [c.name for c in cert.checks]
    assert names == ["s1-word-problem", "collapse-onto-s4"]


def test_verify_markov_corrupted_construction_refuted():
    # S_GH without its relation c G d = 1 does not collapse onto S4
    inst = cli._markov_instance(Job("markov", "t", IDEMPOTENT))
    build = markov_semigroup(inst)
    built = build.presentation
    dropped = tuple(
        r for r in built.relations if not (str(r.lhs) == "c g d" and r.rhs.is_empty)
    )
    assert len(dropped) == len(built.relations) - 1
    corrupt = Presentation(built.kind, built.generators, dropped, built.zero)

    projection = {g: Word.single(img) for g, img in build.maps["s4"].items()}
    report = collapse_check(corrupt, inst.s4, projection, Budget(), "collapse-onto-s4")
    assert report.verdict is CheckVerdict.FAIL
    assert report.witness == "x"
    assert report.notes == "generator does not collapse onto the target image"
    # the real S_GH collapses
    real = collapse_check(built, inst.s4, projection, Budget(), "collapse-onto-s4")
    assert real.verdict is CheckVerdict.PASS


def test_verify_markov_builds_no_s_gh_when_the_word_problem_is_unknown(tmp_path, monkeypatch):
    builds = []
    build = cli.markov_semigroup
    monkeypatch.setattr(cli, "markov_semigroup", lambda inst: builds.append(inst) or build(inst))
    # the braid monoid has no finite shortlex system, so 10 rules leave it Partial
    braid = tmp_path / "braid.pres"
    braid.write_text("monoid\ngens: a, b\nrels: a b a = b a b\n", encoding="utf-8")
    s0, s4 = CORPUS / "s0_free_x.pres", CORPUS / "s4_trivial.pres"
    config = RunConfig(rewrite_budget=Budget(10, 20, 100))
    inputs = {"s0": s0, "s1": braid, "s4": s4, "G": "a a b", "H": "b a a"}
    job = Job("markov", "br", inputs)
    cert = json.loads(verify_markov(job, config).to_json())
    del cert["elapsed_ms"], cert["version"]
    assert cert == {
        "instance": {
            "name": "br",
            "type": "markov",
            "inputs": {
                "G": "a a b",
                "H": "b a a",
                "s0": "s0_free_x.pres",
                "s1": "braid.pres",
                "s4": "s4_trivial.pres",
            },
        },
        "construction": "markov-semigroup",
        "recipe": None,
        "xi_range": "all",
        "checks": [
            {
                "name": "s1-word-problem",
                "verdict": "unknown",
                "witness": None,
                "notes": "G vs H in S1: unknown",
                "budget_used": {},
            }
        ],
        "overall": "unknown",
    }
    # an S1 too wide for letter codes fails in its word problem, as before
    wide = tmp_path / "wide.pres"
    wide.write_text(
        "monoid\ngens: " + ", ".join(f"g{i}" for i in range(129)) + "\nrels:\n", encoding="utf-8"
    )
    job = Job("markov", "w", {**inputs, "s1": wide, "G": "g0", "H": "g1"})
    with pytest.raises(ValidationError, match="129 generators"):
        verify_markov(job, config)
    assert builds == []


def test_verify_markov_equal_side_completes_only_s1(monkeypatch):
    # the collapse is derived from the built relations; no system of S_GH is completed
    completed = []
    normal_forms = rewriting.normal_forms
    monkeypatch.setattr(
        rewriting, "normal_forms", lambda p, *a: completed.append(p) or normal_forms(p, *a)
    )
    job = Job("markov", "t", {**IDEMPOTENT, "s4": CORPUS / "s4_idempotent.pres"})
    cert = verify_markov(job, RunConfig())
    assert cert.overall.value == "proved"
    assert [p.generators for p in completed] == [("g",)]


def test_verify_test_group_equal_side_builds_no_test_group(monkeypatch):
    built, enumerated = [], []
    build = cli.triviality_test_group
    monkeypatch.setattr(
        cli, "triviality_test_group", lambda inst: built.append(inst.test_word) or build(inst)
    )
    monkeypatch.setattr(cli, "is_trivial", lambda *a: enumerated.append(a))
    monkeypatch.setattr(cli, "_t1_verdicts", type(cli._t1_verdicts)())
    klein = CORPUS / "base_klein.pres"
    for w, b in (("a b", "b a"), ("a^2", None), ("b a b", "a")):
        job = Job("test-group", "k", {"base": klein, "w": w, **({"b": b} if b else {})})
        cert = verify_test_group(job, RunConfig())
        assert cert.overall.value == "proved"
        notes = [c.notes for c in cert.checks]
        assert notes == [
            "A vs B in the base: equal",
            "trivial (w = 1, so T_w is T_1, which 7 Tietze eliminations kill)",
            "words equal and test group trivial",
        ]
    # only the first row built a test group, T_1; a renamed base finds its proof cached
    renamed = parse_presentation("group\ngens: u, v\nrels: u^2 = 1, v^2 = 1, u v u v = 1")
    assert cli._t1_triviality(renamed).value == "trivial"
    assert built == [Word()] and enumerated == []


def test_verify_test_group_raises_when_t1_does_not_die(monkeypatch):
    monkeypatch.setattr(cli, "eliminate", lambda p: None)
    monkeypatch.setattr(cli, "_t1_verdicts", type(cli._t1_verdicts)())
    job = Job("test-group", "k", {"base": CORPUS / "base_klein.pres", "w": "a b", "b": "b a"})
    with pytest.raises(ValidationError, match="do not kill T_1"):
        verify_test_group(job, RunConfig())


def test_verify_test_group_over_bs12_is_proved_where_enumeration_exhausts(tmp_path):
    # y^2 x^-1 y^-1 x = 1 in BS(1,2), whose T_w 1000 cosets do not enumerate
    base = tmp_path / "bs12.pres"
    base.write_text("group\ngens: y, x\nrels: x^-1 y x = y^2\n", encoding="utf-8")
    w, budget = "y^2 x^-1 y^-1 x", ("--budget-cosets", "1000", "--budget-rules", "100")
    r = run_cli("verify", "test-group", str(base), "--w", w, *budget, "--out", str(tmp_path))
    assert r.returncode == EXIT_PROVED, r.stdout + r.stderr
    t_w = triviality_test_group(GroupTestInstance(parse_presentation(base.read_text()), W(w)))
    assert is_trivial(t_w.presentation, EnumLimits(1000)).value == "unknown"


def test_verify_test_group_dichotomy_certificates():
    proved = verify_test_group(
        Job("test-group", "t", {"base": CORPUS / "base_killed.pres", "w": "a"}),
        RunConfig(),
    )
    assert proved.overall.value == "proved"
    assert proved.recipe == "rabin-ladder"


def test_reports_note_each_decision_under_its_subject():
    # a word problem's notes end in the bare value, which the benchmark reads;
    # a group's give the value and how it was reached
    c5 = parse_presentation("group\ngens: a\nrels: a^5 = 1")
    a, a2, a7 = Word.single("a"), Word.single("a").pow(2), Word.single("a").pow(7)
    starved = Budget(max_rules=1, max_rule_length=4, max_iterations=1)
    group = lambda text, limits=EnumLimits(): is_trivial(parse_presentation(text), limits)
    killed, z3 = "group\ngens: a\nrels: a = 1", "group\ngens: a\nrels: a^3 = 1"
    cases = [
        (words_equal(c5, a2, a7), "G vs H in S1", "G vs H in S1: equal"),
        (words_equal(c5, a, a2), "G vs H in S1", "G vs H in S1: distinct"),
        (words_equal(c5, a, a2, starved), "G vs H in S1", "G vs H in S1: unknown"),
        (words_equal(c5, a2, a7), "A vs B in the base", "A vs B in the base: equal"),
        (words_equal(c5, a, a2), "A vs B in the base", "A vs B in the base: distinct"),
        (words_equal(c5, a, a2, starved), "A vs B in the base", "A vs B in the base: unknown"),
        (group(killed), "", "trivial (coset enumeration closed with index 1)"),
        (cli._t1_triviality(c5), "", "trivial (w = 1, so T_w is T_1, which 5 Tietze"
         " eliminations kill)"),
        (group(z3), "", "nontrivial (abelianization is Z/3)"),
        (group(A5), "", "nontrivial (coset enumeration closed with index 60)"),
        (group(A5, EnumLimits(max_cosets=8)), "", "unknown (enumeration exhausted its limits)"),
    ]
    for decision, subject, notes in cases:
        report = _report("check", decision, subject)
        assert report.notes == notes
        assert report.verdict is (CheckVerdict.PASS if decision.definite else CheckVerdict.UNKNOWN)
        assert decision.definite == (decision.value != "unknown")
        assert (decision.reason is None) == bool(subject)


def test_run_job_times_the_instance(monkeypatch):
    kind = cli.KINDS["test-group"]

    def slow(job, config):
        time.sleep(0.05)
        return kind.verify(job, config)

    monkeypatch.setitem(cli.KINDS, "test-group", dataclasses.replace(kind, verify=slow))
    job = Job("test-group", "t", {"base": CORPUS / "base_killed.pres", "w": "a"})
    assert verify_test_group(job, RunConfig()).elapsed_ms == 0  # a pipeline does not time itself
    assert run_job(job, RunConfig()).elapsed_ms >= 50


def _verify_property(g_plus, test):
    job = Job("property", "t", {"gplus": g_plus, "gminus": CORPUS / "base_z.pres", "test": test})
    cert = verify_property(job, RunConfig())
    return cert, {c.name: c for c in cert.checks}


def test_verify_property_both_branches():
    gplus = CORPUS / "gplus_trivial.pres"
    trivial, checks = _verify_property(gplus, CORPUS / "base_killed.pres")
    assert trivial.overall.value == "proved"
    assert list(checks) == ["test-triviality", "positive-witness", "free-product"]
    assert checks["free-product"].notes == "test group trivial, so G+ * test = G+"
    nontrivial, checks = _verify_property(gplus, CORPUS / "base_z.pres")
    assert nontrivial.overall.value == "proved"
    assert checks["free-product"].notes == (
        "test group nontrivial, so G+ * test contains it and is nontrivial"
    )


# A5, a perfect nontrivial group: its abelianization is trivial
A5 = "group\ngens: a, b\nrels: a^2 = 1, b^3 = 1, a b a b a b a b a b = 1\n"


def test_verify_property_decides_a_perfect_nontrivial_test(tmp_path):
    test = tmp_path / "a5.pres"
    test.write_text(A5, encoding="utf-8")
    cert, checks = _verify_property(CORPUS / "gplus_trivial.pres", test)
    assert cert.overall.value == "proved"
    assert checks["test-triviality"].notes == "nontrivial (coset enumeration closed with index 60)"


def test_verify_property_needs_a_trivial_positive_witness(tmp_path):
    # the composition Z * 1 is Z, which is not trivial
    cert, checks = _verify_property(CORPUS / "base_z.pres", CORPUS / "base_killed.pres")
    assert cert.overall.value == "refuted"
    witness = checks["positive-witness"]
    assert witness.verdict.value == "fail"
    assert witness.witness == "G+ nontrivial (abelianization is Z)"
    # a G+ that the enumeration cannot decide leaves the certificate unknown
    perfect = tmp_path / "a5.pres"
    perfect.write_text(A5, encoding="utf-8")
    z, killed = CORPUS / "base_z.pres", CORPUS / "base_killed.pres"
    job = Job("property", "t", {"gplus": perfect, "gminus": z, "test": killed})
    cert = verify_property(job, RunConfig(enum_limits=EnumLimits(max_cosets=8)))
    assert cert.overall.value == "unknown"
    assert [c.verdict.value for c in cert.checks] == ["pass", "unknown", "pass"]


def _stable_json(cert_text: str) -> str:
    payload = json.loads(cert_text)
    payload["elapsed_ms"] = 0
    payload["version"] = "X"
    return json.dumps(payload, indent=2)


def test_certificates_byte_identical_across_runs():
    job = Job("test-group", "t", {"base": CORPUS / "base_c5.pres", "w": "a^2", "b": "a^7"})
    one = verify_test_group(job, RunConfig()).to_json()
    two = verify_test_group(job, RunConfig()).to_json()
    assert _stable_json(one) == _stable_json(two)


# -- subprocess-level exit codes


def test_cli_exit_codes():
    proved = run_cli("verify", "test-group", str(CORPUS / "base_killed.pres"), "--w", "a")
    assert proved.returncode == EXIT_PROVED, proved.stderr

    # the equal side is proved by derivation, which completes nothing
    derived = run_cli(
        "verify",
        "markov",
        str(CORPUS / "s0_free_x.pres"),
        str(CORPUS / "s1_idempotent.pres"),
        str(CORPUS / "s4_trivial.pres"),
        "--G",
        "g",
        "--H",
        "g g",
        "--budget-rules",
        "1",
    )
    assert derived.returncode == EXIT_PROVED, derived.stderr

    # the distinct side's embedding needs S_GH completed, which 1 rule leaves Partial
    unknown = run_cli(
        "verify",
        "markov",
        str(CORPUS / "s0_free_x.pres"),
        str(CORPUS / "s1_free_y.pres"),
        str(CORPUS / "s4_trivial.pres"),
        "--G",
        "y",
        "--H",
        "y y",
        "--budget-rules",
        "1",
    )
    assert unknown.returncode == EXIT_UNKNOWN

    missing = run_cli("verify", "test-group", "no_such_file.pres", "--w", "a")
    assert missing.returncode == EXIT_USAGE
    assert "error:" in missing.stderr

    usage = run_cli("verify", "bogus-kind")
    assert usage.returncode == EXIT_USAGE


def _verify_wide_markov(tmp_path, *options):
    # free x, w into the Markov monoid with G = s t, H = t s over free s, t
    s0 = tmp_path / "s0_free_xw.pres"
    s0.write_text("monoid\ngens: x, w\nrels:\n", encoding="utf-8")
    r = run_cli(
        "verify",
        "markov",
        str(s0),
        str(CORPUS / "s1_free_pair.pres"),
        str(CORPUS / "s4_trivial.pres"),
        "--G",
        "s t",
        "--H",
        "t s",
        "--name",
        "wide",
        "--out",
        str(tmp_path),
        *options,
    )
    cert = json.loads((tmp_path / "wide.cert.json").read_text(encoding="utf-8"))
    return r, {c["name"]: c for c in cert["checks"]}


def test_cli_verify_markov_proves_the_embedding_at_every_length(tmp_path):
    # both systems complete and x, w go to letters, so the embedding is
    # proved at every length
    r, checks = _verify_wide_markov(tmp_path)
    assert r.returncode == EXIT_PROVED, r.stdout + r.stderr
    embedding = checks["s0-embedding"]
    assert embedding["verdict"] == "pass"
    assert embedding["notes"] == (
        "letters to distinct letters map irreducible words to irreducible words of Complete"
        " systems (0 and 26 rules): distinct at every length"
    )
    assert embedding["budget_used"] == {}


def test_cli_verify_markov_falls_back_to_the_spot_check_on_a_partial_system(tmp_path):
    # 10 rules leave the built system Partial, so the proof does not apply;
    # the check answers unknown and names the hypothesis that failed
    r, checks = _verify_wide_markov(tmp_path, "--budget-rules", "10")
    assert r.returncode == EXIT_UNKNOWN, r.stdout + r.stderr
    embedding = checks["s0-embedding"]
    assert embedding["verdict"] == "unknown"
    assert embedding["notes"] == "not proved: the big system is Partial"
    assert embedding["budget_used"] == {}


def test_cli_build_writes_presentation_and_audit(tmp_path):
    r = run_cli(
        "build",
        "test-group",
        str(CORPUS / "base_z.pres"),
        "--w",
        "a",
        "--out",
        str(tmp_path),
    )
    assert r.returncode == 0, r.stderr
    pres = tmp_path / "t.pres"
    audit = tmp_path / "t.audit.txt"
    assert pres.is_file() and audit.is_file()
    parsed = parse_presentation(pres.read_text(encoding="utf-8"))
    assert serialize_presentation(parsed) == pres.read_text(encoding="utf-8")


def test_cli_corpus_runs_bundled_manifest(tmp_path):
    r = run_cli("corpus", "--jobs", "1", "--out", str(tmp_path))
    assert r.returncode == 0, r.stdout + r.stderr
    certs = list(tmp_path.glob("*.cert.json"))
    assert len(certs) >= 16
    payload = json.loads(certs[0].read_text(encoding="utf-8"))
    assert payload["overall"] == "proved"


def test_cli_main_returns_int_for_inprocess_use(capsys):
    rc = main(["verify", "test-group", str(CORPUS / "base_killed.pres"), "--w", "a"])
    assert rc == EXIT_PROVED
    out = capsys.readouterr().out
    assert "proved" in out


def test_cli_corpus_passes_under_python_optimize():
    # -O strips assert statements, so no soundness check may rely on one
    for jobs in ("1", "2"):
        r = subprocess.run(
            [sys.executable, "-O", "-m", "fpkit.cli", "corpus", "--jobs", jobs],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0, r.stdout + r.stderr


def test_no_assert_statements_in_src():
    # the same rule as above, checked on every module rather than on one run
    src = Path(fpkit.__file__).parent
    files = sorted(src.rglob("*.py"))
    assert {"cli.py", "coset.py", "rewriting.py", "verify.py"} <= {path.name for path in files}
    found = [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_readme_library_example_runs(capsys):
    # the example imports from `fpkit` itself, so it pins the package's exports
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    equal, trivial = capsys.readouterr().out.splitlines()
    assert equal == "equal"
    assert trivial == "trivial (coset enumeration closed with index 1)"


# -- the per-kind table: each subcommand takes only the settings it reads

SETTING_FLAGS = {
    "--built": "built.pres",
    "--budget-rules": "7",
    "--budget-cosets": "7",
    "--cutoff": "3",
    "--xi-range": "all",
    "--mode": "markov",
    "--property-name": "being the trivial group",
    "--recipe": "rabin-ladder",
    "--out": "certs",
    "--jobs": "2",
}
ACCEPTED = {
    ("build", "markov"): {"--out"},
    ("build", "test-group"): {"--out"},
    ("build", "property"): {"--out"},
    ("verify", "markov"): {"--budget-rules", "--out"},
    ("verify", "test-group"): {"--budget-rules", "--budget-cosets", "--out"},
    ("verify", "property"): {"--budget-cosets", "--out"},
}
INPUTS = {
    "markov": [
        str(CORPUS / "s0_free_x.pres"),
        str(CORPUS / "s1_cubed.pres"),
        str(CORPUS / "s4_trivial.pres"),
        "--G",
        "g",
        "--H",
        "g^2",
    ],
    "test-group": [str(CORPUS / "base_c5.pres"), "--w", "a^2", "--b", "a^7"],
    "property": [
        "--g-plus",
        str(CORPUS / "gplus_trivial.pres"),
        "--g-minus",
        str(CORPUS / "base_z.pres"),
        "--test",
        str(CORPUS / "base_killed.pres"),
    ],
}


@pytest.mark.parametrize("command,kind", sorted(ACCEPTED))
@pytest.mark.parametrize("flag", sorted(SETTING_FLAGS))
def test_subcommands_take_only_the_settings_they_read(command, kind, flag, capsys):
    argv = [command, kind, *INPUTS[kind], flag, SETTING_FLAGS[flag]]
    if flag in ACCEPTED[command, kind]:
        args = _build_parser().parse_args(argv)
        assert str(getattr(args, flag[2:].replace("-", "_"))) == SETTING_FLAGS[flag]
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


# the instances of INPUTS as manifest inputs; the property row does not name
# the property, which the certificate echoes all the same
ROW_INPUTS = {
    "markov": f"s0={CORPUS}/s0_free_x.pres;s1={CORPUS}/s1_cubed.pres;"
    f"s4={CORPUS}/s4_trivial.pres;G=g;H=g^2",
    "test-group": f"base={CORPUS}/base_c5.pres;w=a^2;b=a^7",
    "property": f"gplus={CORPUS}/gplus_trivial.pres;gminus={CORPUS}/base_z.pres;"
    f"test={CORPUS}/base_killed.pres",
}


@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_verify_writes_the_certificate_corpus_writes(kind, tmp_path):
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"one\t{kind}\t{ROW_INPUTS[kind]}\tproved\n", encoding="utf-8")
    argv = ["verify", kind, *INPUTS[kind], "--name", "one", "--out", str(tmp_path / "cli")]
    assert main(argv) == EXIT_PROVED
    config = RunConfig(out_dir=tmp_path / "corpus")
    assert cmd_corpus(manifest, config, out=io.StringIO()) == EXIT_PROVED
    from_cli = (tmp_path / "cli" / "one.cert.json").read_text(encoding="utf-8")
    from_corpus = (tmp_path / "corpus" / "one.cert.json").read_text(encoding="utf-8")
    assert _stable_json(from_cli) == _stable_json(from_corpus)


def test_verify_checks_only_the_test_group_it_builds(tmp_path, capsys):
    # a certificate names the instance, so no other presentation may stand in
    # for the one built from it: here <t | >, which is not trivial
    z2 = tmp_path / "z2.pres"
    z2.write_text("group\ngens: a\nrels: a^2 = 1\n", encoding="utf-8")
    z = tmp_path / "z.pres"
    z.write_text("group\ngens: t\nrels:\n", encoding="utf-8")
    out = tmp_path / "certs"
    argv = ["verify", "test-group", str(z2), "--w", "a", "--out", str(out), "--built", str(z)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --built" in capsys.readouterr().err
    assert not out.exists()


def test_corpus_takes_no_recipe(capsys):
    # `--recipe` is in SETTING_FLAGS and no build or verify subcommand accepts it
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "--recipe", "x"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_manifest_property_is_the_trivial_group(tmp_path):
    inputs = {"gplus": "g", "gminus": "m", "test": "t"}
    fixed = {"property": "being the trivial group", "mode": "markov"}
    row = ManifestRow("p", "property", {**inputs, **fixed}, "proved")
    # the fixed keys are checked and dropped; files are found from the manifest's directory
    paths = {key: tmp_path / name for key, name in inputs.items()}
    assert _job_from_row(row, tmp_path) == Job("property", "p", paths)


@pytest.mark.parametrize(
    "kind,dropped,missing",
    [
        ("markov", ["s4", "H"], "s4"),
        ("markov", ["G"], "G"),
        ("test-group", ["w"], "w"),
        ("property", ["test", "gplus"], "gplus"),
    ],
)
def test_manifest_names_the_first_missing_input(kind, dropped, missing, tmp_path, capsys):
    pairs = [pair for pair in ROW_INPUTS[kind].split(";") if pair.partition("=")[0] not in dropped]
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"one\t{kind}\t{';'.join(pairs)}\tproved\n", encoding="utf-8")
    assert main(["corpus", str(manifest)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: instance one: missing input '{missing}'\n"


@pytest.mark.parametrize(
    "kind,key,value",
    [
        ("property", "property", "being abelian"),
        ("property", "mode", "hereditary"),
        ("markov", "xi", "verbatim"),
    ],
)
def test_manifest_rejects_a_property_mode_or_xi_range_fpkit_does_not_check(
    kind, key, value, tmp_path, capsys
):
    manifest = tmp_path / "m.tsv"
    row = f"one\t{kind}\t{ROW_INPUTS[kind]};{key}={value}\tproved\n"
    manifest.write_text(row, encoding="utf-8")
    assert main(["corpus", str(manifest)]) == EXIT_USAGE
    assert f"error: instance one: unsupported {key}={value};" in capsys.readouterr().err


def test_run_config_is_serial_by_default():
    assert RunConfig().jobs == 1
    assert _build_parser().parse_args(["corpus"]).jobs == 1


@pytest.fixture
def pool_calls(monkeypatch):
    """Puts a double in for `_forked_map` that forks no process and runs
    every task in this one; returns, per call, its workers and the names of
    the rows of each task in the order the tasks were sent."""
    calls = []

    def recording(fn, tasks, workers):
        calls.append({"workers": workers, "sent": [[row.name for row in task] for task in tasks]})
        return [fn(task) for task in tasks]

    monkeypatch.setattr(cli, "_forked_map", recording)
    return calls


def test_corpus_starts_no_more_workers_than_tasks(tmp_path, pool_calls):
    manifest = tmp_path / "m.tsv"
    rows = [f"r{i}\ttest-group\t{ROW_INPUTS['test-group']}\tproved\n" for i in range(3)]
    manifest.write_text("".join(rows), encoding="utf-8")
    assert cmd_corpus(manifest, RunConfig(jobs=32), out=io.StringIO()) == EXIT_PROVED
    manifest.write_text(rows[0], encoding="utf-8")
    assert cmd_corpus(manifest, RunConfig(jobs=32), out=io.StringIO()) == EXIT_PROVED
    # three equal rows are cut into three tasks of one row, which this
    # process and two forked ones work; one row runs in this process alone
    assert pool_calls == [{"workers": 3, "sent": [["r0"], ["r1"], ["r2"]]}]


def test_pool_sends_the_parent_no_certificate_text(tmp_path, pool_calls, monkeypatch):
    replies = []
    double = cli._forked_map

    def replying(fn, tasks, workers):
        parts = double(fn, tasks, workers)
        replies.append(parts)
        return parts

    monkeypatch.setattr(cli, "_forked_map", replying)
    monkeypatch.chdir(tmp_path)
    manifest = _repeating_manifest(tmp_path / "m.tsv", 24)
    assert cmd_corpus(manifest, RunConfig(jobs=2), out=io.StringIO()) == EXIT_PROVED
    [parts] = replies
    assert sum(len(part) for part in parts) == 24
    for part in parts:
        for got, elapsed in part:
            assert got in ("proved", "refuted", "unknown") and type(elapsed) is int
    # with no --out, no process writes a file
    assert [path.name for path in tmp_path.iterdir()] == ["m.tsv"]


# cheap instances and their verdicts, repeated by the chunked-pool tests
CHEAP_ROWS = [
    ("markov", ROW_INPUTS["markov"], "proved"),
    ("markov", ROW_INPUTS["markov"].replace("H=g^2", "H=g^4"), "proved"),
    ("test-group", ROW_INPUTS["test-group"], "proved"),
    ("test-group", f"base={CORPUS}/base_c5.pres;w=a", "unknown"),
    ("test-group", f"base={CORPUS}/base_killed.pres;w=a", "proved"),
    ("property", ROW_INPUTS["property"], "proved"),
]


def _repeating_manifest(path: Path, n: int) -> Path:
    """A manifest of n rows drawn from CHEAP_ROWS, equal inputs scattered."""
    rng = random.Random(n)
    drawn = [rng.choice(CHEAP_ROWS) for _ in range(n)]
    lines = [f"r{i:03d}\t{k}\t{inputs}\t{verdict}\n" for i, (k, inputs, verdict) in enumerate(drawn)]
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_pool_reports_chunked_rows_in_manifest_order(tmp_path):
    manifest = _repeating_manifest(tmp_path / "m.tsv", 120)  # tasks of up to 60 rows on 2 workers
    names = [row.name for row in parse_manifest(manifest)]
    tables, certs = {}, {}
    for jobs in (1, 2):
        out = io.StringIO()
        config = RunConfig(jobs=jobs, out_dir=tmp_path / str(jobs))
        assert cmd_corpus(manifest, config, out=out) == EXIT_PROVED
        # instance, expected and got; the ms column differs between runs
        tables[jobs] = [line.split()[:3] for line in out.getvalue().splitlines()]
        certs[jobs] = {
            path.name: _stable_json(path.read_text(encoding="utf-8"))
            for path in config.out_dir.iterdir()
        }
    assert [row[0] for row in tables[2][1:]] == names
    assert tables[2] == tables[1]
    assert len(certs[2]) == 120
    assert certs[2] == certs[1]


def _renamed_manifest(path: Path, copies: int) -> Path:
    """Test groups over renamed copies of BS(1, 2) and of base_c5, each row
    with its own letters, the two bases alternating."""
    lines = []
    for i in range(copies):
        x, y, c = f"x{i}", f"y{i}", f"c{i}"
        (path.parent / f"bs_{i}.pres").write_text(
            f"group\ngens: {y}, {x}\nrels: {x}^-1 {y} {x} = {y}^2\n", encoding="utf-8"
        )
        (path.parent / f"c5_{i}.pres").write_text(
            f"group\ngens: {c}\nrels: {c}^5 = 1\n", encoding="utf-8"
        )
        w, verdict = (f"{y}", "unknown") if i % 2 else (f"{x}^-1 {y} {x} {y}^-2", "proved")
        lines.append(f"bs{i}\ttest-group\tbase=bs_{i}.pres;w={w}\t{verdict}\n")
        lines.append(f"c5{i}\ttest-group\tbase=c5_{i}.pres;w={c}^2;b={c}^7\tproved\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


def _distinct_inputs(rows: list[ManifestRow]) -> int:
    return len({(row.kind, frozenset(row.inputs.items())) for row in rows})


def test_pool_tasks_are_groups_of_renamed_copies(tmp_path, pool_calls):
    manifest = _renamed_manifest(tmp_path / "m.tsv", 6)
    bs, c5 = [f"bs{i}" for i in range(6)], [f"c5{i}" for i in range(6)]
    # only the names matter: the double runs every row in this process
    cmd_corpus(manifest, RunConfig(jobs=2), out=io.StringIO())
    cmd_corpus(manifest, RunConfig(jobs=4), out=io.StringIO())
    # one task per base up to renaming; with 4 jobs, pieces of 12 / 4 rows,
    # equal in weight, so in manifest order of their first rows
    assert pool_calls == [
        {"workers": 2, "sent": [bs, c5]},
        {"workers": 4, "sent": [bs[:3], c5[:3], bs[3:], c5[3:]]},
    ]


def test_pool_sends_heaviest_tasks_first_and_none_longer_than_rows_per_job(
    tmp_path, pool_calls
):
    manifest = tmp_path / "m.tsv"
    repeated = [f"m{i}\tmarkov\t{ROW_INPUTS['markov']}\tproved\n" for i in range(5)]
    renamed = _renamed_manifest(tmp_path / "renamed.tsv", 3).read_text(encoding="utf-8")
    manifest.write_text("".join(repeated) + renamed, encoding="utf-8")
    assert cmd_corpus(manifest, RunConfig(jobs=2), out=io.StringIO()) == EXIT_PROVED
    # 11 rows on 2 jobs: pieces of at most 6 rows.  The 3 distinct BS
    # copies outweigh the 5 equal markov rows, which weigh 1 however long
    assert pool_calls[-1]["sent"] == [
        ["bs0", "bs1", "bs2"],
        ["c50", "c51", "c52"],
        ["m0", "m1", "m2", "m3", "m4"],
    ]
    for n, jobs in ((48, 2), (400, 2), (400, 3)):
        manifest = _repeating_manifest(tmp_path / f"{n}.tsv", n)
        rows = {row.name: row for row in parse_manifest(manifest)}
        assert cmd_corpus(manifest, RunConfig(jobs=jobs), out=io.StringIO()) == EXIT_PROVED
        sent = pool_calls[-1]["sent"]
        assert sorted(name for task in sent for name in task) == sorted(rows)
        assert all(task == sorted(task) for task in sent)  # manifest order
        assert max(len(task) for task in sent) <= -(-n // jobs)
        weights = [_distinct_inputs([rows[name] for name in task]) for task in sent]
        assert weights == sorted(weights, reverse=True)


def test_pool_certificates_on_renamed_copies_equal_serial_ones(tmp_path):
    manifest = _renamed_manifest(tmp_path / "m.tsv", 4)
    certs = {}
    for jobs in (1, 2):
        config = RunConfig(rewrite_budget=Budget(max_rules=100), out_dir=tmp_path / str(jobs), jobs=jobs)
        assert cmd_corpus(manifest, config, out=io.StringIO()) == EXIT_PROVED
        certs[jobs] = {
            path.name: _stable_json(path.read_text(encoding="utf-8"))
            for path in config.out_dir.iterdir()
        }
    assert len(certs[2]) == 8
    assert certs[2] == certs[1]


NOT_UTF8 = b"\xffgroup\ngens: a\nrels: a^5 = 1\n"
DECODE_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("problem", ["missing", "unparsable", "not-utf8"])
def test_corpus_names_an_unreadable_primary_file_at_any_job_count(
    tmp_path, capsys, jobs, problem
):
    bad = tmp_path / "bad.pres"
    if problem == "unparsable":
        bad.write_text("group\ngens: a\nrels: a^ = 1\n", encoding="utf-8")
    elif problem == "not-utf8":
        bad.write_bytes(NOT_UTF8)
    good = f"ok\ttest-group\t{ROW_INPUTS['test-group']}\tproved\n"
    (tmp_path / "m.tsv").write_text(
        good + "bad\ttest-group\tbase=bad.pres;w=a\tproved\n", encoding="utf-8"
    )
    assert main(["corpus", str(tmp_path / "m.tsv"), "--jobs", str(jobs)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {bad}" in err
    if problem == "not-utf8":
        assert err == f"error: {bad}: {DECODE_ERROR}\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_corpus_that_fails_keeps_only_the_certificates_of_finished_rows(
    tmp_path, capsys, jobs
):
    bad = tmp_path / "bad.pres"
    bad.write_text("group\ngens: a\nrels: a^ = 1\n", encoding="utf-8")
    good = f"ok\ttest-group\t{ROW_INPUTS['test-group']}\tproved\n"
    (tmp_path / "good.tsv").write_text(good, encoding="utf-8")
    (tmp_path / "m.tsv").write_text(
        good + "bad\ttest-group\tbase=bad.pres;w=a\tproved\n", encoding="utf-8"
    )
    good_argv = ["corpus", str(tmp_path / "good.tsv"), "--out", str(tmp_path / "good")]
    assert main(good_argv) == EXIT_PROVED
    out = tmp_path / "out"
    argv = ["corpus", str(tmp_path / "m.tsv"), "--jobs", str(jobs), "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert f"error: {bad}" in capsys.readouterr().err
    # the good row comes off the queue first, and a failure stops only the
    # process it happens in, so its certificate is written in either mode
    assert sorted(path.name for path in out.iterdir()) == ["ok.cert.json"]
    left = (out / "ok.cert.json").read_text(encoding="utf-8")
    assert _stable_json(left) == _stable_json(
        (tmp_path / "good" / "ok.cert.json").read_text(encoding="utf-8")
    )


def test_load_presentation_reads_crlf_and_cr_files_as_read_text_does(tmp_path):
    text = "group\ngens: a, b\n\nrels: a^5 = 1, b a = a b\n"
    for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.pres"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        assert path.read_text(encoding="utf-8") == text
        assert cli._load_presentation(path) == parse_presentation(text)
    bad = tmp_path / "bad.pres"
    bad.write_bytes(b"group\r\ngens: a\r\nrels: a^ = 1\r\n")
    with pytest.raises(PresentationError) as from_bytes:
        cli._load_presentation(bad)
    with pytest.raises(ParseError) as from_text:
        parse_presentation(bad.read_text(encoding="utf-8"))
    assert str(from_bytes.value) == f"{bad}: {from_text.value}"


def test_load_presentation_sees_a_file_rewritten_between_calls(tmp_path):
    path = tmp_path / "g.pres"
    path.write_text("group\ngens: a\nrels: a^5 = 1\n", encoding="utf-8")
    c5 = cli._load_presentation(path)
    path.write_text("group\ngens: a\nrels: a^7 = 1\n", encoding="utf-8")
    c7 = cli._load_presentation(path)
    assert c7 != c5
    assert c7 == parse_presentation("group\ngens: a\nrels: a^7 = 1\n")
    path.write_text("group\ngens: a\nrels: a^5 = 1\n", encoding="utf-8")
    assert cli._load_presentation(path) is c5  # equal contents share one parse


def test_load_presentation_errors_name_the_file(tmp_path):
    with pytest.raises(PresentationError) as missing:
        cli._load_presentation(tmp_path / "no.pres")
    assert str(missing.value) == f"{tmp_path / 'no.pres'}: no such file"
    # a directory fails as `read_text` fails on it, which `main` reports
    with pytest.raises(OSError) as from_text:
        tmp_path.read_text(encoding="utf-8")
    with pytest.raises(OSError) as from_bytes:
        cli._load_presentation(tmp_path)
    assert type(from_bytes.value) is type(from_text.value)
    assert str(from_bytes.value) == str(from_text.value)


def test_verify_names_an_input_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.pres"
    bad.write_bytes(NOT_UTF8)
    assert main(["verify", "test-group", str(bad), "--w", "a"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {bad}: {DECODE_ERROR}\n"


def test_corpus_names_a_manifest_that_is_not_utf8(tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    manifest.write_bytes(b"\xff\n")
    assert main(["corpus", str(manifest)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {manifest}: {DECODE_ERROR}\n"


@pytest.fixture
def reaped():
    """Fails the test if it runs over a minute or leaves a child process."""

    def timeout(signum, frame):
        raise TimeoutError("over a minute: a process waits for a pipe no one writes")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


class Boom(Exception):
    pass


@forks
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_forked_map_returns_results_in_item_order(workers, reaped):
    def square(x):
        time.sleep(0.002)  # long enough for every process to take items
        return x * x, os.getpid()

    got = _forked_map(square, list(range(60)), workers)
    assert [value for value, _ in got] == [x * x for x in range(60)]
    pids = {pid for _, pid in got}
    assert len(pids) <= workers and (len(pids) > 1) == (workers > 1)


@forks
@pytest.mark.parametrize("where", ["parent", "child"])
def test_forked_map_raises_an_exception_of_any_process_again(where, reaped):
    parent = os.getpid()

    def fails_in_one_process(x):
        if (os.getpid() == parent) == (where == "parent"):
            raise Boom(f"row failed in the {where}")
        time.sleep(0.005)  # leaves items for the failing process
        return x

    with pytest.raises(Boom, match=f"^row failed in the {where}$"):
        _forked_map(fails_in_one_process, list(range(40)), 3)


@forks
def test_forked_map_names_the_status_of_a_child_that_sent_nothing(reaped):
    parent = os.getpid()

    def child_exits(x):
        if os.getpid() != parent:
            os._exit(3)
        time.sleep(0.005)
        return x

    with pytest.raises(RuntimeError, match="exited with status 3, sending nothing"):
        _forked_map(child_exits, list(range(40)), 2)


@forks
def test_corpus_leaves_no_child_process(reaped):
    assert cmd_corpus(bundled_manifest(), RunConfig(jobs=2), out=io.StringIO()) == EXIT_PROVED


@forks
def test_forked_map_takes_a_queue_longer_than_the_pipe_holds(reaped):
    # 20,000 records of 4 bytes overflow a 64 KiB pipe buffer
    assert _forked_map(lambda x: -x, list(range(20_000)), 3) == [-x for x in range(20_000)]


@forks
def test_forked_map_fills_the_pipe_after_every_child_has_died(reaped):
    # no child reads the queue any more once the pipe is full
    parent = os.getpid()

    def child_exits(x):
        if os.getpid() != parent:
            os._exit(9)
        return x

    with pytest.raises(RuntimeError, match="exited with status 9, sending nothing"):
        _forked_map(child_exits, list(range(20_000)), 2)


@forks
def test_corpus_runs_in_this_process_without_fork(tmp_path, monkeypatch, reaped):
    manifest = _repeating_manifest(tmp_path / "m.tsv", 24)
    certs = {}
    for jobs in (1, 2):
        if jobs == 2:
            monkeypatch.delattr(os, "fork")
        config = RunConfig(jobs=jobs, out_dir=tmp_path / str(jobs))
        assert cmd_corpus(manifest, config, out=io.StringIO()) == EXIT_PROVED
        certs[jobs] = {
            path.name: _stable_json(path.read_text(encoding="utf-8"))
            for path in config.out_dir.iterdir()
        }
    assert len(certs[2]) == 24
    assert certs[2] == certs[1]
