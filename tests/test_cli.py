import ast
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fpkit
from fpkit.cli import (
    EXIT_PROVED,
    EXIT_REFUTED,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    MarkovJob,
    PropertyJob,
    RunConfig,
    GroupTestJob,
    ManifestRow,
    _build_parser,
    _job_from_row,
    cmd_corpus,
    main,
    parse_manifest,
    verify_markov,
    verify_property,
    verify_test_group,
)
from fpkit.constructions import XiRange, Mode
from fpkit.corpus import bundled_manifest, corpus_dir
from fpkit.presentations import (
    Presentation,
    PresentationError,
    parse_presentation,
    serialize_presentation,
)

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


def test_manifest_rejects_inputs_its_kind_does_not_read(tmp_path, capsys):
    # `W=b` is a typo for `b=b`, and `xi` and `cutoff` are not test-group inputs
    manifest = tmp_path / "m.tsv"
    base = CORPUS / "base_z.pres"
    for extra in ("W=b", "xi=all", "cutoff=3"):
        row = f"typo\ttest-group\tbase={base};w=a;{extra}\tproved\n"
        manifest.write_text(row, encoding="utf-8")
        assert main(["corpus", str(manifest)]) == EXIT_USAGE
        key = extra.partition("=")[0]
        assert f"error: instance typo: unknown input {key}\n" in capsys.readouterr().err


def test_verify_markov_equal_instance_proved():
    job = MarkovJob(
        "t",
        CORPUS / "s0_free_x.pres",
        CORPUS / "s1_idempotent.pres",
        CORPUS / "s4_trivial.pres",
        "g",
        "g g",
        XiRange.ALL_GENERATORS,
    )
    cert = verify_markov(job, RunConfig())
    assert cert.overall.value == "proved"
    names = [c.name for c in cert.checks]
    assert names == ["s1-word-problem", "collapse-onto-s4"]


def test_verify_markov_corrupted_construction_refuted(tmp_path):
    from fpkit.constructions import markov_semigroup, MarkovInstance
    from fpkit.presentations import parse_word

    inst = MarkovInstance(
        parse_presentation((CORPUS / "s0_free_x.pres").read_text()),
        parse_presentation((CORPUS / "s1_idempotent.pres").read_text()),
        parse_presentation((CORPUS / "s4_trivial.pres").read_text()),
        parse_word("g"),
        parse_word("g g"),
    )
    built = markov_semigroup(inst).presentation
    dropped = tuple(
        r for r in built.relations if not (str(r.lhs) == "c g d" and r.rhs.is_empty)
    )
    assert len(dropped) == len(built.relations) - 1
    corrupt = Presentation(built.kind, built.generators, dropped, built.zero)

    job = MarkovJob(
        "t",
        CORPUS / "s0_free_x.pres",
        CORPUS / "s1_idempotent.pres",
        CORPUS / "s4_trivial.pres",
        "g",
        "g g",
        XiRange.ALL_GENERATORS,
    )
    cert = verify_markov(job, RunConfig(), built=corrupt)
    assert cert.overall.value == "refuted"
    failing = [c for c in cert.checks if c.verdict.value == "fail"]
    assert failing and failing[0].witness is not None


def test_verify_test_group_dichotomy_certificates():
    proved = verify_test_group(
        GroupTestJob("t", CORPUS / "base_killed.pres", "a", None, "rabin-ladder"),
        RunConfig(),
    )
    assert proved.overall.value == "proved"
    assert proved.recipe == "rabin-ladder"


def test_verify_property_both_branches():
    cfg = RunConfig()
    trivial = verify_property(
        PropertyJob(
            "t",
            "being the trivial group",
            CORPUS / "gplus_trivial.pres",
            CORPUS / "base_z.pres",
            CORPUS / "base_killed.pres",
            Mode.MARKOV,
        ),
        cfg,
    )
    assert trivial.overall.value == "proved"
    assert any(c.name == "witness-passthrough" for c in trivial.checks)
    nontrivial = verify_property(
        PropertyJob(
            "t",
            "being the trivial group",
            CORPUS / "gplus_trivial.pres",
            CORPUS / "base_z.pres",
            CORPUS / "base_z.pres",
            Mode.MARKOV,
        ),
        cfg,
    )
    assert nontrivial.overall.value == "proved"
    assert any(c.name == "obstruction-abelianization" for c in nontrivial.checks)


def _stable_json(cert_text: str) -> str:
    payload = json.loads(cert_text)
    payload["elapsed_ms"] = 0
    payload["version"] = "X"
    return json.dumps(payload, indent=2)


def test_certificates_byte_identical_across_runs():
    job = GroupTestJob("t", CORPUS / "base_c5.pres", "a^2", "a^7", "rabin-ladder")
    one = verify_test_group(job, RunConfig()).to_json()
    two = verify_test_group(job, RunConfig()).to_json()
    assert _stable_json(one) == _stable_json(two)


# -- subprocess-level exit codes


def test_cli_exit_codes():
    proved = run_cli("verify", "test-group", str(CORPUS / "base_killed.pres"), "--w", "a")
    assert proved.returncode == EXIT_PROVED, proved.stderr

    unknown = run_cli(
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
        "--xi-range",
        "all",
        "--name",
        "wide",
        "--out",
        str(tmp_path),
        *options,
    )
    cert = json.loads((tmp_path / "wide.cert.json").read_text(encoding="utf-8"))
    return r, {c["name"]: c for c in cert["checks"]}


def test_cli_verify_markov_at_cutoff_10_counts_every_pair(tmp_path):
    # both systems complete and x, w go to letters, so the embedding is
    # proved at every length and the cutoff enumerates nothing; the
    # 2047 * 2046 / 2 pairs of the spot check stay pinned in test_verify
    r, checks = _verify_wide_markov(tmp_path, "--cutoff", "10")
    assert r.returncode == EXIT_PROVED, r.stdout + r.stderr
    embedding = checks["s0-embedding"]
    assert embedding["verdict"] == "pass"
    assert embedding["notes"] == (
        "letters to distinct letters map irreducible words to irreducible words of Complete"
        " systems (0 and 26 rules): distinct at every length"
    )
    assert embedding["budget_used"] == {}


def test_cli_verify_markov_falls_back_to_the_spot_check_on_a_partial_system(tmp_path):
    # 10 rules leave the built system Partial, so the proof does not apply
    # and the words up to length 3 are compared as before
    r, checks = _verify_wide_markov(tmp_path, "--cutoff", "3", "--budget-rules", "10")
    assert r.returncode == EXIT_UNKNOWN, r.stdout + r.stderr
    embedding = checks["s0-embedding"]
    assert embedding["verdict"] == "unknown"
    assert embedding["budget_used"] == {"comparisons": 105, "blocked": 105}


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
    r = subprocess.run(
        [sys.executable, "-O", "-m", "fpkit.cli", "corpus", "--jobs", "1"],
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


# -- the per-kind table: each subcommand takes only the settings it reads

SETTING_FLAGS = {
    "--budget-rules": "7",
    "--budget-cosets": "7",
    "--cutoff": "3",
    "--xi-range": "verbatim",
    "--recipe": "rabin-ladder",
    "--out": "certs",
    "--jobs": "2",
}
ACCEPTED = {
    ("build", "markov"): {"--xi-range", "--out"},
    ("build", "test-group"): {"--recipe", "--out"},
    ("build", "property"): {"--out"},
    ("verify", "markov"): {"--budget-rules", "--cutoff", "--xi-range", "--out"},
    ("verify", "test-group"): {"--budget-rules", "--budget-cosets", "--recipe", "--out"},
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


# the instances of INPUTS as manifest inputs; the property row states the
# command line's default property name, which differs from the manifest's
ROW_INPUTS = {
    "markov": f"s0={CORPUS}/s0_free_x.pres;s1={CORPUS}/s1_cubed.pres;"
    f"s4={CORPUS}/s4_trivial.pres;G=g;H=g^2",
    "test-group": f"base={CORPUS}/base_c5.pres;w=a^2;b=a^7",
    "property": f"gplus={CORPUS}/gplus_trivial.pres;gminus={CORPUS}/base_z.pres;"
    f"test={CORPUS}/base_killed.pres;property=being the trivial group",
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


def test_manifest_property_name_defaults_to_unnamed(tmp_path):
    # the command line's default is checked by the certificate comparison above
    row = ManifestRow("p", "property", {"gplus": "g", "gminus": "m", "test": "t"}, "proved")
    assert _job_from_row(row, tmp_path, RunConfig()).property_name == "unnamed property"


def test_run_config_is_serial_by_default():
    assert RunConfig().jobs == 1
    assert _build_parser().parse_args(["corpus"]).jobs == 1


@pytest.fixture
def pool_calls(monkeypatch):
    """Puts a double in for ProcessPoolExecutor that starts no process and
    runs `map` in this one; returns, per pool, its workers, its chunksize
    and the names of the rows in the order they were sent."""
    import concurrent.futures

    calls = []

    class Recording:
        def __init__(self, max_workers):
            self.call = {"max_workers": max_workers}
            calls.append(self.call)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            self.call.update(chunksize=chunksize, sent=[row.name for row, *_ in items])
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return calls


def test_corpus_starts_no_more_workers_than_rows(tmp_path, pool_calls):
    manifest = tmp_path / "m.tsv"
    rows = [f"r{i}\ttest-group\t{ROW_INPUTS['test-group']}\tproved\n" for i in range(3)]
    manifest.write_text("".join(rows), encoding="utf-8")
    assert cmd_corpus(manifest, RunConfig(jobs=32), out=io.StringIO()) == EXIT_PROVED
    manifest.write_text(rows[0], encoding="utf-8")
    assert cmd_corpus(manifest, RunConfig(jobs=32), out=io.StringIO()) == EXIT_PROVED
    # three rows start three workers; one row runs in this process
    assert [(c["max_workers"], c["chunksize"]) for c in pool_calls] == [(3, 1)]


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
    manifest = _repeating_manifest(tmp_path / "m.tsv", 120)  # chunks of 2 rows on 2 workers
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


def test_pool_sends_rows_sorted_by_inputs_in_chunks(tmp_path, pool_calls):
    for n, chunksize in ((48, 1), (400, 8)):
        manifest = _repeating_manifest(tmp_path / f"{n}.tsv", n)
        rows = {row.name: row for row in parse_manifest(manifest)}
        assert cmd_corpus(manifest, RunConfig(jobs=2), out=io.StringIO()) == EXIT_PROVED
        call = pool_calls[-1]
        assert (call["max_workers"], call["chunksize"]) == (2, chunksize)
        # by kind and inputs, and rows with equal inputs in manifest order
        sent = [(rows[name].kind, tuple(rows[name].inputs.items()), name) for name in call["sent"]]
        assert len(sent) == n
        assert sent == sorted(sent)
