"""Batch command-line front end.

Three commands: `build` writes a constructed presentation plus its audit
trail, `verify` runs the checks of one instance and emits a certificate,
`corpus` drives a manifest of instances (optionally in parallel) and
compares outcomes against expectations.  One table, `KINDS`, drives the
`build`/`verify` parsers, manifest rows and `run_job`, so each
subcommand accepts only the settings it reads.

Exit codes: 0 proved / all expectations matched, 1 refuted / mismatch,
2 usage or parse error, 3 unknown.
"""

from __future__ import annotations

import argparse
import functools
import os
import pickle
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .coset import EnumLimits, is_trivial
from .constructions import (
    PROPERTY,
    RECIPE,
    GroupTestInstance,
    MarkovInstance,
    PropertySpec,
    markov_property_reduction,
    markov_semigroup,
    triviality_test_group,
)
from .presentations import (
    ParseError,
    Presentation,
    PresentationError,
    ValidationError,
    Word,
    eliminate,
    lru,
    parse_presentation,
    parse_word,
    serialize_presentation,
)
from .rewriting import Budget, Decision, words_equal
from .verify import (
    Certificate,
    CheckReport,
    CheckVerdict,
    Overall,
    assemble_certificate,
    collapse_by_derivation,
    embedding_by_rewriting,
)

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3

_EXIT_BY_OVERALL = {
    Overall.PROVED: EXIT_PROVED,
    Overall.REFUTED: EXIT_REFUTED,
    Overall.UNKNOWN: EXIT_UNKNOWN,
}


@dataclass(frozen=True)
class RunConfig:
    rewrite_budget: Budget = Budget()
    enum_limits: EnumLimits = EnumLimits()
    cutoff: int = 6  # read by nothing; perfbench/worker.py still passes it
    out_dir: Path | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.jobs <= 0:
            raise ValueError("jobs must be positive")


def _load_presentation(path: Path) -> Presentation:
    try:
        return _parse(path.read_bytes())
    except FileNotFoundError:
        raise PresentationError(f"{path}: no such file") from None
    except (ParseError, UnicodeDecodeError) as exc:
        raise PresentationError(f"{path}: {exc}") from exc


@functools.lru_cache(maxsize=128)
def _parse(data: bytes) -> Presentation:
    """The parse of a presentation file's bytes; the last 128 contents are
    decoded and parsed once per process, since a corpus reads few files many
    times.  Keyed on the content, so a file rewritten during a run is parsed
    again.  The parser splits lines with `str.splitlines`, which ends a line
    at CRLF and CR as `Path.read_text` would, so no newline is translated."""
    return parse_presentation(data.decode("utf-8"))


# ---------------------------------------------------------------------------
# instances; a command line is read as a manifest row, since its argparse
# dests are the row's keys


@dataclass(frozen=True)
class Job:
    """One instance: its kind, its name and its inputs by manifest key,
    presentation files as paths and words as text."""

    kind: str
    name: str
    inputs: dict


def _markov_instance(job: Job) -> MarkovInstance:
    s0, s1, s4 = (_load_presentation(job.inputs[k]) for k in ("s0", "s1", "s4"))
    return MarkovInstance(s0, s1, s4, parse_word(job.inputs["G"]), parse_word(job.inputs["H"]))


def _group_instance(job: Job) -> GroupTestInstance:
    base, b = _load_presentation(job.inputs["base"]), job.inputs.get("b")
    return GroupTestInstance(base, parse_word(job.inputs["w"]), b if b is None else parse_word(b))


# ---------------------------------------------------------------------------
# verification pipelines


def _report(name: str, decision: Decision, subject: str = "") -> CheckReport:
    """Pass when the engine decided, Unknown when it did not; the notes are
    `subject: value` for a word problem and the decision for a group."""
    verdict = CheckVerdict.PASS if decision.definite else CheckVerdict.UNKNOWN
    return CheckReport(name, verdict, notes=f"{subject}: {decision}" if subject else str(decision))


def verify_markov(job: Job, config: RunConfig) -> Certificate:
    inst = _markov_instance(job)
    budget = config.rewrite_budget

    inner = words_equal(inst.s1, inst.g, inst.h, budget)
    reports = [_report("s1-word-problem", inner, "G vs H in S1")]
    if inner.definite:  # only the check that the answer selects reads S_GH
        build = markov_semigroup(inst)
        s_gh = build.presentation
        if inner.value == "equal":
            reports.append(collapse_by_derivation(inst, build, "collapse-onto-s4"))
        else:
            inclusion = {g: Word.single(img) for g, img in build.maps["s0"].items()}
            reports.append(
                embedding_by_rewriting(inst.s0, s_gh, inclusion, budget, "s0-embedding")
            )
    instance = {
        "name": job.name,
        "type": "markov",
        "inputs": {
            "G": job.inputs["G"],
            "H": job.inputs["H"],
            "s0": job.inputs["s0"].name,
            "s1": job.inputs["s1"].name,
            "s4": job.inputs["s4"].name,
        },
    }
    return assemble_certificate(instance, "markov-semigroup", reports, xi_range="all")


# base `Presentation.key` -> the triviality of its T_1, least recent first
_t1_verdicts: OrderedDict[tuple, Decision] = OrderedDict()


def _t1_triviality(base: Presentation) -> Decision:
    """The test group T_1 of the empty word over `base`, proved trivial by
    `eliminate`.  T_1 and its proof depend on the base only up to renaming,
    so the last 128 decisions are kept under the base's key."""

    def prove() -> Decision:
        steps = eliminate(triviality_test_group(GroupTestInstance(base, Word())).presentation)
        if steps is None:  # T_1 always dies: 1 = d, the welds, then each 1 = x_i d^(i+1)
            raise ValidationError("Tietze eliminations do not kill T_1")
        kill = f"{len(steps)} Tietze eliminations kill"
        return Decision("trivial", f"w = 1, so T_w is T_1, which {kill}")

    return lru(_t1_verdicts, base.key, prove)


def verify_test_group(job: Job, config: RunConfig) -> Certificate:
    """When w = 1 in the base, T_w has T_1's relators modulo the base's
    relations, so T_w is T_1 and no T_w is built; otherwise T_w is built
    and enumerated."""
    inst = _group_instance(job)
    b_word = inst.b_word if inst.b_word is not None else Word()
    inner = words_equal(inst.base, inst.a_word, b_word, config.rewrite_budget)
    if inner.value == "equal":
        triv = _t1_triviality(inst.base)
    else:
        triv = is_trivial(triviality_test_group(inst).presentation, config.enum_limits)

    reports = [
        _report("base-word-problem", inner, "A vs B in the base"),
        _report("test-group-triviality", triv),
    ]
    if not (inner.definite and triv.definite):
        reports.append(
            CheckReport("dichotomy", CheckVerdict.UNKNOWN, notes="an engine returned unknown")
        )
    elif (inner.value == "equal") == (triv.value == "trivial"):
        reports.append(
            CheckReport(
                "dichotomy",
                CheckVerdict.PASS,
                notes=f"words {inner.value} and test group {triv.value}",
            )
        )
    else:
        reports.append(
            CheckReport(
                "dichotomy",
                CheckVerdict.FAIL,
                witness=f"words {inner.value} but test group {triv.value}",
                notes="the two engines contradict each other",
            )
        )
    instance = {
        "name": job.name,
        "type": "test-group",
        "inputs": {
            "A": job.inputs["w"],
            "B": job.inputs.get("b", "1"),
            "base": job.inputs["base"].name,
        },
    }
    return assemble_certificate(instance, "triviality-test-group", reports, recipe=RECIPE)


def _property_inputs(job: Job) -> tuple[PropertySpec, Presentation]:
    g_plus, g_minus, test = (_load_presentation(job.inputs[k]) for k in ("gplus", "gminus", "test"))
    return PropertySpec(g_plus, g_minus), test


def verify_property(job: Job, config: RunConfig) -> Certificate:
    """Certify the reduction for P = being the trivial group: G+ is trivial,
    and G+ * test has P exactly when the test group is trivial, since the
    free product is G+ then and contains the test group otherwise."""
    spec, test = _property_inputs(job)
    triv = is_trivial(test, config.enum_limits)
    plus = is_trivial(spec.g_plus, config.enum_limits)

    reports = [_report("test-triviality", triv)]
    if plus.value == "nontrivial":
        witness = f"G+ {plus}"
        notes = "G+ lacks the property"
        reports.append(CheckReport("positive-witness", CheckVerdict.FAIL, witness, notes))
    else:
        reports.append(_report("positive-witness", plus))
    if triv.definite:
        fact = "= G+" if triv.value == "trivial" else "contains it and is nontrivial"
        notes = f"test group {triv.value}, so G+ * test {fact}"
        reports.append(CheckReport("free-product", CheckVerdict.PASS, notes=notes))
    instance = {
        "name": job.name,
        "type": "property",
        "inputs": {
            "g_minus": job.inputs["gminus"].name,
            "g_plus": job.inputs["gplus"].name,
            "mode": "markov",
            "property": PROPERTY,
            "test": job.inputs["test"].name,
        },
    }
    return assemble_certificate(instance, "property-reduction", reports)


# ---------------------------------------------------------------------------
# instance kinds


@dataclass(frozen=True)
class _Kind:
    """How one kind of instance is read, built and verified."""

    # argparse (flag, options) per input; each dest is the input's manifest
    # key, a row must give each positional or required input, and the inputs
    # of type Path are presentation files
    inputs: tuple[tuple[str, dict], ...]
    settings: tuple[str, ...]  # settings that `verify` reads
    fixed: dict[str, str]  # manifest keys a row may state, each with its one value
    build: Callable  # Job -> constructions.Build
    verify: Callable  # (Job, RunConfig) -> Certificate
    name: str  # default --name of `build`
    primary: str  # input whose presentation `corpus --jobs` groups rows by


_REQUIRED = {"required": True}
_FILE = {"type": Path}
KINDS = {
    "markov": _Kind(
        (("s0", _FILE), ("s1", _FILE), ("s4", _FILE), ("--G", _REQUIRED), ("--H", _REQUIRED)),
        ("budget_rules",),
        {"xi": "all"},
        lambda job: markov_semigroup(_markov_instance(job)),
        verify_markov,
        "s_gh",
        "s1",
    ),
    "test-group": _Kind(
        (("base", _FILE), ("--w", _REQUIRED), ("--b", {})),
        ("budget_rules", "budget_cosets"),
        {},
        lambda job: triviality_test_group(_group_instance(job)),
        verify_test_group,
        "t",
        "base",
    ),
    "property": _Kind(
        (
            ("--g-plus", {"dest": "gplus", **_REQUIRED, **_FILE}),
            ("--g-minus", {"dest": "gminus", **_REQUIRED, **_FILE}),
            ("--test", {**_REQUIRED, **_FILE}),
        ),
        ("budget_cosets",),
        {"mode": "markov", "property": PROPERTY},
        lambda job: markov_property_reduction(*_property_inputs(job)),
        verify_property,
        "composite",
        "test",
    ),
}


# ---------------------------------------------------------------------------
# corpus manifests


@dataclass(frozen=True)
class ManifestRow:
    name: str
    kind: str
    inputs: dict[str, str]
    expected: str


def _bad_name(name: str) -> bool:
    """Whether `name` is empty, `.` or `..`, or holds a path separator:
    NAME.cert.json and NAME.pres must be files of the output directory."""
    return name in ("", ".", "..") or "/" in name or "\\" in name


def parse_manifest(path: Path) -> list[ManifestRow]:
    rows = []
    line_of: dict[str, int] = {}  # instance name -> line that named it
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise PresentationError(f"{path}: no such manifest") from None
    except UnicodeDecodeError as exc:
        raise PresentationError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise PresentationError(
                f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}"
            )
        name, kind, inputs_field, expected = (p.strip() for p in parts)
        if _bad_name(name):
            raise PresentationError(f"{path}:{lineno}: instance name {name!r} is not a file name")
        if name in line_of:
            # both would write NAME.cert.json, and the second would overwrite the first
            raise PresentationError(
                f"{path}:{lineno}: instance name {name!r} already used on line {line_of[name]}"
            )
        line_of[name] = lineno
        if kind not in KINDS:
            raise PresentationError(f"{path}:{lineno}: unknown instance type {kind!r}")
        if expected not in ("proved", "refuted", "unknown"):
            raise PresentationError(f"{path}:{lineno}: unknown expected verdict {expected!r}")
        inputs = {}
        for pair in inputs_field.split(";"):
            if not pair.strip():
                continue
            key, eq, value = pair.partition("=")
            if not eq:
                raise PresentationError(f"{path}:{lineno}: bad input field {pair!r}")
            key = key.strip()
            if key in inputs:
                raise PresentationError(f"{path}:{lineno}: input {key!r} given twice")
            inputs[key] = value.strip()
        rows.append(ManifestRow(name, kind, inputs, expected))
    return rows


def _input_keys(kind: _Kind) -> list[str]:
    return [options.get("dest", flag.lstrip("-")) for flag, options in kind.inputs]


# the manifest keys a row of each kind may give
_ROW_KEYS = {name: frozenset(_input_keys(kind) + list(kind.fixed)) for name, kind in KINDS.items()}


def _job_from_row(row: ManifestRow, base_dir: Path, config: RunConfig | None = None) -> Job:
    # `config` is read by nothing; perfbench/worker.py still passes it
    kind = KINDS[row.kind]
    known = _ROW_KEYS[row.kind]
    for key, value in row.inputs.items():
        if key not in known:
            raise PresentationError(f"instance {row.name}: unknown input {key}")
        if kind.fixed.get(key, value) != value:
            raise PresentationError(
                f"instance {row.name}: unsupported {key}={value}; fpkit checks only"
                f" {key}={kind.fixed[key]}"
            )
    inputs = {}
    for (flag, options), key in zip(kind.inputs, _input_keys(kind)):
        if key in row.inputs:
            value = row.inputs[key]
            inputs[key] = base_dir / value if options.get("type") is Path else value
        elif not flag.startswith("-") or options.get("required"):
            raise PresentationError(f"instance {row.name}: missing input {key!r}")
    return Job(row.kind, row.name, inputs)


def run_job(job: Job, config: RunConfig) -> Certificate:
    start = time.monotonic()
    cert = KINDS[job.kind].verify(job, config)
    cert.elapsed_ms = int((time.monotonic() - start) * 1000)
    return cert


def _run_rows(rows: list[ManifestRow], base_dir: Path, config: RunConfig) -> list[tuple[str, int]]:
    """Each row's overall verdict and elapsed_ms, in order, from one process
    and its caches.  With `config.out_dir` set, each row's NAME.cert.json is
    written there by this process as soon as the row has run."""
    results = []
    for row in rows:
        cert = run_job(_job_from_row(row, base_dir), config)
        if config.out_dir is not None:
            (config.out_dir / f"{row.name}.cert.json").write_text(cert.to_json(), encoding="utf-8")
        results.append((cert.overall.value, cert.elapsed_ms))
    return results


def _pool_tasks(rows: list[ManifestRow], base_dir: Path, jobs: int) -> list[list[int]]:
    """Row indices per pool task, heaviest first.

    Rows whose primary presentations share a `Presentation.key` (are equal up
    to renaming) form one task, so one worker completes that system and the
    task's other rows hit its caches.  A group longer than rows / jobs is
    cut into pieces in manifest order, so every worker gets work.  A task
    weighs its distinct inputs, since a repeated row is a cache hit; ties
    go by manifest position.  The primary files are parsed here, before
    any fork, so the workers inherit their parses.
    """
    groups: dict = {}
    keys: dict[str, tuple] = {}  # primary input -> its `Presentation.key`
    for i, row in enumerate(rows):
        name = row.inputs.get(KINDS[row.kind].primary)
        if name is not None and name not in keys:
            try:
                keys[name] = _load_presentation(base_dir / name).key
            except (PresentationError, ValueError, OSError):
                pass
        # a row without a readable primary file is a task of its own, which
        # fails in a worker as it would in a serial run
        groups.setdefault(keys.get(name, i), []).append(i)
    size = -(-len(rows) // jobs)
    tasks = [g[at : at + size] for g in groups.values() for at in range(0, len(g), size)]
    weight = lambda task: len({(rows[i].kind, frozenset(rows[i].inputs.items())) for i in task})
    return sorted(tasks, key=lambda task: (-weight(task), task[0]))


def _run(fn: Callable, items: list, i: int, outcome: list):
    """Put `fn(items[i])` in `outcome`, [the results by index, the first
    (index, exception)]; after an exception run nothing more."""
    if outcome[1] is None:
        try:
            outcome[0][i] = fn(items[i])
        except BaseException as exc:
            outcome[1] = (i, exc)


def _take(fn: Callable, items: list, queue: int, outcome: list) -> list:
    """`_run` each index that comes off the `queue` pipe until it is empty,
    and return `outcome`.  After an exception the rest of the queue is
    taken and not run, so the other processes stop soon."""
    while record := os.read(queue, 4):
        _run(fn, items, int.from_bytes(record, "little"), outcome)
    return outcome


def _forked_map(fn: Callable, items: list, workers: int) -> list:
    """`[fn(item) for item in items]`, worked by this process and
    `workers - 1` forked copies, each taking the next index from one pipe
    (an index that finds the pipe full runs in this process at once).

    Each child sends its results, or its exception, on a pipe of its own;
    all are waited for before this returns or raises.  The exception of the
    lowest index is raised again here, and a child that sends nothing
    raises a RuntimeError.  Without `os.fork` the items run here.
    """
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    sys.stdout.flush()
    sys.stderr.flush()
    queue_r, queue_w = os.pipe()
    children = {}  # pid -> read end of its result pipe
    replies = []
    mine = [{}, None]  # this process's results and first failure
    try:
        try:
            for _ in range(workers - 1):
                result_r, result_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        os.close(queue_w)  # the queue then ends when the parent closes its end
                        with open(result_w, "wb") as reply:
                            reply.write(pickle.dumps(_take(fn, items, queue_r, [{}, None])))
                        status = 0
                    finally:
                        os._exit(status)
                os.close(result_w)
                children[pid] = result_r
            # a write of 4 bytes is atomic, so no read gets part of a record;
            # an index that finds the pipe full runs here, so the queue never
            # waits for the children, which may all have died
            os.set_blocking(queue_w, False)
            for i in range(len(items)):
                try:
                    os.write(queue_w, i.to_bytes(4, "little"))
                except BlockingIOError:
                    _run(fn, items, i, mine)
        finally:
            os.close(queue_w)
        outcomes = [_take(fn, items, queue_r, mine)]
    finally:
        for pid, result_r in children.items():
            with open(result_r, "rb") as reply:
                replies.append((pid, reply.read(), os.waitpid(pid, 0)[1]))
        os.close(queue_r)
    for pid, reply, status in replies:
        if not reply:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"worker process {pid} exited with status {code}, sending nothing")
        outcomes.append(pickle.loads(reply))
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    done = {i: result for part, _ in outcomes for i, result in part.items()}
    return [done[i] for i in range(len(items))]


def cmd_corpus(manifest: Path, config: RunConfig, out=sys.stdout) -> int:
    """Run every row of `manifest`, with jobs > 1 in `_pool_tasks` on this
    process and up to jobs - 1 forked ones, and print the table in manifest
    order.  Each process writes the certificates of the rows it ran into
    `config.out_dir`, so a run that fails keeps those of its finished rows."""
    rows = parse_manifest(manifest)
    base_dir = manifest.parent
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    tasks = _pool_tasks(rows, base_dir, config.jobs) if config.jobs > 1 else []
    # this process is a worker too; fork no more workers than there are tasks
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        parts = _forked_map(
            lambda task: _run_rows(task, base_dir, config),
            [[rows[i] for i in task] for task in tasks],
            workers,
        )
        done = {i: result for task, part in zip(tasks, parts) for i, result in zip(task, part)}
        results = [done[i] for i in range(len(rows))]
    else:
        results = _run_rows(rows, base_dir, config)

    all_match = True
    print(f"{'instance':<28}{'expected':<10}{'got':<10}{'ms':>8}", file=out)
    for row, (got, elapsed) in zip(rows, results):
        flag = "" if got == row.expected else "   << MISMATCH"
        if got != row.expected:
            all_match = False
        print(f"{row.name:<28}{row.expected:<10}{got:<10}{elapsed:>8}{flag}", file=out)
    return EXIT_PROVED if all_match else EXIT_REFUTED


# ---------------------------------------------------------------------------
# argument parsing

# setting dest -> argparse options; `corpus` takes them all
_SETTINGS = {
    "budget_rules": {"type": int, "default": Budget().max_rules},
    "budget_cosets": {"type": int, "default": EnumLimits().max_cosets},
    "out": {"type": Path, "default": None},
    "jobs": {"type": int, "default": RunConfig.jobs},
}


def _add_settings(parser: argparse.ArgumentParser, dests) -> None:
    """Add the settings in `dests`, and --out, in one fixed order."""
    for dest, options in _SETTINGS.items():
        if dest in dests or dest == "out":
            parser.add_argument("--" + dest.replace("_", "-"), **options)


def _config(args) -> RunConfig:
    # a subcommand that does not take a setting leaves it at its default
    s = {dest: getattr(args, dest, opts["default"]) for dest, opts in _SETTINGS.items()}
    return RunConfig(
        rewrite_budget=Budget(max_rules=s["budget_rules"]),
        enum_limits=EnumLimits(max_cosets=s["budget_cosets"]),
        out_dir=s["out"],
        jobs=s["jobs"],
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpkit", description="finitely presented (semi)group toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    build = sub.add_parser("build", help="run a construction and write its output")
    verify = sub.add_parser("verify", help="verify one instance and emit a certificate")
    bsub = build.add_subparsers(dest="kind", required=True)
    vsub = verify.add_subparsers(dest="kind", required=True)
    for kind_name, kind in KINDS.items():
        bp = bsub.add_parser(kind_name)
        vp = vsub.add_parser(kind_name)
        for p in (bp, vp):
            for flag, options in kind.inputs:
                p.add_argument(flag, **options)
        bp.add_argument("--name", default=kind.name)
        vp.add_argument("--name", default="instance")
        _add_settings(bp, ())
        _add_settings(vp, kind.settings)

    corpus = sub.add_parser("corpus", help="run every instance of a manifest")
    corpus.add_argument(
        "manifest", type=Path, nargs="?", default=None, help="defaults to the bundled corpus"
    )
    _add_settings(corpus, _SETTINGS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config(args)
        if args.command == "corpus":
            manifest = args.manifest
            if manifest is None:
                from .corpus import bundled_manifest

                manifest = bundled_manifest()
            return cmd_corpus(manifest, config)

        if _bad_name(args.name):
            raise PresentationError(f"--name {args.name!r} is not a file name")
        kind = KINDS[args.kind]
        inputs = {k: getattr(args, k) for k in _input_keys(kind) if getattr(args, k) is not None}
        job = _job_from_row(ManifestRow(args.name, args.kind, inputs, ""), Path())
        if args.command == "build":
            build = kind.build(job)
            out_dir = config.out_dir or Path.cwd()
            out_dir.mkdir(parents=True, exist_ok=True)
            pres_path = out_dir / f"{args.name}.pres"
            pres_path.write_text(serialize_presentation(build.presentation), encoding="utf-8")
            (out_dir / f"{args.name}.audit.txt").write_text(build.trail.to_text(), encoding="utf-8")
            print(pres_path)
            return EXIT_PROVED

        cert = run_job(job, config)
        if config.out_dir is not None:
            config.out_dir.mkdir(parents=True, exist_ok=True)
            (config.out_dir / f"{args.name}.cert.json").write_text(
                cert.to_json(), encoding="utf-8"
            )
        print(f"{args.name}: {cert.overall.value}")
        return _EXIT_BY_OVERALL[cert.overall]
    except (PresentationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
