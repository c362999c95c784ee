"""Batch command-line front end.

Three commands: `build` writes a constructed presentation plus its audit
trail, `verify` runs the bounded check suite for one instance and emits a
certificate, `corpus` drives a manifest of instances (optionally in
parallel) and compares outcomes against expectations.  One table,
`KINDS`, drives the `build`/`verify` parsers, manifest rows and
`run_job`, so each subcommand accepts only the settings it reads.

Exit codes: 0 proved / all expectations matched, 1 refuted / mismatch,
2 usage or parse error, 3 unknown.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .coset import EnumLimits, Triviality, is_trivial
from .constructions import (
    GroupTestInstance,
    MarkovInstance,
    Mode,
    PropertySpec,
    XiRange,
    markov_property_reduction,
    markov_semigroup,
    triviality_test_group,
)
from .presentations import (
    ParseError,
    Presentation,
    PresentationError,
    Word,
    parse_presentation,
    parse_word,
    serialize_presentation,
    tietze_simplify,
)
from .rewriting import Budget, Verdict, words_equal
from .verify import (
    Certificate,
    CheckReport,
    CheckVerdict,
    Overall,
    Stopwatch,
    abelianization,
    assemble_certificate,
    collapse_check,
    embedding_by_rewriting,
    embedding_spot_check,
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
    cutoff: int = 6
    xi_range: XiRange = XiRange.ALL_GENERATORS
    recipe: str = "rabin-ladder"
    out_dir: Path | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.cutoff <= 0 or self.jobs <= 0:
            raise ValueError("cutoff and jobs must be positive")


def _load_presentation(path: Path) -> Presentation:
    try:
        return parse_presentation(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise PresentationError(f"{path}: no such file") from None
    except ParseError as exc:
        raise PresentationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# instance descriptions; `from_inputs` makes a job from manifest inputs, and
# command lines go through it too, since their argparse dests are the same keys


@dataclass(frozen=True)
class MarkovJob:
    name: str
    s0: Path
    s1: Path
    s4: Path
    g_text: str
    h_text: str
    xi_range: XiRange

    @classmethod
    def from_inputs(cls, name: str, inp: dict, root: Path, config: RunConfig) -> MarkovJob:
        xi = XiRange(inp.get("xi", config.xi_range.value))
        s0, s1, s4 = (root / inp[k] for k in ("s0", "s1", "s4"))
        return cls(name, s0, s1, s4, inp["G"], inp["H"], xi)


@dataclass(frozen=True)
class GroupTestJob:
    name: str
    base: Path
    a_text: str
    b_text: str | None
    recipe: str

    @classmethod
    def from_inputs(cls, name: str, inp: dict, root: Path, config: RunConfig) -> GroupTestJob:
        recipe = inp.get("recipe", config.recipe)
        return cls(name, root / inp["base"], inp["w"], inp.get("b"), recipe)


@dataclass(frozen=True)
class PropertyJob:
    name: str
    property_name: str
    g_plus: Path
    g_minus: Path
    test: Path
    mode: Mode

    @classmethod
    def from_inputs(cls, name: str, inp: dict, root: Path, config: RunConfig) -> PropertyJob:
        prop = inp.get("property", "unnamed property")
        g_plus, g_minus, test = (root / inp[k] for k in ("gplus", "gminus", "test"))
        return cls(name, prop, g_plus, g_minus, test, Mode(inp.get("mode", Mode.MARKOV.value)))


def _markov_instance(job: MarkovJob) -> MarkovInstance:
    return MarkovInstance(
        s0=_load_presentation(job.s0),
        s1=_load_presentation(job.s1),
        s4=_load_presentation(job.s4),
        g=parse_word(job.g_text),
        h=parse_word(job.h_text),
        xi_range=job.xi_range,
    )


def _group_instance(job: GroupTestJob) -> GroupTestInstance:
    return GroupTestInstance(
        base=_load_presentation(job.base),
        a_word=parse_word(job.a_text),
        b_word=parse_word(job.b_text) if job.b_text is not None else None,
        recipe=job.recipe,
    )


# ---------------------------------------------------------------------------
# verification pipelines


def _word_problem_report(name: str, pair: str, inner: Verdict) -> CheckReport:
    """Pass when the word-problem oracle decided `pair`, Unknown when it did not."""
    return CheckReport(
        name,
        CheckVerdict.PASS if inner is not Verdict.UNKNOWN else CheckVerdict.UNKNOWN,
        notes=f"{pair}: {inner.value}",
    )


def _triviality_report(name: str, triv: Triviality) -> CheckReport:
    """Pass when the triviality test decided, Unknown when it did not."""
    return CheckReport(
        name,
        CheckVerdict.PASS if triv.definite else CheckVerdict.UNKNOWN,
        notes=f"{triv.status}" + (f" ({triv.reason})" if triv.reason else ""),
    )


def verify_markov(
    job: MarkovJob, config: RunConfig, built: Presentation | None = None
) -> Certificate:
    watch = Stopwatch()
    inst = _markov_instance(job)
    build = markov_semigroup(inst)
    target = built if built is not None else build.presentation
    budget = config.rewrite_budget

    inner = words_equal(inst.s1, inst.g, inst.h, budget)
    reports = [_word_problem_report("s1-word-problem", "G vs H in S1", inner)]
    mandatory = ["s1-word-problem"]
    if inner is Verdict.EQUAL:
        projection = {g: Word.single(img) for g, img in build.maps["s4"].items()}
        reports.append(
            collapse_check(
                target, inst.s4, projection, config.cutoff, budget, name="collapse-onto-s4"
            )
        )
        mandatory.append("collapse-onto-s4")
    elif inner is Verdict.DISTINCT:
        inclusion = {g: Word.single(img) for g, img in build.maps["s0"].items()}
        reports.append(
            embedding_by_rewriting(inst.s0, target, inclusion, budget, name="s0-embedding")
            or embedding_spot_check(
                inst.s0, target, inclusion, config.cutoff, budget, name="s0-embedding"
            )
        )
        mandatory.append("s0-embedding")
    instance = {
        "name": job.name,
        "type": "markov",
        "inputs": {
            "G": job.g_text,
            "H": job.h_text,
            "s0": job.s0.name,
            "s1": job.s1.name,
            "s4": job.s4.name,
        },
    }
    return assemble_certificate(
        instance,
        "markov-semigroup",
        reports,
        mandatory,
        xi_range=job.xi_range.value,
        elapsed_ms=watch.ms(),
    )


def verify_test_group(
    job: GroupTestJob, config: RunConfig, built: Presentation | None = None
) -> Certificate:
    watch = Stopwatch()
    inst = _group_instance(job)
    build = triviality_test_group(inst)
    target = built if built is not None else build.presentation

    b_word = inst.b_word if inst.b_word is not None else Word()
    inner = words_equal(inst.base, inst.a_word, b_word, config.rewrite_budget)
    triv = is_trivial(target, config.enum_limits)

    reports = [
        _word_problem_report("base-word-problem", "A vs B in the base", inner),
        _triviality_report("test-group-triviality", triv),
    ]
    if inner is Verdict.UNKNOWN or not triv.definite:
        reports.append(
            CheckReport("dichotomy", CheckVerdict.UNKNOWN, notes="an engine returned unknown")
        )
    elif (inner is Verdict.EQUAL) == triv.is_trivial:
        reports.append(
            CheckReport(
                "dichotomy",
                CheckVerdict.PASS,
                notes=f"words {inner.value} and test group {triv.status}",
            )
        )
    else:
        reports.append(
            CheckReport(
                "dichotomy",
                CheckVerdict.FAIL,
                witness=f"words {inner.value} but test group {triv.status}",
                notes="the two engines contradict each other",
            )
        )
    instance = {
        "name": job.name,
        "type": "test-group",
        "inputs": {
            "A": job.a_text,
            "B": job.b_text if job.b_text is not None else "1",
            "base": job.base.name,
        },
    }
    return assemble_certificate(
        instance,
        "triviality-test-group",
        reports,
        ["base-word-problem", "test-group-triviality", "dichotomy"],
        recipe=job.recipe,
        elapsed_ms=watch.ms(),
    )


def _property_inputs(job: PropertyJob) -> tuple[PropertySpec, Presentation]:
    spec = PropertySpec(
        name=job.property_name,
        g_plus=_load_presentation(job.g_plus),
        g_minus=_load_presentation(job.g_minus),
        mode=job.mode,
    )
    return spec, _load_presentation(job.test)


def verify_property(job: PropertyJob, config: RunConfig) -> Certificate:
    watch = Stopwatch()
    spec, test = _property_inputs(job)
    build = markov_property_reduction(spec, test)
    triv = is_trivial(test, config.enum_limits)

    reports = [_triviality_report("test-triviality", triv)]
    mandatory = ["test-triviality"]
    if triv.is_trivial:
        reduced = tietze_simplify(build.presentation)
        witness = tietze_simplify(spec.g_plus)
        if reduced == witness:
            reports.append(
                CheckReport(
                    "witness-passthrough",
                    CheckVerdict.PASS,
                    notes="composition simplifies to the positive witness",
                )
            )
        elif abelianization(reduced) == abelianization(witness):
            reports.append(
                CheckReport(
                    "witness-passthrough",
                    CheckVerdict.PASS,
                    notes="abelianizations of composition and witness agree",
                )
            )
        else:
            reports.append(
                CheckReport(
                    "witness-passthrough",
                    CheckVerdict.FAIL,
                    witness=str(abelianization(reduced)),
                    notes="composition does not reduce to the witness",
                )
            )
        mandatory.append("witness-passthrough")
    elif triv.definite:
        inv = abelianization(build.presentation)
        if not inv.is_trivial:
            reports.append(
                CheckReport(
                    "obstruction-abelianization",
                    CheckVerdict.PASS,
                    notes=f"composition abelianization is {inv}",
                )
            )
        else:
            reports.append(
                CheckReport(
                    "obstruction-abelianization",
                    CheckVerdict.UNKNOWN,
                    notes="abelianization cannot see the obstruction",
                )
            )
        mandatory.append("obstruction-abelianization")
    instance = {
        "name": job.name,
        "type": "property",
        "inputs": {
            "g_minus": job.g_minus.name,
            "g_plus": job.g_plus.name,
            "mode": job.mode.value,
            "property": job.property_name,
            "test": job.test.name,
        },
    }
    return assemble_certificate(
        instance, "property-reduction", reports, mandatory, elapsed_ms=watch.ms()
    )


# ---------------------------------------------------------------------------
# instance kinds


@dataclass(frozen=True)
class _Kind:
    """How one kind of instance is read, built and verified."""

    job: type
    # argparse (flag, options) per input; each dest is the input's manifest key
    inputs: tuple[tuple[str, dict], ...]
    build_settings: tuple[str, ...]  # settings that shape the construction
    check_settings: tuple[str, ...]  # further settings that only `verify` reads
    build: Callable  # job -> construction with .presentation and .trail
    verify: Callable  # (job, config[, built]) -> Certificate
    takes_built: bool  # whether `verify` accepts --built instead of building
    name: str  # default --name of `build`


_REQUIRED = {"required": True}
KINDS = {
    "markov": _Kind(
        MarkovJob,
        (("s0", {}), ("s1", {}), ("s4", {}), ("--G", _REQUIRED), ("--H", _REQUIRED)),
        ("xi_range",),
        ("budget_rules", "cutoff"),
        lambda job: markov_semigroup(_markov_instance(job)),
        verify_markov,
        True,
        "s_gh",
    ),
    "test-group": _Kind(
        GroupTestJob,
        (("base", {}), ("--w", _REQUIRED), ("--b", {})),
        ("recipe",),
        ("budget_rules", "budget_cosets"),
        lambda job: triviality_test_group(_group_instance(job)),
        verify_test_group,
        True,
        "t",
    ),
    "property": _Kind(
        PropertyJob,
        (
            ("--g-plus", {"dest": "gplus", **_REQUIRED}),
            ("--g-minus", {"dest": "gminus", **_REQUIRED}),
            ("--test", _REQUIRED),
            ("--property-name", {"dest": "property", "default": "being the trivial group"}),
            ("--mode", {"choices": [m.value for m in Mode], "default": Mode.MARKOV.value}),
        ),
        (),
        ("budget_cosets",),
        lambda job: markov_property_reduction(*_property_inputs(job)),
        verify_property,
        False,
        "composite",
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


def parse_manifest(path: Path) -> list[ManifestRow]:
    rows = []
    line_of: dict[str, int] = {}  # instance name -> line that named it
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise PresentationError(f"{path}: no such manifest") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise PresentationError(
                f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}"
            )
        name, kind, inputs_field, expected = (p.strip() for p in parts)
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
            inputs[key.strip()] = value.strip()
        rows.append(ManifestRow(name, kind, inputs, expected))
    return rows


# manifest key of each build setting a row may state
_ROW_SETTINGS = {"xi_range": "xi", "recipe": "recipe"}


def _input_keys(kind: _Kind) -> list[str]:
    return [options.get("dest", flag.lstrip("-")) for flag, options in kind.inputs]


def _job_from_row(row: ManifestRow, base_dir: Path, config: RunConfig):
    kind = KINDS[row.kind]
    known = _input_keys(kind) + [_ROW_SETTINGS[s] for s in kind.build_settings]
    for key in row.inputs:
        if key not in known:
            raise PresentationError(f"instance {row.name}: unknown input {key}")
    try:
        return kind.job.from_inputs(row.name, row.inputs, base_dir, config)
    except KeyError as exc:
        raise PresentationError(f"instance {row.name}: missing input {exc}") from None


def run_job(job, config: RunConfig) -> Certificate:
    kind = next(k for k in KINDS.values() if isinstance(job, k.job))
    return kind.verify(job, config)


def _run_row(args) -> tuple[str, str]:
    row, base_dir, config = args
    cert = run_job(_job_from_row(row, base_dir, config), config)
    return row.name, cert.to_json()


def cmd_corpus(manifest: Path, config: RunConfig, out=sys.stdout) -> int:
    rows = parse_manifest(manifest)
    base_dir = manifest.parent
    workers = min(config.jobs, len(rows))
    if workers > 1:
        # Send the rows sorted by inputs, in at least 25 chunks per worker:
        # rows that share presentations then reach one worker and its caches,
        # and a chunk costs one round trip.  Under fork every worker starts at
        # once, so start no more than rows.
        ordered = sorted(rows, key=lambda row: (row.kind, tuple(row.inputs.items())))
        tasks = [(row, base_dir, config) for row in ordered]
        chunksize = max(1, len(rows) // (25 * workers))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            done = dict(pool.map(_run_row, tasks, chunksize=chunksize))
        # names are unique (parse_manifest checks), so they restore manifest order
        results = [(row.name, done[row.name]) for row in rows]
    else:
        results = [_run_row((row, base_dir, config)) for row in rows]

    all_match = True
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'instance':<28}{'expected':<10}{'got':<10}{'ms':>8}", file=out)
    for row, (name, cert_json) in zip(rows, results):
        payload = json.loads(cert_json)
        got = payload["overall"]
        elapsed = payload["elapsed_ms"]
        flag = "" if got == row.expected else "   << MISMATCH"
        if got != row.expected:
            all_match = False
        print(f"{name:<28}{row.expected:<10}{got:<10}{elapsed:>8}{flag}", file=out)
        if config.out_dir is not None:
            (config.out_dir / f"{name}.cert.json").write_text(cert_json, encoding="utf-8")
    return EXIT_PROVED if all_match else EXIT_REFUTED


# ---------------------------------------------------------------------------
# argument parsing

# setting dest -> argparse options; `corpus` takes them all
_SETTINGS = {
    "budget_rules": {"type": int, "default": Budget().max_rules},
    "budget_cosets": {"type": int, "default": EnumLimits().max_cosets},
    "cutoff": {"type": int, "default": RunConfig.cutoff},
    "xi_range": {"choices": [x.value for x in XiRange], "default": RunConfig.xi_range.value},
    "recipe": {"default": RunConfig.recipe},
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
        cutoff=s["cutoff"],
        xi_range=XiRange(s["xi_range"]),
        recipe=s["recipe"],
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
        if kind.takes_built:
            vp.add_argument("--built", type=Path, default=None)
        bp.add_argument("--name", default=kind.name)
        vp.add_argument("--name", default="instance")
        _add_settings(bp, kind.build_settings)
        _add_settings(vp, kind.build_settings + kind.check_settings)

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

        kind = KINDS[args.kind]
        inputs = {k: getattr(args, k) for k in _input_keys(kind) if getattr(args, k) is not None}
        job = _job_from_row(ManifestRow(args.name, args.kind, inputs, ""), Path(), config)
        if args.command == "build":
            build = kind.build(job)
            out_dir = config.out_dir or Path.cwd()
            out_dir.mkdir(parents=True, exist_ok=True)
            pres_path = out_dir / f"{args.name}.pres"
            pres_path.write_text(serialize_presentation(build.presentation), encoding="utf-8")
            (out_dir / f"{args.name}.audit.txt").write_text(build.trail.to_text(), encoding="utf-8")
            print(pres_path)
            return EXIT_PROVED

        built = {"built": _load_presentation(args.built)} if getattr(args, "built", None) else {}
        cert = kind.verify(job, config, **built)
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
