"""One pass over a generated batch, in a fresh interpreter.

    python3 perfbench/worker.py serial BATCH_DIR RESULT_JSON [--spans SPANS_JSONL]
    python3 perfbench/worker.py pool BATCH_DIR RESULT_JSON --jobs N

`serial` runs every manifest row through `fpkit.cli.run_job` in one
process and times each call; with `--spans` it traces the layers (see
`spans`) and adds their metrics.  `pool` runs the manifest through
`fpkit.cli.cmd_corpus` with a process pool of N workers.  Either writes
the certificates and the timings to RESULT_JSON; a serial pass adds the
machine's pace (see `pace`) before each instance and after the last.  Each pass starts from a
fresh interpreter so fpkit's caches start cold, as for a CLI user.
fpkit is imported from PYTHONPATH, which the benchmark points at `src`.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import fpkit.cli as cli
from fpkit.coset import EnumLimits
from fpkit.rewriting import Budget
from pace import pace


def run_config(batch_dir: Path, **extra) -> cli.RunConfig:
    spec = json.loads((batch_dir / "config.json").read_text(encoding="utf-8"))
    kwargs = dict(cutoff=spec["cutoff"], **extra)
    if spec["budget"]:
        kwargs["rewrite_budget"] = Budget(**spec["budget"])
    if spec["limits"]:
        kwargs["enum_limits"] = EnumLimits(**spec["limits"])
    return cli.RunConfig(**kwargs)


def serial(batch_dir: Path, spans_path: Path | None) -> dict:
    tracer = None
    if spans_path is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    config = run_config(batch_dir, jobs=1)
    certs: dict[str, str] = {}
    errors: dict[str, str] = {}
    latencies: list[float] = []  # run_job alone
    iterations: list[float] = []  # making the job, run_job and the certificate's JSON
    paces = [pace()]  # before each instance and after the last
    rows = cli.parse_manifest(batch_dir / "manifest.tsv")
    for i, row in enumerate(rows):
        if tracer is not None:
            tracer.instance = i
        start = perf_counter()
        job = cli._job_from_row(row, batch_dir, config)
        t0 = perf_counter()
        try:
            cert = cli.run_job(job, config)
            latencies.append(perf_counter() - t0)
            certs[row.name] = cert.to_json()
        except Exception:  # one failing instance must not hide the others
            latencies.append(perf_counter() - t0)
            errors[row.name] = traceback.format_exc(limit=4)
        iterations.append(perf_counter() - start)
        paces.append(pace())
    out = {
        "latencies_s": latencies,
        "iterations_s": iterations,
        "paces_s": paces,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "certs": certs,
        "errors": errors,
    }
    if tracer is not None:
        out["layers"], out["layer_shares"] = tracer.layer_metrics()
        out["trace_missing"] = tracer.missing
        tracer.write(spans_path)
    return out


def pool(batch_dir: Path, jobs: int) -> dict:
    with tempfile.TemporaryDirectory(dir=batch_dir) as tmp:
        out_dir = Path(tmp)
        config = run_config(batch_dir, jobs=jobs, out_dir=out_dir)
        errors = {}
        start = perf_counter()
        try:
            cli.cmd_corpus(batch_dir / "manifest.tsv", config, out=io.StringIO())
        except Exception:  # a pass that dies still reports what it wrote
            errors["pool"] = traceback.format_exc(limit=4)
        wall = perf_counter() - start
        suffix = ".cert.json"
        certs = {p.name[: -len(suffix)]: p.read_text(encoding="utf-8") for p in out_dir.glob("*" + suffix)}
    return {"wall_s": wall, "certs": certs, "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["serial", "pool"])
    ap.add_argument("batch_dir", type=Path)
    ap.add_argument("result", type=Path)
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)
    if args.mode == "serial":
        result = serial(args.batch_dir, args.spans)
    else:
        result = pool(args.batch_dir, args.jobs)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
