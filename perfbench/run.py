"""fpkit benchmark: verdict throughput, tail latency and time to unknown.

    python3 perfbench/run.py --workload corpus-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of an fpkit checkout; it imports fpkit from `src`
and writes only under `.perfbench/` there.  The seed fixes a batch of
instances (see `workloads`); every certificate is checked against ground
truth from `oracles`, which never asks fpkit.

With `--trace 0` a run times, each pass in a fresh interpreter:
  set-up      the generator nine times (interpreter start, `import fpkit`,
              writing the .pres files and the manifest); the median is setup_s;
  serial      passes of `fpkit.cli.run_job` over the batch in one process,
              for about half of --seconds;
  pool        passes of `fpkit.cli.cmd_corpus` with --jobs = usable CPUs,
              for the rest of --seconds.
Throughputs and peak RSS are medians over the passes; latencies are
taken over instances, each instance's latency being its median over the
serial passes.  Times are reported at a fixed reference pace of the host
(see `pace`).

With `--trace 1` a run alternates untraced and traced serial passes for
about half of --seconds, then makes one pool pass, and reports the
per-layer metrics of `spans` (from the last traced pass), the tracing
overhead (median traced over median untraced pass) and the pool speed-up.

The last line of output is one JSON object: correct, attempted, failed
and metrics.  An instance *fails* when its pipeline raises, a pass gives
it a different certificate (outside elapsed_ms and version), or its
certificate says something about the input presentations that the
ground truth contradicts.  It is *wrong* when it fails or when its
certificate is refuted or calls the test group trivial against the
ground truth (a construction defect that fpkit reports honestly).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import selftest
import workloads as W
from pace import REFERENCE_S, at_reference, pace

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 9
SERIAL_SHARE = 0.5
TAIL_BEYOND = 10  # instances beyond the tail percentile
HARD_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "verified_per_s": "1/s",
    "verified_per_s_pool": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "agree_ratio": "ratio",
    "decided_ratio": "ratio",
}

# the check in which each kind of certificate states the input's word problem
WORD_CHECK = {
    "markov": "s1-word-problem",
    "test-group": "base-word-problem",
    "property": "test-triviality",
}


class BenchError(Exception):
    pass


class Runner:
    """Children share one environment and one hard deadline."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = perf_counter() + HARD_LIMIT_S
        self.env = dict(os.environ)
        paths = [str(ROOT / "src")] + [p for p in [self.env.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.cpus = sorted(os.sched_getaffinity(0))

    def child(self, *args) -> float:
        """Run a python child in its own process group; return its wall time."""
        cmd = [sys.executable, *map(str, args)]
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(cmd)}") from None
        wall = perf_counter() - start
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-5:]
            raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: " + " | ".join(tail))
        return wall

    def setup(self, workload: str, seed: int, repeats: int) -> tuple[list[float], Path]:
        """Run the generator `repeats` times; return its times at the reference pace."""
        times = []
        before = [pace() for _ in range(3)]
        for k in range(repeats):
            out = self.workdir / f"batch{k}"
            wall = self.child(HERE / "workloads.py", "--workload", workload, "--seed", seed, "--out", out)
            after = [pace() for _ in range(3)]
            times.append(at_reference(wall, before + after))
            before = after
        return times, out

    def one_pass(self, mode: str, batch_dir: Path, *extra) -> dict:
        result = self.workdir / f"{mode}.json"
        self.child(HERE / "worker.py", mode, batch_dir, result, *extra)
        return json.loads(result.read_text(encoding="utf-8"))

    def pool_pass(self, batch_dir: Path) -> dict:
        """A pool pass, with the pace sampled on every usable CPU meanwhile."""
        samplers = [
            subprocess.Popen(
                [sys.executable, str(HERE / "pace.py"), "--cpu", str(cpu)],
                stdout=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
            for cpu in self.cpus
        ]
        paces: list[float] = []
        try:
            for sampler in samplers:
                paces.append(float(sampler.stdout.readline()))
            result = self.one_pass("pool", batch_dir, "--jobs", len(self.cpus))
        finally:
            for sampler in samplers:
                sampler.terminate()
                out, _ = sampler.communicate()
                paces += [float(x) for x in out.split()]
        result["paces_s"] = paces
        return result

    @staticmethod
    def rounds(until: float, *passes) -> list[list[dict]]:
        """Rounds of one call of each pass, until the next round would end
        after `until`; at least one round."""
        out: list[list[dict]] = [[] for _ in passes]
        while True:
            start = perf_counter()
            for got, one in zip(out, passes):
                got.append(one())
            now = perf_counter()
            if now + (now - start) > until:
                return out


# ---------------------------------------------------------------------------
# checking certificates


def _masked(cert_json: str) -> dict:
    cert = json.loads(cert_json)
    cert.pop("elapsed_ms", None)
    cert.pop("version", None)
    return cert


def _said(check: dict) -> str:
    """The verdict a word-problem or triviality check states in its notes."""
    if check["name"] == "test-triviality" or check["name"] == "test-group-triviality":
        return check["notes"].split(" ")[0]
    return check["notes"].rpartition(": ")[2]


def judge(inst: W.Instance, certs: list[str | None], errors: list[str | None]) -> tuple[str | None, bool, bool]:
    """(failure, wrong, decided) of one instance over all its passes."""
    if any(errors):
        return "raised: " + next(e for e in errors if e).strip().splitlines()[-1], True, False
    if any(c is None for c in certs):
        return "no certificate", True, False
    first = _masked(certs[0])
    if any(_masked(c) != first for c in certs[1:]):
        return "certificates differ between passes", True, False
    checks = {c["name"]: c for c in first["checks"]}
    word = checks.get(WORD_CHECK[inst.kind])
    if word is None:
        return f"no {WORD_CHECK[inst.kind]} check", True, False
    truth = ("trivial" if inst.truth else "nontrivial") if inst.kind == "property" else (
        "equal" if inst.truth else "distinct"
    )
    said = _said(word)
    if said not in ("equal", "distinct", "trivial", "nontrivial", "unknown"):
        return f"unreadable {word['name']} notes {word['notes']!r}", True, False
    if said not in ("unknown", truth):
        return f"{word['name']} says {said}, ground truth {truth}", True, False
    wrong = first["overall"] == "refuted"
    triv = checks.get("test-group-triviality")
    if triv is not None and _said(triv) in ("trivial", "nontrivial"):
        wrong |= (_said(triv) == "trivial") != inst.truth
    return None, wrong, first["overall"] == "proved" and not wrong


def check_batch(batch: W.Batch, serial: list[dict], pools: list[dict]) -> dict:
    failures: dict[str, str] = {}
    wrong = decided = 0
    passes = serial + pools
    pool_error = [p["errors"].get("pool") for p in pools]
    for inst in batch.instances:
        certs = [p["certs"].get(inst.name) for p in passes]
        errors = [p["errors"].get(inst.name) for p in serial] + pool_error
        failure, is_wrong, is_decided = judge(inst, certs, errors)
        if failure is not None:
            failures[inst.name] = failure
        wrong += is_wrong
        decided += is_decided
    n = len(batch.instances)
    overall = [json.loads(c)["overall"] for c in serial[0]["certs"].values()]
    return {
        "failures": failures,
        "wrong": wrong,
        "decided": decided,
        "counts": {v: overall.count(v) for v in ("proved", "refuted", "unknown")},
        "agree_ratio": 1 - wrong / n,
        "decided_ratio": decided / n,
    }


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> float:
    """The latency with TAIL_BEYOND instances beyond it."""
    return sorted(latencies)[len(latencies) - TAIL_BEYOND - 1]


def at_pace(serial_pass: dict) -> tuple[list[float], float]:
    """A serial pass's latencies and wall time at the reference pace.

    Each instance is scaled by the median pace of the few measured
    around it, since the host's speed can change within a pass.
    """
    paces = serial_pass["paces_s"]
    latencies, wall = [], 0.0
    for i, (lat, it) in enumerate(zip(serial_pass["latencies_s"], serial_pass["iterations_s"])):
        scale = REFERENCE_S / statistics.median(paces[max(0, i - 2): i + 4])
        latencies.append(lat * scale)
        wall += it * scale
    return latencies, wall


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    for suffix, u in (("_ms", "ms"), ("_ratio", "ratio"), ("_pct", "%"), ("speedup", "x"), ("lines", "lines")):
        if metric.endswith(suffix):
            return u
    return "count"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "fpkit").glob("*.py"))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and summary lines."""
    batch = W.generate(workload, seed)
    n = len(batch.instances)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{workload}: {n} instances leave no tail percentile")
    workdir = WORK / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir)
    try:
        setup_times, batch_dir = runner.setup(workload, seed, 1 if trace else SETUP_REPEATS)
        names = [ln.split("\t")[0] for ln in (batch_dir / "manifest.tsv").read_text().splitlines()[1:]]
        if names != [i.name for i in batch.instances]:
            raise BenchError("the written manifest differs from the generated batch")
        start = perf_counter()
        serial_until = start + SERIAL_SHARE * seconds
        untraced = partial(runner.one_pass, "serial", batch_dir)
        pool = partial(runner.pool_pass, batch_dir)
        if trace:
            spans_path = WORK / f"spans-{workload}.jsonl"
            traced_pass = partial(runner.one_pass, "serial", batch_dir, "--spans", spans_path)
            serial, traced = runner.rounds(serial_until, untraced, traced_pass)
            pools = [pool()]
            serial_all = serial + traced
        else:
            (serial,) = runner.rounds(serial_until, untraced)
            (pools,) = runner.rounds(start + seconds, pool)
            serial_all = serial
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checked = check_batch(batch, serial_all, pools)
    paced = [at_pace(p) for p in serial]
    per_s = statistics.median(n / wall for _, wall in paced)
    per_s_pool = statistics.median(n / at_reference(p["wall_s"], p["paces_s"]) for p in pools)
    raw_per_s = statistics.median(n / sum(p["iterations_s"]) for p in serial)
    raw_pace = statistics.median(x for p in serial for x in p["paces_s"])
    lines = [
        f"{workload} seed {seed}: {n} instances, {len(serial)} serial and {len(pools)} pool "
        f"passes (jobs {len(runner.cpus)})",
        f"  certificates {checked['counts']}, wrong {checked['wrong']}, failed "
        f"{len(checked['failures'])}, decided {checked['decided']}",
        f"  presentations repeated from an earlier instance: {batch.repeat_ratio():.3f}",
        f"  latency_tail_ms is p{100 * (n - TAIL_BEYOND) / n:.1f} ({TAIL_BEYOND} of {n} beyond)",
        f"  times are at the reference pace {REFERENCE_S * 1000:g} ms; measured pace "
        f"{raw_pace * 1000:.3f} ms, raw verified_per_s {raw_per_s:.4f}",
    ]
    lines += [f"  FAILED {name}: {why}" for name, why in sorted(checked["failures"].items())[:10]]
    if trace:
        last = traced[-1]
        scale = REFERENCE_S / statistics.median(last["paces_s"])
        layers = {k: v * scale if k.endswith("_ms") else v for k, v in last["layers"].items()}
        layers["cli.pool_speedup"] = per_s_pool / per_s
        layers["package.src_lines"] = src_lines()
        layers["batch.repeat_ratio"] = batch.repeat_ratio()
        traced_s = statistics.median(at_pace(p)[1] for p in traced)
        layers["trace.overhead_pct"] = 100 * (traced_s / statistics.median(w for _, w in paced) - 1)
        metrics = layers
        shares = last["layer_shares"]
        top = max(shares, key=shares.get)
        lines.append(
            "  self time by layer: "
            + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
            + f"; dominant {top}"
        )
        if last["trace_missing"]:
            lines.append("  not traced (missing): " + ", ".join(last["trace_missing"]))
    else:
        # each instance's latency is its median over the serial passes
        lat = [statistics.median(x) for x in zip(*(latencies for latencies, _ in paced))]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "verified_per_s": per_s,
            "verified_per_s_pool": per_s_pool,
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_tail_ms": 1000 * tail(lat),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in serial),
            "agree_ratio": checked["agree_ratio"],
            "decided_ratio": checked["decided_ratio"],
        }
    lines += [f"  {k:32s} {v:14.4f} {unit(k)}" for k, v in metrics.items()]
    failed = len(checked["failures"])
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS) + ["all"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fpkit" / "__init__.py").is_file():
        print(f"error: no fpkit sources under {ROOT / 'src'}; run from an fpkit checkout", file=sys.stderr)
        return 2
    bad = selftest.failures()
    if bad:
        print("error: ground-truth oracles fail their self-test: " + "; ".join(bad), file=sys.stderr)
        return 2
    workloads = sorted(W.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for workload in workloads:
            result, lines = measure(workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
