"""The machine's current pace, from a fixed piece of pure-Python work.

On a shared 2-core host the machine's speed drifts in plateaus lasting
tens of seconds: six serial passes over one and the same batch took from
9.4 to 15.4 s.  Divided by the pace measured next to each instance, the
same passes differed by about 3%.  So the benchmark times `pace()` next
to every instance and reports times at the reference pace REFERENCE_S:
a time t measured while `pace()` took p is reported as t * REFERENCE_S / p.
The work is shaped like fpkit's inner loops (tuple slices looked up in a
dict, sorting), so that contention slows it about as much as it slows
fpkit.  A process pool keeps every CPU busy, so during a pool pass

    python3 perfbench/pace.py --cpu N

samples the pace on CPU N every 50 ms (about 2% of that CPU) until it is
terminated.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from time import perf_counter, sleep

REFERENCE_S = 0.001
SAMPLE_EVERY_S = 0.05

_RULES = {(i % 7, i % 5, i % 3): (i % 2,) for i in range(60)}
_WORD = tuple((i * 7) % 5 for i in range(300))


def pace() -> float:
    """Seconds taken by the fixed work, about 1 ms on an idle host."""
    start = perf_counter()
    hits = 0
    for _ in range(12):
        w = list(_WORD)
        for i in range(len(w) - 3):
            hits += tuple(w[i:i + 3]) in _RULES
        sorted(_RULES.items())
    return perf_counter() - start


def at_reference(seconds: float, paces: list[float]) -> float:
    """`seconds` measured while `pace()` took the median of `paces`."""
    return seconds * REFERENCE_S / statistics.median(paces)


def main(argv=None) -> int:
    """Print the pace on one CPU every SAMPLE_EVERY_S until terminated."""
    ap = argparse.ArgumentParser(description="sample the pace on one CPU until terminated")
    ap.add_argument("--cpu", type=int, required=True)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    while True:
        print(f"{pace():.9f}", flush=True)
        sleep(SAMPLE_EVERY_S)


if __name__ == "__main__":
    sys.exit(main())
