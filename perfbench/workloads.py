"""Seeded instance batches for the fpkit benchmark.

Each workload turns a seed into a batch of instances: presentation files,
a corpus manifest that `fpkit corpus` reads, and the run configuration
(cutoff and budgets).  The ground truth of every instance comes from
`oracles`, never from fpkit, and stays in the benchmark's memory; fpkit
receives only the files.

    python3 perfbench/workloads.py --workload corpus-mix --seed 1 --out DIR

writes one batch; the benchmark times this command as its set-up.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import oracles as O

# The S1 monoids and the bases of the bundled corpus, with the oracle
# that decides their word problems.
S1 = {
    "s1_idempotent": (("g",), "g^2 = g", "idempotent"),
    "s1_cubed": (("g",), "g^3 = g", "cubed"),
    "s1_commutative": (("u", "v"), "u v = v u", "commutative"),
    "s1_left_absorbing": (("p", "q"), "p q = p, q p = q", "left_absorbing"),
    "s1_period_two": (("m",), "m^4 = m^2", "period_two"),
    "s1_free_y": (("y",), "", "free"),
    "s1_free_pair": (("s", "t"), "", "free"),
}
# g^2 = g makes every nonempty word equal, so it has no distinct side.
S1_WITH_DISTINCT = [name for name in S1 if name != "s1_idempotent"]

BASES = {
    "base_killed": (("a",), "a = 1", {"a": 1}),
    "base_c5": (("a",), "a^5 = 1", {"a": 5}),
    "base_z6": (("a",), "a^6 = 1", {"a": 6}),
    "base_z": (("a",), "", {"a": 0}),
    "base_z2": (("a", "b"), "a b = b a", {"a": 0, "b": 0}),
    "base_klein": (("a", "b"), "a^2 = 1, b^2 = 1, a b a b = 1", {"a": 2, "b": 2}),
    "base_f2": (("a", "b"), "", None),
}

FIXED_FILES = {
    "s0_free_x.pres": ("monoid", ("x",), ""),
    "s0_free_xw.pres": ("monoid", ("x", "w"), ""),
    "s4_trivial.pres": ("monoid", (), ""),
    "gplus_trivial.pres": ("group", (), ""),
}

# (m, n) of the Baumslag-Solitar bases a^-1 b^m a = b^n in `exhaust`
BS_PARAMS = [(1, 2), (2, 1), (1, 3), (2, 3), (3, 2), (3, 1)]


def pres_text(kind: str, gens, rels: str) -> str:
    gline = "gens: " + ", ".join(gens) if gens else "gens:"
    rline = "rels: " + rels if rels else "rels:"
    return f"{kind}\n{gline}\n{rline}\n"


@dataclass
class Instance:
    name: str
    kind: str  # markov | test-group | property
    inputs: dict[str, str]
    truth: bool  # markov: G = H in S1; test-group: A = B in the base; property: test trivial
    shares: str  # the instance's input presentations, for the repeat share
    expected: str = "proved"  # the manifest's expected verdict


@dataclass
class Batch:
    config: dict
    files: dict[str, str] = field(default_factory=dict)
    instances: list[Instance] = field(default_factory=list)

    def repeat_ratio(self) -> float:
        """Share of instances whose presentations an earlier instance used."""
        seen: set[str] = set()
        repeats = 0
        for inst in self.instances:
            repeats += inst.shares in seen
            seen.add(inst.shares)
        return repeats / len(self.instances)

    def write(self, out: Path, header: str) -> None:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (out / name).write_text(text, encoding="utf-8")
        lines = [f"# {header}"]
        for inst in self.instances:
            inputs = ";".join(f"{k}={v}" for k, v in inst.inputs.items())
            lines.append(f"{inst.name}\t{inst.kind}\t{inputs}\t{inst.expected}")
        (out / "manifest.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (out / "config.json").write_text(json.dumps(self.config) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# random words


def positive_word(rng, gens, lo: int, hi: int):
    return O.merged([(rng.choice(gens), 1) for _ in range(rng.randint(lo, hi))])


def group_word(rng, gens, lo: int, hi: int):
    return O.merged([(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(lo, hi))])


def _sample(make, accept, what: str):
    for _ in range(10_000):
        got = make()
        if accept(got):
            return got
    raise RuntimeError(f"no sample found for {what}")


# ---------------------------------------------------------------------------
# instance kinds


def _use(batch: Batch, name: str, kind: str, gens, rels: str) -> str:
    batch.files.setdefault(name, pres_text(kind, gens, rels))
    return name


def markov(batch: Batch, name: str, rng, s1: str, equal: bool, j: int, s0: str = "s0_free_x.pres"):
    """The j-th instance of its stratum; G has length 1 + j % 4."""
    gens, rels, family = S1[s1]
    key = O.MONOID_KEYS[family]
    g, h = _sample(
        lambda: (positive_word(rng, gens, 1 + j % 4, 1 + j % 4), positive_word(rng, gens, 1, 4)),
        lambda gh: (key(O.letters(gh[0])) == key(O.letters(gh[1]))) == equal,
        f"{s1} equal={equal}",
    )
    s1_file = _use(batch, f"{s1}.pres", "monoid", gens, rels)
    inputs = {"s0": s0, "s1": s1_file, "s4": "s4_trivial.pres", "G": O.fmt(g), "H": O.fmt(h), "xi": "all"}
    batch.instances.append(Instance(name, "markov", inputs, equal, f"{s0}+{s1_file}"))


def _targets(moduli) -> list[tuple[int, ...]]:
    """Nonzero values of the abelian key, one residue or -1, 0, 1 per generator."""
    ranges = [range(m) if m else (-1, 0, 1) for _, m in sorted(moduli.items())]
    return [k for k in itertools.product(*ranges) if any(k)]


def test_group(batch: Batch, name: str, rng, base: str, equal: bool, j: int):
    """The j-th instance of its stratum.

    On the distinct side every other instance has the one-word form, and
    over an abelian base the value of A B^-1 cycles through the nonzero
    values of `_targets`: it decides whether fpkit's abelianization
    shortcut applies, so each batch gets the same share of each value.
    """
    gens, rels, moduli = BASES[base]
    key = O.abelian_key(moduli) if moduli is not None else O.free_key
    one_word = not equal and j % 2 == 1
    if moduli is None or equal:
        target = key([]) if equal else None
    else:
        targets = _targets(moduli)
        target = targets[j // 2 % len(targets)]

    def accept(ab):
        value = key(O.merged(ab[0] + O.inverse(ab[1])))
        return bool(ab[0]) and (value == target if target is not None else value != key([]))

    a, b = _sample(
        lambda: (group_word(rng, gens, 1, 3), [] if one_word else group_word(rng, gens, 1, 3)),
        accept,
        f"{base} equal={equal}",
    )
    base_file = _use(batch, f"{base}.pres", "group", gens, rels)
    inputs = {"base": base_file, "w": O.fmt(a)}
    if b:
        inputs["b"] = O.fmt(b)
    batch.instances.append(Instance(name, "test-group", inputs, equal, base_file))


def property_instance(batch: Batch, name: str, rng, trivial: bool):
    k, l = _sample(
        lambda: (rng.randint(2, 12), rng.randint(2, 12)),
        lambda kl: (O.cyclic_order(*kl) == 1) == trivial,
        f"cyclic test trivial={trivial}",
    )
    test = _use(batch, f"cyc_{k}_{l}.pres", "group", ("a",), f"a^{k} = 1, a^{l} = 1")
    inputs = {
        "gplus": "gplus_trivial.pres",
        "gminus": "base_z.pres",
        "test": test,
        "property": "being the trivial group",
        "mode": "markov",
    }
    _use(batch, "base_z.pres", "group", ("a",), "")
    batch.instances.append(Instance(name, "property", inputs, trivial, test))


def bs_test_group(batch: Batch, name: str, rng, i: int, equal: bool):
    """A one-word test group over a Baumslag-Solitar base with its own letters."""
    m, n = BS_PARAMS[i // 2 % len(BS_PARAMS)]
    b, a = f"y{i}", f"x{i}"
    relator = [(a, -1), (b, m), (a, 1), (b, -n)]
    if equal:
        u = group_word(rng, (a, b), 0, 2)
        r = relator if rng.random() < 0.5 else O.inverse(relator)
        w = O.merged(u + r + O.inverse(u))
    else:
        w = _sample(
            lambda: group_word(rng, (a, b), 1, 3), lambda w: O.bs_nontrivial(w, a), "BS word"
        )
    base = _use(batch, f"bs_{i}.pres", "group", (b, a), f"{a}^-1 {b}^{m} {a} = {b}^{n}")
    inputs = {"base": base, "w": O.fmt(w)}
    batch.instances.append(Instance(name, "test-group", inputs, equal, base, "unknown"))


def braid_markov(batch: Batch, name: str, rng, i: int, equal: bool):
    """A markov instance over the braid monoid a b a = b a b with its own letters."""
    a, b = f"a{i}", f"b{i}"
    if equal:

        def make():
            g = O.letters(positive_word(rng, (a, b), 3, 5))
            spots = [at for at in range(len(g) - 2) if O.braid_move(g, a, b, at)]
            return (g, O.braid_move(g, a, b, rng.choice(spots))) if spots else None

        g, h = _sample(make, bool, "braid move")
    else:
        g, h = _sample(
            lambda: (positive_word(rng, (a, b), 2, 5), positive_word(rng, (a, b), 2, 5)),
            lambda gh: O.braid_distinct(*gh),
            "braid lengths",
        )
        g, h = O.letters(g), O.letters(h)
    s1 = _use(batch, f"braid_{i}.pres", "monoid", (a, b), f"{a} {b} {a} = {b} {a} {b}")
    inputs = {
        "s0": "s0_free_x.pres",
        "s1": s1,
        "s4": "s4_trivial.pres",
        "G": O.fmt([(s, 1) for s in g]),
        "H": O.fmt([(s, 1) for s in h]),
        "xi": "all",
    }
    expected = "proved" if equal else "unknown"
    batch.instances.append(Instance(name, "markov", inputs, equal, s1, expected))


# ---------------------------------------------------------------------------
# workloads
#
# Every workload fixes the count of each stratum (kind x presentation x
# side), and within a stratum the length of G and the abelian value of the
# test word, and draws only the rest of the words at random, so that
# batches of different seeds do the same kinds of work.


def _corpus_mix(batch: Batch, rng, n: int):
    markov_strata = [(s1, True) for s1 in S1] + [(s1, False) for s1 in S1_WITH_DISTINCT]
    group_strata = [(base, eq) for base in BASES for eq in (True, False) if base != "base_killed" or eq]
    n_markov, n_group = n // 2, 2 * n // 5
    for i in range(n_markov):
        s1, eq = markov_strata[i % len(markov_strata)]
        markov(batch, f"m{i:03d}", rng, s1, eq, i // len(markov_strata))
    for i in range(n_group):
        base, eq = group_strata[i % len(group_strata)]
        test_group(batch, f"t{i:03d}", rng, base, eq, i // len(group_strata))
    for i in range(n - n_markov - n_group):
        property_instance(batch, f"p{i:03d}", rng, i % 2 == 0)


def _embed_wide(batch: Batch, rng, n: int):
    # seven in eight on the G != H side, where the embedding check runs
    for i in range(n):
        if i % 8 == 7:
            s1 = list(S1)[i // 8 % len(S1)]
            markov(batch, f"e{i:03d}", rng, s1, True, i // 8, s0="s0_free_xw.pres")
        else:
            s1 = S1_WITH_DISTINCT[i % len(S1_WITH_DISTINCT)]
            markov(batch, f"d{i:03d}", rng, s1, False, i // len(S1_WITH_DISTINCT), s0="s0_free_xw.pres")


def _exhaust(batch: Batch, rng, n: int):
    # half Baumslag-Solitar test groups (both sides), half braid monoid
    # instances of which one in four is on the equal side
    for i in range(n):
        if i % 2 == 0:
            bs_test_group(batch, f"bs{i:03d}", rng, i, equal=i % 4 == 0)
        else:
            braid_markov(batch, f"br{i:03d}", rng, i, equal=i % 8 == 1)


WORKLOADS = {
    # name: (function filling the batch, instances per batch, run configuration)
    "corpus-mix": (_corpus_mix, 400, {"cutoff": 6, "budget": None, "limits": None}),
    "embed-wide": (_embed_wide, 48, {"cutoff": 5, "budget": None, "limits": None}),
    "exhaust": (
        _exhaust,
        48,
        {
            "cutoff": 6,
            "budget": {"max_rules": 100, "max_rule_length": 20, "max_iterations": 1000},
            "limits": {"max_cosets": 1000, "max_deductions": 100_000},
        },
    ),
}


def generate(workload: str, seed: int) -> Batch:
    build, n, config = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    batch = Batch(dict(config))
    for fname, (kind, gens, rels) in FIXED_FILES.items():
        batch.files[fname] = pres_text(kind, gens, rels)
    build(batch, rng, n)
    rng.shuffle(batch.instances)
    return batch


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    import fpkit

    batch = generate(args.workload, args.seed)
    batch.write(args.out, f"fpkit {fpkit.__version__}, workload {args.workload}, seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
