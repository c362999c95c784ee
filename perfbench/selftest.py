"""Self-test of the ground-truth oracles against hand-checked cases.

    python3 perfbench/selftest.py

exits 1 and names every case the oracles get wrong.  The benchmark runs
these cases before every measurement and refuses to report on a failure.
"""

from __future__ import annotations

import sys

import oracles as O
import workloads as W

P = O.parse
Z2 = O.abelian_key({"a": 0, "b": 0})
KLEIN = O.abelian_key({"a": 2, "b": 2})


def cyclic(n):
    return O.abelian_key({"a": n})


# (description, computed, expected), each checked by hand
CASES = [
    ("a != 1 in Z/2", O.group_equal(cyclic(2), P("a"), P("1")), False),
    ("a^7 = a^2 in Z/5", O.group_equal(cyclic(5), P("a^7"), P("a^2")), True),
    ("a^2 != a^4 in Z/6", O.group_equal(cyclic(6), P("a^2"), P("a^4")), False),
    ("a^-3 = a^3 in Z/6", O.group_equal(cyclic(6), P("a^-3"), P("a^3")), True),
    ("a = 1 in <a | a = 1>", O.group_equal(cyclic(1), P("a"), P("1")), True),
    ("a != 1 in Z", O.group_equal(cyclic(0), P("a"), P("1")), False),
    ("a b = b a in Z^2", O.group_equal(Z2, P("a b"), P("b a")), True),
    ("a b a^-1 = b in Z^2", O.group_equal(Z2, P("a b a^-1"), P("b")), True),
    ("a b != b in Z^2", O.group_equal(Z2, P("a b"), P("b")), False),
    ("a b = b a in the Klein group", O.group_equal(KLEIN, P("a b"), P("b a")), True),
    ("a b a = b in the Klein group", O.group_equal(KLEIN, P("a b a"), P("b")), True),
    ("a != b in the Klein group", O.group_equal(KLEIN, P("a"), P("b")), False),
    ("a b != b a in F2", O.group_equal(O.free_key, P("a b"), P("b a")), False),
    ("a b b^-1 = a in F2", O.group_equal(O.free_key, P("a b b^-1"), P("a")), True),
    ("a b a^-1 b^-1 != 1 in F2", O.group_equal(O.free_key, P("a b a^-1 b^-1"), P("1")), False),
    ("g^3 = g in s1_cubed", O.monoid_equal("cubed", P("g^3"), P("g")), True),
    ("g^2 != g in s1_cubed", O.monoid_equal("cubed", P("g^2"), P("g")), False),
    ("g^4 = g^2 in s1_cubed", O.monoid_equal("cubed", P("g^4"), P("g^2")), True),
    ("g^3 = g in s1_idempotent", O.monoid_equal("idempotent", P("g^3"), P("g")), True),
    ("u v u = v u u in s1_commutative", O.monoid_equal("commutative", P("u v u"), P("v u u")), True),
    ("u != v in s1_commutative", O.monoid_equal("commutative", P("u"), P("v")), False),
    ("p q q = p in s1_left_absorbing", O.monoid_equal("left_absorbing", P("p q q"), P("p")), True),
    ("p q != q p in s1_left_absorbing", O.monoid_equal("left_absorbing", P("p q"), P("q p")), False),
    ("m^6 = m^2 in s1_period_two", O.monoid_equal("period_two", P("m^6"), P("m^2")), True),
    ("m != m^3 in s1_period_two", O.monoid_equal("period_two", P("m"), P("m^3")), False),
    ("m^3 = m^5 in s1_period_two", O.monoid_equal("period_two", P("m^3"), P("m^5")), True),
    ("y != y^2 in s1_free_y", O.monoid_equal("free", P("y"), P("y^2")), False),
    ("s t != t s in s1_free_pair", O.monoid_equal("free", P("s t"), P("t s")), False),
    ("a b != a b a in the braid monoid", O.braid_distinct(P("a b"), P("a b a")), True),
    ("a b a vs b a b undecided by length", O.braid_distinct(P("a b a"), P("b a b")), None),
    ("a b a -> b a b", O.braid_move(("a", "b", "a"), "a", "b", 0), ("b", "a", "b")),
    ("x y x^-1 != 1 in BS(1,2), a = x", O.bs_nontrivial(P("x y x^-1"), "x"), None),
    ("x y != 1 in BS(1,2), a = x", O.bs_nontrivial(P("x y"), "x"), True),
    ("<a | a^4, a^6> is Z/2", O.cyclic_order(4, 6), 2),
    ("<a | a^4, a^9> is trivial", O.cyclic_order(4, 9), 1),
    ("merge frees a a^-1", O.fmt(P("b a a^-1 b")), "b^2"),
]


def _recomputed(inst) -> bool | None:
    """The truth of a generated instance, recomputed from its written text.

    None where arithmetic decides only the other side and the generator
    built this side by construction (relator conjugates, braid moves).
    """
    if inst.kind == "property":
        k, l = (int(x) for x in inst.inputs["test"][len("cyc_"):-len(".pres")].split("_"))
        return O.cyclic_order(k, l) == 1
    if inst.kind == "markov":
        g, h = P(inst.inputs["G"]), P(inst.inputs["H"])
        s1 = inst.inputs["s1"][: -len(".pres")]
        if s1 in W.S1:
            return O.monoid_equal(W.S1[s1][2], g, h)
        return False if O.braid_distinct(g, h) else None
    w = P(inst.inputs["w"])
    base = inst.inputs["base"][: -len(".pres")]
    if base in W.BASES:
        moduli = W.BASES[base][2]
        key = O.abelian_key(moduli) if moduli is not None else O.free_key
        return O.group_equal(key, w, P(inst.inputs.get("b", "1")))
    stable = "x" + base[len("bs_"):]
    return False if O.bs_nontrivial(w, stable) else None


def _generated_truths() -> list[str]:
    bad = []
    for workload in W.WORKLOADS:
        batch = W.generate(workload, 0)
        again = W.generate(workload, 0)
        if [i.inputs for i in batch.instances] != [i.inputs for i in again.instances]:
            bad.append(f"{workload}: the same seed gave different instances")
        for inst in batch.instances:
            got = _recomputed(inst)
            if got is not None and got != inst.truth:
                bad.append(f"{workload} {inst.name}: truth {inst.truth} but text says {got}")
            if got is None and not inst.truth:
                bad.append(f"{workload} {inst.name}: distinct side not decided by arithmetic")
    return bad


def failures() -> list[str]:
    bad = [f"{what}: got {got!r}, expected {want!r}" for what, got, want in CASES if got != want]
    return bad + _generated_truths()


if __name__ == "__main__":
    found = failures()
    for line in found:
        print("FAIL", line)
    print(f"{len(CASES)} hand-checked cases, {len(found)} failures")
    sys.exit(1 if found else 0)
