"""Independent oracles, the Markov dichotomy's checks, certificates.

Abelianization takes the Smith normal form of the integer relation
matrix (one row per relation, exponent sums per generator): the cheap
decidable shadow that certifies nontriviality and cross-checks every
construction that claims to preserve or compose group structure.

Each side of a Markov dichotomy has its own check, and neither
enumerates words.  When G = H in S1, `collapse_by_derivation` replays
the paper's short derivation that S_{G,H} is S4 with a zero, reading
only the built relations.  When G != H, `embedding_by_rewriting` decides
from the budgeted completions of the presentations
(`rewriting.normal_forms`), at every word length, whether a letter map
embeds one monoid in another.  Each reports Pass, Fail with a witness,
or Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

from .constructions import Build, MarkovInstance
from .presentations import (
    Kind,
    Presentation,
    Relation,
    ValidationError,
    Word,
    decode_word,
    substitute,
)
from .rewriting import Budget, normal_forms

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# Smith normal form over the integers


def _swap_rows(m: Matrix, i: int, j: int):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: Matrix, i: int, j: int):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m: Matrix, dst: int, src: int, factor: int):
    m[dst] = [a + factor * b for a, b in zip(m[dst], m[src])]


def _add_col(m: Matrix, dst: int, src: int, factor: int):
    for row in m:
        row[dst] += factor * row[src]


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Return (D, U, V) with D = U*A*V diagonal, d1 | d2 | ..., di >= 0.

    U and V are unimodular (products of elementary integer operations).
    Pivots are chosen by minimal absolute value to keep entries small;
    arithmetic is exact Python integers throughout.
    """
    d = [list(map(int, row)) for row in a]
    r = len(d)
    n = len(d[0]) if r else 0
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    t = 0
    while True:
        pivot = None
        for i in range(t, r):
            for j in range(t, n):
                if d[i][j] != 0 and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            _swap_rows(d, t, pi)
            _swap_rows(u, t, pi)
        if pj != t:
            _swap_cols(d, t, pj)
            _swap_cols(v, t, pj)

        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, r):
                if d[i][t] == 0:
                    continue
                q = d[i][t] // d[t][t]
                _add_row(d, i, t, -q)
                _add_row(u, i, t, -q)
                if d[i][t] != 0:  # remainder became the smaller pivot
                    _swap_rows(d, t, i)
                    _swap_rows(u, t, i)
                    dirty = True
            if dirty:
                continue
            # clear row t right of the pivot
            for j in range(t + 1, n):
                if d[t][j] == 0:
                    continue
                q = d[t][j] // d[t][t]
                _add_col(d, j, t, -q)
                _add_col(v, j, t, -q)
                if d[t][j] != 0:
                    _swap_cols(d, t, j)
                    _swap_cols(v, t, j)
                    dirty = True
            if dirty:
                continue
            # force the divisibility chain: fold a non-divisible row in
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(d, t, offender, 1)
            _add_row(u, t, offender, 1)

        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
        if t >= min(r, n):
            break
    return d, u, v


def diagonal_of(d: Matrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


# ---------------------------------------------------------------------------
# abelianization


@dataclass(frozen=True)
class AbelianInvariants:
    """Canonical invariants of a finitely generated abelian group."""

    torsion: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValidationError(f"torsion {self.torsion} is not a divisor chain")
        if any(t < 2 for t in self.torsion):
            raise ValidationError("torsion factors must be >= 2")

    @property
    def is_trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0

    def __str__(self) -> str:
        parts = [f"Z/{t}" for t in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def relation_matrix(p: Presentation) -> Matrix:
    rows = []
    for rel in p.relations:
        counts = {g: 0 for g in p.generators}
        for s, e in rel.lhs.letters:
            counts[s] += e
        for s, e in rel.rhs.letters:
            counts[s] -= e
        rows.append([counts[g] for g in p.generators])
    return rows


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariant factors of the abelianized group of `p`."""
    if p.kind is not Kind.GROUP:
        raise ValidationError("abelianization is defined for group presentations")
    n = len(p.generators)
    mat = relation_matrix(p)
    if not mat:
        return AbelianInvariants((), n)
    d, _, _ = smith_normal_form(mat)
    diag = [x for x in diagonal_of(d) if x != 0]
    torsion = tuple(x for x in diag if x > 1)
    return AbelianInvariants(torsion, n - len(diag))


# ---------------------------------------------------------------------------
# the Markov dichotomy's checks


class CheckVerdict(Enum):
    PASS = "pass"
    FAIL = "fail"
    UNKNOWN = "unknown"


@dataclass
class CheckReport:
    name: str
    verdict: CheckVerdict
    witness: str | None = None
    notes: str = ""
    budget_used: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict is CheckVerdict.FAIL and self.witness is None:
            raise ValidationError("a failing check must carry a witness")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict.value,
            "witness": self.witness,
            "notes": self.notes,
            "budget_used": {k: self.budget_used[k] for k in sorted(self.budget_used)},
        }


def _check_images(role: str, small: Presentation, big: Presentation, mapping: Mapping[str, Word]):
    for g, img in mapping.items():
        bad = img.symbols() - set(big.generators)
        if bad:
            raise ValidationError(f"{role} image of {g} uses unknown symbol {sorted(bad)[0]}")
    for g in small.generators:
        if g not in mapping:
            raise ValidationError(f"no image for generator {g}")


def embedding_by_rewriting(
    sub: Presentation, big: Presentation, inclusion: Mapping[str, Word], budget: Budget, name: str
) -> CheckReport:
    """Decide whether the monoid `sub` embeds in the monoid `big` under `inclusion`.

    Pass proves it at every length when (a) the generators map to distinct
    generators, (b) both systems are Complete, (c) no lhs of `big` in image
    letters pulls back to a `sub`-irreducible word and (d) the relations of
    `sub` hold among the images: irreducible words then map to irreducible
    words (Book & Otto, String-Rewriting Systems, 1993, ch. 2).  Fail, when
    `sub` is Complete, is a pair of words with different `sub` normal forms
    and equal images: two generators sent to one letter, or the pull-backs
    of both sides of a `big` rule.  Unknown names the hypothesis that failed.
    """
    _check_images("inclusion", sub, big, inclusion)
    unknown = lambda why: CheckReport(name, CheckVerdict.UNKNOWN, notes=f"not proved: {why}")
    if Kind.GROUP in (sub.kind, big.kind):
        return unknown("the proof needs two monoids")
    letters = {Word.single(s): 2 * j for j, s in enumerate(big.generators)}
    back: dict[int, int] = {}  # image letter -> the first generator sent to it
    pairs = []  # `sub` words whose images are equal in `big`
    for i, g in enumerate(sub.generators):
        c = letters.get(inclusion[g])
        if c is None:
            return unknown(f"the image of {g} is not a single letter")
        if c in back:
            pairs.append((bytes((back[c],)), bytes((2 * i,))))
        back.setdefault(c, 2 * i)
    sides = [substitute(w, inclusion) for rel in sub.relations for w in (rel.lhs, rel.rhs)]
    big_rs, nfs = normal_forms(big, sides, budget)
    pulled = []  # pull-backs of the lhs of `big` in image letters
    for r in big_rs.rules:
        if set(r.lhs) <= back.keys():
            pulled.append(bytes(back[c] for c in r.lhs))
            if set(r.rhs) <= back.keys():
                pairs.append((pulled[-1], bytes(back[c] for c in r.rhs)))
    words = [w for pair in pairs for w in pair] + pulled
    sub_rs, reduced = normal_forms(sub, [decode_word(sub, w) for w in words], budget)
    for k, (u, v) in enumerate(pairs):
        if sub_rs.complete and reduced[2 * k] != reduced[2 * k + 1]:
            witness = f"{decode_word(sub, u)} | {decode_word(sub, v)}"
            notes = "distinct words collapse in the big presentation"
            return CheckReport(name, CheckVerdict.FAIL, witness=witness, notes=notes)
    for side, rs in (("sub", sub_rs), ("big", big_rs)):
        if not rs.complete:
            return unknown(f"the {side} system is Partial")
    if len(back) < len(sub.generators):
        return unknown("two generators equal in sub map to one letter")
    if nfs[::2] != nfs[1::2]:
        return unknown("the relations of sub do not hold among the images")
    for u, nf in zip(pulled, reduced[2 * len(pairs):]):
        if u == nf:
            return unknown(f"a big lhs pulls back to the irreducible word {decode_word(sub, u)}")
    notes = (
        f"letters to distinct letters map irreducible words to irreducible words of Complete"
        f" systems ({len(sub_rs.rules)} and {len(big_rs.rules)} rules): distinct at every length"
    )
    return CheckReport(name, CheckVerdict.PASS, notes=notes)


def collapse_by_derivation(inst: MarkovInstance, build: Build, name: str) -> CheckReport:
    """Replay the derivation that S_{G,H} is S4 with a zero when G = H in S1.

    The build must hold S1's relations, c G d = 1 and xi c H d = c H d for
    every generator xi outside S4's letters and the zero.  Then G = H gives
    xi = xi c G d = xi c H d = c H d = c G d = 1 for each xi, so putting 1
    in for every xi keeps the monoid.  The relations that are left must be
    exactly S4's own, the zero's on S4's letters and z z = z: the build is
    then S4 with a zero adjoined, into which S4 embeds.  Fail names the
    first relation missing from the build, left over or not left.
    """
    p = build.presentation
    s1, s4, letters = build.maps["s1"], build.maps["s4"], build.maps["letters"]
    keep = {*s4.values(), p.zero}
    xi = [g for g in p.generators if g not in keep]
    fail = lambda rel, why: CheckReport(name, CheckVerdict.FAIL, witness=str(rel), notes=why)
    c, d = Word.single(letters["c"]), Word.single(letters["d"])
    chd = c * inst.h.renamed(s1) * d
    needed = [Relation(r.lhs.renamed(s1), r.rhs.renamed(s1)) for r in inst.s1.relations]
    needed.append(Relation(c * inst.g.renamed(s1) * d, Word()))
    needed += [Relation(Word.single(x) * chd, chd) for x in xi]
    # relations are compared as pairs of letter tuples, which hash in C
    have = {(r.lhs.letters, r.rhs.letters) for r in p.relations}
    for rel in needed:
        if (rel.lhs.letters, rel.rhs.letters) not in have:
            return fail(rel, "not a relation of S_{G,H}")
    z = Word.single(p.zero)
    expected = [Relation(r.lhs.renamed(s4), r.rhs.renamed(s4)) for r in inst.s4.relations]
    for g in s4.values():
        expected += [Relation(Word.single(g) * z, z), Relation(z * Word.single(g), z)]
    expected.append(Relation(z * z, z))
    expected = {(r.lhs.letters, r.rhs.letters): r for r in expected if r.lhs != r.rhs}
    left = set()
    for rel in p.relations:
        kept = (_kept(rel.lhs.letters, keep), _kept(rel.rhs.letters, keep))
        if kept[0] != kept[1]:
            if kept not in expected:
                return fail(rel, "left over once every xi is 1")
            left.add(kept)
    for kept, rel in expected.items():
        if kept not in left:
            return fail(rel, "not left once every xi is 1")
    notes = (
        f"G = H sets all {len(xi)} xi to 1 (xi = xi c G d = xi c H d = c H d = c G d = 1),"
        f" leaving S4 with a zero, into which S4 embeds"
    )
    used = {"relations": len(p.relations)}
    return CheckReport(name, CheckVerdict.PASS, notes=notes, budget_used=used)


def _kept(letters: tuple, keep: set) -> tuple:
    """The letters of a word on the symbols in `keep`, with 1 put in for the others."""
    kept = tuple(t for t in letters if t[0] in keep)
    # no letter went, or too few are left to merge
    return kept if len(kept) == len(letters) or len(kept) < 2 else Word(kept).letters


# ---------------------------------------------------------------------------
# certificates


class Overall(Enum):
    PROVED = "proved"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass
class Certificate:
    instance: dict
    construction: str
    recipe: str | None
    xi_range: str | None
    checks: list[CheckReport]
    overall: Overall
    version: str
    elapsed_ms: int = 0  # the run's wall time, which `cli.run_job` sets

    def to_json(self) -> str:
        payload = {
            "instance": self.instance,
            "construction": self.construction,
            "recipe": self.recipe,
            "xi_range": self.xi_range,
            "checks": [c.as_dict() for c in self.checks],
            "overall": self.overall.value,
            "version": self.version,
            "elapsed_ms": self.elapsed_ms,
        }
        return dump_json(payload) + "\n"


def dump_json(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)`` for dicts with string keys,
    lists, tuples, strings, ints, bools and None; other values raise
    TypeError.  With `indent` set the json module encodes in pure Python;
    this writes the same text with less work per value."""
    parts: list[str] = []
    _dump(obj, "\n", parts)
    return "".join(parts)


def _dump(obj, newline: str, parts: list[str]) -> None:
    # `newline` is a line break and the indentation of `obj`'s own line
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            sep = "," + inner
            _dump(item, inner, parts)
        parts.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts += (sep, encode_basestring_ascii(key), ": ")
            sep = "," + inner
            _dump(value, inner, parts)
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def assemble_certificate(
    instance: dict,
    construction: str,
    reports: Sequence[CheckReport],
    recipe: str | None = None,
    xi_range: str | None = None,
) -> Certificate:
    """Fold check reports into an overall verdict: any Fail refutes,
    otherwise the certificate is proved when every check passes and
    unknown when one is Unknown.
    """
    from . import __version__

    reports = list(reports)
    if not reports:
        raise ValidationError("cannot assemble a certificate from zero checks")
    verdicts = {r.verdict for r in reports}
    if CheckVerdict.FAIL in verdicts:
        overall = Overall.REFUTED
    elif CheckVerdict.UNKNOWN in verdicts:
        overall = Overall.UNKNOWN
    else:
        overall = Overall.PROVED
    return Certificate(
        instance=instance,
        construction=construction,
        recipe=recipe,
        xi_range=xi_range,
        checks=reports,
        overall=overall,
        version=__version__,
    )
