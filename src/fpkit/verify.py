"""Independent oracles, embedding proofs and bounded empirical checks.

Abelianization takes the Smith normal form of the integer relation
matrix (one row per relation, exponent sums per generator): the cheap
decidable shadow that certifies nontriviality and cross-checks every
construction that claims to preserve or compose group structure.

`embedding_by_rewriting` proves a monoid embedding at every word length
when both systems are Complete and letters map to distinct letters (see
its hypotheses).  Otherwise, and for the collapse side of a dichotomy,
the bounded checks decide words up to a length cutoff in one pass with
two entry points: `embedding_spot_check` asks whether distinct words
keep distinct images, `collapse_check` also whether every built
generator equals a target image, the zero or the identity.  Both reduce
each word and image once against the budgeted completion of its
presentation (`rewriting.normal_forms`), group the words by normal form
under the soundness rules of the word-problem oracle instead of
comparing pairs, and report Pass / Fail-with-witness / Unknown.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Iterable, Mapping, Sequence

from .presentations import Kind, Presentation, ValidationError, Word, decode_word, power_letters
from .rewriting import Budget, DEFAULT_BUDGET, normal_forms

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
# bounded checks


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


def enumerate_words(generators: Sequence[str], max_length: int) -> list[Word]:
    """All positive words over `generators` of length 0..max_length."""
    out = [Word()]
    for k in range(1, max_length + 1):
        for combo in product(generators, repeat=k):
            out.append(Word(tuple((s, 1) for s in combo)))
    return out


def _image(w: Word, mapping: Mapping[str, Word]) -> Word:
    letters: list[tuple[str, int]] = []
    for s, e in w.letters:
        if s not in mapping:
            raise ValidationError(f"no image for generator {s}")
        letters += power_letters(mapping[s].letters, e)
    return Word(tuple(letters))


def _bounded_check(
    small: Presentation,
    big: Presentation,
    mapping: Mapping[str, Word],
    cutoff: int,
    budget: Budget,
    name: str,
    onto: bool,
) -> CheckReport:
    """The pass behind both bounded checks.

    No pair of `small`-words up to `cutoff` that is certified Distinct in
    `small` may have images certified Equal in `big`; with `onto`, every
    generator of `big` must also equal an image, the identity or the
    zero.  Each word and image is reduced once, and the words are grouped
    by normal form, not compared in pairs: equal normal forms are Equal,
    different ones Distinct only under a Complete system.  The counts are
    those of the pairs taken in word order up to the first Fail (least i,
    then j); a pair whose words' `small` normal forms differ is blocked
    unless both systems are Complete.
    """
    if onto:
        role, lost = "projection", "target words collapse in the built presentation"
    else:
        role, lost = "inclusion", "distinct words collapse in the big presentation"
    big_gens = set(big.generators)
    for g, img in mapping.items():
        bad = img.symbols() - big_gens
        if bad:
            raise ValidationError(f"{role} image of {g} uses unknown symbol {sorted(bad)[0]}")
    words = enumerate_words(small.generators, cutoff)
    anchors = [_image(w, mapping) for w in words] + [Word()]
    if big.zero is not None:
        anchors.append(Word.single(big.zero))
    gens = [Word.single(g) for g in big.generators]
    small_rs, small_nf = normal_forms(small, words, budget)
    big_rs, big_nf = normal_forms(big, anchors + gens, budget)
    n = len(words)
    comparisons = n * (n - 1) // 2
    blocked = 0

    def fail(witness: str, notes: str) -> CheckReport:
        used = {"comparisons": comparisons}
        return CheckReport(name, CheckVerdict.FAIL, witness=witness, notes=notes, budget_used=used)

    if small_rs.complete:
        # scanning back, each big normal form keeps its next member and
        # that member's next one with another small normal form
        after = {}
        hit = None
        for i in range(n - 1, -1, -1):
            nxt, differ = after.get(big_nf[i], (i, None))
            if small_nf[nxt] != small_nf[i]:
                differ = nxt
            after[big_nf[i]] = (i, differ)
            if differ is not None:
                hit = (i, differ)
        if hit is not None:
            i, j = hit
            comparisons = i * (n - 1) - i * (i - 1) // 2 + j - i
            return fail(f"{words[i]} | {words[j]}", lost)
    if not (small_rs.complete and big_rs.complete):
        blocked = comparisons - sum(c * (c - 1) // 2 for c in Counter(small_nf).values())
    if onto:
        first = {}
        for k, nf in enumerate(big_nf[:len(anchors)]):
            first.setdefault(nf, k)
        for g, nf in zip(big.generators, big_nf[len(anchors):]):
            # one comparison per anchor tried, stopping at the first match
            if nf in first:
                comparisons += first[nf] + 1
                continue
            comparisons += len(anchors)
            if big_rs.complete:
                return fail(g, "generator does not collapse onto the target image")
            blocked += 1
    if blocked:
        return CheckReport(
            name,
            CheckVerdict.UNKNOWN,
            notes=f"{blocked} comparisons exhausted the budget",
            budget_used={"comparisons": comparisons, "blocked": blocked},
        )
    return CheckReport(name, CheckVerdict.PASS, budget_used={"comparisons": comparisons})


def embedding_spot_check(
    sub: Presentation,
    big: Presentation,
    inclusion: Mapping[str, Word],
    cutoff: int = 6,
    budget: Budget = DEFAULT_BUDGET,
    name: str = "embedding-spot-check",
) -> CheckReport:
    """Check that distinct `sub`-words stay distinct in `big` up to `cutoff`.

    For every pair of sub-words certified Distinct in `sub`, the images
    must not be certified Equal in `big`.  A definite violation yields
    Fail with the offending pair; any blocked comparison yields Unknown.
    """
    return _bounded_check(sub, big, inclusion, cutoff, budget, name, onto=False)


def collapse_check(
    built: Presentation,
    target: Presentation,
    projection: Mapping[str, Word],
    cutoff: int = 6,
    budget: Budget = DEFAULT_BUDGET,
    name: str = "collapse-check",
) -> CheckReport:
    """Length-bounded two-sided shadow of "built is isomorphic to target".

    (a) distinct target words stay distinct in built, and (b) every
    generator of built equals a projected target word, the designated
    zero, or the identity.
    """
    return _bounded_check(target, built, projection, cutoff, budget, name, onto=True)


def embedding_by_rewriting(
    sub: Presentation, big: Presentation, inclusion: Mapping[str, Word], budget: Budget, name: str
) -> CheckReport | None:
    """Prove that monoid `sub` embeds in monoid `big` at every length, or return None.

    It does when (a) the generators map to distinct generators, (b) both
    systems are Complete, (c) no lhs of `big` in image letters pulls back
    to a `sub`-irreducible word and (d) the relations of `sub` hold among
    the images: irreducible words then map to irreducible words (Book &
    Otto, String-Rewriting Systems, 1993, ch. 2).
    """
    letters = {Word.single(s): 2 * j for j, s in enumerate(big.generators)}
    back = {letters.get(inclusion.get(g)): 2 * i for i, g in enumerate(sub.generators)}
    if None in back or len(back) < len(sub.generators) or sub.is_group or big.is_group:
        return None
    sides = [_image(w, inclusion) for rel in sub.relations for w in (rel.lhs, rel.rhs)]
    big_rs, nfs = normal_forms(big, sides, budget)
    pulled = [bytes(back[c] for c in r.lhs) for r in big_rs.rules if set(r.lhs) <= back.keys()]
    sub_rs, reduced = normal_forms(sub, [decode_word(sub, w) for w in pulled], budget)
    proved = sub_rs.complete and big_rs.complete and nfs[::2] == nfs[1::2]
    if not proved or any(map(bytes.__eq__, pulled, reduced)):
        return None
    notes = (
        f"letters to distinct letters map irreducible words to irreducible words of Complete"
        f" systems ({len(sub_rs.rules)} and {len(big_rs.rules)} rules): distinct at every length"
    )
    return CheckReport(name, CheckVerdict.PASS, notes=notes)


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
    elapsed_ms: int

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
        return json.dumps(payload, indent=2) + "\n"


def assemble_certificate(
    instance: dict,
    construction: str,
    reports: Sequence[CheckReport],
    mandatory: Iterable[str],
    recipe: str | None = None,
    xi_range: str | None = None,
    elapsed_ms: int = 0,
) -> Certificate:
    """Fold check reports into an overall verdict.

    Any Fail refutes.  Otherwise every mandatory check must be present
    and passing to prove; a missing or Unknown mandatory check leaves
    the certificate Unknown.
    """
    from . import __version__

    reports = list(reports)
    if not reports:
        raise ValidationError("cannot assemble a certificate from zero checks")
    by_name = {r.name: r for r in reports}
    overall = Overall.PROVED
    for r in reports:
        if r.verdict is CheckVerdict.FAIL:
            overall = Overall.REFUTED
            break
    if overall is not Overall.REFUTED:
        for name in mandatory:
            rep = by_name.get(name)
            if rep is None or rep.verdict is not CheckVerdict.PASS:
                overall = Overall.UNKNOWN
                break
    return Certificate(
        instance=instance,
        construction=construction,
        recipe=recipe,
        xi_range=xi_range,
        checks=reports,
        overall=overall,
        version=__version__,
        elapsed_ms=elapsed_ms,
    )


class Stopwatch:
    def __init__(self):
        self.start = time.monotonic()

    def ms(self) -> int:
        return int((time.monotonic() - self.start) * 1000)
