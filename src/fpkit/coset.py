"""Todd-Coxeter coset enumeration for group presentations.

HLT-style (relator tracing) enumeration over a finitely generated
subgroup.  Table columns are the letter codes of
`presentations.encode_word`: column 2i is generator i and 2i+1 its
inverse, so ``col ^ 1`` is the inverse column.  Entries are mutually
inverse, and outside `CosetTable.coincide` every entry of a live row names
a live coset, so the table is read directly.  Coincidences are merged to
transitive closure at once: the higher id dies, its edges move to the
survivor and the edges into it are deleted.  The union-find over coset ids
only resolves queued coincidences, whose cosets may die while queued.
When the table hits the coset limit and enough rows are dead, the table is
compacted in place (ids renumbered in order) and enumeration resumes;
otherwise the run ends Exhausted.

A closed table certifies the subgroup index.  Triviality testing first
consults the abelianization (the cheap certificate for nontriviality,
since enumeration can never certify an infinite group nontrivial) and
then enumerates over the empty subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .presentations import Kind, Presentation, ValidationError, Word, encode_word
from .verify import abelianization

UNDEF = -1


@dataclass(frozen=True)
class EnumLimits:
    max_cosets: int = 10_000
    max_deductions: int = 1_000_000

    def __post_init__(self):
        if self.max_cosets <= 0 or self.max_deductions <= 0:
            raise ValueError("enumeration limits must be positive")


DEFAULT_LIMITS = EnumLimits()


class _TableFull(Exception):
    pass


class _WorkExceeded(Exception):
    pass


class CosetTable:
    """Mutable working state; confine to one task while enumerating."""

    def __init__(self, generators: Sequence[str], limits: EnumLimits):
        self.generators = tuple(generators)
        self.ncols = 2 * len(self.generators)
        self.limits = limits
        self.rows: list[list[int]] = []
        self.parent: list[int] = []
        self.live = 0
        self.deductions = 0
        self.debug_checks = False
        self.new_coset()

    # -- core mutations

    def new_coset(self) -> int:
        if len(self.rows) >= self.limits.max_cosets:
            raise _TableFull
        c = len(self.rows)
        self.rows.append([UNDEF] * self.ncols)
        self.parent.append(c)
        self.live += 1
        return c

    def find(self, c: int) -> int:
        root = c
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[c] != root:
            self.parent[c], c = root, self.parent[c]
        return root

    def is_live(self, c: int) -> bool:
        return self.parent[c] == c

    def set_entry(self, c: int, col: int, d: int):
        self.rows[c][col] = d
        self.rows[d][col ^ 1] = c
        self.deductions += 1
        if self.deductions > self.limits.max_deductions:
            raise _WorkExceeded

    def coincide(self, a: int, b: int):
        """Merge two cosets and propagate to transitive closure.

        Each edge y --col--> d of the dying coset y loses its inverse half
        and moves to the survivor x, or queues a coincidence where x already
        has an edge in that column (or, for a loop at y, the inverse column).
        """
        rows, queue = self.rows, [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = self.find(x), self.find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            self.parent[y] = x
            self.live -= 1
            for col in range(self.ncols):
                d = rows[y][col]
                if d == UNDEF:
                    continue
                rows[d][col ^ 1] = UNDEF
                if d == y:
                    d = x
                if rows[x][col] != UNDEF:
                    queue.append((rows[x][col], d))
                elif rows[d][col ^ 1] != UNDEF:
                    queue.append((rows[d][col ^ 1], x))
                else:
                    rows[x][col] = d
                    rows[d][col ^ 1] = x
        if self.debug_checks:
            self.check_consistency()

    def scan_and_fill(self, alpha: int, relator: bytes):
        """Trace a relator at a live coset, filling gaps with new cosets (HLT)."""
        if not relator:
            return
        rows = self.rows
        f, i = alpha, 0
        b, j = alpha, len(relator) - 1
        while True:
            while i <= j and rows[f][relator[i]] != UNDEF:
                f = rows[f][relator[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincide(f, b)
                return
            while j >= i and rows[b][relator[j] ^ 1] != UNDEF:
                b = rows[b][relator[j] ^ 1]
                j -= 1
            if j < i:
                self.coincide(f, b)
                return
            if j == i:
                self.set_entry(f, relator[i], b)
                if self.debug_checks:
                    self.check_consistency()
                return
            n = self.new_coset()
            self.set_entry(f, relator[i], n)
            f, i = n, i + 1

    # -- maintenance

    def compact(self) -> list[int]:
        """Drop dead rows, renumbering live cosets in id order."""
        remap = [UNDEF] * len(self.rows)
        new_rows: list[list[int]] = []
        for c in range(len(self.rows)):
            if self.is_live(c):
                remap[c] = len(new_rows)
                new_rows.append(self.rows[c])
        for row in new_rows:
            for col in range(self.ncols):
                if row[col] != UNDEF:
                    row[col] = remap[row[col]]
        self.rows = new_rows
        self.parent = list(range(len(new_rows)))
        self.live = len(new_rows)
        return remap

    def check_consistency(self):
        """Raise unless live rows name live cosets through mutually inverse edges."""
        for c in range(len(self.rows)):
            if not self.is_live(c):
                continue
            for col in range(self.ncols):
                d = self.rows[c][col]
                if d == UNDEF:
                    continue
                if not self.is_live(d):
                    raise RuntimeError(f"coset {c}, column {col} names dead coset {d}")
                if self.rows[d][col ^ 1] != c:
                    raise RuntimeError(f"inverse consistency broken at coset {c}, column {col}")

    def is_closed(self) -> bool:
        return all(
            self.rows[c][col] != UNDEF
            for c in range(len(self.rows))
            if self.is_live(c)
            for col in range(self.ncols)
        )


@dataclass
class TcResult:
    closed: bool
    index: int | None
    table: CosetTable


def todd_coxeter(
    p: Presentation,
    subgens: Sequence[Word] = (),
    limits: EnumLimits = DEFAULT_LIMITS,
    debug_checks: bool = False,
) -> TcResult:
    """Enumerate cosets of the subgroup generated by `subgens` in `p`.

    A closed table certifies Index(live count); hitting a limit returns
    the partial table with closed=False.
    """
    if p.kind is not Kind.GROUP:
        raise ValidationError("todd_coxeter expects a group presentation")
    table = CosetTable(p.generators, limits)
    table.debug_checks = debug_checks
    relators = [encode_word(p, rel.lhs * rel.rhs.inverse()) for rel in p.relations]
    try:
        try:
            for w in subgens:
                table.scan_and_fill(0, encode_word(p, w))
        except _TableFull:
            return TcResult(False, None, table)
        alpha = 0
        while alpha < len(table.rows):
            if not table.is_live(alpha):
                alpha += 1
                continue
            try:
                for rel in relators:
                    table.scan_and_fill(alpha, rel)
                    if not table.is_live(alpha):
                        break
                if table.is_live(alpha):
                    for col in range(table.ncols):
                        if table.rows[alpha][col] == UNDEF:
                            n = table.new_coset()
                            table.set_entry(alpha, col, n)
            except _TableFull:
                # lookahead compaction: drop dead rows if there are enough
                if table.live <= 0.75 * len(table.rows):
                    alpha = table.compact()[alpha]
                    continue  # rescan the same coset; prior fills are kept
                return TcResult(False, None, table)
            alpha += 1
    except _WorkExceeded:
        return TcResult(False, None, table)
    table.compact()
    if debug_checks:
        table.check_consistency()
    if not table.is_closed():
        raise RuntimeError("coset enumeration stopped with an incomplete table")
    return TcResult(True, table.live, table)


# ---------------------------------------------------------------------------
# triviality


@dataclass(frozen=True)
class Triviality:
    status: str  # "trivial" | "nontrivial" | "unknown"
    reason: str | None = None

    @property
    def is_trivial(self) -> bool:
        return self.status == "trivial"

    @property
    def definite(self) -> bool:
        return self.status != "unknown"


def is_trivial(p: Presentation, limits: EnumLimits = DEFAULT_LIMITS) -> Triviality:
    """Three-valued triviality test: abelianization first, then enumeration."""
    if p.kind is not Kind.GROUP:
        raise ValidationError("is_trivial expects a group presentation")
    inv = abelianization(p)
    if not inv.is_trivial:
        return Triviality("nontrivial", f"abelianization is {inv}")
    result = todd_coxeter(p, (), limits)
    if result.closed:
        if result.index == 1:
            return Triviality("trivial", "coset enumeration closed with index 1")
        return Triviality("nontrivial", f"coset enumeration closed with index {result.index}")
    return Triviality("unknown", "enumeration exhausted its limits")
