"""Todd-Coxeter coset enumeration for group presentations.

HLT-style (relator tracing) enumeration over a finitely generated
subgroup.  Table columns are the letter codes of
`presentations.encode_word`: column 2i is generator i and 2i+1 its
inverse, so ``col ^ 1`` is the inverse column.  Entries are mutually
inverse at all times.  Coincidences are merged to transitive closure
immediately through a union-find over coset ids, replaying the deleted
coset's edges onto the survivor.  When the table hits the coset limit and
enough rows are dead, the table is compacted in place (ids renumbered in
order) and enumeration resumes; otherwise the run ends Exhausted.

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

    @staticmethod
    def inv(col: int) -> int:
        return col ^ 1

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

    def entry(self, c: int, col: int) -> int:
        e = self.rows[self.find(c)][col]
        return UNDEF if e == UNDEF else self.find(e)

    def set_entry(self, c: int, col: int, d: int):
        c, d = self.find(c), self.find(d)
        self.rows[c][col] = d
        self.rows[d][self.inv(col)] = c
        self.deductions += 1
        if self.deductions > self.limits.max_deductions:
            raise _WorkExceeded

    def _insert_edge(self, c: int, col: int, d: int, queue: list[tuple[int, int]]):
        """Record the edge c --col--> d between live reps, queueing clashes.

        Edges are always written as mutually inverse pairs; when a slot is
        already taken the two claimed targets are queued for coincidence
        instead of overwriting.
        """
        ex = self.rows[c][col]
        if ex != UNDEF:
            queue.append((self.find(ex), d))
            return
        ed = self.rows[d][self.inv(col)]
        if ed != UNDEF:
            if self.find(ed) == c:
                self.rows[c][col] = d  # complete the half of the pair we lack
            else:
                queue.append((self.find(ed), c))
            return
        self.rows[c][col] = d
        self.rows[d][self.inv(col)] = c

    def coincide(self, a: int, b: int):
        """Merge two cosets and propagate to transitive closure."""
        queue = [(a, b)]
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
                d = self.rows[y][col]
                if d == UNDEF:
                    continue
                self._insert_edge(self.find(x), col, self.find(d), queue)
        if self.debug_checks:
            self.check_consistency()

    def scan_and_fill(self, alpha: int, relator: bytes):
        """Trace a relator at a coset, filling gaps with new cosets (HLT)."""
        if not relator:
            return
        f, i = self.find(alpha), 0
        b, j = self.find(alpha), len(relator) - 1
        while True:
            while i <= j and self.entry(f, relator[i]) != UNDEF:
                f = self.entry(f, relator[i])
                i += 1
            if i > j:
                if f != b:
                    self.coincide(f, b)
                return
            while j >= i and self.entry(b, self.inv(relator[j])) != UNDEF:
                b = self.entry(b, self.inv(relator[j]))
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
                    row[col] = remap[self.find(row[col])]
        self.rows = new_rows
        self.parent = list(range(len(new_rows)))
        self.live = len(new_rows)
        return remap

    def check_consistency(self):
        for c in range(len(self.rows)):
            if not self.is_live(c):
                continue
            for col in range(self.ncols):
                d = self.rows[c][col]
                if d == UNDEF:
                    continue
                back = self.rows[self.find(d)][self.inv(col)]
                if back == UNDEF or self.find(back) != c:
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

    @property
    def exhausted(self) -> bool:
        return not self.closed


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
                        if table.entry(alpha, col) == UNDEF:
                            n = table.new_coset()
                            table.set_entry(alpha, col, n)
            except _TableFull:
                # lookahead compaction: drop dead rows if there are enough
                if table.live <= 0.75 * len(table.rows):
                    rep = table.find(alpha)
                    remap = table.compact()
                    alpha = remap[rep]
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
