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
The table after a coincidence depends only on the merged partition, so
`coincide` may visit a dying row's edges in any way that moves each of
them, and may take its queued pairs in any order.  It takes first those
queued by merges into coset 0, and ends a cascade as soon as coset 0 is
fixed by every generator: every coset was defined from a live one and
merging keeps the quotient connected, so the congruence is then total.

When the table hits the coset limit and enough rows are dead, the dead
rows are freed in place and enumeration resumes; the limit then counts
only the rows still held.  Otherwise the run ends Exhausted.  Ids are
never renumbered: a coset keeps its id for good, and a closed run frees
its dead rows at its end, so it holds exactly its index's rows.  An
enumeration runs with the cyclic garbage collector paused (see
`_gc_paused`).

A closed table certifies the subgroup index.  Triviality testing first
consults the abelianization (the cheap certificate for nontriviality,
since enumeration can never certify an infinite group nontrivial) and
then enumerates over the empty subgroup.  `is_trivial` keeps its last 128
verdicts per process in `presentations.lru`, keyed on the limits and
`Presentation.key` (generator count and relations as runs of generator
index and exponent, in relation order), so presentations that differ only
by a renaming share a verdict.  Only the frozen `Triviality` is kept, never
a table: whatever a certificate reads from an enumeration must be part of
that record, or a cached verdict and a fresh one would certify differently.
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

from .presentations import Kind, Presentation, ValidationError, Word, encode_word, lru
from .verify import abelianization

UNDEF = -1


@dataclass(frozen=True)
class EnumLimits:
    max_cosets: int = 10_000
    max_deductions: int = 1_000_000

    def __post_init__(self):
        if self.max_cosets <= 0 or self.max_deductions <= 0:
            raise ValueError("enumeration limits must be positive")


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
        self.rows: list[list[int] | None] = []
        self.parent: list[int] = []
        self.blank = [UNDEF] * self.ncols  # copied for each row `scan_and_fill` defines
        self.live = 0
        self.dropped = 0  # rows freed by `drop_dead_rows`, ids kept
        self.deductions = 0
        self.debug_checks = False
        self.new_coset()

    # -- core mutations

    def new_coset(self) -> int:
        if len(self.rows) - self.dropped >= self.limits.max_cosets:
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
        Pairs queued by merges into coset 0 are taken first, and once coset
        0 is fixed by every generator the cascade ends: the congruence is
        total, so every coset is marked as merged into 0.
        """
        rows, parent = self.rows, self.parent
        queue, zero = [(a, b)], []
        merged = 0
        while queue or zero:
            x, y = zero.pop() if zero else queue.pop()
            while parent[x] != x:  # path halving: roots are what count
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x == y:
                continue
            if x > y:
                x, y = y, x
            parent[y] = x
            merged += 1
            row_x, row_y = rows[x], rows[y]
            pending = queue if x else zero
            # the loop reads entries as it reaches them, since a loop at y
            # loses its inverse half on the way; it stops after y's last edge
            edges = len(row_y) - row_y.count(UNDEF)
            for col, d in enumerate(row_y):
                if d == UNDEF:
                    continue
                inv = col ^ 1
                row_d = rows[d]
                row_d[inv] = UNDEF
                if d == y:
                    d, row_d = x, row_x
                    edges -= inv > col
                if row_x[col] != UNDEF:
                    pending.append((row_x[col], d))
                elif row_d[inv] != UNDEF:
                    pending.append((row_d[inv], x))
                else:
                    row_x[col] = d
                    row_d[inv] = x
                edges -= 1
                if not edges:
                    break
            if not x and row_x.count(0) == len(row_x):
                self._collapse()
                break
        else:  # the queues ran dry before coset 0 was fixed
            self.live -= merged
        if self.debug_checks:
            self.check_consistency()

    def _collapse(self):
        """Merge every coset into coset 0 once every generator fixes coset 0.

        Every coset is joined to 0 by edges of the table or by queued
        coincidences, so all of them lie in the class of 0.
        """
        self.parent[:] = [0] * len(self.parent)
        self.live = 1

    def scan_and_fill(self, alpha: int, relator: bytes):
        """Trace a relator at a live coset, filling gaps with new cosets (HLT).

        Nearly every coset is made here, so the definition loop does the
        work of `new_coset` and `set_entry` in place and counts its cosets
        toward `live` and `deductions` once, on whatever way it exits.  Most
        scans define nothing, so only a definition reads the limits.
        """
        if not relator:
            return
        rows = self.rows
        f, i = alpha, 0
        b, j = alpha, len(relator) - 1
        while True:
            while i <= j:
                d = rows[f][relator[i]]
                if d == UNDEF:
                    break
                f, i = d, i + 1
            if i > j:
                if f != b:
                    self.coincide(f, b)
                return
            while j >= i:
                d = rows[b][relator[j] ^ 1]
                if d == UNDEF:
                    break
                b, j = d, j - 1
            if j < i:
                self.coincide(f, b)
                return
            if j == i:
                self.set_entry(f, relator[i], b)
                if self.debug_checks:
                    self.check_consistency()
                return
            # define f . relator[i] = n and step to n, while neither scan
            # could move and the gap stays wider than one letter
            parent, blank = self.parent, self.blank
            first = n = len(rows)
            cap = self.limits.max_cosets + self.dropped
            spare = self.limits.max_deductions - self.deductions
            try:
                while True:
                    if n >= cap:
                        raise _TableFull
                    col = relator[i]
                    row = blank.copy()
                    row[col ^ 1] = f
                    rows.append(row)
                    parent.append(n)
                    rows[f][col] = n
                    f, n, i = n, n + 1, i + 1
                    if n - first > spare:
                        raise _WorkExceeded
                    if i == j or row[relator[i]] != UNDEF or rows[b][relator[j] ^ 1] != UNDEF:
                        break
            finally:
                self.live += n - first
                self.deductions += n - first

    # -- maintenance

    def drop_dead_rows(self):
        """Free the rows of dead cosets, keeping every id as it is.

        Freed rows become None and stop counting toward the coset limit.
        Live rows name only live cosets, and a row that dies later names
        cosets live when it died, so no kept row names a freed one.
        """
        rows, parent = self.rows, self.parent
        for c in range(len(rows)):
            if parent[c] != c:
                rows[c] = None
        self.dropped = len(rows) - self.live

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
        parent = self.parent
        return not any(UNDEF in row for c, row in enumerate(self.rows) if parent[c] == c)


@dataclass(frozen=True)
class TcResult:
    """An enumeration's outcome and its table, ids as they were defined.

    A closed table holds only live rows; an exhausted one may also hold
    dead rows, and rows freed by a lookahead are None.
    """

    closed: bool
    index: int | None
    table: CosetTable


def todd_coxeter(
    p: Presentation,
    subgens: Sequence[Word] = (),
    limits: EnumLimits = EnumLimits(),
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
    with _gc_paused():
        return _enumerate(table, relators, [encode_word(p, w) for w in subgens])


@contextmanager
def _gc_paused():
    """Hold off the cyclic garbage collector while a coset table grows.

    Rows are lists of ints, so a table holds no reference cycles, yet every
    row is a tracked container: collections during an enumeration would
    only walk its rows, and a full collection walks every object the
    process holds.  Freed tables go by reference counting.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _enumerate(table: CosetTable, relators: list[bytes], subgens: list[bytes]) -> TcResult:
    try:
        try:
            for w in subgens:
                table.scan_and_fill(0, w)
        except _TableFull:
            return TcResult(False, None, table)
        scan, rows, parent, alpha = table.scan_and_fill, table.rows, table.parent, 0
        while alpha < len(rows):
            if parent[alpha] != alpha:
                alpha += 1
                continue
            try:
                for rel in relators:
                    scan(alpha, rel)
                    if parent[alpha] != alpha:
                        break
                else:
                    row = rows[alpha]
                    for col in range(table.ncols):
                        if row[col] == UNDEF:
                            n = table.new_coset()
                            table.set_entry(alpha, col, n)
            except _TableFull:
                # lookahead: free the dead rows if there are enough
                if table.live <= 0.75 * (len(rows) - table.dropped):
                    table.drop_dead_rows()
                    continue  # rescan the same coset; prior fills are kept
                return TcResult(False, None, table)
            alpha += 1
    except _WorkExceeded:
        return TcResult(False, None, table)
    table.drop_dead_rows()  # while the collector is still paused
    if table.debug_checks:
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


# (completion key, limits) -> verdict, least recent first
_verdicts: OrderedDict[tuple, Triviality] = OrderedDict()


def is_trivial(p: Presentation, limits: EnumLimits = EnumLimits()) -> Triviality:
    """Three-valued triviality test: abelianization first, then enumeration.

    The verdict depends only on the relators' letter codes in relation
    order (the order steers a budgeted enumeration) and `limits`, so the
    last 128 are kept under `Presentation.key` and the limits, which
    determine the codes without encoding a word, and a repeated or renamed
    presentation is not enumerated again.
    """
    if p.kind is not Kind.GROUP:
        raise ValidationError("is_trivial expects a group presentation")
    return lru(_verdicts, (p.key, limits), lambda: _decide(p, limits))


def _decide(p: Presentation, limits: EnumLimits) -> Triviality:
    inv = abelianization(p)
    if not inv.is_trivial:
        return Triviality("nontrivial", f"abelianization is {inv}")
    with _gc_paused():  # so that no collection walks the rows of a table about to be freed
        result = todd_coxeter(p, (), limits)
        closed, index = result.closed, result.index
        del result
    if closed:
        if index == 1:
            return Triviality("trivial", "coset enumeration closed with index 1")
        return Triviality("nontrivial", f"coset enumeration closed with index {index}")
    return Triviality("unknown", "enumeration exhausted its limits")
