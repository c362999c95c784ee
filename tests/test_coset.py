import gc
import hashlib
import itertools
import random
import weakref
from collections import OrderedDict

import pytest

from fpkit import coset
from fpkit.coset import UNDEF, CosetTable, EnumLimits, Triviality, is_trivial, todd_coxeter
from fpkit.presentations import (
    Kind,
    Presentation,
    Relation,
    ValidationError,
    Word,
    encode_word,
    parse_presentation,
    parse_word,
    rename_generators,
)
from fpkit.rewriting import Completeness, irreducible_words, knuth_bendix
from fpkit.verify import abelianization

W = parse_word
LIMITS = EnumLimits(10_000, 1_000_000)

C5 = "group\ngens: a\nrels: a^5 = 1"
KLEIN = "group\ngens: a, b\nrels: a^2 = 1, b^2 = 1, a b a b = 1"
S3 = "group\ngens: a, b\nrels: a^2 = 1, b^3 = 1, a b a b = 1"
CLASSIC_TRIVIAL = "group\ngens: a, b\nrels: a b a^-1 = b^2, b a b^-1 = a^2"
A5 = "group\ngens: a, b\nrels: a^2 = 1, b^3 = 1, a b a b a b a b a b = 1"
# (2,3,7) with the extra commutator-power relator
PSL27 = (
    "group\ngens: a, b\nrels: a^2 = 1, b^3 = 1, "
    "a b a b a b a b a b a b a b = 1, "
    "a^-1 b^-1 a b a^-1 b^-1 a b a^-1 b^-1 a b a^-1 b^-1 a b = 1"
)


def test_index_cyclic_five():
    r = todd_coxeter(parse_presentation(C5), (), LIMITS, debug_checks=True)
    assert r.closed and r.index == 5


def test_index_klein_four():
    r = todd_coxeter(parse_presentation(KLEIN), (), LIMITS, debug_checks=True)
    assert r.closed and r.index == 4


def test_unclosed_table_raises_even_without_asserts(monkeypatch):
    # the closing soundness check is a real exception, so python -O keeps it
    monkeypatch.setattr(CosetTable, "is_closed", lambda self: False)
    with pytest.raises(RuntimeError, match="incomplete table"):
        todd_coxeter(parse_presentation(C5), (), LIMITS)


def test_free_group_exhausts():
    r = todd_coxeter(parse_presentation("group\ngens: a, b\nrels:"), (), EnumLimits(40, 4000))
    assert not r.closed


def test_classic_trivial_presentation_closes_at_one():
    # derived via the enumeration oracle itself; the abelianization
    # (relation matrix rows (0,-1) and (-1,0), Smith form diag(1,1))
    # independently confirms the trivial abelian quotient
    p = parse_presentation(CLASSIC_TRIVIAL)
    assert abelianization(p).is_trivial
    r = todd_coxeter(p, (), LIMITS, debug_checks=True)
    assert r.closed and r.index == 1


def test_subgroup_index():
    p = parse_presentation(S3)
    r = todd_coxeter(p, (W("b"),), LIMITS, debug_checks=True)
    assert r.closed and r.index == 2
    r = todd_coxeter(p, (W("a"),), LIMITS, debug_checks=True)
    assert r.closed and r.index == 3


def test_requires_group_presentation():
    with pytest.raises(ValidationError):
        todd_coxeter(parse_presentation("monoid\ngens: g\nrels:"), (), LIMITS)
    with pytest.raises(ValidationError):
        todd_coxeter(parse_presentation(C5), (W("b"),), LIMITS)


def test_index_invariant_under_relator_permutation_and_renaming():
    p = parse_presentation(S3)
    base = todd_coxeter(p, (), LIMITS).index
    for perm in itertools.permutations(p.relations):
        q = Presentation(Kind.GROUP, p.generators, perm)
        assert todd_coxeter(q, (), LIMITS).index == base
    renamed = rename_generators(p, {"a": "u", "b": "v"})
    assert todd_coxeter(renamed, (), LIMITS).index == base


def test_index_matches_normal_form_count_where_both_complete():
    for text in (C5, KLEIN, S3):
        p = parse_presentation(text)
        rs = knuth_bendix(p)
        if rs.status is not Completeness.COMPLETE:
            continue
        forms = list(irreducible_words(rs, 201))
        index = todd_coxeter(p, (), LIMITS).index
        assert index <= 200 and len(forms) == index


def test_abelian_index_equals_product_of_invariant_factors():
    cases = [
        ("group\ngens: a\nrels: a^5 = 1", 5),
        (KLEIN, 4),
        ("group\ngens: a, b\nrels: a^2 = 1, b^3 = 1, a b = b a", 6),
    ]
    for text, order in cases:
        p = parse_presentation(text)
        inv = abelianization(p)
        product = 1
        for t in inv.torsion:
            product *= t
        assert inv.free_rank == 0 and product == order
        assert todd_coxeter(p, (), LIMITS).index == order


def test_inverse_consistency_after_randomized_runs():
    rng = random.Random(11)
    gens = ("a", "b")
    for _ in range(25):
        rels = []
        for _ in range(rng.randint(1, 3)):
            letters = tuple(
                (rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 4))
            )
            rels.append(Relation(Word(letters), Word()))
        p = Presentation(Kind.GROUP, gens, tuple(rels))
        r = todd_coxeter(p, (), EnumLimits(300, 30_000), debug_checks=True)
        r.table.check_consistency()


def random_enumerations(seed: int, count: int):
    """Seeded presentations on 1-3 generators, some with subgroup generators.

    The limits mix closed runs, runs that stop at the coset cap or the
    deduction cap, and runs that compact mid-enumeration.
    """
    rng = random.Random(seed)
    for _ in range(count):
        gens = ("a", "b", "c")[: rng.randint(1, 3)]

        def word(lo: int, hi: int) -> Word:
            return Word(
                tuple(
                    (rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                    for _ in range(rng.randint(lo, hi))
                )
            )

        rels = tuple(Relation(word(1, 5), Word()) for _ in range(rng.randint(1, 4)))
        subgens = tuple(word(1, 3) for _ in range(rng.choice((0, 0, 1, 2))))
        limits = EnumLimits(rng.choice((20, 60, 200, 1000)), rng.choice((2_000, 20_000)))
        yield Presentation(Kind.GROUP, gens, rels), subgens, limits


def ranks(t: CosetTable) -> dict[int, int]:
    """Each id whose row the table still holds -> its rank among them.

    Reading ids through their ranks numbers the held rows in id order, as
    a renumbering of the table would.
    """
    return {c: i for i, c in enumerate(c for c, row in enumerate(t.rows) if row is not None)}


def record(r) -> tuple:
    """What an enumeration did, live rows read through find.

    Verdict, index, deduction count, rows held, live count and every live
    row, ids read as their rank among the held rows.
    """
    t = r.table
    rank = ranks(t)
    live_rows = tuple(
        tuple(UNDEF if e == UNDEF else rank[t.find(e)] for e in t.rows[c])
        for c in range(len(t.rows))
        if t.is_live(c)
    )
    return (r.closed, r.index, t.deductions, len(rank), t.live, live_rows)


def test_randomized_enumerations_are_pinned(monkeypatch):
    # the same work on every run
    drops = []
    drop = CosetTable.drop_dead_rows
    monkeypatch.setattr(CosetTable, "drop_dead_rows", lambda t: drops.append(1) or drop(t))
    digest = hashlib.sha256()
    closed = 0
    for p, subgens, limits in random_enumerations(8, 200):
        r = todd_coxeter(p, subgens, limits)
        digest.update(repr(record(r)).encode())
        closed += r.closed
    # closed runs, and lookaheads that freed dead rows (over all runs; each
    # closed run also frees its dead rows once, at its end)
    assert (closed, len(drops) - closed) == (145, 27)
    assert digest.hexdigest() == (
        "3f443b8a17e1036993363e5fb6bd4ac6bde3bf5250b695b3cdbd4978d9aae896"
    )


def reference_scan_and_fill(table: CosetTable, alpha: int, relator: bytes):
    """Relator tracing that defines one coset per pass of both scans."""
    if not relator:
        return
    rows = table.rows
    f, i = alpha, 0
    b, j = alpha, len(relator) - 1
    while True:
        while i <= j and rows[f][relator[i]] != UNDEF:
            f = rows[f][relator[i]]
            i += 1
        if i > j:
            if f != b:
                table.coincide(f, b)
            return
        while j >= i and rows[b][relator[j] ^ 1] != UNDEF:
            b = rows[b][relator[j] ^ 1]
            j -= 1
        if j < i:
            table.coincide(f, b)
            return
        if j == i:
            table.set_entry(f, relator[i], b)
            return
        n = table.new_coset()
        table.set_entry(f, relator[i], n)
        f, i = n, i + 1


def test_scan_and_fill_matches_reference_scans():
    # random relators, unreduced ones included, so that a scan can move
    # again right after a definition; tiny limits stop scans mid-gap
    rng = random.Random(5)
    stopped = 0
    for _ in range(400):
        gens = ("a", "b", "c")[: rng.randint(1, 3)]
        limits = EnumLimits(rng.choice((3, 8, 30)), rng.choice((3, 10, 100)))
        got, want = CosetTable(gens, limits), CosetTable(gens, limits)
        for _ in range(rng.randint(1, 12)):
            alpha = rng.choice([c for c in range(len(want.rows)) if want.is_live(c)])
            relator = bytes(rng.randrange(2 * len(gens)) for _ in range(rng.randint(0, 9)))
            outcomes = []
            for table, scan in ((got, CosetTable.scan_and_fill), (want, reference_scan_and_fill)):
                try:
                    scan(table, alpha, relator)
                    outcomes.append(None)
                except (coset._TableFull, coset._WorkExceeded) as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1]
            assert (got.rows, got.deductions, got.live) == (want.rows, want.deductions, want.live)
            assert [got.find(c) for c in range(len(got.rows))] == [
                want.find(c) for c in range(len(want.rows))
            ]
            if outcomes[0] is not None:
                stopped += 1
                break
    assert stopped > 100


def reference_coincide(table: CosetTable, a: int, b: int):
    """Coincidence closure that runs every cascade until its queue is empty."""
    rows, parent, queue = table.rows, table.parent, [(a, b)]
    merged = 0
    while queue:
        x, y = queue.pop()
        while parent[x] != x:
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
                queue.append((row_x[col], d))
            elif row_d[inv] != UNDEF:
                queue.append((row_d[inv], x))
            else:
                row_x[col] = d
                row_d[inv] = x
            edges -= 1
            if not edges:
                break
    table.live -= merged


def collapsing_enumerations(seed: int, count: int):
    """Seeded enumerations most of which close at index 1, in three kinds.

    Groups where each generator conjugates the next to a power of it (as
    in CLASSIC_TRIVIAL), after random relators, over the trivial subgroup;
    A5 and PSL(2,7) over two random words, which mostly generate the
    whole group; random relators over random words and every generator.
    """
    rng = random.Random(seed)
    for k in range(count):
        gens = ("a", "b", "c")[: rng.choice((2, 2, 3))]

        def word(lo: int, hi: int) -> Word:
            return Word(
                tuple(
                    (rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                    for _ in range(rng.randint(lo, hi))
                )
            )

        if k % 3 == 0:
            sign = rng.choice((1, -1))
            rels = tuple(Relation(word(1, 5), Word()) for _ in range(rng.randint(0, 2)))
            rels += tuple(
                Relation(Word(((g, sign), (h, 1), (g, -sign))), Word(((h, rng.choice((2, 3))),)))
                for g, h in zip(gens, gens[1:] + gens[:1])
            )
            p, subgens = Presentation(Kind.GROUP, gens, rels), ()
        elif k % 3 == 1:
            p = parse_presentation(rng.choice((A5, PSL27)))
            gens = p.generators
            subgens = (word(1, 6), word(2, 6))
        else:
            rels = tuple(Relation(word(1, 5), Word()) for _ in range(rng.randint(1, 3)))
            p = Presentation(Kind.GROUP, gens, rels)
            subgens = tuple(word(2, 4) for _ in range(rng.randint(0, 2)))
            subgens += tuple(Word(((g, 1),)) for g in gens)
        yield p, subgens, EnumLimits(rng.choice((10, 20, 40, 100, 400)), 100_000)


def test_total_collapse_ends_like_the_full_cascade(monkeypatch):
    # the cascade may stop once coset 0 is fixed by every generator; what
    # the run reports and every live row must be as if it had run dry.
    # Every other run also frees its dead rows before every 2nd scan.
    collapses, scans = [], []  # rows freed when the cascade stopped
    collapse, scan, coincide = CosetTable._collapse, CosetTable.scan_and_fill, CosetTable.coincide
    monkeypatch.setattr(CosetTable, "_collapse", lambda t: collapses.append(t.dropped) or collapse(t))

    def dropping_scan(table, alpha, relator):
        scans.append(1)
        if len(scans) % 2 == 0:
            table.drop_dead_rows()
        scan(table, alpha, relator)

    runs = fired = fired_after_drop = 0
    for k, (p, subgens, limits) in enumerate(collapsing_enumerations(4, 450)):
        monkeypatch.setattr(CosetTable, "scan_and_fill", dropping_scan if k % 2 else scan)
        monkeypatch.setattr(CosetTable, "coincide", reference_coincide)
        want = record(todd_coxeter(p, subgens, limits))
        monkeypatch.setattr(CosetTable, "coincide", coincide)
        collapses.clear()
        scans.clear()
        assert record(todd_coxeter(p, subgens, limits, debug_checks=True)) == want
        if want[:2] == (True, 1):
            runs += 1
            fired += bool(collapses)
            fired_after_drop += bool(collapses) and collapses[0] > 0
    assert runs >= 200 and fired >= runs / 4 and fired_after_drop >= 25

def eagerly_compacting_enumeration(p: Presentation, subgens, limits: EnumLimits):
    """HLT enumeration that renumbers the whole table at every lookahead.

    Returns (closed, table); the table is compacted at the end of a closed run.
    """
    table = CosetTable(p.generators, limits)
    relators = [encode_word(p, rel.lhs * rel.rhs.inverse()) for rel in p.relations]
    try:
        try:
            for w in subgens:
                table.scan_and_fill(0, encode_word(p, w))
        except coset._TableFull:
            return False, table
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
                else:
                    for col in range(table.ncols):
                        if table.rows[alpha][col] == UNDEF:
                            table.set_entry(alpha, col, table.new_coset())
            except coset._TableFull:
                if table.live <= 0.75 * len(table.rows):
                    alpha = sum(map(table.is_live, range(alpha)))
                    compact(table)
                    continue
                return False, table
            alpha += 1
    except coset._WorkExceeded:
        return False, table
    compact(table)
    return True, table


def compact(table: CosetTable):
    """Remove every dead row, renumbering live cosets in id order."""
    keep = [c for c in range(len(table.rows)) if table.is_live(c)]
    remap = {c: new for new, c in enumerate(keep)} | {UNDEF: UNDEF}
    table.rows = [[remap[d] for d in table.rows[c]] for c in keep]
    table.parent = [remap[table.parent[c]] for c in keep]


def test_held_rows_match_an_eagerly_compacting_enumeration():
    # freeing rows in place, ids kept, holds the rows that renumbering at
    # every lookahead would have left, once ids are read as ranks
    psl = parse_presentation(PSL27)
    cases = list(random_enumerations(8, 200))
    cases += [(psl, (), EnumLimits(cap, 10_000_000)) for cap in (500, 200, 410)]
    freed = []  # exhausted runs that end holding freed rows
    for p, subgens, limits in cases:
        r = todd_coxeter(p, subgens, limits)
        t = r.table
        freed.append(not r.closed and t.dropped > 0)
        closed, want = eagerly_compacting_enumeration(p, subgens, limits)
        rank = ranks(t) | {UNDEF: UNDEF}
        rows = [[rank[d] for d in row] for row in t.rows if row is not None]
        parent = [rank[t.parent[c]] for c in ranks(t)]
        assert (r.closed, rows, parent, t.live, t.deductions) == (
            closed,
            want.rows,
            want.parent,
            want.live,
            want.deductions,
        )
    # PSL(2,7) frees rows and closes at cap 500, exhausts without freeing
    # any at cap 200, and frees rows and exhausts at cap 410
    assert sum(freed) >= 5 and freed[-3:] == [False, False, True]


def test_closed_runs_hold_no_dead_row(monkeypatch):
    # a closed run frees its dead rows at its end, while the collector is
    # still paused, so the rows it holds are exactly its index's
    seen = []
    drop = CosetTable.drop_dead_rows
    monkeypatch.setattr(
        CosetTable, "drop_dead_rows", lambda t: seen.append(gc.isenabled()) or drop(t)
    )
    for text in (CLASSIC_TRIVIAL, KLEIN, PSL27):
        seen.clear()
        r = todd_coxeter(parse_presentation(text), (), LIMITS)
        held = [c for c, row in enumerate(r.table.rows) if row is not None]
        assert r.closed and len(held) == r.index == r.table.live, text
        assert all(map(r.table.is_live, held)) and seen and not any(seen), text


def test_enumeration_pauses_the_garbage_collector(monkeypatch):
    # rows hold no cycles, so no collection runs while a table grows; a
    # collector the caller disabled stays disabled
    seen, tables = [], weakref.WeakSet()
    scan = CosetTable.scan_and_fill

    def spy(t, c, rel):
        seen.append(gc.isenabled())
        tables.add(t)
        return scan(t, c, rel)

    monkeypatch.setattr(CosetTable, "scan_and_fill", spy)
    assert gc.isenabled()
    assert todd_coxeter(parse_presentation(KLEIN), (), LIMITS).index == 4
    assert gc.isenabled() and seen and not any(seen)
    gc.disable()
    try:
        todd_coxeter(parse_presentation(C5), (), EnumLimits(2, 100))
        assert not gc.isenabled()
    finally:
        gc.enable()
    # a triviality test drops its table before the collector may walk it
    monkeypatch.setattr(coset, "_verdicts", OrderedDict())
    live_at_enable = []
    enable = gc.enable
    monkeypatch.setattr(gc, "enable", lambda: live_at_enable.append(len(tables)) or enable())
    seen.clear()
    assert is_trivial(parse_presentation(CLASSIC_TRIVIAL), LIMITS).is_trivial
    assert seen and not any(seen)
    assert live_at_enable == [0] and gc.isenabled()


def test_corrupted_entry_fails_the_consistency_check():
    # a real exception, so python -O keeps the check
    r = todd_coxeter(parse_presentation(KLEIN), (), LIMITS)
    r.table.check_consistency()
    r.table.rows[0][0] = 2  # column a of coset 0 now points where a^-1 does not lead back
    with pytest.raises(RuntimeError, match="inverse consistency broken at coset 0, column 0"):
        r.table.check_consistency()


def test_live_row_naming_a_dead_coset_fails_the_consistency_check():
    # coset 2 died into 1 and coset 1 took over the inverse entry, but
    # coset 0 still names 2: consistent only if entries were read through
    # find, which the table no longer does
    table = CosetTable(("a",), LIMITS)
    for _ in range(2):
        table.new_coset()
    table.set_entry(0, 0, 2)
    table.check_consistency()
    table.parent[2] = 1
    table.live -= 1
    table.rows[1][1] = 0
    with pytest.raises(RuntimeError, match="coset 0, column 0 names dead coset 2"):
        table.check_consistency()


def dump(table: CosetTable) -> str:
    """One line per live coset: tab-separated targets in column order."""
    remap = {}
    for c in range(len(table.rows)):
        if table.is_live(c):
            remap[c] = len(remap)
    lines = []
    for c in sorted(remap):
        cells = []
        for col in range(table.ncols):
            e = table.rows[c][col]
            cells.append("-" if e == UNDEF else str(remap[e]))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def test_table_dump_golden_klein():
    r = todd_coxeter(parse_presentation(KLEIN), (), LIMITS)
    # columns: a, a^-1, b, b^-1; rows are the four cosets
    assert dump(r.table) == (
        "1\t1\t2\t2\n"
        "0\t0\t3\t3\n"
        "3\t3\t0\t0\n"
        "2\t2\t1\t1\n"
    )


def test_is_trivial_examples():
    killed = parse_presentation("group\ngens: a\nrels: a = 1")
    assert is_trivial(killed, LIMITS).is_trivial
    z = parse_presentation("group\ngens: a\nrels:")
    v = is_trivial(z, LIMITS)
    assert v.status == "nontrivial" and "abelianization" in v.reason
    assert is_trivial(parse_presentation(CLASSIC_TRIVIAL), LIMITS).is_trivial


def test_is_trivial_unknown_on_starved_limits():
    # a trivial group, so abelianization is blind; enumeration needs 9
    # cosets to close with index 1 and cannot inside 3
    p = parse_presentation(CLASSIC_TRIVIAL)
    assert not todd_coxeter(p, (), EnumLimits(8, 1_000_000)).closed
    assert todd_coxeter(p, (), EnumLimits(9, 1_000_000)).index == 1
    verdict = is_trivial(p, EnumLimits(3, 50))
    assert verdict.status == "unknown"


@pytest.fixture
def enumerations(monkeypatch):
    """Clear the verdict cache and count the enumerations `is_trivial` runs."""
    monkeypatch.setattr(coset, "_verdicts", OrderedDict())
    calls = []
    enumerate_cosets = coset.todd_coxeter
    monkeypatch.setattr(
        coset, "todd_coxeter", lambda *args: calls.append(args) or enumerate_cosets(*args)
    )
    return calls


def test_equal_and_renamed_presentations_enumerate_once(enumerations):
    p = parse_presentation(CLASSIC_TRIVIAL)
    again = parse_presentation(CLASSIC_TRIVIAL)
    renamed = rename_generators(p, {"a": "u", "b": "v"})
    verdicts = [is_trivial(q, LIMITS) for q in (p, again, renamed)]
    assert verdicts == [verdicts[0]] * 3 and verdicts[0].is_trivial
    assert len(enumerations) == 1


def test_extra_generator_gives_its_own_verdict(enumerations):
    p = parse_presentation(CLASSIC_TRIVIAL)
    wider = Presentation(Kind.GROUP, (*p.generators, "c"), p.relations)
    assert is_trivial(p, LIMITS).is_trivial
    # the same relator codes, but c is free: Z in the abelianization
    assert is_trivial(wider, LIMITS).status == "nontrivial"
    assert is_trivial(p, LIMITS).is_trivial


def test_groups_too_wide_for_letter_codes_are_still_decided(enumerations):
    # the abelianization needs no letter codes, and the key, spelled by
    # generator index, exists at any width, so the verdict is kept
    gens = tuple(f"g{i}" for i in range(129))
    wide = Presentation(Kind.GROUP, gens, (Relation(W("g0"), Word()),))
    assert is_trivial(wide, LIMITS).status == "nontrivial"
    assert list(coset._verdicts) == [(wide.key, LIMITS)]
    # enumeration needs letter codes: it raises, and nothing more is kept
    killed = Presentation(Kind.GROUP, gens, tuple(Relation(W(g), Word()) for g in gens))
    with pytest.raises(ValidationError, match="129 generators"):
        is_trivial(killed, LIMITS)
    assert list(coset._verdicts) == [(wide.key, LIMITS)]


def test_limits_are_part_of_the_key(enumerations):
    p = parse_presentation(CLASSIC_TRIVIAL)
    starved = EnumLimits(3, 50)
    assert is_trivial(p, starved).status == "unknown"
    assert is_trivial(p, LIMITS).is_trivial
    assert is_trivial(p, starved).status == "unknown"
    assert len(enumerations) == 2


def test_cached_verdicts_equal_fresh_ones(enumerations):
    a5 = "group\ngens: a, b\nrels: a^2 = 1, b^3 = 1, a b a b a b a b a b = 1"  # perfect
    cases = [
        (parse_presentation(a5), LIMITS),
        (parse_presentation(CLASSIC_TRIVIAL), EnumLimits(3, 50)),
    ]
    cases += [(p, limits) for p, _, limits in random_enumerations(3, 200)]
    # repeats, renamings and more distinct keys than the cache holds
    cases += [(rename_generators(p, {"a": "x"}), limits) for p, limits in cases[:100:3]]
    cases += cases[::2]
    cached = [is_trivial(p, limits) for p, limits in cases]
    assert len(coset._verdicts) == 128
    assert all(type(v) is Triviality for v in coset._verdicts.values())
    # without the cache, every case with a trivial abelianization enumerates
    blind = sum(abelianization(p).is_trivial for p, _ in cases)
    cached_calls = len(enumerations)
    assert cached_calls < blind
    fresh = []
    for p, limits in cases:
        coset._verdicts.clear()
        fresh.append(is_trivial(p, limits))
    assert cached == fresh
    assert len(enumerations) - cached_calls == blind
    assert {v.status for v in fresh} == {"trivial", "nontrivial", "unknown"}


def test_lookahead_compaction_recovers_space():
    # lots of coincidences: the table overflows its cap but frees dead rows and closes
    p = parse_presentation(KLEIN)
    r = todd_coxeter(p, (), EnumLimits(9, 10_000))
    assert r.closed and r.index == 4


def test_known_orders_of_classical_groups():
    cases = [
        ("group\ngens: a, b\nrels: a^2 = 1, b^3 = 1, a b a b a b a b = 1", 24),  # S4
        (A5, 60),
        (PSL27, 168),
        (
            # B3 reflection group
            "group\ngens: r, s, t\nrels: r^2 = 1, s^2 = 1, t^2 = 1, "
            "r s r s r s = 1, s t s t s t s t = 1, r t r t = 1",
            48,
        ),
    ]
    for text, order in cases:
        r = todd_coxeter(parse_presentation(text), (), EnumLimits(100_000, 10_000_000))
        assert r.closed and r.index == order, (text, r.index)


def test_compaction_under_tight_coset_cap(monkeypatch):
    # PSL(2,7) allocates transient cosets well beyond its order; a cap of
    # 500 is only reachable because the lookahead frees dead rows, while a
    # cap close to the order itself must honestly exhaust.  The consistency
    # checks run on the tables with freed rows.
    drops = []
    drop = CosetTable.drop_dead_rows
    monkeypatch.setattr(CosetTable, "drop_dead_rows", lambda t: drops.append(1) or drop(t))
    p = parse_presentation(PSL27)
    r = todd_coxeter(p, (), EnumLimits(500, 10_000_000), debug_checks=True)
    assert r.closed and r.index == 168 and len(drops) > 1  # the last frees at the end
    tight = todd_coxeter(p, (), EnumLimits(200, 10_000_000), debug_checks=True)
    assert not tight.closed
    drops.clear()
    freed = todd_coxeter(p, (), EnumLimits(410, 10_000_000), debug_checks=True)
    assert not freed.closed and drops and freed.table.dropped
    freed.table.check_consistency()
