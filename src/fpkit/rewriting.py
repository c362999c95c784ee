"""Shortlex string rewriting and Knuth-Bendix completion.

Words are `bytes` of the letter codes of `presentations.encode_word`:
generator i is 2i and its inverse 2i+1.  A group is completed as the
monoid on all these letters, starting from the two cancellation rules of
each generator; a monoid uses only the even codes.  Shortlex compares
length, then the codes themselves, so each inverse sorts right after its
generator.  Completion orients the relations into length-reducing shortlex
rules, resolves critical pairs in a FIFO queue keyed by combined rule
length, and interreduces after every rule insertion.  Because words are
`bytes`, factor tests, slicing and concatenation run in C.

Because the word problem is undecidable in general, completion is always
budgeted and ``Unknown`` is a first-class verdict: a Partial system can
still certify equality (every rewrite step is a consequence of the
relations) but never inequality.

`normal_forms` keeps the last 128 completions in `presentations.lru`,
keyed on all they read: `Presentation.key` (group or monoid, generator
count, the zero's index, relations spelled by generator index) and the
budget.  That store holds only rules and status, no presentation, so a
renamed presentation is not completed again and gets them over its own
generators.  A second store keeps the reduction tries of the 16 most
recently used rule tables, keyed on the table's identity, so a repeated
or renamed presentation reduces through the same trie instead of
building one per call.  Each trie holds a node per lhs letter, so only a
few are kept, and they have only the lhs ends that reduction reads, not
the completion's maps of the rule ids below each node.

Reduction finds redexes through a letter trie over the rule left-hand
sides and always rewrites the leftmost one, taking the lowest rule id when
several start at the same position.  The order is fixed because it shapes
results: a Partial system is not confluent, so its normal forms, and with
them ``Equal`` versus ``Unknown``, depend on which redex goes first; and
the rule table met mid-interreduction is not reduced, so one left-hand
side can contain another.

Critical pairs are found from the same trie, walked from each proper
suffix of a new left-hand side, and from a second trie over the reversed
left-hand sides for overlaps the other way round.  Each trie node maps
the lhs length of the rules below it to their ids, so a new rule queues
one group per length L that it overlaps, keyed (its lhs length + L, its
id), without listing a pair.  A group's pairs are listed only when it
reaches the top of the queue, and come out by other rule id, then
direction, then overlap width: the order of the queue of single pairs it
replaced, which was keyed by combined lhs length, then push order.  Most
groups of a budgeted completion are never listed.  A group lists the
rules that were in the table when it was queued, so a rule interreduced
away since, whose lhs is kept with the id of the rule that removed it,
still gives its pairs, which count toward ``max_iterations`` when
popped.  Both orders are fixed for the same reason as reduction's: they
decide which rules a Partial system holds.

A monoid with an adjoined zero z, where z occurs only in the absorption
relations ``x z = z``, ``z x = z`` and ``z^2 = z``, is completed without
them: its zero-free part N is completed in the presentation's own letter
codes, and ``x z -> z`` and ``z x -> z`` for each letter x irreducible in N
and ``z z -> z`` are added.  The zero's critical pairs all join at z, and a
congruence has one reduced complete system for a given order (Book & Otto
1993, ch. 2), so this is the system the whole completion gives whenever
that is Complete.  The
budget bounds N's completion; the result is Complete when N is and the
whole system keeps to ``max_rules`` and ``max_rule_length``, and otherwise
Partial, with N's rules so far and the absorption rules, each a
consequence of the relations.  A zero in any other relation, such as
``a b = z``, is completed with the rest.

Many critical pairs reduce the same short overlap words, so a completion
keeps the normal forms it has found under its current rule table, each
word's and the normal form's own.  The memo is cleared as a new rule
enters the table; interreduction, which runs on the table mid-change,
reduces without it.  It changes no result, only repeated work.

Interreduction finds the rules whose lhs or rhs contains a new lhs by
searching one text of the rules' sides in C (see `_holders`), then tests
only those, in id order.  The text may hold old versions of a rule and
matches across two rules, but these only add candidates that the exact
tests reject, so the rules dropped and rewritten, and the order they go
in, are those of a test of every rule, and so are Partial systems.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .presentations import Kind, Presentation, Relation, Word, decode_word, encode_word, lru

Letters = bytes


@dataclass(frozen=True)
class Budget:
    """Resource bounds for completion: all positive."""

    max_rules: int = 2000
    max_rule_length: int = 64
    max_iterations: int = 20000

    def __post_init__(self):
        if min(self.max_rules, self.max_rule_length, self.max_iterations) <= 0:
            raise ValueError("budget fields must be positive")


class Completeness(Enum):
    COMPLETE = "complete"
    PARTIAL = "partial"


class Verdict(Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


def shortlex(w: Letters) -> tuple[int, Letters]:
    """Sort key of the length-then-lexicographic order on letter codes.

    Total, well-founded, and compatible with concatenation, so every
    oriented rule is strictly length-or-tie-breaking decreasing.
    """
    return (len(w), w)


@dataclass(frozen=True, slots=True)
class RewriteRule:
    lhs: Letters
    rhs: Letters


@dataclass(frozen=True)
class RewritingSystem:
    rules: tuple[RewriteRule, ...]
    presentation: Presentation
    status: Completeness

    @property
    def complete(self) -> bool:
        return self.status is Completeness.COMPLETE


# ---------------------------------------------------------------------------
# rewriting


_END = None  # trie key under which a node records the rule whose lhs ends there
_IDS = -1  # trie key under which a node maps each lhs length to the rules of that length below it


class _Trie:
    """Letter trie over the left-hand sides of a rule table, each spelled by `key`.

    The table is shared with its owner, which reports every added or
    removed rule; a rule may get a new rhs without notice.  A table is
    added in its own order, which is id order in every table fpkit builds.
    Of rules sharing one key only the first added ends a path, so only
    tables with distinct lhs may remove rules or look up the rules below a
    node.
    """

    def __init__(self, rules: dict[int, RewriteRule], key=lambda lhs: lhs):
        self.rules = rules
        self.key = key
        self.root: dict = {}
        for rid in rules:
            self.add(rid)

    def add(self, rid: int):
        key = self.key(self.rules[rid].lhs)
        n = len(key)
        node = self.root
        for s in key:
            child = node.get(s)
            if child is None:
                child = node[s] = {_IDS: {n: {rid}}}
            else:
                lengths = child[_IDS]
                ids = lengths.get(n)
                if ids is None:
                    lengths[n] = {rid}
                else:
                    ids.add(rid)
            node = child
        node.setdefault(_END, rid)

    def remove(self, rid: int):
        """Forget `rid`; call before deleting it from the table."""
        key = self.key(self.rules[rid].lhs)
        n = len(key)
        node = self.root
        for s in key:
            child = node[s]
            lengths = child[_IDS]
            ids = lengths[n]
            ids.discard(rid)
            if not ids:
                del lengths[n]
                if not lengths:
                    del node[s]  # the branch held only `rid`
                    return
            node = child
        del node[_END]

    def find(self, path: Letters) -> dict | None:
        """The node that `path` spells, or None."""
        node = self.root
        for s in path:
            node = node.get(s)
            if node is None:
                return None
        return node


class _Reducer:
    """Letter trie over the left-hand sides of a finished rule table, for
    leftmost, lowest-id reduction.

    Rule i is `rules[i]`.  Only `_END` entries are made: the `_IDS` maps
    are read only by the completion's pair search.
    """

    def __init__(self, rules: tuple[RewriteRule, ...]):
        self.rules = rules
        self.root: dict = {}
        for rid, rule in enumerate(rules):
            node = self.root
            for s in rule.lhs:
                child = node.get(s)
                if child is None:
                    child = node[s] = {}
                node = child
            node.setdefault(_END, rid)

    def reduce(self, word: Letters) -> Letters:
        root, rules = self.root, self.rules
        w = bytearray(word)
        n = len(w)
        # No redex starts left of i.  reach[p] is the furthest index read by
        # the walks from positions 0..p (n when one ran off the end).  A
        # rewrite at i changes only letters from i on, so the walks from
        # every position whose reach is below i still find no redex.
        reach: list[int] = []
        far = -1
        i = 0
        while i < n:
            node, best, j = root, None, i
            while j < n:
                node = node.get(w[j])
                if node is None:
                    break
                rid = node.get(_END)
                if rid is not None and (best is None or rid < best):
                    best = rid
                j += 1
            if best is None:
                if j > far:
                    far = j
                reach.append(far)
                i += 1
                continue
            rule = rules[best]
            w[i:i + len(rule.lhs)] = rule.rhs
            n = len(w)
            i = bisect_left(reach, i)
            del reach[i:]
            far = reach[-1] if reach else -1
        return bytes(w)


class _RuleIndex(_Trie, _Reducer):
    """Trie over the left-hand sides of a changing table, for reduction and
    the pair search."""


class _Completion:
    def __init__(self, budget: Budget):
        self.budget = budget
        self.rules: dict[int, RewriteRule] = {}
        self.index = _RuleIndex(self.rules)
        self.suffixes = _Trie(self.rules, key=lambda lhs: lhs[::-1])
        self.next_id = 0
        # heap of pair groups [key, rid, todo, lhs, spots]: see `_queue_pairs`
        self.pairs: list[list] = []
        # lhs length -> (remover id, id, lhs) of each rule interreduced away, by remover
        self.gone: dict[int, list[tuple[int, int, Letters]]] = {}
        self.eqs: deque[tuple[Letters, Letters]] = deque()
        self.overflow = False
        self.reduced: dict[Letters, Letters] = {}  # normal forms under the current table
        # every rule's lhs + rhs, one region per version of the rule: see `_holders`
        self.text = bytearray()
        self.starts: list[int] = []  # where each region starts, ascending
        self.owners: list[int] = []  # the rule id of each region

    def _reduce(self, w: Letters) -> Letters:
        nf = self.reduced.get(w)
        if nf is None:
            nf = self.reduced[w] = self.index.reduce(w)
            self.reduced[nf] = nf  # irreducible, so `reduce` returns it unchanged
        return nf

    def _queue_pairs(self, rid: int):
        """Queue one group per lhs length L among the rules that properly
        overlap the new one, keyed (|lhs| + L, rid), without listing them.

        Direction 0 is a suffix of the new lhs that starts another lhs,
        direction 1 another lhs that ends with a prefix of the new one.  A
        group keeps, as its spots, the trie node of each (direction, width)
        under which a rule of length L lies; `_list_pairs` reads them.
        """
        lhs = self.rules[rid].lhs
        n = len(lhs)
        groups: dict[int, list] = {}
        find, rfind = self.index.find, self.suffixes.find
        for k in range(1, n):
            for direction, node in enumerate((find(lhs[n - k:]), rfind(lhs[k - 1::-1]))):
                if node is not None:
                    for length in node[_IDS]:
                        if length > k:
                            spots = groups.get(length)
                            if spots is None:
                                groups[length] = [(direction, k, node)]
                            else:
                                spots.append((direction, k, node))
        for length, spots in groups.items():
            heapq.heappush(self.pairs, [n + length, rid, None, lhs, spots])

    def _list_pairs(self, group: list) -> list[tuple[int, int, int]]:
        """The pairs (other id, direction, width) of a group, last first, over
        the rules of its length that were in the table when it was queued.

        That is every id up to its rule's that is still in the table, and
        every rule interreduced away since, which may be its rule itself.
        """
        key, rid, _, lhs, spots = group
        n = len(lhs)
        length = key - n
        rules = self.rules
        found = []
        for direction, k, node in spots:
            # a node also holds rules added since; one cut off by pruning, rules that are gone
            for oid in node[_IDS].get(length, ()):
                if oid <= rid and oid in rules and not (direction and oid == rid):
                    found.append((oid, direction, k))
        gone = self.gone.get(length, ())
        for _, oid, other in gone[bisect_left(gone, (rid,)):]:
            if oid <= rid:
                for k in range(1, min(n, length)):
                    if other.startswith(lhs[n - k:]):
                        found.append((oid, 0, k))
                    if oid != rid and other.endswith(lhs[:k]):
                        found.append((oid, 1, k))
        found.sort(reverse=True)
        return found

    def _next_pair(self) -> tuple[int, int, int]:
        """Pop the next critical pair (id1, id2, width), listing its group when
        that reaches the top.

        Groups pop by combined lhs length, then rule id, and a group's
        pairs by other id, then direction, then width (see the module
        docstring).
        """
        group = self.pairs[0]
        todo = group[2]
        if todo is None:
            todo = group[2] = self._list_pairs(group)
        oid, direction, k = todo.pop()
        if not todo:
            heapq.heappop(self.pairs)
        return (oid, group[1], k) if direction else (group[1], oid, k)

    def _drop(self, oid: int, rid: int):
        """Take rule `oid` out of the table, as rule `rid` interreduces it away.

        Its lhs is kept under `rid`, for the groups queued before it left.
        """
        self.index.remove(oid)
        self.suffixes.remove(oid)
        lhs = self.rules.pop(oid).lhs
        self.gone.setdefault(len(lhs), []).append((rid, oid, lhs))

    def _write(self, rids: Iterable[int]):
        """Append a region holding the current lhs + rhs of each of `rids`."""
        text, starts, owners, rules = self.text, self.starts, self.owners, self.rules
        for rid in rids:
            rule = rules[rid]
            starts.append(len(text))
            owners.append(rid)
            text += rule.lhs
            text += rule.rhs

    def _holders(self, w: Letters) -> list[int]:
        """Ids, ascending, of the rules with a region in which `w` occurs: each
        rule whose lhs or rhs contains it, as its latest region holds both,
        and maybe others (see the module docstring)."""
        text, starts, owners = self.text, self.starts, self.owners
        found = set()
        i = text.find(w)
        while i >= 0:
            r = bisect_right(starts, i)  # region r - 1 holds the occurrence
            found.add(owners[r - 1])
            if r == len(starts):
                break
            i = text.find(w, starts[r])
        return sorted(found)

    def add_rule(self, u: Letters, v: Letters):
        u = self._reduce(u)
        v = self._reduce(v)
        if u == v:
            return
        lhs, rhs = (u, v) if shortlex(v) < shortlex(u) else (v, u)
        if len(lhs) > self.budget.max_rule_length or len(self.rules) >= self.budget.max_rules:
            self.overflow = True
            return
        if not shortlex(rhs) < shortlex(lhs):
            raise RuntimeError(f"rule must be strictly decreasing: {RewriteRule(lhs, rhs)}")
        rid = self.next_id
        self.next_id += 1
        self.reduced.clear()  # the table changes from here on
        self.rules[rid] = RewriteRule(lhs, rhs)
        self.index.add(rid)
        self.suffixes.add(rid)
        self._queue_pairs(rid)
        # Interreduce, in id order: requeue rules whose lhs contains the new
        # lhs, rewrite in place rules whose rhs does.  The table is mid-change
        # here, so these reductions bypass the memo.  Ids only grow and a
        # rewritten rhs keeps its rule's place, so the table is in id order.
        rewritten = []
        for oid in self._holders(lhs):  # the new rule has no region yet
            other = self.rules.get(oid)
            if other is None:
                continue  # a region of a rule interreduced away
            if lhs in other.lhs:
                self._drop(oid, rid)
                self.eqs.append((other.lhs, other.rhs))
            elif lhs in other.rhs:
                self.rules[oid] = RewriteRule(other.lhs, self.index.reduce(other.rhs))
                rewritten.append(oid)
        if len(self.starts) + 1 + len(rewritten) > 2 * len(self.rules):
            # dead regions would outnumber live rules: write the table afresh
            self.text, self.starts, self.owners = bytearray(), [], []
            self._write(self.rules)
        else:
            self._write((rid, *rewritten))

    def run(self) -> Completeness:
        steps = 0
        while self.eqs or self.pairs:
            steps += 1
            if steps > self.budget.max_iterations:
                self.overflow = True
                break
            if self.eqs:
                u, v = self.eqs.popleft()
                self.add_rule(u, v)
                if self.overflow and len(self.rules) >= self.budget.max_rules:
                    break  # a full table can neither gain a rule nor lose one
                continue
            id1, id2, k = self._next_pair()
            if id1 not in self.rules or id2 not in self.rules:
                continue  # a side was interreduced away; its content was requeued
            r1, r2 = self.rules[id1], self.rules[id2]
            # overlap word: r1.lhs[:-k] + r2.lhs, rewritable two ways
            left = self._reduce(r1.rhs + r2.lhs[k:])
            right = self._reduce(r1.lhs[:-k] + r2.rhs)
            if left != right:
                self.eqs.append((left, right))
        if self.eqs or self.pairs:
            return Completeness.PARTIAL
        return Completeness.PARTIAL if self.overflow else Completeness.COMPLETE


def _complete(
    equations: Iterable[tuple[Letters, Letters]], budget: Budget
) -> tuple[list[RewriteRule], Completeness]:
    comp = _Completion(budget)
    comp.eqs.extend(equations)
    status = comp.run()
    return list(comp.rules.values()), status


def _zero_free_relations(p: Presentation) -> list[Relation] | None:
    """The relations of `p` without its zero z, or None unless z occurs only
    in the absorption relations ``x z = z``, ``z x = z`` and ``z^2 = z``."""
    z = p.zero
    alone = ((z, 1),)
    kept = []
    for rel in p.relations:
        lhs, rhs = rel.lhs.letters, rel.rhs.letters
        if alone in (lhs, rhs):
            other = rhs if lhs == alone else lhs
            # words are merged, so in `x z` and `z x` the letter x is not z
            if other == ((z, 2),) or (
                len(other) == 2 and (z, 1) in other and other[0][1] == other[1][1] == 1
            ):
                continue
            return None
        if any(s == z for s, _ in lhs + rhs):
            return None
        kept.append(rel)
    return kept


def _complete_with_zero(
    p: Presentation, kept: list[Relation], budget: Budget
) -> tuple[list[RewriteRule], Completeness]:
    """Complete the monoid N on `kept` in `p`'s letter codes, then add the
    absorption rules of `p`'s zero (see the module docstring)."""
    (z,) = encode_word(p, Word.single(p.zero))  # raises over 128 generators
    rules, status = _complete(
        [(encode_word(p, rel.lhs), encode_word(p, rel.rhs)) for rel in kept], budget
    )
    reducible = {r.lhs for r in rules}
    zero = bytes((z,))
    rules.append(RewriteRule(zero + zero, zero))
    for x in range(0, 2 * len(p.generators), 2):
        if x != z and bytes((x,)) not in reducible:
            rules += (RewriteRule(bytes((x, z)), zero), RewriteRule(bytes((z, x)), zero))
    if len(rules) > budget.max_rules or budget.max_rule_length < 2:
        status = Completeness.PARTIAL
    return rules, status


def knuth_bendix(p: Presentation, budget: Budget = Budget()) -> RewritingSystem:
    """Complete the relations of a group or monoid presentation into rewrite rules.

    Returns a Complete system when every critical pair resolves within
    budget, otherwise a Partial system holding the rules found so far.  A
    monoid whose zero occurs only in its absorption relations is completed
    as its zero-free part plus the absorption rules (see the module
    docstring): Complete when that part is and the whole system keeps to
    `max_rules` and `max_rule_length`.
    """
    kept = _zero_free_relations(p) if p.zero is not None else None
    if kept is not None:
        rules, status = _complete_with_zero(p, kept, budget)
    else:
        equations = []
        if p.kind is Kind.GROUP:
            # encoded, so that the generator count is checked even with no relations
            for c in encode_word(p, Word(tuple((g, 1) for g in p.generators))):
                equations += ((bytes((c, c ^ 1)), b""), (bytes((c ^ 1, c)), b""))
        equations += ((encode_word(p, rel.lhs), encode_word(p, rel.rhs)) for rel in p.relations)
        rules, status = _complete(equations, budget)
    rules.sort(key=lambda r: (shortlex(r.lhs), shortlex(r.rhs)))
    return RewritingSystem(tuple(rules), p, status)


def normal_form(rs: RewritingSystem, w: Word) -> Word:
    """Rewrite `w` to an irreducible word; unique when `rs` is Complete."""
    p = rs.presentation
    return decode_word(p, _reducer(rs.rules).reduce(encode_word(p, w)))


# completion key and budget -> (rules, status), least recent first
_systems: OrderedDict[tuple, tuple[tuple[RewriteRule, ...], Completeness]] = OrderedDict()
# id of a rule table -> its trie, least recent first.  The trie holds the
# table, so no other object takes its id while the entry is kept.
_reducers: OrderedDict[int, _Reducer] = OrderedDict()


def _reducer(rules: tuple[RewriteRule, ...]) -> _Reducer:
    return lru(_reducers, id(rules), lambda: _Reducer(rules), 16)


def _completed(p: Presentation, budget: Budget) -> RewritingSystem:
    def complete():  # over 128 generators, `knuth_bendix` raises
        rs = knuth_bendix(p, budget)
        return rs.rules, rs.status

    rules, status = lru(_systems, (p.key, budget), complete)
    return RewritingSystem(rules, p, status)


def normal_forms(
    p: Presentation, words: Iterable[Word], budget: Budget = Budget()
) -> tuple[RewritingSystem, list[Letters]]:
    """Reduce each of `words` once against the budgeted completion of `p`.

    Returns the system (cached per `Presentation.key` and budget, over `p`)
    and the words' letter codes after rewriting.  Equal codes certify equal
    words under any system, different ones distinct words only when it
    is Complete.
    """
    codes = [encode_word(p, w) for w in words]
    rs = _completed(p, budget)
    reduce = _reducer(rs.rules).reduce
    return rs, [reduce(c) for c in codes]


def words_equal(
    p: Presentation, u: Word, v: Word, budget: Budget = Budget()
) -> Verdict:
    """Budgeted word-problem oracle over a group or monoid presentation.

    Equal and Distinct are sound: Equal is certified by a common rewrite
    descendant (valid even under a Partial system), Distinct only by
    distinct normal forms of a Complete one.
    """
    rs, (nu, nv) = normal_forms(p, (u, v), budget)
    if nu == nv:
        return Verdict.EQUAL
    return Verdict.DISTINCT if rs.complete else Verdict.UNKNOWN


def irreducible_words(rs: RewritingSystem, limit: int):
    """Yield irreducible words of a Complete system in shortlex order.

    Stops after `limit` words (the language may be infinite).  Every
    prefix of an irreducible word is irreducible, so a breadth-first
    prefix walk enumerates them all.
    """
    lhss = tuple(r.lhs for r in rs.rules)
    p = rs.presentation
    step = 1 if p.kind is Kind.GROUP else 2
    alphabet = [bytes((s,)) for s in range(0, 2 * len(p.generators), step)]
    count = 0
    frontier: list[Letters] = [b""]
    while frontier:
        nxt: list[Letters] = []
        for w in frontier:
            count += 1
            yield w
            if count >= limit:
                return
            for s in alphabet:
                cand = w + s
                # a new redex would have to end at the appended letter
                if not cand.endswith(lhss):
                    nxt.append(cand)
        frontier = nxt
