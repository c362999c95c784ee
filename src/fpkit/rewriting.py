"""Shortlex string rewriting and Knuth-Bendix completion.

Words are tuples of the letter codes of `presentations.encode_word`:
generator i is 2i and its inverse 2i+1.  A group is completed as the
monoid on all these letters, starting from the two cancellation rules of
each generator; a monoid uses only the even codes.  Shortlex compares
length, then the codes themselves, so each inverse sorts right after its
generator.  Completion orients the relations into length-reducing shortlex
rules, resolves critical pairs in a FIFO queue keyed by combined rule
length, and interreduces after every rule insertion.

Because the word problem is undecidable in general, completion is always
budgeted and ``Unknown`` is a first-class verdict: a Partial system can
still certify equality (every rewrite step is a consequence of the
relations) but never inequality.

Reduction finds redexes through a letter trie over the rule left-hand
sides and always rewrites the leftmost one, taking the lowest rule id when
several start at the same position.  The order is fixed because it shapes
results: a Partial system is not confluent, so its normal forms, and with
them ``Equal`` versus ``Unknown``, depend on which redex goes first; and
the rule table met mid-interreduction is not reduced, so one left-hand
side can contain another.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

from .presentations import Presentation, Word, decode_word, encode_word

Letters = tuple[int, ...]


@dataclass(frozen=True)
class Budget:
    """Resource bounds for completion: all positive."""

    max_rules: int = 2000
    max_rule_length: int = 64
    max_iterations: int = 20000

    def __post_init__(self):
        if min(self.max_rules, self.max_rule_length, self.max_iterations) <= 0:
            raise ValueError("budget fields must be positive")


DEFAULT_BUDGET = Budget()


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


@dataclass(frozen=True)
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


class _RuleIndex:
    """Letter trie over the left-hand sides of a rule table.

    Reduction rewrites the leftmost redex, taking the lowest rule id when
    several left-hand sides start at that position.  The table is shared
    with its owner, which reports every added or removed rule; a rule may
    get a new rhs without notice.  Of rules sharing one lhs only the first
    added is indexed, so only tables with distinct lhs may remove rules.
    """

    def __init__(self, rules: dict[int, RewriteRule]):
        self.rules = rules
        self.root: dict = {}
        self.depth = 0  # longest lhs ever added
        for rid in sorted(rules):
            self.add(rid)

    def add(self, rid: int):
        lhs = self.rules[rid].lhs
        node = self.root
        for s in lhs:
            node = node.setdefault(s, {})
        node.setdefault(_END, rid)
        self.depth = max(self.depth, len(lhs))

    def remove(self, rid: int):
        """Forget `rid`; call before deleting it from the table."""
        lhs = self.rules[rid].lhs
        path = [self.root]
        for s in lhs:
            path.append(path[-1][s])
        del path[-1][_END]
        for s, parent, node in zip(reversed(lhs), reversed(path[:-1]), reversed(path)):
            if node:
                break
            del parent[s]

    def reduce(self, word: Letters) -> Letters:
        root, rules = self.root, self.rules
        # No redex starts left of i.  After a rewrite at i, a new one must
        # reach into the edit, so it starts at most `back` letters earlier.
        back = self.depth - 1
        w = list(word)
        n = len(w)
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
                i += 1
                continue
            rule = rules[best]
            w[i:i + len(rule.lhs)] = rule.rhs
            n = len(w)
            i = max(0, i - back)
        return tuple(w)


def _contains(word: Letters, factor: Letters) -> bool:
    k = len(factor)
    return any(word[i:i + k] == factor for i in range(len(word) - k + 1))


def _overlaps(a: Letters, b: Letters):
    """Proper overlap widths: a nonempty suffix of `a` equals a prefix of `b`."""
    for k in range(1, min(len(a), len(b))):
        if a[-k:] == b[:k]:
            yield k


class _Completion:
    def __init__(self, budget: Budget):
        self.budget = budget
        self.rules: dict[int, RewriteRule] = {}
        self.index = _RuleIndex(self.rules)
        self.next_id = 0
        self.pairs: list[tuple[int, int, int, int, int]] = []  # (key, seq, id1, id2, olen)
        self.eqs: deque[tuple[Letters, Letters]] = deque()
        self.seq = itertools.count()
        self.overflow = False

    def push_equation(self, u: Letters, v: Letters):
        self.eqs.append((u, v))

    def _push_pair(self, a_id: int, b_id: int, olen: int):
        key = len(self.rules[a_id].lhs) + len(self.rules[b_id].lhs)
        heapq.heappush(self.pairs, (key, next(self.seq), a_id, b_id, olen))

    def _queue_pairs(self, rid: int):
        rule = self.rules[rid]
        for oid in sorted(self.rules):
            other = self.rules[oid]
            for k in _overlaps(rule.lhs, other.lhs):
                self._push_pair(rid, oid, k)
            if oid != rid:
                for k in _overlaps(other.lhs, rule.lhs):
                    self._push_pair(oid, rid, k)

    def add_rule(self, u: Letters, v: Letters):
        u = self.index.reduce(u)
        v = self.index.reduce(v)
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
        self.rules[rid] = RewriteRule(lhs, rhs)
        self.index.add(rid)
        self._queue_pairs(rid)
        # Interreduce: requeue rules whose lhs contains the new lhs, rewrite
        # in place rules whose rhs does.
        for oid in sorted(self.rules):
            if oid == rid:
                continue
            other = self.rules[oid]
            if _contains(other.lhs, lhs):
                self.index.remove(oid)
                del self.rules[oid]
                self.push_equation(other.lhs, other.rhs)
            elif _contains(other.rhs, lhs):
                self.rules[oid] = RewriteRule(other.lhs, self.index.reduce(other.rhs))

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
                continue
            _, _, id1, id2, k = heapq.heappop(self.pairs)
            if id1 not in self.rules or id2 not in self.rules:
                continue  # a side was interreduced away; its content was requeued
            r1, r2 = self.rules[id1], self.rules[id2]
            # overlap word: r1.lhs[:-k] + r2.lhs, rewritable two ways
            left = self.index.reduce(r1.rhs + r2.lhs[k:])
            right = self.index.reduce(r1.lhs[:-k] + r2.rhs)
            if left != right:
                self.push_equation(left, right)
        if self.eqs or self.pairs:
            return Completeness.PARTIAL
        return Completeness.PARTIAL if self.overflow else Completeness.COMPLETE


def knuth_bendix(p: Presentation, budget: Budget = DEFAULT_BUDGET) -> RewritingSystem:
    """Complete the relations of a group or monoid presentation into rewrite rules.

    Returns a Complete system when every critical pair resolves within
    budget, otherwise a Partial system holding the rules found so far.
    """
    comp = _Completion(budget)
    if p.is_group:
        for i in range(len(p.generators)):
            comp.push_equation((2 * i, 2 * i + 1), ())
            comp.push_equation((2 * i + 1, 2 * i), ())
    for rel in p.relations:
        comp.push_equation(encode_word(p, rel.lhs), encode_word(p, rel.rhs))
    status = comp.run()
    final = sorted(comp.rules.values(), key=lambda r: (shortlex(r.lhs), shortlex(r.rhs)))
    return RewritingSystem(tuple(final), p, status)


def normal_form(rs: RewritingSystem, w: Word) -> Word:
    """Rewrite `w` to an irreducible word; unique when `rs` is Complete."""
    p = rs.presentation
    return decode_word(p, _RuleIndex(dict(enumerate(rs.rules))).reduce(encode_word(p, w)))


@lru_cache(maxsize=128)
def _completed(p: Presentation, budget: Budget) -> RewritingSystem:
    return knuth_bendix(p, budget)


def normal_forms(
    p: Presentation, words: Iterable[Word], budget: Budget = DEFAULT_BUDGET
) -> tuple[RewritingSystem, list[Letters]]:
    """Reduce each of `words` once against the budgeted completion of `p`.

    Returns the system (cached per presentation and budget) and the
    words' letter codes after rewriting.  Equal codes certify equal
    words under any system, different ones distinct words only when it
    is Complete.
    """
    codes = [encode_word(p, w) for w in words]
    rs = _completed(p, budget)
    index = _RuleIndex(dict(enumerate(rs.rules)))
    return rs, [index.reduce(c) for c in codes]


def words_equal(
    p: Presentation, u: Word, v: Word, budget: Budget = DEFAULT_BUDGET
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


# ---------------------------------------------------------------------------
# audits


def confluence_audit(rs: RewritingSystem, max_rules: int = 50) -> bool:
    """Exhaustively check that every critical pair joins; Complete systems only.

    Raises AssertionError with a witness on the first unresolved pair.
    """
    if len(rs.rules) > max_rules:
        raise ValueError(f"audit limited to {max_rules} rules")
    index = _RuleIndex(dict(enumerate(rs.rules)))
    for r1 in rs.rules:
        for r2 in rs.rules:
            for k in _overlaps(r1.lhs, r2.lhs):
                left = index.reduce(r1.rhs + r2.lhs[k:])
                right = index.reduce(r1.lhs[:-k] + r2.rhs)
                if left != right:
                    word = r1.lhs[:-k] + r2.lhs
                    raise AssertionError(f"critical pair of {r1} / {r2} at {word} diverges")
            # containment: a reduced system has none
            if r1 is not r2 and _contains(r2.lhs, r1.lhs):
                raise AssertionError(f"rule {r2} is reducible by {r1}")
    return True


def irreducible_words(rs: RewritingSystem, limit: int):
    """Yield irreducible words of a Complete system in shortlex order.

    Stops after `limit` words (the language may be infinite).  Every
    prefix of an irreducible word is irreducible, so a breadth-first
    prefix walk enumerates them all.
    """
    lhss = {r.lhs for r in rs.rules}
    p = rs.presentation
    alphabet = range(0, 2 * len(p.generators), 1 if p.is_group else 2)
    count = 0
    frontier: list[Letters] = [()]
    while frontier:
        nxt: list[Letters] = []
        for w in frontier:
            count += 1
            yield w
            if count >= limit:
                return
            for s in alphabet:
                cand = w + (s,)
                # a new redex would have to end at the appended letter
                if any(cand[-len(l):] == l for l in lhss if len(l) <= len(cand)):
                    continue
                nxt.append(cand)
        frontier = nxt
