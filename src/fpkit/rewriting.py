"""Shortlex string rewriting and Knuth-Bendix completion.

Everything here operates on monoid presentations; group presentations are
first converted to monoid form by adjoining a formal inverse letter for
each generator (``a`` gets ``a_inv``, placed immediately after ``a`` in
the ordering) together with the two cancellation relations.  Completion
orients the relations into length-reducing shortlex rules, resolves
critical pairs in a FIFO queue keyed by combined rule length, and
interreduces after every rule insertion.

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
from functools import cached_property, lru_cache

from .presentations import (
    Kind,
    Presentation,
    Relation,
    ValidationError,
    Word,
    fresh_symbol,
)

Letters = tuple[str, ...]


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


@dataclass(frozen=True)
class ShortlexOrder:
    """Length-then-lexicographic order over a fixed alphabet.

    Total, well-founded, and compatible with concatenation, so every
    oriented rule is strictly length-or-tie-breaking decreasing.
    """

    alphabet: tuple[str, ...]

    @cached_property
    def _ranks(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.alphabet)}

    def rank(self, symbol: str) -> int:
        try:
            return self._ranks[symbol]
        except KeyError:
            raise ValidationError(f"symbol {symbol} not in rewriting alphabet") from None

    def key(self, w: Letters):
        return (len(w), tuple(self.rank(s) for s in w))

    def less(self, u: Letters, v: Letters) -> bool:
        return self.key(u) < self.key(v)


@dataclass(frozen=True)
class RewriteRule:
    lhs: Letters
    rhs: Letters

    def __str__(self) -> str:
        return f"{' '.join(self.lhs) or '1'} -> {' '.join(self.rhs) or '1'}"


@dataclass(frozen=True)
class RewritingSystem:
    rules: tuple[RewriteRule, ...]
    order: ShortlexOrder
    status: Completeness

    @property
    def complete(self) -> bool:
        return self.status is Completeness.COMPLETE


# ---------------------------------------------------------------------------
# group -> monoid encoding


@dataclass(frozen=True)
class MonoidEncoding:
    presentation: Presentation
    inverses: tuple[tuple[str, str], ...]  # (generator, inverse letter) pairs

    @cached_property
    def _inverse(self) -> dict[str, str]:
        return dict(self.inverses)

    def inverse_of(self, symbol: str) -> str:
        try:
            return self._inverse[symbol]
        except KeyError:
            raise ValidationError(f"{symbol} has no inverse letter") from None


def monoid_encoding(p: Presentation) -> MonoidEncoding:
    """Monoid form of `p` plus the generator/inverse-letter pairing."""
    if p.kind is Kind.MONOID:
        return MonoidEncoding(p, ())
    used = set(p.generators)
    gens: list[str] = []
    inverses: list[tuple[str, str]] = []
    for g in p.generators:
        gi = fresh_symbol(f"{g}_inv", used)
        used.add(gi)
        gens.extend((g, gi))
        inverses.append((g, gi))
    inv = dict(inverses)
    rels = []
    for g, gi in inverses:
        rels.append(Relation(Word.single(g) * Word.single(gi), Word()))
        rels.append(Relation(Word.single(gi) * Word.single(g), Word()))

    def positive(w: Word) -> Word:
        letters = []
        for s, e in w.letters:
            letters.extend([(s if e > 0 else inv[s], 1)] * abs(e))
        return Word(tuple(letters))

    for r in p.relations:
        rels.append(Relation(positive(r.lhs), positive(r.rhs)))
    mono = Presentation(Kind.MONOID, tuple(gens), tuple(rels))
    return MonoidEncoding(mono, tuple(inverses))


def to_monoid_form(p: Presentation) -> Presentation:
    return monoid_encoding(p).presentation


def flatten_word(w: Word, enc: MonoidEncoding | None = None) -> Letters:
    """Expand a word into a flat positive letter string.

    Negative exponents require an encoding carrying inverse letters.
    """
    out: list[str] = []
    for s, e in w.letters:
        if e > 0:
            out.extend([s] * e)
        else:
            if enc is None:
                raise ValidationError(f"negative exponent in monoid word {w}")
            out.extend([enc.inverse_of(s)] * (-e))
    return tuple(out)


def letters_to_word(letters: Letters) -> Word:
    return Word(tuple((s, 1) for s in letters))


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
    def __init__(self, order: ShortlexOrder, budget: Budget):
        self.order = order
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
        lhs, rhs = (u, v) if self.order.less(v, u) else (v, u)
        if len(lhs) > self.budget.max_rule_length or len(self.rules) >= self.budget.max_rules:
            self.overflow = True
            return
        if not self.order.less(rhs, lhs):
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
    """Complete the relation set of a monoid presentation into rewrite rules.

    Returns a Complete system when every critical pair resolves within
    budget, otherwise a Partial system holding the rules found so far.
    """
    if p.kind is not Kind.MONOID:
        raise ValidationError("knuth_bendix expects a monoid presentation")
    order = ShortlexOrder(p.generators)
    comp = _Completion(order, budget)
    for rel in p.relations:
        comp.push_equation(flatten_word(rel.lhs), flatten_word(rel.rhs))
    status = comp.run()
    final = sorted(comp.rules.values(), key=lambda r: (order.key(r.lhs), order.key(r.rhs)))
    return RewritingSystem(tuple(final), order, status)


# Indexes of the last two systems reduced against, matched by identity.  The
# bounded checks alternate between two systems; an index kept for every cached
# system would cost more memory than rebuilding one on the rare other calls.
_recent_indexes: deque[tuple[RewritingSystem, _RuleIndex]] = deque(maxlen=2)


def reduce_letters(rs: RewritingSystem, letters: Letters) -> Letters:
    for held, index in _recent_indexes:
        if held is rs:
            return index.reduce(letters)
    index = _RuleIndex(dict(enumerate(rs.rules)))
    _recent_indexes.appendleft((rs, index))
    return index.reduce(letters)


def normal_form(rs: RewritingSystem, w: Word) -> Word:
    """Rewrite `w` to an irreducible word; unique when `rs` is Complete."""
    bad = w.symbols() - set(rs.order.alphabet)
    if bad:
        raise ValidationError(f"word uses symbol {sorted(bad)[0]} outside the alphabet")
    return letters_to_word(reduce_letters(rs, flatten_word(w)))


@lru_cache(maxsize=128)
def _completed(p: Presentation, budget: Budget) -> tuple[MonoidEncoding, RewritingSystem]:
    """The monoid encoding of `p` and its system, cached on `p` itself."""
    enc = monoid_encoding(p)
    return enc, knuth_bendix(enc.presentation, budget)


def words_equal(
    p: Presentation, u: Word, v: Word, budget: Budget = DEFAULT_BUDGET
) -> Verdict:
    """Budgeted word-problem oracle over a group or monoid presentation.

    Equal and Distinct are sound: Equal is certified by a common rewrite
    descendant (valid even under a Partial system), Distinct only by
    distinct normal forms of a Complete one.
    """
    gens = set(p.generators)
    for w in (u, v):
        bad = w.symbols() - gens
        if bad:
            raise ValidationError(f"word uses symbol {sorted(bad)[0]} outside the presentation")
        if p.kind is Kind.MONOID and not w.is_positive:
            raise ValidationError(f"negative exponent in monoid word {w}")
    enc, rs = _completed(p, budget)
    nu = reduce_letters(rs, flatten_word(u, enc if p.is_group else None))
    nv = reduce_letters(rs, flatten_word(v, enc if p.is_group else None))
    if nu == nv:
        return Verdict.EQUAL
    if rs.complete:
        return Verdict.DISTINCT
    return Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# audits


def confluence_audit(rs: RewritingSystem, max_rules: int = 50) -> bool:
    """Exhaustively check that every critical pair joins; Complete systems only.

    Raises AssertionError with a witness on the first unresolved pair.
    """
    if len(rs.rules) > max_rules:
        raise ValueError(f"audit limited to {max_rules} rules")
    for r1 in rs.rules:
        for r2 in rs.rules:
            for k in _overlaps(r1.lhs, r2.lhs):
                left = reduce_letters(rs, r1.rhs + r2.lhs[k:])
                right = reduce_letters(rs, r1.lhs[:-k] + r2.rhs)
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
    count = 0
    frontier: list[Letters] = [()]
    while frontier:
        nxt: list[Letters] = []
        for w in frontier:
            count += 1
            yield w
            if count >= limit:
                return
            for s in rs.order.alphabet:
                cand = w + (s,)
                # a new redex would have to end at the appended letter
                if any(cand[-len(l):] == l for l in lhss if len(l) <= len(cand)):
                    continue
                nxt.append(cand)
        frontier = nxt
