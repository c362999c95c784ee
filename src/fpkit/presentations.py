"""Finite group and monoid presentations.

A presentation is a finite list of generator symbols together with a
finite list of defining relations ``u = v``.  Words carry integer
exponents on symbols; in monoid presentations every exponent must be
positive.  Monoids may designate an absorbing zero generator ``z``, in
which case the relation set must contain ``x z = z`` and ``z x = z`` for
every generator ``x``.

The text format (one presentation per file) is line oriented::

    group                       # or "monoid"
    gens: a, b                  # comma-separated identifiers, order significant
    zero: z                     # optional, monoid only
    rels: a^2 = 1, b a = a b    # zero or more comma-separated relations

A word is a whitespace-separated list of tokens ``ident`` or
``ident^k`` with k a nonzero decimal integer; the bare token ``1``
denotes the empty word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\S+")


class PresentationError(Exception):
    """Base class for presentation-level failures."""


class ParseError(PresentationError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


class ValidationError(PresentationError):
    pass


class Kind(str, Enum):
    GROUP = "group"
    MONOID = "monoid"


def is_identifier(name: str) -> bool:
    return bool(IDENT_RE.fullmatch(name))


def fresh_symbol(base: str, used: Iterable[str]) -> str:
    """First of base, base_1, base_2, ... not contained in `used`."""
    taken = set(used)
    if base not in taken:
        return base
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def _merge(pairs) -> tuple[tuple[str, int], ...]:
    # Cascading merge of adjacent equal symbols; exponent 0 entries vanish,
    # so for group words this is exactly free reduction.
    out: list[list] = []
    for sym, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == sym:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([sym, exp])
    return tuple((s, e) for s, e in out)


def power_letters(letters: tuple[tuple[str, int], ...], k: int) -> tuple[tuple[str, int], ...]:
    # unmerged; one `_merge` of the whole equals merging factor by factor
    if k < 0:
        letters = tuple((s, -e) for s, e in reversed(letters))
    return letters * abs(k)


@dataclass(frozen=True)
class Word:
    """A word over generator symbols, kept in merged (freely reduced) form."""

    letters: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _merge(self.letters))

    @staticmethod
    def single(symbol: str, exp: int = 1) -> "Word":
        return Word(((symbol, exp),))

    @property
    def is_empty(self) -> bool:
        return not self.letters

    @property
    def is_positive(self) -> bool:
        return all(e > 0 for _, e in self.letters)

    def length(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def symbols(self) -> set[str]:
        return {s for s, _ in self.letters}

    def inverse(self) -> "Word":
        return Word(tuple((s, -e) for s, e in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def pow(self, k: int) -> "Word":
        return Word(power_letters(self.letters, k))

    def __str__(self) -> str:
        return serialize_word(self)


@dataclass(frozen=True)
class Relation:
    lhs: Word
    rhs: Word

    def symbols(self) -> set[str]:
        return self.lhs.symbols() | self.rhs.symbols()

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class Presentation:
    """A validated finite presentation.

    Invariants enforced on construction: generators are distinct valid
    identifiers; relation words only use declared generators; monoid
    relations have all-positive exponents; a declared zero is a generator
    and comes with the full absorption relation set.
    """

    kind: Kind
    generators: tuple[str, ...]
    relations: tuple[Relation, ...] = ()
    zero: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relations", tuple(self.relations))
        seen = set()
        for g in self.generators:
            if not is_identifier(g):
                raise ValidationError(f"invalid generator name {g!r}")
            if g in seen:
                raise ValidationError(f"duplicate generator {g}")
            seen.add(g)
        monoid = self.kind is Kind.MONOID
        for rel in self.relations:
            for w in (rel.lhs, rel.rhs):
                # one pass; an undeclared generator is reported before a negative exponent
                negative = False
                for s, e in w.letters:
                    if s not in seen:
                        raise ValidationError(f"undeclared generator {sorted(w.symbols() - seen)[0]}")
                    if e < 0:
                        negative = True
                if negative and monoid:
                    raise ValidationError(f"negative exponent in monoid word {w}")
        if self.zero is not None:
            if self.kind is not Kind.MONOID:
                raise ValidationError("zero is only allowed on monoid presentations")
            if self.zero not in seen:
                raise ValidationError(f"zero {self.zero} is not a generator")
            self._check_absorption()

    def _check_absorption(self):
        z = self.zero
        alone = ((z, 1),)
        # the other side of every relation with z alone on one side
        absorbed = {r.rhs.letters for r in self.relations if r.lhs.letters == alone}
        absorbed.update(r.lhs.letters for r in self.relations if r.rhs.letters == alone)
        for g in self.generators:
            needed = (((z, 2),),) if g == z else (((g, 1), (z, 1)), ((z, 1), (g, 1)))
            if not absorbed.issuperset(needed):
                raise ValidationError(f"zero {z} lacks absorption relation for generator {g}")

    @property
    def is_group(self) -> bool:
        return self.kind is Kind.GROUP

    def __str__(self) -> str:
        return serialize_presentation(self)


# ---------------------------------------------------------------------------
# letter codes


def encode_word(p: Presentation, w: Word) -> bytes:
    """`w` as the bytes of its letter codes over `p`.

    Generator i is code 2i and its inverse 2i+1, so ``c ^ 1`` inverts a
    letter and code order is generator order with each inverse right after
    its generator.  Knuth-Bendix and Todd-Coxeter both work on these codes,
    which fit in a byte for up to 128 generators.
    """
    if len(p.generators) > 128:
        raise ValidationError(
            f"{len(p.generators)} generators: letter codes fit in a byte only up to 128"
        )
    codes: list[int] = []
    for s, e in w.letters:
        if s not in p.generators:
            raise ValidationError(f"word uses symbol {s} outside the presentation")
        if e < 0 and p.kind is Kind.MONOID:
            raise ValidationError(f"negative exponent in monoid word {w}")
        i = p.generators.index(s)
        codes.extend([2 * i if e > 0 else 2 * i + 1] * abs(e))
    return bytes(codes)


def decode_word(p: Presentation, codes) -> Word:
    """The word over `p` spelled by letter codes; inverse of `encode_word`."""
    return Word(tuple((p.generators[c >> 1], -1 if c & 1 else 1) for c in codes))


# ---------------------------------------------------------------------------
# word and presentation text format


def serialize_word(w: Word) -> str:
    if w.is_empty:
        return "1"
    return " ".join(s if e == 1 else f"{s}^{e}" for s, e in w.letters)


def parse_word(text: str, line: int = 0, offset: int = 0) -> Word:
    """Parse the word grammar; `line`/`offset` locate errors in a file."""
    pairs: list[tuple[str, int]] = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(0)
        col = offset + m.start() + 1
        if tok == "1":
            continue
        name, caret, exp = tok.partition("^")
        if not is_identifier(name):
            raise ParseError(f"bad word token {tok!r}", line, col)
        if caret:
            try:
                e = int(exp)
            except ValueError:
                raise ParseError(f"bad exponent in token {tok!r}", line, col) from None
            if e == 0:
                raise ParseError(f"zero exponent in token {tok!r}", line, col)
        else:
            e = 1
        pairs.append((name, e))
    return Word(tuple(pairs))


def serialize_presentation(p: Presentation) -> str:
    lines = [p.kind.value, "gens: " + ", ".join(p.generators)]
    if p.zero is not None:
        lines.append(f"zero: {p.zero}")
    if p.relations:
        lines.append("rels: " + ", ".join(f"{r.lhs} = {r.rhs}" for r in p.relations))
    else:
        lines.append("rels:")
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    rows = [(i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not rows:
        raise ParseError("empty presentation", 1, 1)

    def take(expect: str):
        if not rows:
            raise ParseError(f"missing {expect!r} line", 0, 0)
        return rows.pop(0)

    ln, head = take("group|monoid")
    head = head.strip()
    if head not in (Kind.GROUP.value, Kind.MONOID.value):
        raise ParseError(f"expected 'group' or 'monoid', got {head!r}", ln, 1)
    kind = Kind(head)

    ln, gline = take("gens:")
    gbody = gline.strip()
    if not gbody.startswith("gens:"):
        raise ParseError("expected 'gens:' line", ln, 1)
    gens: list[str] = []
    rest = gbody[len("gens:"):].strip()
    if rest:
        for part in rest.split(","):
            name = part.strip()
            if not is_identifier(name):
                raise ParseError(f"bad generator name {name!r}", ln, gline.find(part) + 1)
            if name in gens:
                raise ParseError(f"duplicate generator {name}", ln, gline.find(part) + 1)
            gens.append(name)

    zero = None
    if rows and rows[0][1].strip().startswith("zero:"):
        ln, zline = rows.pop(0)
        if kind is not Kind.MONOID:
            raise ParseError("zero line on a group presentation", ln, 1)
        zero = zline.strip()[len("zero:"):].strip()
        if zero not in gens:
            raise ParseError(f"zero {zero!r} is not a listed generator", ln, 1)

    ln, rline = take("rels:")
    rbody = rline.strip()
    if not rbody.startswith("rels:"):
        raise ParseError("expected 'rels:' line", ln, 1)
    relations: list[Relation] = []
    rest = rbody[len("rels:"):]
    if rest.strip():
        col0 = rline.find(rest)
        pos = 0
        for chunk in rest.split(","):
            at = col0 + pos
            pos += len(chunk) + 1
            if chunk.count("=") != 1:
                raise ParseError(f"relation needs exactly one '=': {chunk.strip()!r}", ln, at + 1)
            left, right = chunk.split("=")
            relations.append(
                Relation(parse_word(left, ln, at), parse_word(right, ln, at + len(left) + 1))
            )
    if rows:
        ln, extra = rows[0]
        raise ParseError(f"unexpected line {extra.strip()!r}", ln, 1)

    try:
        return Presentation(kind, tuple(gens), tuple(relations), zero)
    except ValidationError as exc:
        raise ParseError(str(exc), ln, 1) from exc


# ---------------------------------------------------------------------------
# elementary transformations


def rename_generators(p: Presentation, mapping: Mapping[str, str]) -> Presentation:
    """Apply an injective renaming to every symbol of `p`."""
    for old, new in mapping.items():
        if old not in p.generators:
            raise ValidationError(f"{old} is not a generator")
        if not is_identifier(new):
            raise ValidationError(f"invalid image name {new!r}")
    full = {g: mapping.get(g, g) for g in p.generators}
    images = list(full.values())
    if len(set(images)) != len(images):
        clash = next(n for n in images if images.count(n) > 1)
        raise ValidationError(f"renaming is not injective: two generators map to {clash}")

    def rw(w: Word) -> Word:
        return Word(tuple((full[s], e) for s, e in w.letters))

    return Presentation(
        p.kind,
        tuple(full[g] for g in p.generators),
        tuple(Relation(rw(r.lhs), rw(r.rhs)) for r in p.relations),
        full[p.zero] if p.zero is not None else None,
    )


def _substitute(w: Word, sym: str, image: Word) -> Word:
    letters: list[tuple[str, int]] = []
    for s, e in w.letters:
        letters += power_letters(image.letters, e) if s == sym else ((s, e),)
    return Word(tuple(letters))


def tietze_simplify(p: Presentation, max_moves: int = 1000) -> Presentation:
    """Delete trivial relations and eliminate redundantly defined generators.

    Performs at most `max_moves` elementary moves.  Both move kinds
    preserve the presented (semi)group up to isomorphism: removing a
    relation u = u, and removing a generator g with a defining relation
    g = W (g not occurring in W) after substituting W for g everywhere.
    The designated zero generator is never eliminated.
    """
    gens = list(p.generators)
    rels = list(p.relations)
    moves = 0
    changed = True
    while changed and moves < max_moves:
        changed = False
        for i, rel in enumerate(rels):
            if rel.lhs == rel.rhs:
                del rels[i]
                moves += 1
                changed = True
                break
        if changed:
            continue
        for i, rel in enumerate(rels):
            hit = None
            for side, other in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
                if len(side.letters) != 1:
                    continue
                sym, exp = side.letters[0]
                if abs(exp) != 1 or (p.kind is Kind.MONOID and exp != 1):
                    continue
                if sym == p.zero or sym in other.symbols():
                    continue
                hit = (sym, other if exp == 1 else other.inverse())
                break
            if hit is None:
                continue
            sym, image = hit
            del rels[i]
            gens.remove(sym)
            rels = [
                Relation(_substitute(r.lhs, sym, image), _substitute(r.rhs, sym, image))
                for r in rels
            ]
            moves += 1
            changed = True
            break
    return Presentation(p.kind, tuple(gens), tuple(rels), p.zero)
