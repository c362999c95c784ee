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
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Mapping, TypeVar

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
    """A word over generator symbols, kept in merged (freely reduced) form.

    Constructing a `Word` merges its letters.  The operations below skip
    that pass where the result is merged already: a product whose junction
    letters are on different symbols, a single letter, an inverse and an
    injective renaming.
    """

    letters: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _merge(self.letters))

    @staticmethod
    def single(symbol: str, exp: int = 1) -> "Word":
        return _merged_word(((symbol, exp),)) if exp else Word()

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
        return _merged_word(tuple((s, -e) for s, e in reversed(self.letters)))

    def renamed(self, mapping: Mapping[str, str]) -> "Word":
        """Each symbol s spelled mapping[s]; `mapping` must be injective."""
        return _merged_word(tuple((mapping[s], e) for s, e in self.letters))

    def __mul__(self, other: "Word") -> "Word":
        a, b = self.letters, other.letters
        if not a:
            return other
        if not b:
            return self
        if a[-1][0] != b[0][0]:
            return _merged_word(a + b)
        return Word(a + b)

    def pow(self, k: int) -> "Word":
        return Word(power_letters(self.letters, k))

    def __str__(self) -> str:
        return serialize_word(self)


def _merged_word(letters: tuple[tuple[str, int], ...]) -> Word:
    # `letters` must be merged already: no zero exponent, no two neighbours on one symbol
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    return w


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
    and comes with the full absorption relation set.  Validation also
    sets `generator_index`, each generator's position, which the letter
    codes and `key` read; it must not be changed.
    """

    kind: Kind
    generators: tuple[str, ...]
    relations: tuple[Relation, ...] = ()
    zero: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relations", tuple(self.relations))
        _admit(self, {}, 0, 0, None)

    @property
    def is_group(self) -> bool:
        return self.kind is Kind.GROUP

    @cached_property
    def key(self) -> tuple:
        """The presentation up to renaming: kind, generator count, zero and relations.

        The relations are spelled flat, each side as its runs of generator
        index and exponent followed by -1.  Words are kept merged, so the
        runs determine the letter codes and back, and presentations equal up
        to renaming share a key.  The zero is its generator index, or -1.
        It is all that Knuth-Bendix completion and Todd-Coxeter enumeration
        read, so their caches key on it; it is computed once.
        """
        index = self.generator_index
        runs: list[int] = []
        for rel in self.relations:
            for side in (rel.lhs, rel.rhs):
                for s, e in side.letters:
                    runs += (index[s], e)
                runs.append(-1)  # no generator index is negative
        return (self.kind, len(self.generators), index.get(self.zero, -1), tuple(runs))

    def __str__(self) -> str:
        return serialize_presentation(self)


V = TypeVar("V")


def lru(cache: OrderedDict, key, make: Callable[[], V]) -> V:
    """`cache[key]`, set to `make()` on a miss; the 128 most recently used are kept.

    `make` runs only on a miss, stores nothing if it raises, and must not
    return None.  The engines' caches key on `Presentation.key` through
    this.  A hit hashes the key only twice, since hashing those keys is
    most of what a hit costs.
    """
    value = cache.get(key)
    if value is None:
        value = cache[key] = make()
        if len(cache) > 128:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return value


def extend(
    p: Presentation,
    generators: Iterable[str] = (),
    relations: Iterable[Relation] = (),
    zero: str | None = None,
) -> Presentation:
    """`p` with `generators` and `relations` appended, and `zero` declared if given.

    Equal to ``Presentation(p.kind, generators of p + generators, relations
    of p + relations, zero or p.zero)`` and raises the same ValidationError,
    but validates only what is added, since `p` is valid already.
    """
    out = object.__new__(Presentation)
    object.__setattr__(out, "kind", p.kind)
    object.__setattr__(out, "generators", p.generators + tuple(generators))
    object.__setattr__(out, "relations", p.relations + tuple(relations))
    object.__setattr__(out, "zero", p.zero if zero is None else zero)
    _admit(out, dict(p.generator_index), len(p.generators), len(p.relations), p.zero)
    return out


def _admit(
    p: Presentation, index: dict[str, int], gens_from: int, rels_from: int, old_zero: str | None
) -> None:
    """Validate what `p` adds to its valid part: the first `gens_from`
    generators, indexed in `index`, the first `rels_from` relations and the
    zero `old_zero`.  Errors come in the order a check of the whole of `p`
    meets them, as the valid part raises none; `index` is completed and
    becomes `p.generator_index`."""
    for g in p.generators[gens_from:]:
        if not is_identifier(g):
            raise ValidationError(f"invalid generator name {g!r}")
        if g in index:
            raise ValidationError(f"duplicate generator {g}")
        index[g] = len(index)
    monoid = p.kind is Kind.MONOID
    added = p.relations[rels_from:]
    for rel in added:
        for w in (rel.lhs, rel.rhs):
            # one pass; an undeclared generator is reported before a negative exponent
            negative = False
            for s, e in w.letters:
                if s not in index:
                    missing = sorted(w.symbols() - index.keys())[0]
                    raise ValidationError(f"undeclared generator {missing}")
                if e < 0:
                    negative = True
            if negative and monoid:
                raise ValidationError(f"negative exponent in monoid word {w}")
    z = p.zero
    if z is not None:
        if not monoid:
            raise ValidationError("zero is only allowed on monoid presentations")
        if z not in index:
            raise ValidationError(f"zero {z} is not a generator")
        if z == old_zero:
            # the valid part has the old generators' absorption relations,
            # and relations older than a generator cannot mention it
            _check_absorption(z, p.generators[gens_from:], added)
        else:
            # a new zero needs every generator's relations; a new generator's are all added ones
            _check_absorption(z, p.generators, added if index[z] >= gens_from else p.relations)
    object.__setattr__(p, "generator_index", index)


def _check_absorption(z: str, generators: Iterable[str], relations: tuple[Relation, ...]) -> None:
    alone = ((z, 1),)
    # the other side of every relation with z alone on one side
    absorbed = {r.rhs.letters for r in relations if r.lhs.letters == alone}
    absorbed.update(r.lhs.letters for r in relations if r.rhs.letters == alone)
    for g in generators:
        needed = (((z, 2),),) if g == z else (((g, 1), (z, 1)), ((z, 1), (g, 1)))
        if not absorbed.issuperset(needed):
            raise ValidationError(f"zero {z} lacks absorption relation for generator {g}")


# ---------------------------------------------------------------------------
# letter codes


def encode_word(p: Presentation, w: Word) -> bytes:
    """`w` as the bytes of its letter codes over `p`.

    Generator i is code 2i and its inverse 2i+1, so ``c ^ 1`` inverts a
    letter and code order is generator order with each inverse right after
    its generator.  Knuth-Bendix and Todd-Coxeter both work on these codes,
    which fit in a byte for up to 128 generators.
    """
    index = p.generator_index
    if len(index) > 128:
        raise ValidationError(f"{len(index)} generators: letter codes fit in a byte only up to 128")
    monoid = p.kind is Kind.MONOID
    codes: list[int] = []
    for s, e in w.letters:
        i = index.get(s)
        if i is None:
            raise ValidationError(f"word uses symbol {s} outside the presentation")
        if e > 0:
            codes += (2 * i,) * e
        elif monoid:
            raise ValidationError(f"negative exponent in monoid word {w}")
        else:
            codes += (2 * i + 1,) * -e
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

    return Presentation(
        p.kind,
        tuple(images),
        tuple(Relation(r.lhs.renamed(full), r.rhs.renamed(full)) for r in p.relations),
        full[p.zero] if p.zero is not None else None,
    )


def substitute(w: Word, images: Mapping[str, Word]) -> Word:
    """`w` with each symbol in `images` replaced by its image, and the others kept."""
    letters: list[tuple[str, int]] = []
    for s, e in w.letters:
        image = images.get(s)
        letters += ((s, e),) if image is None else power_letters(image.letters, e)
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
            images = {sym: image}
            rels = [Relation(substitute(r.lhs, images), substitute(r.rhs, images)) for r in rels]
            moves += 1
            changed = True
            break
    return Presentation(p.kind, tuple(gens), tuple(rels), p.zero)
