"""Presentation-to-presentation constructions.

The combinators here build, from small decidable ingredients, the test
objects whose structure encodes a word equality:

* ``free_product`` / ``adjoin_zero`` / ``hnn_extension`` are the raw
  moves;
* ``markov_semigroup`` assembles the four-letter test monoid S_{G,H}
  over a free product S0 * S1 * S4, whose collapse onto S4 tracks
  whether G = H holds in S1;
* ``triviality_test_group`` assembles a group that is trivial exactly
  when a designated word equals the identity in a base group, and
  carries the base along otherwise;
* ``markov_property_reduction`` composes a test group with the positive
  witness of the one property fpkit certifies, being the trivial group.

Each of the three constructions is a deterministic function of its
inputs and returns a ``Build``: the presentation and an audit trail of
the intermediate presentations, renamings, and the relations it adds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .presentations import (
    Kind,
    Presentation,
    Relation,
    ValidationError,
    Word,
    extend,
    fresh_symbol,
    is_identifier,
    serialize_presentation,
)


@dataclass
class AuditStep:
    label: str
    detail: str = ""
    presentation: Presentation | None = None


class AuditTrail:
    """Ordered record of construction steps for offline auditing."""

    def __init__(self):
        self.steps: list[AuditStep] = []

    def add(self, label: str, detail: str = "", presentation: Presentation | None = None):
        self.steps.append(AuditStep(label, detail, presentation))

    def to_text(self) -> str:
        blocks = []
        for i, step in enumerate(self.steps, 1):
            head = f"[{i}] {step.label}"
            if step.detail:
                head += f": {step.detail}"
            if step.presentation is not None:
                head += "\n" + serialize_presentation(step.presentation).rstrip("\n")
            blocks.append(head)
        return "\n".join(blocks) + "\n"


@dataclass
class Build:
    presentation: Presentation
    trail: AuditTrail
    # factor name -> generator renaming into the presentation (S_{G,H} only)
    maps: dict[str, dict[str, str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# raw combinators


def free_product(
    p1: Presentation, p2: Presentation, trail: AuditTrail | None = None
) -> Presentation:
    """Disjoint union of generators and relations; no cross relations.

    The second operand is renamed away from the first on collision and
    the renaming is recorded in the trail.
    """
    if p1.kind is not p2.kind:
        raise ValidationError("free product requires presentations of the same kind")
    if p1.zero is not None or p2.zero is not None:
        raise ValidationError("free product factors must not carry a zero")
    used = set(p1.generators)
    renaming: dict[str, str] = {}
    for g in p2.generators:
        img = fresh_symbol(g, used)
        used.add(img)
        if img != g:
            renaming[g] = img
    images = tuple(renaming.get(g, g) for g in p2.generators)
    relations = p2.relations
    if renaming:
        full = dict(zip(p2.generators, images))
        relations = tuple(Relation(r.lhs.renamed(full), r.rhs.renamed(full)) for r in relations)
    out = extend(p1, images, relations)
    if trail is not None:
        detail = (
            "second factor renamed: "
            + ", ".join(f"{a}->{b}" for a, b in sorted(renaming.items()))
            if renaming
            else "no renaming needed"
        )
        trail.add("free-product", detail, out)
    return out


def adjoin_zero(
    p: Presentation, zname: str, trail: AuditTrail | None = None
) -> Presentation:
    """Adjoin an absorbing zero generator with the full absorption relation set."""
    if p.kind is not Kind.MONOID:
        raise ValidationError("zero adjunction applies to monoid presentations")
    if p.zero is not None:
        raise ValidationError("presentation already has a zero")
    if not is_identifier(zname):
        raise ValidationError(f"invalid zero name {zname!r}")
    if zname in p.generators:
        raise ValidationError(f"zero name {zname} collides with a generator")
    zw = Word.single(zname)
    absorption = []
    for g in p.generators:
        gw = Word.single(g)
        absorption.append(Relation(gw * zw, zw))
        absorption.append(Relation(zw * gw, zw))
    absorption.append(Relation(Word.single(zname, 2), zw))
    out = extend(p, (zname,), absorption, zero=zname)
    if trail is not None:
        trail.add("adjoin-zero", f"zero generator {zname}, {len(absorption)} absorption relations", out)
    return out


def hnn_extension(
    base: Presentation,
    stable: str,
    assoc: Sequence[tuple[Word, Word]],
    trail: AuditTrail | None = None,
) -> Presentation:
    """Adjoin a stable letter t with relations t^-1 A_i t = B_i."""
    if base.kind is not Kind.GROUP:
        raise ValidationError("HNN extension requires a group presentation")
    if not is_identifier(stable):
        raise ValidationError(f"invalid stable letter {stable!r}")
    if stable in base.generators:
        raise ValidationError(f"stable letter {stable} is not fresh")
    gens = base.generator_index.keys()
    t = Word.single(stable)
    rels = []
    for a, b in assoc:
        bad = (a.symbols() | b.symbols()) - gens
        if bad:
            raise ValidationError(
                f"associated word uses symbol {sorted(bad)[0]} outside the base"
            )
        rels.append(Relation(t.inverse() * a * t, b))
    out = extend(base, (stable,), rels)
    if trail is not None:
        trail.add("hnn-extension", f"stable letter {stable}, {len(assoc)} associated pairs", out)
    return out


# ---------------------------------------------------------------------------
# the Markov test semigroup


@dataclass(frozen=True)
class MarkovInstance:
    """Ingredients of the four-letter test monoid S_{G,H}.

    s0 is the non-embeddable witness, s1 carries the word problem, s4 is
    the property witness; g and h are nonempty words over s1.
    """

    s0: Presentation
    s1: Presentation
    s4: Presentation
    g: Word
    h: Word

    def __post_init__(self):
        for name, p in (("s0", self.s0), ("s1", self.s1), ("s4", self.s4)):
            if p.kind is not Kind.MONOID:
                raise ValidationError(f"{name} must be a monoid presentation")
            if p.zero is not None:
                raise ValidationError(f"{name} must not carry a zero")
        for name, w in (("G", self.g), ("H", self.h)):
            if w.is_empty:
                raise ValidationError(f"word {name} must be nonempty")
            if not w.is_positive:
                raise ValidationError(f"word {name} must be a positive monoid word")
            bad = w.symbols() - set(self.s1.generators)
            if bad:
                raise ValidationError(f"word {name} uses symbol {sorted(bad)[0]} outside s1")


def _offset_map(before: Presentation, after_gens: Sequence[str], offset: int) -> dict[str, str]:
    return {g: after_gens[offset + i] for i, g in enumerate(before.generators)}


# the adjoined letters a, b, c, d, before any renaming
_LETTERS = Presentation(Kind.MONOID, ("a", "b", "c", "d"))


def markov_semigroup(inst: MarkovInstance) -> Build:
    """Assemble S_{G,H}: S0 * S1 * S4 plus letters a,b,c,d, a zero, and the
    two schema relation families  c G d = 1  and  xi c H d = c H d.

    The schema's right-hand side "0" is read as the empty word (the
    monoid identity); the absorbing zero generator is still adjoined so
    the result is a monoid with zero.  xi ranges over every generator
    outside S4 and the zero (the audit trail calls this range "all"), so
    when G = H the second family sets each of those generators to 1 and
    S_{G,H} collapses onto S4 with a zero.
    """
    trail = AuditTrail()
    trail.add("ingredients", f"G = {inst.g}, H = {inst.h}, xi-range = all")

    p01 = free_product(inst.s0, inst.s1, trail)
    map0 = {g: g for g in inst.s0.generators}
    map1 = _offset_map(inst.s1, p01.generators, len(inst.s0.generators))
    p014 = free_product(p01, inst.s4, trail)
    map4 = _offset_map(inst.s4, p014.generators, len(p01.generators))

    with_letters = free_product(p014, _LETTERS, trail)
    lmap = _offset_map(_LETTERS, with_letters.generators, len(p014.generators))
    zname = fresh_symbol("z", with_letters.generators)
    built = adjoin_zero(with_letters, zname, trail)

    gw, hw = inst.g.renamed(map1), inst.h.renamed(map1)
    cw, dw = Word.single(lmap["c"]), Word.single(lmap["d"])
    schema = [Relation(cw * gw * dw, Word())]
    s4_letters = set(map4.values())
    xi_letters = [g for g in built.generators if g != zname and g not in s4_letters]
    chd = cw * hw * dw
    for xi in xi_letters:
        schema.append(Relation(Word.single(xi) * chd, chd))
    built = extend(built, (), schema)
    trail.add(
        "schema-relations",
        f"c G d = 1 and {len(xi_letters)} relations xi c H d = c H d",
        built,
    )
    return Build(built, trail, {"s0": map0, "s1": map1, "s4": map4, "letters": lmap})


# ---------------------------------------------------------------------------
# the triviality test group

# the one test-group construction; certificates and audit trails name it
RECIPE = "rabin-ladder"


@dataclass(frozen=True)
class GroupTestInstance:
    """A base group with one or two test words.

    The test group is trivial exactly when a_word equals b_word (or the
    identity, in the one-word form) in the base group.
    """

    base: Presentation
    a_word: Word
    b_word: Word | None = None

    def __post_init__(self):
        if self.base.kind is not Kind.GROUP:
            raise ValidationError("the base must be a group presentation")
        gens = set(self.base.generators)
        for name, w in (("a_word", self.a_word), ("b_word", self.b_word)):
            if w is None:
                continue
            bad = w.symbols() - gens
            if bad:
                raise ValidationError(f"{name} uses symbol {sorted(bad)[0]} outside the base")

    @property
    def test_word(self) -> Word:
        if self.b_word is None:
            return self.a_word
        return self.a_word * self.b_word.inverse()


def triviality_test_group(inst: GroupTestInstance) -> Build:
    """The Rabin-ladder test group of `inst`: iterated HNN extensions with a
    final welding relation per stable letter.

    Working over B * <c> * <d>, the alternating square

        W = w c^-1 w c

    of the test word w is trivial when w = 1 and of infinite order
    otherwise (its normal form in B * <c> alternates, so no power dies;
    raw w would break the dichotomy whenever w has finite order, because
    a ladder relation makes its two sides conjugate).  The conjugates
    e_k = d^-k W d^k are then freely independent for w != 1, and the
    ladder relations

        q_i^-1 e_i q_i = x_i d^(i+1)      (one per base generator)
        q^-1 e_(n+1) q  = d

    express every base generator and d through conjugates of W, while
    the welds  q_i = e_(n+1+i),  q = e_(2n+2),  c = e_(2n+3)  do the
    same for the remaining letters.  With w = 1 every conjugate of W is
    1, so the relations read 1 = x_i d^(i+1), 1 = d, q_i = 1, q = 1 and
    c = 1 beside the base's, and `presentations.eliminate` kills the
    group one generator at a time (this is T_1, which `cli` proves
    trivial for every instance whose words agree); the welds
    are what lets the stable letters die (a pure HNN tower always keeps
    its last stable letter, so a quotienting step is unavoidable for a
    test group).
    """
    trail = AuditTrail()
    b_desc = str(inst.b_word) if inst.b_word is not None else "(identity)"
    trail.add(
        "ingredients",
        f"A = {inst.a_word}, B = {b_desc}, test word = {inst.test_word}, recipe = {RECIPE}",
    )
    base = inst.base
    n = len(base.generators)
    w = inst.test_word
    picked: list[str] = []  # each letter fresh for the base and the letters before it
    for name in [f"q{i}" for i in range(1, n + 1)] + ["q", "c", "d"]:
        picked.append(fresh_symbol(name, [*base.generators, *picked]))
    *stable, c, d = picked
    cw, dw = Word.single(c), Word.single(d)
    alt_square = w * cw.inverse() * w * cw

    def conj(k: int) -> Word:
        return Word.single(d, -k) * alt_square * Word.single(d, k)

    laddered = free_product(
        free_product(base, Presentation(Kind.GROUP, (c,)), trail),
        Presentation(Kind.GROUP, (d,)),
        trail,
    )
    for i, x in enumerate(base.generators, start=1):
        assoc = [(conj(i), Word.single(x) * Word.single(d, i + 1))]
        laddered = hnn_extension(laddered, stable[i - 1], assoc, trail)
    laddered = hnn_extension(laddered, stable[n], [(conj(n + 1), dw)], trail)

    welds = []
    for i in range(1, n + 1):
        welds.append(Relation(Word.single(stable[i - 1]), conj(n + 1 + i)))
    welds.append(Relation(Word.single(stable[n]), conj(2 * n + 2)))
    welds.append(Relation(cw, conj(2 * n + 3)))
    out = extend(laddered, (), welds)
    trail.add("welds", f"{len(welds)} welding relations (stable letters and {c})", out)
    return Build(out, trail)


# ---------------------------------------------------------------------------
# property reduction


# the one property fpkit certifies; certificates and audit trails name it
PROPERTY = "being the trivial group"


@dataclass(frozen=True)
class PropertySpec:
    """The positive witness, which has the property, and the negative one."""

    g_plus: Presentation
    g_minus: Presentation

    def __post_init__(self):
        if self.g_plus.kind is not self.g_minus.kind:
            raise ValidationError("witness presentations must have matching kind")


def markov_property_reduction(spec: PropertySpec, test: Presentation) -> Build:
    """Free product G+ * test of the positive witness with a test group.

    For the one property, being the trivial group, the free product is
    G+ when the test group is trivial, and is nontrivial, since it
    contains the test group, when the test group is not.
    """
    if spec.g_plus.kind is not Kind.GROUP or test.kind is not Kind.GROUP:
        raise ValidationError("property reduction composes group presentations")
    trail = AuditTrail()
    trail.add("property", PROPERTY)
    trail.add("witness-factor", "", spec.g_plus)
    trail.add("test-factor", "", test)
    out = free_product(spec.g_plus, test, trail)
    return Build(out, trail)
