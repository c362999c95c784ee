"""Ground truth for generated instances, decided by arithmetic alone.

Nothing here imports fpkit.  A word is a sequence of ``(symbol, exponent)``
pairs, as the generator builds it; `parse` reads the text form that fpkit
reads (``a^2 b^-1``, ``1`` for the empty word).

Monoid word problems are decided by a key that two words share exactly
when they are equal: exponent counts and parity for the one-relation S1
families, the letter string for free monoids.  Group word problems are
decided by the image in an abelian quotient that is the whole group
(cyclic groups, Z, Z^2, the Klein group) or by free reduction (free
groups).  For Baumslag-Solitar groups and the braid monoid only one side
is decidable this way; the generator builds the other side by
construction (relator conjugates, relation moves).
"""

from __future__ import annotations

from collections import Counter
from math import gcd


def parse(text: str) -> list[tuple[str, int]]:
    out = []
    for tok in text.split():
        if tok == "1":
            continue
        name, caret, exp = tok.partition("^")
        out.append((name, int(exp) if caret else 1))
    return out


def fmt(word) -> str:
    word = merged(word)
    if not word:
        return "1"
    return " ".join(s if e == 1 else f"{s}^{e}" for s, e in word)


def merged(word) -> list[tuple[str, int]]:
    """Merge adjacent equal symbols; in a group this is free reduction."""
    out: list[list] = []
    for s, e in word:
        if e == 0:
            continue
        if out and out[-1][0] == s:
            out[-1][1] += e
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([s, e])
    return [(s, e) for s, e in out]


def inverse(word) -> list[tuple[str, int]]:
    return [(s, -e) for s, e in reversed(word)]


def letters(word) -> tuple[str, ...]:
    """Flat letter string of a positive (monoid) word."""
    out: list[str] = []
    for s, e in word:
        if e <= 0:
            raise ValueError(f"monoid word with exponent {e}")
        out.extend([s] * e)
    return tuple(out)


def exponent_sum(word, symbol: str) -> int:
    return sum(e for s, e in word if s == symbol)


# ---------------------------------------------------------------------------
# monoids: key(u) == key(v) exactly when u = v


def _idempotent(w):  # g^2 = g: every nonempty power is g
    return min(len(w), 1)


def _cubed(w):  # g^3 = g: g^k = g for odd k, g^2 for even k > 0
    return 0 if not w else 2 - len(w) % 2


def _commutative(w):  # u v = v u: exponent counts
    return tuple(sorted(Counter(w).items()))


def _left_absorbing(w):  # p q = p, q p = q: a nonempty word is its first letter
    return w[:1]


def _period_two(w):  # m^4 = m^2: m^0, m^1 stand alone, then parity from m^2 on
    return len(w) if len(w) < 2 else 2 + len(w) % 2


def _free(w):
    return w


MONOID_KEYS = {
    "idempotent": _idempotent,
    "cubed": _cubed,
    "commutative": _commutative,
    "left_absorbing": _left_absorbing,
    "period_two": _period_two,
    "free": _free,
}


def monoid_equal(family: str, u, v) -> bool:
    key = MONOID_KEYS[family]
    return key(letters(u)) == key(letters(v))


def braid_distinct(u, v) -> bool | None:
    """a b a = b a b preserves length: different lengths are distinct.

    Equal lengths decide nothing here (None).
    """
    return True if len(letters(u)) != len(letters(v)) else None


def braid_move(w: tuple[str, ...], a: str, b: str, at: int) -> tuple[str, ...] | None:
    """Apply the relation at position `at`, in whichever direction matches."""
    x = w[at:at + 3]
    if x == (a, b, a):
        return w[:at] + (b, a, b) + w[at + 3:]
    if x == (b, a, b):
        return w[:at] + (a, b, a) + w[at + 3:]
    return None


# ---------------------------------------------------------------------------
# groups: key(w) == key(1) exactly when w = 1


def abelian_key(moduli: dict[str, int]):
    """Key in a direct sum of cyclic groups, one per generator.

    Modulus 0 is an infinite cyclic factor.  This is the whole group for
    Z/n, Z, Z^2 and the Klein group Z/2 + Z/2.
    """

    def key(w):
        return tuple(
            exponent_sum(w, g) % m if m else exponent_sum(w, g) for g, m in sorted(moduli.items())
        )

    return key


def free_key(w):
    return tuple(merged(w))


def group_equal(key, u, v) -> bool:
    return key(merged(list(u) + inverse(v))) == key([])


def bs_nontrivial(w, stable: str) -> bool | None:
    """In <a, b | a^-1 b^m a = b^n>, a nonzero exponent sum of a gives w != 1.

    The relation has a-exponent sum 0 on each side, so that sum is a
    homomorphism onto Z.  A zero sum decides nothing here (None).
    """
    return True if exponent_sum(w, stable) != 0 else None


def cyclic_order(k: int, l: int) -> int:
    """Order of <a | a^k = 1, a^l = 1>, which is Z/gcd(k, l)."""
    return gcd(k, l)
