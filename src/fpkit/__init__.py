"""Finitely presented (semi)group toolkit.

Data model and parsing for finite group and monoid presentations, a
shortlex Knuth-Bendix rewriting engine, Todd-Coxeter coset enumeration,
integer Smith normal form, and the classical presentation-to-presentation
test constructions (free products, HNN extensions, the four-letter test
semigroup, triviality test groups) together with exact embedding and
collapse checks and machine-readable certificates.
"""

__version__ = "0.1.0"

from .presentations import parse_presentation, parse_word
from .rewriting import words_equal
from .coset import EnumLimits, is_trivial
from .constructions import GroupTestInstance, triviality_test_group
