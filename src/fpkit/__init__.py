"""Finitely presented (semi)group toolkit.

Data model and parsing for finite group and monoid presentations, a
shortlex Knuth-Bendix rewriting engine, Todd-Coxeter coset enumeration,
integer Smith normal form, and the classical presentation-to-presentation
test constructions (free products, HNN ladders, the four-letter test
semigroup, triviality test groups) together with bounded empirical checks
and machine-readable certificates.
"""

__version__ = "0.1.0"

from .presentations import (
    Kind,
    ParseError,
    Presentation,
    PresentationError,
    Relation,
    ValidationError,
    Word,
    parse_presentation,
    parse_word,
    rename_generators,
    serialize_presentation,
    serialize_word,
    tietze_simplify,
)
from .rewriting import (
    Budget,
    Completeness,
    RewriteRule,
    RewritingSystem,
    Verdict,
    knuth_bendix,
    normal_form,
    words_equal,
)
from .coset import EnumLimits, TcResult, Triviality, is_trivial, todd_coxeter
from .verify import (
    AbelianInvariants,
    Certificate,
    CheckReport,
    CheckVerdict,
    abelianization,
    assemble_certificate,
    collapse_check,
    embedding_spot_check,
    smith_normal_form,
)
from .constructions import (
    AuditTrail,
    GroupTestInstance,
    MarkovInstance,
    Mode,
    PropertySpec,
    XiRange,
    adjoin_zero,
    free_product,
    hnn_extension,
    hnn_ladder,
    markov_property_reduction,
    markov_semigroup,
    triviality_test_group,
)
