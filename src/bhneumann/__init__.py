"""Exact computation in towers of alternating groups on two generators.

The package constructs the prime divisor and offset sequences that
define the tower, solves the word problem for the two-generator group
exactly through a lamp-state locality argument, certifies that each
coordinate pair generates its full alternating group, and evaluates the
separation growth bounds the construction is designed to realize.
"""

from .errors import (
    BHNeumannError,
    BudgetExceeded,
    DegreeTooLarge,
    DivisorTooSmall,
    InvalidGenerators,
    NoAdmissibleResidue,
    ProfileTooSmall,
    SequenceConstructionError,
    SpreadAssertionFailed,
    WitnessCheckFailed,
)
from .words import (
    commutator,
    conjugate,
    enumerate_reduced,
    free_reduce,
    invert,
    random_codes,
    random_reduced,
)
from .wreath import WreathElement, w_eval
from .perm import (
    Permutation,
    compose,
    cycle_from,
    identity,
    inverse,
    is_even,
    make_generators,
    order,
    power,
    support,
)
from .seqgen import GrowthProfile, SequenceSet, f_of, is_prime, next_prime, sieve
from .schreier import (
    StabilizerChain,
    build_chain,
    contains,
    group_order,
    verify_alt_generation,
)
from .neumann import (
    GroupContext,
    ball,
    coordinate_eval,
    cutoff,
    equal,
    is_trivial,
    signature,
    span_cutoff,
    spread_ok,
    witness,
)
from .growth import (
    bound_table,
    envelope_report,
    exact_sandwich,
    full_rf_upper,
    log_factorial,
    stirling_check,
)

__version__ = "0.1.0"

__all__ = [
    "BHNeumannError",
    "BudgetExceeded",
    "DegreeTooLarge",
    "DivisorTooSmall",
    "InvalidGenerators",
    "NoAdmissibleResidue",
    "ProfileTooSmall",
    "SequenceConstructionError",
    "SpreadAssertionFailed",
    "WitnessCheckFailed",
    "commutator",
    "conjugate",
    "enumerate_reduced",
    "free_reduce",
    "invert",
    "random_codes",
    "random_reduced",
    "WreathElement",
    "w_eval",
    "Permutation",
    "compose",
    "cycle_from",
    "identity",
    "inverse",
    "is_even",
    "make_generators",
    "order",
    "power",
    "support",
    "GrowthProfile",
    "SequenceSet",
    "f_of",
    "is_prime",
    "next_prime",
    "sieve",
    "StabilizerChain",
    "build_chain",
    "contains",
    "group_order",
    "verify_alt_generation",
    "GroupContext",
    "ball",
    "coordinate_eval",
    "cutoff",
    "equal",
    "is_trivial",
    "signature",
    "span_cutoff",
    "spread_ok",
    "witness",
    "bound_table",
    "envelope_report",
    "exact_sandwich",
    "full_rf_upper",
    "log_factorial",
    "stirling_check",
]
