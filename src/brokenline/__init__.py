"""Exact arithmetic for periodic Sturmian external angles of the Mandelbrot
set, built from broken lines on the integer grid.

The pipeline: a slope and a hinge choice validate into a parameter set, the
broken line's grid crossings give a periodic angle, priming its blocks gives
the conjugate angle, the word structure gives the kneading sequence, and the
junction rays of the limb locate the landing component.  Everything runs on
``fractions.Fraction`` and bit strings; no floats anywhere.
"""

from .angles import (
    ClassOrder,
    PeriodicAngle,
    compare_prefix_classes,
    double_angle,
    fraction_to_expansion,
    minimal_period,
    multiplicative_order,
    word_to_fraction,
)
from .atlas import (
    SpecEnumeration,
    SpokeLocation,
    enumerate_specs,
    euler_phi,
    junction_rays,
    locate,
    sturmian_census,
    tune,
    tuned_is_nonsturmian,
)
from .conjugate import (
    ConjugateChain,
    UnlinkCertificate,
    conjugate_angle,
    conjugate_chain,
    conjugate_word,
    lavaurs_pairs,
    lavaurs_partner,
    unlinked,
)
from .errors import (
    BracketingFailed,
    BrokenLineError,
    BudgetExceeded,
    HypothesisViolated,
    InvariantViolated,
    MalformedCuttingSequence,
    NoDifference,
    NonMinimalPeriod,
    NotBrokenLineKneading,
    NotCoprime,
    NotPeriodic,
    PreconditionUnmet,
    UnlinkViolation,
)
from .farey import (
    BrokenLineSpec,
    FareyContext,
    bezout_minimal,
    bound_fraction,
    farey_parents,
    mediant,
    single_block_slope,
    stern_brocot_path,
    validate_spec,
)
from .kneading import (
    KneadingSequence,
    invert_kneading,
    kneading_concatenates,
    kneading_of_angle,
    kneading_of_spec,
    lower_kneading_period,
)
from .mechanical import (
    BlockDecomposition,
    block_decomposition,
    block_word,
    broken_line_angle,
    broken_line_tags,
    broken_line_word,
    characteristic_pair,
    cutting_sequence,
    cutting_to_mechanical,
    mechanical_word,
    mediant_tags,
)
from .words import (
    Convention,
    first_difference,
    is_sturmian,
    prime_minus,
    prime_plus,
    rotate_left,
    rotation_diagnostics,
)

__all__ = [name for name in dir() if not name.startswith("_")]
