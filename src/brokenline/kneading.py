"""Kneading sequences of periodic angles: the itinerary of an angle's
doubling orbit, read off the rotation signs of its period word by the
oracles module's reader; the closed-form kneading of a broken line, read off
its block pattern; and the inverse from a kneading back to its broken
line."""

from __future__ import annotations

import math
from fractions import Fraction

from .angles import PeriodicAngle, _expand, _is_binary, _Value, minimal_period
from .errors import HypothesisViolated, NotBrokenLineKneading, NotPeriodic
from .farey import BrokenLineSpec, FareyContext, _check_hinge, mediant
from .mechanical import _spell, broken_line_word
from .oracles import _kneading_of_word
from .words import Convention

__all__ = [
    "KneadingSequence",
    "invert_kneading",
    "kneading_concatenates",
    "kneading_of_angle",
    "kneading_of_spec",
    "lower_kneading_period",
]


class KneadingSequence(_Value):
    """Itinerary of a periodic angle's doubling orbit; the single star sits in
    the final slot."""

    __match_args__ = ("symbols",)

    def __init__(self, symbols: str) -> None:
        # a body over "0" and "1" alone, closed by the star
        if len(symbols) < 2 or symbols[-1] != "*" or not _is_binary(symbols[:-1]):
            raise ValueError(f"malformed kneading sequence: {symbols!r}")
        self.__dict__.update(symbols=symbols)

    @property
    def period(self) -> int:
        return len(self.symbols)

    @property
    def star_position(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return self.symbols


def kneading_of_angle(theta: Fraction) -> KneadingSequence:
    """Itinerary of theta's doubling orbit against the partition points
    theta/2 and (theta+1)/2.

    Entries are 1 strictly between the partition points, 0 on the arc through
    zero, and * on a partition point; for a periodic angle the only boundary
    hit is the final orbit point.  Read off the rotation signs of theta's
    period word, in linear time once the order search has expanded theta.
    """
    return _kneading_of(theta % 1)


def _kneading_of(theta: Fraction, word: str = "") -> KneadingSequence:
    # kneading_of_angle of theta in [0, 1), read off the period word given or
    # else expanded from theta
    if theta.denominator % 2 == 0:
        raise NotPeriodic(f"{theta} has an even denominator")
    if theta.denominator == 1:
        raise ValueError("the fixed angle 0 has no kneading sequence")
    word = word or _expand(theta, None)[1]
    return KneadingSequence(_kneading_of_word(word) + "*")


def kneading_of_spec(spec: BrokenLineSpec) -> KneadingSequence:
    """Kneading sequence read off the block pattern of the period, with no
    orbit computation.

    A slot is 0 exactly when the next position opens a cyclic run of fewer
    than n limb words followed by a parent word; everything else is 1, and
    the final slot is the star.  Block e is head·unit^e, L (L^(n-1) P)^e in
    limb (L) and parent (P) tags, with Q + e·d slots for c/d the hinge
    bound.  The slots before the n tags of each window L^(n-1) P are its
    0s, so block e spells 1^Q window^e when every tag stands for the slot
    before it.  Spelled over the closed-form block pattern, this gives the
    kneading one slot early, led by the star's.
    """
    ctx = spec.context
    n, q, t = ctx.hinge, ctx.p_over_q.denominator, ctx.parent.denominator
    window = ("0" + "1" * (q - 1)) * (n - 1) + "0" + "1" * (t - 1)
    shifted = _spell(spec, "1" * q, window)
    return KneadingSequence(shifted[1:] + "*")


def lower_kneading_period(theta: Fraction) -> int:
    """Minimal period of the kneading itinerary of angles increasing to theta.

    The star resolves to the side of the partition point that the final
    orbit point 0.(w[-1] w[:-1]) of theta = 0.(w) hits, which is w's last
    digit.  The result equals the full period on both angles of a conjugate
    pair exactly when the pair lands at a primitive component (Bruin and
    Schleicher, Symbolic dynamics of quadratic polynomials, 2002).
    """
    theta %= 1
    body = kneading_of_angle(theta).symbols[:-1]
    # w's last digit is the parity of int(w, 2) = k (2^b - 1) / den, which is
    # k times an odd integer for theta = k / den: the parity of k
    return minimal_period(body + str(theta.numerator % 2))


def invert_kneading(
    kneading: KneadingSequence | str, convention: Convention
) -> tuple[BrokenLineSpec, PeriodicAngle]:
    """Recover the broken-line parameters and period from a kneading sequence.

    Steps: the length gives b; the first run-block gives Q; the count of
    leading Q-blocks gives n; the first block of another length is k*Q + T
    and gives the parent denominator; the minimal Bezout solution gives the
    limb fraction; a block of length L other than Q stands for one parent
    word and (L - T)/Q limb words, and those counts give a.  Only the
    nonempty blocks are listed: the empty ones, closed by a 0 or the star
    right after a 0, are counted from the 0s, and the first of them is found
    from the first "00".  The spec is validated by the round trip of its
    kneading before returning.
    """
    if isinstance(kneading, str):
        try:
            kneading = KneadingSequence(kneading)
        except ValueError as exc:
            raise NotBrokenLineKneading(str(exc)) from exc
    symbols = kneading.symbols
    # a block is a run of 1s closed by a 0, the last one by the star, so a
    # block's index is the count of 0s before it.  Only the nonempty runs
    # are listed, and the distinct block lengths once each, in order of
    # appearance.  The empty blocks, of length 1, are counted: every symbol
    # outside the runs but the star is a 0
    if symbols[0] == "0":
        raise NotBrokenLineKneading("leading block is too short to be a limb word")
    runs = symbols[:-1].replace("0", " ").split()
    zeros = len(symbols) - 1 - len("".join(runs))
    lengths = [len(run) + 1 for run in dict.fromkeys(runs)]
    q = lengths[0]
    # of the 0s + 1 blocks, those that are not runs are empty.  The first
    # empty block is closed by the second 0 of the first "00", or else by
    # the star after a trailing 0.  Every block before it is a run, so its
    # index, the count of 0s before it, counts runs, and the lengths of
    # those runs are the ones that appear before it
    if zeros + 1 > len(runs):
        empty = symbols.count("0", 0, symbols.find("00") + 1 or len(symbols))
        lengths.insert(len(dict.fromkeys(runs[:empty])), 1)
    if len(lengths) == 1:
        raise NotBrokenLineKneading("every block has the limb length")
    # a second length other than 1 appears before any empty block
    n = empty if lengths[1] == 1 else runs.index("1" * (lengths[1] - 1))
    t = lengths[1] % q
    if t == 0 or math.gcd(q, t) != 1:
        raise NotBrokenLineKneading("parent length is incompatible with the limb")
    for length in lengths[1:]:
        if length % q != t:
            raise NotBrokenLineKneading(f"block of length {length} fits no word")

    # the limb p/q whose parent under the convention has denominator t: the
    # upper parent under 01, the lower one under 10
    zero_one = convention is Convention.ZERO_ONE
    p = (-pow(t, -1, q)) % q if zero_one else pow(t, -1, q)
    limb = Fraction(p, q)
    ctx = FareyContext.build(limb, n, convention)
    # the inverse of mechanical._word_counts: the period is `parents` parent
    # words and (b - t*parents)/q limb words, one parent word for each
    # block, empty or not, that is not a limb block
    b = len(symbols)
    parents = zeros + 1 - runs.count(runs[0])
    a = p * ((b - t * parents) // q) + ctx.parent.numerator * parents
    if math.gcd(a, b) != 1:
        raise NotBrokenLineKneading("transcribed word has a reducible 1-count")
    # 0 < p/q < 1 and 0 < a/b < 1 hold by construction
    bound = ctx.bound
    try:
        _check_hinge(p, q, a, b, bound.numerator, bound.denominator, zero_one)
    except HypothesisViolated as exc:
        raise NotBrokenLineKneading(str(exc)) from exc
    spec = BrokenLineSpec(ctx, Fraction(a, b))
    if kneading_of_spec(spec).symbols != symbols:
        raise NotBrokenLineKneading("reconstruction does not round-trip")
    return spec, PeriodicAngle(period=broken_line_word(spec))


def kneading_concatenates(
    lower: BrokenLineSpec, upper: BrokenLineSpec, combined: BrokenLineSpec
) -> bool:
    """Whether the kneading of the mediant slope is the two parts' kneadings
    spliced with a 1 (upper part first under 01, lower part first under 10)."""
    if lower.context != upper.context or lower.context != combined.context:
        raise ValueError("all three parameter sets must share one context")
    med = mediant(lower.slope, upper.slope)
    if not lower.slope < upper.slope or combined.slope != med:
        raise ValueError("combined slope must be the mediant of the other two")
    k_lower = kneading_of_spec(lower).symbols
    k_upper = kneading_of_spec(upper).symbols
    k_combined = kneading_of_spec(combined).symbols
    if combined.convention is Convention.ZERO_ONE:
        expected = k_upper[:-1] + "1" + k_lower[:-1] + "*"
    else:
        expected = k_lower[:-1] + "1" + k_upper[:-1] + "*"
    return k_combined == expected
