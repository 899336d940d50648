"""Kneading sequences of periodic angles: direct, structural, and inverse."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .angles import PeriodicAngle, minimal_period
from .errors import HypothesisViolated, NotBrokenLineKneading, NotPeriodic
from .farey import BrokenLineSpec, validate_spec
from .mechanical import broken_line_tags, broken_line_word, mechanical_word
from .words import Convention

__all__ = [
    "KneadingSequence",
    "invert_kneading",
    "kneading_concatenates",
    "kneading_of_angle",
    "kneading_of_spec",
    "lower_kneading_period",
]


@dataclass(frozen=True)
class KneadingSequence:
    """Itinerary of a periodic angle's doubling orbit; the single star sits in
    the final slot."""

    symbols: str

    def __post_init__(self) -> None:
        body = self.symbols[:-1]
        if (
            len(self.symbols) < 2
            or self.symbols[-1] != "*"
            or set(body) - {"0", "1"}
        ):
            raise ValueError(f"malformed kneading sequence: {self.symbols!r}")

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
    hit is the final orbit point, so the loop below always terminates there.
    """
    theta %= 1
    if theta.denominator % 2 == 0:
        raise NotPeriodic(f"{theta} has an even denominator")
    if theta.denominator == 1:
        raise ValueError("the fixed angle 0 has no kneading sequence")
    # orbit points are integers x over den; x/den sits at theta/2 or
    # (theta + 1)/2 when 2x equals k or k + den
    k, den = theta.numerator, theta.denominator
    symbols: list[str] = []
    x = k
    while True:
        twice = 2 * x
        if twice == k or twice == k + den:
            symbols.append("*")
            break
        symbols.append("1" if k < twice < k + den else "0")
        x = twice % den
    return KneadingSequence("".join(symbols))


def kneading_of_spec(spec: BrokenLineSpec) -> KneadingSequence:
    """Kneading sequence read off the word structure of the period, with no
    orbit computation.

    A slot is 0 exactly when the next position opens a cyclic run of fewer
    than n limb words followed by a parent word; everything else is 1, and
    the final slot is the star.
    """
    ctx = spec.context
    limb, n = ctx.p_over_q, ctx.hinge
    tags = broken_line_tags(spec)
    k = len(tags)
    doubled = tags + tags
    runs = [0] * (2 * k + 1)
    for i in range(2 * k - 1, -1, -1):
        runs[i] = runs[i + 1] + 1 if doubled[i] == limb else 0

    b = spec.period
    symbols = ["1"] * b
    position = 1
    for i, tag in enumerate(tags):
        if position == 1:
            if runs[0] < n:
                raise AssertionError("period does not open with the hinge run")
        elif min(runs[i], k) < n:
            symbols[position - 2] = "0"
        position += tag.denominator
    symbols[b - 1] = "*"
    return KneadingSequence("".join(symbols))


def lower_kneading_period(theta: Fraction) -> int:
    """Minimal period of the kneading itinerary of angles increasing to theta.

    The star resolves to 1 when the final orbit point hits the upper
    partition point and to 0 when it hits the lower one.  The result equals
    the full period on both angles of a conjugate pair exactly when the pair
    lands at a primitive component.
    """
    theta %= 1
    ks = kneading_of_angle(theta)
    k, den = theta.numerator, theta.denominator
    last = pow(2, ks.period - 1, den) * k % den
    fill = "1" if 2 * last == k + den else "0"
    return minimal_period(ks.symbols[:-1] + fill)


def _blocks_of(symbols: str) -> list[int]:
    lengths = []
    current = 0
    for ch in symbols:
        current += 1
        if ch in "0*":
            lengths.append(current)
            current = 0
    return lengths


def invert_kneading(
    kneading: KneadingSequence | str, convention: Convention
) -> tuple[BrokenLineSpec, PeriodicAngle]:
    """Recover the broken-line parameters and period from a kneading sequence.

    Steps: the length gives b; the first run-block gives Q; the count of
    leading Q-blocks gives n; the first block of another length is k*Q + T
    and gives the parent denominator; the minimal Bezout solution gives the
    limb fraction; blocks then transcribe into limb and parent words, and the
    1-count of the transcription gives a.  The reconstruction is validated by
    a full round trip before returning.
    """
    if isinstance(kneading, str):
        try:
            kneading = KneadingSequence(kneading)
        except ValueError as exc:
            raise NotBrokenLineKneading(str(exc)) from exc
    symbols = kneading.symbols
    lengths = _blocks_of(symbols)
    q = lengths[0]
    if q < 2:
        raise NotBrokenLineKneading("leading block is too short to be a limb word")
    n = 0
    while n < len(lengths) and lengths[n] == q:
        n += 1
    if n == len(lengths):
        raise NotBrokenLineKneading("every block has the limb length")
    t = lengths[n] % q
    if t == 0 or math.gcd(q, t) != 1:
        raise NotBrokenLineKneading("parent length is incompatible with the limb")
    for length in lengths:
        if length != q and length % q != t:
            raise NotBrokenLineKneading(f"block of length {length} fits no word")

    if convention is Convention.ZERO_ONE:
        p = (-pow(t, -1, q)) % q
        parent = Fraction(1 + t * p, q * t)  # s/t with s = (1 + t*p)/q
    else:
        p = pow(t, -1, q)
        parent = Fraction(p * t - 1, q * t)  # a/b with a = (p*t - 1)/q
    limb = Fraction(p, q)

    limb_word = mechanical_word(limb, convention)
    parent_word = mechanical_word(parent, convention)
    pieces = []
    for length in lengths:
        if length == q:
            pieces.append(limb_word)
        else:
            pieces.append(parent_word + limb_word * ((length - t) // q))
    word = "".join(pieces)
    a, b = word.count("1"), len(word)
    if math.gcd(a, b) != 1:
        raise NotBrokenLineKneading("transcribed word has a reducible 1-count")
    try:
        spec = validate_spec(limb, Fraction(a, b), n, convention)
    except HypothesisViolated as exc:
        raise NotBrokenLineKneading(str(exc)) from exc
    if broken_line_word(spec) != word or kneading_of_spec(spec).symbols != symbols:
        raise NotBrokenLineKneading("reconstruction does not round-trip")
    return spec, PeriodicAngle(period=word)


def kneading_concatenates(
    lower: BrokenLineSpec, upper: BrokenLineSpec, combined: BrokenLineSpec
) -> bool:
    """Whether the kneading of the mediant slope is the two parts' kneadings
    spliced with a 1 (upper part first under 01, lower part first under 10)."""
    if lower.context != upper.context or lower.context != combined.context:
        raise ValueError("all three parameter sets must share one context")
    med = Fraction(
        lower.slope.numerator + upper.slope.numerator,
        lower.slope.denominator + upper.slope.denominator,
    )
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
