"""Cutting sequences, mechanical words, broken-line periods, block structure.

Mechanical words and the tags of their factorization come from one closed
form, the digit rule of the Christoffel word.  The geometric pipeline (grid
crossings, then contraction) computes the same words independently; the test
suite holds both against mediant concatenation over the Stern-Brocot tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .angles import PeriodicAngle, word_to_fraction
from .errors import InvariantViolated, MalformedCuttingSequence
from .farey import BrokenLineSpec, FareyContext, single_block_slope
from .words import Convention

__all__ = [
    "BlockDecomposition",
    "block_decomposition",
    "block_word",
    "broken_line_angle",
    "broken_line_tags",
    "broken_line_word",
    "characteristic_pair",
    "cutting_sequence",
    "cutting_to_mechanical",
    "mechanical_word",
    "mediant_tags",
]

def cutting_sequence(p_over_q: Fraction, convention: Convention) -> str:
    """Grid-crossing word of the line y = (p/q)x over one period.

    Crossings of vertical grid lines contribute 0, horizontal ones 1, ordered
    along the line by exact rational comparison; the lattice point (q, p)
    contributes the convention's two-symbol marker.  Length is p + q.
    """
    if not 0 < p_over_q < 1:
        raise ValueError("slope must lie strictly between 0 and 1")
    p, q = p_over_q.numerator, p_over_q.denominator
    # scale every crossing abscissa by p: vertical i sits at i*p, horizontal
    # j at j*q; coincidences are impossible since gcd(p, q) == 1
    events = sorted(
        [(i * p, "0") for i in range(1, q)] + [(j * q, "1") for j in range(1, p)]
    )
    return "".join(symbol for _, symbol in events) + convention.value


def cutting_to_mechanical(kappa: str) -> str:
    """Contract a cutting word by deleting the 0 immediately before each 1
    (the rewriting 01 -> 1).  Output length equals the number of 0s."""
    out: list[str] = []
    for ch in kappa:
        if ch == "0":
            out.append("0")
        elif ch == "1":
            if not out or out[-1] != "0":
                raise MalformedCuttingSequence(kappa)
            out[-1] = "1"
        else:
            raise MalformedCuttingSequence(kappa)
    return "".join(out)


def _digits(p: int, q: int) -> str:
    # inner digits 1..q-2 of the p/q Christoffel word: digit j is 1 exactly
    # when the fractional part of j*p/q lies in [1 - p/q, 1)
    return "".join(["1" if j * p % q >= q - p else "0" for j in range(1, q - 1)])


def mechanical_word(p_over_q: Fraction, convention: Convention) -> str:
    """The length-q word whose repetition is the angle of the line of slope
    p/q under the given convention.

    The first q - 2 digits follow the digit rule of the Christoffel word and
    the convention supplies the last two.  The boundary slopes 1 ("01") and
    0 ("10") carry the one-letter words "1" and "0".
    """
    if convention is Convention.ZERO_ONE and p_over_q == 1:
        return "1"
    if convention is Convention.ONE_ZERO and p_over_q == 0:
        return "0"
    if not 0 < p_over_q < 1:
        raise ValueError(f"no {convention} word for {p_over_q}")
    return _digits(p_over_q.numerator, p_over_q.denominator) + convention.value


def characteristic_pair(p_over_q: Fraction) -> tuple[Fraction, Fraction]:
    """Both mechanical angles of the slope, the smaller ("01") first."""
    return (
        word_to_fraction(mechanical_word(p_over_q, Convention.ZERO_ONE)),
        word_to_fraction(mechanical_word(p_over_q, Convention.ONE_ZERO)),
    )


def mediant_tags(
    x: Fraction, lo: Fraction, hi: Fraction, convention: Convention
) -> list[Fraction]:
    """Labels of the factorization of x's word into lo-words and hi-words.

    Requires lo < x < hi with lo, hi Farey neighbors.  Under 01 a mediant's
    word is (hi word)(lo word), under 10 it is (lo word)(hi word).  In the
    basis (lo, hi) x has j hi-words and i lo-words, and their order is the
    digit rule of j/(i + j) with 0 read as lo and 1 as hi.
    """
    if not lo < x < hi:
        raise ValueError("x must lie strictly between lo and hi")
    if hi.numerator * lo.denominator - lo.numerator * hi.denominator != 1:
        raise ValueError("lo and hi must be Farey neighbors")
    j = x.numerator * lo.denominator - x.denominator * lo.numerator
    i = x.denominator * hi.numerator - x.numerator * hi.denominator
    middle = [hi if d == "1" else lo for d in _digits(j, i + j)]
    if convention is Convention.ZERO_ONE:
        return [hi] + middle + [lo]
    return [lo] + middle + [hi]


def broken_line_tags(spec: BrokenLineSpec) -> list[Fraction]:
    """Wordwise labels of the broken-line period: n copies of P/Q followed by
    the slope word's labels with their trailing P/Q run shortened by n.

    Labels take values in {P/Q, parent}, where the parent is the upper Farey
    parent under 01 and the lower one under 10.
    """
    ctx = spec.context
    limb, n = ctx.p_over_q, ctx.hinge
    if ctx.convention is Convention.ZERO_ONE:
        raw = mediant_tags(spec.slope, limb, ctx.bound, ctx.convention)
        parent = ctx.upper_parent
    else:
        raw = mediant_tags(spec.slope, ctx.bound, limb, ctx.convention)
        parent = ctx.lower_parent
    tags: list[Fraction] = []
    for tag in raw:
        if tag == limb:
            tags.append(limb)
        else:
            # the bound's own word is (parent word)(P/Q word)^(n-1)
            tags.append(parent)
            tags.extend([limb] * (n - 1))
    if tags[-n:] != [limb] * n:
        raise InvariantViolated(
            "broken_line_tags", "slope word does not end in the hinge prefix", spec
        )
    return [limb] * n + tags[:-n]


def broken_line_word(spec: BrokenLineSpec) -> str:
    """Period word (length b) of the broken-line angle: the slope word with
    its trailing hinge prefix rotated to the front."""
    ctx = spec.context
    head = mechanical_word(ctx.p_over_q, ctx.convention) * ctx.hinge
    slope_word = mechanical_word(spec.slope, ctx.convention)
    if not slope_word.endswith(head):
        raise InvariantViolated(
            "broken_line_word", "slope word does not end in the hinge prefix", spec
        )
    return head + slope_word[: len(slope_word) - len(head)]


def broken_line_angle(spec: BrokenLineSpec) -> PeriodicAngle:
    """The broken-line angle as a canonical purely periodic expansion."""
    return PeriodicAngle(period=broken_line_word(spec))


def block_word(context: FareyContext, m: int) -> str:
    """Bit string of the m-th block of the context; m = 0 is the bare limb
    word, m >= 1 interleaves m parent words into hinge-sized limb runs."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    wp = mechanical_word(context.p_over_q, context.convention)
    if m == 0:
        return wp
    parent = (
        context.upper_parent
        if context.convention is Convention.ZERO_ONE
        else context.lower_parent
    )
    wx = mechanical_word(parent, context.convention)
    n = context.hinge
    return wp * n + (wx + wp * (n - 1)) * (m - 1) + wx


@dataclass(frozen=True)
class BlockDecomposition:
    """Factorization of a broken-line period word into consecutive blocks.

    ``exponents`` lists the block index at each slot; every entry is base_m
    or base_m + 1.  A single block occurs exactly when the slope is one of
    the single-block fractions (then base_m is that block's own index).
    """

    spec: BrokenLineSpec
    base_m: int
    exponents: tuple[int, ...]
    block_words: dict[int, str]

    @property
    def word(self) -> str:
        return "".join(self.block_words[e] for e in self.exponents)


def _block_labels(n: int, m: int) -> str:
    # block_word(context, m) spelled in limb (L) and parent (P) tags
    if m == 0:
        return "L"
    return "L" * n + ("P" + "L" * (n - 1)) * (m - 1) + "P"


def block_decomposition(spec: BrokenLineSpec) -> BlockDecomposition:
    """Factor the period word into blocks of two adjacent indices.

    The slope's position between consecutive single-block fractions pins the
    base index.  The blocks are read greedily off the broken-line tags, the
    longer block first: block 0 is one limb tag and block e >= 1 is
    L^n (P L^(n-1))^(e-1) P, with L the limb tag and P the parent tag.
    Re-concatenation of the result is checked to reproduce the period word.
    """
    ctx = spec.context
    word = broken_line_word(spec)
    zero_one = ctx.convention is Convention.ZERO_ONE
    m = 0
    while True:
        candidate = single_block_slope(ctx, m + 1)
        if spec.slope == candidate:
            piece = block_word(ctx, m + 1)
            if word != piece:
                raise InvariantViolated(
                    "block_decomposition", "single-block word mismatch", spec
                )
            return BlockDecomposition(spec, m + 1, (m + 1,), {m + 1: piece})
        if (spec.slope < candidate) if zero_one else (spec.slope > candidate):
            break
        m += 1
    q, n = ctx.p_over_q.denominator, ctx.hinge
    # both Farey parents of P/Q have denominators below Q
    tags = broken_line_tags(spec)
    labels = "".join("L" if tag.denominator == q else "P" for tag in tags)
    pieces = ((_block_labels(n, m + 1), m + 1), (_block_labels(n, m), m))
    exponents: list[int] = []
    pos = 0
    while pos < len(labels):
        for piece, exponent in pieces:
            if labels.startswith(piece, pos):
                exponents.append(exponent)
                pos += len(piece)
                break
        else:
            raise InvariantViolated(
                "block_decomposition", "period word does not factor into blocks", spec
            )
    if len(exponents) < 2 or exponents[0] != m + 1 or exponents[-1] != m:
        raise InvariantViolated(
            "block_decomposition", "block exponents violate the boundary pattern", spec
        )
    block_words = {m: block_word(ctx, m), m + 1: block_word(ctx, m + 1)}
    decomposition = BlockDecomposition(spec, m, tuple(exponents), block_words)
    if decomposition.word != word:
        raise InvariantViolated(
            "block_decomposition", "block re-concatenation mismatch", spec
        )
    return decomposition
