"""Cutting sequences, mechanical words, broken-line periods, block structure.

Mechanical words and the tags of their factorization come from one
construction, the standard-word recursion over the continued fraction of the
slope: a few string operations per partial quotient, none per letter.  The
geometric pipeline (grid crossings, then contraction) computes the same words
independently; the test suite holds both against the digit rule of the
Christoffel word and against mediant concatenation over the Stern-Brocot tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .angles import PeriodicAngle, word_to_fraction
from .errors import InvariantViolated, MalformedCuttingSequence
from .farey import BrokenLineSpec, FareyContext
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
    # inner digits 1..q-2 of the p/q Christoffel word, which the standard word
    # of p/q = [0; a1, ..., an] spells before its two closing letters; the
    # standard words are s_k = s_(k-1)^(a_k) s_(k-2) from s_(-1) = 1, s_0 = 0,
    # with a1 - 1 in place of a1 (Lothaire, Algebraic Combinatorics on Words,
    # ch. 2)
    prev, word = "1", "0"
    q -= p
    while p:
        a, r = divmod(q, p)
        prev, word = word, word * a + prev
        q, p = p, r
    return word[:-2]


def mechanical_word(p_over_q: Fraction, convention: Convention) -> str:
    """The length-q word whose repetition is the angle of the line of slope
    p/q under the given convention.

    The first q - 2 digits are the standard word of p/q without its last two
    letters, and the convention supplies those two.  The boundary slopes 1
    ("01") and 0 ("10") carry the one-letter words "1" and "0".
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
    inner q - 2 digits of the j/(i + j) word, q = i + j, with 0 read as lo
    and 1 as hi.
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


def _parent(context: FareyContext) -> Fraction:
    # the Farey parent whose word the bound's word opens with
    if context.convention is Convention.ZERO_ONE:
        return context.upper_parent
    return context.lower_parent


def _word_counts(spec: BrokenLineSpec) -> tuple[int, int]:
    # the slope's word is `limbs` limb words and `bounds` bound words: the
    # slope is their mediant-weighted sum, (limbs*P + bounds*c)/(limbs*Q +
    # bounds*d) with c/d the bound, in either convention
    ctx = spec.context
    a, b = spec.slope.numerator, spec.slope.denominator
    p, q = ctx.p_over_q.numerator, ctx.p_over_q.denominator
    c, d = ctx.bound.numerator, ctx.bound.denominator
    return abs(b * c - a * d), abs(a * q - b * p)


def _tag_labels(spec: BrokenLineSpec) -> str:
    # broken_line_tags spelled with L for the limb and P for the parent.  The
    # slope's mediant_tags over the limb and the bound open with the bound,
    # close with the limb, and read digit 1 as the upper of the two: the
    # bound under 01, the limb under 10.  Each bound tag is spelled P L^(n-1),
    # and the trailing hinge run moves to the front.
    n = spec.context.hinge
    limbs, bounds = _word_counts(spec)
    bound = "P" + "L" * (n - 1)
    if spec.convention is Convention.ZERO_ONE:
        upper, lower, ones = bound, "L", bounds
    else:
        upper, lower, ones = "L", bound, limbs
    middle = _digits(ones, limbs + bounds).replace("1", upper).replace("0", lower)
    labels = bound + middle + "L"
    if not labels.endswith("L" * n):
        raise InvariantViolated(
            "broken_line_tags", "slope word does not end in the hinge prefix", spec
        )
    return "L" * n + labels[:-n]


def broken_line_tags(spec: BrokenLineSpec) -> list[Fraction]:
    """Wordwise labels of the broken-line period: n copies of P/Q followed by
    the slope word's labels with their trailing P/Q run shortened by n.

    Labels take values in {P/Q, parent}, where the parent is the upper Farey
    parent under 01 and the lower one under 10.
    """
    value = {"L": spec.context.p_over_q, "P": _parent(spec.context)}
    return list(map(value.__getitem__, _tag_labels(spec)))


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
    wx = mechanical_word(_parent(context), context.convention)
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
        return "".join(map(self.block_words.__getitem__, self.exponents))


def _block_labels(n: int, m: int) -> str:
    # block_word(context, m) spelled in limb (L) and parent (P) tags
    if m == 0:
        return "L"
    return "L" * n + ("P" + "L" * (n - 1)) * (m - 1) + "P"


def block_decomposition(spec: BrokenLineSpec) -> BlockDecomposition:
    """Factor the period word into blocks of two adjacent indices.

    Block m holds one limb word and m bound words, so with the slope's word
    made of ``limbs`` limb words and ``bounds`` bound words there are
    ``limbs`` blocks, of index bounds // limbs and one more; when limbs
    divides bounds the slope is a single-block fraction and its one block has
    index bounds / limbs.  The blocks are read off the broken-line tags, the
    longer block first: block 0 is one limb tag and block e >= 1 is
    L^n (P L^(n-1))^(e-1) P, with L the limb tag and P the parent tag.
    Re-concatenation of the result is checked to reproduce the period word.
    """
    ctx = spec.context
    word = broken_line_word(spec)
    limbs, bounds = _word_counts(spec)
    m, rest = divmod(bounds, limbs)
    if not rest:
        piece = block_word(ctx, m)
        if word != piece:
            raise InvariantViolated(
                "block_decomposition", "single-block word mismatch", spec
            )
        return BlockDecomposition(spec, m, (m,), {m: piece})
    n = ctx.hinge
    # block m is a prefix of block m + 1, which is therefore replaced first;
    # every block m + 1 opens with L^n P, which marks block starts only, so
    # this reads the same blocks as a greedy parse, longer block first
    parsed = (
        _tag_labels(spec)
        .replace(_block_labels(n, m + 1), "1")
        .replace(_block_labels(n, m), "0")
    )
    if "L" in parsed or "P" in parsed:
        raise InvariantViolated(
            "block_decomposition", "period word does not factor into blocks", spec
        )
    if len(parsed) < 2 or parsed[0] != "1" or parsed[-1] != "0":
        raise InvariantViolated(
            "block_decomposition", "block exponents violate the boundary pattern", spec
        )
    exponents = tuple(map({"0": m, "1": m + 1}.__getitem__, parsed))
    block_words = {m: block_word(ctx, m), m + 1: block_word(ctx, m + 1)}
    decomposition = BlockDecomposition(spec, m, exponents, block_words)
    if decomposition.word != word:
        raise InvariantViolated(
            "block_decomposition", "block re-concatenation mismatch", spec
        )
    return decomposition
