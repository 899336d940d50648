"""Cutting sequences, broken-line periods, block structure.

Mechanical words are built in ``words``, re-exported here, and kept by the
objects they belong to: the limb and parent words by the ``FareyContext``, the
period word by the ``BrokenLineSpec``.  Block e is head·unit^e, one limb word
followed by e copies of (limb^(n-1) parent), so with c/d the hinge bound it
has Q + e·d digits and P + e·c ones.  The period's blocks follow one
closed-form block pattern: with the slope's word made of `limbs` limb words
and `bounds` bound words, and m, r = divmod(bounds, limbs), the blocks of
index m and m + 1 read as 0 and 1 form the upper Christoffel word of r/limbs.
The tags, the structural kneading, the re-concatenated decomposition and
the conjugate spell that pattern with one two-word substitution, each block
written as head·unit^e in its tags or its kneading slots, as its bits, or
as its primed bits.  The geometric pipeline (grid crossings, then
contraction) computes the same words independently: one division step of
the slope tells which gaps between horizontal crossings hold one vertical
more, the gaps of one vertical fewer are placed by floors with nothing
sorted, the gaps are spelled by one ``join``, and the word is contracted
with ``str.replace``.  The test suite holds both pipelines against the
digit rule of the Christoffel word and against mediant concatenation over
the Stern-Brocot tree, and the block pattern against a greedy parse of the
descent tags.
"""

from __future__ import annotations

from fractions import Fraction

from .angles import PeriodicAngle, _is_binary, _Value, word_to_fraction
from .errors import InvariantViolated, MalformedCuttingSequence
from .farey import BrokenLineSpec, FareyContext
from .words import Convention, _digits, mechanical_word

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

    Crossings of vertical grid lines contribute 0, horizontal ones 1, in
    their order along the line; the lattice point (q, p) contributes the
    convention's two-symbol marker.  Length is p + q.  Horizontal line j,
    0 < j < p, is crossed after the floor(jq/p) verticals left of it (jq/p is
    never whole, as gcd(p, q) = 1).  One division step, q = a·p + r, gives
    floor(jq/p) = ja + floor(jr/p), so a or a + 1 verticals part two
    consecutive horizontals, and a verticals follow the last horizontal (p = 1
    crosses none and has q - 1 verticals).  Of the p - 1 gaps before a
    horizontal, the p - r short ones, of a verticals, come before line
    j = floor(mp/(p - r)) + 1 for m = 0..p - r - 1: the gaps are listed as
    long, the short ones are placed by floor, and one ``join`` spells them.
    """
    if not 0 < p_over_q < 1:
        raise ValueError("slope must lie strictly between 0 and 1")
    p, q = p_over_q.numerator, p_over_q.denominator
    if p == 1:
        return "0" * (q - 1) + convention.value
    a, r = divmod(q, p)
    # gaps[j - 1] is the gap before horizontal j and its 1: 0^(a+1) 1 when
    # long, 0^a 1 when short; x = mp, so x // k = floor(mp/(p - r)).  The
    # a verticals after the last horizontal and the marker close the list
    gaps = ["0" * (a + 1) + "1"] * p
    short, k = "0" * a + "1", p - r
    for x in range(0, k * p, p):
        gaps[x // k] = short
    gaps[-1] = "0" * a + convention.value
    return "".join(gaps)


def cutting_to_mechanical(kappa: str) -> str:
    """Contract a cutting word by deleting the 0 immediately before each 1
    (the rewriting 01 -> 1).  Output length equals the number of 0s."""
    # a word over {0, 1} in which every 1 follows a 0 of its own: no leading
    # 1 and no 11, so the rewriting never overlaps itself
    if not _is_binary(kappa) or kappa.startswith("1") or "11" in kappa:
        raise MalformedCuttingSequence(kappa)
    return kappa.replace("01", "1")


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
    first, last = ("1", "0") if convention is Convention.ZERO_ONE else ("0", "1")
    labels = first + _digits(j, i + j) + last
    return list(map({"0": lo, "1": hi}.__getitem__, labels))


def _word_counts(spec: BrokenLineSpec) -> tuple[int, int]:
    # the slope's word is `limbs` limb words and `bounds` bound words: the
    # slope is their mediant-weighted sum, (limbs*P + bounds*c)/(limbs*Q +
    # bounds*d) with c/d the bound, in either convention
    ctx = spec.context
    a, b = spec.slope.numerator, spec.slope.denominator
    p, q = ctx.p_over_q.numerator, ctx.p_over_q.denominator
    c, d = ctx.bound.numerator, ctx.bound.denominator
    return abs(b * c - a * d), abs(a * q - b * p)


def _block_pattern(spec: BrokenLineSpec) -> tuple[int, str]:
    # (m, pattern): the period is `limbs` blocks of index m and m + 1, and
    # pattern spells their order with 0 for block m and 1 for block m + 1.
    # Block e holds one limb word and e bound words, so m, rest = divmod(
    # bounds, limbs) and `rest` blocks have index m + 1.  Read over {0, 1}
    # the blocks are the upper Christoffel word 1 w 0 of rest/limbs, w its
    # central word (the derived word of a Christoffel word is Christoffel;
    # Lothaire, ch. 2), and the one block m when limbs = 1
    limbs, bounds = _word_counts(spec)
    m, rest = divmod(bounds, limbs)
    if limbs == 1:
        return m, "0"
    return m, "1" + _digits(rest, limbs) + "0"


def _substitute(word: str, zero: str, one: str) -> str:
    # the word with every 0 written as `zero` and every 1 as `one`; the 1s
    # are set aside first, as `zero` may contain 1s
    return word.replace("1", "+").replace("0", zero).replace("+", one)


def _spell(spec: BrokenLineSpec, head: str, unit: str) -> str:
    # the block pattern with block e written as head + unit * e
    m, pattern = _block_pattern(spec)
    low = head + unit * m
    return _substitute(pattern, low, low + unit)


def broken_line_tags(spec: BrokenLineSpec) -> list[Fraction]:
    """Wordwise labels of the broken-line period: n copies of P/Q followed by
    the slope word's labels with their trailing P/Q run shortened by n.

    Labels take values in {P/Q, parent}, where the parent is the upper Farey
    parent under 01 and the lower one under 10.
    """
    ctx = spec.context
    value = {"L": ctx.p_over_q, "P": ctx.parent}
    labels = _spell(spec, "L", "L" * (ctx.hinge - 1) + "P")
    return list(map(value.__getitem__, labels))


def broken_line_word(spec: BrokenLineSpec) -> str:
    """Period word (length b) of the broken-line angle: the slope word with
    its trailing hinge prefix rotated to the front.  The spec builds it on
    the first call and returns the same string after."""
    return spec._word


def broken_line_angle(spec: BrokenLineSpec) -> PeriodicAngle:
    """The broken-line angle as a canonical purely periodic expansion."""
    return PeriodicAngle(period=broken_line_word(spec))


def block_word(context: FareyContext, m: int) -> str:
    """Bit string of block m of the context: the limb word followed by m
    copies of (limb word^(hinge-1) parent word).  With P/Q the limb and c/d
    the hinge bound it has Q + m·d digits and P + m·c ones."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    wp, wx, n = context.limb_word, context.parent_word, context.hinge
    return wp + (wp * (n - 1) + wx) * m


class BlockDecomposition(_Value):
    """Factorization of a broken-line period word into consecutive blocks.

    ``block_words`` holds the words of the block indices that occur, and
    ``pattern`` spells the block order, 0 for block base_m and 1 for block
    base_m + 1.  ``exponents`` lists the block index at each slot; every
    entry is base_m or base_m + 1.  A single block occurs exactly when the
    slope is one of the single-block fractions (then the pattern is "0" and
    base_m is that block's own index).
    """

    __match_args__ = ("spec", "base_m", "block_words", "pattern")

    def __init__(
        self,
        spec: BrokenLineSpec,
        base_m: int,
        block_words: dict[int, str],
        pattern: str,
    ) -> None:
        if not isinstance(pattern, str):
            raise TypeError("BlockDecomposition takes its block pattern, a str")
        self.__dict__.update(
            spec=spec, base_m=base_m, block_words=block_words, pattern=pattern
        )

    @property
    def units(self) -> tuple[str, str]:
        """The words of block base_m and block base_m + 1, which spell the
        pattern's 0 and 1; a single block has no block base_m + 1, and its
        pattern no 1, so that unit is empty."""
        m, words = self.base_m, self.block_words
        return words[m], words.get(m + 1, "")

    @property
    def exponents(self) -> tuple[int, ...]:
        m = self.base_m
        return tuple(map({"0": m, "1": m + 1}.__getitem__, self.pattern))

    @property
    def word(self) -> str:
        return _substitute(self.pattern, *self.units)


def _blocks(spec: BrokenLineSpec) -> tuple[int, str, str, str]:
    # (m, pattern, low, high): the block index m, the block pattern, and the
    # words of blocks m and m + 1, which spell its 0s and 1s; a single block
    # has no block m + 1, and its pattern no 1, so that word is empty.  The
    # pattern spelled with the two words is checked to be the period word
    ctx = spec.context
    m, pattern = _block_pattern(spec)
    low = block_word(ctx, m)
    high = "" if pattern == "0" else block_word(ctx, m + 1)
    if _substitute(pattern, low, high) != broken_line_word(spec):
        raise InvariantViolated(
            "block_decomposition", "block re-concatenation mismatch", spec
        )
    return m, pattern, low, high


def block_decomposition(spec: BrokenLineSpec) -> BlockDecomposition:
    """Factor the period word into blocks of two adjacent indices.

    Block m holds one limb word and m bound words, so with the slope's word
    made of ``limbs`` limb words and ``bounds`` bound words there are
    ``limbs`` blocks, of index m = bounds // limbs and m + 1.  Their order is
    a closed-form block pattern: reading 0 for block m and 1 for block m + 1,
    the blocks spell the upper Christoffel word 1 w 0 of (bounds mod
    limbs)/limbs, w its central word, or the one block m when limbs = 1,
    which is when the slope is a single-block fraction.  The tags and the
    structural kneading spell the same pattern, and the conjugate primes
    these blocks.  Re-concatenation of the result, one substitution of the
    two block words into the pattern, is checked to reproduce the period
    word, which the spec builds as the rotated slope word.
    """
    m, pattern, low, high = _blocks(spec)
    block_words = {m: low} if pattern == "0" else {m: low, m + 1: high}
    return BlockDecomposition(spec, m, block_words, pattern)
