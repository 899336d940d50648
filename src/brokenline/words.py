"""Operations on finite binary words: mechanical words (by the standard-word
recursion over the slope's continued fraction), primed words, rotations,
balance, the rotation number of a word's doubling orbit, and the first
difference of two periodic streams.  The order of a text's
factors against a word, which the word oracles read, is in the oracles
module."""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .angles import minimal_period
from .errors import NoDifference, NonMinimalPeriod

__all__ = [
    "Convention",
    "first_difference",
    "is_sturmian",
    "mechanical_word",
    "prime_minus",
    "prime_plus",
    "rotate_left",
    "rotation_diagnostics",
]


class Convention(Enum):
    """Which two-symbol block stands in for the lattice-point marker."""

    ZERO_ONE = "01"
    ONE_ZERO = "10"

    def __str__(self) -> str:
        return self.value


def _digits(p: int, q: int, zero: str = "0", one: str = "1") -> str:
    # inner digits 1..q-2 of the p/q Christoffel word, `zero` for 0 and `one`
    # for 1: the standard word of p/q = [0; a1, ..., an] less its closing 0
    # and 1, in either order, s_k = s_(k-1)^(a_k) s_(k-2) from s_(-1) = one,
    # s_0 = zero, a1 - 1 in place of a1 (Lothaire, Algebraic Combinatorics on
    # Words, ch. 2)
    prev, word = one, zero
    q -= p
    while p:
        a, r = divmod(q, p)
        prev, word = word, word * a + prev
        q, p = p, r
    return word[: -(len(zero) + len(one))]


def mechanical_word(p_over_q: Fraction, convention: Convention) -> str:
    """The length-q word whose repetition is the angle of the line of slope
    p/q under the given convention.

    The first q - 2 digits are the standard word of p/q without its last two
    letters, and the convention supplies those two.  The boundary slopes 1
    ("01") and 0 ("10") carry the one-letter words "1" and "0".
    """
    p, q = p_over_q.numerator, p_over_q.denominator
    if 0 < p < q:
        return _digits(p, q) + convention.value
    if convention is Convention.ZERO_ONE and p == q:
        return "1"
    if convention is Convention.ONE_ZERO and p == 0:
        return "0"
    raise ValueError(f"no {convention} word for {p_over_q}")


def prime_plus(word: str) -> str:
    """Add one in fixed-width binary; the carry out of the top bit is dropped,
    so the all-ones word wraps to all zeros."""
    width = len(word)
    return format((int(word, 2) + 1) % (1 << width), f"0{width}b")


def prime_minus(word: str) -> str:
    """Subtract one in fixed-width binary, wrapping all zeros to all ones."""
    width = len(word)
    return format((int(word, 2) - 1) % (1 << width), f"0{width}b")


def rotate_left(word: str, k: int) -> str:
    if not word:
        return word  # the only rotation of the empty word
    k %= len(word)
    return word[k:] + word[:k]


# the marker of a long run, spelled as the derived word's 1
_LONG = str.maketrans("2", "1")


def is_sturmian(word: str) -> bool:
    """Balance test on the biinfinite repetition of the word: the 1-counts of
    equal-length cyclic factors never differ by more than one.

    By desubstitution (Lothaire, Algebraic Combinatorics on Words, ch. 2): a
    balanced word that is not constant has a letter y that never repeats
    cyclically, and y cuts it into runs of the other letter x of lengths a
    and a + 1 only; the word is then balanced iff its derived word, 1 per
    long run and 0 per short one in cyclic order, is.  A word in which both
    letters repeat fails at once: its 00 and 11 differ by two 1s.  Each level
    takes a few C-level string passes and leaves at most half the letters,
    so the test is linear in the word's length.  It reads only the word and
    builds no mechanical word, so it stays apart from the word builders it
    checks; the test suite holds it against the Christoffel word of the
    word's density."""
    while True:
        cyclic = word + word[:1]
        if "11" not in cyclic:
            y, x = "1", "0"
        elif "00" not in cyclic:
            y, x = "0", "1"
        else:
            return False
        c = word.count(y)
        if not c:
            return True  # constant, or empty
        a = (len(word) - c) // c
        # rotated to start at a y, the word holds every x-run whole, after
        # its y: a count of y x^a reaching c puts every run at a or more.
        # Each run then holds a + e x's, the e summing to len - c - a c, and
        # the long-run marker shortens the word by a + 1 per run with e > 0:
        # by (a + 1) times that sum exactly when no run is past a + 1
        i = word.index(y)
        word = word[i:] + word[:i]
        short = y + x * a
        if word.count(short) < c:
            return False
        derived = word.replace(short + x, "2")
        if len(word) - len(derived) != (a + 1) * (len(word) - c - a * c):
            return False
        word = derived.replace(short, "0").translate(_LONG)


def rotation_diagnostics(word: str) -> tuple[Fraction, bool]:
    """Rotation number of the doubling orbit of 0.(word)^inf, and whether
    doubling acts on that orbit as a rotation of its circular order."""
    n = len(word)
    if minimal_period(word) != n:
        raise NonMinimalPeriod(word)
    rotation = Fraction(word.count("1"), n)
    full = (1 << n) - 1  # orbit points are integers over 2^n - 1
    points = sorted(int(rotate_left(word, i), 2) % full for i in range(n))
    index = {p: i for i, p in enumerate(points)}
    steps = {(index[2 * p % full] - i) % n for i, p in enumerate(points)}
    return rotation, len(steps) == 1


def first_difference(lower_word: str, upper_word: str) -> int:
    """First position where the periodic streams of the two words disagree.

    For mechanical words of Farey neighbors the disagreement arrives by
    position len(lower_word) under the 01 convention and len(upper_word)
    under 10, with the lower stream reading 0 there and the upper stream 1.
    An empty word has no stream: ValueError.
    """
    if not lower_word or not upper_word:
        raise ValueError("the empty word has no periodic stream")
    b, d = len(lower_word), len(upper_word)
    for r in range(1, max(b, d) + 1):
        x = lower_word[(r - 1) % b]
        y = upper_word[(r - 1) % d]
        if x != y:
            if x == "1":
                raise ValueError("streams are ordered the wrong way around")
            return r
    raise NoDifference(
        f"{lower_word!r} and {upper_word!r} agree through position {max(b, d)}"
    )
