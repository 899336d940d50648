"""Operations on finite binary words: primed words, balance, cyclic order."""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .angles import minimal_period
from .errors import NoDifference, NonMinimalPeriod

__all__ = [
    "Convention",
    "first_difference",
    "is_sturmian",
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
    k %= len(word)
    return word[k:] + word[:k]


def is_sturmian(word: str) -> bool:
    """Balance test on the biinfinite repetition of the word: the 1-counts of
    equal-length cyclic factors never differ by more than one."""
    n = len(word)
    doubled = word + word
    prefix = [0]
    for ch in doubled:
        prefix.append(prefix[-1] + (ch == "1"))
    for length in range(2, n + 1):
        counts = [prefix[i + length] - prefix[i] for i in range(n)]
        if max(counts) - min(counts) > 1:
            return False
    return True


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
    """
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
