"""Exact angles in R/Z: rationals, binary words, eventually periodic expansions.

Angles are identified modulo 1 and normalized into [0, 1).  Rational values
are ``fractions.Fraction`` throughout; binary words are plain strings over
"0" and "1".
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction

from .errors import BudgetExceeded

__all__ = [
    "ClassOrder",
    "PeriodicAngle",
    "compare_prefix_classes",
    "double_angle",
    "fraction_to_expansion",
    "minimal_period",
    "multiplicative_order",
    "word_to_fraction",
]

_EXPANSION_RE = re.compile(r"0\.(?:\[([01]+)\])?\(([01]+)\)")


def _is_binary(text: str) -> bool:
    # over "0" and "1" alone: deleting both leaves nothing, in one C-level
    # pass; any other character, a lone surrogate too, encodes to "?"
    return not text.encode("ascii", "replace").translate(None, b"01")


def _check_word(word: str) -> None:
    if not word or not _is_binary(word):
        raise ValueError(f"not a binary word: {word!r}")


def word_to_fraction(word: str) -> Fraction:
    """Value of the purely periodic expansion 0.(word)^inf, reduced, in [0, 1)."""
    _check_word(word)
    full = (1 << len(word)) - 1
    return Fraction(int(word, 2) % full, full)


def _terms(u: str, v: str) -> tuple[int, int]:
    # the value of 0.u(v) as n/d, unreduced: n = int(u)*(2^|v| - 1) + int(v)
    # and d = 2^|u| * (2^|v| - 1); the words need not be canonical
    cycle = (1 << len(v)) - 1
    return (int(u, 2) if u else 0) * cycle + int(v, 2), cycle << len(u)


def double_angle(x: Fraction) -> Fraction:
    """One step of the angle doubling map, 2x mod 1."""
    return 2 * x % 1


def minimal_period(word: str) -> int:
    """Length of the shortest prefix whose repetitions give back the word: the
    first shift at which the word recurs in its own square."""
    if not word:
        raise ValueError("the empty word has no period")
    return (word + word).find(word, 1)


def multiplicative_order(base: int, modulus: int, limit: int | None = None) -> int:
    """Least k >= 1 with base**k == 1 modulo ``modulus``.

    With a ``limit``, the search stops once k passes it and raises
    BudgetExceeded, so it takes at most ``limit`` steps.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if modulus == 1:
        return 1
    cap = modulus if limit is None else min(limit, modulus)
    t = base % modulus
    k = 1
    while t != 1:
        t = t * base % modulus
        k += 1
        if k > cap:
            if cap < modulus:
                raise BudgetExceeded(
                    f"the order of {base} modulo {modulus} exceeds {limit}"
                )
            raise ValueError(f"{base} is not invertible modulo {modulus}")
    return k


def _expand(x: Fraction, max_period: int | None) -> tuple[str, str]:
    """Canonical (preperiod, period) of x in [0, 1), from its denominator: the
    preperiod has one digit per factor 2, the period one per step of the
    multiplicative order of 2 modulo the odd part, found in at most
    ``max_period`` steps when that is given."""
    num, den = x.numerator, x.denominator
    e = (den & -den).bit_length() - 1
    odd = den >> e
    head, rem = divmod(num, odd)  # x * 2**e == num / odd
    pre = format(head, f"0{e}b") if e else ""
    if odd == 1:
        return pre, "0"
    n = multiplicative_order(2, odd, max_period)
    # rem/odd is reduced, so its period is the whole order n
    return pre, format(rem * ((1 << n) - 1) // odd, f"0{n}b")


def fraction_to_expansion(
    x: Fraction, max_period: int | None = None
) -> "PeriodicAngle":
    """Canonical binary expansion of the angle x; purely periodic iff the
    denominator is odd.  A period longer than ``max_period``, when that is
    given, raises BudgetExceeded before any digit is built."""
    return PeriodicAngle(*_expand(x % 1, max_period))


class _Value:
    """Base of the package's value types: immutable, and compared, hashed
    and shown by the fields ``__match_args__`` names, in that order, as a
    frozen dataclass is.  Each subclass's ``__init__`` writes its fields into
    the instance's ``__dict__``, where ``functools.cached_property`` memos go
    too; assignment and deletion raise AttributeError."""

    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class PeriodicAngle(_Value):
    """Angle 0.preperiod(period)^inf in canonical form.

    The constructor normalizes its input on the words alone: the stored
    period is primitive, the preperiod is the shortest possible, and the
    value lies in [0, 1).  The all-ones period collapses to the zero angle,
    carrying one into the preperiod.
    """

    __match_args__ = ("preperiod", "period")

    def __init__(self, preperiod: str = "", period: str = "0") -> None:
        self.__dict__.update(preperiod=preperiod, period=period)
        self.__post_init__()

    def __post_init__(self) -> None:
        # the normalization of the stored words, a method of its own, which
        # the benchmark's layer trace (perfbench/spans.py) wraps to time the
        # class by
        pre, per = self.preperiod, self.period
        if pre:
            _check_word(pre)
        _check_word(per)
        per = per[: minimal_period(per)]
        if per == "1":
            # 0.u(1) == 0.(u + 1)(0), the carry out of u dropped (mod 1)
            per = "0"
            if pre:
                width = len(pre)
                pre = format((int(pre, 2) + 1) & ((1 << width) - 1), f"0{width}b")
        if pre:
            # absorb the longest suffix of u that the periodic tail ends in:
            # the trailing zeros of u XOR the tail's last |u| digits
            width, n = len(pre), len(per)
            tail = (per * (width // n + 1))[-width:]
            diff = int(pre, 2) ^ int(tail, 2)
            k = (diff & -diff).bit_length() - 1 if diff else width
            if k:
                pre = pre[: width - k]
                k %= n
                per = per[n - k :] + per[: n - k]
        self.__dict__.update(preperiod=pre, period=per)

    @property
    def value(self) -> Fraction:
        return Fraction(*_terms(self.preperiod, self.period))

    def __str__(self) -> str:
        if self.preperiod:
            return f"0.[{self.preperiod}]({self.period})"
        return f"0.({self.period})"

    @classmethod
    def parse(cls, text: str) -> "PeriodicAngle":
        """Parse the textual format "0.(w)" or "0.[u](w)"."""
        m = _EXPANSION_RE.fullmatch(text)
        if not m:
            raise ValueError(f"not an expansion: {text!r}")
        return cls(m.group(1) or "", m.group(2))


class ClassOrder(Enum):
    LT = "LT"
    GT = "GT"
    INCOMPARABLE = "INCOMPARABLE"


def compare_prefix_classes(u: str, v: str) -> ClassOrder:
    """Order the classes of angles whose expansions start with u resp. v.

    The prefixes are truncated to the shorter length and compared as dyadics;
    equal truncations leave the classes overlapping, hence INCOMPARABLE.
    """
    _check_word(u)
    _check_word(v)
    cut = min(len(u), len(v))
    a, b = int(u[:cut], 2), int(v[:cut], 2)
    if a < b:
        return ClassOrder.LT
    if a > b:
        return ClassOrder.GT
    return ClassOrder.INCOMPARABLE
