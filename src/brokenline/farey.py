"""Stern-Brocot arithmetic and validation of broken-line parameters."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .angles import _Value
from .errors import HypothesisViolated, InvariantViolated, NotCoprime
from .words import Convention, mechanical_word

__all__ = [
    "BrokenLineSpec",
    "FareyContext",
    "bezout_minimal",
    "bound_fraction",
    "farey_parents",
    "mediant",
    "single_block_slope",
    "stern_brocot_path",
    "validate_spec",
]

# CLI callers hand in raw (numerator, denominator) pairs so that unreduced
# input is rejected instead of silently reduced (the denominator advertises
# the period).
Ratio = Fraction | tuple


def _as_reduced(value: Ratio, name: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    num, den = value
    if den <= 0:
        raise HypothesisViolated(f"{name}: denominator must be positive")
    if math.gcd(num, den) != 1:
        raise HypothesisViolated(f"{name}: {num}/{den} is not reduced")
    return Fraction(num, den)


def mediant(x: Fraction, y: Fraction) -> Fraction:
    """Farey mediant (x.num + y.num) / (x.den + y.den)."""
    return Fraction(x.numerator + y.numerator, x.denominator + y.denominator)


def farey_parents(x: Fraction) -> tuple[Fraction, Fraction]:
    """The unique Farey neighbors whose mediant is x.

    The lower parent a/b solves p*b - a*q == 1 with 0 < b < q, so b is the
    inverse of p modulo q; the upper parent is what remains of x.
    """
    p, q = x.numerator, x.denominator
    if not 0 < p < q:
        raise ValueError("parents exist for fractions strictly between 0 and 1")
    b = pow(p, -1, q)
    a = (p * b - 1) // q
    return Fraction(a, b), Fraction(p - a, q - b)


def stern_brocot_path(x: Fraction) -> list[tuple[Fraction, str]]:
    """Strict ancestors of x in the Stern-Brocot tree over (0, 1), each with
    the direction ("L" or "R") the path to x takes there."""
    if not 0 < x < 1:
        raise ValueError("x must lie strictly between 0 and 1")
    lo, hi = Fraction(0), Fraction(1)
    path: list[tuple[Fraction, str]] = []
    while True:
        node = mediant(lo, hi)
        if node == x:
            return path
        if x < node:
            path.append((node, "L"))
            hi = node
        else:
            path.append((node, "R"))
            lo = node


def bound_fraction(p_over_q: Fraction, hinge: int, convention: Convention) -> Fraction:
    """Admissibility bound on the second slope at the given hinge: an upper
    bound under the 01 convention, a lower bound under 10."""
    if not 0 < p_over_q < 1:
        raise ValueError("limb fraction must lie strictly between 0 and 1")
    return FareyContext.build(p_over_q, hinge, convention).bound


def bezout_minimal(q: int, t: int) -> tuple[int, int]:
    """Solve s*q - t*p == 1 with p the smallest positive integer; returns (p, s)."""
    if not 0 < t < q:
        raise ValueError("need 0 < t < q")
    if math.gcd(q, t) != 1:
        raise NotCoprime(f"gcd({q}, {t}) != 1")
    p = (-pow(t, -1, q)) % q
    return p, (1 + t * p) // q


class FareyContext(_Value):
    """A limb fraction P/Q with its Farey parents, the hinge count, and the
    slope bound those induce; the mechanical words of P/Q and of ``parent``
    are built on first read and kept."""

    __match_args__ = (
        "p_over_q", "lower_parent", "upper_parent", "hinge", "convention", "bound"
    )

    def __init__(
        self,
        p_over_q: Fraction,
        lower_parent: Fraction,
        upper_parent: Fraction,
        hinge: int,
        convention: Convention,
        bound: Fraction,
    ) -> None:
        self.__dict__.update(
            p_over_q=p_over_q,
            lower_parent=lower_parent,
            upper_parent=upper_parent,
            hinge=hinge,
            convention=convention,
            bound=bound,
        )

    @classmethod
    def build(cls, p_over_q: Fraction, hinge: int, convention: Convention) -> "FareyContext":
        """Solve for the Farey parents once and derive the bound from them:
        the parent plus hinge - 1 copies of P/Q, the upper one under 01 and
        the lower one under 10, a Farey neighbour of P/Q and so reduced."""
        lower, upper = farey_parents(p_over_q)
        if hinge < 1:
            raise ValueError("hinge must be a positive integer")
        parent = upper if convention is Convention.ZERO_ONE else lower
        k = hinge - 1
        bound = Fraction(
            parent.numerator + k * p_over_q.numerator,
            parent.denominator + k * p_over_q.denominator,
        )
        return cls(p_over_q, lower, upper, hinge, convention, bound)

    @property
    def parent(self) -> Fraction:
        """The upper Farey parent under 01, the lower one under 10."""
        if self.convention is Convention.ZERO_ONE:
            return self.upper_parent
        return self.lower_parent

    @functools.cached_property
    def limb_word(self) -> str:
        return mechanical_word(self.p_over_q, self.convention)

    @functools.cached_property
    def parent_word(self) -> str:
        return mechanical_word(self.parent, self.convention)


def single_block_slope(context: FareyContext, m: int) -> Fraction:
    """The m-th slope whose broken line is a single repeated block; m = 0
    returns P/Q itself.  Increases toward the bound under 01, decreases
    under 10."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    p, bound = context.p_over_q, context.bound
    return Fraction(
        p.numerator + m * bound.numerator, p.denominator + m * bound.denominator
    )


class BrokenLineSpec(_Value):
    """Validated parameters of a broken line: the limb context plus the slope
    taken after the hinge point; broken_line_word builds the period word on
    first request and the spec keeps it."""

    __match_args__ = ("context", "slope")

    def __init__(self, context: FareyContext, slope: Fraction) -> None:
        self.__dict__.update(context=context, slope=slope)

    @property
    def p_over_q(self) -> Fraction:
        return self.context.p_over_q

    @property
    def hinge(self) -> int:
        return self.context.hinge

    @property
    def convention(self) -> Convention:
        return self.context.convention

    @property
    def period(self) -> int:
        return self.slope.denominator

    @functools.cached_property
    def _word(self) -> str:
        # the slope word with its trailing hinge prefix rotated to the front
        ctx = self.context
        head = ctx.limb_word * ctx.hinge
        slope_word = mechanical_word(self.slope, ctx.convention)
        if not slope_word.endswith(head):
            raise InvariantViolated(
                "broken_line_word", "slope word does not end in the hinge prefix", self
            )
        return head + slope_word[: len(slope_word) - len(head)]


def validate_spec(
    p_over_q: Ratio, a_over_b: Ratio, hinge: int, convention: Convention
) -> BrokenLineSpec:
    """Check the hinge inequalities and return the validated parameters.

    Raises HypothesisViolated naming the failing constraint.  Slopes equal to
    a single-block fraction are accepted; the bound itself is not.  Every
    comparison is an integer cross-multiplication over the positive
    denominators.
    """
    limb = _as_reduced(p_over_q, "P/Q")
    slope = _as_reduced(a_over_b, "a/b")
    p, q = limb.numerator, limb.denominator
    a, b = slope.numerator, slope.denominator
    if not 0 < p < q:
        raise HypothesisViolated(f"0 < P/Q < 1 fails for {limb}")
    if not 0 < a < b:
        raise HypothesisViolated(f"0 < a/b < 1 fails for {slope}")
    if hinge < 1:
        raise HypothesisViolated(f"hinge must be >= 1, got {hinge}")
    context = FareyContext.build(limb, hinge, convention)
    bound = context.bound
    zero_one = convention is Convention.ZERO_ONE
    _check_hinge(p, q, a, b, bound.numerator, bound.denominator, zero_one)
    return BrokenLineSpec(context, slope)


def _check_hinge(
    p: int, q: int, a: int, b: int, c: int, d: int, zero_one: bool
) -> None:
    # the hinge inequalities: the slope a/b lies strictly between P/Q and the
    # hinge bound c/d, compared by integer cross-multiplication over the
    # positive denominators; each ratio is written as its Fraction
    if zero_one:
        if not p * b < a * q:
            raise HypothesisViolated(
                f"P/Q < a/b fails: {Fraction(p, q)} vs {Fraction(a, b)}"
            )
        if not a * d < c * b:
            raise HypothesisViolated(
                f"a/b below the hinge bound fails: {Fraction(a, b)} vs {Fraction(c, d)}"
            )
    else:
        if not c * b < a * d:
            raise HypothesisViolated(
                f"a/b above the hinge bound fails: {Fraction(a, b)} vs {Fraction(c, d)}"
            )
        if not a * q < p * b:
            raise HypothesisViolated(
                f"a/b < P/Q fails: {Fraction(a, b)} vs {Fraction(p, q)}"
            )
