"""Parameter-plane combinatorics: tuning, junction rays, spoke localization,
exhaustive enumeration of broken-line parameters, and the census."""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import compress, groupby
from operator import eq, itemgetter

from .angles import PeriodicAngle, _terms, _Value
from .errors import BracketingFailed, InvariantViolated, PreconditionUnmet
from .farey import BrokenLineSpec, FareyContext
from .mechanical import _substitute, broken_line_word
from .oracles import _partners_at
from .words import (
    Convention,
    _digits,
    is_sturmian,
    mechanical_word,
    prime_minus,
    prime_plus,
    rotate_left,
)

__all__ = [
    "SpecEnumeration",
    "SpokeLocation",
    "enumerate_specs",
    "euler_phi",
    "junction_rays",
    "locate",
    "sturmian_census",
    "tune",
    "tuned_is_nonsturmian",
]

CENSUS_LIMIT = 14


def tune(phi: PeriodicAngle, bulb: Fraction) -> PeriodicAngle:
    """Replace every digit of the expansion by the matching characteristic
    word of the bulb: 0 by the lower word, 1 by the upper one."""
    if not 0 < bulb < 1:
        raise ValueError("bulb fraction must lie strictly between 0 and 1")
    low = mechanical_word(bulb, Convention.ZERO_ONE)
    high = mechanical_word(bulb, Convention.ONE_ZERO)
    return PeriodicAngle(
        _substitute(phi.preperiod, low, high), _substitute(phi.period, low, high)
    )


def tuned_is_nonsturmian(phi: PeriodicAngle, bulb: Fraction) -> bool:
    """Whether tuning destroys the balance of the expansion's repeating tail.

    Requires the repeating tail of phi to contain both factors 01 and 10
    (equivalently both digits), which makes the answer always True: the tuned
    tail picks up two equal-length factors whose 1-counts differ by two.
    """
    if phi.value == 0:
        raise PreconditionUnmet("the zero angle cannot be tuned meaningfully")
    tail = phi.period + phi.period
    if "01" not in tail or "10" not in tail:
        raise PreconditionUnmet("repeating tail must contain both 01 and 10")
    return not is_sturmian(tune(phi, bulb).period)


def junction_rays(
    p_over_q: Fraction, hinge: int, convention: Convention
) -> list[PeriodicAngle]:
    """The Q preperiodic rays landing at the branch point of the sublimb's
    antenna, in increasing order (locate builds only the two it needs).

    Each ray has preperiod length hinge*Q and period length Q; the periodic
    tails are rotations (by multiples of the lower parent's denominator) of
    the primed limb word under 01, of the limb word itself under 10.
    """
    if hinge < 1:
        raise ValueError("hinge must be a positive integer")
    context = FareyContext.build(p_over_q, hinge, convention)
    rays = _junction_rays(context, range(1, p_over_q.denominator + 1))
    return [PeriodicAngle(u, v) for u, v in rays]


def _junction_rays(context: FareyContext, indices) -> list[tuple[str, str]]:
    """The rays of junction_rays with the given 1-based indices, in order, as
    raw (preperiod, period) word pairs."""
    word, hinge = context.limb_word, context.hinge
    cutoff = len(word) - context.p_over_q.numerator
    if context.convention is Convention.ZERO_ONE:
        primed = prime_plus(word)
        early, late, tail_base = word, primed, primed
    else:
        early, late, tail_base = prime_minus(word), word, word
    return [
        (
            word * (hinge - 1) + (early if k <= cutoff else late),
            rotate_left(tail_base, (k - 1) * context.lower_parent.denominator),
        )
        for k in indices
    ]


class SpokeLocation(_Value):
    """Where a broken-line angle sits: which limb, which sublimb, and the two
    junction rays that bracket it."""

    __match_args__ = (
        "limb",
        "sublimb_internal_angle",
        "spoke_index",
        "bracketing_rays",
        "junction_preperiod",
    )

    def __init__(
        self,
        limb: Fraction,
        sublimb_internal_angle: Fraction,
        spoke_index: int,
        bracketing_rays: tuple[PeriodicAngle, PeriodicAngle],
        junction_preperiod: int,
    ) -> None:
        self.__dict__.update(
            limb=limb,
            sublimb_internal_angle=sublimb_internal_angle,
            spoke_index=spoke_index,
            bracketing_rays=bracketing_rays,
            junction_preperiod=junction_preperiod,
        )


def locate(spec: BrokenLineSpec) -> SpokeLocation:
    """Bracket the broken-line angle between consecutive junction rays.

    The angle lies in the first spoke under the 01 convention and in the
    (Q-1)-th under 10; only the two rays bounding it are built.  Failure to
    bracket signals a bug, not bad input.
    """
    ctx = spec.context
    index, low, high = _bracket(spec)
    if ctx.convention is Convention.ZERO_ONE:
        internal = Fraction(1, ctx.hinge + 1)
    else:
        internal = Fraction(ctx.hinge, ctx.hinge + 1)
    return SpokeLocation(
        ctx.p_over_q,
        internal,
        index,
        (PeriodicAngle(*low), PeriodicAngle(*high)),
        ctx.hinge * ctx.p_over_q.denominator,
    )


def _bracket(spec: BrokenLineSpec) -> tuple[int, tuple[str, str], tuple[str, str]]:
    # the spoke of the angle and the raw (preperiod, period) pairs of its two
    # rays; the angle must lie strictly between them
    ctx = spec.context
    if ctx.convention is Convention.ZERO_ONE:
        index = 1
    else:
        index = ctx.p_over_q.denominator - 1
    low, high = _junction_rays(ctx, (index, index + 1))
    word = broken_line_word(spec)
    # theta = k/full against each ray n/d, by cross-multiplication
    k, full = int(word, 2), (1 << len(word)) - 1
    (low_n, low_d), (high_n, high_d) = _terms(*low), _terms(*high)
    if not (low_n * full < k * low_d and k * high_d < high_n * full):
        raise BracketingFailed(
            f"{Fraction(k, full)} is outside "
            f"({Fraction(low_n, low_d)}, {Fraction(high_n, high_d)})"
        )
    return index, low, high


# the convention of the broken lines hinged at a Stern-Brocot node, by the
# turn the path to the slope takes there
_TURNS = {"R": Convention.ZERO_ONE, "L": Convention.ONE_ZERO}


class SpecEnumeration(_Value):
    """All validated parameter choices of one period, grouped by the angle
    they produce (several choices mapping to one angle would be a collision;
    none are known).

    ``rows`` holds one row per choice, ``(key, P, Q, hinge, turn, a)``, in
    increasing angle order and, within one angle, in the order the walk met
    them: the angle is key/(2^period - 1), the limb P/Q, the slope a/period,
    and turn is the side the slope's Stern-Brocot path takes at P/Q, "R" for
    the 01 convention and "L" for 10.  ``len()`` reads the rows; the
    Fractions, contexts and specs of ``entries`` are built on first read.
    """

    __match_args__ = ("period", "rows")

    def __init__(
        self, period: int, rows: tuple[tuple[int, int, int, int, str, int], ...]
    ) -> None:
        self.__dict__.update(period=period, rows=rows)

    @functools.cached_property
    def _sizes(self) -> dict[int, int]:
        # the row count of each angle with more than one, its rows adjacent
        keys = list(map(itemgetter(0), self.rows))
        repeats = compress(keys, map(eq, keys, keys[1:]))
        return {key: 1 + len(list(run)) for key, run in groupby(repeats)}

    def __len__(self) -> int:
        return len(self.rows) - sum(self._sizes.values()) + len(self._sizes)

    def _firsts(self) -> Iterator[tuple[int, int, int, int, str, int]]:
        # each angle's first row, its canonical one, in key order
        if not self._sizes:
            return iter(self.rows)
        return (next(group) for _, group in groupby(self.rows, itemgetter(0)))

    @functools.cached_property
    def entries(self) -> tuple[tuple[Fraction, tuple[BrokenLineSpec, ...]], ...]:
        """(angle, specs) per angle, in increasing angle order."""
        full = (1 << self.period) - 1
        contexts: dict[tuple[int, int, int, str], FareyContext] = {}
        slopes: dict[int, Fraction] = {}
        entries = []
        for key, group in groupby(self.rows, itemgetter(0)):
            specs = []
            for _, p, q, hinge, turn, a in group:
                node = (p, q, hinge, turn)
                if node not in contexts:
                    contexts[node] = FareyContext.build(
                        Fraction(p, q), hinge, _TURNS[turn]
                    )
                if a not in slopes:
                    slopes[a] = Fraction(a, self.period)
                specs.append(BrokenLineSpec(contexts[node], slopes[a]))
            entries.append((Fraction(key, full), tuple(specs)))
        return tuple(entries)

    @property
    def angles(self) -> list[Fraction]:
        return [angle for angle, _ in self.entries]

    @property
    def collisions(self) -> list[tuple[Fraction, tuple[BrokenLineSpec, ...]]]:
        if not self._sizes:
            return []
        return [(angle, specs) for angle, specs in self.entries if len(specs) > 1]

    def specs(self) -> list[BrokenLineSpec]:
        return [spec for _, specs in self.entries for spec in specs]


def enumerate_specs(period: int) -> SpecEnumeration:
    """Every valid parameter choice whose broken line has the given period,
    over both conventions.

    Candidates are read off the Stern-Brocot path of each slope, walked with
    integer pairs: a right turn at a node opens 01-choices there, a left turn
    10-choices.  The turn is one hinge inequality of validate_spec; hinges
    are taken while the other holds on integers, the hinge bound (the node's
    Farey parent, an end of the walk's interval, plus hinge - 1 copies of
    P/Q) leaving the slope strictly inside.  The limb word's value under
    each convention is carried down the walk, a mediant's word being its
    parents' words concatenated.  The slope word is built once per slope by
    the standard-word recursion; a choice's period word is that word with
    its trailing hinge prefix, hinge*Q digits, rotated to the front (as in
    broken_line_word), and the prefix is checked on integers to be hinge
    copies of the limb word.  The rotation is taken on the word's integer
    value, which is the angle's numerator over 2^period - 1.  The result
    holds one integer row per choice and builds no Fraction, context or spec
    until they are read.
    """
    if period < 3:
        raise ValueError("enumeration starts at period 3")
    rows = sorted(_spec_rows(period), key=itemgetter(0))
    return SpecEnumeration(period, tuple(rows))


def _row_spec(period: int, row: tuple[int, int, int, int, str, int]) -> BrokenLineSpec:
    # the spec of one row of enumerate_specs, built alone
    _, p, q, hinge, turn, a = row
    context = FareyContext.build(Fraction(p, q), hinge, _TURNS[turn])
    return BrokenLineSpec(context, Fraction(a, period))


def _spec_rows(period: int) -> list[tuple[int, int, int, int, str, int]]:
    # the rows of enumerate_specs, in the order the walk meets them
    rows = []
    for a in range(1, period):
        if math.gcd(a, period) != 1:
            continue
        # the slope word's inner digits, by the standard word
        inner = int(_digits(a, period), 2) << 2
        # the walk's interval ends lo < hi, with their words' values under 01
        # and 10: a node's word is hi.lo under 01 and lo.hi under 10 (as in
        # mediant_tags), but 0/1 has no 01 word and 1/1 no 10 word, so the
        # nodes 1/q and (q-1)/q next to them take their closed forms, 0^(q-2)
        # and 1^(q-2) followed by the convention's two letters
        lo_p, lo_q, hi_p, hi_q = 0, 1, 1, 1
        lo01 = lo10 = hi01 = hi10 = 0
        while True:
            p, q = lo_p + hi_p, lo_q + hi_q
            if p == a and q == period:
                break
            if not lo_p:
                v01, v10 = 1, 2
            elif hi_p == hi_q:
                v01, v10 = (1 << q) - 3, (1 << q) - 2
            else:
                v01, v10 = hi01 << lo_q | lo01, lo10 << hi_q | hi10
            # a right turn opens 01-choices bounded from the upper end, a left
            # turn 10-choices bounded from the lower end; the turn is the
            # inequality against P/Q, and hinges go on while the bound, the
            # parent plus (hinge - 1) * P/Q, leaves the slope strictly inside
            zero_one = a * q > p * period
            if zero_one:
                turn, limb, value, c, d = "R", v01, inner | 1, hi_p, hi_q
                lo_p, lo_q, lo01, lo10 = p, q, v01, v10
            else:
                turn, limb, value, c, d = "L", v10, inner | 2, lo_p, lo_q
                hi_p, hi_q, hi01, hi10 = p, q, v01, v10
            hinge, prefix = 1, limb
            while a * d < c * period if zero_one else c * period < a * d:
                # the slope word must end in hinge copies of the limb word;
                # the key is its value with that prefix rotated to the front
                cut = hinge * q
                row = (prefix << (period - cut) | value >> cut, p, q, hinge, turn, a)
                if value & ((1 << cut) - 1) != prefix:
                    raise InvariantViolated(
                        "enumerate_specs",
                        "slope word does not end in the hinge prefix",
                        _row_spec(period, row),
                    )
                rows.append(row)
                hinge, c, d, prefix = hinge + 1, c + p, d + q, prefix << q | limb
    return rows


def euler_phi(n: int) -> int:
    out, m = n, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def sturmian_census(period: int) -> tuple[int, int, int]:
    """Count period-b Sturmian angles of primitive pairs three ways.

    Returns (constructed, formula, brute): the enumeration size, the closed
    form (b-2)*phi(b), and a sweep of all angles of exact period b keeping
    those with balanced words whose pairing partner lies on a different
    doubling orbit.  The sweep walks each orbit once, by doubling its least
    numerator modulo 2^b - 1, so the orbit's length is its exact period and
    the balance of its least member's word decides the whole orbit; it
    builds no rotated word, and jumps from one orbit to the least numerator
    none has reached.  formula == brute always holds: both count the
    rotations of each a/b word minus the characteristic pair of the a/b
    bulb.  The construction is sound but not complete, so constructed <=
    brute, with equality through b = 6 only; from b = 7 on (first missing
    angle 55/127) the enumeration reaches a strict subset.
    """
    if not 3 <= period <= CENSUS_LIMIT:
        raise ValueError(f"census is desk-scale: 3 <= period <= {CENSUS_LIMIT}")
    constructed = len(enumerate_specs(period))
    formula = (period - 2) * euler_phi(period)

    # the sweep and the pairing key every angle by its numerator over 2^b - 1
    full = (1 << period) - 1
    partner = _partners_at(period)
    # doubling k -> 2k mod 2^b - 1 rotates the word, and exact period and
    # balance are properties of the whole orbit: test them once per orbit
    width = f"0{period}b"
    seen = bytearray(full)
    brute = 0
    k = 1
    while k > 0:
        orbit = [k]
        j = (k << 1) % full
        while j != k:
            orbit.append(j)
            j = (j << 1) % full
        for j in orbit:
            seen[j] = 1
        if len(orbit) == period and is_sturmian(format(k, width)):
            brute += sum(partner[j] not in orbit for j in orbit)
        k = seen.find(0, k + 1)
    return constructed, formula, brute
