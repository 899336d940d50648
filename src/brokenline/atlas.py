"""Parameter-plane combinatorics: tuning, junction rays, spoke localization,
exhaustive enumeration of broken-line parameters, and the census."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .angles import PeriodicAngle, minimal_period, word_to_fraction
from .conjugate import lavaurs_pairs
from .errors import BracketingFailed, PreconditionUnmet
from .farey import BrokenLineSpec, farey_parents, stern_brocot_path, validate_spec
from .mechanical import broken_line_word, mechanical_word
from .words import Convention, is_sturmian, prime_minus, prime_plus, rotate_left

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
    substitute = lambda digits: "".join(low if d == "0" else high for d in digits)
    return PeriodicAngle(substitute(phi.preperiod), substitute(phi.period))


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
    antenna, in increasing order.

    Each ray has preperiod length hinge*Q and period length Q; the periodic
    tails are rotations (by multiples of the lower parent's denominator) of
    the primed limb word under 01, of the limb word itself under 10.
    """
    if hinge < 1:
        raise ValueError("hinge must be a positive integer")
    lower, _ = farey_parents(p_over_q)
    shift_unit = lower.denominator
    word = mechanical_word(p_over_q, convention)
    q = len(word)
    cutoff = q - p_over_q.numerator
    zero_one = convention is Convention.ZERO_ONE
    primed = prime_plus(word) if zero_one else prime_minus(word)
    tail_base = primed if zero_one else word
    rays = []
    for k in range(1, q + 1):
        if zero_one:
            filler = word if k <= cutoff else primed
        else:
            filler = primed if k <= cutoff else word
        head = word * (hinge - 1) + filler
        tail = rotate_left(tail_base, (k - 1) * shift_unit)
        rays.append(PeriodicAngle(head, tail))
    return rays


@dataclass(frozen=True)
class SpokeLocation:
    """Where a broken-line angle sits: which limb, which sublimb, and the two
    junction rays that bracket it."""

    limb: Fraction
    sublimb_internal_angle: Fraction
    spoke_index: int
    bracketing_rays: tuple[PeriodicAngle, PeriodicAngle]
    junction_preperiod: int


def locate(spec: BrokenLineSpec) -> SpokeLocation:
    """Bracket the broken-line angle between consecutive junction rays.

    The angle lies in the first spoke under the 01 convention and in the
    (Q-1)-th under 10; failure to bracket signals a bug, not bad input.
    """
    ctx = spec.context
    rays = junction_rays(ctx.p_over_q, ctx.hinge, ctx.convention)
    q = ctx.p_over_q.denominator
    if ctx.convention is Convention.ZERO_ONE:
        low, high, index = rays[0], rays[1], 1
        internal = Fraction(1, ctx.hinge + 1)
    else:
        low, high, index = rays[q - 2], rays[q - 1], q - 1
        internal = Fraction(ctx.hinge, ctx.hinge + 1)
    theta = word_to_fraction(broken_line_word(spec))
    if not low.value < theta < high.value:
        raise BracketingFailed(f"{theta} is outside ({low.value}, {high.value})")
    return SpokeLocation(
        ctx.p_over_q, internal, index, (low, high), ctx.hinge * q
    )


@dataclass(frozen=True)
class SpecEnumeration:
    """All validated parameter choices of one period, grouped by the angle
    they produce (several choices mapping to one angle would be a collision;
    none are known)."""

    period: int
    entries: tuple[tuple[Fraction, tuple[BrokenLineSpec, ...]], ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def angles(self) -> list[Fraction]:
        return [angle for angle, _ in self.entries]

    @property
    def collisions(self) -> list[tuple[Fraction, tuple[BrokenLineSpec, ...]]]:
        return [(angle, specs) for angle, specs in self.entries if len(specs) > 1]

    def specs(self) -> list[BrokenLineSpec]:
        return [spec for _, specs in self.entries for spec in specs]


def enumerate_specs(period: int) -> SpecEnumeration:
    """Every valid parameter choice whose broken line has the given period,
    over both conventions.

    Candidates are read off the Stern-Brocot path of each slope: a right turn
    at a node opens 01-choices there, a left turn 10-choices, and the length
    of the straight run just after the turn caps the hinge.
    """
    if period < 3:
        raise ValueError("enumeration starts at period 3")
    found: dict[Fraction, list[BrokenLineSpec]] = {}
    for a in range(1, period):
        if math.gcd(a, period) != 1:
            continue
        slope = Fraction(a, period)
        path = stern_brocot_path(slope)
        for i, (node, side) in enumerate(path):
            convention = (
                Convention.ZERO_ONE if side == "R" else Convention.ONE_ZERO
            )
            straight = 0
            for _, later in path[i + 1 :]:
                if later == side:
                    break
                straight += 1
            for hinge in range(1, straight + 2):
                spec = validate_spec(node, slope, hinge, convention)
                angle = word_to_fraction(broken_line_word(spec))
                found.setdefault(angle, []).append(spec)
    entries = tuple(
        sorted(
            ((angle, tuple(specs)) for angle, specs in found.items()),
            key=lambda item: item[0],
        )
    )
    return SpecEnumeration(period, entries)


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
    doubling orbit.  formula == brute always holds: both count the rotations
    of each a/b word minus the characteristic pair of the a/b bulb.  The
    construction is sound but not complete, so constructed <= brute, with
    equality through b = 6 only; from b = 7 on (first missing angle 55/127)
    the enumeration reaches a strict subset.
    """
    if not 3 <= period <= CENSUS_LIMIT:
        raise ValueError(f"census is desk-scale: 3 <= period <= {CENSUS_LIMIT}")
    constructed = len(enumerate_specs(period))
    formula = (period - 2) * euler_phi(period)

    # the sweep keys every angle by its numerator over 2^b - 1
    full = (1 << period) - 1
    partner: dict[int, int] = {}
    for x, y in lavaurs_pairs(period):
        kx = x.numerator * (full // x.denominator)
        ky = y.numerator * (full // y.denominator)
        partner[kx] = ky
        partner[ky] = kx
    width = f"0{period}b"
    brute = 0
    for k in range(1, full):
        word = format(k, width)
        if minimal_period(word) != period or not is_sturmian(word):
            continue
        orbit = {int(rotate_left(word, i), 2) for i in range(period)}
        if partner[k] not in orbit:
            brute += 1
    return constructed, formula, brute
