"""Parameter-plane combinatorics: tuning, junction rays, spoke localization,
exhaustive enumeration of broken-line parameters, and the census."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .angles import PeriodicAngle, minimal_period, word_to_fraction
from .conjugate import _GRID, _partners_at
from .errors import BracketingFailed, InvariantViolated, PreconditionUnmet
from .farey import BrokenLineSpec, FareyContext, _checked_spec, farey_parents
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
    antenna, in increasing order (locate builds only the two it needs).

    Each ray has preperiod length hinge*Q and period length Q; the periodic
    tails are rotations (by multiples of the lower parent's denominator) of
    the primed limb word under 01, of the limb word itself under 10.
    """
    indices = range(1, p_over_q.denominator + 1)
    return _junction_rays(p_over_q, hinge, convention, indices)


def _junction_rays(p_over_q: Fraction, hinge: int, convention: Convention, indices):
    """The rays of junction_rays with the given 1-based indices, in order."""
    if hinge < 1:
        raise ValueError("hinge must be a positive integer")
    lower, _ = farey_parents(p_over_q)
    word = mechanical_word(p_over_q, convention)
    cutoff = len(word) - p_over_q.numerator
    if convention is Convention.ZERO_ONE:
        primed = prime_plus(word)
        early, late, tail_base = word, primed, primed
    else:
        early, late, tail_base = prime_minus(word), word, word
    return [
        PeriodicAngle(
            word * (hinge - 1) + (early if k <= cutoff else late),
            rotate_left(tail_base, (k - 1) * lower.denominator),
        )
        for k in indices
    ]


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
    (Q-1)-th under 10; only the two rays bounding it are built.  Failure to
    bracket signals a bug, not bad input.
    """
    ctx = spec.context
    q = ctx.p_over_q.denominator
    if ctx.convention is Convention.ZERO_ONE:
        index, internal = 1, Fraction(1, ctx.hinge + 1)
    else:
        index, internal = q - 1, Fraction(ctx.hinge, ctx.hinge + 1)
    low, high = _junction_rays(
        ctx.p_over_q, ctx.hinge, ctx.convention, (index, index + 1)
    )
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

    Candidates are read off the Stern-Brocot path of each slope, walked with
    integer pairs: a right turn at a node opens 01-choices there, a left turn
    10-choices, and the length of the straight run just after the turn caps
    the hinge.  Each candidate passes the hinge inequalities of validate_spec
    against a context built once per node, hinge and convention.  The slope
    word is built once per slope and convention; a choice's period word is
    that word with its trailing hinge prefix, hinge*Q digits, rotated to the
    front (as in broken_line_word).  Angles are keyed by their integer
    numerator over 2^period - 1, and one Fraction is built per angle.
    """
    if period < 3:
        raise ValueError("enumeration starts at period 3")
    conventions = {"R": Convention.ZERO_ONE, "L": Convention.ONE_ZERO}
    # (P, Q, hinge, turn) -> (context, hinge prefix of the period word)
    contexts: dict[tuple, tuple[FareyContext, str]] = {}
    found: dict[int, list[BrokenLineSpec]] = {}
    for a in range(1, period):
        if math.gcd(a, period) != 1:
            continue
        slope = Fraction(a, period)
        words = {side: mechanical_word(slope, c) for side, c in conventions.items()}
        # the strict ancestors of the slope and the turn taken at each
        nodes, sides = [], []
        lo_p, lo_q, hi_p, hi_q = 0, 1, 1, 1
        while True:
            p, q = lo_p + hi_p, lo_q + hi_q
            if p == a and q == period:
                break
            nodes.append((p, q))
            if a * q < p * period:
                sides.append("L")
                hi_p, hi_q = p, q
            else:
                sides.append("R")
                lo_p, lo_q = p, q
        turns = "".join(sides)
        for i, (p, q) in enumerate(nodes):
            side = turns[i]
            word = words[side]
            after = turns.find(side, i + 1)
            straight = (len(turns) if after < 0 else after) - i - 1
            for hinge in range(1, straight + 2):
                key = (p, q, hinge, side)
                if key not in contexts:
                    node, convention = Fraction(p, q), conventions[side]
                    contexts[key] = (
                        FareyContext.build(node, hinge, convention),
                        mechanical_word(node, convention) * hinge,
                    )
                context, prefix = contexts[key]
                spec = _checked_spec(context, slope)
                if not word.endswith(prefix):
                    raise InvariantViolated(
                        "enumerate_specs",
                        "slope word does not end in the hinge prefix",
                        spec,
                    )
                cut = hinge * q
                found.setdefault(int(word[-cut:] + word[:-cut], 2), []).append(spec)
    full = (1 << period) - 1
    entries = tuple(
        (Fraction(key, full), tuple(found[key])) for key in sorted(found)
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

    # the sweep keys every angle by its numerator over 2^b - 1, the pairing
    # by its numerator over _GRID
    full = (1 << period) - 1
    scale = _GRID // full
    partner = _partners_at(period)
    # exact period and balance are properties of the whole doubling orbit,
    # which rotates the word: test them once per orbit, at its first member
    width = f"0{period}b"
    seen = bytearray(full)
    brute = 0
    for k in range(1, full):
        if seen[k]:
            continue
        word = format(k, width)
        n = minimal_period(word)
        orbit = {int(rotate_left(word, i), 2) for i in range(n)}
        for j in orbit:
            seen[j] = 1
        if n != period or not is_sturmian(word):
            continue
        brute += sum(partner[j * scale] // scale not in orbit for j in orbit)
    return constructed, formula, brute
