"""Conjugate angles via primed blocks, with two independent verifiers.

The production path primes every block of the decomposition.  The chain
verifier pulls the angle back one doubling step at a time, holding two orbit
points and two preimages, and certifies the circle intervals stay unlinked.
The Lavaurs pairing is a test-only oracle: the chords of the lower periods
cut the disc into regions, and inside each region the angles of one exact
period are joined in consecutive pairs, by one sweep over the sorted chord
endpoints.  Inside both, an angle is an integer numerator over one fixed
denominator: 2^b (2^b - 1) along the chain, the lcm of all 2^p - 1 with
p <= 20 in the pairing.  A ``Fraction`` is built only where a public
function returns one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress

from .angles import PeriodicAngle
from .errors import InvariantViolated, UnlinkViolation
from .farey import BrokenLineSpec
from .mechanical import block_decomposition, broken_line_word
from .words import Convention, prime_minus, prime_plus

__all__ = [
    "ConjugateChain",
    "UnlinkCertificate",
    "conjugate_angle",
    "conjugate_chain",
    "conjugate_word",
    "lavaurs_pairs",
    "lavaurs_partner",
    "unlinked",
]

LAVAURS_LIMIT = 20
# every angle of period <= LAVAURS_LIMIT is an integer over this (132 bits)
_GRID = math.lcm(*((1 << p) - 1 for p in range(1, LAVAURS_LIMIT + 1)))


def conjugate_word(spec: BrokenLineSpec) -> str:
    """Period word of the conjugate angle: every block primed, +1 under the
    01 convention and -1 under 10."""
    decomposition = block_decomposition(spec)
    prime = prime_plus if spec.convention is Convention.ZERO_ONE else prime_minus
    primed = {e: prime(w) for e, w in decomposition.block_words.items()}
    return "".join(map(primed.__getitem__, decomposition.exponents))


def conjugate_angle(spec: BrokenLineSpec) -> PeriodicAngle:
    """The other external angle landing at the same root."""
    return PeriodicAngle(period=conjugate_word(spec))


def _in_arc(t: Fraction, a: Fraction, b: Fraction) -> bool:
    # open arc from a counterclockwise to b
    if a < b:
        return a < t < b
    return t > a or t < b


def unlinked(pair_a: tuple[Fraction, Fraction], pair_b: tuple[Fraction, Fraction]) -> bool:
    """True when one pair of circle points lies inside a single arc cut out
    by the other pair."""
    a1, a2 = pair_a
    c, d = pair_b
    return _in_arc(c, a1, a2) == _in_arc(d, a1, a2)


@dataclass(frozen=True)
class UnlinkCertificate:
    """Outcome of one unlinking check along the preimage chain.

    ``digit_zero_case`` records which side the orbit point fell on: True when
    it sits past the far partition point, which is exactly when the matching
    kneading entry is 0.
    """

    index: int
    digit_zero_case: bool


@dataclass(frozen=True)
class ConjugateChain:
    theta: PeriodicAngle
    conjugate: PeriodicAngle
    certificates: tuple[UnlinkCertificate, ...]

    @property
    def preimages(self) -> tuple[PeriodicAngle, ...]:
        """The k-th preimage is 0.[last k digits of the conjugate](theta),
        for k = 1..b; both stored periods are the full primitive words."""
        word, cword = self.theta.period, self.conjugate.period
        b = len(word)
        return tuple(PeriodicAngle(cword[b - k :], word) for k in range(1, b + 1))


def conjugate_chain(spec: BrokenLineSpec) -> ConjugateChain:
    """Build the full preimage chain of the broken-line angle and verify it.

    Checks, exactly: each chain element halves to the previous one; for every
    k the interval from the k-th orbit point to the k-th preimage is unlinked
    from the partition interval; and the closed form over the whole chain
    reproduces the primed-block conjugate.  The chain is streamed.
    """
    word = broken_line_word(spec)
    b = len(word)
    cword = conjugate_word(spec)
    full = (1 << b) - 1
    # every orbit point and preimage is an integer over den = 2^b (2^b - 1);
    # the orbit point 2^i theta is (2^i t mod full) << b, walked backwards
    # from t by halving mod full
    den = full << b
    t = int(word, 2) % full
    theta = t << b
    zero_one = spec.convention is Convention.ZERO_ONE
    c, bit, u, previous = 0, 1, t, theta
    certificates = []
    for k in range(1, b + 1):
        # the k-th preimage is (c + theta) / 2^k over den, c the last k
        # conjugate digits, grown one digit per step; c * full by shifts
        if cword[b - k] == "1":
            c += bit
        bit <<= 1
        y2 = ((c << b) - c + t) << (b - k)
        # 0 <= y2 < den, so doubling mod den is one subtraction
        if 2 * y2 - previous not in (0, den):
            raise InvariantViolated("conjugate_chain", f"chain breaks at step {k}", spec)
        previous = y2
        u = (u + full if u & 1 else u) >> 1
        y1 = u << b
        if k == 1:
            x1, x2 = y2, y1
            continue
        # four distinct points, compared pairwise (a hash reads every digit)
        distinct = x1 != x2 and y1 not in (x1, x2, y2) and y2 not in (x1, x2)
        if not distinct or not unlinked((x1, x2), (y1, y2)):
            raise UnlinkViolation(k)
        case = (y1 > x2) if zero_one else (y1 < x2)
        certificates.append(UnlinkCertificate(k, case))

    # theta + (last - theta) / (1 - 2^-b) == conjugate, times den * (2^b - 1)
    conj = int(cword, 2) % full
    if theta * full + ((previous - theta) << b) != conj * den:
        raise InvariantViolated(
            "conjugate_chain", "chain closed form disagrees with primed blocks", spec
        )
    return ConjugateChain(
        PeriodicAngle(period=word),
        PeriodicAngle(period=cword),
        tuple(certificates),
    )


# event kinds of the pairing sweep, encoded as 4 * numerator + kind
_ANGLE, _OPEN, _CLOSE = 0, 1, 2


def _pair_regions(events: list[int], period: int) -> dict[int, int]:
    """Partner map of one period's angles, each chord entered from both ends.

    ``events`` are sorted codes ``4 * numerator + kind``: the new angles, and
    the ends of every lower chord, the smaller opening a region and the
    larger closing it.  The stack holds, per open region, its angle still
    waiting for a partner.
    """
    partner: dict[int, int] = {}
    waiting: list[int | None] = [None]
    for event in events:
        kind = event & 3
        if kind == _ANGLE:
            x, y = event >> 2, waiting[-1]
            if y is None:
                waiting[-1] = x
            else:
                partner[x], partner[y] = y, x
                waiting[-1] = None
        elif kind == _OPEN:
            waiting.append(None)
        elif waiting.pop() is not None or not waiting:
            break
    else:
        if waiting == [None]:
            return partner
    raise InvariantViolated("lavaurs_pairs", f"odd region at period {period}")


@cache
def _partners_at(period: int) -> dict[int, int]:
    """Lavaurs partner of every angle of one exact period, as numerators over
    _GRID, each chord entered from both ends."""
    if not 2 <= period <= LAVAURS_LIMIT:
        raise ValueError(f"period must be between 2 and {LAVAURS_LIMIT}")
    full = (1 << period) - 1
    # sieve out the numerators k/full of every period d | p, d < p: the
    # multiples of full / (2^d - 1)
    exact = bytearray(b"\x01") * full
    for d in range(1, period):
        if period % d == 0:
            exact[:: full // ((1 << d) - 1)] = bytes((1 << d) - 1)
    scale = 4 * (_GRID // full)
    events = [k * scale for k in compress(range(full), exact)]
    for lower in range(2, period):
        events += [
            4 * x + (_OPEN if x < y else _CLOSE)
            for x, y in _partners_at(lower).items()
        ]
    events.sort()
    return _pair_regions(events, period)


def lavaurs_pairs(period: int) -> set[tuple[Fraction, Fraction]]:
    """Partition the angles of one exact doubling period into conjugate pairs.

    Periods are processed in increasing order.  The chords of the lower
    periods cut the disc into regions; inside each region the angles of this
    period are joined in consecutive pairs, counted up from 0.  The tests
    hold this equal to Lavaurs' greedy rule, closest non-crossing neighbours
    first.  Capped at period 20: a desk-scale oracle, not a production path.
    """
    return {
        (Fraction(x, _GRID), Fraction(y, _GRID))
        for x, y in _partners_at(period).items()
        if x < y
    }


def lavaurs_partner(theta: Fraction) -> Fraction:
    """Partner of a periodic angle in the pairing of its exact period."""
    theta %= 1
    den = theta.denominator
    if den == 1 or den % 2 == 0:
        raise ValueError("angle is not periodic of period >= 2 under doubling")
    for period in range(2, LAVAURS_LIMIT + 1):
        if ((1 << period) - 1) % den == 0:
            break
    else:
        raise ValueError(f"period must be between 2 and {LAVAURS_LIMIT}")
    partner = _partners_at(period).get(theta.numerator * (_GRID // den))
    if partner is None:
        raise ValueError(f"{theta} missing from the period-{period} pairing")
    return Fraction(partner, _GRID)
