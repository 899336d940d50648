"""Conjugate angles via primed blocks, with two independent verifiers.

The production path primes every block of the decomposition.  The chain
verifier pulls the angle back one doubling step at a time and certifies the
circle intervals stay unlinked; the Lavaurs pairing is a test-only oracle
that matches angles of one exact period by non-crossing chords.  Inside
both, an angle is an integer numerator over one fixed denominator:
2^b (2^b - 1) along the chain, the lcm of all 2^p - 1 with p <= 20 in the
pairing.  A ``Fraction`` is built only where a public function returns one.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .angles import PeriodicAngle, minimal_period, multiplicative_order
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
    reproduces the primed-block conjugate.
    """
    word = broken_line_word(spec)
    b = len(word)
    cword = conjugate_word(spec)
    full = (1 << b) - 1
    # every orbit point and preimage is an integer over den = 2^b (2^b - 1)
    den = full << b
    t = int(word, 2) % full
    theta = t << b

    orbit = [theta]
    for _ in range(b - 1):
        orbit.append(2 * orbit[-1] % den)
    # (c + theta) / 2^k over den, c the last k conjugate digits; c * full by shifts
    preimages = [
        (((c := int(cword[b - k :], 2)) << b) - c + t) << (b - k)
        for k in range(1, b + 1)
    ]
    if 2 * preimages[0] % den != theta:
        raise InvariantViolated(
            "conjugate_chain", "first preimage does not halve the angle", spec
        )
    for k in range(2, b + 1):
        if 2 * preimages[k - 1] % den != preimages[k - 2]:
            raise InvariantViolated("conjugate_chain", f"chain breaks at step {k}", spec)

    x1, x2 = preimages[0], orbit[b - 1]
    zero_one = spec.convention is Convention.ZERO_ONE
    certificates = []
    for k in range(2, b + 1):
        y1, y2 = orbit[b - k], preimages[k - 1]
        if len({x1, x2, y1, y2}) != 4 or not unlinked((x1, x2), (y1, y2)):
            raise UnlinkViolation(k)
        case = (y1 > x2) if zero_one else (y1 < x2)
        certificates.append(UnlinkCertificate(k, case))

    # theta + (last - theta) / (1 - 2^-b) == conjugate, times den * (2^b - 1)
    conj = int(cword, 2) % full
    if theta * full + ((preimages[b - 1] - theta) << b) != conj * den:
        raise InvariantViolated(
            "conjugate_chain", "chain closed form disagrees with primed blocks", spec
        )
    return ConjugateChain(
        PeriodicAngle(period=word),
        PeriodicAngle(period=cword),
        tuple(certificates),
    )


@cache
def _pairs_at(period: int) -> tuple[tuple[int, int], ...]:
    """Chords of one exact period as sorted numerator pairs over _GRID."""
    if not 2 <= period <= LAVAURS_LIMIT:
        raise ValueError(f"period must be between 2 and {LAVAURS_LIMIT}")
    endpoints: list[int] = []
    partner: dict[int, int] = {}
    for lower in range(2, period):
        for x, y in _pairs_at(lower):
            partner[x] = y
            partner[y] = x
            endpoints.append(x)
            endpoints.append(y)
    endpoints.sort()

    def crosses(lo: int, hi: int) -> bool:
        # chord {lo, hi}, lo < hi, against every existing chord: they cross
        # exactly when one endpoint of the other lies strictly between lo and
        # hi.  Existing chords never cross each other, so once a chord is
        # known to sit inside (lo, hi) the whole span it encloses is skipped
        i = bisect_right(endpoints, lo)
        stop = bisect_left(endpoints, hi)
        while i < stop:
            e = endpoints[i]
            mate = partner[e]
            if not lo < mate < hi:
                return True
            i = bisect_right(endpoints, mate, i + 1, stop) if mate > e else i + 1
        return False

    full = (1 << period) - 1
    scale = _GRID // full
    width = f"0{period}b"
    angles = [
        k * scale
        for k in range(1, full)
        if minimal_period(format(k, width)) == period
    ]
    count = len(angles)
    pairs: list[tuple[int, int]] = []
    nxt = list(range(1, count)) + [0]
    prv = [count - 1] + list(range(count - 1))
    done = [False] * count
    heap = [((angles[nxt[i]] - angles[i]) % _GRID, i, nxt[i]) for i in range(count)]
    heapq.heapify(heap)
    remaining = count
    while remaining:
        if not heap:
            raise InvariantViolated(
                "lavaurs_pairs", f"pairing stalled at period {period}"
            )
        _, i, j = heapq.heappop(heap)
        if done[i] or done[j]:
            continue
        x, y = angles[i], angles[j]
        if x > y:
            x, y = y, x
        if crosses(x, y):
            continue  # blocked for good: chords are never removed
        pairs.append((x, y))
        done[i] = done[j] = True
        remaining -= 2
        partner[x] = y
        partner[y] = x
        insort(endpoints, x)
        insort(endpoints, y)
        before, after = prv[i], nxt[j]
        nxt[before] = after
        prv[after] = before
        if remaining >= 2:
            heapq.heappush(
                heap, ((angles[after] - angles[before]) % _GRID, before, after)
            )
    return tuple(sorted(pairs))


def lavaurs_pairs(period: int) -> set[tuple[Fraction, Fraction]]:
    """Partition the angles of one exact doubling period into conjugate pairs.

    Periods are processed in increasing order; within a period, the closest
    cyclically adjacent unpaired angles whose chord crosses no existing chord
    are joined first (ties broken by the smaller left endpoint).  Capped at
    period 20: this is a desk-scale oracle, not a production path.
    """
    return {(Fraction(x, _GRID), Fraction(y, _GRID)) for x, y in _pairs_at(period)}


def lavaurs_partner(theta: Fraction) -> Fraction:
    """Partner of a periodic angle in the pairing of its exact period."""
    theta %= 1
    den = theta.denominator
    if den == 1 or den % 2 == 0:
        raise ValueError("angle is not periodic of period >= 2 under doubling")
    period = multiplicative_order(2, den)
    target = theta.numerator * (_GRID // den)
    for x, y in _pairs_at(period):
        if x == target:
            return Fraction(y, _GRID)
        if y == target:
            return Fraction(x, _GRID)
    raise ValueError(f"{theta} missing from the period-{period} pairing")
