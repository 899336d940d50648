"""Conjugate angles via primed blocks, with two independent verifiers.

The production path primes every block of the decomposition.  The chain
verifier pulls the angle back one doubling step at a time and checks the
circle intervals stay unlinked.  Every point along the chain is a suffix of
the period word or of the conjugate word followed by theta, so it compares
with theta by the preimage signs, which order the conjugate word's tails
followed by one period against the period word twice, and by the rotation
signs of the period word, which the direct kneading reads too; both come
from words._factor_order (slices, or a Z-array for long words).
A period word of exact period b >= 2 mixes 0s and 1s, so no expansion ends
in 0^inf or 1^inf and comparing two expansions compares their values.
The check (_check_chain) only raises; the command line runs it alone, and
conjugate_chain runs it and then builds an UnlinkCertificate per step.  The
Lavaurs pairing is the other verifier, which ``conjugate --verify``,
``kneading-of-angle --check`` and sturmian_census read: the chords of the
lower periods cut the disc into regions, and inside each region the angles
of one exact period are joined in consecutive pairs, by one sweep over the
sorted chord endpoints.  There an angle is an integer numerator over the
lcm of all 2^p - 1 with p <= 20.  A ``Fraction`` is built only where a
public function returns one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress
from operator import xor

from .angles import PeriodicAngle, minimal_period
from .errors import InvariantViolated, UnlinkViolation
from .farey import BrokenLineSpec
from .mechanical import BlockDecomposition, block_decomposition, broken_line_word
from .words import Convention, _factor_order, _rotation_signs, prime_minus, prime_plus

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


def _primed_word(decomposition: BlockDecomposition) -> str:
    # the blocks of the decomposition, each primed: +1 under the 01
    # convention and -1 under 10
    zero_one = decomposition.spec.convention is Convention.ZERO_ONE
    prime = prime_plus if zero_one else prime_minus
    primed = {e: prime(w) for e, w in decomposition.block_words.items()}
    return "".join(map(primed.__getitem__, decomposition.exponents))


def conjugate_word(spec: BrokenLineSpec) -> str:
    """Period word of the conjugate angle: every block primed, +1 under the
    01 convention and -1 under 10."""
    return _primed_word(block_decomposition(spec))


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


def _preimage_signs(word: str, cword: str) -> bytes:
    """Byte j - 1, for j = 1..b-1, is 1 when P_j = cword[b-j:] theta lies
    above theta = word^inf, for a word of exact period b.

    P_j compares with theta as its first b + j digits, cword[b-j:] word,
    compare with word word[:j], which they cannot equal: rotation j of the
    word would equal the word.  With ww = word + word, that is the factor of
    cword + ww at b - j against ww; points of period b compare as their
    b-digit words.
    """
    ww = word + word
    return _factor_order(cword + ww, ww, len(word))[:0:-1]


def _check_chain(
    word: str, cword: str, up: bytes, spec: BrokenLineSpec | None = None
) -> None:
    """Check the preimage chain of theta = word^inf towards the candidate
    conjugate cword^inf, read from the two words and the rotation signs
    ``up = _rotation_signs(word)``.

    The k-th orbit point is O_k = word[b-k:] theta and the k-th preimage
    P_k = cword[b-k:] theta; the partition points are x1 = P_1 and x2 = O_1,
    that is theta/2 and (theta+1)/2.  A point d.z lies strictly between them
    when d = 0 and z > theta or d = 1 and z < theta, and on one of them when
    z = theta.  Raises unless x1 != x2 and, at every k >= 2, O_k and P_k lie
    on the same side of the partition.
    """
    b = len(word)
    # exact period b: rotation i of the word differs from it for 0 < i < b,
    # so no O_k or P_k with k >= 2 lies on a partition point
    if b < 2 or minimal_period(word) != b:
        raise InvariantViolated(
            "conjugate_chain", f"period word has no exact period {b}", spec
        )
    if len(cword) != b:
        raise InvariantViolated(
            "conjugate_chain", f"conjugate word has length {len(cword)}, not {b}", spec
        )
    if cword[-1] == word[-1]:
        raise UnlinkViolation(2, "the partition points coincide")
    # by k = 2..b: O_k = d (rotation b-k+1)^inf and P_k = e P_(k-1); d.z
    # lies between the partition points when the digit d and the sign of z
    # differ: the code of "0" or "1" xor 0 or 1 names the side
    orbit_sides = bytes(map(xor, word[-2::-1].encode(), up[:0:-1]))
    preimage_sides = bytes(
        map(xor, cword[-2::-1].encode(), _preimage_signs(word, cword))
    )
    if orbit_sides != preimage_sides:
        pairs = zip(range(2, b + 1), orbit_sides, preimage_sides)
        raise UnlinkViolation(next(k for k, x, y in pairs if x != y))


def conjugate_chain(spec: BrokenLineSpec) -> ConjugateChain:
    """Pull the broken-line angle back along the primed-block conjugate and
    certify every step.

    For every k >= 2 the interval from the k-th orbit point to the k-th
    preimage is unlinked from the partition interval.  The k-th preimage is
    the last k conjugate digits before theta, so it halves to the previous
    one and the b-th closes the chain on the conjugate by construction; the
    checks that remain are the ones above (see _check_chain).
    """
    word = broken_line_word(spec)
    cword = conjugate_word(spec)
    up = _rotation_signs(word)
    _check_chain(word, cword, up, spec)
    # O_k against x2 = last theta: by the first digit, then by the rotation;
    # a lazy pass, so that only the returned tuple holds b pointers
    zero_one = spec.convention is Convention.ZERO_ONE
    last = word[-1]
    cases = (
        (d > last if d != last else o_up) == zero_one
        for d, o_up in zip(word[-2::-1], reversed(up))
    )
    return ConjugateChain(
        PeriodicAngle(period=word),
        PeriodicAngle(period=cword),
        tuple(map(UnlinkCertificate, range(2, len(word) + 1), cases)),
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
