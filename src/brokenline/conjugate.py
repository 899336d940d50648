"""Conjugate angles via primed blocks, and the certificate of their
preimage chain.

The production path primes the two block words of the period and spells
the block pattern with them.
conjugate_chain runs the chain check of the oracles module on the period
word's itinerary and the two words, then reads an UnlinkCertificate per
step off the same itinerary.  The
Lavaurs pairing lives in the oracles module too; lavaurs_pairs and
lavaurs_partner are bound here as well, where the public API has them.
"""

from __future__ import annotations

from fractions import Fraction

from .angles import PeriodicAngle, _Value
from .farey import BrokenLineSpec
from .mechanical import _blocks, _spell_pattern, broken_line_word
from .oracles import _check_chain, _kneading_of_word, lavaurs_pairs, lavaurs_partner
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


def _primed_word(convention: Convention, pattern: tuple, low: str, high: str) -> str:
    # the block pattern spelled with each block word primed: +1 under the 01
    # convention and -1 under 10; the empty word of a single block's missing
    # block m + 1 stays empty
    prime = prime_plus if convention is Convention.ZERO_ONE else prime_minus
    return _spell_pattern(pattern, prime(low), high and prime(high))


def conjugate_word(spec: BrokenLineSpec) -> str:
    """Period word of the conjugate angle: every block primed, +1 under the
    01 convention and -1 under 10."""
    _, pattern, low, high = _blocks(spec)
    return _primed_word(spec.convention, pattern, low, high)


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


class UnlinkCertificate(_Value):
    """Outcome of one unlinking check along the preimage chain.

    ``digit_zero_case`` records which side the orbit point fell on: True when
    it sits past the far partition point, which is exactly when the matching
    kneading entry is 0.
    """

    __match_args__ = ("index", "digit_zero_case")

    def __init__(self, index: int, digit_zero_case: bool) -> None:
        self.__dict__.update(index=index, digit_zero_case=digit_zero_case)


class ConjugateChain(_Value):
    """A broken-line angle, its conjugate, and one UnlinkCertificate per step
    k = 2..b of the preimage chain that pulls the angle back to the
    conjugate."""

    __match_args__ = ("theta", "conjugate", "certificates")

    def __init__(
        self,
        theta: PeriodicAngle,
        conjugate: PeriodicAngle,
        certificates: tuple[UnlinkCertificate, ...],
    ) -> None:
        self.__dict__.update(
            theta=theta, conjugate=conjugate, certificates=certificates
        )

    @property
    def preimages(self) -> tuple[PeriodicAngle, ...]:
        """The k-th preimage is 0.[last k digits of the conjugate](theta),
        for k = 1..b; both stored periods are the full primitive words."""
        word, cword = self.theta.period, self.conjugate.period
        b = len(word)
        return tuple(PeriodicAngle(cword[b - k :], word) for k in range(1, b + 1))


def conjugate_chain(spec: BrokenLineSpec) -> ConjugateChain:
    """Pull the broken-line angle back along the primed-block conjugate and
    certify every step.

    For every k >= 2 the interval from the k-th orbit point to the k-th
    preimage is unlinked from the partition interval.  The k-th preimage is
    the last k conjugate digits before theta, so it halves to the previous
    one and the b-th closes the chain on the conjugate by construction; the
    checks that remain are those of oracles._check_chain.  Step k is the zero
    case when slot b - k of the itinerary, the direct kneading, is 0.
    """
    word = broken_line_word(spec)
    cword = conjugate_word(spec)
    body = _kneading_of_word(word)
    _check_chain(word, cword, body, spec)
    # step k's case is slot b - k of the itinerary; a lazy pass, so that only
    # the returned tuple holds b pointers
    cases = map("0".__eq__, reversed(body))
    return ConjugateChain(
        PeriodicAngle(period=word),
        PeriodicAngle(period=cword),
        tuple(map(UnlinkCertificate, range(2, len(word) + 1), cases)),
    )
