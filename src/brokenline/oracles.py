"""The independent verifiers of the construction, apart from the paths they
check: the word oracles, the checks the command line runs, and the Lavaurs
pairing.  The kneading read off a period word is also kneading_of_angle's,
which the spec commands' checks hold the structural kneading against.

The word oracles read a period word by the order of its factors,
_factor_order: slices below period 64; up to period 2^14, a bit-parallel
prefix of 24 digits, then a slice for each factor still tied, however many
tie, for the rotation and the preimage signs alike; a Z-array in linear time
above.  One integer XOR of the word's digit bytes with its rotation signs
gives the orbit's itinerary, the direct kneading, and the kneading check,
the preimage chain and its certificates all read it.  The chain pulls the
angle back along a candidate conjugate word one doubling step at a time,
checking that the circle intervals stay unlinked: each preimage, a suffix
of the conjugate word followed by theta, compares with theta by the
preimage signs, which order the conjugate word's tails followed by one
period against the period word twice, and must lie on the side the
itinerary gives the orbit point of its step.  A period word of exact period
b >= 2 mixes 0s and 1s, so no expansion ends in 0^inf or 1^inf and
comparing two expansions compares their values.

The Lavaurs pairing is the other verifier, which ``conjugate --verify``,
``kneading-of-angle --check`` and sturmian_census read: the chords of the
lower periods cut the disc into regions, and inside each region the angles
of one exact period are joined in consecutive pairs, by one sweep over the
sorted chord endpoints.  Its angles are integer numerators over 2^p - 1, as
in the enumeration and the census; the sweep places each lower chord end in
the gap between two such numerators, so it needs no common denominator.
Both pairing checks, ``conjugate --verify`` and ``kneading-of-angle
--check``, read it through _pairing_partner, by the period word's integer
key, up to their period budget LAVAURS_VERIFY_LIMIT.
A ``Fraction`` is built only where a public function returns one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import compress

from .angles import minimal_period
from .errors import InvariantViolated, UnlinkViolation
from .farey import BrokenLineSpec
from .words import is_sturmian

# most factors compared as slices: up to it memcmp beats the interpreted
# Z-array, even on 0^(b-1) 1, where every slice ties, for words of one or
# two periods
_SLICES_UP_TO = 1 << 14
# from _PREFIX_FROM factors on, every factor is first read on its leading
# _PREFIX_DIGITS digits at once, by whole-integer operations (below, their
# fixed cost loses to the slices), and each factor still tied then by a
# slice of its own.  A balanced word has only L + 1 factors of length L, so
# about count / (L + 1) factors still tie with the word after L digits
_PREFIX_FROM = 64
_PREFIX_DIGITS = 24
_BIT = bytes.maketrans(b"01", b"\0\1")  # digit characters to bytes 0 and 1


def _z_array(s: str, stop: int) -> list[int]:
    """z[i], for i < stop, is the length of the longest common prefix of s
    and s[i:]; z[0] is len(s).  Linear in len(s): every character compared
    equal moves the right end of the rightmost match found so far."""
    n = len(s)
    z = [n] * stop
    left = right = 0  # s[left:right] == s[:right - left]
    for i in range(1, stop):
        k = 0
        if i < right:
            k = z[i - left]
            if i + k < right:
                z[i] = k
                continue
            k = right - i
        while i + k < n and s[k] == s[i + k]:
            k += 1
        z[i] = k
        left, right = i, i + k
    return z


def _factor_order_by_z(text: str, word: str, count: int) -> bytes:
    # _factor_order from the longest common prefix of each factor with the
    # word, read off the Z-array of word + text, or of the text alone when
    # it starts with the word
    b = len(word)
    base = 0 if text.startswith(word) else b
    z = _z_array(word[:base] + text, base + count)
    return bytes(
        (k := z[base + s]) < b and text[s + k] > word[k] for s in range(count)
    )


def _factor_order(text: str, word: str, count: int) -> bytes:
    """Byte s, for s < count, is ``text[s:s + b] > word``, b = len(word);
    the text holds all count factors in full.

    Fewer than _PREFIX_FROM factors are compared as slices, one each.  More
    than _SLICES_UP_TO factors read the order off a Z-array, so no text is
    quadratic.  Any count between settles every factor on its first
    _PREFIX_DIGITS digits at once, by a few integer operations per digit,
    then each factor still tied as a slice of its own, however many tie.  The
    gate is the count, not the word: the preimage signs of period b compare b
    factors with a word of 2b digits, and on the prefix they cost what the
    rotation signs of the same period cost.
    """
    b = len(word)
    if count >= _PREFIX_FROM:
        if count > _SLICES_UP_TO:
            # no workload reaches it, but slices would be quadratic at b = 10^5
            return _factor_order_by_z(text, word, count)
        # bit s of ones >> k is text[s + k]; tied and above mask the factors
        # equal to the word so far and those already above it
        digits = min(_PREFIX_DIGITS, b)
        ones = int(text[: count + digits - 1][::-1], 2)
        tied, above = (1 << count) - 1, 0
        for k in range(digits):
            shifted = ones >> k
            if word[k] == "0":
                above |= tied & shifted
                tied &= ~shifted
            else:
                tied &= shifted
        ties = format(tied, f"0{count}b")[::-1]
        signs = format(above, f"0{count}b")[::-1].encode()
        signs = bytearray(signs.translate(_BIT))
        s = ties.find("1")
        while s >= 0:
            signs[s] = text[s : s + b] > word
            s = ties.find("1", s + 1)
        return bytes(signs)
    # a slice each, one memcmp: beats the prefix's fixed cost on few factors
    return bytes(text[s : s + b] > word for s in range(count))


def _rotation_signs(word: str) -> bytes:
    """One byte per rotation of the word: byte i is 1 when rotation i lies
    above the word, ``ww[i:i+b] > word`` with ``ww = word + word``.  The
    direct kneading alone reads it, and both word oracles read that."""
    return _factor_order(word + word, word, len(word))


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


def _xor(x: bytes, y: bytes) -> bytes:
    # bytewise x ^ y of two equal-length strings, as one integer XOR
    xy = int.from_bytes(x, "big") ^ int.from_bytes(y, "big")
    return xy.to_bytes(len(x), "big")


def _check_chain(
    word: str, cword: str, body: str, spec: BrokenLineSpec | None = None
) -> None:
    """Check the preimage chain of theta = word^inf towards the candidate
    conjugate cword^inf, read from the two words and the orbit's itinerary
    ``body = _kneading_of_word(word)``, whose reader holds the word to exact
    period b >= 2, so no O_k or P_k with k >= 2 lies on a partition point.

    The k-th orbit point is O_k = word[b-k:] theta and the k-th preimage
    P_k = cword[b-k:] theta; the partition points are x1 = P_1 and x2 = O_1,
    that is theta/2 and (theta+1)/2.  A point d.z lies strictly between them
    when d = 0 and z > theta or d = 1 and z < theta, and on one of them when
    z = theta.  Raises unless x1 != x2 and, at every k >= 2, P_k lies on the
    side of O_k, which is slot b - k of the itinerary.
    """
    b = len(word)
    if len(body) != b - 1:
        raise InvariantViolated(
            "conjugate_chain", f"itinerary has length {len(body)}, not {b - 1}", spec
        )
    if len(cword) != b:
        raise InvariantViolated(
            "conjugate_chain", f"conjugate word has length {len(cword)}, not {b}", spec
        )
    if cword[-1] == word[-1]:
        raise UnlinkViolation(2, "the partition points coincide")
    # by k = 2..b, against the itinerary read backwards: P_k = e P_(k-1) lies
    # between the partition points when the digit e and the sign of P_(k-1)
    # differ: the code of "0" or "1" xor 0 or 1 names the side
    sides = _xor(cword[-2::-1].encode(), _preimage_signs(word, cword)).decode()
    if sides != body[::-1]:
        pairs = zip(range(2, b + 1), reversed(body), sides)
        raise UnlinkViolation(next(k for k, x, y in pairs if x != y))


def _kneading_of_word(word: str) -> str:
    """The body of the kneading of theta = word^inf, all but its final star:
    the orbit's itinerary, read from the word and its rotation signs.

    Orbit point i is d.z with d = word[i] and z = rotation i+1 of the word,
    repeated; it lies strictly between theta/2 and (theta+1)/2 when d = 0 and
    z > theta or d = 1 and z < theta, and on one of them when z = theta.
    Points of period b compare as their b-digit words.  With exact period b
    only the last orbit point, whose z is theta itself, lies on a partition
    point: the star.  kneading_of_angle, the kneading check, the preimage
    chain and its certificates all read this one itinerary.
    """
    b = len(word)
    if b < 2 or minimal_period(word) != b:
        raise InvariantViolated("kneading_of_word", f"word has no exact period {b}")
    # slot i-1 is 1 exactly when digit i-1 and the sign of rotation i differ:
    # the code of "0" or "1" xor 0 or 1 is the slot's own character
    return _xor(word[:-1].encode(), _rotation_signs(word)[1:]).decode()


def _check_kneading(spec: BrokenLineSpec, symbols: str, body: str) -> None:
    # the structural kneading's symbols against the itinerary of the orbit
    if symbols != body + "*":
        raise InvariantViolated(
            "kneading_of_spec", "structural and direct kneading disagree", spec
        )


def _check_spec(spec: BrokenLineSpec, word: str, cword: str, symbols: str) -> None:
    # the balance of the period word, then the word's itinerary, read once,
    # against the structural kneading's symbols and by the preimage chain;
    # the spoke bracket is left to the caller
    if not is_sturmian(word):
        raise InvariantViolated(
            "broken_line_word", "period word fails the balance test", spec
        )
    body = _kneading_of_word(word)
    _check_kneading(spec, symbols, body)
    _check_chain(word, cword, body, spec)


LAVAURS_LIMIT = 20
# the highest period the command line's pairing checks run at, and their
# verdict past it
LAVAURS_VERIFY_LIMIT = 16
_PAIRING_SKIPPED = f"skipped (period > {LAVAURS_VERIFY_LIMIT})"

# event kinds of the pairing sweep, encoded as 4 * position + kind; in one
# gap between angles the closes come first: a chord opened in the gap and
# closed past a chord that closes in it would cross that chord
_ANGLE, _CLOSE, _OPEN = 0, 1, 2


def _pair_regions(events: list[int], period: int) -> dict[int, int]:
    """Partner map of one period's angles, each chord entered from both ends.

    ``events`` are sorted codes ``4 * position + kind``: the new angles, and
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
    2^period - 1, each chord entered from both ends.  The sweep places each
    lower chord end by the gap between consecutive numerators it falls in,
    so the periods share no common grid."""
    if not 2 <= period <= LAVAURS_LIMIT:
        raise ValueError(f"period must be between 2 and {LAVAURS_LIMIT}")
    full = (1 << period) - 1
    # sieve out the numerators k/full of every period d | p, d < p: the
    # multiples of full / (2^d - 1)
    exact = bytearray(b"\x01") * full
    for d in range(1, period):
        if period % d == 0:
            exact[:: full // ((1 << d) - 1)] = bytes((1 << d) - 1)
    # the end x / (2^l - 1) falls in the gap after angle x * full // (2^l - 1),
    # more than full / (2^l - 1) > 2 positions from its chord's other end
    events = [4 * k for k in compress(range(full), exact)]
    for lower in range(2, period):
        step = (1 << lower) - 1
        events += [
            4 * (x * full // step) + (_OPEN if x < y else _CLOSE)
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
    partners = _partners_at(period)
    full = (1 << period) - 1
    return {
        (Fraction(x, full), Fraction(y, full)) for x, y in partners.items() if x < y
    }


def _partner_of(period: int, key: int) -> int:
    # the partner of key / (2^period - 1) in the pairing of its exact period
    if (partner := _partners_at(period).get(key)) is None:
        theta = Fraction(key, (1 << period) - 1)
        raise ValueError(f"{theta} missing from the period-{period} pairing")
    return partner


def lavaurs_partner(theta: Fraction) -> Fraction:
    """Partner of a periodic angle in the pairing of its exact period."""
    theta %= 1
    den = theta.denominator
    if den == 1 or den % 2 == 0:
        raise ValueError("angle is not periodic of period >= 2 under doubling")
    for period in range(2, LAVAURS_LIMIT + 1):
        full = (1 << period) - 1
        if full % den == 0:
            break
    else:
        raise ValueError(f"period must be between 2 and {LAVAURS_LIMIT}")
    return Fraction(_partner_of(period, theta.numerator * (full // den)), full)


def _pairing_partner(word: str) -> str | None:
    """The period word of the Lavaurs partner of the period word ``word``,
    or None past LAVAURS_VERIFY_LIMIT.  A period word's exact period is its
    length, so the pairing is read by integer key, the word's value over
    2^b - 1, and no Fraction is built.  A word missing from the pairing
    raises the ValueError lavaurs_partner raises."""
    b = len(word)
    if b > LAVAURS_VERIFY_LIMIT:
        return None
    return format(_partner_of(b, int(word, 2)), f"0{b}b")


def _check_pairing(word: str, cword: str, spec: BrokenLineSpec) -> str:
    """The pairing check of ``conjugate --verify``: its verdict, "ok" or the
    skip text past the period budget; InvariantViolated unless the Lavaurs
    pairing pairs the period word ``word`` with ``cword``."""
    if (partner := _pairing_partner(word)) is None:
        return _PAIRING_SKIPPED
    if partner != cword:
        raise InvariantViolated("conjugate_word", "pairing oracle disagrees", spec)
    return "ok"
