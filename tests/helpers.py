"""Shared oracles and sweeps for the test modules.

Everything here is deliberately independent of the production code paths it
is used to check: the pair rewriter scans for literal "01" pairs, the digit
rule tracks fractional parts of multiples (production runs the standard-word
recursion), the mediant word and the descent tags concatenate parent words
down the Stern-Brocot tree, the base-index scan walks the single-block
slopes one Fraction at a time (production divides once), the tag parse
reads the block exponents off the descent tags, the longer block first, and
the tag-run kneading marks slots tag by tag over Fraction tags (production
spells both from one closed-form block pattern), the run blocks spell block m
as m parent words set into hinge-sized limb runs, L^n (P L^(n-1))^(m-1) P,
with block 0 a case of its own (production writes every block as
L (L^(n-1) P)^m, one head and m units), the digit tuning joins one bulb
word per digit (production writes each digit with one str.translate), the
replace substitution writes a word of 0s and 1s with two words by three
str.replace passes (production spells the block pattern by the
standard-word recursion with the two words as its letters), the
orbit test just iterates the doubling map, the
orbit walk reads a kneading off the integer numerators of the doubling
orbit (production reads the rotation signs of the period word), the
balance tests count the 1s of every cyclic factor or look for the word among
the rotations of the Christoffel word of its density, spelled from the
floors of j m / n (production desubstitutes the word, run by run), the
census set is built from digit-rule rotations alone, the parameter sweep
tries every limb, hinge and slope instead of walking the Stern-Brocot tree,
and the per-spec enumeration builds every period word through
broken_line_word and keys it by its Fraction (production rotates one word
per slope and keys by integers).
The enumeration by validation walks stern_brocot_path and calls validate_spec
once per candidate (production walks integer pairs and builds one context per
node, hinge and convention), the straight-run rows cap each node's hinges by
the run of nodes after its turn and match limb strings against the slope
word's end (production takes hinges while the bound inequality holds and
carries the limb words' values down the walk), the word census tests every word on its own over
the Fraction pairs of lavaurs_pairs (production tests one word per doubling
orbit over integer chords), the rotation census rebuilds each orbit from
string rotations and minimal_period (production doubles integers), and the
long division reads an angle's expansion digit by digit (production
canonicalizes PeriodicAngle on its words).  The cutting word sorts one
(abscissa, symbol) tuple per crossing (production sorts integers whose
parity is the symbol), the contraction scan rewrites
the cutting word letter by letter (production tests it once and rewrites
with str.replace), the heap pairing joins the
closest non-crossing neighbours first with a crossing test per chord
(production sweeps the regions of the lower chords once).  The stored chain
keeps every orbit point and preimage and checks each list in a pass of its
own, and the integer chain streams them as integer numerators over
2^b (2^b - 1), with its halving and closed-form checks (production orders
the factors of the period word and the conjugate word by
oracles._factor_order).  The slice signs compare every rotation of the period word
and every preimage with theta by one full slice each, at every length
(production, in oracles._factor_order, compares slices below period 64,
settles every factor on a bit-parallel prefix up to 2^14 digits with a slice
for each factor still tied, and reads the order off a Z-array above).  The
object payload writes `enumerate --period B` from the Fractions and specs of
the enumeration's entries (production writes it from the integer rows), and
the block lists of `broken --all` are built item by item from the exponents
(production spells them from the block pattern by the standard-word
recursion).  The transcription inversion writes every kneading block out
as limb and parent words and counts the 1s of the word (production reads
the slope off the block counts).
"""

import contextlib
import heapq
import math
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import gcd, inf, lcm
from operator import floordiv, sub

import pytest

from brokenline import (
    BrokenLineSpec,
    ConjugateChain,
    Convention,
    FareyContext,
    HypothesisViolated,
    InvariantViolated,
    KneadingSequence,
    MalformedCuttingSequence,
    NotBrokenLineKneading,
    PeriodicAngle,
    UnlinkCertificate,
    UnlinkViolation,
    broken_line_tags,
    broken_line_word,
    conjugate_word,
    enumerate_specs,
    euler_phi,
    is_sturmian,
    kneading_of_spec,
    lavaurs_pairs,
    mechanical_word,
    mediant,
    minimal_period,
    rotate_left,
    single_block_slope,
    stern_brocot_path,
    sturmian_census,
    unlinked,
    validate_spec,
    word_to_fraction,
)
from brokenline import oracles
from brokenline.atlas import _TURNS
from brokenline.farey import _check_hinge
from brokenline.oracles import _partners_at
from brokenline.words import _digits

CONVENTIONS = (Convention.ZERO_ONE, Convention.ONE_ZERO)


def reduced_fractions(max_den, min_den=2):
    for q in range(min_den, max_den + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield Fraction(p, q)


@cache
def all_specs(b_min, b_max):
    return tuple(
        spec
        for b in range(b_min, b_max + 1)
        for spec in enumerate_specs(b).specs()
    )


def pair_rewrite(word):
    """Left-to-right rewriting of literal "01" pairs into "1"."""
    out = []
    i = 0
    while i < len(word):
        if word[i : i + 2] == "01":
            out.append("1")
            i += 2
        else:
            out.append(word[i])
            i += 1
    return "".join(out)


def balanced_by_factor_counts(word):
    """Balance of the biinfinite repetition by definition: for every length,
    the 1-counts of the cyclic factors of that length differ by at most one.
    Quadratic in the word length."""
    n = len(word)
    prefix = [0]
    for ch in word + word:
        prefix.append(prefix[-1] + (ch == "1"))
    for length in range(2, n + 1):
        counts = [prefix[i + length] - prefix[i] for i in range(n)]
        if max(counts) - min(counts) > 1:
            return False
    return True


# the bytes 0 and 1 as the digits "0" and "1"
_DIGIT = bytes.maketrans(b"\0\1", b"01")


def balanced_by_christoffel(word):
    """Balance of the biinfinite repetition as a rotation of the Christoffel
    word of the word's density, whose digit j is floor((j+1) m / n) -
    floor(j m / n), m the word's 1-count (Lothaire, Algebraic Combinatorics
    on Words, ch. 2).  A word whose cyclic factors include both 00 and 11
    fails at once: their 1-counts differ by two."""
    cyclic = word + word[:1]
    if "00" in cyclic and "11" in cyclic:
        return False
    n, m = len(word), word.count("1")
    if not m:
        return True  # the all-zeros word, balanced
    floors = list(map(floordiv, range(0, (n + 1) * m, m), repeat(n)))
    christoffel = bytes(map(sub, floors[1:], floors)).translate(_DIGIT).decode()
    return word in christoffel + christoffel


def digit_rule(p, q):
    """Digits 1..q-2 of the p/q Christoffel word: digit j is 0 when j*p/q
    mod 1 lands in [0, 1 - p/q), one digit at a time."""
    return "".join(["0" if (j * p) % q < q - p else "1" for j in range(1, q - 1)])


def rotation_digit_word(p_over_q, convention):
    """Digit rule: entry j is 0 when j*p/q mod 1 lands in (0, 1 - p/q)."""
    return digit_rule(p_over_q.numerator, p_over_q.denominator) + convention.value


def broken_word_by_digit_rule(spec):
    """The broken-line period word: the digit-rule word of the slope with its
    last hinge*Q letters moved to the front."""
    word = rotation_digit_word(spec.slope, spec.convention)
    cut = spec.hinge * spec.p_over_q.denominator
    return word[-cut:] + word[:-cut]


def _node_word(node, w_lo, w_hi, convention):
    num, den = node.numerator, node.denominator
    if convention is Convention.ZERO_ONE:
        if num == 1:
            return "0" * (den - 1) + "1"
        return w_hi + w_lo
    if num == 1:
        return "0" * (den - 2) + "10"
    if den - num == 1:
        return "1" * num + "0"
    return w_lo + w_hi


def mediant_word(p_over_q, convention):
    """Recursive construction: a node's word is the concatenation of its two
    Stern-Brocot parents' words, (hi)(lo) under 01 and (lo)(hi) under 10,
    seeded by the closed forms for slopes 1/m and m/(m+1)."""
    if convention is Convention.ZERO_ONE and p_over_q == 1:
        return "1"
    if convention is Convention.ONE_ZERO and p_over_q == 0:
        return "0"
    lo, hi = Fraction(0), Fraction(1)
    w_lo = "0" if convention is Convention.ONE_ZERO else ""
    w_hi = "1" if convention is Convention.ZERO_ONE else ""
    while True:
        node = mediant(lo, hi)
        word = _node_word(node, w_lo, w_hi, convention)
        if node == p_over_q:
            return word
        if p_over_q < node:
            hi, w_hi = node, word
        else:
            lo, w_lo = node, word


def descent_tags(x, lo, hi, convention):
    """Labels of x's word over lo-words and hi-words, read by descending from
    (lo, hi) to x and concatenating the parents' label lists."""
    zero_one = convention is Convention.ZERO_ONE
    left, right = lo, hi
    exp_lo, exp_hi = [lo], [hi]
    while True:
        node = mediant(left, right)
        exp = exp_hi + exp_lo if zero_one else exp_lo + exp_hi
        if node == x:
            return exp
        if x < node:
            right, exp_hi = node, exp
        else:
            left, exp_lo = node, exp


def tags_by_descent(spec):
    """broken_line_tags from the descent tags of the slope over the limb and
    the bound: each bound tag is the parent followed by hinge - 1 limbs, and
    the trailing hinge run of limbs moves to the front."""
    ctx = spec.context
    limb, n = ctx.p_over_q, ctx.hinge
    if spec.convention is Convention.ZERO_ONE:
        raw = descent_tags(spec.slope, limb, ctx.bound, spec.convention)
        parent = ctx.upper_parent
    else:
        raw = descent_tags(spec.slope, ctx.bound, limb, spec.convention)
        parent = ctx.lower_parent
    tags = []
    for tag in raw:
        tags.extend([limb] if tag == limb else [parent] + [limb] * (n - 1))
    assert tags[-n:] == [limb] * n
    return [limb] * n + tags[:-n]


def doubling_orbit(theta):
    orbit = {theta}
    x = 2 * theta % 1
    while x != theta:
        orbit.add(x)
        x = 2 * x % 1
    return orbit


def kneading_by_orbit_walk(theta):
    """(kneading, resolved) of a periodic theta in (0, 1): the itinerary of
    its doubling orbit against theta/2 and (theta + 1)/2, walked as integer
    numerators over theta's denominator, and its body with the star resolved
    to the side of the partition point that the final orbit point hits, 1
    on the upper one and 0 on the lower.  Quadratic in the period: each
    step costs the width of the denominator."""
    k, den = theta.numerator, theta.denominator
    upper = k + den
    symbols = []
    x = k
    while (twice := 2 * x) != k and twice != upper:
        symbols.append("1" if k < twice < upper else "0")
        # 0 <= twice < 2 den, so doubling mod den is one subtraction
        x = twice - den if twice >= den else twice
    body = "".join(symbols)
    return body + "*", body + ("1" if twice == upper else "0")


def period_by_divisors(word):
    # the least d dividing len(word) such that the word is its first d
    # digits repeated
    n = len(word)
    return next(
        d for d in range(1, n + 1) if n % d == 0 and word[:d] * (n // d) == word
    )


def all_words(length):
    # the leading 1 of k + 2^length keeps the zeros, and length 0 the empty word
    return (bin(k | 1 << length)[3:] for k in range(1 << length))


def census_angles(b):
    """The (b-2)*phi(b) angles the census formula counts, as a set.

    A balanced cyclic word of exact period b is a rotation of the digit-rule
    word of some a/b with gcd(a, b) = 1, and each such a/b gives b distinct
    rotations.  Two of them, the 01 and 10 digit-rule words themselves, are
    the characteristic pair of the a/b bulb: they are paired with each other
    on one doubling cycle, so they land at a satellite component and are
    dropped.
    """
    out = set()
    for a in range(1, b):
        if gcd(a, b) != 1:
            continue
        slope = Fraction(a, b)
        word = rotation_digit_word(slope, Convention.ZERO_ONE)
        out |= {word_to_fraction(word[i:] + word[:i]) for i in range(b)}
        out -= {
            word_to_fraction(rotation_digit_word(slope, convention))
            for convention in CONVENTIONS
        }
    return out


def parameter_sweep_angles(b):
    """Angles of every parameter choice validate_spec accepts at period b.

    Tries every limb P/Q, hinge, convention and slope a/b.  A fraction
    strictly between two Farey neighbours has at least the sum of their
    denominators, and the hinge bound is a Farey neighbour of P/Q with
    denominator above (hinge-1)*Q, so an accepted slope has b > hinge*Q:
    the loops over Q < b and hinge*Q < b miss no accepted choice.
    """
    out = set()
    for limb in reduced_fractions(b - 1):
        for hinge in range(1, (b - 1) // limb.denominator + 1):
            for convention in CONVENTIONS:
                for slope in reduced_fractions(b, min_den=b):
                    try:
                        spec = validate_spec(limb, slope, hinge, convention)
                    except HypothesisViolated:
                        continue
                    out.add(word_to_fraction(broken_line_word(spec)))
    return out


def enumerate_specs_per_spec(period):
    """The entries of enumerate_specs(period), one spec at a time: every
    candidate of the Stern-Brocot path is validated, its period word built by
    broken_line_word and its angle by word_to_fraction, one (angle, spec)
    pair per angle sorted by angle.  An angle met twice fails the test."""
    found = {}
    for a in range(1, period):
        if gcd(a, period) != 1:
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
                _add_once(found, angle, spec, period)
    return tuple((angle, found[angle]) for angle in sorted(found))


def _add_once(found, key, spec, period):
    """Record spec under key, failing with the period and both specs if the
    key was met before: the enumeration is injective."""
    if key in found:
        raise AssertionError(
            f"period {period}: {found[key]!r} and {spec!r} give one angle"
        )
    found[key] = spec


def enumerate_by_validation(period):
    """The entries of enumerate_specs(period) by validating every candidate
    of each slope's Stern-Brocot path with validate_spec: the slope word is
    built once per convention and each choice's period word is that word with
    its trailing hinge prefix rotated to the front, keyed by its integer
    numerator over 2^period - 1, one (angle, spec) pair per angle.  A key
    met twice fails the test."""
    found = {}
    for a in range(1, period):
        if gcd(a, period) != 1:
            continue
        slope = Fraction(a, period)
        words = {c: mechanical_word(slope, c) for c in CONVENTIONS}
        path = stern_brocot_path(slope)
        for i, (node, side) in enumerate(path):
            convention = (
                Convention.ZERO_ONE if side == "R" else Convention.ONE_ZERO
            )
            word = words[convention]
            limb_word = mechanical_word(node, convention)
            straight = 0
            for _, later in path[i + 1 :]:
                if later == side:
                    break
                straight += 1
            for hinge in range(1, straight + 2):
                spec = validate_spec(node, slope, hinge, convention)
                if not word.endswith(limb_word * hinge):
                    raise InvariantViolated(
                        "enumerate_specs",
                        "slope word does not end in the hinge prefix",
                        spec,
                    )
                cut = hinge * node.denominator
                key = int(word[-cut:] + word[:-cut], 2)
                _add_once(found, key, spec, period)
    full = (1 << period) - 1
    return tuple((Fraction(key, full), found[key]) for key in sorted(found))


def spec_rows_by_caps(period):
    """The rows of atlas._spec_rows(period), in the order the walk meets
    them, with every hinge capped by the straight-run rule: the largest
    hinge at a node is one more than the number of nodes after it before the
    path turns to its side again.  Each row passes validate_spec's hinge
    inequalities on integers and the slope word's end is matched against
    hinge copies of the limb word, built by the standard-word recursion, as
    strings (production takes each hinge while the bound inequality holds
    and carries the limb words' values down the walk)."""
    limb_words: dict[tuple[int, int, str], str] = {}
    rows = []
    for a in range(1, period):
        if math.gcd(a, period) != 1:
            continue
        inner = _digits(a, period)
        words = {turn: inner + c.value for turn, c in _TURNS.items()}
        values = {turn: int(word, 2) for turn, word in words.items()}
        # the strict ancestors of the slope, each with the turn the path takes
        # there and the Farey parent its hinge bounds start from: the upper
        # one after a right turn, the lower one after a left turn
        nodes, sides = [], []
        lo_p, lo_q, hi_p, hi_q = 0, 1, 1, 1
        while True:
            p, q = lo_p + hi_p, lo_q + hi_q
            if p == a and q == period:
                break
            if a * q < p * period:
                nodes.append((p, q, (lo_p, lo_q)))
                sides.append("L")
                hi_p, hi_q = p, q
            else:
                nodes.append((p, q, (hi_p, hi_q)))
                sides.append("R")
                lo_p, lo_q = p, q
        turns = "".join(sides)
        for (p, q, parent), turn, cap in zip(nodes, turns, _hinge_caps(turns)):
            word, value = words[turn], values[turn]
            limb = limb_words.get((p, q, turn))
            if limb is None:
                limb = limb_words[p, q, turn] = _digits(p, q) + _TURNS[turn].value
            for hinge in range(1, cap + 1):
                # the hinge bound: the parent plus hinge - 1 copies of P/Q
                c = parent[0] + (hinge - 1) * p
                d = parent[1] + (hinge - 1) * q
                _check_hinge(p, q, a, period, c, d, turn == "R")
                if not word.endswith(limb * hinge):
                    spec = BrokenLineSpec(
                        FareyContext.build(Fraction(p, q), hinge, _TURNS[turn]),
                        Fraction(a, period),
                    )
                    raise InvariantViolated(
                        "enumerate_specs",
                        "slope word does not end in the hinge prefix",
                        spec,
                    )
                cut = hinge * q
                key = (value & ((1 << cut) - 1)) << (period - cut) | value >> cut
                rows.append((key, p, q, hinge, turn, a))
    return rows


def _hinge_caps(turns: str) -> list[int]:
    # the largest hinge at each node of a Stern-Brocot path: one more than
    # the number of nodes after it before the path turns to its side again
    caps = []
    for i, turn in enumerate(turns):
        after = turns.find(turn, i + 1)
        caps.append(len(turns) - i if after < 0 else after - i)
    return caps


def assert_row_grammar(enumeration):
    """Assert that an enumeration holds one row per angle: its keys strictly
    increase, and len() is its row count."""
    keys = [row[0] for row in enumeration.rows]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len(enumeration) == len(enumeration.rows)


def enumerate_payload_by_objects(period, census=False, check=False):
    """The payload of `enumerate --period B`, written from the Fractions and
    specs of enumerate_specs(period).entries: str of each Fraction and of its
    one spec's fields."""
    enumeration = enumerate_specs(period)
    payload = {"period": period, "count": len(enumeration)}
    payload["entries"] = [
        {
            "limb": str(spec.p_over_q),
            "slope": str(spec.slope),
            "hinge": spec.hinge,
            "convention": str(spec.convention),
            "angle": str(angle),
        }
        for angle, spec in enumeration.entries
    ]
    if census:
        rows = []
        for b in range(3, period + 1):
            constructed, formula, brute = sturmian_census(b)
            rows.append(
                {
                    "period": b,
                    "formula": formula,
                    "constructed": constructed,
                    "brute": brute,
                }
            )
            if not constructed == formula == brute:
                payload["census-discrepancy"] = (
                    f"period {b}: formula={formula} "
                    f"constructed={constructed} brute={brute}"
                )
        payload["census"] = rows
    if check:
        # the line the command prints once its checks pass; the command runs
        # them itself, and the caller asserts that it exits 0
        payload["check"] = f"ok ({len(enumeration)} angles)"
    return payload


def enumerate_text_by_objects(payload):
    """The text stdout of `enumerate` for a payload of
    enumerate_payload_by_objects, written line by line with literal formats:
    one theta line per entry, one census line per census row, "key: value"
    for every other field."""
    lines = []
    for key, value in payload.items():
        if key == "entries":
            for i, entry in enumerate(value, 1):
                lines.append(
                    f"theta-{i}: {entry['angle']} limb={entry['limb']} "
                    f"slope={entry['slope']} hinge={entry['hinge']} "
                    f"convention={entry['convention']}"
                )
        elif key == "census":
            for row in value:
                lines.append(
                    f"census-{row['period']}: {row['formula']} "
                    f"{row['constructed']} {row['brute']}"
                )
        else:
            lines.append(f"{key}: {value}")
    return "".join(line + "\n" for line in lines)


def census_by_word(period):
    """(constructed, formula, brute) of sturmian_census, one word at a time:
    every word of exact period b with a balanced repetition counts when the
    Lavaurs partner of its angle lies off its doubling orbit."""
    constructed = len(enumerate_by_validation(period))
    formula = (period - 2) * sum(gcd(a, period) == 1 for a in range(1, period))
    partner = {}
    for x, y in lavaurs_pairs(period):
        partner[x] = y
        partner[y] = x
    brute = 0
    for word in all_words(period):
        if minimal_period(word) != period or not is_sturmian(word):
            continue
        orbit = {word_to_fraction(rotate_left(word, i)) for i in range(period)}
        if partner[word_to_fraction(word)] not in orbit:
            brute += 1
    return constructed, formula, brute


def census_by_rotations(period):
    """(constructed, formula, brute) of sturmian_census, its orbits rebuilt
    from string rotations: the sweep as it was before it doubled integers,
    each orbit's exact period taken from minimal_period of its first word."""
    constructed = len(enumerate_specs(period))
    formula = (period - 2) * euler_phi(period)
    full = (1 << period) - 1
    partner = _partners_at(period)
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
        brute += sum(partner[j] not in orbit for j in orbit)
    return constructed, formula, brute


def expansion_value(u, w):
    """The exact value of 0.u(w)^inf: (int(u) + int(w) / (2^|w| - 1)) / 2^|u|
    mod 1."""
    head = int(u, 2) if u else 0
    return (head + Fraction(int(w, 2), 2 ** len(w) - 1)) / 2 ** len(u) % 1


def substitute_by_replace(word, zero, one):
    """The word of 0s and 1s with every 0 written as `zero` and every 1 as
    `one`, by three str.replace passes: the 1s are set aside as "+" first,
    as `zero` may contain 1s.  Neither letter may contain "+"."""
    return word.replace("1", "+").replace("0", zero).replace("+", one)


def tune_by_digits(phi, bulb):
    """tune one digit at a time: each 0 of the expansion becomes the bulb's
    01 word and each 1 its 10 word."""
    low = mechanical_word(bulb, Convention.ZERO_ONE)
    high = mechanical_word(bulb, Convention.ONE_ZERO)
    substitute = lambda digits: "".join(low if d == "0" else high for d in digits)
    return PeriodicAngle(substitute(phi.preperiod), substitute(phi.period))


def expansion_by_long_division(x):
    """(preperiod, period) of x in [0, 1) by long division in base 2: each
    digit doubles the remainder, and the period starts at the first
    remainder that recurs."""
    num, den = x.numerator, x.denominator
    first = {}
    digits = []
    while num not in first:
        first[num] = len(digits)
        num *= 2
        digits.append("1" if num >= den else "0")
        num %= den
    start = first[num]
    return "".join(digits[:start]), "".join(digits[start:])


def base_index_by_scan(spec):
    """(base index, single block?) of the block decomposition, found by
    walking the single-block slopes m = 1, 2, ... until the slope is met or
    passed: they increase toward the bound under 01 and decrease under 10."""
    zero_one = spec.convention is Convention.ZERO_ONE
    m = 0
    while True:
        candidate = single_block_slope(spec.context, m + 1)
        if spec.slope == candidate:
            return m + 1, True
        if (spec.slope < candidate) if zero_one else (spec.slope > candidate):
            return m, False
        m += 1


def block_labels_by_runs(n, m):
    """Block m in limb (L) and parent (P) tags as hinge-sized limb runs
    around its m parent tags: one L for m = 0, else L^n (P L^(n-1))^(m-1) P."""
    if m == 0:
        return "L"
    return "L" * n + ("P" + "L" * (n - 1)) * (m - 1) + "P"


def block_word_by_runs(context, m):
    """Block m of the context as bits, in the runs of block_labels_by_runs:
    the bare limb word for m = 0, else wp^n (wx wp^(n-1))^(m-1) wx."""
    if m == 0:
        return context.limb_word
    wp, wx, n = context.limb_word, context.parent_word, context.hinge
    return wp * n + (wx + wp * (n - 1)) * (m - 1) + wx


def exponents_by_tag_parse(spec):
    """Block exponents by a greedy parse of the descent tags, the longer block
    first, with the base index from the single-block scan.  Blocks are spelled
    in tags by block_labels_by_runs; block m is a prefix of block m + 1."""
    limb, n = spec.p_over_q, spec.hinge
    labels = "".join("L" if tag == limb else "P" for tag in tags_by_descent(spec))
    base, single = base_index_by_scan(spec)
    candidates = (base,) if single else (base + 1, base)
    pieces = {e: block_labels_by_runs(n, e) for e in candidates}
    exponents = []
    i = 0
    while i < len(labels):
        e = next(e for e in candidates if labels.startswith(pieces[e], i))
        exponents.append(e)
        i += len(pieces[e])
    return tuple(exponents)


def block_lists_by_exponents(decomposition):
    """The block-exponents and blocks lists of `broken --all`, one item per
    block, built from the decomposition's exponents and block words."""
    exponents = list(decomposition.exponents)
    return exponents, [decomposition.block_words[e] for e in exponents]


def kneading_by_tag_runs(spec):
    """Structural kneading, one tag at a time: the slot before a tag is 0
    when the cyclic run of limb tags starting there is shorter than the
    hinge; the first tag's slot is the star."""
    limb, n = spec.p_over_q, spec.hinge
    tags = broken_line_tags(spec)
    k = len(tags)
    doubled = tags + tags
    runs = [0] * (2 * k + 1)
    for i in range(2 * k - 1, -1, -1):
        runs[i] = runs[i + 1] + 1 if doubled[i] == limb else 0
    symbols = ["1"] * spec.period
    position = 1
    for i, tag in enumerate(tags):
        if position > 1 and min(runs[i], k) < n:
            symbols[position - 2] = "0"
        position += tag.denominator
    symbols[-1] = "*"
    return "".join(symbols)


def invert_kneading_by_transcription(symbols, convention):
    """invert_kneading by transcription: every kneading block is written out
    as limb and parent words, the 1-count of that word gives a, and both the
    word and the kneading must round-trip through the spec."""
    kneading = symbols
    if isinstance(kneading, str):
        try:
            kneading = KneadingSequence(kneading)
        except ValueError as exc:
            raise NotBrokenLineKneading(str(exc)) from exc
    symbols = kneading.symbols
    # a block is a run of 1s closed by a 0, the last one by the star; the
    # distinct block lengths are listed once each, in order of appearance
    blocks = symbols[:-1].split("0")
    lengths = [len(block) + 1 for block in dict.fromkeys(blocks)]
    q = lengths[0]
    if q < 2:
        raise NotBrokenLineKneading("leading block is too short to be a limb word")
    if len(lengths) == 1:
        raise NotBrokenLineKneading("every block has the limb length")
    n = blocks.index("1" * (lengths[1] - 1))
    t = lengths[1] % q
    if t == 0 or math.gcd(q, t) != 1:
        raise NotBrokenLineKneading("parent length is incompatible with the limb")
    for length in lengths[1:]:
        if length % q != t:
            raise NotBrokenLineKneading(f"block of length {length} fits no word")

    # the limb p/q whose parent under the convention has denominator t: the
    # upper parent under 01, the lower one under 10
    zero_one = convention is Convention.ZERO_ONE
    p = (-pow(t, -1, q)) % q if zero_one else pow(t, -1, q)
    limb = Fraction(p, q)
    ctx = FareyContext.build(limb, n, convention)
    limb_word, parent_word = ctx.limb_word, ctx.parent_word
    pieces = {"1" * (q - 1): limb_word}
    for length in lengths[1:]:
        pieces["1" * (length - 1)] = parent_word + limb_word * ((length - t) // q)
    word = "".join(map(pieces.__getitem__, blocks))
    a, b = word.count("1"), len(word)
    if math.gcd(a, b) != 1:
        raise NotBrokenLineKneading("transcribed word has a reducible 1-count")
    # 0 < p/q < 1 and 0 < a/b < 1 hold by construction; the spec is built on
    # ctx, so the limb and parent words above serve its period word too
    bound = ctx.bound
    try:
        _check_hinge(p, q, a, b, bound.numerator, bound.denominator, zero_one)
    except HypothesisViolated as exc:
        raise NotBrokenLineKneading(str(exc)) from exc
    spec = BrokenLineSpec(ctx, Fraction(a, b))
    if broken_line_word(spec) != word or kneading_of_spec(spec).symbols != symbols:
        raise NotBrokenLineKneading("reconstruction does not round-trip")
    return spec, PeriodicAngle(period=word)


def cutting_sequence_by_tuples(p_over_q, convention):
    """Grid-crossing word of y = (p/q)x: one (abscissa * p, symbol) tuple
    per crossing, sorted; vertical line i at i*p, horizontal j at j*q."""
    p, q = p_over_q.numerator, p_over_q.denominator
    events = sorted(
        [(i * p, "0") for i in range(1, q)] + [(j * q, "1") for j in range(1, p)]
    )
    return "".join(symbol for _, symbol in events) + convention.value


def contract_by_scan(kappa):
    """cutting_to_mechanical one letter at a time: each 1 overwrites the 0
    written just before it, and a 1 with no such 0 is malformed."""
    out = []
    for ch in kappa:
        if ch == "0":
            out.append("0")
        elif ch == "1":
            if not out or out[-1] != "0":
                raise MalformedCuttingSequence(kappa)
            out[-1] = "1"
        else:
            raise MalformedCuttingSequence(kappa)
    return "".join(out)


# every angle of period <= 20 is an integer over this
LAVAURS_GRID = lcm(*((1 << p) - 1 for p in range(1, 21)))


@cache
def lavaurs_pairs_by_heap(period):
    """Chords of one exact period as sorted numerator pairs over
    LAVAURS_GRID, by the greedy rule: after all lower periods, the closest
    cyclically adjacent unpaired angles whose chord crosses no existing chord
    are joined first (a heap of gaps over a linked list of the unpaired
    angles; ties broken by the smaller left endpoint)."""
    endpoints = []
    partner = {}
    for lower in range(2, period):
        for x, y in lavaurs_pairs_by_heap(lower):
            partner[x] = y
            partner[y] = x
            endpoints.append(x)
            endpoints.append(y)
    endpoints.sort()

    def crosses(lo, hi):
        # chord {lo, hi} crosses an existing chord exactly when one endpoint
        # of it lies strictly between lo and hi and its mate does not;
        # existing chords never cross, so an enclosed span is skipped whole
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
    scale = LAVAURS_GRID // full
    width = f"0{period}b"
    angles = [
        k * scale for k in range(1, full) if minimal_period(format(k, width)) == period
    ]
    count = len(angles)
    pairs = []
    nxt = list(range(1, count)) + [0]
    prv = [count - 1] + list(range(count - 1))
    done = [False] * count
    heap = [
        ((angles[nxt[i]] - angles[i]) % LAVAURS_GRID, i, nxt[i]) for i in range(count)
    ]
    heapq.heapify(heap)
    remaining = count
    while remaining:
        _, i, j = heapq.heappop(heap)
        if done[i] or done[j]:
            continue
        x, y = sorted((angles[i], angles[j]))
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
                heap, ((angles[after] - angles[before]) % LAVAURS_GRID, before, after)
            )
    return tuple(sorted(pairs))


def chain_by_stored_lists(spec):
    """conjugate_chain with every orbit point and every preimage stored: the
    orbit by repeated doubling, the k-th preimage from the integer of the
    last k conjugate digits, each list checked in a pass of its own."""
    word = broken_line_word(spec)
    b = len(word)
    cword = conjugate_word(spec)
    full = (1 << b) - 1
    den = full << b
    t = int(word, 2) % full
    theta = t << b
    orbit = [theta]
    for _ in range(b - 1):
        orbit.append(2 * orbit[-1] % den)
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
            raise InvariantViolated(
                "conjugate_chain", f"chain breaks at step {k}", spec
            )
    x1, x2 = preimages[0], orbit[b - 1]
    zero_one = spec.convention is Convention.ZERO_ONE
    certificates = []
    for k in range(2, b + 1):
        y1, y2 = orbit[b - k], preimages[k - 1]
        if len({x1, x2, y1, y2}) != 4 or not unlinked((x1, x2), (y1, y2)):
            raise UnlinkViolation(k)
        case = (y1 > x2) if zero_one else (y1 < x2)
        certificates.append(UnlinkCertificate(k, case))
    conj = int(cword, 2) % full
    if theta * full + ((preimages[b - 1] - theta) << b) != conj * den:
        raise InvariantViolated(
            "conjugate_chain", "chain closed form disagrees with primed blocks", spec
        )
    return ConjugateChain(
        PeriodicAngle(period=word), PeriodicAngle(period=cword), tuple(certificates)
    )


def chain_by_integers(spec, cword=None):
    """conjugate_chain with every orbit point and preimage an integer over
    den = 2^b (2^b - 1), streamed two at a time: each preimage is checked to
    halve to the one before, the four points of each step to be distinct and
    unlinked, and the last preimage to close the chain on the conjugate.
    A candidate conjugate word may stand in for the spec's own."""
    word = broken_line_word(spec)
    b = len(word)
    if cword is None:
        cword = conjugate_word(spec)
    full = (1 << b) - 1
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
        PeriodicAngle(period=word), PeriodicAngle(period=cword), tuple(certificates)
    )


def rotation_signs_by_slices(word):
    """Byte i is 1 when rotation i of the word lies above it, one full slice
    of the doubled word per rotation."""
    b = len(word)
    ww = word + word
    return bytes(ww[i : i + b] > word for i in range(b))


def preimage_signs_by_slices(word, cword):
    """Byte j - 1, for j = 1..b-1, is 1 when cword[b-j:] theta lies above
    theta = word^inf: the tail against the word, and on a tie, where the
    preimage lies above theta exactly when theta lies above rotation j."""
    b = len(word)
    up = rotation_signs_by_slices(word)
    return bytes(
        (tail := cword[b - j :]) > word or (not up[j] and word.startswith(tail))
        for j in range(1, b)
    )


# Ways to the signs of oracles._factor_order, each a patch of its constants:
# the Z-array on every word (a prefix cutoff of 0 and a slice limit of 1);
# plain slices on every word (a prefix cutoff above every factor count); the
# bit-parallel prefix on every word, of 1 or 3 digits, so that short words
# reach the slice it takes for each factor still tied; and production.
SIGN_PATHS = {
    "z-array": {"_PREFIX_FROM": 0, "_SLICES_UP_TO": 1},
    "slices": {"_PREFIX_FROM": inf},
    "prefix-1": {"_PREFIX_FROM": 0, "_PREFIX_DIGITS": 1},
    "prefix-3": {"_PREFIX_FROM": 0, "_PREFIX_DIGITS": 3},
    "production": {},
}


@contextlib.contextmanager
def sign_path(name):
    """oracles._factor_order on the named path of SIGN_PATHS."""
    with pytest.MonkeyPatch.context() as patch:
        for constant, value in SIGN_PATHS[name].items():
            patch.setattr(oracles, constant, value)
        yield
