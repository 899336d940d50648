from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenline import (
    Convention,
    NoDifference,
    NonMinimalPeriod,
    broken_line_word,
    conjugate_word,
    first_difference,
    is_sturmian,
    mechanical_word,
    minimal_period,
    prime_minus,
    prime_plus,
    rotate_left,
    rotation_diagnostics,
    validate_spec,
)
from brokenline import oracles
from brokenline.oracles import _preimage_signs, _rotation_signs
from helpers import (
    CONVENTIONS,
    SIGN_PATHS,
    all_words,
    balanced_by_christoffel,
    balanced_by_factor_counts,
    mediant_word,
    preimage_signs_by_slices,
    reduced_fractions,
    rotation_signs_by_slices,
    sign_path,
)


def test_prime_plus_golden():
    assert prime_plus("0111") == "1000"
    assert prime_plus("1") == "0"
    assert prime_plus("01001010010101001") == "01001010010101010"


def test_prime_minus_golden():
    assert prime_minus("1000") == "0111"
    assert prime_minus("0") == "1"
    assert prime_minus("10") == "01"


def test_primes_are_inverse_bijections():
    for length in range(1, 17):
        for word in all_words(length):
            assert prime_minus(prime_plus(word)) == word
            assert prime_plus(prime_minus(word)) == word


def test_is_sturmian_golden():
    assert is_sturmian("0100")
    assert not is_sturmian("0011")
    assert is_sturmian("0")
    # 00 or 11 only across the wrap still unbalances the repetition
    assert not is_sturmian("0110")
    assert not is_sturmian("1001")
    # 00 without 11, or neither: the runs of the other letter decide
    assert is_sturmian("01")
    assert not is_sturmian("1010001000")


def _flip(word, position):
    return word[:position] + "10"[int(word[position])] + word[position + 1 :]


def test_is_sturmian_matches_factor_counts():
    # every word through length 14, non-primitive and constant words included
    for length in range(1, 15):
        for word in all_words(length):
            assert is_sturmian(word) == balanced_by_factor_counts(word)


def test_balance_of_long_words_under_rotations_and_flips():
    # the half-limb family and a Fibonacci slope, both near period 2000
    specs = [
        validate_spec(Fraction(1, 2), Fraction(1001, 2001), 1, Convention.ZERO_ONE),
        validate_spec(Fraction(3, 5), Fraction(987, 1597), 1, Convention.ZERO_ONE),
    ]
    for spec in specs:
        word = broken_line_word(spec)
        n = len(word)
        for k in range(0, n, 97):
            assert is_sturmian(word[k:] + word[:k])
        for position in range(0, n, n // 20)[:20]:
            flipped = _flip(word, position)
            assert is_sturmian(flipped) == balanced_by_factor_counts(flipped)


def _variants(word, k):
    # the word, rotated by k, with digit k flipped, reversed, squared and
    # with digit k dropped
    rotated, dropped = word[k:] + word[:k], word[:k] + word[k + 1 :]
    return [word, rotated, _flip(word, k), word[::-1], word + word, dropped]


def test_is_sturmian_matches_the_christoffel_reference():
    # every word of length 0..16; mediant words of period up to 2^14 with
    # their variants (the mediant walk takes a node per step down the
    # Stern-Brocot tree, b of them for 1/b); and, at the scale of the period
    # cap, the Fibonacci word of period 832,040, whose partial quotients are
    # all 1, so that each level leaves the most letters (15 levels), with and
    # without one digit flipped
    for length in range(17):
        for word in all_words(length):
            assert is_sturmian(word) == balanced_by_christoffel(word), word

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def mediant_words(data):
        b = data.draw(st.integers(2, 1 << 14), label="b")
        slope = Fraction(data.draw(st.integers(1, b - 1), label="a"), b)
        word = mediant_word(slope, data.draw(st.sampled_from(CONVENTIONS)))
        k = data.draw(st.integers(0, len(word) - 1), label="k")
        for variant in _variants(word, k):
            assert is_sturmian(variant) == balanced_by_christoffel(variant), (slope, k)

    mediant_words()
    word = fibonacci_word(832_040)
    assert len(word) == 832_040
    assert is_sturmian(word) and balanced_by_christoffel(word)
    flipped = _flip(word, 416_020)
    assert not is_sturmian(flipped) and not balanced_by_christoffel(flipped)


@pytest.mark.parametrize("n", [3, 100, 470, 2499, 2501, 5000])
def test_balance_of_words_with_one_rare_letter(n):
    # 0^n 1 0^(n-1) 1 is balanced and 0^n 1 0^(n-2) 1 is not, nor are their
    # complements: two runs of the frequent letter, at lengths on both sides
    # of 2,500 characters, where CPython's str search changes its algorithm
    balanced = "0" * n + "1" + "0" * (n - 1) + "1"
    unbalanced = "0" * n + "1" + "0" * (n - 2) + "1"
    flip = str.maketrans("01", "10")
    for word, expected in ((balanced, True), (unbalanced, False)):
        for variant in (word, word.translate(flip)):
            assert is_sturmian(variant) == balanced_by_christoffel(variant) == expected


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_balance_property_on_random_slopes(data):
    b = data.draw(st.integers(2, 400), label="b")
    slope = Fraction(data.draw(st.integers(1, b - 1), label="a"), b)
    word = mediant_word(slope, data.draw(st.sampled_from(CONVENTIONS)))
    n = len(word)
    k = data.draw(st.integers(0, n - 1), label="rotation")
    assert is_sturmian(word[k:] + word[:k])
    flipped = _flip(word, data.draw(st.integers(0, n - 1), label="flip"))
    assert is_sturmian(flipped) == balanced_by_factor_counts(flipped)


def test_rotation_diagnostics_golden():
    assert rotation_diagnostics("0111") == (Fraction(3, 4), True)
    assert rotation_diagnostics("0011") == (Fraction(1, 2), False)
    assert rotation_diagnostics("01") == (Fraction(1, 2), True)


def test_rotation_diagnostics_requires_primitive_word():
    with pytest.raises(NonMinimalPeriod):
        rotation_diagnostics("0101")


def test_balance_equals_cyclic_order_preservation():
    # the two notions agree on every primitive word
    for length in range(1, 15):
        for word in all_words(length):
            if minimal_period(word) != length:
                continue
            _, preserves = rotation_diagnostics(word)
            assert is_sturmian(word) == preserves


def test_first_difference_golden():
    assert first_difference("0001", "001") == 3
    assert first_difference("01001", "01") == 4
    assert first_difference("001", "01") == 2


def test_first_difference_no_difference():
    with pytest.raises(NoDifference):
        first_difference("01", "0101")


def test_empty_words():
    # the only rotation of the empty word is itself; an empty word has no
    # periodic stream to compare, as it has no period
    assert rotate_left("", 3) == ""
    for pair in [("", "1"), ("0", ""), ("", "")]:
        with pytest.raises(ValueError, match="empty word"):
            first_difference(*pair)


def _neighbor_pairs(max_den):
    fractions = list(reduced_fractions(max_den)) + [Fraction(0), Fraction(1)]
    for x in fractions:
        for y in fractions:
            if (
                x < y
                and y.numerator * x.denominator - x.numerator * y.denominator == 1
            ):
                yield x, y


def test_first_difference_on_farey_neighbors():
    for lower, upper in _neighbor_pairs(30):
        for convention in CONVENTIONS:
            if convention is Convention.ZERO_ONE and lower == 0:
                continue
            if convention is Convention.ONE_ZERO and upper == 1:
                continue
            low_word = mechanical_word(lower, convention)
            high_word = mechanical_word(upper, convention)
            r = first_difference(low_word, high_word)
            # the difference arrives within the lower word under 01 and
            # within the upper word under 10
            if convention is Convention.ZERO_ONE:
                assert r <= len(low_word)
            else:
                assert r <= len(high_word)
            b, d = len(low_word), len(high_word)
            for i in range(1, r):
                assert low_word[(i - 1) % b] == high_word[(i - 1) % d]
            assert low_word[(r - 1) % b] == "0"
            assert high_word[(r - 1) % d] == "1"


def test_mediant_word_identities():
    # the mediant's word concatenates its parents' words in both orders, one
    # of them primed
    from math import gcd

    from brokenline import farey_parents

    for q in range(2, 31):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            lower, upper = farey_parents(x)
            if lower > 0:
                w, wl, wu = (
                    mechanical_word(x, Convention.ZERO_ONE),
                    mechanical_word(lower, Convention.ZERO_ONE),
                    mechanical_word(upper, Convention.ZERO_ONE),
                )
                assert w == wu + wl == prime_plus(wl) + wu
            if upper < 1:
                w, wl, wu = (
                    mechanical_word(x, Convention.ONE_ZERO),
                    mechanical_word(lower, Convention.ONE_ZERO),
                    mechanical_word(upper, Convention.ONE_ZERO),
                )
                assert w == wl + wu == prime_minus(wu) + wl


def test_rotation_signs_match_the_rotations():
    # every word of length 2..14, proper powers included, on every path
    expected = {
        word: bytes(rotate_left(word, i) > word for i in range(length))
        for length in range(2, 15)
        for word in all_words(length)
    }
    for path in SIGN_PATHS:
        with sign_path(path):
            for word, signs in expected.items():
                assert _rotation_signs(word) == signs, (word, path)


def test_preimage_signs_match_the_slices():
    # every pair of words of length 2..6, the first of exact period, and
    # every word of exact period of length 7..14 against its rotation by one
    # and against itself with the last digit flipped, on every path
    pairs = [
        (word, cword)
        for length in range(2, 7)
        for word in all_words(length)
        if minimal_period(word) == length
        for cword in all_words(length)
    ]
    for length in range(7, 15):
        for word in all_words(length):
            if minimal_period(word) == length:
                flipped = word[:-1] + ("1" if word[-1] == "0" else "0")
                pairs += [(word, word[1:] + word[0]), (word, flipped)]
    expected = [preimage_signs_by_slices(word, cword) for word, cword in pairs]
    for path in SIGN_PATHS:
        with sign_path(path):
            for (word, cword), signs in zip(pairs, expected):
                assert _preimage_signs(word, cword) == signs, (word, cword, path)


def fibonacci_word(length):
    prev, word = "1", "0"
    while len(word) < length:
        prev, word = word, word + prev
    return word


def long_tie_words(b):
    """Words of length b whose rotations agree with them for long stretches:
    0^(b-1) 1, a power of a Fibonacci word with one digit flipped (first,
    middle or last), and the period word of the half-limb broken line."""
    root = fibonacci_word(377)[:377]
    power = (root * (b // 377 + 1))[:b]
    flips = [
        power[:i] + ("1" if power[i] == "0" else "0") + power[i + 1 :]
        for i in (0, b // 2, b - 1)
    ]
    half = validate_spec(Fraction(1, 2), Fraction(b // 2 + 1, b), 1, Convention.ZERO_ONE)
    return ["0" * (b - 1) + "1", *flips, broken_line_word(half)]


@pytest.mark.parametrize(
    "b", [101, oracles._SLICES_UP_TO - 1, oracles._SLICES_UP_TO + 1]
)
def test_signs_of_words_with_long_ties(b):
    # every path at b = 101, where production takes the prefix: most factors
    # of 0^(b-1) 1 still tie after it, each then settled by a slice, while
    # the Fibonacci flips tie on few but long factors; just below the slice
    # limit production takes the prefix for the b factors of the preimage
    # signs too, whose word has 2b digits; past it every path but the plain
    # slices is the Z-array
    for word in long_tie_words(b):
        assert minimal_period(word) == b
        cword = word[:-1] + ("1" if word[-1] == "0" else "0")
        up, above = rotation_signs_by_slices(word), preimage_signs_by_slices(word, cword)
        for path in SIGN_PATHS:
            with sign_path(path):
                assert _rotation_signs(word) == up, path
                assert _preimage_signs(word, cword) == above, path


def test_first_difference_refuses_streams_in_the_wrong_order():
    with pytest.raises(ValueError, match="^streams are ordered the wrong way around$"):
        first_difference("01", "00")


def _prefix_ties(text, word, count):
    # how many of the count factors of text equal word on its first
    # _PREFIX_DIGITS digits
    digits = oracles._PREFIX_DIGITS
    return sum(text[s : s + digits] == word[:digits] for s in range(count))


def _most_tied_words():
    # verify-query's 2/941 and 931/936 period words with their conjugates,
    # and 0^16382 1 with its last digit flipped
    for limb, slope, convention in (
        ((1, 153), (2, 941), Convention.ONE_ZERO),
        ((167, 168), (931, 936), Convention.ZERO_ONE),
    ):
        spec = validate_spec(limb, slope, 1, convention)
        yield broken_line_word(spec), conjugate_word(spec)
    word = mechanical_word(Fraction(1, 16383), Convention.ZERO_ONE)
    yield word, word[:-1] + "0"


def test_signs_where_most_factors_tie_after_the_prefix():
    # each factor still tied after the prefix is settled by a slice of its
    # own, on every path, however many tie
    for word, cword in _most_tied_words():
        b = len(word)
        assert oracles._PREFIX_FROM <= b <= oracles._SLICES_UP_TO
        assert 2 * _prefix_ties(word + word, word, b) > b
        up, above = rotation_signs_by_slices(word), preimage_signs_by_slices(word, cword)
        for path in SIGN_PATHS:
            with sign_path(path):
                assert _rotation_signs(word) == up, (b, path)
                assert _preimage_signs(word, cword) == above, (b, path)
