from fractions import Fraction

from brokenline import (
    Convention,
    broken_line_word,
    conjugate_angle,
    conjugate_chain,
    conjugate_word,
    kneading_of_spec,
    lavaurs_pairs,
    lavaurs_partner,
    minimal_period,
    unlinked,
    validate_spec,
    word_to_fraction,
)
from helpers import all_specs


def _spec(limb, slope, hinge, convention):
    return validate_spec(
        Fraction(*limb), Fraction(*slope), hinge, Convention(convention)
    )


def test_conjugate_golden():
    assert conjugate_angle(_spec((1, 2), (3, 4), 1, "01")).value == Fraction(8, 15)
    spec = _spec((2, 5), (7, 17), 2, "01")
    assert conjugate_word(spec) == "01001010011001010"
    assert conjugate_angle(spec).value == Fraction(38090, 131071)
    assert conjugate_angle(_spec((1, 2), (1, 4), 1, "10")).value == Fraction(7, 15)


def test_conjugate_has_full_period():
    for spec in all_specs(3, 16):
        assert minimal_period(conjugate_word(spec)) == spec.period


def test_half_limb_symmetry():
    # in the 1/2-limb the two conventions mirror each other through 1 - a/b
    for b in range(3, 25):
        for a in range(b // 2 + 1, b):
            from math import gcd

            if gcd(a, b) != 1:
                continue
            spec01 = _spec((1, 2), (a, b), 1, "01")
            spec10 = _spec((1, 2), (b - a, b), 1, "10")
            assert conjugate_angle(spec01).value == word_to_fraction(
                broken_line_word(spec10)
            )


def test_chain_golden():
    chain = conjugate_chain(_spec((1, 2), (3, 4), 1, "01"))
    assert chain.preimages[0].value == Fraction(7, 30)
    assert chain.conjugate.value == Fraction(8, 15)
    assert [c.index for c in chain.certificates] == [2, 3, 4]
    # the chain checks itself on integers; the preimages it hands out are
    # built separately and checked here
    for spec in all_specs(3, 10):
        chain = conjugate_chain(spec)
        values = [angle.value for angle in chain.preimages]
        assert len(values) == spec.period
        assert 2 * values[0] % 1 == chain.theta.value
        for earlier, later in zip(values, values[1:]):
            assert 2 * later % 1 == earlier


def test_chain_runs_clean_on_sweep():
    # the chain itself raises on any doubling, unlinking, or closed-form
    # failure, so running it is the assertion
    for spec in all_specs(3, 24):
        chain = conjugate_chain(spec)
        assert chain.conjugate == conjugate_angle(spec)


def test_chain_cases_match_kneading_digits():
    for spec in all_specs(3, 20):
        symbols = kneading_of_spec(spec).symbols
        b = spec.period
        chain = conjugate_chain(spec)
        for certificate in chain.certificates:
            k = certificate.index
            assert certificate.digit_zero_case == (symbols[b - k] == "0")


def test_unlinked_small_cases():
    q = Fraction
    assert unlinked((q(1, 10), q(2, 10)), (q(3, 10), q(4, 10)))
    assert unlinked((q(1, 10), q(4, 10)), (q(2, 10), q(3, 10)))
    assert not unlinked((q(1, 10), q(3, 10)), (q(2, 10), q(4, 10)))
    # arcs through zero
    assert unlinked((q(9, 10), q(1, 10)), (q(2, 10), q(3, 10)))
    assert not unlinked((q(9, 10), q(2, 10)), (q(1, 10), q(3, 10)))


def test_lavaurs_pairs_golden():
    assert lavaurs_pairs(2) == {(Fraction(1, 3), Fraction(2, 3))}
    assert lavaurs_pairs(3) == {
        (Fraction(1, 7), Fraction(2, 7)),
        (Fraction(3, 7), Fraction(4, 7)),
        (Fraction(5, 7), Fraction(6, 7)),
    }
    pairs4 = lavaurs_pairs(4)
    assert (Fraction(7, 15), Fraction(8, 15)) in pairs4
    assert (Fraction(1, 5), Fraction(4, 15)) in pairs4  # 3/15 with 4/15
    assert len(pairs4) == 6


def test_lavaurs_pairs_partition_each_period():
    for period in range(2, 11):
        pairs = lavaurs_pairs(period)
        seen = [angle for pair in pairs for angle in pair]
        assert len(seen) == len(set(seen))
        full = (1 << period) - 1
        count = sum(
            1
            for k in range(1, full)
            if minimal_period(format(k, f"0{period}b")) == period
        )
        assert len(seen) == count


def test_lavaurs_chords_never_cross():
    # all chords of periods 2..9 at once; two chords cross exactly when one
    # endpoint of the second lies strictly inside the first and one outside
    chords = [pair for period in range(2, 10) for pair in lavaurs_pairs(period)]
    for i, (a, b) in enumerate(chords):
        assert a < b
        for c, d in chords[i + 1 :]:
            assert (a < c < b) == (a < d < b), ((a, b), (c, d))


def test_conjugate_matches_lavaurs_partner():
    for spec in all_specs(3, 12):
        theta = word_to_fraction(broken_line_word(spec))
        assert lavaurs_partner(theta) == conjugate_angle(spec).value


def test_lavaurs_pairs_share_kneading():
    # angles landing together have the same itinerary; the kneading
    # computation knows nothing about chords, so this validates the pairing
    from brokenline import kneading_of_angle

    for period in range(2, 13):
        for x, y in lavaurs_pairs(period):
            assert kneading_of_angle(x) == kneading_of_angle(y)
