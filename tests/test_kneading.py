from fractions import Fraction

import pytest

from brokenline import (
    Convention,
    InvariantViolated,
    KneadingSequence,
    NotBrokenLineKneading,
    NotPeriodic,
    broken_line_word,
    conjugate_angle,
    farey_parents,
    invert_kneading,
    kneading_concatenates,
    kneading_of_angle,
    kneading_of_spec,
    lavaurs_pairs,
    lower_kneading_period,
    mechanical_word,
    minimal_period,
    validate_spec,
    word_to_fraction,
)
from brokenline.oracles import _kneading_of_word
from helpers import (
    CONVENTIONS,
    all_specs,
    all_words,
    doubling_orbit,
    invert_kneading_by_transcription,
    kneading_by_orbit_walk,
    kneading_by_tag_runs,
    period_by_divisors,
)


def _spec(limb, slope, hinge, convention):
    return validate_spec(
        Fraction(*limb), Fraction(*slope), hinge, Convention(convention)
    )


def test_kneading_of_angle_golden():
    assert kneading_of_angle(Fraction(7, 15)).symbols == "100*"
    assert kneading_of_angle(Fraction(7, 15)).star_position == 4
    assert kneading_of_angle(Fraction(1, 3)).symbols == "1*"
    assert (
        kneading_of_angle(Fraction(38057, 131071)).symbols == "1111011110111111*"
    )


def test_kneading_of_angle_rejects_bad_input():
    with pytest.raises(NotPeriodic):
        kneading_of_angle(Fraction(1, 2))
    with pytest.raises(ValueError):
        kneading_of_angle(Fraction(0))


def test_word_kneading_equals_the_orbit_itinerary():
    # every primitive word of length 2..14: 32,474 of them, read by the word
    # reader, through kneading_of_angle from the word's value, and resolved
    # by lower_kneading_period, each against the integer walk of the orbit
    count = 0
    for length in range(2, 15):
        for word in all_words(length):
            if minimal_period(word) == length:
                theta = word_to_fraction(word)
                symbols, resolved = kneading_by_orbit_walk(theta)
                assert _kneading_of_word(word) + "*" == symbols
                assert kneading_of_angle(theta).symbols == symbols, word
                assert lower_kneading_period(theta) == period_by_divisors(resolved)
                count += 1
    assert count == 32474


def test_word_kneading_rejects_a_proper_power():
    for word in ("011011", "0101", "111", "0", ""):
        with pytest.raises(InvariantViolated, match="no exact period"):
            _kneading_of_word(word)


def test_kneading_sequence_form():
    with pytest.raises(ValueError):
        KneadingSequence("100")
    with pytest.raises(ValueError):
        KneadingSequence("1*0*")
    with pytest.raises(ValueError):
        KneadingSequence("*")
    assert KneadingSequence("10*").period == 3


def test_kneading_body_is_checked_in_one_pass():
    # what a set of the body's characters rejected: an empty body, other
    # digits, spaces, a newline, fullwidth and Arabic-Indic digits, stars
    # inside the body, a non-ASCII letter, a lone surrogate (an undecodable
    # byte of argv), a leading space, an underscore and a sign
    bad_bodies = (
        "", "2", "0 1", "01\n", "\uff10\uff11", "\u0660\u0661", "1*0", "01*",
        "0\u00e9", "0\udcff", " 01", "0_1", "+01",
    )
    for body in bad_bodies:
        assert len(body) == 0 or set(body) - {"0", "1"}
        with pytest.raises(ValueError, match="malformed kneading sequence"):
            KneadingSequence(body + "*")
        with pytest.raises(NotBrokenLineKneading):
            invert_kneading(body + "*", Convention.ZERO_ONE)
    for body in ("0", "1", "10", "1111011110111101"):
        assert KneadingSequence(body + "*").symbols == body + "*"


def test_kneading_of_spec_golden():
    assert kneading_of_spec(_spec((2, 5), (7, 17), 2, "01")).symbols == (
        "1111011110111111*"
    )
    assert kneading_of_spec(_spec((1, 2), (3, 4), 1, "01")).symbols == "100*"
    assert kneading_of_spec(_spec((2, 5), (7, 17), 3, "01")).symbols == (
        "1111011110111101*"
    )


def test_structural_equals_direct():
    for spec in all_specs(3, 20):
        theta = word_to_fraction(broken_line_word(spec))
        assert kneading_of_spec(spec).symbols == kneading_by_orbit_walk(theta)[0]


def test_structural_kneading_matches_the_tag_loop():
    for spec in all_specs(3, 70):
        assert kneading_of_spec(spec).symbols == kneading_by_tag_runs(spec)


def test_invert_kneading_golden():
    spec, sequence = invert_kneading("1111011110111101*", Convention.ZERO_ONE)
    assert (spec.p_over_q, spec.slope, spec.hinge) == (
        Fraction(2, 5),
        Fraction(7, 17),
        3,
    )
    assert sequence.period == mechanical_word(
        Fraction(2, 5), Convention.ZERO_ONE
    ) * 3 + mechanical_word(Fraction(1, 2), Convention.ZERO_ONE)

    spec, _ = invert_kneading("100*", Convention.ZERO_ONE)
    assert (spec.p_over_q, spec.slope, spec.hinge) == (
        Fraction(1, 2),
        Fraction(3, 4),
        1,
    )
    spec, _ = invert_kneading("100*", Convention.ONE_ZERO)
    assert (spec.p_over_q, spec.slope, spec.hinge) == (
        Fraction(1, 2),
        Fraction(1, 4),
        1,
    )
    # the algorithm decides parseability: this one happens to parse
    spec, _ = invert_kneading("10*", Convention.ZERO_ONE)
    assert (spec.p_over_q, spec.slope, spec.hinge) == (
        Fraction(1, 2),
        Fraction(2, 3),
        1,
    )


def test_invert_kneading_rejections():
    # leading block of length one would need a limb of denominator one
    with pytest.raises(NotBrokenLineKneading, match="leading block is too short"):
        invert_kneading("010*", Convention.ZERO_ONE)
    # every block has the limb length
    with pytest.raises(NotBrokenLineKneading, match="every block has the limb"):
        invert_kneading("11*", Convention.ZERO_ONE)
    # the block counts give an unreduced 1-count
    with pytest.raises(NotBrokenLineKneading, match="reducible 1-count"):
        invert_kneading("10110*", Convention.ZERO_ONE)


def test_invert_round_trip():
    for spec in all_specs(3, 20):
        recovered, sequence = invert_kneading(
            kneading_of_spec(spec), spec.convention
        )
        assert recovered == spec
        assert sequence.period == broken_line_word(spec)


def test_lower_kneading_period_golden():
    assert lower_kneading_period(Fraction(7, 15)) == 4
    assert lower_kneading_period(Fraction(1, 3)) == 1
    assert lower_kneading_period(Fraction(2, 5)) == 2  # satellite drop
    # the airplane pair is primitive: full period on both sides
    assert lower_kneading_period(Fraction(3, 7)) == 3
    assert lower_kneading_period(Fraction(4, 7)) == 3
    assert lower_kneading_period(Fraction(1, 63)) == 1
    # one member of a satellite pair keeps full period from below; only the
    # pair-wise test separates satellites from primitives
    assert lower_kneading_period(Fraction(1, 7)) == 1
    assert lower_kneading_period(Fraction(2, 7)) == 3


def test_invert_kneading_ten_convention_rejections():
    with pytest.raises(NotBrokenLineKneading, match="every block has the limb"):
        invert_kneading("11*", Convention.ONE_ZERO)
    with pytest.raises(NotBrokenLineKneading, match="reducible 1-count"):
        invert_kneading("10110*", Convention.ONE_ZERO)
    with pytest.raises(NotBrokenLineKneading, match="malformed kneading sequence"):
        invert_kneading("not a kneading", Convention.ONE_ZERO)


def _inversion(invert, symbols, convention):
    # the (spec, angle) of an inversion, or the type and message it raised
    try:
        return invert(symbols, convention)
    except Exception as exc:
        return type(exc), str(exc)


def test_invert_kneading_matches_the_transcription():
    # every body of length <= 12, then every spec kneading of b = 3..30 and
    # of the benchmark's two deep families at b = 1025, 4097 and 16383 (the
    # 1/b family, whose blocks are nearly all empty, and the half-limb
    # family, whose body has one 0), each with a 0-spliced doubling and its
    # first slot dropped
    inputs = [body + "*" for n in range(13) for body in all_words(n)]
    specs = list(all_specs(3, 30))
    for b in (1025, 4097, 16383):
        specs += [_spec((1, k), (1, b), 1, "10") for k in range(2, 10)]
        specs.append(_spec((1, 2), (b // 2 + 1, b), 1, "01"))
    for spec in specs:
        k = kneading_of_spec(spec).symbols
        inputs += [k, k[:-1] + "0" + k, k[1:]]
    inverted = 0
    for symbols in inputs:
        for convention in CONVENTIONS:
            outcome = _inversion(invert_kneading, symbols, convention)
            assert outcome == _inversion(
                invert_kneading_by_transcription, symbols, convention
            ), (symbols, convention)
            inverted += not isinstance(outcome[0], type)
    assert inverted > len(all_specs(3, 30))


def test_kneading_concatenates_preconditions():
    a = _spec((1, 2), (3, 4), 1, "01")
    b = _spec((1, 2), (4, 5), 1, "01")
    c = _spec((1, 2), (7, 9), 1, "01")
    with pytest.raises(ValueError):
        kneading_concatenates(b, a, c)  # parts out of order
    with pytest.raises(ValueError):
        kneading_concatenates(a, b, a)  # not the mediant
    assert kneading_concatenates(a, b, c)


def _epsilon_itinerary(alpha, steps):
    # plain itinerary digits of a (not necessarily periodic) angle
    low, high = alpha / 2, (alpha + 1) / 2
    digits = []
    x = alpha
    for _ in range(steps):
        assert x != low and x != high
        digits.append("1" if low < x < high else "0")
        x = 2 * x % 1
    return "".join(digits)


def test_lower_kneading_matches_epsilon_evaluation():
    # the analytic star resolution equals the exact evaluation at theta - eps
    angles = set()
    for period in range(2, 9):
        for x, y in lavaurs_pairs(period):
            angles.add(x)
            angles.add(y)
    for spec in all_specs(3, 10):
        angles.add(word_to_fraction(broken_line_word(spec)))
    for theta in angles:
        ks = kneading_of_angle(theta)
        b = ks.period
        eps = Fraction(1, 2 ** (2 * b + 5))
        lowered = _epsilon_itinerary((theta - eps) % 1, b)
        last = theta
        for _ in range(b - 1):
            last = 2 * last % 1
        fill = "1" if last == (theta + 1) / 2 else "0"
        assert lowered == ks.symbols[:-1] + fill
        assert lower_kneading_period(theta) == minimal_period(lowered)


def test_satellite_pairs_against_lower_kneading():
    # a pair is satellite exactly when both angles share one doubling orbit,
    # and exactly one member of such a pair keeps full lower-kneading period
    for period in range(2, 11):
        for x, y in lavaurs_pairs(period):
            same_orbit = y in doubling_orbit(x)
            both_full = (
                lower_kneading_period(x) == period
                and lower_kneading_period(y) == period
            )
            assert same_orbit == (not both_full)


def test_conjugates_share_kneading():
    for spec in all_specs(3, 20):
        theta = word_to_fraction(broken_line_word(spec))
        partner = conjugate_angle(spec).value
        assert kneading_of_angle(theta) == kneading_of_angle(partner)


def test_kneading_concatenates():
    checked = 0
    for spec in all_specs(3, 24):
        lower_slope, upper_slope = farey_parents(spec.slope)
        try:
            lower = validate_spec(
                spec.p_over_q, lower_slope, spec.hinge, spec.convention
            )
            upper = validate_spec(
                spec.p_over_q, upper_slope, spec.hinge, spec.convention
            )
        except Exception:
            continue
        assert kneading_concatenates(lower, upper, spec)
        checked += 1
    assert checked > 100


def test_kneading_concatenates_within_one_context_only():
    a = _spec((1, 2), (3, 4), 1, "01")
    b = _spec((1, 2), (4, 5), 1, "01")
    c = _spec((1, 2), (7, 9), 1, "01")
    other = _spec((2, 5), (7, 17), 2, "01")
    for parts in ((other, b, c), (a, other, c), (a, b, other)):
        with pytest.raises(
            ValueError, match="^all three parameter sets must share one context$"
        ):
            kneading_concatenates(*parts)
