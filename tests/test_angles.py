import random
import sys
from fractions import Fraction

import pytest

from brokenline import (
    ClassOrder,
    Convention,
    PeriodicAngle,
    compare_prefix_classes,
    double_angle,
    fraction_to_expansion,
    minimal_period,
    rotate_left,
    word_to_fraction,
)
from brokenline.angles import _terms
from helpers import (
    all_words,
    expansion_by_long_division,
    expansion_value,
    mediant_word,
)


def test_word_to_fraction_golden():
    assert word_to_fraction("0111") == Fraction(7, 15)
    assert word_to_fraction("0") == 0
    assert word_to_fraction("01001010010101001") == Fraction(38057, 131071)


def test_all_ones_word_normalizes_to_zero():
    for n in range(1, 9):
        assert word_to_fraction("1" * n) == 0


# what a set of the word's characters rejected: the empty word, other
# digits, spaces, a newline, fullwidth and Arabic-Indic digits, a star, a
# non-ASCII letter, a lone surrogate (an undecodable byte of argv), a sign
# and an underscore, which int(word, 2) would accept
NOT_BINARY = (
    "", "2", "0 1", "01\n", "\uff10\uff11", "\u0660\u0661", "01*0", "*",
    "0\u00e9", "0\udcff", " 01", "0_1", "+01",
)


def test_binary_words_are_checked_in_one_pass():
    # a word that fails to encode to ASCII is rejected by the word test, not
    # by a UnicodeEncodeError, which is a ValueError of another message
    for bad in NOT_BINARY:
        assert not bad or set(bad) - {"0", "1"}
        with pytest.raises(ValueError, match="not a binary word"):
            word_to_fraction(bad)
        with pytest.raises(ValueError, match="not a binary word"):
            PeriodicAngle("", bad)
        with pytest.raises(ValueError, match="not a binary word"):
            PeriodicAngle(bad or "2", "01")
    for good in ("0", "1", "10", "0110"):
        word_to_fraction(good)


def test_fraction_to_expansion_golden():
    assert fraction_to_expansion(Fraction(8, 15)) == PeriodicAngle("", "1000")
    assert fraction_to_expansion(Fraction(0)) == PeriodicAngle("", "0")
    assert fraction_to_expansion(Fraction(5, 12)) == PeriodicAngle("01", "10")
    assert fraction_to_expansion(Fraction(1, 2)) == PeriodicAngle("1", "0")


def test_double_angle():
    assert double_angle(Fraction(7, 15)) == Fraction(14, 15)
    assert double_angle(Fraction(14, 15)) == Fraction(13, 15)
    assert double_angle(Fraction(0)) == 0


def test_minimal_period():
    assert minimal_period("0101") == 2
    assert minimal_period("01001") == 5
    assert minimal_period("0111") == 4
    with pytest.raises(ValueError):
        minimal_period("")


def test_compare_prefix_classes_golden():
    assert compare_prefix_classes("0110", "10") is ClassOrder.LT
    assert compare_prefix_classes("010", "0101") is ClassOrder.INCOMPARABLE
    assert compare_prefix_classes("1000", "1011") is ClassOrder.LT


def test_expansion_round_trip_exhaustive():
    # skipping the all-ones words, which collapse to the zero angle
    for length in range(1, 13):
        for word in all_words(length):
            if word == "1" * length:
                continue
            angle = fraction_to_expansion(word_to_fraction(word))
            assert angle.preperiod == ""
            assert angle.period == word[: minimal_period(word)]


def test_expansion_round_trip_sampled_long_words():
    rng = random.Random(7)
    for length in range(13, 21):
        for _ in range(400):
            word = format(rng.randrange((1 << length) - 1), f"0{length}b")
            angle = fraction_to_expansion(word_to_fraction(word))
            assert angle.preperiod == ""
            assert angle.period == word[: minimal_period(word)]


def test_doubling_is_word_rotation():
    for length in range(1, 11):
        for word in all_words(length):
            assert double_angle(word_to_fraction(word)) == word_to_fraction(
                rotate_left(word, 1)
            )


def test_orbit_length_is_minimal_period():
    for length in range(1, 13):
        for word in all_words(length):
            theta = word_to_fraction(word)
            steps = 1
            x = double_angle(theta)
            while x != theta:
                x = double_angle(x)
                steps += 1
            assert steps == minimal_period(word)


def _check_class_pair(u, v):
    verdict = compare_prefix_classes(u, v)
    extension = u.startswith(v) or v.startswith(u)
    assert (verdict is ClassOrder.INCOMPARABLE) == extension
    if verdict is ClassOrder.LT:
        assert PeriodicAngle(u, "01").value < PeriodicAngle(v, "01").value
    if verdict is ClassOrder.GT:
        assert PeriodicAngle(u, "01").value > PeriodicAngle(v, "01").value


def test_prefix_class_order_matches_member_order():
    # whenever one truncation extends the other the classes overlap, and a
    # strict verdict must order every pair of class members
    for lu in range(1, 7):
        for u in all_words(lu):
            for lv in range(1, 7):
                for v in all_words(lv):
                    _check_class_pair(u, v)
    rng = random.Random(3)
    for _ in range(20000):
        lu, lv = rng.randrange(1, 11), rng.randrange(1, 11)
        u = format(rng.randrange(1 << lu), f"0{lu}b")
        v = format(rng.randrange(1 << lv), f"0{lv}b")
        _check_class_pair(u, v)


def test_periodic_angle_canonicalizes():
    assert PeriodicAngle("0", "1") == PeriodicAngle("1", "0")  # both 1/2
    assert PeriodicAngle("", "0101") == PeriodicAngle("", "01")
    assert PeriodicAngle("0", "10") == PeriodicAngle("", "01")
    assert PeriodicAngle("", "1").value == 0


def test_periodic_angle_is_canonical_exhaustive():
    # the canonical form is the unique one with a primitive period that is
    # not all ones and a preperiod that does not end in the period's last digit
    for pre_length in range(4):
        for u in all_words(pre_length):
            head = int(u, 2) if u else 0
            for length in range(1, 11):
                for w in all_words(length):
                    tail = Fraction(int(w, 2), 2**length - 1)
                    angle = PeriodicAngle(u, w)
                    assert angle.value == (head + tail) / 2**pre_length % 1
                    period = angle.period
                    assert minimal_period(period) == len(period)
                    assert period == "0" or "0" in period
                    assert not angle.preperiod or angle.preperiod[-1] != period[-1]


def test_periodic_angle_matches_the_expansion_of_its_value():
    # the word canonicalization against the expansion of the exact value,
    # read off the denominator and by long division
    preperiods = [u for length in range(7) for u in all_words(length)]
    periods = [w for length in range(1, 9) for w in all_words(length)]
    for u in preperiods:
        for w in periods:
            x = expansion_value(u, w)
            angle = PeriodicAngle(u, w)
            assert angle == fraction_to_expansion(x)
            assert (angle.preperiod, angle.period) == expansion_by_long_division(x)
            assert angle.value == x


def test_terms_are_the_unreduced_value_of_the_raw_words():
    # the integer terms against Fraction arithmetic on every raw pair, the
    # period "0" and all-ones periods included; the denominator keeps its
    # factors 2^|u| and 2^|v| - 1
    preperiods = [u for length in range(5) for u in all_words(length)]
    periods = [v for length in range(1, 7) for v in all_words(length)]
    for u in preperiods:
        for v in periods:
            n, d = _terms(u, v)
            assert d == (2 ** len(v) - 1) * 2 ** len(u)
            assert 0 <= n <= d
            assert Fraction(n, d) % 1 == expansion_value(u, v)


def test_periodic_angle_carries_the_all_ones_period():
    # 0.u(1) is 0.(u + 1)(0), the carry out of u dropped
    cases = [("0111", "1", "1"), ("111", "1", ""), ("", "11", "")]
    for u, w, preperiod in cases:
        angle = PeriodicAngle(u, w)
        assert (angle.preperiod, angle.period) == (preperiod, "0")
        assert angle.value == expansion_value(u, w)


def test_periodic_angle_canonicalizes_long_periods():
    word = mediant_word(Fraction(610, 987), Convention.ZERO_ONE)
    angle = PeriodicAngle(word[-5:], word * 3)
    assert angle.preperiod == ""
    assert angle.period == word[-5:] + word[:-5]


def test_periodic_angle_value_and_text():
    angle = PeriodicAngle("01", "10")
    assert angle.value == Fraction(5, 12)
    assert str(angle) == "0.[01](10)"
    assert PeriodicAngle.parse("0.[01](10)") == angle
    assert PeriodicAngle.parse("0.(0111)").value == Fraction(7, 15)


def test_multiplicative_order():
    from brokenline import multiplicative_order

    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 127) == 7
    assert multiplicative_order(2, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(2, 12)  # rho-shaped power cycle, never 1


def test_order_and_expansion_stop_at_their_limit():
    from brokenline import BudgetExceeded, multiplicative_order

    # a limit at or past the order changes nothing; one below it stops the
    # search; one past the modulus leaves the invertibility test as it is
    assert multiplicative_order(2, 127, limit=7) == 7
    assert multiplicative_order(2, 127, limit=10**9) == 7
    with pytest.raises(BudgetExceeded, match="exceeds 6"):
        multiplicative_order(2, 127, limit=6)
    with pytest.raises(ValueError, match="not invertible"):
        multiplicative_order(2, 12, limit=100)
    # the order of 2 modulo 10^9 + 7 is 500000003: the search stops at 1000
    with pytest.raises(BudgetExceeded):
        multiplicative_order(2, 10**9 + 7, limit=1000)
    assert fraction_to_expansion(Fraction(5, 12), 2) == PeriodicAngle("01", "10")
    assert fraction_to_expansion(Fraction(1, 2), 1) == PeriodicAngle("1", "0")
    with pytest.raises(BudgetExceeded):
        fraction_to_expansion(Fraction(3, 508), 6)  # 508 = 4 * 127


def test_order_past_its_budget_is_refused_at_any_width():
    # the message names a modulus past 14,285 bits by its bit length, under
    # the interpreter's default cap on int-to-str conversion too: a
    # 50,000-bit modulus has 15,052 digits
    from brokenline import BudgetExceeded

    modulus = (1 << 50_000) - 3
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        with pytest.raises(BudgetExceeded) as refused:
            fraction_to_expansion(Fraction(1, modulus), 100)
    finally:
        sys.set_int_max_str_digits(limit)
    expected = "the order of 2 modulo an integer of 50000 bits exceeds 100"
    assert str(refused.value) == expected


def test_order_of_a_base_sharing_a_factor_is_refused_at_once():
    # no power of such a base is 1: the gcd refuses it before any step, where
    # a search would run until k passed the modulus, and a limit does not
    # turn the refusal into a budget error
    from brokenline import BudgetExceeded, multiplicative_order

    try:
        multiplicative_order(2, 1 << 20, limit=10)
    except BudgetExceeded:
        pytest.fail("a base with no order raised BudgetExceeded")
    except ValueError as refused:
        assert str(refused) == "2 is not invertible modulo 1048576"
    for base, modulus in ((2, 1 << 64), (6, 3**41), (2, 1 << 20), (0, 5)):
        with pytest.raises(ValueError, match="^.* is not invertible modulo .*$"):
            multiplicative_order(base, modulus)


def test_order_messages_name_a_wide_modulus_by_its_bit_length():
    # up to 14,285 bits, which holds every 4,300-digit integer, the modulus
    # is written in decimal, past str's default cap of 4,300 digits too; a
    # wider one by its bit length, so the 2^20-bit refusal takes no time
    import time

    from brokenline import BudgetExceeded, multiplicative_order

    assert ((10**4300 - 1) >> 14_285) == 0  # the widest the parse cap admits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        with pytest.raises(BudgetExceeded) as decimal:
            multiplicative_order(2, 10**4300 + 1, limit=100)  # 4,301 digits
        with pytest.raises(ValueError) as even:
            multiplicative_order(2, 10**4300 + 2)
        with pytest.raises(BudgetExceeded) as wide:
            multiplicative_order(2, (1 << 14_285) + 1, limit=100)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as widest:
            fraction_to_expansion(Fraction(1, (1 << 1_048_576) - 3), 10)
        took = time.perf_counter() - start
    finally:
        sys.set_int_max_str_digits(limit)
    digits = "1" + "0" * 4299 + "1"
    assert str(decimal.value) == f"the order of 2 modulo {digits} exceeds 100"
    assert str(even.value) == f"2 is not invertible modulo {digits[:-1]}2"
    assert str(wide.value) == "the order of 2 modulo an integer of 14286 bits exceeds 100"
    expected = "the order of 2 modulo an integer of 1048576 bits exceeds 10"
    assert str(widest.value) == expected
    assert took < 0.5


def test_dyadic_angle_passes_any_period_budget(capsys):
    import json

    from brokenline import multiplicative_order
    from brokenline.cli import main

    # a dyadic angle's period is "0", one step of the order of 2 modulo 1,
    # which is returned ahead of any budget, 0 included
    assert multiplicative_order(2, 1, limit=0) == 1
    for budget in (None, 0, 1, 5):
        assert str(fraction_to_expansion(Fraction(3, 8), budget)) == "0.[011](0)"
    assert main(["tune", "3/8", "1/3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok"
    assert doc["payload"]["tuned"] == "0.[001010010](001)"


def test_periodic_angle_parse_rejects_junk():
    for bad in ["0.[01]((10))", "0.(01)(10)", "0.[](01)", "0.01", "(01)", "0.(2)"]:
        with pytest.raises(ValueError):
            PeriodicAngle.parse(bad)
    with pytest.raises(ValueError):
        PeriodicAngle("01", "")
    with pytest.raises(ValueError):
        PeriodicAngle("2", "01")


def test_order_modulo_less_than_one_is_refused():
    from brokenline import multiplicative_order

    for modulus in (0, -3):
        with pytest.raises(ValueError, match="^modulus must be positive$"):
            multiplicative_order(2, modulus)
