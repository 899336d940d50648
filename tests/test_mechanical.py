import itertools
import random
import sys
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from brokenline import (
    ClassOrder,
    Convention,
    FareyContext,
    MalformedCuttingSequence,
    block_decomposition,
    block_word,
    broken_line_angle,
    broken_line_tags,
    broken_line_word,
    characteristic_pair,
    compare_prefix_classes,
    conjugate_word,
    cutting_sequence,
    cutting_to_mechanical,
    farey_parents,
    mechanical_word,
    mediant_tags,
    minimal_period,
    prime_minus,
    prime_plus,
    single_block_slope,
    stern_brocot_path,
    validate_spec,
)
from brokenline import cli, farey
from brokenline.mechanical import _block_pattern, _blocks, _digits, _spell
from helpers import (
    CONVENTIONS,
    all_specs,
    balanced_by_factor_counts,
    base_index_by_scan,
    block_labels_by_runs,
    block_word_by_runs,
    broken_word_by_digit_rule,
    contract_by_scan,
    cutting_sequence_by_tuples,
    descent_tags,
    digit_rule,
    exponents_by_tag_parse,
    mediant_word,
    pair_rewrite,
    reduced_fractions,
    rotation_digit_word,
    substitute_by_replace,
    tags_by_descent,
)


def test_cutting_sequence_golden():
    assert cutting_sequence(Fraction(1, 3), Convention.ZERO_ONE) == "0001"
    assert cutting_sequence(Fraction(1, 3), Convention.ONE_ZERO) == "0010"
    assert cutting_sequence(Fraction(2, 5), Convention.ZERO_ONE) == "0010001"


def test_cutting_to_mechanical_golden():
    assert cutting_to_mechanical("0001") == "001"
    assert cutting_to_mechanical("0010") == "010"
    assert cutting_to_mechanical("0010001") == "01001"


def test_cutting_to_mechanical_rejects_orphan_ones():
    with pytest.raises(MalformedCuttingSequence):
        cutting_to_mechanical("100")
    with pytest.raises(MalformedCuttingSequence):
        cutting_to_mechanical("011")


def test_cutting_to_mechanical_rejects_other_characters():
    # a non-ASCII letter or a lone surrogate is malformed, not a
    # UnicodeEncodeError
    for kappa in ("0\u00e91", "00\udcff", "0\uff101", "0_01", " 01"):
        with pytest.raises(MalformedCuttingSequence):
            cutting_to_mechanical(kappa)


def _contraction(contract, kappa):
    try:
        return contract(kappa)
    except MalformedCuttingSequence:
        return MalformedCuttingSequence


def test_contraction_matches_the_scan_on_every_short_word():
    # every word over {0, 1, 2} of length <= 9, malformed ones included
    count = 0
    for length in range(10):
        for letters in itertools.product("012", repeat=length):
            kappa = "".join(letters)
            assert _contraction(cutting_to_mechanical, kappa) == _contraction(
                contract_by_scan, kappa
            ), kappa
            count += 1
    assert count == (3**10 - 1) // 2


def test_contraction_matches_the_scan_at_a_long_period():
    for convention in CONVENTIONS:
        kappa = cutting_sequence(Fraction(8001, 16001), convention)
        assert cutting_to_mechanical(kappa) == contract_by_scan(kappa)


def test_contraction_agrees_with_pair_rewriter():
    # also on the doubled word, which exercises the cyclic reading
    for slope in reduced_fractions(30):
        for convention in CONVENTIONS:
            kappa = cutting_sequence(slope, convention)
            word = cutting_to_mechanical(kappa)
            assert word == pair_rewrite(kappa)
            assert pair_rewrite(kappa + kappa) == word + word


def test_mechanical_word_golden():
    assert mechanical_word(Fraction(2, 5), Convention.ZERO_ONE) == "01001"
    assert mechanical_word(Fraction(2, 5), Convention.ONE_ZERO) == "01010"
    assert (
        mechanical_word(Fraction(7, 17), Convention.ZERO_ONE)
        == "01" + "01001" * 3
    )
    assert mechanical_word(Fraction(1), Convention.ZERO_ONE) == "1"
    assert mechanical_word(Fraction(0), Convention.ONE_ZERO) == "0"


def test_mechanical_word_rejects_slopes_outside_its_range():
    out_of_range = [
        (Fraction(0), Convention.ZERO_ONE),
        (Fraction(1), Convention.ONE_ZERO),
    ]
    for convention in CONVENTIONS:
        out_of_range += [(Fraction(3, 2), convention), (Fraction(-1, 2), convention)]
    for slope, convention in out_of_range:
        with pytest.raises(ValueError):
            mechanical_word(slope, convention)


def test_mechanical_word_base_formulas():
    for m in range(2, 11):
        assert (
            mechanical_word(Fraction(1, m), Convention.ZERO_ONE)
            == "0" * (m - 1) + "1"
        )
        assert (
            mechanical_word(Fraction(1, m), Convention.ONE_ZERO)
            == "0" * (m - 2) + "10"
        )


def test_geometric_and_recursive_pipelines_agree():
    for slope in reduced_fractions(30):
        for convention in CONVENTIONS:
            geometric = cutting_to_mechanical(cutting_sequence(slope, convention))
            assert geometric == mediant_word(slope, convention)
            assert geometric == mechanical_word(slope, convention)
            assert geometric == rotation_digit_word(slope, convention)


def test_standard_words_match_the_digit_rule():
    for q in range(2, 501):
        for p in range(1, q):
            if gcd(p, q) == 1:
                assert _digits(p, q) == digit_rule(p, q)
    rng = random.Random(7)
    for _ in range(20):
        q = rng.randrange(3, 200_000)
        p = rng.randrange(1, q)
        while gcd(p, q) != 1:
            p = rng.randrange(1, q)
        slope = Fraction(p, q)
        for convention in CONVENTIONS:
            assert mechanical_word(slope, convention) == rotation_digit_word(
                slope, convention
            )


# letter pairs for the standard-word recursion: the digits, swapped, of
# unequal lengths, and words that hold both digits, as block words do
LETTERS = [
    ("0", "1"),
    ("1", "0"),
    ("0", "11"),
    ("001", "1"),
    ("01", "10"),
    ("10", "0110"),
    ("1101", "01"),
    ("L", "LLP"),
]


def test_standard_words_spell_any_two_letters():
    # the recursion started from two words writes the word of 0s and 1s with
    # each digit replaced by its word, as three str.replace passes do
    for q in range(2, 201):
        for p in range(1, q):
            if gcd(p, q) == 1:
                word = _digits(p, q)
                for zero, one in LETTERS:
                    spelled = substitute_by_replace(word, zero, one)
                    assert _digits(p, q, zero, one) == spelled, (p, q, zero, one)


def test_mechanical_word_keeps_no_memory():
    tracemalloc.start()
    try:
        word = mechanical_word(Fraction(1, 20000), Convention.ZERO_ONE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert word == "0" * 19999 + "1"
    assert peak < 2_000_000


def test_mediant_tags_match_descent():
    # lo, hi: Farey neighbours in [0, 1] with denominators up to 25
    points = [Fraction(0), Fraction(1), *reduced_fractions(25)]
    slopes = list(reduced_fractions(60))
    cases = 0
    for lo, hi in itertools.product(points, points):
        if hi.numerator * lo.denominator - lo.numerator * hi.denominator != 1:
            continue
        for x in slopes:
            if not lo < x < hi:
                continue
            for convention in CONVENTIONS:
                assert mediant_tags(x, lo, hi, convention) == descent_tags(
                    x, lo, hi, convention
                )
                cases += 1
    assert cases == 23662


def test_word_counts_and_minimal_period():
    for slope in reduced_fractions(50):
        for convention in CONVENTIONS:
            word = mechanical_word(slope, convention)
            assert len(word) == slope.denominator
            assert word.count("1") == slope.numerator
            assert minimal_period(word) == slope.denominator


def test_characteristic_pair_golden():
    assert characteristic_pair(Fraction(1, 3)) == (Fraction(1, 7), Fraction(2, 7))
    assert characteristic_pair(Fraction(1, 2)) == (Fraction(1, 3), Fraction(2, 3))
    assert characteristic_pair(Fraction(2, 5)) == (Fraction(9, 31), Fraction(10, 31))


def _spec(limb, slope, hinge, convention):
    return validate_spec(
        Fraction(*limb), Fraction(*slope), hinge, Convention(convention)
    )


def test_broken_line_golden():
    spec = _spec((1, 2), (3, 4), 1, "01")
    assert broken_line_word(spec) == "0111"
    assert broken_line_angle(spec).value == Fraction(7, 15)

    spec = _spec((2, 5), (7, 17), 2, "01")
    assert broken_line_word(spec) == "01001010010101001"
    assert broken_line_angle(spec).value == Fraction(38057, 131071)

    spec = _spec((1, 2), (1, 4), 1, "10")
    assert broken_line_word(spec) == "1000"
    assert broken_line_angle(spec).value == Fraction(8, 15)


def test_broken_line_tags_reconcatenate():
    for spec in all_specs(3, 14):
        tags = broken_line_tags(spec)
        word = "".join(mechanical_word(t, spec.convention) for t in tags)
        assert word == broken_line_word(spec)


def test_broken_line_tags_match_descent():
    for spec in all_specs(3, 30):
        assert broken_line_tags(spec) == tags_by_descent(spec)


def test_block_words_and_lengths():
    ctx = _spec((2, 5), (7, 17), 2, "01").context
    q = ctx.p_over_q.denominator
    t = ctx.upper_parent.denominator
    n = ctx.hinge
    assert block_word(ctx, 0) == mechanical_word(ctx.p_over_q, ctx.convention)
    assert len(block_word(ctx, 0)) == q
    for m in range(1, 5):
        assert len(block_word(ctx, m)) == n * q + (m - 1) * (t + (n - 1) * q) + t


def test_blocks_match_the_limb_runs():
    # every block as one head and e units, against the same block spelled
    # as e parent words set into hinge-sized limb runs: as bits for every
    # index, and as the tags of the single-block slope from index 1 on
    for limb in reduced_fractions(12):
        for hinge in range(1, 5):
            for convention in CONVENTIONS:
                ctx = FareyContext.build(limb, hinge, convention)
                value = {"L": ctx.p_over_q, "P": ctx.parent}
                for e in range(7):
                    assert block_word(ctx, e) == block_word_by_runs(ctx, e)
                    if e == 0:
                        continue
                    slope = single_block_slope(ctx, e)
                    spec = validate_spec(limb, slope, hinge, convention)
                    labels = block_labels_by_runs(hinge, e)
                    assert broken_line_tags(spec) == [value[c] for c in labels]


def test_block_decomposition_golden():
    assert block_decomposition(_spec((1, 2), (3, 4), 1, "01")).exponents == (2,)
    assert block_decomposition(_spec((2, 5), (7, 17), 2, "01")).exponents == (1, 0)
    assert block_decomposition(_spec((2, 5), (7, 17), 3, "01")).exponents == (1,)
    assert block_decomposition(_spec((1, 2), (1, 4), 1, "10")).exponents == (2,)


def test_block_decomposition_rejects_exponents_for_its_pattern():
    # the pattern is the last field; the old order (spec, base_m,
    # exponents, block_words) puts a dict where the pattern goes
    decomposition = block_decomposition(_spec((2, 5), (7, 17), 2, "01"))
    m, words = decomposition.base_m, decomposition.block_words
    assert decomposition.units == (words[m], words[m + 1])
    rebuilt = type(decomposition)(decomposition.spec, m, words, decomposition.pattern)
    assert rebuilt == decomposition
    with pytest.raises(TypeError):
        type(decomposition)(decomposition.spec, m, decomposition.exponents, words)


def test_block_decomposition_reconcatenates():
    for spec in all_specs(3, 16):
        decomposition = block_decomposition(spec)
        assert decomposition.word == broken_line_word(spec)
        exps = decomposition.exponents
        base = decomposition.base_m
        assert set(exps) <= {base, base + 1}
        if len(exps) > 1:
            assert exps[0] == base + 1 and exps[-1] == base


def test_block_pattern_spellings_match_the_replace_reference(capsys):
    # every spelling of the block pattern against its 0s and 1s, written by
    # the digit rule from the pattern's two integers and substituted by
    # str.replace: the block words and their re-concatenation, the conjugate,
    # the tags, the kneading's slots and both per-block lists of broken --all
    deep = (
        _spec((1, 2), (7412, 14823), 1, "01"),
        _spec((1, 3), (1, 16383), 1, "10"),
    )
    for spec in all_specs(3, 40) + deep:
        ctx = spec.context
        m, (rest, limbs) = _block_pattern(spec)
        pattern = "0" if limbs == 1 else "1" + digit_rule(rest, limbs) + "0"
        _, code, low, high = _blocks(spec)
        assert code == (rest, limbs)
        assert low == block_word(ctx, m)
        assert high == ("" if limbs == 1 else block_word(ctx, m + 1))
        assert substitute_by_replace(pattern, low, high) == broken_line_word(spec)
        prime = prime_plus if spec.convention is Convention.ZERO_ONE else prime_minus
        primed = substitute_by_replace(pattern, prime(low), high and prime(high))
        assert conjugate_word(spec) == primed
        n, q, t = ctx.hinge, ctx.p_over_q.denominator, ctx.parent.denominator
        window = ("0" + "1" * (q - 1)) * (n - 1) + "0" + "1" * (t - 1)
        spelled = {}
        for head, unit in (("L", "L" * (n - 1) + "P"), ("1" * q, window)):
            low_e, high_e = head + unit * m, head + unit * (m + 1)
            spelled[head] = substitute_by_replace(pattern, low_e, high_e)
            assert _spell(spec, head, unit) == spelled[head]
        value = {"L": ctx.p_over_q, "P": ctx.parent}
        assert broken_line_tags(spec) == [value[c] for c in spelled["L"]]
        for zero, one in ((m, m + 1), (low, high)):
            per_block = cli._PerBlock(code, zero, one)
            text = substitute_by_replace(pattern, f"{zero} ", f"{one} ")
            assert str(per_block) == text[:-1]
            quote = '"' if isinstance(zero, str) else ""
            items = f"{quote}{zero}{quote}, ", f"{quote}{one}{quote}, "
            per_block.write(as_json=True)
            assert capsys.readouterr().out == substitute_by_replace(pattern, *items)[:-2]


def test_base_index_matches_the_scan():
    for spec in all_specs(3, 70):
        decomposition = block_decomposition(spec)
        base, single = base_index_by_scan(spec)
        assert decomposition.base_m == base
        assert (decomposition.exponents == (base,)) is single
        assert decomposition.exponents == exponents_by_tag_parse(spec)
    # the 1/b family, where the scan walks b - k single-block slopes
    for k, b in ((2, 9973), (6, 10007), (97, 10001)):
        spec = validate_spec(Fraction(1, k), Fraction(1, b), 1, Convention.ONE_ZERO)
        assert base_index_by_scan(spec) == (b - k, True)
        assert block_decomposition(spec).exponents == (b - k,)


def test_block_decomposition_needs_no_single_block_scan(monkeypatch):
    original = farey.single_block_slope

    def refuse(context, m):
        raise AssertionError("single_block_slope was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "brokenline":
            if getattr(module, "single_block_slope", None) is original:
                monkeypatch.setattr(module, "single_block_slope", refuse)
    spec = validate_spec(Fraction(1, 6), Fraction(1, 13517), 1, Convention.ONE_ZERO)
    decomposition = block_decomposition(spec)
    assert decomposition.exponents == (13511,)
    assert decomposition.word == broken_word_by_digit_rule(spec)


def test_broken_line_concatenation_of_mediants():
    # the mediant slope's period word splices its parents' period words
    for spec in all_specs(3, 30):
        lower, upper = farey_parents(spec.slope)
        try:
            low_spec = validate_spec(
                spec.p_over_q, lower, spec.hinge, spec.convention
            )
            high_spec = validate_spec(
                spec.p_over_q, upper, spec.hinge, spec.convention
            )
        except Exception:
            continue
        word = broken_line_word(spec)
        low_word = broken_line_word(low_spec)
        high_word = broken_line_word(high_spec)
        if spec.convention is Convention.ZERO_ONE:
            assert word == high_word + low_word
        else:
            assert word == low_word + high_word


def _first_shift_difference(tags, j):
    # first offset where the shifted label stream departs from the start
    k = len(tags)
    for i in range(k - j + 1):
        if tags[i] != tags[j - 1 + i]:
            return i
    return None


def test_wordwise_shift_comparison():
    for slope in reduced_fractions(30):
        path = stern_brocot_path(slope)
        intervals = []
        lo, hi = Fraction(0), Fraction(1)
        for node, side in path:
            intervals.append((lo, hi))
            if side == "L":
                hi = node
            else:
                lo = node
        intervals.append((lo, hi))
        for lo, hi in intervals[1:]:
            for convention in CONVENTIONS:
                if convention is Convention.ZERO_ONE and lo == 0:
                    continue
                if convention is Convention.ONE_ZERO and hi == 1:
                    continue
                tags = mediant_tags(slope, lo, hi, convention)
                k = len(tags)
                words = [mechanical_word(t, convention) for t in tags]
                full = "".join(words)
                zero_one = convention is Convention.ZERO_ONE
                for j in range(2, k + 1):
                    r = _first_shift_difference(tags, j)
                    assert r is not None and r <= k - j
                    if zero_one:
                        assert tags[r] == hi and tags[j - 1 + r] == lo
                    else:
                        assert tags[r] == lo and tags[j - 1 + r] == hi
                    shifted = "".join(words[j - 1 :])
                    verdict = compare_prefix_classes(shifted, full)
                    assert verdict is (
                        ClassOrder.LT if zero_one else ClassOrder.GT
                    )


def test_blockwise_shift_comparison():
    for spec in all_specs(3, 24):
        decomposition = block_decomposition(spec)
        exps = decomposition.exponents
        k = len(exps)
        if k < 2:
            continue
        hinge_prefix = (
            mechanical_word(spec.p_over_q, spec.convention) * spec.hinge
        )
        streams = [
            "".join(decomposition.block_words[e] for e in exps[j - 1 :])
            + hinge_prefix
            for j in range(1, k + 1)
        ]
        zero_one = spec.convention is Convention.ZERO_ONE
        for j in range(2, k + 1):
            r = _first_shift_difference(list(exps), j)
            assert r is not None and r <= k - j
            assert exps[r] > exps[j - 1 + r]
            verdict = compare_prefix_classes(streams[j - 1], streams[0])
            assert verdict is (ClassOrder.LT if zero_one else ClassOrder.GT)


def test_sturmian_period_sweep():
    for spec in all_specs(3, 18):
        word = broken_line_word(spec)
        assert balanced_by_factor_counts(word)
        assert minimal_period(word) == spec.period


def test_cutting_sequence_matches_the_tuple_sort():
    slopes = [*reduced_fractions(150), Fraction(8001, 16001), Fraction(1, 16001)]
    for slope in slopes:
        for convention in CONVENTIONS:
            assert cutting_sequence(slope, convention) == cutting_sequence_by_tuples(
                slope, convention
            )


def test_cutting_sequence_matches_the_tuple_sort_on_deep_slopes():
    # 1/q, where no horizontal line is crossed, (q - 1)/q, where one 0 parts
    # every two 1s, and the two deep-path families, (q//2 + 1)/q and 1/q, of
    # the benchmark's periods 2^10..2^14.  Then, with q = a*p + r, the
    # Fibonacci ratios, on which p - r, the count of short gaps marked, is
    # neither small nor all; seeded random slopes; and r = 1, where every
    # gap between two horizontals is short, of a verticals
    slopes = []
    for q in (2, 3, 4, 5, 1023, 1025, 2047, 4097, 8191, 14285, 16383):
        slopes += [Fraction(1, q), Fraction(q - 1, q)]
        if q % 2:
            slopes.append(Fraction(q // 2 + 1, q))
    p, q = 1, 2
    while q <= 10946:
        slopes.append(Fraction(p, q))
        p, q = q, p + q
    rng = random.Random(38)
    drawn = []
    while len(drawn) < 20:
        q = rng.randint(5000, 16384)
        p = rng.randrange(1, q)
        if gcd(p, q) == 1:
            drawn.append(Fraction(p, q))
    slopes += drawn
    for k in (1, 2, 3, 7, 100):
        slopes += [Fraction(p, k * p + 1) for p in (2, 3, 10, 999)]
    for slope in slopes:
        for convention in CONVENTIONS:
            kappa = cutting_sequence(slope, convention)
            assert kappa == cutting_sequence_by_tuples(slope, convention), slope
            assert len(kappa) == slope.numerator + slope.denominator


def test_out_of_range_inputs_are_refused():
    for slope in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(
            ValueError, match="^slope must lie strictly between 0 and 1$"
        ):
            cutting_sequence(slope, Convention.ZERO_ONE)
    lo, hi = Fraction(1, 3), Fraction(1, 2)
    for x in (lo, hi, Fraction(3, 5)):
        with pytest.raises(ValueError, match="^x must lie strictly between lo and hi$"):
            mediant_tags(x, lo, hi, Convention.ZERO_ONE)
    with pytest.raises(ValueError, match="^lo and hi must be Farey neighbors$"):
        mediant_tags(Fraction(2, 5), Fraction(1, 3), Fraction(1, 1), Convention.ZERO_ONE)
    context = FareyContext.build(Fraction(1, 3), 1, Convention.ZERO_ONE)
    with pytest.raises(ValueError, match="^m must be nonnegative$"):
        block_word(context, -1)


@pytest.mark.parametrize("q", [2, 3, 16383, 1_000_001])
def test_cutting_sequence_of_one_over_q_is_one_run(q):
    # the line y = x/q crosses no horizontal before the lattice point (q, 1):
    # q - 1 verticals, then the marker
    for convention in CONVENTIONS:
        word = cutting_sequence(Fraction(1, q), convention)
        assert word == "0" * (q - 1) + convention.value
