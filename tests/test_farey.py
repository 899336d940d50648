from fractions import Fraction

import pytest

from brokenline import (
    Convention,
    FareyContext,
    HypothesisViolated,
    NotCoprime,
    bezout_minimal,
    bound_fraction,
    broken_line_word,
    farey_parents,
    mediant,
    single_block_slope,
    stern_brocot_path,
    validate_spec,
)
from helpers import (
    CONVENTIONS,
    all_specs,
    broken_word_by_digit_rule,
    reduced_fractions,
    rotation_digit_word,
)


def test_mediant():
    assert mediant(Fraction(0), Fraction(1)) == Fraction(1, 2)
    assert mediant(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)
    assert mediant(Fraction(1, 2), Fraction(1)) == Fraction(2, 3)


def test_farey_parents_golden():
    assert farey_parents(Fraction(2, 5)) == (Fraction(1, 3), Fraction(1, 2))
    assert farey_parents(Fraction(1, 2)) == (Fraction(0), Fraction(1))
    assert farey_parents(Fraction(3, 7)) == (Fraction(2, 5), Fraction(1, 2))


def test_farey_parents_are_neighbors_with_right_mediant():
    for x in reduced_fractions(100):
        lower, upper = farey_parents(x)
        det = (
            upper.numerator * lower.denominator
            - lower.numerator * upper.denominator
        )
        assert det == 1
        assert mediant(lower, upper) == x


def test_bound_fraction_golden():
    assert bound_fraction(Fraction(2, 5), 3, Convention.ZERO_ONE) == Fraction(5, 12)
    assert bound_fraction(Fraction(1, 2), 1, Convention.ZERO_ONE) == Fraction(1)
    assert bound_fraction(Fraction(2, 5), 3, Convention.ONE_ZERO) == Fraction(5, 13)


def test_bound_fraction_monotone_in_hinge():
    for x in reduced_fractions(20):
        for hinge in range(1, 20):
            upper_now = bound_fraction(x, hinge, Convention.ZERO_ONE)
            upper_next = bound_fraction(x, hinge + 1, Convention.ZERO_ONE)
            assert x < upper_next < upper_now
            lower_now = bound_fraction(x, hinge, Convention.ONE_ZERO)
            lower_next = bound_fraction(x, hinge + 1, Convention.ONE_ZERO)
            assert lower_now < lower_next < x


def test_bound_and_context_reject_bad_limbs_and_hinges():
    # a limb outside (0, 1), hinge 0, and both at once: the limb is checked
    # first, by bound_fraction's own range check or by the Farey parents
    limb_message = "limb fraction must lie strictly between 0 and 1"
    parents_message = "parents exist for fractions strictly between 0 and 1"
    hinge_message = "hinge must be a positive integer"
    cases = [
        (Fraction(3, 2), 1, limb_message, parents_message),
        (Fraction(1, 2), 0, hinge_message, hinge_message),
        (Fraction(0), 0, limb_message, parents_message),
    ]
    for limb, hinge, bound_text, context_text in cases:
        for convention in CONVENTIONS:
            with pytest.raises(ValueError) as bound_error:
                bound_fraction(limb, hinge, convention)
            assert str(bound_error.value) == bound_text
            with pytest.raises(ValueError) as context_error:
                FareyContext.build(limb, hinge, convention)
            assert str(context_error.value) == context_text


def test_context_and_spec_keep_their_words():
    # the context's words against the digit rule, except at the boundary
    # parents 0/1 and 1/1, which carry mechanical_word's one-letter words
    # where the digit rule would spell "10" and "01"
    boundary = {Fraction(0): "0", Fraction(1): "1"}
    seen = set()
    for limb in reduced_fractions(30):
        lower, upper = farey_parents(limb)
        for hinge in (1, 2, 3):
            for convention in CONVENTIONS:
                ctx = FareyContext.build(limb, hinge, convention)
                zero_one = convention is Convention.ZERO_ONE
                assert ctx.parent == (upper if zero_one else lower)
                assert ctx.limb_word == rotation_digit_word(limb, convention)
                if ctx.parent in boundary:
                    seen.add((limb, convention))
                    assert ctx.parent_word == boundary[ctx.parent]
                else:
                    assert ctx.parent_word == rotation_digit_word(
                        ctx.parent, convention
                    )
    assert seen == {
        (Fraction(p, q), convention)
        for q in range(2, 31)
        for p, convention in [(1, Convention.ONE_ZERO), (q - 1, Convention.ZERO_ONE)]
    }
    for spec in all_specs(3, 24):
        word = broken_line_word(spec)
        assert word == broken_word_by_digit_rule(spec)
        assert broken_line_word(spec) is word


def test_single_block_slope_golden():
    ctx = FareyContext.build(Fraction(1, 2), 1, Convention.ZERO_ONE)
    assert single_block_slope(ctx, 0) == Fraction(1, 2)
    assert single_block_slope(ctx, 1) == Fraction(2, 3)
    ctx = FareyContext.build(Fraction(2, 5), 2, Convention.ZERO_ONE)
    assert single_block_slope(ctx, 1) == Fraction(5, 12)


def test_single_block_slopes_march_toward_the_bound():
    for x in reduced_fractions(12):
        for hinge in (1, 2, 3):
            for convention in CONVENTIONS:
                ctx = FareyContext.build(x, hinge, convention)
                previous = x
                for m in range(1, 21):
                    current = single_block_slope(ctx, m)
                    if convention is Convention.ZERO_ONE:
                        assert previous < current < ctx.bound
                    else:
                        assert ctx.bound < current < previous
                    previous = current


def test_validate_spec_golden():
    spec = validate_spec(
        Fraction(2, 5), Fraction(7, 17), 3, Convention.ZERO_ONE
    )
    assert spec.period == 17
    assert spec.context.lower_parent == Fraction(1, 3)
    assert spec.context.upper_parent == Fraction(1, 2)
    validate_spec(Fraction(1, 2), Fraction(3, 4), 1, Convention.ZERO_ONE)
    with pytest.raises(HypothesisViolated):
        validate_spec(Fraction(2, 5), Fraction(1, 2), 3, Convention.ZERO_ONE)


def test_validate_spec_rejects_unreduced_pairs():
    with pytest.raises(HypothesisViolated):
        validate_spec(Fraction(1, 2), (6, 8), 1, Convention.ZERO_ONE)
    with pytest.raises(HypothesisViolated):
        validate_spec((2, 4), (3, 4), 1, Convention.ZERO_ONE)
    # reduced tuples pass
    spec = validate_spec((1, 2), (3, 4), 1, Convention.ZERO_ONE)
    assert spec.slope == Fraction(3, 4)


def test_validate_spec_accepts_single_block_slopes_but_not_the_bound():
    ctx = FareyContext.build(Fraction(2, 5), 2, Convention.ZERO_ONE)
    slope = single_block_slope(ctx, 2)
    validate_spec(Fraction(2, 5), slope, 2, Convention.ZERO_ONE)
    with pytest.raises(HypothesisViolated):
        validate_spec(Fraction(2, 5), ctx.bound, 2, Convention.ZERO_ONE)


def _farey_neighbours(x):
    """The fractions of [0, 1] with denominator at most x's that sit closest
    below and above x, found by search."""
    candidates = [Fraction(0), Fraction(1), *reduced_fractions(x.denominator)]
    return (
        max(f for f in candidates if f < x),
        min(f for f in candidates if f > x),
    )


def _expected_rejection(limb, slope, hinge, convention, bound):
    """The message validate_spec must raise with, or None to accept."""
    if not 0 < limb < 1:
        return f"0 < P/Q < 1 fails for {limb}"
    if not 0 < slope < 1:
        return f"0 < a/b < 1 fails for {slope}"
    if convention is Convention.ZERO_ONE:
        if not limb < slope:
            return f"P/Q < a/b fails: {limb} vs {slope}"
        if not slope < bound:
            return f"a/b below the hinge bound fails: {slope} vs {bound}"
    else:
        if not bound < slope:
            return f"a/b above the hinge bound fails: {slope} vs {bound}"
        if not slope < limb:
            return f"a/b < P/Q fails: {slope} vs {limb}"
    return None


def test_validate_spec_matches_fraction_predicate_exhaustively():
    # every limb with Q <= 12 and slope with b <= 30, the ends 0 and 1
    # included, at hinges 1..4 under both conventions
    ends = [Fraction(0), Fraction(1)]
    limbs = ends + list(reduced_fractions(12))
    slopes = ends + list(reduced_fractions(30))
    accepted = 0
    for limb in limbs:
        parents = _farey_neighbours(limb) if 0 < limb < 1 else None
        for hinge in range(1, 5):
            for convention in CONVENTIONS:
                bound = None
                if parents is not None:
                    # hinge - 1 copies of the limb joined to the upper parent
                    # under 01, to the lower one under 10
                    lower, upper = parents
                    bound = upper if convention is Convention.ZERO_ONE else lower
                    for _ in range(hinge - 1):
                        bound = mediant(bound, limb)
                    ctx = FareyContext.build(limb, hinge, convention)
                    assert (ctx.lower_parent, ctx.upper_parent) == parents
                    assert parents == farey_parents(limb)
                    assert ctx.bound == bound == bound_fraction(limb, hinge, convention)
                    assert (ctx.p_over_q, ctx.hinge, ctx.convention) == (
                        limb,
                        hinge,
                        convention,
                    )
                for slope in slopes:
                    message = _expected_rejection(limb, slope, hinge, convention, bound)
                    try:
                        spec = validate_spec(limb, slope, hinge, convention)
                    except HypothesisViolated as rejection:
                        assert str(rejection) == message
                    else:
                        assert message is None
                        assert spec.slope == slope
                        assert spec.context == ctx
                        accepted += 1
    assert accepted > 0


def test_bezout_minimal():
    assert bezout_minimal(5, 2) == (2, 1)
    assert bezout_minimal(2, 1) == (1, 1)
    assert bezout_minimal(7, 3) == (2, 1)
    with pytest.raises(NotCoprime):
        bezout_minimal(6, 4)
    with pytest.raises(ValueError):
        bezout_minimal(3, 5)


def test_bezout_minimal_is_minimal():
    for q in range(2, 40):
        for t in range(1, q):
            from math import gcd

            if gcd(q, t) != 1:
                continue
            p, s = bezout_minimal(q, t)
            assert s * q - t * p == 1
            assert 0 < p < q


def test_out_of_range_inputs_are_refused():
    # a raw pair with a denominator that is not positive, either argument
    for limb, slope, name in (((1, 0), (1, 3), "P/Q"), ((1, 3), (1, -5), "a/b")):
        with pytest.raises(HypothesisViolated, match=f"^{name}: denominator must be positive$"):
            validate_spec(limb, slope, 1, Convention.ZERO_ONE)
    for x in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValueError, match="^x must lie strictly between 0 and 1$"):
            stern_brocot_path(x)
    context = FareyContext.build(Fraction(1, 3), 1, Convention.ZERO_ONE)
    with pytest.raises(ValueError, match="^m must be nonnegative$"):
        single_block_slope(context, -1)
