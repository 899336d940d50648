import json
import random
from fractions import Fraction
from math import gcd

import pytest

from brokenline import (
    BracketingFailed,
    Convention,
    HypothesisViolated,
    InvariantViolated,
    PeriodicAngle,
    PreconditionUnmet,
    atlas,
    broken_line_word,
    conjugate_angle,
    enumerate_specs,
    euler_phi,
    fraction_to_expansion,
    invert_kneading,
    junction_rays,
    kneading_of_spec,
    lavaurs_partner,
    locate,
    mechanical_word,
    minimal_period,
    prime_minus,
    prime_plus,
    stern_brocot_path,
    sturmian_census,
    tune,
    tuned_is_nonsturmian,
    validate_spec,
    word_to_fraction,
)
from brokenline.angles import _terms
from brokenline.cli import main
from helpers import (
    CONVENTIONS,
    all_specs,
    assert_row_grammar,
    balanced_by_factor_counts,
    census_by_rotations,
    census_by_word,
    enumerate_by_validation,
    enumerate_specs_per_spec,
    reduced_fractions,
    spec_rows_by_caps,
)


def _spec(limb, slope, hinge, convention):
    return validate_spec(
        Fraction(*limb), Fraction(*slope), hinge, Convention(convention)
    )


def test_tune_golden():
    assert tune(PeriodicAngle(period="0"), Fraction(1, 2)).value == Fraction(1, 3)
    assert tune(PeriodicAngle(period="011"), Fraction(1, 2)) == PeriodicAngle(
        period="011010"
    )


def test_tune_of_dyadic_hits_the_last_junction_ray():
    # the binary point 1/2**n tunes onto the outermost ray of the junction
    for hinge in (1, 2, 3):
        for bulb in [Fraction(1, 2), Fraction(2, 5), Fraction(3, 7)]:
            tuned = tune(
                fraction_to_expansion(Fraction(1, 2**hinge)), bulb
            )
            rays = junction_rays(bulb, hinge, Convention.ZERO_ONE)
            assert tuned.value == rays[-1].value


def test_tuned_is_nonsturmian_golden():
    assert tuned_is_nonsturmian(PeriodicAngle(period="011"), Fraction(1, 2))
    assert tuned_is_nonsturmian(PeriodicAngle(period="01"), Fraction(2, 5))
    with pytest.raises(PreconditionUnmet):
        tuned_is_nonsturmian(PeriodicAngle(period="0"), Fraction(1, 2))
    with pytest.raises(PreconditionUnmet):
        tuned_is_nonsturmian(PeriodicAngle(period="0", preperiod="01"), Fraction(1, 2))


def test_tuned_is_nonsturmian_randomized():
    rng = random.Random(11)
    bulbs = list(reduced_fractions(9))
    done = 0
    while done < 200:
        length = rng.randrange(2, 9)
        word = "".join(rng.choice("01") for _ in range(length))
        if "01" not in word + word or "10" not in word + word:
            continue
        phi = PeriodicAngle(period=word)
        if "01" not in phi.period * 2 or "10" not in phi.period * 2:
            continue
        assert tuned_is_nonsturmian(phi, rng.choice(bulbs))
        done += 1


def test_junction_rays_golden():
    rays = junction_rays(Fraction(1, 2), 1, Convention.ZERO_ONE)
    assert [r.value for r in rays] == [Fraction(5, 12), Fraction(7, 12)]
    assert str(rays[0]) == "0.[01](10)"
    rays10 = junction_rays(Fraction(1, 2), 1, Convention.ONE_ZERO)
    assert [r.value for r in rays10] == [Fraction(5, 12), Fraction(7, 12)]
    assert len(junction_rays(Fraction(2, 5), 2, Convention.ZERO_ONE)) == 5


def test_junction_rays_increase_within_their_interval():
    for bulb in reduced_fractions(10):
        for hinge in (1, 2, 3):
            for convention in CONVENTIONS:
                word = mechanical_word(bulb, convention)
                if convention is Convention.ZERO_ONE:
                    primed = prime_plus(word)
                    first = PeriodicAngle(word * hinge, primed)
                    last = PeriodicAngle(word * (hinge - 1) + primed, word)
                else:
                    primed = prime_minus(word)
                    first = PeriodicAngle(word * (hinge - 1) + primed, word)
                    last = PeriodicAngle(word * hinge, primed)
                rays = junction_rays(bulb, hinge, convention)
                assert rays[0] == first and rays[-1] == last
                values = [r.value for r in rays]
                assert values == sorted(values)
                assert len(set(values)) == bulb.denominator
                q = bulb.denominator
                for ray in rays:
                    assert len(ray.preperiod) == hinge * q
                    assert len(ray.period) == q


def test_locate_golden():
    spot = locate(_spec((1, 2), (3, 4), 1, "01"))
    assert spot.spoke_index == 1
    assert spot.sublimb_internal_angle == Fraction(1, 2)
    assert [r.value for r in spot.bracketing_rays] == [
        Fraction(5, 12),
        Fraction(7, 12),
    ]
    assert spot.junction_preperiod == 2

    spot10 = locate(_spec((1, 2), (1, 4), 1, "10"))
    assert spot10.spoke_index == 1
    assert spot10.sublimb_internal_angle == Fraction(1, 2)
    assert [r.value for r in spot10.bracketing_rays] == [
        Fraction(5, 12),
        Fraction(7, 12),
    ]

    spot2 = locate(_spec((2, 5), (7, 17), 2, "01"))
    assert spot2.spoke_index == 1
    assert spot2.limb == Fraction(2, 5)
    assert spot2.sublimb_internal_angle == Fraction(1, 3)
    assert spot2.junction_preperiod == 10


def test_locate_brackets_with_the_junction_rays():
    # locate builds only the two rays around its spoke; they must be the
    # ones junction_rays lists there
    for spec in all_specs(3, 40):
        ctx = spec.context
        rays = junction_rays(ctx.p_over_q, ctx.hinge, ctx.convention)
        q = ctx.p_over_q.denominator
        if ctx.convention is Convention.ZERO_ONE:
            expected = rays[0:2]
        else:
            expected = rays[q - 2 : q]
        assert locate(spec).bracketing_rays == tuple(expected)


def test_locate_never_fails_on_valid_specs():
    for spec in all_specs(3, 14):
        spot = locate(spec)
        lo, hi = spot.bracketing_rays
        theta = word_to_fraction(broken_line_word(spec))
        assert lo.value < theta < hi.value


def test_locate_rejects_the_neighbouring_spoke(capsys, monkeypatch):
    # handed the rays of the next spoke inward, locate must find the angle
    # below the lower ray (01, spoke 2) or above the upper one (10, spoke
    # Q-2) and say so in Fractions; the command line's checks, which bracket
    # without building a SpokeLocation, must fail the same way
    expected = {}
    for spec in all_specs(3, 16):
        ctx = spec.context
        q = ctx.p_over_q.denominator
        if q < 3:
            continue
        rays = junction_rays(ctx.p_over_q, ctx.hinge, ctx.convention)
        zero_one = ctx.convention is Convention.ZERO_ONE
        lo, hi = rays[1:3] if zero_one else rays[q - 3 : q - 1]
        theta = word_to_fraction(broken_line_word(spec))
        expected[spec] = f"{theta} is outside ({lo.value}, {hi.value})"
    real = atlas._junction_rays
    step = {Convention.ZERO_ONE: 1, Convention.ONE_ZERO: -1}

    def inward(context, indices):
        indices = tuple(k + step[context.convention] for k in indices)
        return real(context, indices)

    monkeypatch.setattr(atlas, "_junction_rays", inward)
    for spec, message in expected.items():
        with pytest.raises(BracketingFailed) as failure:
            locate(spec)
        assert str(failure.value) == message
    assert len(expected) > 100
    for argv in (
        ("enumerate", "--period", "9", "--check"),
        ("broken", "2/5", "7/17", "--hinge", "2", "--convention", "01", "--check"),
    ):
        assert main([*argv, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error_kind"] == "BracketingFailed"
        assert " is outside (" in doc["message"]


def test_enumerate_golden():
    assert enumerate_specs(3).angles == [Fraction(3, 7), Fraction(4, 7)]
    enum4 = enumerate_specs(4)
    assert enum4.angles == [
        Fraction(4, 15),
        Fraction(7, 15),
        Fraction(8, 15),
        Fraction(11, 15),
    ]
    assert len(enum4) == (4 - 2) * euler_phi(4)
    assert len(atlas.SpecEnumeration(3, ())) == 0


def test_enumeration_is_injective():
    # one row per angle and its keys strictly increasing, read without
    # building the entries; an enumeration has no collisions to report
    assert not hasattr(atlas.SpecEnumeration, "collisions")
    for b in range(3, 201):
        enumeration = enumerate_specs(b)
        assert_row_grammar(enumeration)
        assert "entries" not in vars(enumeration)
    # the argument of enumerate_specs: the kneading, a function of the angle,
    # gives the spec back under its own convention, and under the other the
    # mirrored limb and slope 1 - a/b, whose word has b - a ones, not a
    other = dict(zip(CONVENTIONS, reversed(CONVENTIONS)))
    for b in range(3, 41):
        for spec in enumerate_specs(b).specs():
            kneading = kneading_of_spec(spec)
            assert invert_kneading(kneading, spec.convention)[0] == spec
            mirrored, _ = invert_kneading(kneading, other[spec.convention])
            assert mirrored.slope == 1 - spec.slope
            assert mirrored.p_over_q == 1 - spec.p_over_q
            assert mirrored.hinge == spec.hinge


def test_enumerate_rows_group_by_angle():
    # one row per angle; _row_spec builds, alone, the spec that entries
    # builds for the same row
    for b in range(3, 41):
        enumeration = enumerate_specs(b)
        assert_row_grammar(enumeration)
        specs = [atlas._row_spec(b, row) for row in enumeration.rows]
        assert specs == enumeration.specs()
    assert_row_grammar(atlas.SpecEnumeration(3, ()))


def test_enumerate_entries_build_every_spec_through_row_spec(monkeypatch):
    # entries builds each spec from its row by _row_spec, once per row, in
    # row order, and builds no spec any other way
    real, calls = atlas._row_spec, []

    def counted(period, row):
        calls.append((period, row))
        return real(period, row)

    monkeypatch.setattr(atlas, "_row_spec", counted)
    for b in range(3, 21):
        enumeration = enumerate_specs(b)
        calls.clear()
        specs = enumeration.specs()
        assert calls == [(b, row) for row in enumeration.rows]
        assert len(specs) == len(calls)


def test_enumerate_names_the_row_whose_slope_word_breaks_the_prefix(monkeypatch):
    # slope words of 0s alone are right for a = 1 only: the walk of 2/9 meets
    # 1/4 twice hinged under 10, whose prefix 0010 0010 its word 000000010
    # does not end in, and raises with the spec of that row
    monkeypatch.setattr(atlas, "_digits", lambda p, q: "0" * (q - 2))
    with pytest.raises(InvariantViolated) as failure:
        enumerate_specs(9)
    assert str(failure.value) == (
        "enumerate_specs: slope word does not end in the hinge prefix"
    )
    assert failure.value.spec == _spec((1, 4), (2, 9), 2, "10")


def test_enumerate_matches_the_per_spec_loop():
    # one rotated word per slope and integer keys give the same angles, the
    # same specs and the same spec order as building every word on its own,
    # and the integer walk with one context per node, hinge and convention
    # gives the same as validating every candidate of stern_brocot_path: one
    # (angle, spec) per angle, each reference refusing a key met twice
    for b in [*range(3, 61), 127]:
        enumeration = enumerate_specs(b)
        assert enumeration.entries == enumerate_specs_per_spec(b)
        assert enumeration.entries == enumerate_by_validation(b)
        angles = enumeration.angles
        assert all(x < y for x, y in zip(angles, angles[1:]))


def test_enumerate_keys_of_one_orbit_share_one_gcd():
    # every key of one slope and turn is a rotation of one slope word, so
    # all of them share one gcd with 2^b - 1: the command reduces each
    # orbit once
    for b in [*range(3, 61), 127, 229]:
        full = (1 << b) - 1
        gcds = {}
        for key, *_, turn, a in enumerate_specs(b).rows:
            gcds.setdefault((a, turn), set()).add(gcd(key, full))
        assert gcds and all(len(found) == 1 for found in gcds.values()), b


def test_enumerate_checks_the_hinge_prefix(monkeypatch):
    real = atlas._digits

    def wrong_slope_digits(p, q):
        # the slope word of period 7 gets its last inner digit flipped: the
        # limb words carried down the walk no longer match its end
        digits = real(p, q)
        if q == 7:
            return digits[:-1] + ("1" if digits[-1] == "0" else "0")
        return digits

    monkeypatch.setattr(atlas, "_digits", wrong_slope_digits)
    with pytest.raises(InvariantViolated) as failure:
        enumerate_specs(7)
    assert failure.value.stage == "enumerate_specs"
    assert failure.value.spec.period == 7


def test_enumerate_checks_the_hinge_inequalities():
    # every strict ancestor of a slope has the hinges 1..H for its turn's
    # convention, and hinge H + 1 breaks the hinge bound: validate_spec
    # rejects it with the error the walk's bound test stands for
    for b in (3, 7, 12):
        hinges = {}
        for _, p, q, hinge, turn, a in enumerate_specs(b).rows:
            hinges.setdefault((Fraction(p, q), turn, a), []).append(hinge)
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            for node, turn in stern_brocot_path(Fraction(a, b)):
                found = sorted(hinges.pop((node, turn, a)))
                assert found == list(range(1, len(found) + 1))
                convention = atlas._TURNS[turn]
                with pytest.raises(HypothesisViolated) as failure:
                    validate_spec(node, Fraction(a, b), len(found) + 1, convention)
                assert "hinge bound fails" in str(failure.value)
        assert not hinges


def test_spec_rows_match_the_straight_run_rule():
    # hinges taken while the bound inequality holds, with limb values carried
    # down the walk, give the rows of capping each node's hinges by the
    # straight run after its turn and matching limb strings: same tuples,
    # same order
    for b in [*range(3, 201), 509, 1009]:
        assert atlas._spec_rows(b) == spec_rows_by_caps(b), b


def test_enumerated_conjugates():
    # every constructed angle's conjugate is its pairing partner; in the
    # half limb with hinge 1 the conjugate is realized by the mirrored
    # convention (elsewhere the partner is usually not balanced at all)
    for b in range(3, 13):
        enumeration = enumerate_specs(b)
        angles = set(enumeration.angles)
        for angle, spec in enumeration.entries:
            partner = conjugate_angle(spec).value
            assert partner == lavaurs_partner(angle)
            if spec.p_over_q == Fraction(1, 2) and spec.hinge == 1:
                assert partner in angles


def test_census_small():
    assert sturmian_census(3) == (2, 2, 2)
    assert sturmian_census(4) == (4, 4, 4)
    for b in range(5, 11):
        constructed, formula, brute = sturmian_census(b)
        # the closed form counts the ambient balanced primitive angles and
        # the sweep always confirms it; the construction reaches all of them
        # only for small periods (first gap at period 7: 0.(0110111) and
        # 0.(1001000) arise from no hinge choice at all)
        assert formula == brute == (b - 2) * euler_phi(b)
        assert constructed <= brute
        if b <= 6:
            assert constructed == brute


def test_census_by_orbit_matches_the_census_by_word():
    # balance and exact period tested once per doubling orbit over integer
    # chords give the counts of testing every word over the Fraction pairs
    for b in range(3, 13):
        assert sturmian_census(b) == census_by_word(b)


def test_census_sweep_matches_the_rotation_sweep():
    # orbits walked by integer doubling count what orbits rebuilt from
    # string rotations counted
    for b in range(3, 15):
        assert sturmian_census(b) == census_by_rotations(b)


def test_census_constructed_angles_are_counted_by_the_sweep():
    for b in range(3, 11):
        enumeration = enumerate_specs(b)
        for angle, spec in enumeration.entries:
            word = broken_line_word(spec)
            assert balanced_by_factor_counts(word)
            assert minimal_period(word) == b


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]


def test_out_of_range_inputs_are_refused():
    phi = PeriodicAngle(period="01")
    for bulb in (Fraction(0), Fraction(1), Fraction(-1, 2)):
        with pytest.raises(
            ValueError, match="^bulb fraction must lie strictly between 0 and 1$"
        ):
            tune(phi, bulb)
    with pytest.raises(ValueError, match="^hinge must be a positive integer$"):
        junction_rays(Fraction(1, 3), 0, Convention.ZERO_ONE)
    for period in (2, 0):
        with pytest.raises(ValueError, match="^enumeration starts at period 3$"):
            enumerate_specs(period)


def test_bracket_equals_locate():
    # the command line prints the spoke and its rays from _bracket's words,
    # without the SpokeLocation locate wraps them in
    for spec in all_specs(3, 30):
        spot = locate(spec)
        index, low, high = atlas._bracket(spec)
        assert index == spot.spoke_index
        assert (Fraction(*_terms(*low)), Fraction(*_terms(*high))) == tuple(
            ray.value for ray in spot.bracketing_rays
        )
