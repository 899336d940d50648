import time
import tracemalloc
from fractions import Fraction

import pytest

from brokenline import (
    Convention,
    InvariantViolated,
    UnlinkViolation,
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
from brokenline import conjugate, oracles
from brokenline.oracles import (
    _CLOSE,
    _OPEN,
    _check_chain,
    _check_pairing,
    _kneading_of_word,
    _pair_regions,
    _partners_at,
)
from helpers import (
    LAVAURS_GRID,
    all_specs,
    chain_by_integers,
    chain_by_stored_lists,
    lavaurs_pairs_by_heap,
)


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
    # the chain checks itself on words; the preimages it hands out are
    # built separately and checked here
    for spec in all_specs(3, 10):
        chain = conjugate_chain(spec)
        values = [angle.value for angle in chain.preimages]
        assert len(values) == spec.period
        assert 2 * values[0] % 1 == chain.theta.value
        for earlier, later in zip(values, values[1:]):
            assert 2 * later % 1 == earlier


def test_chain_runs_clean_on_sweep():
    # the chain itself raises on any unlinking failure; the stored and the
    # integer chains also check the doubling and the closed form
    for spec in all_specs(3, 24):
        chain = conjugate_chain(spec)
        assert chain.conjugate == conjugate_angle(spec)
        assert chain == chain_by_stored_lists(spec) == chain_by_integers(spec)


def test_word_chain_equals_the_integer_chain_at_a_long_period():
    spec = _spec((2, 5), (3999, 10001), 2, "10")
    assert conjugate_chain(spec) == chain_by_integers(spec)


def _wrong_conjugates(word, cword):
    """theta itself, the conjugate rotated by one, the conjugate with its
    last digit swapped for the nearest unlike one before it (the last two
    digits when they differ; when they are equal, swapping them leaves the
    word as it is), and the conjugate with its middle digit flipped."""
    b, last = len(cword), cword[-1]
    j = cword.rindex("1" if last == "0" else "0")
    middle = "1" if cword[b // 2] == "0" else "0"
    return (
        word,
        cword[1:] + cword[0],
        cword[:j] + last + cword[j + 1 : -1] + cword[j],
        cword[: b // 2] + middle + cword[b // 2 + 1 :],
    )


def test_word_chain_rejects_wrong_conjugates():
    # the halving and closed-form checks are identities on words; what the
    # chain still rejects, and the step it reports, is pinned here against
    # the integer chain; the last spec is past oracles._SLICES_UP_TO, so its
    # signs come from the Z-array
    long = _spec((1, 2), (8193, 16385), 1, "01")
    assert long.period > oracles._SLICES_UP_TO
    for spec in all_specs(3, 22) + (long,):
        word, cword = broken_line_word(spec), conjugate_word(spec)
        body = _kneading_of_word(word)
        for wrong in _wrong_conjugates(word, cword):
            assert wrong != cword and len(wrong) == len(cword)
            with pytest.raises(UnlinkViolation) as by_integers:
                chain_by_integers(spec, wrong)
            with pytest.raises(UnlinkViolation) as by_words:
                _check_chain(word, wrong, body)
            assert by_words.value.index == by_integers.value.index


def test_word_chain_rejects_malformed_words():
    # a proper power puts an orbit point on a partition point; a single
    # digit is a fixed angle
    for word in ("011011", "0101", "111", "0"):
        cword = word[:-1] + ("1" if word[-1] == "0" else "0")
        with pytest.raises(InvariantViolated, match="no exact period"):
            _check_chain(word, cword, _kneading_of_word(word))
    for cword in ("10", "0110", ""):
        with pytest.raises(InvariantViolated, match="conjugate word has length"):
            _check_chain("011", cword, _kneading_of_word("011"))


_FLIP = str.maketrans("01", "10")


def test_word_chain_reads_the_itinerary_backwards():
    # the chain holds each preimage to the side the itinerary gives its
    # orbit point: flipping slot s of the true itinerary fails step b - s,
    # for every slot of every spec with b <= 14 (4,048 flips) and for a
    # spread of slots of the b = 16385 spec, whose signs come from the
    # Z-array
    long = _spec((1, 2), (8193, 16385), 1, "01")
    assert long.period > oracles._SLICES_UP_TO
    b = long.period
    cases = [(spec, range(spec.period - 1)) for spec in all_specs(3, 14)]
    cases.append((long, [0, 1, 2, b // 3, b // 2, b - 4, b - 3, b - 2]))
    flips = 0
    for spec, slots in cases:
        word, cword = broken_line_word(spec), conjugate_word(spec)
        body = _kneading_of_word(word)
        _check_chain(word, cword, body)
        for s in slots:
            with pytest.raises(UnlinkViolation) as raised:
                _check_chain(word, cword, body[:s] + "10"[int(body[s])] + body[s + 1 :])
            assert raised.value.index == spec.period - s, (spec, s)
            flips += 1
    assert flips == 4048 + 8


def test_word_chain_rejects_an_itinerary_of_the_wrong_length():
    # one slot short or long, or empty, is an invariant failure, not a step
    # search that runs off the end of a shorter string
    for spec in all_specs(3, 8):
        word, cword = broken_line_word(spec), conjugate_word(spec)
        body = _kneading_of_word(word)
        for wrong in (body[:-1], body[1:], body + "0", body + "1", ""):
            with pytest.raises(InvariantViolated, match="itinerary has length"):
                _check_chain(word, cword, wrong, spec)


def test_spec_check_hands_the_chain_the_words_own_itinerary(monkeypatch):
    # with the kneading check switched off, wrong structural symbols must
    # not reach the chain: it reads the itinerary of the period word, so the
    # check still passes; with the kneading check on, they are refused
    cases = [
        (
            spec,
            broken_line_word(spec),
            conjugate_word(spec),
            kneading_of_spec(spec).symbols[:-1].translate(_FLIP) + "*",
        )
        for spec in all_specs(3, 14)
    ]
    for case in cases:
        with pytest.raises(InvariantViolated, match="structural and direct"):
            oracles._check_spec(*case)
    monkeypatch.setattr(oracles, "_check_kneading", lambda *args: None)
    for case in cases:
        oracles._check_spec(*case)


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


def _pairs(word, cword, spec):
    # whether the command line's pairing check accepts cword for word
    try:
        _check_pairing(word, cword, spec)
    except InvariantViolated as exc:
        assert str(exc).startswith("conjugate_word: pairing oracle disagrees")
        return False
    return True


def test_pairing_by_key_accepts_what_lavaurs_partner_accepts():
    # conjugate --verify reads the pairing by integer key, the word's value
    # over 2^b - 1; lavaurs_partner by reduced Fraction.  Over every spec of
    # the periods the command checks, both accept the primed-block conjugate
    # and agree on wrong ones: the conjugate with any one digit flipped, the
    # period word itself and the conjugate's first rotation
    for spec in all_specs(3, 16):
        word, cword = broken_line_word(spec), conjugate_word(spec)
        partner = lavaurs_partner(word_to_fraction(word))
        flips = [
            cword[:i] + "10"[int(cword[i])] + cword[i + 1 :] for i in range(len(cword))
        ]
        assert _pairs(word, cword, spec) and partner == word_to_fraction(cword)
        for wrong in (*flips, word, cword[1:] + cword[0]):
            assert _pairs(word, wrong, spec) == (partner == word_to_fraction(wrong))
        assert not any(_pairs(word, wrong, spec) for wrong in flips)
    # a word of a shorter exact period has no key in its length's pairing
    with pytest.raises(ValueError, match="1/3 missing from the period-4 pairing"):
        _check_pairing("0101", "1010", None)


def test_lavaurs_pairs_share_kneading():
    # angles landing together have the same itinerary; the kneading
    # computation knows nothing about chords, so this validates the pairing
    from brokenline import kneading_of_angle

    for period in range(2, 13):
        for x, y in lavaurs_pairs(period):
            assert kneading_of_angle(x) == kneading_of_angle(y)


def test_partners_match_the_heap_pairing():
    # through 16, the highest period conjugate --verify reads
    for period in range(2, 17):
        partners = _partners_at(period)
        pairs = sorted((x, y) for x, y in partners.items() if x < y)
        # the heap pairs numerators over LAVAURS_GRID, the sweep over 2^p - 1
        scale = LAVAURS_GRID // ((1 << period) - 1)
        over_grid = [(x * scale, y * scale) for x, y in pairs]
        assert over_grid == list(lavaurs_pairs_by_heap(period)), period
        assert all(partners[y] == x for x, y in pairs)
        assert len(partners) == 2 * len(pairs)


def _events(angles=(), chords=()):
    return sorted(
        [4 * x for x in angles]
        + [4 * x + _OPEN for x, _ in chords]
        + [4 * y + _CLOSE for _, y in chords]
    )


def test_pair_regions_pairs_inside_each_region():
    # the chord (10, 50) encloses 20 and 30; 5 and 60 share the outer region
    partner = _pair_regions(_events((5, 20, 30, 60), [(10, 50)]), 4)
    assert partner == {20: 30, 30: 20, 5: 60, 60: 5}
    # nested chords (20, 100) and (40, 60): three regions, paired apart
    angles = (10, 30, 45, 55, 70, 80, 90, 110)
    nested = _pair_regions(_events(angles, [(20, 100), (40, 60)]), 4)
    assert sorted((x, y) for x, y in nested.items() if x < y) == [
        (10, 110),
        (30, 70),
        (45, 55),
        (80, 90),
    ]


def test_pair_regions_closes_before_opens_in_one_gap():
    # a close and an open coded at one gap position: (10, 20) closes before
    # (20, 50) opens, so each encloses its own pair inside the outer region
    angles = (5, 12, 18, 30, 40, 60)
    partner = _pair_regions(_events(angles, [(10, 20), (20, 50)]), 4)
    assert sorted((x, y) for x, y in partner.items() if x < y) == [
        (5, 60),
        (12, 18),
        (30, 40),
    ]
    # the region that closes there is checked before the next one opens
    with pytest.raises(InvariantViolated, match="odd region"):
        _pair_regions(_events((5, 12, 30, 60), [(10, 20), (20, 50)]), 4)


def test_pair_regions_skip_a_chord_that_encloses_no_angle():
    # (21, 22) lies between the angles 20 and 30, and (50, 55) opens at the
    # position where (10, 50) closes: no partner changes
    angles = (5, 20, 30, 60)
    plain = _pair_regions(_events(angles, [(10, 50)]), 4)
    empty = [(10, 50), (21, 22), (50, 55)]
    assert _pair_regions(_events(angles, empty), 4) == plain


def test_pair_regions_rejects_an_odd_region():
    with pytest.raises(InvariantViolated, match="odd region at period 5"):
        _pair_regions(_events((5, 20, 30, 40, 60), [(10, 50)]), 5)
    with pytest.raises(InvariantViolated, match="odd region"):
        _pair_regions(_events((1, 2, 3)), 5)


def test_lavaurs_partner_of_a_long_period_fails_fast():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="period must be between 2 and 20"):
        lavaurs_partner(Fraction(1, 1000000007))
    assert time.perf_counter() - start < 1.0


def test_chain_streams_in_bounded_memory():
    spec = _spec((1, 2), (5001, 10001), 1, "01")
    tracemalloc.start()
    try:
        conjugate_chain(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_chain_rejects_coincident_points(monkeypatch):
    # a "conjugate" equal to the angle itself puts every preimage on the
    # angle's own orbit: only the distinctness test stands in the way
    spec = _spec((2, 5), (7, 17), 2, "01")
    monkeypatch.setattr(conjugate, "conjugate_word", broken_line_word)
    with pytest.raises(UnlinkViolation):
        conjugate_chain(spec)


def test_lavaurs_oracles_refuse_what_they_cannot_pair():
    for period in (1, 21):
        with pytest.raises(ValueError, match="^period must be between 2 and 20$"):
            lavaurs_pairs(period)
    for theta in (Fraction(1, 4), Fraction(3, 10), Fraction(0)):
        with pytest.raises(
            ValueError, match=r"^angle is not periodic of period >= 2 under doubling$"
        ):
            lavaurs_partner(theta)
