"""The contract of the nine value types: construction, equality, hashing,
repr, immutability, copying, pickling, pattern matching and built-once memos.

The types are plain classes on one private base; each repr literal below is
the text the frozen dataclasses they replaced printed for the same instance.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from brokenline import (
    BlockDecomposition,
    BrokenLineSpec,
    ConjugateChain,
    Convention,
    FareyContext,
    KneadingSequence,
    PeriodicAngle,
    SpecEnumeration,
    SpokeLocation,
    UnlinkCertificate,
    block_decomposition,
    conjugate_chain,
    enumerate_specs,
    locate,
    validate_spec,
)
from brokenline import atlas, farey

CONTEXT = (
    Fraction(1, 3), Fraction(0, 1), Fraction(1, 2), 1, Convention.ZERO_ONE,
    Fraction(1, 2),
)
SPEC = (FareyContext(*CONTEXT), Fraction(3, 8))
RAYS = (PeriodicAngle("001", "010"), PeriodicAngle("001", "100"))
ROWS = (
    (4, 1, 3, 1, "L", 1), (7, 1, 2, 1, "R", 3), (8, 1, 2, 1, "L", 1),
    (11, 2, 3, 1, "R", 3),
)
CERTIFICATES = tuple(
    map(UnlinkCertificate, (2, 3, 4, 5), (False, False, True, False))
)

CONTEXT_REPR = (
    "FareyContext(p_over_q=Fraction(1, 3), lower_parent=Fraction(0, 1), "
    "upper_parent=Fraction(1, 2), hinge=1, convention=<Convention.ZERO_ONE: '01'>, "
    "bound=Fraction(1, 2))"
)
SPEC_REPR = f"BrokenLineSpec(context={CONTEXT_REPR}, slope=Fraction(3, 8))"

# per type: its field names, the positional arguments of one instance, the
# repr the dataclass printed for it, and a second value for every field, each
# of which alone still makes a valid instance that differs from the first
CASES = {
    PeriodicAngle: (
        ("preperiod", "period"),
        ("1", "10"),
        "PeriodicAngle(preperiod='1', period='10')",
        ("01", "100"),
    ),
    KneadingSequence: (
        ("symbols",),
        ("1101*",),
        "KneadingSequence(symbols='1101*')",
        ("1001*",),
    ),
    FareyContext: (
        ("p_over_q", "lower_parent", "upper_parent", "hinge", "convention", "bound"),
        CONTEXT,
        CONTEXT_REPR,
        (
            Fraction(2, 5), Fraction(1, 3), Fraction(1, 1), 2, Convention.ONE_ZERO,
            Fraction(3, 7),
        ),
    ),
    BrokenLineSpec: (
        ("context", "slope"),
        SPEC,
        SPEC_REPR,
        (FareyContext(Fraction(2, 5), *CONTEXT[1:]), Fraction(2, 5)),
    ),
    BlockDecomposition: (
        ("spec", "base_m", "block_words", "pattern"),
        (BrokenLineSpec(*SPEC), 0, {0: "001", 1: "00101"}, "10"),
        f"BlockDecomposition(spec={SPEC_REPR}, base_m=0, "
        "block_words={0: '001', 1: '00101'}, pattern='10')",
        (BrokenLineSpec(SPEC[0], Fraction(2, 5)), 1, {0: "001"}, "01"),
    ),
    SpokeLocation: (
        (
            "limb", "sublimb_internal_angle", "spoke_index", "bracketing_rays",
            "junction_preperiod",
        ),
        (Fraction(1, 3), Fraction(1, 2), 1, RAYS, 3),
        "SpokeLocation(limb=Fraction(1, 3), sublimb_internal_angle=Fraction(1, 2), "
        "spoke_index=1, bracketing_rays=(PeriodicAngle(preperiod='001', "
        "period='010'), PeriodicAngle(preperiod='001', period='100')), "
        "junction_preperiod=3)",
        (Fraction(2, 3), Fraction(1, 3), 2, RAYS[::-1], 6),
    ),
    SpecEnumeration: (
        ("period", "rows"),
        (4, ROWS),
        "SpecEnumeration(period=4, rows=((4, 1, 3, 1, 'L', 1), (7, 1, 2, 1, 'R', 3), "
        "(8, 1, 2, 1, 'L', 1), (11, 2, 3, 1, 'R', 3)))",
        (5, ROWS[:1]),
    ),
    UnlinkCertificate: (
        ("index", "digit_zero_case"),
        (3, True),
        "UnlinkCertificate(index=3, digit_zero_case=True)",
        (4, False),
    ),
    ConjugateChain: (
        ("theta", "conjugate", "certificates"),
        (PeriodicAngle(period="01101"), PeriodicAngle(period="10010"), CERTIFICATES),
        "ConjugateChain(theta=PeriodicAngle(preperiod='', period='01101'), "
        "conjugate=PeriodicAngle(preperiod='', period='10010'), certificates=("
        "UnlinkCertificate(index=2, digit_zero_case=False), "
        "UnlinkCertificate(index=3, digit_zero_case=False), "
        "UnlinkCertificate(index=4, digit_zero_case=True), "
        "UnlinkCertificate(index=5, digit_zero_case=False)))",
        (PeriodicAngle(period="01"), PeriodicAngle(period="10"), CERTIFICATES[:1]),
    ),
}
TYPES = list(CASES)
# each type's first instance as the pipeline builds it
SPEC_ZERO_ONE = validate_spec(Fraction(1, 3), Fraction(3, 8), 1, Convention.ZERO_ONE)
BUILT = {
    FareyContext: SPEC_ZERO_ONE.context,
    BrokenLineSpec: SPEC_ZERO_ONE,
    BlockDecomposition: block_decomposition(SPEC_ZERO_ONE),
    SpokeLocation: locate(SPEC_ZERO_ONE),
    SpecEnumeration: enumerate_specs(4),
    ConjugateChain: conjugate_chain(
        validate_spec(Fraction(1, 2), Fraction(3, 5), 1, Convention.ZERO_ONE)
    ),
}


def sample(cls):
    _, args, _, _ = CASES[cls]
    return cls(*args)


def field_values(value):
    return tuple(getattr(value, name) for name in CASES[type(value)][0])


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_construction_and_repr(cls):
    names, args, text, _ = CASES[cls]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert repr(by_position) == repr(by_keyword) == text
    assert field_values(by_position) == field_values(by_keyword) == args
    assert by_position == by_keyword
    if cls in BUILT:
        assert BUILT[cls] == by_position
        assert repr(BUILT[cls]) == text


def test_periodic_angle_defaults_and_normalisation():
    assert repr(PeriodicAngle()) == "PeriodicAngle(preperiod='', period='0')"
    assert PeriodicAngle() == PeriodicAngle("") == PeriodicAngle(period="0")
    for given, stored in [
        (("", "11"), ("", "0")),
        (("1", "1"), ("", "0")),
        (("111", "1"), ("", "0")),
        (("01", "0101"), ("", "01")),
        (("1", "01"), ("", "10")),
        (("11", "01"), ("1", "10")),
        (("0110", "110"), ("", "011")),
        (("01", "10"), ("01", "10")),
    ]:
        angle = PeriodicAngle(*given)
        assert (angle.preperiod, angle.period) == stored, given
        assert angle == PeriodicAngle(*stored)
        assert hash(angle) == hash(stored)


def test_constructor_checks_keep_their_messages():
    for args, word in [(("2", "0"), "2"), (("", ""), ""), (("", "0a"), "0a")]:
        with pytest.raises(ValueError, match=f"^not a binary word: {word!r}$"):
            PeriodicAngle(*args)
    for symbols in ["11", "*", "1*1*", "12*"]:
        with pytest.raises(ValueError, match=r"^malformed kneading sequence: "):
            KneadingSequence(symbols)
    message = "^BlockDecomposition takes its block pattern, a str$"
    with pytest.raises(TypeError, match=message):
        BlockDecomposition(BrokenLineSpec(*SPEC), 0, {}, ["1"])


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_read_every_field(cls):
    names, args, _, others = CASES[cls]
    value, twin = cls(*args), cls(*args)
    assert value == twin and not value != twin
    if cls is BlockDecomposition:
        # its block_words is a dict, so it hashes no better than its fields
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(twin) == hash(args)
    for i, name in enumerate(names):
        changed = cls(*args[:i], others[i], *args[i + 1 :])
        assert getattr(changed, name) != getattr(value, name), name
        assert value != changed and not value == changed, name
    # never equal to another type, its field tuple among them
    assert value.__eq__(args) is NotImplemented
    assert value != args
    for other in TYPES:
        if other is not cls:
            assert value != sample(other)
            assert value.__eq__(sample(other)) is NotImplemented


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_fields_are_read_only(cls):
    names, args, text, others = CASES[cls]
    value = cls(*args)
    for name, other in zip(names, others):
        with pytest.raises(AttributeError):
            setattr(value, name, other)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_round_trip(cls):
    _, args, text, _ = CASES[cls]
    value = cls(*args)
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in copies:
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, CASES[cls][0][0], None)


def test_pickles_keep_their_bytes():
    # the bytes the frozen dataclass pickled to: a pickle written before
    # loads to an equal angle, and one written now reads the same
    data = (
        b"\x80\x04\x95M\x00\x00\x00\x00\x00\x00\x00\x8c\x11brokenline.angles\x94"
        b"\x8c\rPeriodicAngle\x94\x93\x94)\x81\x94}\x94(\x8c\tpreperiod\x94"
        b"\x8c\x011\x94\x8c\x06period\x94\x8c\x0210\x94ub."
    )
    assert pickle.dumps(PeriodicAngle("1", "10"), 4) == data
    assert pickle.loads(data) == PeriodicAngle("1", "10")


def test_match_args_name_the_fields():
    for cls in TYPES:
        assert cls.__match_args__ == CASES[cls][0], cls.__name__
    match BrokenLineSpec(*SPEC):
        case BrokenLineSpec(FareyContext(limb, _, parent, 1), slope):
            assert (limb, parent, slope) == (CONTEXT[0], CONTEXT[2], SPEC[1])
        case _:
            pytest.fail("a spec does not match its fields by position")
    match sample(UnlinkCertificate):
        case UnlinkCertificate(index, True):
            assert index == 3
        case _:
            pytest.fail("a certificate does not match its fields by position")


def test_every_public_type_has_a_docstring():
    for cls in TYPES:
        assert cls.__doc__ and cls.__doc__.strip(), cls.__name__


def test_memos_are_built_once(monkeypatch):
    words = []
    build = farey.mechanical_word
    monkeypatch.setattr(
        farey, "mechanical_word", lambda x, c: words.append(x) or build(x, c)
    )
    context = FareyContext(*CONTEXT)
    spec = BrokenLineSpec(context, Fraction(3, 8))
    assert spec._word is spec._word
    # the slope's word, and the limb word the spec read off its context
    assert words == [Fraction(1, 3), Fraction(3, 8)]
    assert context.limb_word is context.limb_word
    assert context.parent_word is context.parent_word
    assert words == [Fraction(1, 3), Fraction(3, 8), Fraction(1, 2)]

    runs = []
    group = atlas.groupby
    monkeypatch.setattr(
        atlas, "groupby", lambda *args: runs.append(args) or group(*args)
    )
    enumeration = SpecEnumeration(4, ROWS)
    assert enumeration._sizes is enumeration._sizes
    assert len(runs) == 1
    assert enumeration.entries is enumeration.entries
    assert len(runs) == 2
    assert len(enumeration) == 4 and len(runs) == 2
