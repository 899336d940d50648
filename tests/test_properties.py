"""Properties of the single-spec pipeline on random specs of period up to
2000, each checked against an oracle that shares no code with the path it
checks: the digit-rule word, the doubling-orbit kneading, the single-block
scan and the preimage chain, and the word-level chain against the chain
that stores every element and the chain on integers; of the word-level
kneading on primitive words of period up to 2000, against the doubling
orbit of their value; of PeriodicAngle on random words of period up to
2000, against the long division of its exact value, and of its tuning by
bulbs of denominator up to 40, against one bulb word per digit; of the cutting
sequence of random slopes of denominator up to 2000, against one sort of
every grid crossing; and of rotations of words of up to 300 digits, which
keep their gcd with 2^b - 1.  Last, the command line on random argv: every
run exits 0, 1 or 2 with no traceback and within a time limit, and the table
parse reads what argparse reads or leaves the command line to it."""

import contextlib
import io
import json
import signal
from fractions import Fraction
from math import gcd

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brokenline import (
    Convention,
    PeriodicAngle,
    block_decomposition,
    block_word,
    conjugate_chain,
    conjugate_word,
    cutting_sequence,
    fraction_to_expansion,
    invert_kneading,
    kneading_of_angle,
    kneading_of_spec,
    locate,
    lower_kneading_period,
    minimal_period,
    stern_brocot_path,
    tune,
    validate_spec,
    word_to_fraction,
)
from brokenline import cli
from brokenline.cli import main
from brokenline.oracles import _kneading_of_word, _preimage_signs, _rotation_signs
from helpers import (
    base_index_by_scan,
    broken_word_by_digit_rule,
    chain_by_integers,
    chain_by_stored_lists,
    cutting_sequence_by_tuples,
    expansion_by_long_division,
    expansion_value,
    kneading_by_orbit_walk,
    period_by_divisors,
    preimage_signs_by_slices,
    rotation_signs_by_slices,
    sign_path,
    tune_by_digits,
)

MAX_PERIOD = 2000
PROPERTY = settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)


@st.composite
def specs(draw, max_period=MAX_PERIOD):
    """A slope a/b with b <= max_period, then one of its admissible limbs
    (an ancestor in the Stern-Brocot tree), convention and hinge, chosen the
    way enumerate_specs_per_spec lists them."""
    b = draw(st.integers(3, max_period), label="b")
    slope = Fraction(draw(st.integers(1, b - 1), label="a"), b)
    assume(slope.denominator >= 3)
    path = stern_brocot_path(slope)
    i = draw(st.integers(0, len(path) - 1), label="limb")
    node, side = path[i]
    straight = 0
    for _, later in path[i + 1 :]:
        if later == side:
            break
        straight += 1
    hinge = draw(st.integers(1, straight + 1), label="hinge")
    convention = Convention.ZERO_ONE if side == "R" else Convention.ONE_ZERO
    return validate_spec(node, slope, hinge, convention)


@PROPERTY
@given(specs())
def test_structural_kneading_equals_the_orbit_itinerary(spec):
    theta = word_to_fraction(broken_word_by_digit_rule(spec))
    assert kneading_of_spec(spec).symbols == kneading_by_orbit_walk(theta)[0]


@PROPERTY
@given(specs())
def test_invert_kneading_undoes_kneading_of_spec(spec):
    recovered, angle = invert_kneading(kneading_of_spec(spec), spec.convention)
    assert recovered == spec
    assert angle == PeriodicAngle(period=broken_word_by_digit_rule(spec))


@PROPERTY
@given(specs())
def test_blocks_reconcatenate_to_the_period_word(spec):
    decomposition = block_decomposition(spec)
    base, single = base_index_by_scan(spec)
    exponents = decomposition.exponents
    assert decomposition.base_m == base
    if single:
        assert exponents == (base,)
    else:
        assert set(exponents) == {base, base + 1}
        assert exponents[0] == base + 1 and exponents[-1] == base
    word = "".join(block_word(spec.context, e) for e in exponents)
    assert word == broken_word_by_digit_rule(spec)


@settings(PROPERTY, max_examples=100)
@given(specs())
def test_conjugate_word_is_the_chain_conjugate(spec):
    cword = conjugate_word(spec)
    chain = conjugate_chain(spec)  # raises unless every link checks
    assert chain.conjugate.value == word_to_fraction(cword)
    assert chain.theta.value == word_to_fraction(broken_word_by_digit_rule(spec))
    # both angles of a primitive pair have one itinerary
    symbols, _ = kneading_by_orbit_walk(chain.conjugate.value)
    assert symbols == kneading_of_spec(spec).symbols


@settings(PROPERTY, max_examples=100)
@given(specs())
def test_streamed_chain_equals_the_stored_chain(spec):
    chain = conjugate_chain(spec)
    assert chain == chain_by_stored_lists(spec) == chain_by_integers(spec)


@st.composite
def near_powers(draw):
    """A word of up to MAX_PERIOD digits that repeats a short root, with one
    digit flipped: its rotations agree with it for long stretches."""
    root = draw(st.text("01", min_size=1, max_size=40), label="root")
    length = draw(st.integers(2, MAX_PERIOD), label="length")
    word = (root * (length // len(root) + 1))[:length]
    i = draw(st.integers(0, length - 1), label="flipped digit")
    return word[:i] + ("1" if word[i] == "0" else "0") + word[i + 1 :]


@st.composite
def binary_words(draw):
    d = draw(st.integers(2, MAX_PERIOD), label="length")
    return format(draw(st.integers(0, (1 << d) - 1), label="word"), f"0{d}b")


@settings(PROPERTY, max_examples=100)
@given(
    st.one_of(
        specs().map(lambda spec: (broken_word_by_digit_rule(spec), conjugate_word(spec))),
        st.tuples(near_powers(), near_powers()),
        st.tuples(binary_words(), binary_words()),
    ),
)
def test_z_array_signs_equal_the_slices(words):
    # the production slice limit covers every word up to MAX_PERIOD, so the
    # z-array path (prefix cutoff 0, slice limit 1) sends every word here to
    # the Z-array; the forced prefix paths take every word too, and send
    # every tie to the slice step
    word, cword = words
    cword = (cword * len(word))[: len(word)]
    up = rotation_signs_by_slices(word)
    exact = minimal_period(word) == len(word)
    above = preimage_signs_by_slices(word, cword) if exact else None
    for path in ("z-array", "prefix-1", "prefix-3"):
        with sign_path(path):
            assert _rotation_signs(word) == up, path
            if exact:
                assert _preimage_signs(word, cword) == above, path


@st.composite
def slopes(draw, max_den=MAX_PERIOD):
    """A reduced slope p/q with 2 <= q <= max_den."""
    q = draw(st.integers(2, max_den), label="q")
    p = draw(st.integers(1, q - 1), label="p")
    assume(gcd(p, q) == 1)
    return Fraction(p, q)


@PROPERTY
@given(slopes())
def test_cutting_sequence_is_the_sorted_crossings(slope):
    # the floor positions of the horizontal crossings against one sort of
    # every crossing
    for convention in (Convention.ZERO_ONE, Convention.ONE_ZERO):
        assert cutting_sequence(slope, convention) == cutting_sequence_by_tuples(
            slope, convention
        )


@PROPERTY
@given(specs())
def test_locate_brackets_the_angle(spec):
    # Fractions against the cross-multiplied integers of locate
    spot = locate(spec)
    low, high = spot.bracketing_rays
    assert low.value < word_to_fraction(broken_word_by_digit_rule(spec)) < high.value
    q = spec.p_over_q.denominator
    zero_one = spec.convention is Convention.ZERO_ONE
    assert spot.spoke_index == (1 if zero_one else q - 1)


@PROPERTY
@given(
    st.one_of(
        specs().map(broken_word_by_digit_rule),
        near_powers(),
        binary_words(),
    )
)
def test_word_kneading_equals_the_orbit_itinerary(word):
    # the word reader, kneading_of_angle from the word's value and
    # lower_kneading_period, at periods up to MAX_PERIOD, against the
    # integer walk of the orbit
    assume(minimal_period(word) == len(word))
    theta = word_to_fraction(word)
    symbols, resolved = kneading_by_orbit_walk(theta)
    assert _kneading_of_word(word) + "*" == symbols
    assert kneading_of_angle(theta).symbols == symbols
    assert lower_kneading_period(theta) == period_by_divisors(resolved)


@PROPERTY
@given(st.data())
def test_rotations_share_one_gcd_with_the_period_modulus(data):
    # a rotation of a b-digit word other than all ones is its value times a
    # power of 2 modulo 2^b - 1, a unit there, so the gcd with 2^b - 1 stays:
    # the command reduces the angles of one slope word's orbit once.  Small
    # factors of Mersenne numbers times the value make shared factors common
    b = data.draw(st.integers(1, 300), label="length")
    full = (1 << b) - 1
    factor = data.draw(st.sampled_from([1, 3, 7, 9, 21, 31, 73, 127]), label="factor")
    value = data.draw(st.integers(0, full - 1), label="value") * factor % full
    word = format(value, f"0{b}b")
    i = data.draw(st.integers(0, b - 1), label="shift")
    assert gcd(int(word[i:] + word[:i], 2), full) == gcd(value, full)


@st.composite
def expansions(draw):
    """A period of up to MAX_PERIOD digits, sometimes a power of a shorter
    root and sometimes all ones, with a preperiod that ends in a long copy of
    the periodic tail: up to three periods' worth."""
    reps = draw(st.integers(1, 3), label="reps")
    d = draw(st.integers(1, MAX_PERIOD // reps), label="root length")
    if draw(st.integers(0, 3), label="all ones if 0") == 0:
        root = "1" * d
    else:
        root = format(draw(st.integers(0, (1 << d) - 1), label="root"), f"0{d}b")
    period = root * reps
    head = draw(st.text("01", max_size=20), label="head")
    copy = draw(st.integers(0, 3 * len(period)), label="copy")
    copies = period * (copy // len(period) + 1)
    return head + copies[len(copies) - copy :], period


@settings(PROPERTY, max_examples=100)
@given(expansions())
def test_periodic_angle_is_the_expansion_of_its_value(expansion):
    u, w = expansion
    x = expansion_value(u, w)
    angle = PeriodicAngle(u, w)
    assert (angle.preperiod, angle.period) == expansion_by_long_division(x)
    assert angle == fraction_to_expansion(x)
    assert angle.value == x


@settings(PROPERTY, max_examples=100)
@given(expansions(), slopes(max_den=40))
def test_tune_substitutes_one_bulb_word_per_digit(expansion, bulb):
    # the two-word substitution against one joined bulb word per digit
    phi = PeriodicAngle(*expansion)
    assert tune(phi, bulb) == tune_by_digits(phi, bulb)


# desk-scale command lines: every denominator is at most SMALL and every
# period at most 12, so each command answers in milliseconds; run time is
# not what is tested here
SMALL = 64
JUNK = st.sampled_from(["", "x", "1/0", "1/2/3", "-1/2", "2.5", "0.(", "0.1(2)"])


def sometimes(values, other):
    # values nine times in ten, other the tenth
    return st.integers(0, 9).flatmap(lambda i: other if i == 0 else values)


def ratio_texts():
    q = st.integers(1, SMALL)
    pairs = q.flatmap(lambda q: st.tuples(st.integers(0, q), st.just(q)))
    return sometimes(pairs.map(lambda pq: f"{pq[0]}/{pq[1]}"), JUNK)


def angle_texts():
    # "0.(w)" or "0.[u](w)"
    u, w = st.text("01", max_size=6), st.text("01", min_size=1, max_size=6)
    expansion = st.tuples(u, w).map(
        lambda uw: f"0.[{uw[0]}]({uw[1]})" if uw[0] else f"0.({uw[1]})"
    )
    return st.one_of(ratio_texts(), expansion)


def kneading_texts():
    symbols = st.text("01", max_size=12).map(lambda body: body + "*")
    return sometimes(symbols, st.text("01*x", max_size=12))


def option(name, values):
    # a valued option, left out one time in ten
    return sometimes(values.map(lambda value: [name, str(value)]), st.just([]))


# int() reads "-1_0" as -10, while argparse takes it for an option name,
# since it does not look like a negative number
INT_JUNK = st.sampled_from(["-1_0", "1_0"]) | JUNK
CONVENTION = option("--convention", sometimes(st.sampled_from(["01", "10"]), JUNK))
HINGE = option("--hinge", sometimes(st.integers(1, 4), st.integers(-1, 0) | INT_JUNK))
PERIOD = option(
    "--period", sometimes(st.integers(3, 12), st.integers(-1, 2) | INT_JUNK)
)
VALUED = {"--convention": CONVENTION, "--hinge": HINGE, "--period": PERIOD}
# shapes that argparse reads and the table parse leaves to it: a value after
# "=", an abbreviated name, the end of the options, and help
ARGPARSE_ONLY = st.sampled_from([["--hinge=2"], ["--conv", "01"], ["--"], ["-h"]])


@st.composite
def spec_arguments(draw):
    """The limb, the slope, --convention and --hinge of a valid spec half
    the time, and of a random choice the other half."""
    if draw(st.booleans(), label="valid"):
        spec = draw(specs(SMALL))
        convention, hinge = spec.convention.value, str(spec.hinge)
        return [str(spec.p_over_q), str(spec.slope)], [
            ["--convention", convention],
            ["--hinge", hinge],
        ]
    return [draw(ratio_texts()), draw(ratio_texts())], [draw(CONVENTION), draw(HINGE)]


def fixed(positionals, options):
    # the positional arguments and the valued options, each drawn on its own
    return st.tuples(st.tuples(*positionals), st.tuples(*options)).map(
        lambda drawn: (list(drawn[0]), list(drawn[1]))
    )


# each subcommand: a strategy for its positional arguments and valued
# options, and the flags it takes besides --json
COMMANDS = {
    "line": (fixed([ratio_texts()], [CONVENTION]), ["--check"]),
    "bulb": (fixed([ratio_texts()], []), ["--check"]),
    "broken": (spec_arguments(), ["--check", "--all"]),
    "conjugate": (spec_arguments(), ["--check", "--verify"]),
    "kneading": (spec_arguments(), ["--check"]),
    "kneading-of-angle": (fixed([angle_texts()], []), ["--check"]),
    "invert-kneading": (fixed([kneading_texts()], [CONVENTION]), ["--check"]),
    "enumerate": (fixed([], [PERIOD]), ["--check", "--census"]),
    "tune": (fixed([angle_texts(), ratio_texts()], []), ["--check"]),
}


@st.composite
def command_lines(draw):
    """The subcommand, its positional arguments in order (one dropped one
    time in ten), and its options and flags in any order, each placed
    before, between or after the positional arguments; one time in ten, one
    more token group that only argparse reads: one of ARGPARSE_ONLY or one
    of the drawn valued options again, with a value of its own."""
    command = draw(st.sampled_from(sorted(COMMANDS)), label="command")
    arguments, flags = COMMANDS[command]
    positionals, groups = draw(arguments, label="arguments")
    if positionals and draw(st.integers(0, 9), label="drop one if 0") == 0:
        del positionals[draw(st.integers(0, len(positionals) - 1), label="dropped")]
    if draw(st.integers(0, 9), label="argparse only if 0") == 0:
        again = [VALUED[group[0]] for group in groups if group]
        groups.append(draw(st.one_of(ARGPARSE_ONLY, *again), label="argparse only"))
    chosen = st.lists(st.sampled_from([*flags, "--json"]), unique=True)
    groups += [[flag] for flag in draw(chosen, label="flags")]
    order = draw(st.permutations(groups), label="order")
    # with places sorted, the i-th group goes right before the positional
    # argument numbered places[i], or after them all
    places = st.lists(
        st.integers(0, len(positionals)), min_size=len(order), max_size=len(order)
    )
    argv, done = [command], 0
    for place, group in zip(sorted(draw(places, label="places")), order):
        argv += positionals[done:place] + group
        done = place
    return argv + positionals[done:]


class CaseTimedOut(BaseException):
    """A case ran past its time limit.  Not an Exception, so that neither the
    command line nor its parsing reads it as an error of the input."""


@contextlib.contextmanager
def time_limit(seconds, what):
    def time_out(signum, frame):
        raise CaseTimedOut(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, time_out)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# each case answers in milliseconds; the limit turns a hang into a failure
CASE_SECONDS = 5


# report_multiple_bugs=False in both argv properties: a command line broken
# broadly fails in many distinct ways, and shrinking each of them took minutes
@settings(PROPERTY, max_examples=300, report_multiple_bugs=False)
@given(command_lines())
def test_command_line_exits_cleanly_on_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with (
        time_limit(CASE_SECONDS, argv),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1 and "--json" in argv:
        assert json.loads(out.getvalue())["error_kind"]


def argparse_reading(argv):
    """vars() of the Namespace argparse returns for argv, or None where it
    exits: on help and on every usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(PROPERTY, max_examples=500, report_multiple_bugs=False)
@given(command_lines())
# values that int() reads and argparse takes for option names, on command
# lines that are otherwise well formed
@example(["enumerate", "--period", "-1_0"])
@example(["broken", "1/2", "3/4", "--convention", "01", "--hinge", "-1_0"])
def test_table_parse_reads_what_argparse_reads(argv):
    fast = cli._parse(argv)
    reading = argparse_reading(argv)
    if reading is None:
        assert fast is None, argv
    elif fast is not None:
        assert vars(fast) == reading, argv
