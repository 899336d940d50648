import argparse
import ast
import collections
import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import brokenline
from brokenline import (
    BrokenLineSpec,
    Convention,
    FareyContext,
    InvariantViolated,
    KneadingSequence,
    PeriodicAngle,
    SpecEnumeration,
    atlas,
    broken_line_word,
    conjugate,
    conjugate_word,
    enumerate_specs,
    farey,
    mechanical,
    multiplicative_order,
    oracles,
    validate_spec,
    word_to_fraction,
)
from brokenline import cli
from brokenline.cli import main
from helpers import (
    all_specs,
    assert_row_grammar,
    block_lists_by_exponents,
    broken_word_by_digit_rule,
    enumerate_payload_by_objects,
    enumerate_text_by_objects,
    kneading_by_orbit_walk,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _fresh_env():
    # the child imports the package under test, installed or not
    root = str(Path(brokenline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def python_fresh(*args):
    """Run the interpreter with args in a new process."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_fresh_env()
    )


def run_fresh(*argv):
    """Run the command line in a new interpreter."""
    return python_fresh("-m", "brokenline", *argv)


def as_dict(text):
    return dict(
        line.split(": ", 1) for line in text.strip().splitlines() if ": " in line
    )


def test_line(capsys):
    code, out, _ = run(capsys, "line", "2/5", "--convention", "01", "--check")
    assert code == 0
    fields = as_dict(out)
    assert fields["cutting"] == "0010001"
    assert fields["word"] == "01001"
    assert fields["angle"] == "9/31"
    assert fields["check"] == "ok"


def test_bulb(capsys):
    code, out, _ = run(capsys, "bulb", "2/5")
    assert code == 0
    fields = as_dict(out)
    assert fields["theta-01"] == "9/31"
    assert fields["theta-10"] == "10/31"


def test_broken_all(capsys):
    code, out, _ = run(
        capsys,
        "broken", "1/2", "3/4", "--hinge", "1", "--convention", "01", "--all",
    )
    assert code == 0
    fields = as_dict(out)
    assert fields["angle"] == "7/15"
    assert fields["conjugate"] == "8/15"
    assert fields["kneading"] == "100*"
    assert fields["block-exponents"] == "2"
    assert fields["spoke"] == "1"
    assert fields["spoke-lower"] == "5/12"
    assert fields["spoke-upper"] == "7/12"


def test_broken_json(capsys):
    code, out, _ = run(
        capsys,
        "broken", "2/5", "7/17", "--hinge", "2", "--convention", "01", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["payload"]["angle"] == "38057/131071"
    assert doc["payload"]["expansion"] == "0.(01001010010101001)"


def test_broken_all_at_a_long_period(capsys):
    code, out, _ = run(
        capsys,
        "broken", "1/2", "2502/5003", "--hinge", "1", "--convention", "01",
        "--all", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    payload = doc["payload"]
    assert payload["period"] == 5003
    assert payload["kneading"] == kneading_by_orbit_walk(Fraction(payload["angle"]))[0]

    code, out, _ = run(
        capsys,
        "conjugate", "1/2", "2502/5003", "--hinge", "1", "--convention", "01",
        "--verify", "--json",
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["chain"] == "ok"
    assert payload["lavaurs"] == "skipped (period > 16)"
    spec = validate_spec(
        Fraction(1, 2), Fraction(2502, 5003), 1, Convention.ZERO_ONE
    )
    assert payload["conjugate"] == str(word_to_fraction(conjugate_word(spec)))


def test_broken_all_check_at_period_ten_thousand(capsys):
    code, out, _ = run(
        capsys,
        "broken", "1/2", "5001/10001", "--hinge", "1", "--convention", "01",
        "--all", "--check", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["payload"]["period"] == 10001
    assert doc["payload"]["check"] == "ok"


def test_broken_past_the_int_to_str_digit_limit(capsys):
    # the angle's numerator and denominator have 4516 decimal digits
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(
        capsys,
        "broken", "1/2", "7501/15001", "--hinge", "1", "--convention", "01",
        "--json",
    )
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    doc = json.loads(out)
    assert doc["status"] == "ok"
    num, den = doc["payload"]["angle"].split("/")
    sys.set_int_max_str_digits(0)
    try:
        angle = Fraction(int(num), int(den))
    finally:
        sys.set_int_max_str_digits(limit)
    spec = validate_spec(
        Fraction(1, 2), Fraction(7501, 15001), 1, Convention.ZERO_ONE
    )
    word = broken_word_by_digit_rule(spec)
    assert len(den) > limit
    assert angle == Fraction(int(word, 2), (1 << len(word)) - 1)


@pytest.fixture
def no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_fractions_print_what_str_prints(no_digit_limit):
    rng = random.Random(18)
    edge = cli._DECIMAL_BITS
    numbers = [0, 1, 2, 10, 255]
    # random ints of 10^3..10^6 bits, and of one bit either side of the edge
    for bits in (1000, 5000, edge - 1, edge, edge + 1, 10_000, 100_000, 1_000_000):
        numbers.append(rng.getrandbits(bits) | 1 << (bits - 1))
    for k in (edge - 1, edge, edge + 1, 20_000, 100_001):
        numbers += [1 << k, (1 << k) - 1]
    for k in (1806, 1807, 5000, 30_103):
        numbers += [10**k - 1, 10**k + 1]
    assert any(n.bit_length() == edge + 1 for n in numbers)
    # whole numbers print without a denominator
    for n in numbers:
        assert cli._texts(Fraction(n)) == [str(n)]
        if n.bit_length() < 100_000:
            assert cli._texts(Fraction(-n)) == [str(-n)]
    # either part past the edge, or both
    small, big = 3**1000, (1 << 10_000) - 1
    for x in (Fraction(small, big), Fraction(big, small), Fraction(big, big + 2)):
        assert cli._texts(x) == [cli._texts(-x)[0][1:]] == [str(x)]
    # an angle of period k is n/(2^k - 1): unreduced, its denominator is
    # written as a power of 2 less one; reduced by a divisor 2^d - 1 of
    # 2^k - 1, d | k, it is not all ones and is split like the numerator
    for k in (edge - 1, edge, edge + 1, 14_285, 16_383, 100_003):
        full = (1 << k) - 1
        fractions = [Fraction(1, full), Fraction(full - 1, full)]
        fractions += [Fraction(rng.randrange(1, full), full) for _ in range(3)]
        # numerators far shorter than the denominator, and one bit shorter
        fractions += [Fraction(2**64 + 1, full), Fraction(full >> 1, full)]
        for d in (3, 5, 7, 43, 127, 2857):
            if k % d == 0:
                multiple = ((1 << d) - 1) * rng.randrange(1, full >> d)
                fractions.append(Fraction(multiple, full))
                assert fractions[-1].denominator < full
        # a numerator past the denominator's width, and 2^k - 1 over a
        # shorter Mersenne number
        fractions += [Fraction(full + 2, (1 << (k - 1)) - 1), Fraction(full, 7)]
        for x in fractions:
            assert cli._texts(x) == [str(x)], (k, x.denominator == full)
            assert cli._texts(-x) == ["-" + str(x)]
    # pairs printed together from one table, as bulb, broken --all and
    # conjugate print theirs: widths either side of the edge, equal and
    # unequal, denominators 2^w - 1 and others, negative values, integers
    pool = []
    for k in (edge - 1, edge + 1, edge + 2, 9_999):
        full = (1 << k) - 1
        pool += [Fraction(rng.randrange(1, full) | 1, full) for _ in range(2)]
        pool += [Fraction(rng.randrange(1, full), full - 1), Fraction(full)]
    pool += [-x for x in pool[::3]]
    pool += [Fraction(small, big), Fraction(-big, small)]
    for x in pool:
        for y in pool:
            assert cli._texts(x, y) == [str(x), str(y)]
    # siblings printed in one call, each over the denominator of one before
    # it: numerators n, n + 1, n - 1, den - n and den - n + 5; powers 2^j over
    # 2^w - 1, alone and together; negative siblings, and an angle printed
    # with its negative; and, with 3 | w, n + 1 a multiple of 7, so that
    # (n + 1)/(2^w - 1) reduces by 2^3 - 1 and takes the full path.  They
    # draw from their own generator, which leaves rng's draws below as they
    # were
    draw = random.Random(50)
    for k in (edge - 1, edge + 1, 16_383, 100_003):
        full = (1 << k) - 1
        n = draw.randrange(1, full >> 1)
        n -= (n + 1) % 7
        siblings = [Fraction(m, full) for m in (n, n + 1, n - 1, full - n, full - n + 5)]
        powers = [Fraction(1 << j, full) for j in (k - 1, k - 2, k - 64, k - 65)]
        negative = [-x for x in siblings[:3]]
        sets = [siblings, powers, negative, [siblings[0], negative[0]]]
        sets += [[x] for x in powers]
        # str of each fraction once, as str writes a negative: "-" and the rest
        texts = {x: str(x) for x in siblings + powers}
        texts.update({-x: "-" + texts[x] for x in siblings[:3]})
        for fractions in sets:
            assert cli._texts(*fractions) == [texts[x] for x in fractions]
        assert (siblings[1].denominator < full) == (k % 3 == 0)
    # the second angle of one width past the edge pays for no power: its
    # calls of power() all hit the table the first one filled
    full = (1 << (edge + 1)) - 1
    x, y = Fraction(full - 2, full), Fraction((full - 1) // 3, full)
    assert _power_calls(x, y) < _power_calls(x) + _power_calls(y)
    # an angle reduced by 2^3 - 1, three bits narrower, printed with an
    # unreduced angle of its period, as broken --all and conjugate may print
    # an angle and its conjugate: both are split at the wider width, so the
    # narrower one computes no power the wider one did not
    full = (1 << 9_999) - 1
    x = Fraction(7 * rng.randrange(1, full // 7), full)
    y = Fraction(rng.randrange(1, full) | 1, full)
    assert x.denominator.bit_length() < y.denominator.bit_length()
    assert _power_calls(x, y) < _power_calls(x) + _power_calls(y)
    assert _power_calls(x, y, new=True) == _power_calls(y, new=True)
    assert _power_calls(y, x, new=True) == _power_calls(y, new=True)
    # a bulb's two angles at 20,011 bits differ by 1/(2^w - 1), and a real
    # angle's conjugate is 1 minus it.  The slope 10001/20011 puts both near
    # no small rational, so each takes its own split at full width, and the
    # second computes no power the first did not
    w = 20_011
    low, high = mechanical.characteristic_pair(Fraction(10001, w))
    assert high - low == Fraction(1, (1 << w) - 1) and low.denominator == high.denominator
    for y in (high, 1 - low):
        assert _join_calls(low, y, bits=w) == 2 * _join_calls(low, bits=w) == 2
        assert _power_calls(low, y, new=True) == _power_calls(low, new=True)
    # a numerator 2^(w - 2) over 2^w - 1 lies near 1/4, with e = 1: it is
    # written from its denominator's value, with no join and no power beyond
    # the denominator's 2^w, as 1/(2^w - 1) is
    x, one = Fraction(1 << (w - 2), (1 << w) - 1), Fraction(1, (1 << w) - 1)
    assert _join_calls(x, bits=w) == 0
    assert _power_calls(x) == _power_calls(one)
    assert _power_calls(x, new=True) == _power_calls(one, new=True)
    # n/den = u/v + e/(v den), near a small rational u/v: with v < 2^64 and e
    # of at most 1024 bits, n is written as (den's value * u + e) / v, with
    # no join of n; v = 2^64, or e = ±2^1024, takes the split, even where
    # n = 2^(k - 64), v = 2^64 and e = 1 over 2^k - 1.  Over 2^k - 1 and over
    # a reduced denominator, which is joined once itself.  e = 0 leaves u/v
    # itself, here n = den, which str prints
    short, long = (1 << 1024) - 1, 1 << 1024
    grid = [(v, e, True) for v in (1, 2, 3, 12, 2**64 - 1) for e in (0, 1, -1, short, -short)]
    grid += [(2**64, e, False) for e in (1, -1, short, -short)]
    grid += [(v, e, False) for v in (3, 2**64 - 1) for e in (long, -long)]
    for k in (edge + 1, 16_383, 100_003):
        full = (1 << k) - 1
        # 2^k - 1 over its least divisor 2jk + 1: an angle's denominator
        # once its numerator shares that divisor.  At k = edge + 1 it falls
        # below the edge, where no part is joined
        q = next(q for q in itertools.count(2 * k + 1, 2 * k) if pow(2, k, q) == 1)
        for den in (full, full // q):
            den_text = str(den)
            for v, e, near in grid:
                # u makes n whole; a multiple of den more makes it positive
                n = (den * (-e * pow(den, -1, v) % v) + e) // v
                x = Fraction(n if n > 0 else n + den, den)
                if not e:
                    assert x == 1 and cli._texts(x) == ["1"]
                    continue
                assert x.denominator == den
                text = f"{x.numerator}/{den_text}"
                joins = _join_calls(x, bits=den.bit_length(), texts=[text])
                past = den.bit_length() > edge
                assert joins == past * ((den != full) + (not near)), (k, v, e)
    # the period angles of both deep-path families, limb 1/2 at slope
    # (b//2 + 1)/b and limb 1/5 at slope 1/b, and the two angles of the
    # bulb of that slope, lie near u/v with v of a few bits: past the edge
    # each angle, the angle with its conjugate and the bulb's pair print with
    # no join at full width, where a random angle of that width takes one
    for b in (edge + 1, 16_383):
        full = (1 << b) - 1
        families = [(Fraction(1, 2), Fraction(b // 2 + 1, b), Convention.ZERO_ONE)]
        families += [(Fraction(1, 5), Fraction(1, b), Convention.ONE_ZERO)]
        for limb, slope, convention in families:
            spec = validate_spec(limb, slope, 1, convention)
            angle = word_to_fraction(broken_line_word(spec))
            conjugate = word_to_fraction(conjugate_word(spec))
            assert angle.denominator == conjugate.denominator == full
            bulb = list(mechanical.characteristic_pair(slope))
            assert bulb[0].denominator == bulb[1].denominator == full
            for pair in ([angle], [conjugate], [angle, conjugate], bulb):
                assert _join_calls(*pair, bits=b) == 0
        assert _join_calls(Fraction(draw.randrange(1, full), full), bits=b) == 1


def _power_calls(*fractions, new=False):
    # calls of the power() of one _texts call, hits on its table included,
    # or with new only those that compute a power the table does not hold
    return _calls(
        fractions, "power", lambda local: not new or local["k"] not in local["powers"]
    )


def _join_calls(*fractions, bits, texts=None):
    # calls of the join() of one _texts call on a number split at bits
    return _calls(fractions, "join", lambda local: local["bits"] == bits, texts)


def _calls(fractions, name, counts, texts=None):
    # calls of the inner function name of one _texts call whose locals
    # counts holds for; the call must print texts, by default what str
    # prints of each fraction
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == name:
            calls += counts(frame.f_locals)

    sys.setprofile(profile)
    try:
        printed = cli._texts(*fractions)
    finally:
        sys.setprofile(None)
    assert printed == (texts or list(map(str, fractions)))
    return calls


def test_power_tables_live_per_call(no_digit_limit):
    # a table of powers of 2 lives in one call of _texts: a second call on
    # the same fraction builds its powers again, as many calls of power() as
    # the first and more than half of those of one call that prints it
    # twice, whose second print only hits the table.  _texts takes no table
    # and starts each call from an empty one, and no cached function
    # computes in decimal
    full = (1 << 9_999) - 1
    x = Fraction(full >> 1, full)
    assert _power_calls(x) == _power_calls(x) > _power_calls(x, x) / 2
    tree = ast.parse(Path(cli.__file__).read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert ast.unparse(defs["_texts"].args) == "*fractions: Fraction"
    fresh = [
        node
        for node in defs["_texts"].body
        if isinstance(node, ast.AnnAssign)
        and ast.unparse(node.target) == "powers"
        and ast.unparse(node.value) == "{}"
    ]
    assert len(fresh) == 1
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.decorator_list:
            assert "decimal" not in ast.unparse(node), node.name


def test_broken_all_prints_its_angles_as_str(capsys, no_digit_limit):
    # the angle, the conjugate and both spoke rays share one _texts call;
    # each must print as str prints its Fraction, at periods either side of
    # the decimal edge and with spoke rays past it (the last spec)
    cases = [
        ("1/2", "3/4", 1, "01"),
        ("2/5", "7/17", 2, "01"),
        ("1/2", "2502/5003", 1, "01"),
        ("1/2", "7412/14823", 1, "01"),
        ("1/3", "1/16383", 1, "10"),
        ("1/2", "3001/6001", 3000, "01"),
    ]
    for limb, slope, hinge, convention in cases:
        code, out, _ = run(
            capsys, "broken", limb, slope, "--hinge", str(hinge),
            "--convention", convention, "--all", "--json",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        spec = validate_spec(
            Fraction(limb), Fraction(slope), hinge, Convention(convention)
        )
        lower, upper = atlas.locate(spec).bracketing_rays
        word = mechanical.broken_line_word(spec)
        assert payload["angle"] == str(word_to_fraction(word))
        assert payload["conjugate"] == str(word_to_fraction(conjugate_word(spec)))
        assert payload["spoke-lower"] == str(lower.value)
        assert payload["spoke-upper"] == str(upper.value)
    assert lower.value.denominator.bit_length() > cli._DECIMAL_BITS


def test_bulb_past_the_decimal_edge(capsys, no_digit_limit):
    code, out, _ = run(capsys, "bulb", "4000/8001", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    low, high = mechanical.characteristic_pair(Fraction(4000, 8001))
    assert low.denominator.bit_length() > cli._DECIMAL_BITS
    assert (payload["theta-01"], payload["theta-10"]) == (str(low), str(high))


def test_block_lists_match_the_exponents(capsys):
    # broken --all spells its two per-block lists from the block pattern:
    # against the lists built item by item, in text and in JSON, with and
    # without --check, for every spec with b <= 16 and a slope of 7,411
    # blocks; the JSON document is the one json.dumps writes (_document)
    specs = list(all_specs(3, 16))
    specs.append(
        validate_spec(Fraction(1, 2), Fraction(7412, 14823), 1, Convention.ZERO_ONE)
    )
    singles = 0
    for spec in specs:
        decomposition = mechanical.block_decomposition(spec)
        singles += decomposition.pattern == "0"
        exponents, blocks = block_lists_by_exponents(decomposition)
        argv = [
            "broken", str(spec.p_over_q), str(spec.slope), "--hinge",
            str(spec.hinge), "--convention", str(spec.convention), "--all",
        ]
        for flags in ((), ("--check",)):
            code, out, _ = run(capsys, *argv, *flags)
            assert code == 0
            lines = dict(line.split(": ", 1) for line in out.splitlines())
            assert lines["block-exponents"] == " ".join(map(str, exponents))
            assert lines["blocks"] == " ".join(blocks)
            code, out, _ = run(capsys, *argv, *flags, "--json")
            assert code == 0
            payload = _document(out)["payload"]
            assert payload["block-exponents"] == exponents
            assert payload["blocks"] == blocks
            assert list(payload)[-1] == ("check" if flags else "spoke-upper")
    assert 0 < singles < len(specs)
    assert {spec.convention for spec in specs} == set(Convention)
    _, out, _ = run(capsys, "broken", "1/2", "3/4", "--hinge", "1", "--convention", "01", "--all")
    assert "block-exponents: 2\nblocks: 0111\n" in out


# what the JSON writer copies between quotes unscanned: digits, bits and the
# punctuation of fractions, expansions and kneadings
_VERBATIM_TEXT = re.compile(r"[0-9./()\[\]*-]*")


def _document(out):
    """The document out holds, after checking that it is the one json.dumps
    writes and that every value the writer copies verbatim needs no escape."""
    doc = json.loads(out)
    assert out == json.dumps(doc) + "\n"
    for key, value in doc.get("payload", {}).items():
        if key in cli._VERBATIM and isinstance(value, str):
            assert _VERBATIM_TEXT.fullmatch(value), (key, value[:80])
    return doc


def _written(capsys, payload):
    cli._write_json(payload)
    return capsys.readouterr().out


def test_json_writer_writes_what_json_dumps_writes(capsys, no_digit_limit):
    # the writer against json.dumps on payloads no command prints: strings
    # that need escapes, JSON's constants, negative and long ints, a list of
    # dicts, verbatim keys holding other types, and lists that write
    # themselves first, last, alone and next to each other
    numbers, words = cli._PerBlock((2, 3), 3, 4), cli._PerBlock((1, 3), "01", "1")
    spelled = {id(numbers): [4, 4, 3], id(words): ["1", "01", "01"]}
    escapes = 'a "quoted" \\ back\\slash, a tab\t, a bell\x07, é and ☃'
    payloads = [
        {},
        {"check": escapes},
        {"message": escapes, "ok": True, "skipped": False, "none": None},
        {"period": -12, "count": 0, "big": -(10**5000) - 7, "ratio": 1.5},
        {"census": [{"period": 3, "formula": 1}, {"period": 4, "brute": 2}]},
        {"angle": "12/31", "word": "01100", "kneading": "110*", "tuned": "0.[1](01)"},
        {"angle": 3, "slope": None, "kneading": ["1", "0*"], "word": True},
        {"expansion": "0.(01)", "check": escapes, "conjugate-expansion": ""},
        {"blocks": words},
        {"blocks": words, "check": "ok"},
        {"limb": "1/3", "block-exponents": numbers},
        {"limb": "1/3", "block-exponents": numbers, "blocks": words, "spoke": 2},
        {"block-exponents": numbers, "blocks": words},
    ]
    for payload in payloads:
        plain = {k: spelled.get(id(v), v) for k, v in payload.items()}
        expected = json.dumps({"status": "ok", "payload": plain}) + "\n"
        assert _written(capsys, payload) == expected
    # a string under a verbatim key is copied unscanned, so the commands put
    # there only what needs no escape (the next test)
    assert _written(capsys, {"angle": 'a"b'}).endswith('{"angle": "a"b"}}\n')


def test_every_command_writes_the_document_json_dumps_writes(capsys, no_digit_limit):
    # every subcommand with each of its flag combinations, on inputs whose
    # fractions print by str and inputs whose fractions pass _DECIMAL_BITS
    # and print through decimal: each document is the one json.dumps writes
    # and every value copied verbatim needs no escape
    edge = cli._DECIMAL_BITS
    both = ((), ("--check",))
    commands = []
    for spec in (
        ("2/5", "7/17", "--hinge", "2", "--convention", "01"),
        ("1/3", "5/16", "--hinge", "1", "--convention", "10"),
        ("1/2", f"{edge // 2 + 2}/{edge + 3}", "--hinge", "1", "--convention", "01"),
        ("1/3", f"1/{edge + 3}", "--hinge", "1", "--convention", "10"),
    ):
        commands += [("broken", *spec, *a, *c) for a in ((), ("--all",)) for c in both]
        commands += [("conjugate", *spec, *v, *c) for v in ((), ("--verify",)) for c in both]
        commands += [("kneading", *spec, *c) for c in both]
        kneading = as_dict(run(capsys, "kneading", *spec)[1])["kneading"]
        commands += [("invert-kneading", kneading, *spec[-2:], *c) for c in both]
    for slope in ("2/5", f"{edge // 2}/{edge + 1}", f"1/{edge + 7}"):
        commands += [("line", slope, "--convention", k, *c) for k in ("01", "10") for c in both]
        commands += [("bulb", slope, *c) for c in both]
    for angle in ("9/31", "0.[1](01)", f"0.({'0' * edge}1)"):
        commands += [("kneading-of-angle", angle, *c) for c in both]
    for angle, bulb in (("0.(01)", "1/3"), ("0.[1](0)", "2/5"), ("1/3", f"{edge // 2}/{edge + 1}")):
        commands += [("tune", angle, bulb, *c) for c in both]
    commands += [("enumerate", "--period", "9", *c, *n) for c in both for n in ((), ("--census",))]
    commands.append(("broken", "2/5", "1/2", "--hinge", "3", "--convention", "01"))
    seen, wide = set(), 0
    for argv in commands:
        code, out, _ = run(capsys, *argv, "--json")
        payload = _document(out).get("payload", {})
        assert code == (0 if payload else 1), argv
        seen.update(payload)
        # a numerator or denominator of more than edge bits
        fractions = (str(payload.get(key)) for key in ("angle", "theta-01", "tuned-angle"))
        parts = [part for f in fractions for part in f.split("/") if part.isdigit()]
        wide += any(int(part).bit_length() > edge for part in parts)
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    assert cli._VERBATIM <= seen
    assert wide > len(commands) / 3


def test_bulb_check_orders_the_words(capsys, monkeypatch):
    # the two conventions' words swapped: the pair is out of order
    real = cli.mechanical_word
    swapped = lambda slope, c: real(slope, Convention(c.value[::-1]))
    monkeypatch.setattr(cli, "mechanical_word", swapped)
    code, out, err = run(capsys, "bulb", "2/5", "--check", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["error_kind"] == "InvariantViolated"
    assert doc["message"].startswith("characteristic_pair: ")
    assert "Traceback" not in err


def _invariant_message(capsys, *argv):
    # the command exits 1 with a typed InvariantViolated and its message
    code, out, err = run(capsys, *argv, "--json")
    assert code == 1 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["error_kind"] == "InvariantViolated"
    return doc["message"]


def test_line_check_catches_disagreeing_pipelines(capsys, monkeypatch):
    # the contraction of the cutting word reversed: not the mechanical word
    real = cli.cutting_to_mechanical
    monkeypatch.setattr(cli, "cutting_to_mechanical", lambda kappa: real(kappa)[::-1])
    message = _invariant_message(capsys, "line", "2/5", "--convention", "01", "--check")
    assert message.startswith("cutting_to_mechanical: ")


def test_kneading_of_angle_check_catches_a_wrong_partner(capsys, monkeypatch):
    # the partner of 9/31 taken as its double 18/31, whose kneading 1011*
    # differs from 1111*
    monkeypatch.setattr(oracles, "_partner_of", lambda b, key: 2 * key % ((1 << b) - 1))
    message = _invariant_message(capsys, "kneading-of-angle", "9/31", "--check")
    assert message.startswith("kneading_of_angle: ")


def test_tune_check_catches_an_expansion_that_does_not_round_trip(capsys, monkeypatch):
    # the tuned angle printed without its preperiod: it parses as another angle
    class Misprinted(PeriodicAngle):
        def __str__(self):
            return f"0.({self.period})"

    real = cli.tune

    def misprinted(angle, bulb):
        tuned = real(angle, bulb)
        return Misprinted(tuned.preperiod, tuned.period)

    monkeypatch.setattr(cli, "tune", misprinted)
    message = _invariant_message(capsys, "tune", "3/8", "1/3", "--check")
    assert message.startswith("tune: ")


def test_broken_line_word_checks_the_hinge_prefix(capsys, monkeypatch):
    # the slope word of 7/17 rotated by one digit no longer ends in two
    # copies of the limb word 00101
    real = farey.mechanical_word

    def rotated(x, convention):
        word = real(x, convention)
        return word[1:] + word[0] if x == Fraction(7, 17) else word

    monkeypatch.setattr(farey, "mechanical_word", rotated)
    base = ("2/5", "7/17", "--hinge", "2", "--convention", "01")
    message = _invariant_message(capsys, "broken", *base)
    assert message.startswith("broken_line_word: slope word does not end in the hinge prefix")


def test_digit_limit_kept_for_arguments_and_restored_after_errors(capsys):
    limit = sys.get_int_max_str_digits()
    code, _, err = run(
        capsys, "broken", "2/5", "1/2", "--hinge", "3", "--convention", "01"
    )
    assert code == 1
    assert "HypothesisViolated" in err
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(SystemExit) as usage:
        main(["bulb", "1" * (limit + 1) + "/3"])
    assert usage.value.code == 2
    assert sys.get_int_max_str_digits() == limit


def test_conjugate_verify(capsys):
    code, out, _ = run(
        capsys,
        "conjugate", "1/2", "3/4", "--hinge", "1", "--convention", "01",
        "--verify",
    )
    assert code == 0
    fields = as_dict(out)
    assert fields["conjugate"] == "8/15"
    assert fields["chain"] == "ok"
    assert fields["lavaurs"] == "ok"


def test_kneading_commands(capsys):
    code, out, _ = run(
        capsys, "kneading", "2/5", "7/17", "--hinge", "2", "--convention", "01",
        "--check",
    )
    assert code == 0
    assert as_dict(out)["kneading"] == "1111011110111111*"

    code, out, _ = run(capsys, "kneading-of-angle", "7/15")
    assert code == 0
    fields = as_dict(out)
    assert fields["kneading"] == "100*"
    assert fields["period"] == "4"


def test_kneading_of_angle_checks_the_pairing_through_period_16(capsys):
    # --check compares the kneading with its Lavaurs partner's up to the
    # period conjugate --verify pairs, and skips the angles past it; both
    # commands write the one skip text, the oracles module's
    skip = "skipped (period > 16)"
    assert oracles._PAIRING_SKIPPED == skip
    for digits, check in ((16, "ok"), (17, skip)):
        angle = f"0.({'0' * (digits - 1)}1)"
        code, out, _ = run(capsys, "kneading-of-angle", angle, "--check")
        assert code == 0
        fields = as_dict(out)
        assert fields["period"] == str(digits)
        assert fields["check"] == check
    # the period of a spec is its slope's denominator
    for spec, lavaurs in (
        (("1/3", "5/16", "--hinge", "1", "--convention", "10"), "ok"),
        (("1/2", "9/17", "--hinge", "1", "--convention", "01"), skip),
    ):
        code, out, _ = run(capsys, "conjugate", *spec, "--verify")
        assert code == 0
        fields = as_dict(out)
        assert (fields["chain"], fields["lavaurs"]) == ("ok", lavaurs)


def test_kneading_of_angle_check_reads_the_partner_by_integer_key(capsys, monkeypatch):
    # the partner is read off the pairing table by the period word's key, as
    # in conjugate --verify, with no Fraction search and no second expansion:
    # only a p/q argument is expanded, once.  7/21845 is 21/65535, of period
    # 16 and key 21, not its numerator 7
    from brokenline import angles, kneading

    def refused(*args):
        raise AssertionError("the partner went through Fractions")

    for module in (brokenline, cli, kneading, oracles):
        for name in ("kneading_of_angle", "lavaurs_partner"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    real, calls = angles.multiplicative_order, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(angles, "multiplicative_order", counted)
    for angle, orders in (("9/31", 1), ("0.(0000000000000001)", 0), ("7/21845", 1)):
        calls.clear()
        code, out, _ = run(capsys, "kneading-of-angle", angle, "--check")
        assert code == 0
        assert as_dict(out)["check"] == "ok"
        assert len(calls) == orders, angle


def test_kneading_of_angle_check_passes_on_every_angle_up_to_period_16(capsys):
    # every reduced p/q with odd q <= 255 whose period the pairing check
    # reaches, none of period 16, and every p/257: 257 is prime and 2 has
    # order 16 modulo it, so these 256 sit at the budget's edge.  1,874
    # angles, 1,538 of them with a key other than p
    checked = 0
    for q in [*range(3, 256, 2), 257]:
        if multiplicative_order(2, q) > oracles.LAVAURS_VERIFY_LIMIT:
            continue
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                code, out, _ = run(capsys, "kneading-of-angle", f"{p}/{q}", "--check")
                assert (code, as_dict(out)["check"]) == (0, "ok"), f"{p}/{q}"
                checked += 1
    assert checked == 1874


def test_invert_kneading(capsys):
    code, out, _ = run(
        capsys, "invert-kneading", "1111011110111101*", "--convention", "01"
    )
    assert code == 0
    fields = as_dict(out)
    assert fields["limb"] == "2/5"
    assert fields["slope"] == "7/17"
    assert fields["hinge"] == "3"


def test_invert_kneading_check(capsys, monkeypatch):
    # the recovered word's orbit kneading is the input, read independently of
    # the structural round trip
    argv = ("invert-kneading", "1111011110111101*", "--convention", "01", "--check")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert as_dict(out)["check"] == "ok"

    real = cli.invert_kneading

    def rotated(kneading, convention):
        spec, angle = real(kneading, convention)
        word = angle.period
        return spec, PeriodicAngle(period=word[1:] + word[0])

    monkeypatch.setattr(cli, "invert_kneading", rotated)
    code, out, err = run(capsys, *argv, "--json")
    assert code == 1 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["error_kind"] == "InvariantViolated"
    assert doc["message"].startswith("invert_kneading: ")


def test_enumerate_with_census(capsys):
    code, out, _ = run(capsys, "enumerate", "--period", "4", "--census")
    assert code == 0
    assert "count: 4" in out
    assert "census-3: 2 2 2" in out
    assert "census-4: 4 4 4" in out
    lines = [l for l in out.splitlines() if l.startswith("theta-")]
    assert len(lines) == 4
    assert any("7/15" in l for l in lines)


def test_enumerate_census_reports_construction_gap(capsys):
    # at period 7 the construction reaches 28 of the 30 counted angles; the
    # census must report, not assert
    code, out, _ = run(capsys, "enumerate", "--period", "7", "--census")
    assert code == 0
    assert "census-7: 30 28 30" in out
    assert "census-discrepancy" in out


def test_enumerate_census_cap_checked_before_any_work(capsys, monkeypatch):
    def no_work(period):
        raise AssertionError("enumerated before the census cap was checked")

    monkeypatch.setattr(cli, "enumerate_specs", no_work)
    code, out, _ = run(capsys, "enumerate", "--period", "15", "--census", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["error_kind"] == "ValueError"
    assert doc["message"] == "census is desk-scale: 3 <= period <= 14"


def test_enumerate_past_the_period_budget_is_refused(capsys, monkeypatch):
    # B above MAX_ENUMERATE_PERIOD is refused before any row is built, after
    # the census cap; B = MAX_ENUMERATE_PERIOD itself is enumerated
    enumerated = []

    def no_work(period):
        enumerated.append(period)
        return SpecEnumeration(period, ())

    monkeypatch.setattr(cli, "enumerate_specs", no_work)
    over = str(cli.MAX_ENUMERATE_PERIOD + 1)
    for flags in ((), ("--check",)):
        code, out, err = run(capsys, "enumerate", "--period", over, *flags, "--json")
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert doc["error_kind"] == "BudgetExceeded"
        assert doc["message"] == (
            f"B: period {over} exceeds the budget of {cli.MAX_ENUMERATE_PERIOD}"
        )
        code, out, err = run(capsys, "enumerate", "--period", over, *flags)
        assert code == 1 and out == ""
        assert err == f"error: BudgetExceeded: {doc['message']}\n"
    code, out, _ = run(capsys, "enumerate", "--period", over, "--census", "--json")
    assert code == 1 and json.loads(out)["error_kind"] == "ValueError"
    assert enumerated == []
    code, out, _ = run(capsys, "enumerate", "--period", str(cli.MAX_ENUMERATE_PERIOD))
    assert code == 0 and as_dict(out)["count"] == "0"
    assert enumerated == [cli.MAX_ENUMERATE_PERIOD]


def _assert_broken_pipe(code, err):
    # exit 1 and one error line: no traceback, and no second error from the
    # flush at interpreter exit
    assert code == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert err.startswith("error: BrokenPipeError: ") and err.count("\n") == 1


def test_closed_stdout_is_a_typed_error():
    command = [sys.executable, "-m", "brokenline"]
    # stdout block-buffered, as on a pipe by default: a short answer is
    # written when main flushes it
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    for mode in ((), ("--json",)):
        # the reader stops after 100 bytes of a 0.7 MB answer
        child = subprocess.Popen(
            [*command, "enumerate", "--period", "229", *mode],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        _assert_broken_pipe(child.wait(), err)
        # the reader is gone before a short answer is written at all
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [*command, "bulb", "2/5", *mode],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write)
        _assert_broken_pipe(done.returncode, done.stderr)


def test_tune(capsys):
    code, out, _ = run(capsys, "tune", "0.(011)", "1/2", "--check")
    assert code == 0
    fields = as_dict(out)
    assert fields["tuned"] == "0.(011010)"

    code, out, _ = run(capsys, "tune", "1/3", "1/2")
    assert code == 0
    assert as_dict(out)["tuned"] == "0.(0110)"


def test_angle_argument_forms(capsys):
    code_a, out_a, _ = run(capsys, "kneading-of-angle", "0.(0111)")
    code_b, out_b, _ = run(capsys, "kneading-of-angle", "7/15")
    assert code_a == code_b == 0
    assert as_dict(out_a)["kneading"] == as_dict(out_b)["kneading"]


def test_domain_error_exit_code(capsys):
    code, out, err = run(
        capsys, "broken", "2/5", "1/2", "--hinge", "3", "--convention", "01"
    )
    assert code == 1
    assert "HypothesisViolated" in err

    code, out, _ = run(
        capsys,
        "broken", "2/5", "1/2", "--hinge", "3", "--convention", "01", "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["error_kind"] == "HypothesisViolated"


def test_unreduced_fraction_rejected(capsys):
    code, _, err = run(
        capsys, "broken", "1/2", "6/8", "--hinge", "1", "--convention", "01"
    )
    assert code == 1
    assert "not reduced" in err

    code, _, err = run(capsys, "line", "2/4", "--convention", "01")
    assert code == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["line", "nonsense", "--convention", "01"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["line", "2/5", "--convention", "02"])
    assert info.value.code == 2


def test_output_round_trips(capsys):
    # every printed fraction parses back, every expansion parses back
    from fractions import Fraction

    from brokenline import PeriodicAngle

    _, out, _ = run(
        capsys,
        "broken", "2/5", "7/17", "--hinge", "2", "--convention", "01", "--all",
    )
    fields = as_dict(out)
    assert Fraction(fields["angle"]) == Fraction(38057, 131071)
    assert PeriodicAngle.parse(fields["expansion"]).value == Fraction(
        38057, 131071
    )
    assert PeriodicAngle.parse(fields["conjugate-expansion"]).value == Fraction(
        fields["conjugate"]
    )


def test_module_entry_point():
    done = run_fresh("bulb", "1/3")
    assert done.returncode == 0
    assert "theta-01: 1/7" in done.stdout


def test_check_smoke_over_enumeration(capsys):
    # the full oracle re-run stays green across whole enumerations
    for b in range(3, 21):
        code, out, _ = run(
            capsys, "enumerate", "--period", str(b), "--check"
        )
        assert code == 0
        assert "check: ok" in out


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


ONLY_THE_FALLBACK_BUILDS_THE_PARSER = """
import contextlib, io, sys
from brokenline import cli

def loaded():
    # argparse serves help and usage errors only; no command needs the others
    return [name for name in ("argparse", "dataclasses", "typing") if name in sys.modules]

print(*loaded(), sep=",")

well_formed = [
    ["line", "--convention", "01", "2/5", "--check"],
    ["bulb", "--json", "2/5"],
    ["broken", "--hinge", "2", "2/5", "--convention", "01", "7/17", "--all"],
    ["conjugate", "1/2", "3/4", "--hinge", "1", "--convention", "01", "--verify"],
    ["kneading", "2/5", "7/17", "--hinge", "2", "--convention", "01", "--check"],
    ["kneading-of-angle", "0.(0111)", "--check"],
    ["invert-kneading", "--convention", "01", "1111011110111101*"],
    ["enumerate", "--census", "--period", "5", "--check"],
    ["tune", "1/3", "--json", "1/2"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in well_formed]
print(*codes)
print(cli._build_parser.cache_info().currsize)
print(*loaded(), sep=",")
try:
    cli.main(["broken", "1/2", "--hinge", "1"])
except SystemExit as exc:
    info = cli._build_parser.cache_info()
    print(exc.code, info.misses, info.currsize)
print("argparse" in sys.modules)
"""


def test_only_the_fallback_builds_the_parser():
    # a fresh process that runs well-formed command lines never builds the
    # argparse parser, nor imports argparse, dataclasses or typing; the first
    # command line left to argparse builds it once.  -S keeps out what site
    # and its .pth files import, so the child loads only what the package does
    done = python_fresh("-S", "-c", ONLY_THE_FALLBACK_BUILDS_THE_PARSER)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "", "0 0 0 0 0 0 0 0 0", "0", "", "2 1 1", "True"
    ]
    assert "the following arguments are required: --convention" in done.stderr


def test_reused_parser_prints_what_a_fresh_process_prints(capsys):
    good = ("broken", "2/5", "7/17", "--hinge", "3", "--convention", "01", "--all")
    with pytest.raises(SystemExit) as usage:
        main(["broken", "2/5", "--hinge", "3"])
    assert usage.value.code == 2
    code, _, err = run(
        capsys, "broken", "2/5", "1/2", "--hinge", "3", "--convention", "01"
    )
    assert code == 1
    assert "HypothesisViolated" in err
    code, out, _ = run(capsys, *good)
    assert code == 0
    fresh = run_fresh(*good)
    assert fresh.returncode == 0
    assert out == fresh.stdout


def test_parser_declares_the_grammar():
    # the fallback parser's actions, written out here apart from the table
    # that both parsers are built from; argparse keeps the string as given
    # when the type is None, as str does
    def action_row(action):
        kind = None if action.type in (None, str) else action.type.__name__
        return (
            tuple(action.option_strings), action.dest, action.metavar, kind,
            action.required, action.help,
        )

    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        ("line", "straight-line pipeline"),
        ("bulb", "characteristic pair of a bulb"),
        ("broken", "broken-line angle"),
        ("conjugate", "conjugate angle"),
        ("kneading", "kneading of a broken line"),
        ("kneading-of-angle", "kneading of a periodic angle"),
        ("invert-kneading", "parameters from kneading"),
        ("enumerate", "all broken-line angles of one period"),
        ("tune", "tune an angle by a bulb"),
    ]
    common = [
        (
            ("-h", "--help"), "help", None, None, False,
            "show this help message and exit",
        ),
        (("--json",), "json", None, None, False, "emit one JSON document"),
        (
            ("--check",), "check", None, None, False,
            "re-run internal oracles on the output",
        ),
    ]
    convention = (("--convention",), "convention", "{01,10}", "_convention", True, None)
    spec = [
        *common,
        convention,
        (("--hinge",), "hinge", "N", "int", True, None),
        ((), "limb", "P/Q", "_ratio", True, None),
        ((), "slope", "a/b", "_ratio", True, None),
    ]
    slope = ((), "slope", "p/q", "_ratio", True, None)
    angle = ((), "angle", "ANGLE", "_angle", True, None)
    expected = {
        "line": [*common, convention, slope],
        "bulb": [*common, slope],
        "broken": [*spec, (("--all",), "all", None, None, False, "also derived data")],
        "conjugate": [
            *spec,
            (
                ("--verify",), "verify", None, None, False,
                "run the chain and pairing oracles",
            ),
        ],
        "kneading": spec,
        "kneading-of-angle": [*common, angle],
        "invert-kneading": [
            *common, convention, ((), "kneading", "SYMBOLS", None, True, None),
        ],
        "enumerate": [
            *common,
            (("--period",), "period", "B", "int", True, None),
            (("--census",), "census", None, None, False, "three-way census table"),
        ],
        "tune": [*common, angle, ((), "bulb", "p/q", "_ratio", True, None)],
    }
    assert list(sub.choices) == list(expected)
    for name, rows in expected.items():
        assert list(map(action_row, sub.choices[name]._actions)) == rows, name


def test_invariant_failure_is_a_typed_error(capsys, monkeypatch):
    real = mechanical.block_word

    def wrong_block(context, m):
        word = real(context, m)
        return ("1" if word[0] == "0" else "0") + word[1:]

    monkeypatch.setattr(mechanical, "block_word", wrong_block)
    for slope in ("3/4", "7/11"):  # one block, then four
        code, out, err = run(
            capsys,
            "broken", "1/2", slope, "--hinge", "1", "--convention", "01",
            "--all", "--json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["error_kind"] == "InvariantViolated"
        assert doc["message"].startswith("block_decomposition: ")
        assert "Traceback" not in err


def _error_kind(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 1
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["status"] == "error"
    return doc["error_kind"]


def test_command_line_chain_catches_a_wrong_conjugate(capsys, monkeypatch):
    # the command line checks the chain without conjugate_chain: one flipped
    # conjugate digit must still fail it, at a period where the pairing
    # oracle runs and at one where it is skipped
    real = conjugate._primed_word

    def flipped(*blocks):
        word = real(*blocks)
        middle = len(word) // 2
        return word[:middle] + ("1" if word[middle] == "0" else "0") + word[middle + 1 :]

    monkeypatch.setattr(conjugate, "_primed_word", flipped)
    monkeypatch.setattr(cli, "_primed_word", flipped)
    for spec in (("1/2", "7/11", "--hinge", "1"), ("2/5", "7/17", "--hinge", "2")):
        base = (*spec, "--convention", "01")
        assert _error_kind(capsys, "broken", *base, "--all", "--check") == "UnlinkViolation"
        assert _error_kind(capsys, "conjugate", *base, "--verify") == "UnlinkViolation"


def test_command_line_catches_a_wrong_structural_kneading(capsys, monkeypatch):
    real = cli.kneading_of_spec

    def wrong(spec):
        symbols = real(spec).symbols
        return KneadingSequence(("1" if symbols[0] == "0" else "0") + symbols[1:])

    monkeypatch.setattr(cli, "kneading_of_spec", wrong)
    base = ("2/5", "7/17", "--hinge", "2", "--convention", "01")
    assert _error_kind(capsys, "broken", *base, "--check") == "InvariantViolated"
    assert _error_kind(capsys, "kneading", *base, "--check") == "InvariantViolated"
    assert _error_kind(capsys, "enumerate", "--period", "9", "--check") == "InvariantViolated"


def test_command_line_catches_an_unbalanced_period_word(capsys, monkeypatch):
    # the balance test runs before the word oracles and names its own stage;
    # "11" and "00" are factors of 1100...0, whose 1-counts differ by two
    unbalanced = lambda spec: "11".ljust(spec.period, "0")
    monkeypatch.setattr(cli, "broken_line_word", unbalanced)
    base = ("2/5", "7/17", "--hinge", "2", "--convention", "01")
    for flags in (("--check",), ("--all", "--check")):
        code, out, _ = run(capsys, "broken", *base, *flags, "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["error_kind"] == "InvariantViolated"
        assert doc["message"] == "broken_line_word: period word fails the balance test"


def test_command_line_catches_a_wrong_pairing_partner(capsys, monkeypatch):
    # the conjugate word disagrees with the pairing oracle, here one that
    # pairs every angle with itself: an internal check failed, not the input
    real = oracles._partners_at
    real(11)  # the pairings of 7/11's period and below, cached before the patch
    itself = lambda period: {x: x for x in real(period)}
    monkeypatch.setattr(oracles, "_partners_at", itself)
    base = ("1/2", "7/11", "--hinge", "1", "--convention", "01")
    assert _error_kind(capsys, "conjugate", *base, "--verify") == "InvariantViolated"
    code, out, _ = run(capsys, "conjugate", *base, "--verify", "--json")
    assert code == 1
    assert json.loads(out)["message"].startswith("conjugate_word: ")


def _count_calls(monkeypatch, homes):
    # a dict of the calls of each function named in homes, by name, from
    # here on: every namespace of the package that holds the function gets
    # a counting wrapper
    counts = dict.fromkeys(homes, 0)
    modules = [
        module for name, module in sys.modules.items()
        if name == "brokenline" or name.startswith("brokenline.")
    ]

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    for name, home in homes.items():
        fn = getattr(sys.modules["brokenline." + home], name)
        wrapper = counting(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return counts


def test_broken_all_check_computes_each_stage_once(capsys, monkeypatch):
    # each stage of one command runs once, and each word the command needs
    # (limb, parent, slope) is built once
    homes = {
        "mechanical_word": "words",
        "_blocks": "mechanical",
        "locate": "atlas",
        "_rotation_signs": "oracles",
        "_bracket": "atlas",
        "kneading_of_spec": "kneading",
    }
    counts = _count_calls(monkeypatch, homes)
    spec = ("55/144", "377/987", "--hinge", "1", "--convention", "01")
    # calls per command, in the order of homes: the limb and slope words
    # make the period word, the parent word only the blocks; _bracket gives
    # the spoke and its rays and locate is not called, so --all --check
    # brackets the angle once; invert-kneading reads
    # the slope off its block counts, builds no parent word, and checks the
    # round trip with the structural kneading before the limb and slope
    # words make the period word
    expected = {
        ("broken", *spec, "--all", "--check"): (3, 1, 0, 1, 1, 1),
        ("broken", *spec, "--check"): (3, 1, 0, 1, 1, 1),
        ("broken", *spec, "--all"): (3, 1, 0, 0, 1, 1),
        ("broken", *spec): (2, 0, 0, 0, 0, 0),
        ("conjugate", *spec, "--verify"): (3, 1, 0, 1, 0, 0),
        ("kneading", *spec, "--check"): (2, 0, 0, 1, 0, 1),
        ("invert-kneading", "1111011110111101*", "--convention", "01"): (
            2, 0, 0, 0, 0, 1
        ),
        ("invert-kneading", "1111011110111101*", "--convention", "01", "--check"): (
            2, 0, 0, 1, 0, 1
        ),
    }
    for argv, row in expected.items():
        counts.update(dict.fromkeys(homes, 0))
        code, out, _ = run(capsys, *argv)
        checked = "--check" in argv or "--verify" in argv
        assert code == 0 and ("ok" in as_dict(out).values()) == checked
        assert counts == dict(zip(homes, row)), argv


def test_enumerate_check_computes_each_stage_once_per_angle(capsys, monkeypatch):
    # --check runs the pipeline of each angle's first spec: its blocks, its
    # kneading, the rotation signs both word oracles read, and the bracket
    homes = {
        "_blocks": "mechanical",
        "kneading_of_spec": "kneading",
        "_rotation_signs": "oracles",
        "_bracket": "atlas",
        "locate": "atlas",
    }
    counts = _count_calls(monkeypatch, homes)
    code, out, _ = run(capsys, "enumerate", "--period", "24", "--check")
    assert code == 0
    angles = len(enumerate_specs(24))
    assert as_dict(out)["check"] == f"ok ({angles} angles)"
    assert counts == {**dict.fromkeys(homes, angles), "locate": 0}


def _assert_same_text(out, expected):
    # a mismatch names its line and a few dozen characters around its first
    # differing place: pytest's own diff of two outputs of megabytes (a JSON
    # document is one line) runs for minutes
    if out != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(out, expected)) if a != b),
            min(len(out), len(expected)),
        )
        window = slice(max(at - 40, 0), at + 40)
        pytest.fail(
            f"lengths {len(out)} and {len(expected)}; first difference on line "
            f"{expected.count(chr(10), 0, at) + 1}: {out[window]!r} against "
            f"{expected[window]!r}",
            pytrace=False,
        )


def _assert_enumerate_prints(capsys, payload, *argv):
    # text and --json stdout of `enumerate --period ...` against the payload
    code, out, err = run(capsys, "enumerate", "--period", *argv)
    assert code == 0 and err == ""
    _assert_same_text(out, enumerate_text_by_objects(payload))
    code, out, _ = run(capsys, "enumerate", "--period", *argv, "--json")
    assert code == 0
    _assert_same_text(out, json.dumps({"status": "ok", "payload": payload}) + "\n")


def test_enumerate_prints_what_the_object_path_prints(capsys):
    # the command writes each entry from its integer row; the object payload
    # writes it from the entries' Fractions and specs
    for b in [*range(3, 61), 127, 229]:
        _assert_enumerate_prints(capsys, enumerate_payload_by_objects(b), str(b))
        if b <= 24:
            payload = enumerate_payload_by_objects(b, check=True)
            _assert_enumerate_prints(capsys, payload, str(b), "--check")
    payload = enumerate_payload_by_objects(9, census=True, check=True)
    _assert_enumerate_prints(capsys, payload, "9", "--census", "--check")


def test_enumerate_prints_reducible_keys(capsys, monkeypatch):
    real = atlas._spec_rows

    def injected(period):
        # a key sharing the factor 7 with 2^9 - 1 = 7 * 73, which no real
        # angle of these periods has but a Fraction would reduce.  The command
        # reduces once per slope and turn, so the reducible key goes to slope
        # 1/9 under turn R, which no real row has: its path turns left only
        rows = real(period)
        assert all(row[4:] != ("R", 1) for row in rows)
        return [*rows, (21, *rows[3][1:4], "R", 1)]

    monkeypatch.setattr(atlas, "_spec_rows", injected)
    assert_row_grammar(enumerate_specs(9))
    payload = enumerate_payload_by_objects(9)
    assert payload["count"] == len(payload["entries"])
    assert "3/73" in [e["angle"] for e in payload["entries"]]
    _assert_enumerate_prints(capsys, payload, "9")


def _assert_refuses_a_repeat(capsys, period):
    # enumerate_specs raises on a repeated key, and the command exits 1 with
    # one typed error, before any entry is written and without a traceback
    with pytest.raises(InvariantViolated, match="^enumerate_specs: ") as raised:
        enumerate_specs(period)
    assert raised.value.stage == "enumerate_specs"
    code, out, err = run(capsys, "enumerate", "--period", str(period))
    assert code == 1 and out == ""
    assert err.startswith("error: InvariantViolated: enumerate_specs: ")
    assert err.count("\n") == 1
    code, out, err = run(capsys, "enumerate", "--period", str(period), "--json")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert out == json.dumps(doc) + "\n"
    assert doc["status"] == "error" and doc["error_kind"] == "InvariantViolated"
    assert doc["message"].startswith("enumerate_specs: ")
    assert "payload" not in doc


def test_enumerate_refuses_a_repeated_angle(capsys, monkeypatch):
    # a second choice for the first angle met and two more for the last: no
    # two choices give one angle, so a repeat is a fault of the walk
    real = atlas._spec_rows

    def injected(period):
        rows = real(period)
        last = rows[-1][0]
        return [*rows, rows[0], (last, *rows[1][1:]), (last, *rows[2][1:])]

    monkeypatch.setattr(atlas, "_spec_rows", injected)
    _assert_refuses_a_repeat(capsys, 9)


def _count_inits(monkeypatch, *classes):
    # a Counter of the instances of each class built from here on, by name
    built = collections.Counter()

    def counting(cls):
        init = cls.__init__

        def counted(self, *args):
            built[cls.__name__] += 1
            init(self, *args)

        return counted

    for cls in classes:
        monkeypatch.setattr(cls, "__init__", counting(cls))
    return built


def test_plain_enumerate_builds_no_specs(capsys, monkeypatch):
    # len() and the command without --check read the integer rows only
    built = _count_inits(monkeypatch, BrokenLineSpec, FareyContext)
    assert len(enumerate_specs(229)) > 0
    assert run(capsys, "enumerate", "--period", "229")[0] == 0
    assert run(capsys, "enumerate", "--period", "229", "--json")[0] == 0
    assert built == {}
    # the counters see what reading the entries builds
    specs = enumerate_specs(7).specs()
    assert built["BrokenLineSpec"] == len(specs) > 0
    assert 0 < built["FareyContext"] <= len(specs)


def test_enumerate_check_builds_no_rays(capsys, monkeypatch):
    # the spoke check compares integers, and broken --all prints the rays
    # from their words: no command builds a ray as an object
    built = _count_inits(monkeypatch, PeriodicAngle, atlas.SpokeLocation)
    code, out, _ = run(capsys, "enumerate", "--period", "24", "--check")
    assert code == 0 and as_dict(out)["check"].startswith("ok (")
    assert built == {}
    base = ("2/5", "7/17", "--hinge", "2", "--convention", "01")
    assert run(capsys, "broken", *base, "--check")[0] == 0
    assert built == {}
    assert run(capsys, "broken", *base, "--all", "--check")[0] == 0
    assert built == {}


def test_enumerate_check_compares_the_printed_angle(capsys, monkeypatch):
    # the command prints each angle from its row key; a row whose key is not
    # the value of its period word prints a wrong angle, which --check must
    # catch although the spec's own pipeline is sound
    real = atlas._spec_rows

    def wrong_key(period):
        rows = real(period)
        keys = {row[0] for row in rows}
        key = rows[0][0] + 1
        while key in keys:
            key += 1
        assert key < (1 << period) - 1
        return [(key, *rows[0][1:]), *rows[1:]]

    monkeypatch.setattr(atlas, "_spec_rows", wrong_key)
    assert run(capsys, "enumerate", "--period", "9")[0] == 0
    code, out, _ = run(capsys, "enumerate", "--period", "9", "--check", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["error_kind"] == "InvariantViolated"
    assert doc["message"].startswith("enumerate_specs: ")


def test_enumerate_refuses_a_repeat_far_into_the_list(capsys, monkeypatch):
    # a second choice for the 4,096th angle and two more for the next, far
    # into the list the command writes as it goes: the repeat is refused
    # before the first entry is written
    real = atlas._spec_rows

    def injected(period):
        rows = real(period)
        keys = sorted({row[0] for row in rows})
        assert len(keys) > 4096
        end, start = keys[4096 - 1], keys[4096]
        return [
            *rows,
            (end, *rows[1][1:]),
            (start, *rows[2][1:]),
            (start, *rows[3][1:]),
        ]

    monkeypatch.setattr(atlas, "_spec_rows", injected)
    _assert_refuses_a_repeat(capsys, 229)


def test_enumerate_prints_nothing_before_its_checks_pass(capsys, monkeypatch):
    # the row key of the 4,097th angle is not its period word's value:
    # --check finds it after 4,096 sound entries, and no entry may have been
    # written by then
    real = atlas._spec_rows

    def wrong_key(period):
        rows = real(period)
        keys = sorted({row[0] for row in rows})
        key = keys[4096]
        assert key + 1 < keys[4096 + 1]
        return [(key + 1, *row[1:]) if row[0] == key else row for row in rows]

    monkeypatch.setattr(atlas, "_spec_rows", wrong_key)
    code, out, err = run(capsys, "enumerate", "--period", "229", "--check")
    assert code == 1 and out == ""
    assert err.startswith("error: InvariantViolated: enumerate_specs: ")
    assert err.count("\n") == 1
    code, out, err = run(capsys, "enumerate", "--period", "229", "--check", "--json")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert out == json.dumps(doc) + "\n"
    assert doc["status"] == "error" and doc["error_kind"] == "InvariantViolated"


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def _peaks(monkeypatch, *argv):
    # the tracemalloc peak of `enumerate ...` and the peak when
    # enumerate_specs returns its rows, with stdout discarded
    rows = []

    def measured(period):
        enumeration = enumerate_specs(period)
        rows.append(tracemalloc.get_traced_memory()[1])
        return enumeration

    monkeypatch.setattr(cli, "enumerate_specs", measured)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            assert main(["enumerate", *argv]) == 0
        command = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return command, rows[0]


def test_enumerate_holds_little_beyond_its_rows(monkeypatch):
    # the entries go out as they are written: the command's peak stays near
    # that of its rows, the peak when enumerate_specs returns, where a whole
    # document would add about four times their size
    command, rows = _peaks(monkeypatch, "--period", "1009", "--json")
    assert command < 1.5 * rows


def test_enumerate_check_holds_little_beyond_its_rows(monkeypatch):
    # the check builds each angle's spec from its row and drops it
    # after its checks: the command's peak stays near that of its rows, where
    # a context kept per node, or every checked spec with its words, adds
    # several times their size at this period
    command, rows = _peaks(monkeypatch, "--period", "131", "--check", "--json")
    assert command < 1.5 * rows


def test_angle_past_the_period_budget_is_refused(capsys):
    # the order of 2 modulo 1000000007 is 500000003: the search stops past
    # MAX_PERIOD steps and the command exits 1 with a typed error
    for argv in (["tune", "1/1000000007", "1/2"], ["kneading-of-angle", "1/1000000007"]):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert doc["error_kind"] == "BudgetExceeded"
        assert str(cli.MAX_PERIOD) in doc["message"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: BudgetExceeded: ")
    # the argument's syntax is still read at parse time: a usage error
    with pytest.raises(SystemExit) as usage:
        main(["tune", "1000000007/1000000007", "1/2"])
    assert usage.value.code == 2


def test_ratio_past_the_digit_cap_is_a_usage_error_naming_it(capsys):
    # p/q is parsed under the interpreter's cap on str-to-int conversion, 4,300
    # digits by default: a wider integer is a usage error that names the cap
    # and the 0.(w) form, without echoing the argument; the same angle as an
    # expansion is answered
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    den = str((1 << 20000) - 1)  # 6,021 digits
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run(capsys, "kneading-of-angle", "1/" + "0" * 4299 + "3")
        assert code == 0 and as_dict(out)["kneading"] == "1*"
        with pytest.raises(SystemExit) as usage:
            main(["kneading-of-angle", f"1/{den}"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert usage.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(
        "argument ANGLE: p/q takes integers of at most 4300 digits; "
        "write a longer periodic angle as 0.(w)\n"
    )
    assert den[:20] not in err
    code, out, _ = run(capsys, "kneading-of-angle", f"0.({'0' * 19999}1)")
    assert code == 0 and as_dict(out)["period"] == "20000"


def test_ratio_past_the_digit_cap_with_a_sign_space_or_underscore(capsys):
    # int would read each of these but for the cap: the usage error names the
    # cap, as for an all-digit part, and echoes none of the digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for num in ("+1", " 1", "1_"):
            with pytest.raises(SystemExit) as usage:
                main(["kneading-of-angle", num + "0" * 4400 + "/3"])
            assert usage.value.code == 2
            err = capsys.readouterr().err
            assert err.endswith(
                "argument ANGLE: p/q takes integers of at most 4300 digits; "
                "write a longer periodic angle as 0.(w)\n"
            ), num
            assert not re.search(r"\d{20}", err), num
    finally:
        sys.set_int_max_str_digits(limit)


def test_malformed_angles_are_usage_errors(capsys):
    # a p/q that is not two integers, and an expansion the grammar refuses,
    # each named in the message
    for text, message in (
        ("x/3", "expected integers in 'x/3'"),
        ("1/3.0", "expected integers in '1/3.0'"),
        ("0.(2)", "not an expansion: '0.(2)'"),
        ("0.[01]((10))", "not an expansion: '0.[01]((10))'"),
    ):
        with pytest.raises(SystemExit) as usage:
            main(["kneading-of-angle", text])
        assert usage.value.code == 2
        assert capsys.readouterr().err.endswith(f"argument ANGLE: {message}\n"), text


def test_word_past_the_period_budget_is_refused(capsys):
    # a slope, a bulb or a tuned word of more than MAX_PERIOD digits is
    # refused before it is built: each would take a byte per digit
    over = f"1/{10**12}"
    deep = (f"{10**12 // 2 + 1}/{10**12 + 1}", "--hinge", "1", "--convention", "01")
    refused = (
        ["bulb", over],
        ["tune", "0.(01)", over],
        ["line", over, "--convention", "01"],
        ["broken", "1/2", *deep],
        ["conjugate", "1/2", *deep, "--verify"],
        ["kneading", "1/2", *deep],
        ["bulb", f"1/{cli.MAX_PERIOD + 1}"],
        # the bulb is within the budget, the three-digit angle tuned by it not
        ["tune", "0.(011)", f"1/{cli.MAX_PERIOD // 3 + 1}"],
    )
    for argv in refused:
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1 and err == "", argv
        doc = json.loads(out)
        assert doc["error_kind"] == "BudgetExceeded"
        assert str(cli.MAX_PERIOD) in doc["message"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: BudgetExceeded: ")
    # a word of MAX_PERIOD digits is still answered
    code, out, _ = run(capsys, "bulb", f"1/{cli.MAX_PERIOD}", "--json")
    assert code == 0
    assert len(json.loads(out)["payload"]["word-01"]) == cli.MAX_PERIOD
    # a spec the hinge inequalities reject is reported as before
    code, out, _ = run(capsys, "broken", "1/2", f"1/{10**12 + 1}", *deep[1:], "--json")
    assert code == 1 and json.loads(out)["error_kind"] == "HypothesisViolated"


def test_angle_commands_print_what_they_printed():
    # golden output of the two commands whose "p/q" angle is expanded under
    # the period budget
    assert run_fresh("tune", "0.(01)", "1/3", "--check").stdout == (
        "angle: 0.(01)\nbulb: 1/3\ntuned: 0.(001010)\ntuned-angle: 10/63\n"
        "check: ok\n"
    )
    assert run_fresh("kneading-of-angle", "9/31", "--check").stdout == (
        "angle: 9/31\nkneading: 1111*\nperiod: 5\ncheck: ok\n"
    )
    assert run_fresh("tune", "1/3", "1/2", "--json").stdout == (
        '{"status": "ok", "payload": {"angle": "0.(01)", "bulb": "1/2", '
        '"tuned": "0.(0110)", "tuned-angle": "2/5"}}\n'
    )
