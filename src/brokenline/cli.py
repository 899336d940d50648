"""Batch command-line surface exposing every pipeline.

Text output is one "key: value" line per field so runs diff cleanly; --json
emits a single document instead, the bytes json.dumps writes, written key by
key so that bit words and printed fractions are copied, not scanned for
escapes.  Every numeric field is an exact fraction or a bit string, never a
float.  The angles a command prints are written by one _texts call; the
limb, the slope and the bulb, whose denominators the period budget or a
kneading's length bounds, by str.  Exit codes: 0 ok, 1 domain error, 2 usage.
"""

from __future__ import annotations

import decimal
import functools
import json
import math
import os
import sys
import types
from collections.abc import Iterator
from fractions import Fraction

from .angles import PeriodicAngle, _terms, fraction_to_expansion, word_to_fraction
from .atlas import (
    CENSUS_LIMIT,
    SpecEnumeration,
    _TURNS,
    _bracket,
    _row_spec,
    enumerate_specs,
    sturmian_census,
    tune,
)
from .conjugate import _primed_word, conjugate_word
from .errors import (
    BrokenLineError,
    BudgetExceeded,
    InvariantViolated,
    PreconditionUnmet,
)
from .farey import BrokenLineSpec, validate_spec
from .kneading import _kneading_of, invert_kneading, kneading_of_spec
from .mechanical import (
    _blocks,
    _spell_pattern,
    broken_line_word,
    cutting_sequence,
    cutting_to_mechanical,
    mechanical_word,
)
from .oracles import (
    _PAIRING_SKIPPED,
    _check_chain,
    _check_kneading,
    _check_pairing,
    _check_spec,
    _kneading_of_word,
    _pairing_partner,
)
from .words import Convention

# the longest word a command may build: the period of a "p/q" angle
# argument, the denominator of a slope or a bulb, the word tune returns; the
# largest period any documented command reaches is b = 10^6 + 1
MAX_PERIOD = 2**20
# the largest B of `enumerate --period B`: its rows and its time grow as
# B^2, and B = 2039 takes about 1.0 s and 82 MB, and with --check, which
# holds no more than the rows, about 36 s and 82 MB
MAX_ENUMERATE_PERIOD = 2**11


def _bad_argument(message: str) -> Exception:
    # the error argparse reports as a usage error with this message; argparse
    # is imported here and by _build_parser only, as no well-formed command
    # line needs it
    import argparse

    return argparse.ArgumentTypeError(message)


def _ratio(text: str) -> tuple[int, int]:
    parts = text.split("/")
    if len(parts) != 2:
        raise _bad_argument(f"expected p/q, got {text!r}")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError:
        # the cap stays: past it, p/q's order search takes ~58 s at 400,000 bits.
        # A part of more digits than the cap is refused by it, whatever signs,
        # spaces or underscores surround them, and is not echoed
        limit = sys.get_int_max_str_digits()
        if limit and any(sum(map(str.isdecimal, part)) > limit for part in parts):
            raise _bad_argument(
                f"p/q takes integers of at most {limit} digits; "
                "write a longer periodic angle as 0.(w)"
            )
        raise _bad_argument(f"expected integers in {text!r}")
    if num < 0 or den <= 0:
        raise _bad_argument("fractions must be nonnegative with a positive denominator")
    return num, den


def _angle(text: str) -> PeriodicAngle | Fraction:
    """Angle argument: either "p/q" or the expansion form "0.[u](w)".

    Only the syntax is read here; a "p/q" is expanded by _expansion, in the
    handler, where a period past MAX_PERIOD is a domain error.
    """
    if text.startswith("0."):
        try:
            return PeriodicAngle.parse(text)
        except ValueError as exc:
            raise _bad_argument(str(exc))
    num, den = _ratio(text)
    if num >= den:
        raise _bad_argument("angles must lie in [0, 1)")
    return Fraction(num, den)


def _expansion(angle: PeriodicAngle | Fraction) -> PeriodicAngle:
    # the period of p/q is the order of 2 modulo the odd part of q, which
    # can pass any budget however short p/q is written: the order search
    # stops past MAX_PERIOD digits
    if isinstance(angle, PeriodicAngle):
        return angle
    return fraction_to_expansion(angle, MAX_PERIOD)


def _budget(digits: int, name: str) -> None:
    # checked before the word is built, which takes a byte per digit
    if digits > MAX_PERIOD:
        raise BudgetExceeded(
            f"{name}: a word of {digits} digits exceeds the budget of {MAX_PERIOD}"
        )


def _strict(pair: tuple[int, int], name: str) -> Fraction:
    num, den = pair
    if math.gcd(num, den) != 1:
        raise PreconditionUnmet(f"{name}: {num}/{den} is not reduced")
    value = Fraction(num, den)
    if not 0 < value < 1:
        raise PreconditionUnmet(f"{name} must lie strictly between 0 and 1")
    _budget(den, name)
    return value


def _convention(text: str) -> Convention:
    return Convention(text)


# CPython 3.11 writes an int in decimal in time quadratic in its length.
# Splitting it in binary and joining the halves in ``decimal`` takes, as a
# share of str's time on broken-line angles over 2^b - 1 (min of 9 x 100
# calls in process, range of three runs, Python 3.11, 2 vCPUs):
#   b                       4,001      8,191      16,383
#   one angle               1.04-1.12  0.84-0.98  0.82-0.84
#   angle and conjugate     0.84-1.05  0.69-0.71  0.63-0.67
# (str: about 48, 180 and 740 us for one angle).  The split pays through the
# powers one call shares over its fractions, and from about 2^16 bits: 4.5 ms
# for a 65,536-bit fraction, 6 ms for str of its numerator alone; 0.11
# against 1.6 s at 2^20 bits.  libmpdec multiplies under about 4,900 digits
# by its quadratic basecase too, so below 2^16 bits any gain is a constant
# factor
_DECIMAL_BITS = 4000


def _texts(*fractions: Fraction) -> list[str]:
    """[str(x) for x in fractions], for the angles a command prints, all in
    one call: an angle alone, an angle and its conjugate, the two angles of a
    bulb, or broken --all's angle, conjugate and two spoke rays.

    Above _DECIMAL_BITS bits, an integer n = hi * 2^k + lo is written as the
    ``decimal`` value of hi times 2^k plus that of lo, recursively, exactly:
    the context's precision is the maximum and an inexact result traps.
    Every part of every fraction is split at the widest width of the call,
    so they all share one table of powers of 2, and a zero high half costs
    no product: a reduced angle printed with its unreduced conjugate reuses
    the conjugate's powers.  A denominator 2^w - 1, w the fraction's own
    width, that of every unreduced angle over 2^b - 1, is written as 2^w
    less one.  The table is built by the call and dropped after it.
    """
    widths = [max(abs(x.numerator), x.denominator).bit_length() for x in fractions]
    top = max(widths)
    if top <= _DECIMAL_BITS:
        return list(map(str, fractions))
    powers: dict[int, decimal.Decimal] = {}

    def power(k: int) -> decimal.Decimal:  # 2^k
        if k not in powers:
            if k <= 1024:
                powers[k] = decimal.Decimal(2) ** k
            else:
                powers[k] = power(k >> 1) * power(k - (k >> 1))
        return powers[k]

    def join(m: int, bits: int) -> decimal.Decimal:  # m < 2^bits
        if bits <= 1024:
            return decimal.Decimal(m)
        half = bits >> 1
        hi = m >> half
        if not hi:
            return join(m, half)
        return join(hi, bits - half) * power(half) + join(m - (hi << half), half)

    def text(x: Fraction, width: int) -> str:
        num, den = x.numerator, x.denominator
        if width <= _DECIMAL_BITS:
            return str(x)
        digits = str(join(abs(num), top))
        if num < 0:
            digits = "-" + digits
        if den == 1:
            return digits
        if den == (1 << width) - 1:
            return f"{digits}/{power(width) - 1}"
        return f"{digits}/{join(den, top)}"

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return list(map(text, fractions, widths))


def _spec_of(args: types.SimpleNamespace) -> BrokenLineSpec:
    spec = validate_spec(args.limb, args.slope, args.hinge, args.convention)
    _budget(spec.period, "a/b")
    return spec


def _spec_fields(spec: BrokenLineSpec) -> dict:
    return {
        "limb": str(spec.p_over_q),
        "slope": str(spec.slope),
        "hinge": spec.hinge,
        "convention": str(spec.convention),
    }


def cmd_line(args: types.SimpleNamespace) -> dict:
    slope = _strict(args.slope, "p/q")
    kappa = cutting_sequence(slope, args.convention)
    word = cutting_to_mechanical(kappa)
    payload = {
        "slope": str(slope),
        "convention": str(args.convention),
        "cutting": kappa,
        "word": word,
        "angle": _texts(word_to_fraction(word))[0],
    }
    if args.check:
        if word != mechanical_word(slope, args.convention):
            raise InvariantViolated(
                "cutting_to_mechanical", "pipelines disagree on the mechanical word"
            )
        payload["check"] = "ok"
    return payload


def cmd_bulb(args: types.SimpleNamespace) -> dict:
    slope = _strict(args.slope, "p/q")
    low = mechanical_word(slope, Convention.ZERO_ONE)
    high = mechanical_word(slope, Convention.ONE_ZERO)
    theta01, theta10 = _texts(word_to_fraction(low), word_to_fraction(high))
    payload = {
        "slope": str(slope),
        "word-01": low,
        "word-10": high,
        "theta-01": theta01,
        "theta-10": theta10,
    }
    if args.check:
        # words of one length, neither all 1s: they order as their angles
        if not low < high:
            raise InvariantViolated("characteristic_pair", "pair out of order")
        payload["check"] = "ok"
    return payload


def cmd_broken(args: types.SimpleNamespace) -> dict:
    spec = _spec_of(args)
    word = broken_line_word(spec)
    if args.all or args.check:
        m, pattern, low, high = _blocks(spec)
        cword = _primed_word(spec.convention, pattern, low, high)
        kneading = kneading_of_spec(spec)
        spoke, lower, upper = _bracket(spec)  # raises when no spoke brackets the angle
    if args.all:
        angle, conjugate, spoke_lower, spoke_upper = _texts(
            word_to_fraction(word),
            word_to_fraction(cword),
            Fraction(*_terms(*lower)),
            Fraction(*_terms(*upper)),
        )
    else:
        angle = _texts(word_to_fraction(word))[0]
    payload = _spec_fields(spec)
    payload.update(
        {
            "period": spec.period,
            "angle": angle,
            "expansion": f"0.({word})",
        }
    )
    if args.all:
        payload.update(
            {
                "conjugate": conjugate,
                "conjugate-expansion": f"0.({cword})",
                "kneading": str(kneading),
                "block-exponents": _PerBlock(pattern, m, m + 1),
                "blocks": _PerBlock(pattern, low, high),
                "spoke": spoke,
                "spoke-lower": spoke_lower,
                "spoke-upper": spoke_upper,
            }
        )
    if args.check:
        _check_spec(spec, word, cword, str(kneading))
        payload["check"] = "ok"
    return payload


class _PerBlock:
    """A list with one item per block of the period: ``zero`` for each block
    of index m and ``one`` for each of index m + 1, in the order of the block
    pattern.  It is spelled by the standard-word recursion, each item with
    its separator as a unit and the last separator cut off, so no item is
    built as an object.  str() gives the text form, items separated by
    spaces; write() gives the JSON form, which _write_json writes in place,
    as it does the entries of an enumeration."""

    def __init__(self, pattern: tuple, zero: int | str, one: int | str) -> None:
        self.pattern, self.zero, self.one = pattern, zero, one

    def _items(self, sep: str, quote: str) -> str:
        zero = f"{quote}{self.zero}{quote}{sep}"
        one = f"{quote}{self.one}{quote}{sep}"
        return _spell_pattern(self.pattern, zero, one)[: -len(sep)]

    def __str__(self) -> str:
        return self._items(" ", "")

    def write(self, as_json: bool) -> None:
        """Write the items as those of a JSON list, as _write_json asks of
        every list that writes itself; as_json is always true here."""
        # block words are bit strings, which JSON quotes without escapes
        quote = '"' if isinstance(self.zero, str) else ""
        sys.stdout.write(self._items(", ", quote))


def cmd_conjugate(args: types.SimpleNamespace) -> dict:
    spec = _spec_of(args)
    cword, word = conjugate_word(spec), broken_line_word(spec)
    angle_text, conjugate_text = _texts(word_to_fraction(word), word_to_fraction(cword))
    payload = _spec_fields(spec)
    payload.update(
        {
            "angle": angle_text,
            "conjugate": conjugate_text,
            "conjugate-expansion": f"0.({cword})",
        }
    )
    if args.verify or args.check:
        _check_chain(word, cword, _kneading_of_word(word), spec)
        payload["chain"] = "ok"
    if args.verify:
        payload["lavaurs"] = _check_pairing(word, cword, spec)
    return payload


def cmd_kneading(args: types.SimpleNamespace) -> dict:
    spec = _spec_of(args)
    kneading = kneading_of_spec(spec)
    payload = _spec_fields(spec)
    payload["kneading"] = str(kneading)
    if args.check:
        word = broken_line_word(spec)
        _check_kneading(spec, str(kneading), _kneading_of_word(word))
        payload["check"] = "ok"
    return payload


def cmd_kneading_of_angle(args: types.SimpleNamespace) -> dict:
    angle = _expansion(args.angle)
    theta = angle.value
    ks = _kneading_of(theta, angle.period)  # the word, never expanded again
    payload = {
        "angle": _texts(theta)[0],
        "kneading": str(ks),
        "period": ks.period,
    }
    if args.check:
        # the partner's word, read as conjugate --verify reads it
        if (partner := _pairing_partner(angle.period)) is None:
            payload["check"] = _PAIRING_SKIPPED
        elif _kneading_of_word(partner) + "*" != ks.symbols:
            raise InvariantViolated(
                "kneading_of_angle", "conjugate angles disagree on kneading"
            )
        else:
            payload["check"] = "ok"
    return payload


def cmd_invert_kneading(args: types.SimpleNamespace) -> dict:
    spec, sequence = invert_kneading(args.kneading, args.convention)
    payload = {"kneading": args.kneading}
    payload.update(_spec_fields(spec))
    payload.update(
        {
            "word": sequence.period,
            "expansion": str(sequence),
            "angle": _texts(sequence.value)[0],
        }
    )
    if args.check:
        # the kneading read off the orbit of the recovered word
        word = sequence.period
        if _kneading_of_word(word) + "*" != args.kneading:
            raise InvariantViolated(
                "invert_kneading", "the recovered word has another kneading", spec
            )
        payload["check"] = "ok"
    return payload


def cmd_enumerate(args: types.SimpleNamespace) -> dict:
    if args.census and args.period > CENSUS_LIMIT:
        sturmian_census(args.period)  # raises the cap error before any work
    if args.period > MAX_ENUMERATE_PERIOD:
        raise BudgetExceeded(
            f"B: period {args.period} exceeds the budget of {MAX_ENUMERATE_PERIOD}"
        )
    enumeration = enumerate_specs(args.period)
    entries = _Entries(enumeration)
    count = len(enumeration)
    payload: dict = {"period": args.period, "count": count, "entries": entries}
    if args.census:
        rows = []
        for b in range(3, args.period + 1):
            constructed, formula, brute = sturmian_census(b)
            rows.append(
                {
                    "period": b,
                    "formula": formula,
                    "constructed": constructed,
                    "brute": brute,
                }
            )
            if not constructed == formula == brute:
                payload["census-discrepancy"] = (
                    f"period {b}: formula={formula} "
                    f"constructed={constructed} brute={brute}"
                )
        payload["census"] = rows
    if args.check:
        # each angle's spec, built from its row, against its pipeline, and
        # its row key, the printed angle, against the value of its period
        # word; each spec is dropped after its checks
        for row in enumeration.rows:
            spec = _row_spec(args.period, row)
            word = broken_line_word(spec)
            if int(word, 2) != row[0]:
                raise InvariantViolated(
                    "enumerate_specs", "row key is not the period word's value", spec
                )
            _check_spec(spec, word, conjugate_word(spec), str(kneading_of_spec(spec)))
            _bracket(spec)  # raises when no spoke brackets the angle
        payload["check"] = f"ok ({count} angles)"
    return payload


class _Entries:
    """The entries of `enumerate`, written to stdout from the enumeration's
    rows by main, after every check has passed: nothing but integers is
    formatted on the way, and no entry is built as an object.

    Each angle is written from its row as str writes the Fractions of its
    spec: the limb and the slope are reduced, the angle is reduced by g, and
    each lies strictly between 0 and 1, so its Fraction prints p/q.
    Every key of one slope a and one turn is the slope word's value V
    rotated, 2^(B - cut) * V mod 2^B - 1, and doubling is invertible modulo
    2^B - 1, so all of them share one gcd g with it: g, the reduced
    denominator, the slope and the convention are written once per orbit.
    """

    def __init__(self, enumeration: SpecEnumeration) -> None:
        self.enumeration = enumeration

    def write(self, as_json: bool) -> None:
        """Write the entries as the items of a JSON list, each after the
        first led by its separator, or as text lines: one write per entry,
        batched by stdout's buffer as every other value is."""
        sys.stdout.writelines(self._texts(as_json))

    def _texts(self, as_json: bool) -> Iterator[str]:
        period = self.enumeration.period
        full = (1 << period) - 1
        orbits: dict[tuple[int, str], tuple[int, str, str, str]] = {}
        lead = ""  # the separator before each JSON item after the first
        for i, (key, p, q, hinge, turn, a) in enumerate(self.enumeration.rows, 1):
            orbit = orbits.get((a, turn))
            if orbit is None:
                g = math.gcd(key, full)
                slope, convention = f"{a}/{period}", _TURNS[turn].value
                orbit = orbits[a, turn] = (g, f"/{full // g}", slope, convention)
            g, denominator, slope, convention = orbit
            if as_json:
                yield (
                    f'{lead}{{"limb": "{p}/{q}", "slope": "{slope}", "hinge": {hinge}, '
                    f'"convention": "{convention}", '
                    f'"angle": "{key // g}{denominator}"}}'
                )
                lead = ", "
            else:
                yield (
                    f"theta-{i}: {key // g}{denominator} limb={p}/{q} "
                    f"slope={slope} hinge={hinge} convention={convention}\n"
                )


def cmd_tune(args: types.SimpleNamespace) -> dict:
    bulb = _strict(args.bulb, "bulb")
    angle = _expansion(args.angle)
    # each digit of the angle becomes a word of the bulb's length
    _budget((len(angle.preperiod) + len(angle.period)) * bulb.denominator, "tuned")
    tuned = tune(angle, bulb)
    payload = {
        "angle": str(angle),
        "bulb": str(bulb),
        "tuned": str(tuned),
        "tuned-angle": _texts(tuned.value)[0],
    }
    if args.check:
        if PeriodicAngle.parse(str(tuned)) != tuned:
            raise InvariantViolated("tune", "tuned expansion does not round-trip")
        payload["check"] = "ok"
    return payload


# The grammar of the command line, read by _parse for well-formed command
# lines and by _build_parser for everything else.  Per subcommand: its help,
# its handler, its positional arguments in order as (dest, type, metavar), its
# valued options, all required, and its flags besides --json and --check.
_OPTIONS = {
    "--convention": (_convention, {"choices": list(Convention), "metavar": "{01,10}"}),
    "--hinge": (int, {"metavar": "N"}),
    "--period": (int, {"metavar": "B"}),
}
_FLAGS = {
    "--json": "emit one JSON document",
    "--check": "re-run internal oracles on the output",
    "--all": "also derived data",
    "--verify": "run the chain and pairing oracles",
    "--census": "three-way census table",
}
_SPEC = (("limb", _ratio, "P/Q"), ("slope", _ratio, "a/b")), ("--convention", "--hinge")
_COMMANDS = {
    "line": (
        "straight-line pipeline", cmd_line, (("slope", _ratio, "p/q"),),
        ("--convention",), (),
    ),
    "bulb": (
        "characteristic pair of a bulb", cmd_bulb, (("slope", _ratio, "p/q"),),
        (), (),
    ),
    "broken": ("broken-line angle", cmd_broken, *_SPEC, ("--all",)),
    "conjugate": ("conjugate angle", cmd_conjugate, *_SPEC, ("--verify",)),
    "kneading": ("kneading of a broken line", cmd_kneading, *_SPEC, ()),
    "kneading-of-angle": (
        "kneading of a periodic angle", cmd_kneading_of_angle,
        (("angle", _angle, "ANGLE"),), (), (),
    ),
    "invert-kneading": (
        "parameters from kneading", cmd_invert_kneading,
        (("kneading", str, "SYMBOLS"),), ("--convention",), (),
    ),
    "enumerate": (
        "all broken-line angles of one period", cmd_enumerate,
        (), ("--period",), ("--census",),
    ),
    "tune": (
        "tune an angle by a bulb", cmd_tune,
        (("angle", _angle, "ANGLE"), ("bulb", _ratio, "p/q")), (), (),
    ),
}


def _parse(argv: list[str]) -> types.SimpleNamespace | None:
    """The attributes of the Namespace _build_parser().parse_args(argv)
    returns, in a SimpleNamespace, for a command line of exact option names,
    each given once, and every argument present and converted; None for
    anything else, which is left to argparse with its help, its usage errors
    and their messages."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    _, handler, positionals, options, flags = entry
    flags = ("--json", "--check", *flags)
    given: dict[str, str | bool] = {}
    free = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            free.append(token)
        elif token in given:
            return None
        elif token in flags:
            given[token] = True
        elif token in options:
            value = next(tokens, "-")  # a missing value reads as "-"
            if value.startswith("-"):
                return None
            given[token] = value
        else:
            return None
    if len(free) != len(positionals) or not all(name in given for name in options):
        return None
    values = {"command": argv[0], "handler": handler}
    values.update((flag[2:], flag in given) for flag in flags)
    try:
        for (dest, kind, _), text in zip(positionals, free):
            values[dest] = kind(text)
        for name in options:
            values[name[2:]] = _OPTIONS[name][0](given[name])
    except Exception:
        # argparse converts the arguments again, and reports or raises what
        # it meets
        return None
    return types.SimpleNamespace(**values)


# The parser reads only what _parse leaves to it: --help, the usage errors
# and the command lines argparse accepts in other shapes.  Each subcommand
# adds --json, --check, its valued options, its positionals, then its own
# flags, the order its help and usage list them in.  Building the 10 parsers
# costs 2-3 ms in a fresh process; parse_args leaves the parser unchanged, so
# one per process serves every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="brokenline",
        description="exact Sturmian external angles from broken lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, handler, positionals, options, flags) in _COMMANDS.items():
        s = sub.add_parser(command, help=text)
        for flag in ("--json", "--check"):
            s.add_argument(flag, action="store_true", help=_FLAGS[flag])
        for name in options:
            kind, display = _OPTIONS[name]
            s.add_argument(name, type=kind, required=True, **display)
        for dest, kind, metavar in positionals:
            s.add_argument(dest, type=kind, metavar=metavar)
        for flag in flags:
            s.add_argument(flag, action="store_true", help=_FLAGS[flag])
        s.set_defaults(handler=handler)
    return parser


def _print_lines(payload: dict) -> None:
    for key, value in payload.items():
        if key == "entries":
            value.write(as_json=False)
        elif key == "census":
            for row in value:
                print(
                    f"census-{row['period']}: {row['formula']} "
                    f"{row['constructed']} {row['brute']}"
                )
        else:
            print(f"{key}: {value}")


# the payload values that write themselves, as the items of a JSON list
_WRITERS = {_Entries, _PerBlock}
# the keys whose string values the commands spell from digits alone: bit
# words, expansions, kneadings, cutting words and printed fractions, over
# 0-9 . / ( ) [ ] * -, which JSON quotes without escapes
_VERBATIM = frozenset(
    {
        "limb", "slope", "bulb", "angle", "conjugate", "expansion",
        "conjugate-expansion", "kneading", "word", "cutting", "word-01",
        "word-10", "theta-01", "theta-10", "tuned", "tuned-angle",
        "spoke-lower", "spoke-upper",
    }
)


def _write_json(payload: dict) -> None:
    # print(json.dumps({"status": "ok", "payload": payload})), written key by
    # key: an int as its decimal text; a string under a _VERBATIM key copied
    # between quotes, unscanned, as it holds nothing JSON escapes; a list
    # that writes itself (the entries of an enumeration, a list per block)
    # in its place; every other value by json.dumps.  The keys are plain
    # names, which JSON quotes without escapes.
    out = sys.stdout
    out.write('{"status": "ok", "payload": {')
    sep = ""
    for key, value in payload.items():
        out.write(f'{sep}"{key}": ')
        kind = type(value)
        if kind is str and key in _VERBATIM:
            out.write(f'"{value}"')
        elif kind is int:
            out.write(str(value))
        elif kind in _WRITERS:
            out.write("[")
            value.write(as_json=True)
            out.write("]")
        else:
            out.write(json.dumps(value))
        sep = ", "
    out.write("}}\n")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        args = types.SimpleNamespace(**vars(_build_parser().parse_args(argv)))
    # a period-b angle has about 0.3*b decimal digits; the interpreter's cap
    # on int-to-str conversion is lifted while the command computes and
    # writes its answer, whose entries are written in decimal as they go,
    # and restored after, so argument parsing keeps the cap
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            payload = args.handler(args)
        except (BrokenLineError, ValueError) as exc:
            kind = type(exc).__name__
            if args.json:
                print(
                    json.dumps(
                        {"status": "error", "error_kind": kind, "message": str(exc)}
                    )
                )
            else:
                print(f"error: {kind}: {exc}", file=sys.stderr)
            return 1
        if args.json:
            _write_json(payload)
        else:
            _print_lines(payload)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout: what is left is written to the null
        # device, so the flush at interpreter exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
