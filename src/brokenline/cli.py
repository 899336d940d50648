"""Batch command-line surface exposing every pipeline.

Text output is one "key: value" line per field so runs diff cleanly; --json
emits a single document instead.  Every numeric field is an exact fraction
or a bit string, never a float.  Exit codes: 0 ok, 1 domain error, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .angles import PeriodicAngle, fraction_to_expansion, word_to_fraction
from .atlas import CENSUS_LIMIT, enumerate_specs, locate, sturmian_census, tune
from .conjugate import conjugate_chain, conjugate_word, lavaurs_partner
from .errors import BrokenLineError, PreconditionUnmet
from .farey import BrokenLineSpec, validate_spec
from .kneading import invert_kneading, kneading_of_angle, kneading_of_spec
from .mechanical import (
    block_decomposition,
    broken_line_word,
    characteristic_pair,
    cutting_sequence,
    cutting_to_mechanical,
    mechanical_word,
)
from .words import Convention, is_sturmian

LAVAURS_VERIFY_LIMIT = 16


def _ratio(text: str) -> tuple[int, int]:
    parts = text.split("/")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected p/q, got {text!r}")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}")
    if num < 0 or den <= 0:
        raise argparse.ArgumentTypeError(
            "fractions must be nonnegative with a positive denominator"
        )
    return num, den


def _angle(text: str) -> PeriodicAngle:
    """Angle argument: either "p/q" or the expansion form "0.[u](w)"."""
    if text.startswith("0."):
        try:
            return PeriodicAngle.parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    num, den = _ratio(text)
    if num >= den:
        raise argparse.ArgumentTypeError("angles must lie in [0, 1)")
    return fraction_to_expansion(Fraction(num, den))


def _strict(pair: tuple[int, int], name: str) -> Fraction:
    num, den = pair
    if math.gcd(num, den) != 1:
        raise PreconditionUnmet(f"{name}: {num}/{den} is not reduced")
    value = Fraction(num, den)
    if not 0 < value < 1:
        raise PreconditionUnmet(f"{name} must lie strictly between 0 and 1")
    return value


def _convention(text: str) -> Convention:
    return Convention(text)


def _spec_of(args: argparse.Namespace) -> BrokenLineSpec:
    return validate_spec(args.limb, args.slope, args.hinge, args.convention)


def _spec_fields(spec: BrokenLineSpec) -> dict:
    return {
        "limb": str(spec.p_over_q),
        "slope": str(spec.slope),
        "hinge": spec.hinge,
        "convention": str(spec.convention),
    }


def cmd_line(args: argparse.Namespace) -> dict:
    slope = _strict(args.slope, "p/q")
    kappa = cutting_sequence(slope, args.convention)
    word = cutting_to_mechanical(kappa)
    payload = {
        "slope": str(slope),
        "convention": str(args.convention),
        "cutting": kappa,
        "word": word,
        "angle": str(word_to_fraction(word)),
    }
    if args.check:
        if word != mechanical_word(slope, args.convention):
            raise PreconditionUnmet("pipelines disagree on the mechanical word")
        payload["check"] = "ok"
    return payload


def cmd_bulb(args: argparse.Namespace) -> dict:
    slope = _strict(args.slope, "p/q")
    low, high = characteristic_pair(slope)
    payload = {
        "slope": str(slope),
        "word-01": mechanical_word(slope, Convention.ZERO_ONE),
        "word-10": mechanical_word(slope, Convention.ONE_ZERO),
        "theta-01": str(low),
        "theta-10": str(high),
    }
    if args.check:
        if not low < high:
            raise PreconditionUnmet("characteristic pair out of order")
        payload["check"] = "ok"
    return payload


def _check_spec(spec: BrokenLineSpec) -> None:
    word = broken_line_word(spec)
    if not is_sturmian(word):
        raise PreconditionUnmet("period word fails the balance test")
    if kneading_of_spec(spec) != kneading_of_angle(word_to_fraction(word)):
        raise PreconditionUnmet("structural and direct kneading disagree")
    conjugate_chain(spec)
    locate(spec)


def cmd_broken(args: argparse.Namespace) -> dict:
    spec = _spec_of(args)
    word = broken_line_word(spec)
    payload = _spec_fields(spec)
    payload.update(
        {
            "period": spec.period,
            "angle": str(word_to_fraction(word)),
            "expansion": f"0.({word})",
        }
    )
    if args.all:
        cword = conjugate_word(spec)
        decomposition = block_decomposition(spec)
        spot = locate(spec)
        payload.update(
            {
                "conjugate": str(word_to_fraction(cword)),
                "conjugate-expansion": f"0.({cword})",
                "kneading": str(kneading_of_spec(spec)),
                "block-exponents": list(decomposition.exponents),
                "blocks": [
                    decomposition.block_words[e] for e in decomposition.exponents
                ],
                "spoke": spot.spoke_index,
                "spoke-lower": str(spot.bracketing_rays[0].value),
                "spoke-upper": str(spot.bracketing_rays[1].value),
            }
        )
    if args.check:
        _check_spec(spec)
        payload["check"] = "ok"
    return payload


def cmd_conjugate(args: argparse.Namespace) -> dict:
    spec = _spec_of(args)
    cword = conjugate_word(spec)
    payload = _spec_fields(spec)
    payload.update(
        {
            "angle": str(word_to_fraction(broken_line_word(spec))),
            "conjugate": str(word_to_fraction(cword)),
            "conjugate-expansion": f"0.({cword})",
        }
    )
    if args.verify or args.check:
        conjugate_chain(spec)
        payload["chain"] = "ok"
    if args.verify:
        if spec.period <= LAVAURS_VERIFY_LIMIT:
            partner = lavaurs_partner(word_to_fraction(broken_line_word(spec)))
            if partner != word_to_fraction(cword):
                raise PreconditionUnmet("pairing oracle disagrees")
            payload["lavaurs"] = "ok"
        else:
            payload["lavaurs"] = f"skipped (period > {LAVAURS_VERIFY_LIMIT})"
    return payload


def cmd_kneading(args: argparse.Namespace) -> dict:
    spec = _spec_of(args)
    ks = kneading_of_spec(spec)
    payload = _spec_fields(spec)
    payload["kneading"] = str(ks)
    if args.check:
        direct = kneading_of_angle(word_to_fraction(broken_line_word(spec)))
        if ks != direct:
            raise PreconditionUnmet("structural and direct kneading disagree")
        payload["check"] = "ok"
    return payload


def cmd_kneading_of_angle(args: argparse.Namespace) -> dict:
    theta = args.angle.value
    ks = kneading_of_angle(theta)
    payload = {
        "angle": str(theta),
        "kneading": str(ks),
        "period": ks.period,
    }
    if args.check:
        if ks.period <= 12:
            partner = lavaurs_partner(theta)
            if kneading_of_angle(partner) != ks:
                raise PreconditionUnmet("conjugate angles disagree on kneading")
            payload["check"] = "ok"
        else:
            payload["check"] = "skipped (period > 12)"
    return payload


def cmd_invert_kneading(args: argparse.Namespace) -> dict:
    spec, sequence = invert_kneading(args.kneading, args.convention)
    payload = {"kneading": args.kneading}
    payload.update(_spec_fields(spec))
    payload.update(
        {
            "word": sequence.period,
            "expansion": str(sequence),
            "angle": str(sequence.value),
        }
    )
    return payload


def cmd_enumerate(args: argparse.Namespace) -> dict:
    if args.census and args.period > CENSUS_LIMIT:
        sturmian_census(args.period)  # raises the cap error before any work
    enumeration = enumerate_specs(args.period)
    payload: dict = {"period": args.period, "count": len(enumeration)}
    entries = []
    for angle, specs in enumeration.entries:
        head = _spec_fields(specs[0])
        head["angle"] = str(angle)
        if len(specs) > 1:
            head["collisions"] = len(specs)
        entries.append(head)
    payload["entries"] = entries
    if enumeration.collisions:
        payload["collisions"] = len(enumeration.collisions)
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
        for _, specs in enumeration.entries:
            _check_spec(specs[0])
        payload["check"] = f"ok ({len(enumeration)} angles)"
    return payload


def cmd_tune(args: argparse.Namespace) -> dict:
    bulb = _strict(args.bulb, "bulb")
    tuned = tune(args.angle, bulb)
    payload = {
        "angle": str(args.angle),
        "bulb": str(bulb),
        "tuned": str(tuned),
        "tuned-angle": str(tuned.value),
    }
    if args.check:
        if PeriodicAngle.parse(str(tuned)) != tuned:
            raise PreconditionUnmet("tuned expansion does not round-trip")
        payload["check"] = "ok"
    return payload


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document")
    common.add_argument(
        "--check", action="store_true", help="re-run internal oracles on the output"
    )
    convention = argparse.ArgumentParser(add_help=False)
    convention.add_argument(
        "--convention",
        type=_convention,
        choices=list(Convention),
        required=True,
        metavar="{01,10}",
    )
    hinge = argparse.ArgumentParser(add_help=False)
    hinge.add_argument("--hinge", type=int, required=True, metavar="N")

    parser = argparse.ArgumentParser(
        prog="brokenline",
        description="exact Sturmian external angles from broken lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("line", parents=[common, convention], help="straight-line pipeline")
    s.add_argument("slope", type=_ratio, metavar="p/q")
    s.set_defaults(handler=cmd_line)

    s = sub.add_parser("bulb", parents=[common], help="characteristic pair of a bulb")
    s.add_argument("slope", type=_ratio, metavar="p/q")
    s.set_defaults(handler=cmd_bulb)

    s = sub.add_parser(
        "broken", parents=[common, convention, hinge], help="broken-line angle"
    )
    s.add_argument("limb", type=_ratio, metavar="P/Q")
    s.add_argument("slope", type=_ratio, metavar="a/b")
    s.add_argument("--all", action="store_true", help="also derived data")
    s.set_defaults(handler=cmd_broken)

    s = sub.add_parser(
        "conjugate", parents=[common, convention, hinge], help="conjugate angle"
    )
    s.add_argument("limb", type=_ratio, metavar="P/Q")
    s.add_argument("slope", type=_ratio, metavar="a/b")
    s.add_argument(
        "--verify", action="store_true", help="run the chain and pairing oracles"
    )
    s.set_defaults(handler=cmd_conjugate)

    s = sub.add_parser(
        "kneading", parents=[common, convention, hinge], help="kneading of a broken line"
    )
    s.add_argument("limb", type=_ratio, metavar="P/Q")
    s.add_argument("slope", type=_ratio, metavar="a/b")
    s.set_defaults(handler=cmd_kneading)

    s = sub.add_parser(
        "kneading-of-angle", parents=[common], help="kneading of a periodic angle"
    )
    s.add_argument("angle", type=_angle, metavar="ANGLE")
    s.set_defaults(handler=cmd_kneading_of_angle)

    s = sub.add_parser(
        "invert-kneading", parents=[common, convention], help="parameters from kneading"
    )
    s.add_argument("kneading", metavar="SYMBOLS")
    s.set_defaults(handler=cmd_invert_kneading)

    s = sub.add_parser(
        "enumerate", parents=[common], help="all broken-line angles of one period"
    )
    s.add_argument("--period", type=int, required=True, metavar="B")
    s.add_argument("--census", action="store_true", help="three-way census table")
    s.set_defaults(handler=cmd_enumerate)

    s = sub.add_parser("tune", parents=[common], help="tune an angle by a bulb")
    s.add_argument("angle", type=_angle, metavar="ANGLE")
    s.add_argument("bulb", type=_ratio, metavar="p/q")
    s.set_defaults(handler=cmd_tune)
    return parser


def _print_text(payload: dict) -> None:
    for key, value in payload.items():
        if key == "entries":
            for i, entry in enumerate(value, 1):
                extra = (
                    f" collisions={entry['collisions']}" if "collisions" in entry else ""
                )
                print(
                    f"theta-{i}: {entry['angle']} limb={entry['limb']} "
                    f"slope={entry['slope']} hinge={entry['hinge']} "
                    f"convention={entry['convention']}{extra}"
                )
        elif key == "census":
            for row in value:
                print(
                    f"census-{row['period']}: {row['formula']} "
                    f"{row['constructed']} {row['brute']}"
                )
        elif isinstance(value, list):
            print(f"{key}: {' '.join(str(v) for v in value)}")
        else:
            print(f"{key}: {value}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
        print(json.dumps({"status": "ok", "payload": payload}))
    else:
        _print_text(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
