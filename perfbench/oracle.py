"""Reference answers the benchmark holds each CLI output against.

Nothing here calls the package.  The mechanical word comes from the digit
rule, the broken-line word from rotating the slope word's trailing hinge
prefix to the front, angles from integer arithmetic over 2**b - 1, and
kneading sequences from integer doubling modulo 2**b - 1: O(b) steps each.
Fields with no reference here (conjugates, blocks, spokes, the brute census
column) are covered by the stdout digests recorded for the default seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import inputs
from inputs import Command, Spec

LAVAURS_VERIFY_LIMIT = 16  # the CLI runs the pairing oracle up to this period
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def digit_word(a: int, b: int, convention: str) -> str:
    """Mechanical word of slope a/b: digit j is 1 when j*a/b mod 1 falls in
    [1 - a/b, 1); the convention supplies the last two digits."""
    return "".join("0" if j * a % b < b - a else "1" for j in range(1, b - 1)) + convention


def broken_word(spec: Spec) -> str:
    word = digit_word(*spec.slope, spec.convention)
    cut = len(word) - spec.hinge * spec.limb[1]
    return word[cut:] + word[:cut]


@contextmanager
def _unlimited_digits():
    # the reference must print angles whatever the interpreter's int-to-str
    # limit; the limit is restored so the program under test still runs
    # with the interpreter default
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def angle(word: str) -> Fraction:
    return Fraction(int(word, 2), (1 << len(word)) - 1) % 1


def angle_text(word: str) -> str:
    with _unlimited_digits():
        return str(angle(word))


def kneading(word: str) -> str:
    """Itinerary of 0.(word) under doubling, in units of 1/(2**b - 1)."""
    b = len(word)
    m = (1 << b) - 1
    k = int(word, 2)
    symbols = []
    x = k
    for _ in range(b):
        y = x << 1
        if y == k or y == k + m:
            symbols.append("*")
            return "".join(symbols)
        symbols.append("1" if k < y < k + m else "0")
        x = y - m if y >= m else y
    raise ValueError(f"0.({word}) never hits a partition point")


def euler_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


class Oracle:
    """Reference outputs for one command list, memoized per spec and period."""

    def __init__(self) -> None:
        self._words: dict[Spec, str] = {}
        self._kneadings: dict[Spec, str] = {}
        self._enumerations: dict[int, list[tuple[Fraction, list[Spec]]]] = {}

    def word(self, spec: Spec) -> str:
        if spec not in self._words:
            self._words[spec] = broken_word(spec)
        return self._words[spec]

    def kneading(self, spec: Spec) -> str:
        if spec not in self._kneadings:
            self._kneadings[spec] = kneading(self.word(spec))
        return self._kneadings[spec]

    def enumeration(self, b: int) -> list[tuple[Fraction, list[Spec]]]:
        """Specs of period b grouped by angle, in increasing angle order."""
        if b not in self._enumerations:
            groups: dict[Fraction, list[Spec]] = {}
            for spec in inputs.period_specs(b):
                groups.setdefault(angle(self.word(spec)), []).append(spec)
            self._enumerations[b] = sorted(groups.items())
        return self._enumerations[b]

    def argv(self, cmd: Command) -> list[str]:
        spec = cmd.spec
        if cmd.name == "enumerate":
            return ["enumerate", "--period", str(cmd.period), *cmd.flags]
        slope = f"{spec.slope[0]}/{spec.slope[1]}"
        if cmd.name == "line":
            return ["line", slope, "--convention", spec.convention, *cmd.flags]
        if cmd.name == "bulb":
            return ["bulb", slope, *cmd.flags]
        if cmd.name == "invert-kneading":
            return ["invert-kneading", self.kneading(spec), "--convention", spec.convention]
        return [cmd.name, *spec.argv(), *cmd.flags]

    def check(self, cmd: Command, payload: dict) -> str | None:
        """None when the payload matches the reference, else what differs."""
        if cmd.name == "enumerate":
            return self._check_enumerate(cmd, payload)
        spec = cmd.spec
        a, b = spec.slope
        if cmd.name == "line":
            word = digit_word(a, b, spec.convention)
            expect = {
                "slope": f"{a}/{b}",
                "convention": spec.convention,
                "cutting": word.replace("1", "01"),
                "word": word,
                "angle": angle_text(word),
            }
        elif cmd.name == "bulb":
            low, high = digit_word(a, b, "01"), digit_word(a, b, "10")
            expect = {
                "slope": f"{a}/{b}",
                "word-01": low,
                "word-10": high,
                "theta-01": angle_text(low),
                "theta-10": angle_text(high),
            }
        else:
            word = self.word(spec)
            expect = spec.fields()
            expect["angle"] = angle_text(word)
            if cmd.name == "broken":
                expect["period"] = b
                expect["expansion"] = f"0.({word})"
                if "--all" in cmd.flags:
                    expect["kneading"] = self.kneading(spec)
            elif cmd.name == "conjugate":
                expect["chain"] = "ok"
                if b <= LAVAURS_VERIFY_LIMIT:
                    expect["lavaurs"] = "ok"
            elif cmd.name == "kneading":
                del expect["angle"]
                expect["kneading"] = self.kneading(spec)
            elif cmd.name == "invert-kneading":
                expect["kneading"] = self.kneading(spec)
                expect["word"] = word
                expect["expansion"] = f"0.({word})"
        if "--check" in cmd.flags:
            expect["check"] = "ok"
        wrong = sorted(key for key, value in expect.items() if payload.get(key) != value)
        return f"{cmd.name}: wrong {', '.join(wrong)}" if wrong else None

    def _check_enumerate(self, cmd: Command, payload: dict) -> str | None:
        groups = self.enumeration(cmd.period)
        wrong = []
        if payload.get("period") != cmd.period:
            wrong.append("period")
        if payload.get("count") != len(groups):
            wrong.append("count")
        entries = payload.get("entries", [])
        if len(entries) != len(groups):
            wrong.append("entries")
        for entry, (value, specs) in zip(entries, groups):
            listed = {key: entry.get(key) for key in ("limb", "slope", "hinge", "convention")}
            if (
                entry.get("angle") != str(value)
                or listed not in [spec.fields() for spec in specs]
                or entry.get("collisions", 1) != len(specs)
            ):
                wrong.append(f"entry {value}")
                break
        collisions = sum(1 for _, specs in groups if len(specs) > 1)
        if payload.get("collisions", 0) != collisions:
            wrong.append("collisions")
        if "--check" in cmd.flags and payload.get("check") != f"ok ({len(groups)} angles)":
            wrong.append("check")
        if "--census" in cmd.flags:
            rows = payload.get("census", [])
            expect = [
                (b, (b - 2) * euler_phi(b), len(self.enumeration(b)))
                for b in range(3, cmd.period + 1)
            ]
            got = [(row.get("period"), row.get("formula"), row.get("constructed")) for row in rows]
            if got != expect:
                wrong.append("census")
        return f"enumerate {cmd.period}: wrong {', '.join(wrong)}" if wrong else None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class OutputCheck:
    """Checks the outputs of one workload and seed, pass after pass.

    An output is held against the reference and, when the seed has recorded
    digests, against its digest; an output identical to one that already
    passed is not checked again.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.commands = inputs.build(workload, seed)
        self.oracle = Oracle()
        self.recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
        if self.recorded is not None and len(self.recorded) != len(self.commands):
            raise ValueError("recorded digests do not fit the command list")
        self.passed: dict[int, str] = {}

    def __call__(self, index: int, text: str) -> str | None:
        """None when command ``index`` printed a correct ``text``, else why not."""
        value = digest(text)
        if self.passed.get(index) == value:
            return None
        cmd = self.commands[index]
        try:
            payload = json.loads(text)["payload"]
        except (ValueError, KeyError, TypeError):
            return f"{cmd.name}: stdout is not a JSON payload"
        problem = self.oracle.check(cmd, payload)
        if problem is None and self.recorded and self.recorded[index] not in (None, value):
            problem = f"{cmd.name}: stdout differs from the recorded digest"
        if problem is None:
            self.passed[index] = value
        return problem
