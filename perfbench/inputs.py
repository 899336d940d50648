"""Seeded command lists for the benchmark workloads.

Specs come from the benchmark's own generator: a continued-fraction walk down
the Stern-Brocot tree plus the turn/hinge rule.  It shares no code with
``brokenline.atlas.enumerate_specs``; ``selftest.py`` holds the two equal for
every period up to 30.

Periods are drawn by stratified sampling: the range is cut into as many
strata of equal probability as there are draws, and each draw lands in the
middle JITTER share of its own stratum.  Every seed then covers the whole
range, and the command at each rank of cost costs about the same for every
seed, so a run's total and its percentiles depend little on the seed while
every input still comes from it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Stern-Brocot direction at a node -> convention of the broken lines hinged
# there: a right turn opens 01-choices, a left turn 10-choices
CONVENTION = {"R": "01", "L": "10"}

VERIFY_SPECS = 36  # three commands each
# deep-path draws per family, five commands each, by segment [lo, hi) of b.
# The edges sit at the seed commit's two failure thresholds, so every seed
# meets each failure as often: from b = 1985 (half-limb family; 1979 under
# the trace's wrappers) `broken` raises RecursionError in block parsing, kept
# clear of both edges by the gap [1920, 2048); from b = 14285 the angle
# 1/(2**b - 1) has more decimal digits than str(int) allows, so four of the
# five commands raise ValueError in either family.
DEEP_SEGMENTS = ((2**10, 1920, 3), (2048, 14285, 10), (14285, 2**14, 1))
CENSUS_PERIODS = 3  # seeded `enumerate --period B` commands
# share of its stratum, around the middle, that a draw may land in
JITTER = 0.2

# (F(n-2), F(n-1), F(n)) with F(n) in [2**7, 2**10]
FIBONACCI = ((55, 89, 144), (89, 144, 233), (144, 233, 377), (233, 377, 610), (377, 610, 987))


@dataclass(frozen=True)
class Spec:
    """A broken-line parameter choice, as plain integers."""

    limb: tuple[int, int]
    slope: tuple[int, int]
    hinge: int
    convention: str

    def argv(self) -> list[str]:
        return [
            f"{self.limb[0]}/{self.limb[1]}",
            f"{self.slope[0]}/{self.slope[1]}",
            "--hinge",
            str(self.hinge),
            "--convention",
            self.convention,
        ]

    def fields(self) -> dict:
        """The spec as the CLI prints it."""
        return {
            "limb": f"{self.limb[0]}/{self.limb[1]}",
            "slope": f"{self.slope[0]}/{self.slope[1]}",
            "hinge": self.hinge,
            "convention": self.convention,
        }


@dataclass(frozen=True)
class Command:
    """One CLI call: the subcommand, what it is about, and its flags.

    ``line`` and ``bulb`` use only the slope and convention of ``spec``;
    ``period`` is set for ``enumerate`` only.
    """

    name: str
    spec: Spec | None = None
    flags: tuple[str, ...] = ()
    period: int = 0


def stern_brocot_runs(a: int, b: int) -> list[tuple[str, int]]:
    """Run-length form of the strict ancestors of a/b below the root 1/2.

    With a/b = [0; a1, ..., an] the path from 1/1 reads L^a1 R^a2 L^a3 ...
    with the last run one step short; the root 1/2 already takes the first L.
    """
    quotients = []
    x, y = a, b
    while y:
        q, r = divmod(x, y)
        quotients.append(q)
        x, y = y, r
    lengths = quotients[1:]
    lengths[0] -= 1
    lengths[-1] -= 1
    return [("L" if i % 2 == 0 else "R", n) for i, n in enumerate(lengths) if n > 0]


def candidates(a: int, b: int) -> list[Spec]:
    """Every spec of slope a/b: each ancestor hinges the slope's convention
    by its turn, and the last node of a run caps the hinge at one more than
    the length of the run that follows."""
    runs = stern_brocot_runs(a, b)
    lo, hi = (0, 1), (1, 1)
    out = []
    for r, (side, length) in enumerate(runs):
        following = runs[r + 1][1] if r + 1 < len(runs) else 0
        for j in range(1, length + 1):
            node = (lo[0] + hi[0], lo[1] + hi[1])
            top = following + 1 if j == length else 1
            out.extend(
                Spec(node, (a, b), hinge, CONVENTION[side]) for hinge in range(1, top + 1)
            )
            if side == "L":
                hi = node
            else:
                lo = node
    return out


def period_specs(b: int) -> list[Spec]:
    """All specs of period b, slope by slope."""
    return [spec for a in range(1, b) if math.gcd(a, b) == 1 for spec in candidates(a, b)]


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _place(rng: random.Random, i: int, n: int) -> float:
    """A uniform draw from the middle JITTER share of the i-th of n equal strata of [0, 1)."""
    return (i + 0.5 + JITTER * (rng.random() - 0.5)) / n


def _stratum(rng: random.Random, i: int, n: int, lo_bits: float, hi_bits: float) -> float:
    """A log-uniform draw from the i-th of n equal strata of [2**lo_bits, 2**hi_bits)."""
    return 2 ** (lo_bits + (hi_bits - lo_bits) * _place(rng, i, n))


def verify_query(rng: random.Random) -> list[Command]:
    """Distinct random specs with b log-uniform in [2**7, 2**10]; every
    fourth slope is a Fibonacci ratio, whose Stern-Brocot path zigzags."""
    seen: set[Spec] = set()
    commands = []
    for i in range(VERIFY_SPECS):
        while True:
            x = _stratum(rng, i, VERIFY_SPECS, 7, 10)
            if i % 4 == 3:
                low, mid, b = min(FIBONACCI, key=lambda f: abs(math.log(f[2] / x)))
                a = rng.choice((low, mid))
            else:
                b = round(x)
                a = rng.randrange(1, b)
                if math.gcd(a, b) != 1:
                    continue
            spec = rng.choice(candidates(a, b))
            if spec not in seen:
                break
        seen.add(spec)
        commands += [
            Command("broken", spec, ("--all", "--check")),
            Command("conjugate", spec, ("--verify",)),
            Command("kneading", spec, ("--check",)),
        ]
    return commands


def deep_path(rng: random.Random) -> list[Command]:
    """Distinct odd b, log-uniform in [2**10, 2**14], from two families: the
    half-limb family ((b//2+1)/b, limb 1/2, 01) and the 1/b family (limb 1/k,
    10), both with hinge 1.  None of the commands runs the chain oracle."""
    used: set[int] = set()
    draws: list[int] = []  # b in increasing order, the families alternating
    for lo, hi, count in DEEP_SEGMENTS:
        for i in range(2 * count):
            while True:
                b = int(_stratum(rng, i, 2 * count, math.log2(lo), math.log2(hi))) | 1
                if lo <= b < hi and b not in used:
                    break
            used.add(b)
            draws.append(b)
    commands = []
    for i, b in enumerate(draws):
        if i % 2 == 0:
            spec = Spec((1, 2), (b // 2 + 1, b), 1, "01")
        else:
            spec = Spec((1, rng.randint(2, 9)), (1, b), 1, "10")
        commands += [
            Command("line", spec, ("--check",)),
            Command("bulb", spec, ("--check",)),
            Command("broken", spec, ("--all",)),
            Command("kneading", spec),
            Command("invert-kneading", spec),
        ]
    return commands


def enumerate_census(rng: random.Random) -> list[Command]:
    """Batch enumeration: seeded prime periods B in [64, 256], every small
    period checked, the census, and the chain plus pairing oracles on every
    spec of periods 12 to 14."""
    # an enumeration's time and memory follow its spec count, about
    # (B-2)*phi(B): prime B keeps that a smooth B**2, and B**2 is what the
    # strata divide evenly
    low, high = 64**2, 251**2
    periods: list[int] = []
    for i in range(CENSUS_PERIODS):
        b = math.isqrt(int(low + (high - low) * _place(rng, i, CENSUS_PERIODS)))
        while b in periods or not _is_prime(b):
            b += 1
        periods.append(b)
    commands = [Command("enumerate", period=b) for b in periods]
    commands += [Command("enumerate", flags=("--check",), period=b) for b in range(3, 25)]
    commands.append(Command("enumerate", flags=("--census",), period=14))
    commands += [
        Command("conjugate", spec, ("--verify",))
        for b in range(12, 15)
        for spec in period_specs(b)
    ]
    return commands


BUILDERS = {
    "verify-query": verify_query,
    "deep-path": deep_path,
    "enumerate-census": enumerate_census,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int) -> list[Command]:
    """The fixed command list of one workload for one seed."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
