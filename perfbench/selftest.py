#!/usr/bin/env python3
"""Self-test of the benchmark's own generator and references.

Usage, from the root of a checkout: python3 perfbench/selftest.py

For every period b <= 30 the continued-fraction generator must yield exactly
the specs of ``enumerate_specs(b)``, and the references must agree with the
package on each of them: broken-line word, angle and kneading sequence.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
from brokenline import (  # noqa: E402
    Convention,
    broken_line_word,
    enumerate_specs,
    kneading_of_spec,
    validate_spec,
    word_to_fraction,
)


def main() -> int:
    failures = 0
    for b in range(3, 31):
        ours = sorted(
            (s.limb, s.slope, s.hinge, s.convention) for s in inputs.period_specs(b)
        )
        theirs = sorted(
            (
                (s.p_over_q.numerator, s.p_over_q.denominator),
                (s.slope.numerator, s.slope.denominator),
                s.hinge,
                s.convention.value,
            )
            for s in enumerate_specs(b).specs()
        )
        if ours != theirs:
            print(f"period {b}: generator yields {len(ours)} specs, enumerate_specs {len(theirs)}")
            failures += 1
            continue
        for spec in inputs.period_specs(b):
            real = validate_spec(
                Fraction(*spec.limb), Fraction(*spec.slope), spec.hinge, Convention(spec.convention)
            )
            word = broken_line_word(real)
            if (
                oracle.broken_word(spec) != word
                or oracle.angle(word) != word_to_fraction(word)
                or oracle.kneading(word) != str(kneading_of_spec(real))
            ):
                print(f"period {b}: references disagree on {spec}")
                failures += 1
    print("selftest:", "ok" if not failures else f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
