#!/usr/bin/env python3
"""Record the stdout digest of every command for the default seeds.

Usage, from the root of a checkout: python3 perfbench/record_digests.py

Runs one untraced pass per workload and seed, checks it against the
reference, and writes digests.json: workload -> seed -> one 16-hex-digit
sha256 prefix per command, or null for a command that failed when recorded.
Later runs of those seeds count a command whose stdout differs from its
digest as failed.  Recording replaces the file, so run it only on a commit
whose outputs are trusted.
"""

from __future__ import annotations

import json
import sys

from inputs import WORKLOADS
from oracle import DIGESTS, OutputCheck
from run import RUN_LIMIT_S, run_pass

DEFAULT_SEEDS = range(1, 11)


def main() -> int:
    DIGESTS.write_text("{}\n")  # check against the reference alone
    table: dict[str, dict[str, list[str | None]]] = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in DEFAULT_SEEDS:
            check = OutputCheck(workload, seed)
            result = run_pass(workload, seed, "plain", RUN_LIMIT_S, check)
            if result["mismatches"]:
                print(f"{workload} seed {seed}: {result['mismatches'][0]}", file=sys.stderr)
                return 1
            table[workload][str(seed)] = [check.passed.get(i) for i in range(len(check.commands))]
            print(f"{workload} seed {seed}: {len(check.commands)} commands")
    DIGESTS.write_text(json.dumps(table, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
