#!/usr/bin/env python3
"""Benchmark of the brokenline command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-query --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    verify-query      broken --all --check, conjugate --verify, kneading --check
                      on distinct specs with b log-uniform in [2^7, 2^10]
    deep-path         line --check, bulb --check, broken --all, kneading and
                      invert-kneading on deep Stern-Brocot slopes, b in [2^10, 2^14]
    enumerate-census  enumerate at seeded periods in [64, 256], enumerate --check
                      for 3..24, the census to 14, conjugate --verify at 12..14

A run repeats the workload's fixed command list in fresh worker processes
(cold module caches, one at a time: a closed loop with one client).  The
number of passes follows from ``--seconds`` alone, by the workload's nominal
seconds per pass at the seed commit (PASS_SECONDS), so a run attempts the same
commands however fast the host happens to be; at least three passes.  A run
also starts SETUP_SAMPLES workers that stop after set-up, to sample set-up
time more often than the passes do.

Times are corrected for the host's speed.  On a shared host the same
pure-Python loop takes from 220 to 380 us, in spells of a few to tens of
seconds, with CPU time equal to wall time; so the worker times a fixed probe
loop around every command, and each latency is scaled by the probe's time on
the unloaded host over its time then (worker.probe).  Setup time is scaled
likewise, by the probe right after set-up.  A command's latency is then its fastest over the
run's passes, each of which runs it on the same cold start.  The raw figures
are printed too.

With ``--trace 0`` it reports the end-to-end metrics:

    wall_s       time to run the command list: the commands' latencies summed
    cmd_p50_ms   median latency of the commands that succeeded
    cmd_p90_ms   p90 latency of the commands that succeeded
    ok_frac      succeeded / attempted commands; 1 - ok_frac is the failed share
    peak_rss_mb  maximum RSS of a worker (median over passes)
    setup_s      worker start to first command: interpreter start, import and
                 input generation (median over set-up samples and passes)

A command fails if it raises out of ``cli.main``, exits non-zero, or prints
an output that differs from the reference or the recorded digest, in any
pass.  ``attempted`` and ``failed`` count the commands of the list, each
once however many passes ran it, so they depend on the seed alone.

With ``--trace 1`` it alternates untraced and traced passes, half of each,
and reports, per listed function, self time, calls and raised calls
(spans.py), plus the tracing overhead: traced wall_s minus untraced wall_s.
Self times are the median over traced passes, as measured, without the
correction for the host's speed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS
from oracle import OutputCheck
from spans import FUNCTIONS, LAYERS
from worker import PROBE_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# nominal seconds per untraced pass, worker start included, at the seed
# commit on a 2-vCPU host
PASS_SECONDS = {"verify-query": 6.5, "deep-path": 9.5, "enumerate-census": 10.0}
MIN_PASSES = 3  # untraced passes in a --trace 0 run
MIN_TRACE_PASSES = 2  # untraced and traced passes each in a --trace 1 run
SETUP_SAMPLES = 6  # set-up-only workers in a --trace 0 run
RUN_LIMIT_S = 170  # a run must end within 180 s
# string hashing salted alike in every worker, so set and dict layouts, and
# with them memory use, repeat from pass to pass
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
# Self times that every workload makes nonzero go into the result; the rest
# (functions or layers some workload never calls) are printed in the table
# only, since they would read 0 ms on every run of that workload.
SELF_MS_LAYERS = ("angles", "farey", "mechanical", "conjugate", "kneading", "atlas", "cli")
SELF_MS_FUNCTIONS = (
    "angles.PeriodicAngle",
    "angles.multiplicative_order",
    "angles.word_to_fraction",
    "farey.validate_spec",
    "farey.farey_parents",
    "mechanical.mechanical_word",
    "mechanical.mediant_tags",
    "mechanical.broken_line_tags",
    "mechanical.broken_line_word",
    "mechanical.block_decomposition",
    "conjugate.conjugate_word",
    "kneading.kneading_of_spec",
    "atlas.locate",
    "atlas.junction_rays",
    "cli.main",
)


def run_pass(workload: str, seed: int, mode: str, budget: float, check: OutputCheck) -> dict:
    """Run one pass in a fresh worker (worker.py's MODE) and check its outputs."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode],
        cwd=ROOT,
        env=WORKER_ENV,
        capture_output=True,
        text=True,
        timeout=budget,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    stream = proc.stdout
    raw, probes, kinds, mismatches = [], [], [], []
    pos = 0
    while not stream.startswith("{", pos):
        end = stream.index("\n", pos)
        latency, speed, kind, size = stream[pos:end].split()
        pos = end + 1 + int(size)
        kind = None if kind == "-" else kind
        if kind is None:
            problem = check(len(kinds), stream[end + 1 : pos])
            if problem is not None:
                kind = "mismatch"
                mismatches.append(f"command {len(kinds)}: {problem}")
        raw.append(float(latency))
        probes.append(float(speed))
        kinds.append(kind)
    result = json.loads(stream[pos:])
    raw_setup_s = result["first_command_at"] - spawned
    result.update(
        raw=raw,
        latencies=[t * PROBE_REFERENCE_S / speed for t, speed in zip(raw, probes)],
        kinds=kinds,
        mismatches=mismatches,
        slowdown=statistics.median(probes or [result["setup_probe"]]) / PROBE_REFERENCE_S,
        raw_setup_s=raw_setup_s,
        setup_s=raw_setup_s * PROBE_REFERENCE_S / result["setup_probe"],
        seconds=time.monotonic() - spawned,
    )
    return result


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def failures(passes: list[dict]) -> dict[int, str]:
    """Each command that failed in some pass, with its first failure kind."""
    out: dict[int, str] = {}
    for r in passes:
        for index, kind in enumerate(r["kinds"]):
            if kind is not None:
                out.setdefault(index, kind)
    return out


def fastest(passes: list[dict]) -> list[float]:
    """Each command's lowest latency over the passes."""
    return [min(times) for times in zip(*(r["latencies"] for r in passes))]


def wall(passes: list[dict]) -> float:
    return sum(fastest(passes))


def end_to_end(passes: list[dict], setups: list[dict]) -> dict[str, tuple[float, str]]:
    failed = failures(passes)
    ok = [t for index, t in enumerate(fastest(passes)) if index not in failed]
    commands = len(passes[0]["kinds"])
    return {
        "wall_s": (wall(passes), "s"),
        "cmd_p50_ms": (statistics.median(ok) * 1e3, "ms"),
        "cmd_p90_ms": (percentile(ok, 90) * 1e3, "ms"),
        "ok_frac": ((commands - len(failed)) / commands, "ratio"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in passes) / 1024, "MB"),
        "setup_s": (statistics.median(r["setup_s"] for r in passes + setups), "s"),
    }


def self_times(traced: list[dict]) -> dict[str, float]:
    """Median self time in ms of each listed function and each layer."""
    out = {
        name: statistics.median(r["trace"][name]["self_ms"] for r in traced) for name in FUNCTIONS
    }
    for module, names in LAYERS.items():
        out[module] = sum(out[f"{module}.{name}"] for name in names)
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    self_ms = self_times(traced)
    metrics = {f"{name}.self_ms": (self_ms[name], "ms") for name in SELF_MS_LAYERS}
    metrics.update({f"{name}.self_ms": (self_ms[name], "ms") for name in SELF_MS_FUNCTIONS})
    counts = traced[0]["trace"]
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (counts[name]["calls"], "count")
        metrics[f"{name}.raised"] = (counts[name]["raised"], "count")
    metrics["trace.overhead_s"] = (wall(traced) - wall(plain), "s")
    return metrics


def self_time_table(traced: list[dict]) -> list[str]:
    self_ms = self_times(traced)
    total = sum(self_ms[module] for module in LAYERS) or 1.0
    lines = ["self time by layer (median of traced passes):"]
    for module in LAYERS:
        share = self_ms[module]
        lines.append(f"  {module:<11} {share:12.3f} ms  {100 * share / total:6.2f} %")
    lines.append("self time, calls and raised calls by function:")
    row = traced[0]["trace"]
    for name in FUNCTIONS:
        lines.append(
            f"  {name:<33} {self_ms[name]:12.3f} ms  {100 * self_ms[name] / total:6.2f} %"
            f"  calls {row[name]['calls']:>8}  raised {row[name]['raised']:>4}"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "brokenline" / "__init__.py").is_file():
        print(f"no brokenline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    begin = time.monotonic()
    check = OutputCheck(args.workload, args.seed)
    pass_count = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
    modes = ["plain"] * pass_count
    if args.trace:
        modes = ["plain", "traced"] * max(MIN_TRACE_PASSES, pass_count // 2)
    else:
        modes = ["setup"] * SETUP_SAMPLES + modes
    results: dict[str, list[dict]] = {"setup": [], "plain": [], "traced": []}
    for mode in modes:
        elapsed = time.monotonic() - begin
        longest = max((r["seconds"] for r in results["plain"] + results["traced"]), default=0.0)
        enough = results["plain"] and (results["traced"] or not args.trace)
        if enough and elapsed + longest > RUN_LIMIT_S:
            print("stopping early: another pass would overrun the time limit", file=sys.stderr)
            break
        try:
            result = run_pass(args.workload, args.seed, mode, RUN_LIMIT_S - elapsed, check)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"pass failed: {exc}", file=sys.stderr)
            return 1
        results[mode].append(result)
    setups, plain, traced = results["setup"], results["plain"], results["traced"]

    passes = plain + traced
    failed_commands = failures(passes)
    attempted = len(check.commands)
    if len(failed_commands) == attempted:
        print("no command succeeded, so there are no latencies to report", file=sys.stderr)
        return 1
    kinds = collections.Counter(failed_commands.values())
    failed = len(failed_commands)
    mismatches = [m for r in passes for m in r["mismatches"]]
    print(f"workload: {args.workload}  seed: {args.seed}  passes: {len(plain)} plain,"
          f" {len(traced)} traced, {len(setups)} set-up only")
    print("seconds by pass: " + " ".join(f"{r['seconds']:.2f}" for r in passes))
    e2e = end_to_end(plain, setups)
    for name, (value, unit) in e2e.items():
        print(f"{name}: {value:.6g} {unit}")
    print("host slowdown by pass (median probe / reference): "
          + " ".join(f"{r['slowdown']:.3f}" for r in plain))
    raw_plain, raw_setups = (
        [{**r, "latencies": r["raw"], "setup_s": r["raw_setup_s"]} for r in group]
        for group in (plain, setups)
    )
    print("uncorrected: " + "  ".join(
        f"{name} {value:.6g} {unit}"
        for name, (value, unit) in end_to_end(raw_plain, raw_setups).items()
        if unit in ("s", "ms")))
    print(f"failed_frac: {failed / attempted:.6g}  ({failed} of {attempted} commands)")
    for kind, count in sorted(kinds.items()):
        print(f"  failed by {kind}: {count}")
    for line in mismatches[:10]:
        print(f"  {line}")
    if args.trace:
        metrics = per_layer(plain, traced)
        for line in self_time_table(traced):
            print(line)
        untraced_wall = e2e["wall_s"][0]
        overhead = metrics["trace.overhead_s"][0]
        print(
            f"trace overhead: {overhead:.4f} s on {untraced_wall:.4f} s untraced wall"
            f" ({100 * overhead / untraced_wall:.1f} %)"
        )
    else:
        metrics = e2e
    print(
        json.dumps(
            {
                "correct": not mismatches,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
