"""One pass of a workload, in a fresh interpreter with cold module caches.

Usage: worker.py WORKLOAD SEED MODE

MODE is ``plain``, ``traced`` (the layer trace of spans.py installed) or
``setup``, which stops where the first command would start, so that set-up
time can be sampled more often than whole passes allow.

Imports brokenline from the checkout's ``src``, builds the seeded command
list, then runs each command in-process through ``brokenline.cli.main(argv +
["--json"])`` as a closed loop with one client.  Each command is timed on its
own, and the host's speed is probed right before and right after it (see
``probe``).  Its record goes to stdout after the second probe, outside the
timed span: a line "LATENCY PROBE KIND SIZE" (PROBE is the mean of the two
probes; KIND is "-" on success) followed by the SIZE characters the command
printed.  A last line holds one JSON object with the pass totals, among
them the host's speed right after set-up (the median of five probes).

Outputs are checked by the parent process, so that the check's memory never
counts toward this process's peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src"
# probe() on the 2-vCPU host the benchmark was calibrated on, when no other
# tenant slowed it: the fastest decile of 5000 probes over 30 s
PROBE_REFERENCE_S = 225e-6


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now, the fastest of three tries.

    The host's speed drifts by half in spells of a few to tens of seconds
    (other tenants, not descheduling: CPU time equals wall time), so each
    latency is scaled by PROBE_REFERENCE_S / probe time.  The loop makes
    untracked small ints only, so the package's heap and caches do not slow it.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(4000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def run_command(main, argv: list[str]) -> tuple[float, str | None, str]:
    """Latency in seconds, failure kind (None on success), and stdout."""
    out = io.StringIO()
    kind = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--json"])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
        kind = "SystemExit"
    except Exception as exc:  # anything escaping cli.main counts against the command
        code = None
        kind = type(exc).__name__
    latency = time.perf_counter() - start
    text = out.getvalue()
    if kind is None and code != 0:
        try:
            kind = json.loads(text)["error_kind"]
        except (ValueError, KeyError, TypeError):
            kind = f"exit-{code}"
    return latency, kind, text


def main() -> int:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(SOURCES))
    import brokenline
    import brokenline.cli

    if Path(brokenline.__file__).resolve().parent != (SOURCES / "brokenline").resolve():
        print(f"brokenline imported from {brokenline.__file__}, not {SOURCES}", file=sys.stderr)
        return 2
    import inputs
    from oracle import Oracle

    commands = inputs.build(workload, seed)
    oracle = Oracle()  # supplies the kneading that invert-kneading reads
    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    first = time.monotonic()
    setup_probe = statistics.median(probe() for _ in range(5))
    if mode == "setup":
        commands = []
    before = setup_probe
    for cmd in commands:
        latency, kind, text = run_command(brokenline.cli.main, oracle.argv(cmd))
        after = probe()
        sys.stdout.write(f"{latency!r} {(before + after) / 2!r} {kind or '-'} {len(text)}\n{text}")
        before = after
    totals = {
        "first_command_at": first,
        "setup_probe": setup_probe,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }
    sys.stdout.write(json.dumps(totals) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
