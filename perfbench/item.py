"""Run one hlskit CLI command in this process and report on it as JSON.

Usage: python3 perfbench/item.py TRACE SRC_DIR -- CLI_ARG...

TRACE is 0 or 1.  SRC_DIR is the checkout's ``src`` directory; hlskit must
be imported from there and nowhere else.  The command's stdout is captured
and returned, so the parent process checks the exact bytes.  The one JSON
line this prints holds the exit code, the stdout text, ``setup_s`` (import
of ``hlskit.cli`` and building the argument list), ``wall_s`` (the call to
``hlskit.cli.main``), the peak resident set size, the times of a fixed
calibration job run just before and just after the command, and with
TRACE 1 the layer report of ``layers.Tracer``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from time import perf_counter

CALIBRATION_ROUNDS = 100_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python job shaped like hlskit's inner loops.

    Small dicts keyed by sorted tuples, as in hlskit's monomial arithmetic.
    ``run.py`` divides item times by it: on a shared machine the speed of
    the CPU drifts by a fifth or more over minutes, and the drift slows
    this job and the item alike.
    """
    t0 = perf_counter()
    acc: dict = {}
    for i in range(CALIBRATION_ROUNDS):
        d = {i % 7: 1, 9: 1}
        k = i % 5 + 3
        d[k] = d.get(k, 0) + 1
        m = tuple(sorted(d.items()))
        acc[m] = acc.get(m, 0) + i
    return perf_counter() - t0


def peak_rss_kb() -> int:
    """Peak resident set size of this process image, in KiB.

    ``ru_maxrss`` would not do: Linux carries the parent's peak across fork
    and exec, so for small items it reports the size of run.py's process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    started = perf_counter()
    trace = sys.argv[1] == "1"
    src = os.path.realpath(sys.argv[2])
    sys.path.insert(0, src)
    import hlskit.cli

    if not os.path.realpath(hlskit.cli.__file__).startswith(src + os.sep):
        print(f"hlskit was imported from {hlskit.cli.__file__}, not {src}", file=sys.stderr)
        return 1
    argv = sys.argv[sys.argv.index("--") + 1 :] + ["--no-timing"]
    setup_s = perf_counter() - started

    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    main_fn = hlskit.cli.main  # read after install(), which may have wrapped it
    calibration_s = [calibrate()]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        t0 = perf_counter()
        rc = main_fn(argv)
        wall_s = perf_counter() - t0
    report = {
        "rc": rc,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_kb": peak_rss_kb(),
        "calibration_s": calibration_s + [calibrate()],
        "stdout": captured.getvalue(),
        "trace": tracer.report() if tracer else None,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
