"""Self-test of the benchmark on the few-second ``tiny`` workload.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed, with its unit,
by the untraced (end-to-end) and the traced (per-layer) run; that counts
repeat exactly across two traced runs; and that one corrupted output byte
is caught as a failed item.  Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

from run import HERE, ROOT, run_workload


def bench(trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "tiny", "--seed", "7"]
    proc = subprocess.run(
        cmd + ["--seconds", "1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    runs = {"end_to_end": bench(0), "per_layer": bench(1)}
    for group, result in runs.items():
        expect(result["correct"] and result["failed"] == 0, f"{group}: tiny workload failed")
        named = {m["name"]: m["unit"] for m in spec[group]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(printed == named, f"{group}: printed {printed}, BENCHMARK.json names {named}")

    again = bench(1)
    for name, m in runs["per_layer"]["metrics"].items():
        if m["unit"] in ("count", "ratio"):
            other = again["metrics"][name]["value"]
            expect(other == m["value"], f"{name}: {m['value']} then {other} across traced runs")

    def corrupt(item: str, text: str) -> str:
        if item != "verify zeta-mobius --n 1 --r 1":
            return text
        return text.replace("true", "True", 1)

    log = io.StringIO()
    with contextlib.redirect_stderr(log):
        result = run_workload("tiny", seed=7, seconds=0, trace=False, mutate=corrupt)
    expect(result["failed"] == 1 and not result["correct"], "a corrupted output was not caught")
    expect("FAIL verify zeta-mobius --n 1 --r 1" in log.getvalue(), "the failed item was not named")

    for message in problems:
        print(f"selftest: {message}", file=sys.stderr)
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
