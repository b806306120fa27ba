"""Benchmark of the hlskit CLI: three fixed workloads, checked outputs, layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload numerator --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client: a pass runs the workload's
items one at a time, in an order shuffled by ``--seed``, and passes repeat
while the next one still ends within ``--seconds``.  Every item is one CLI
command in a fresh process (``item.py``), as the CLI contract runs it, so
no cache warmed by one item serves another.  Every item passes
``--no-timing`` and is checked: exit code 0, a ``"pass": true`` verdict for
``verify``, stdout bytes whose SHA-256 matches ``golden.json``, and the
cross-route checks in ``CROSS``.

``--trace 0`` prints the end-to-end metrics:

- ``wall_s``: one pass, as the sum over items of the median time of the
  call to ``hlskit.cli.main``;
- ``peak_mb``: peak resident set size of the heaviest item's process;
- ``setup_s``: median time of an item's set-up, that is the import of
  ``hlskit.cli`` and building its arguments.

Times are at a reference speed (see ``CALIBRATION_REF_S``).  A summary
before the JSON line adds the raw times and ``fail_ratio``, failed items
over attempted ones; the JSON line carries the two counts.  ``--trace 1``
prints the per-layer metrics of ``layers.py`` instead, from traced passes
that alternate with untraced ones.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from layers import COUNTERS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Keep every run, traced or not, inside the 180 s a run may take.
HARD_LIMIT_S = 165.0

# Why each workload exists is recorded in BENCHMARK.json; baseline.json maps
# every per-layer metric to the workload whose wall_s it should move.
WORKLOADS = {
    "numerator": [
        "compute --n 2 --r 2",
        "compute --n 2 --r 2 --modified",
        "compute --n 1,1 --r 0,2",
        "compute --n 1,1 --r 0,2 --modified",
        "specialize --kind classical-igusa --r 6",
        "specialize --kind generalized-igusa --r 2,2",
        "specialize --kind mv-hls --n 3",
        "specialize --kind weak-order-igusa --g 3",
    ],
    "identities": [
        "verify order-complex --n 2 --r 2",
        "verify order-complex --n 1,1 --r 1,1 --max-subsets 16384",
        "verify reciprocity --n 1 --r 2",
        "verify reciprocity --n 1,0 --r 0,2",
        "verify reciprocity --n 2 --r 1 --modified",
        "verify relation --n 1,1 --r 1,0",
    ],
    "weights": [
        "expand --n 2 --r 2 --max-degree 5",
        "expand --n 3 --r 1 --max-degree 4",
        "expand --n 2 --r 1 --max-degree 4 --method multichain",
        "expand --n 2 --r 1 --max-degree 4 --method rational",
        "verify zeta-mobius --n 4 --r 3",
        "verify zeta-mobius --n 1,1 --r 1,2",
        "hasse --n 6 --r 3",
        "hasse --n 4 --r 3 --format json",
    ],
    # Not in BENCHMARK.json: a few-second workload that selftest.py runs.
    "tiny": [
        "compute --n 1 --r 1",
        "compute --n 1 --r 1 --modified",
        "verify order-complex --n 1 --r 1",
        "verify zeta-mobius --n 1 --r 1",
        "expand --n 1 --r 1 --max-degree 2 --method multichain",
        "expand --n 1 --r 1 --max-degree 2 --method rational",
        "hasse --n 1 --r 1 --format json",
    ],
}

# Checks that hold whatever the golden bytes say: (item, its reference, rule).
# "numerator": the numerator lines are equal (the relation identity).
# "bytes": the whole stdout is equal (multichain and rational expansion).
CROSS = [
    ("compute --n 2 --r 2 --modified", "compute --n 2 --r 2", "numerator"),
    ("compute --n 1,1 --r 0,2 --modified", "compute --n 1,1 --r 0,2", "numerator"),
    ("compute --n 1 --r 1 --modified", "compute --n 1 --r 1", "numerator"),
    (
        "expand --n 2 --r 1 --max-degree 4 --method rational",
        "expand --n 2 --r 1 --max-degree 4 --method multichain",
        "bytes",
    ),
    (
        "expand --n 1 --r 1 --max-degree 2 --method rational",
        "expand --n 1 --r 1 --max-degree 2 --method multichain",
        "bytes",
    ),
]

# Reported times are at a reference speed: each item's times are multiplied
# by this over the mean of the two calibration times measured in the item's
# own process (item.py).  The CPU of a shared machine drifts in speed by a
# fifth or more from minute to minute, and the calibration job drifts with
# it.  0.17 s is the median calibration time on the 2-vCPU Xeon VM where
# the baseline was measured, so these times match its raw seconds.
CALIBRATION_REF_S = 0.17


class ItemFailed(Exception):
    pass


def run_item(item: str, trace: bool, timeout: float) -> dict:
    """One CLI command in a fresh interpreter; returns item.py's report."""
    cmd = [sys.executable, str(HERE / "item.py"), "1" if trace else "0", str(SRC), "--"]
    try:
        proc = subprocess.run(
            cmd + item.split(), capture_output=True, text=True, timeout=timeout, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        raise ItemFailed(f"{item}: no result within {timeout:.0f} s")
    if proc.returncode != 0:
        raise ItemFailed(f"{item}: item runner exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["stderr"] = proc.stderr
    return report


def _numerator_line(text: str) -> str | None:
    return next((line for line in text.splitlines() if line.startswith("numerator = ")), None)


def check_item(item: str, report: dict, golden: dict, outputs: dict) -> list[str]:
    """Problems with one item's output; ``outputs`` holds this pass's stdout texts."""
    problems = []
    if report["rc"] != 0:
        problems.append(f"exit code {report['rc']}: {report['stderr'].strip()[-300:]}")
    text = report["stdout"]
    if item.startswith("verify "):
        try:
            verdict = json.loads(text)
        except ValueError:
            verdict = {}
        if verdict.get("pass") is not True:
            problems.append("verdict is not pass: true")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if golden.get(item) != digest:
        problems.append(f"stdout sha256 {digest[:12]} differs from golden.json")
    for checked, reference, rule in CROSS:
        if checked != item or reference not in outputs:
            continue
        if rule == "numerator":
            mine, theirs = _numerator_line(text), _numerator_line(outputs[reference])
            if mine is None or mine != theirs:
                problems.append(f"numerator line differs from {reference!r}")
        elif text != outputs[reference]:
            problems.append(f"stdout differs from {reference!r}")
    return problems


def run_pass(items, rng, trace, deadline, golden, mutate=None):
    """Run each item once, references of cross checks first; returns (reports, failed items)."""
    order = list(items)
    rng.shuffle(order)
    refs = {ref for checked, ref, _ in CROSS if checked in items}
    order.sort(key=lambda item: item not in refs)  # stable: shuffled within each group
    reports, outputs, failed = {}, {}, []
    for item in order:
        remaining = deadline - perf_counter()
        try:
            if remaining <= 1.0:
                raise ItemFailed(f"{item}: not started, run time limit reached")
            report = run_item(item, trace, remaining)
        except ItemFailed as exc:
            print(f"FAIL {exc}", file=sys.stderr)
            failed.append(item)
            continue
        if mutate is not None:
            report["stdout"] = mutate(item, report["stdout"])
        problems = check_item(item, report, golden, outputs)
        outputs[item] = report["stdout"]
        reports[item] = report
        if problems:
            print(f"FAIL {item}: {'; '.join(problems)}", file=sys.stderr)
            failed.append(item)
    return reports, failed


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool, mutate=None) -> dict:
    """Closed loop over one workload; returns the result object and a summary."""
    items = WORKLOADS[name]
    golden = json.loads((HERE / "golden.json").read_text())
    rng = random.Random(seed)
    started = perf_counter()
    deadline = started + HARD_LIMIT_S
    attempted = failed = cycles = 0
    passes: dict[bool, list[dict]] = {False: [], True: []}
    while True:
        # With tracing, each cycle is an untraced pass and then a traced one,
        # so trace.overhead_s compares passes run under the same conditions.
        for traced in (False, True) if trace else (False,):
            reports, bad = run_pass(items, rng, traced, deadline, golden, mutate)
            attempted += len(items)
            failed += len(bad)
            for report in reports.values():
                # Times at the reference speed: see CALIBRATION_REF_S.
                report["scale"] = CALIBRATION_REF_S / statistics.mean(report["calibration_s"])
            passes[traced].append(reports)
        cycles += 1
        elapsed = perf_counter() - started
        if failed or elapsed + elapsed / cycles > min(seconds, HARD_LIMIT_S):
            break
    untraced = passes[False]
    per_item = {item: [p[item]["wall_s"] * p[item]["scale"] for p in untraced if item in p] for item in items}
    per_item = {item: values for item, values in per_item.items() if values}
    if not per_item:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}, "summary": []}
    wall_s = sum(statistics.median(values) for values in per_item.values())
    all_reports = [r for p in untraced for r in p.values()]
    q1, q2, q3 = _quartiles([sum(r["wall_s"] for r in p.values()) for p in untraced])
    summary = [
        f"workload {name}, seed {seed}: {len(untraced)} passes of {len(items)} items"
        + (f" and {len(passes[True])} traced passes" if trace else ""),
        f"wall_s     {wall_s:.4f} s   sum over items of the median over passes, at reference speed",
        f"  raw      pass sums q1 {q1:.4f} s, median {q2:.4f} s, q3 {q3:.4f} s;"
        f" speed {statistics.median(r['scale'] for r in all_reports):.4f} of reference",
    ]
    if trace:
        metrics = layer_metrics(passes[True], statistics.median(_pass_s(p) for p in untraced))
    else:
        peak_mb = max(statistics.median(p[item]["peak_rss_kb"] for p in untraced if item in p) for item in per_item)
        peak_mb *= 1024 / 1e6
        setups = [r["setup_s"] for r in all_reports]
        setup_s = statistics.median(r["setup_s"] * r["scale"] for r in all_reports)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_mb": {"value": peak_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        summary += [
            f"peak_mb    {peak_mb:.4f} MB  peak RSS of the heaviest item, median over passes",
            f"setup_s    {setup_s:.4f} s   median of {len(setups)} item set-ups, at reference speed"
            f" (raw median {statistics.median(setups):.4f} s)",
        ]
    summary.append(f"fail_ratio {failed / attempted:.4f} ratio  {failed} of {attempted} items failed")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "summary": summary,
    }


def _pass_s(reports: dict, read=lambda r: r["wall_s"]) -> float:
    """Sum over one pass's items of a time, at reference speed."""
    return sum(read(r) * r["scale"] for r in reports.values())


def layer_metrics(traced: list[dict], untraced_pass_s: float) -> dict:
    """Per-layer metrics: times are medians over traced passes, counts from the first."""
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        own = [_pass_s(p, lambda r, layer=layer: r["trace"]["self_s"][layer]) for p in traced]
        metrics[f"{layer}.self_s"] = (statistics.median(own), "s")
    render = [_pass_s(p, lambda r: r["trace"]["render_s"]) for p in traced]
    metrics["exactalg.render_s"] = (statistics.median(render), "s")
    first = [r["trace"]["counts"] for r in traced[0].values()]
    counts = {name: sum(c[name] for c in first) for name in COUNTERS}
    for name, value in counts.items():
        if not name.endswith("_distinct"):
            metrics[name] = (value, "count")
    for base in ("exactalg.y_binomial", "weight.pair_weight"):
        calls = counts[f"{base}_calls"]
        metrics[f"{base}_distinct_ratio"] = (counts[f"{base}_distinct"] / calls if calls else 0.0, "ratio")
    traced_pass_s = statistics.median(_pass_s(p) for p in traced)
    metrics["trace.wall_s"] = (traced_pass_s, "s")
    metrics["trace.overhead_s"] = (traced_pass_s - untraced_pass_s, "s")
    return {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hlskit" / "cli.py").is_file():
        print(f"error: no hlskit sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("summary"):
        print(line)
    if not result["metrics"]:
        print("error: no item completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
