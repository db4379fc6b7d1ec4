"""Run the benchmark on two checkouts in alternating pairs and summarize.

    python scripts/paired_bench.py PARENT CHANGE --workload W [--seed S] [--pairs N]

PARENT and CHANGE are two checkouts of the repository, for example two
``git archive`` copies.  Each pair runs ``python3 perfbench/run.py
--workload W --seed S`` once in each checkout, one after the other, and
the first of the two alternates from pair to pair (pair 0 starts with
PARENT), so a drift of the host's speed does not favour either side.

For every end-to-end metric of BENCHMARK.json it prints both medians
over the pairs with their quartiles, the number of pairs the change won
(by the metric's ``better`` direction), and the distance between the two
medians against the quartile spread of PARENT's runs.  Then it prints
the unscaled medians (``raw_medians`` of the run record) of both sides
and the failed operations out of those attempted.  The exit code is 0
when every run printed its result line, and 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run in ``checkout``: its metric values, unscaled
    medians and operation counts, or None if it printed no result."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)], cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    record_path = checkout / ".perfbench_work" / f"{workload}.trace0.json"
    try:
        raw = json.loads(record_path.read_text()).get("raw_medians", {})
    except (OSError, ValueError):
        raw = {}
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "raw": raw, "failed": result["failed"], "attempted": result["attempted"]}


def summarize(pairs, better: dict) -> list[str]:
    """Report lines for ``pairs``, a list of {"parent": run, "change": run}
    (runs as ``run_once`` returns them); ``better`` maps each metric name
    to "lower" or "higher"."""
    lines = [f"{len(pairs)} pairs"]
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        (p1, pm, p3), (c1, cm, c3) = (quartiles(values[side]) for side in SIDES)
        sign = -1.0 if direction == "lower" else 1.0
        wins = sum(sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) > 0
                   for p in pairs)
        lines.append(
            f"{name}: parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"change/parent {cm / pm:.3f}  change won {wins} of {len(pairs)}  "
            f"|median difference| {abs(cm - pm):.4g} vs parent quartile spread {p3 - p1:.4g}"
        )
    for side in SIDES:
        keys = sorted({k for p in pairs for k in p[side]["raw"]})
        medians = " ".join(f"{k}={statistics.median(p[side]['raw'][k] for p in pairs):.4g}"
                           for k in keys if all(k in p[side]["raw"] for p in pairs))
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        lines.append(f"{side} raw medians: {medians or '-'}  failed {failed} of {attempted} operations")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(checkouts[side], args.workload, args.seed) for side in order}
        if None in pair.values():
            print(f"pair {i}: a run printed no result line", file=sys.stderr)
            return 1
        print(f"pair {i}: " + "  ".join(
            f"{side} wall_s={pair[side]['metrics'].get('wall_s', float('nan')):.4g}"
            for side in SIDES), flush=True)
        pairs.append(pair)
    print("\n".join(summarize(pairs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
