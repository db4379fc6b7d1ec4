"""Print two benchmark records side by side.

    python scripts/compare_bench.py OLD NEW

OLD and NEW are files written by scripts/record_bench.py, for example
BENCH_11.json and BENCH_12.json.  For each workload of either file, it
prints one row per end-to-end metric (the scaled median of OLD, that of
NEW and NEW/OLD), then the unscaled ``raw_medians`` of both files, since
probe scaling can move a scaled figure the raw run does not confirm.
"""

import json
import sys
from pathlib import Path


def _raw(entry: dict) -> str:
    medians = entry.get("raw_medians", {})
    return " ".join(f"{name}={value:.4g}" for name, value in sorted(medians.items())) or "-"


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python scripts/compare_bench.py OLD NEW", file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text())["workloads"] for path in argv)
    print(f"{'workload':<12} {'metric':<12} {'old':>10} {'new':>10} {'new/old':>8}")
    for workload in dict.fromkeys([*old, *new]):
        before, after = old.get(workload, {}), new.get(workload, {})
        metrics = {**before.get("metrics", {}), **after.get("metrics", {})}
        for metric, spec in metrics.items():
            a = before.get("metrics", {}).get(metric, {}).get("value")
            b = after.get("metrics", {}).get(metric, {}).get("value")
            ratio = f"{b / a:8.3f}" if a and b is not None else f"{'-':>8}"
            cells = [f"{v:10.4g}" if v is not None else f"{'-':>10}" for v in (a, b)]
            print(f"{workload:<12} {metric:<12} {cells[0]} {cells[1]} {ratio} {spec['unit']}")
        print(f"{'':<12} raw old: {_raw(before)}")
        print(f"{'':<12} raw new: {_raw(after)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
