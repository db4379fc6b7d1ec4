"""Record the benchmark of this checkout as BENCH_<pr>.json.

    python scripts/record_bench.py PR

It runs ``perfbench/run.py --workload W --trace T`` for every workload of
BENCHMARK.json, with T 0 (end to end) and then 1 (per layer), times the
tier-1 suite once, and writes BENCH_<PR>.json at the repository root.
For each workload the file holds the scaled end-to-end ``metrics`` and
the unscaled ``raw_medians`` of the trace-0 run, the ``per_layer``
metrics of the trace-1 run and the number of commands whose output
check failed; beside them, the tier-1 wall time and the machine facts
that perfbench records (cores, BLAS, versions, commit).  A perf claim
quotes two such files, before and after.  It takes about six minutes on
a 2-core machine.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def _record(workload: str, trace: int) -> dict:
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--trace", str(trace)], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads((WORK / f"{workload}.trace{trace}.json").read_text())


def _failed(record: dict) -> int:
    return sum(1 for op in record["ops"] if op["problems"])


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: python scripts/record_bench.py PR", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        end_to_end, layers = _record(workload, 0), _record(workload, 1)
        workloads[workload] = {
            "metrics": end_to_end["metrics"],
            "raw_medians": end_to_end["raw_medians"],
            "per_layer": layers["metrics"],
            "failed_commands": _failed(end_to_end) + _failed(layers),
        }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    started = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    tier1 = {"wall_s": time.perf_counter() - started, "returncode": proc.returncode,
             "summary": proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""}
    out = ROOT / f"BENCH_{argv[0]}.json"
    out.write_text(json.dumps({"pr": int(argv[0]), "machine": end_to_end["machine"],
                               "tier1": tier1, "workloads": workloads}, indent=1) + "\n")
    print(f"wrote {out}: tier-1 {tier1['summary']!r} in {tier1['wall_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
