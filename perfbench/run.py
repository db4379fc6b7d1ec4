"""lorentzseg benchmark: five CLI workloads, timed end to end, traced per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  Every measured command is a fresh
``python -m lorentzseg.cli`` child with ``src`` on PYTHONPATH and a pinned
thread budget (OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1, LSK_THREADS =
usable cores).  The loop is closed: one command at a time, the next
starting when the last has exited.

--trace 0 alternates the workload's setup command (the same command doing
minimal work) with its full command for about --seconds seconds and
reports the end-to-end metrics of BENCHMARK.json: wall_s, setup_s and
peak_rss_mb are medians over the repeats, and work_per_s is the full
command's work units over (wall_s - setup_s).

A shared host can run a core 1.5-3x slower for seconds to minutes at a
time, which no statistic over one run can remove.  So on the workloads
whose time was measured to follow it (``scaled`` in workloads.py), this
process times a short fixed pure-Python loop (speed_probe) every
PROBE_PERIOD_S while a command runs, on the core the child leaves free,
and scales the command's wall time by PROBE_REFERENCE_S over the median
of those loop times: the times are in reference seconds.  A change to the
program moves the commands but not the probe; a change in the host's speed
moves both.  The other workloads' times are left as measured.  The
unscaled medians are printed and kept in the run record.

--trace 1 alternates the untraced full command with the same command run
in-process under perfbench/tracing.py, and reports the per-layer metrics
of BENCHMARK.json.

Every command's output is checked, and each repeat of one command must
reproduce the first one's output digest.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Samples, the
machine facts and the spans land in .perfbench_work/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_REPEATS = 2
CHILD_TIMEOUT_S = 150.0
IMPORT_PROBES = 3
# the speed probe: a loop of about 1.5 ms every 50 ms, so it takes 3% of
# the core the child leaves free; and the loop's time on the 2-vCPU host
# the bounds of BENCHMARK.json were fixed on
PROBE_ITERATIONS = 20_000
PROBE_PERIOD_S = 0.05
PROBE_REFERENCE_S = 0.0015
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import lorentzseg.cli; "
    "print(repr(time.perf_counter() - t))"
)


def thread_env() -> dict:
    return {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "LSK_THREADS": str(len(os.sched_getaffinity(0))),
    }


@dataclass
class Op:
    """One child command and what its checks found."""

    kind: str
    wall_s: float
    rss_mb: float
    problems: list = field(default_factory=list)
    stdout: str = ""
    probe_s: float | None = None


class Runner:
    """Spawns children one at a time and keeps the record of every one."""

    def __init__(self, work_dir: Path):
        self.dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **thread_env())
        self.ops: list[Op] = []
        self.digests: dict[tuple, str] = {}

    def spawn(self, argv: list[str], kind: str, probe: bool = False) -> Op:
        """Run ``argv`` to completion; wall time is spawn to exit, memory
        the child's peak RSS from wait4.  With ``probe``, ``probe_s`` is
        the median speed_probe time while it ran.

        That peak starts from this process's own peak, so a reading that
        does not exceed it is not the child's and counts as a failure.
        """
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        log = self.dir / "child.stdout"
        with open(log, "wb") as out, open(self.dir / "child.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            done, probes = threading.Event(), []
            prober = threading.Thread(target=sample_speed, args=(done, probes))
            if probe:
                prober.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                wall = time.perf_counter() - start
                timer.cancel()
                done.set()
                if probe:
                    prober.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        op = Op(kind, wall, usage.ru_maxrss / 1024.0, stdout=log.read_text(),
                probe_s=statistics.median(probes) if probes else None)
        if proc.returncode != 0:
            stderr = (self.dir / "child.stderr").read_text().strip().splitlines()
            op.problems.append(f"exit code {proc.returncode}: {stderr[-1:] or ''}")
        if usage.ru_maxrss <= own_rss:
            op.problems.append(f"child peak RSS {usage.ru_maxrss} KiB is not above the benchmark's own")
        self.ops.append(op)
        return op

    def cli(self, args: list[str], kind: str, out: Path | None, check, traced: list[str] = (),
            probe: bool = False) -> Op:
        """Run one CLI command into a fresh ``out`` and check its output.

        With ``traced`` (the output paths of traced_cli.py) the command
        runs under the tracer.  Repeats of one command, traced or not,
        must reproduce the first one's digest.
        """
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), *traced, *args]
        else:
            argv = [sys.executable, "-m", "lorentzseg.cli", *args]
        op = self.spawn(argv, kind, probe)
        if not op.problems:
            op.problems += check()
        if not op.problems and out is not None:
            key = tuple(args)
            got = workloads.digest(out)
            first = self.digests.setdefault(key, got)
            if got != first:
                op.problems.append(f"output digest {got[:12]} differs from the first run's {first[:12]}")
        return op

    def script(self, name: str, args: list[str]) -> Op:
        """Run one of the benchmark's own scripts as a set-up step."""
        return self.spawn([sys.executable, str(HERE / name), *args], "prepare")

    def probe_import(self) -> float | None:
        op = self.spawn([sys.executable, "-c", IMPORT_PROBE], "import")
        try:
            return float(op.stdout.strip())
        except ValueError:
            op.problems.append(f"import probe printed {op.stdout!r}")
            return None


def repeat(seconds: float, body):
    """Call ``body()`` at least MIN_REPEATS times, and again while half of
    one more call (as long as the longest so far) still fits in ``seconds``,
    so that a run ends, on average, when ``seconds`` are up."""
    start = time.perf_counter()
    longest = 0.0
    count = 0
    while True:
        t = time.perf_counter()
        body()
        count += 1
        longest = max(longest, time.perf_counter() - t)
        if count >= MIN_REPEATS and time.perf_counter() + longest / 2 > start + seconds:
            return count


def speed_probe() -> float:
    """Seconds this process takes for a fixed pure-Python loop: the host's
    speed at this moment, independent of the program measured."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def sample_speed(done: threading.Event, into: list):
    """Append a speed_probe time to ``into`` now and every PROBE_PERIOD_S
    until ``done`` is set."""
    while True:
        into.append(speed_probe())
        if done.wait(PROBE_PERIOD_S):
            return


def load_frozen() -> dict:
    """The frozen reference statistics the acceptance suite checks."""
    spec = importlib.util.spec_from_file_location("reference_values", ROOT / "tests" / "reference_values.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {k: v for k, v in vars(module).items() if k.isupper()}


def git_commit() -> str:
    """HEAD of the checkout, if it is a git repository of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


BLAS_PROBE = (
    "import json, numpy; "
    "print(json.dumps(numpy.show_config(mode='dicts')['Build Dependencies']['blas']))"
)


def machine_facts() -> dict:
    probe = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True,
                           text=True, timeout=60, env=dict(os.environ, **thread_env()))
    try:
        blas = json.loads(probe.stdout)
    except ValueError:
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '').strip()})",
        "threads": thread_env(),
        "commit": git_commit(),
    }


def end_to_end(runner: Runner, wl, seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the unscaled medians behind them."""
    ops = {"setup": [], "full": []}

    def once():
        for full, kind in ((False, "setup"), (True, "full")):
            ops[kind].append(runner.cli(wl.argv(full), kind, wl.out(full),
                                        lambda: wl.check(full), probe=wl.scaled))

    def seconds_of(op):
        return op.wall_s * PROBE_REFERENCE_S / op.probe_s if wl.scaled else op.wall_s

    runner.cli(wl.argv(False), "warmup", wl.out(False), lambda: wl.check(False))
    repeat(seconds, once)
    wall = statistics.median(map(seconds_of, ops["full"]))
    setup = statistics.median(map(seconds_of, ops["setup"]))
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "peak_rss_mb": statistics.median(f.rss_mb for f in ops["full"]),
        "work_per_s": wl.work / max(wall - setup, 1e-9),
    }
    raw = {f"raw_{kind}_s": statistics.median(op.wall_s for op in kind_ops)
           for kind, kind_ops in ops.items()}
    if wl.scaled:
        raw["raw_probe_s"] = statistics.median(op.probe_s for op in ops["full"] + ops["setup"])
    return metrics, raw


def per_layer(runner: Runner, wl, seconds: float, names: list[str]) -> dict:
    imports = [runner.probe_import() for _ in range(IMPORT_PROBES)]
    untraced, traced, traced_walls = [], [], []
    outputs = [str(runner.dir / f"{wl.name}.{kind}.json") for kind in ("layers", "spans")]

    def once():
        untraced.append(runner.cli(wl.argv(True), "full", wl.out(True), lambda: wl.check(True)))
        op = runner.cli(wl.argv(True), "traced", wl.out(True), lambda: wl.check(True), outputs)
        if op.problems:
            return
        sample = json.loads(Path(outputs[0]).read_text())
        manifest = json.loads(next(wl.out(True).rglob("*manifest.json")).read_text())
        sample["lorentz.clamp_events"] = manifest["clamp_events"]
        traced.append(sample)
        traced_walls.append(op.wall_s)

    repeat(seconds, once)
    if not traced or None in imports:
        return {}
    wall = statistics.median(op.wall_s for op in untraced)
    metrics = {}
    for name in names:
        if name == "cli.import_s":
            metrics[name] = statistics.median(imports)
        elif name == "trace.overhead_share":
            # traced over untraced child wall time, both spawn to exit:
            # 1.0 means the tracer costs nothing
            metrics[name] = statistics.median(traced_walls) / wall
        else:
            metrics[name] = statistics.median(s[name] for s in traced)
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=None, help="default: the reference seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lorentzseg" / "cli.py").is_file():
        print(f"no lorentzseg sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    seed = workloads.REFERENCE_SEED if args.seed is None else args.seed
    work_dir = WORK / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    runner = Runner(work_dir)
    wl = workloads.WORKLOADS[args.workload](seed, work_dir, load_frozen())
    wl.prepare(runner)
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(runner, wl, args.seconds, [m["name"] for m in wanted])
        raw = {}
    else:
        wanted = spec["end_to_end"]
        values, raw = end_to_end(runner, wl, args.seconds)

    failed = sum(1 for op in runner.ops if op.problems)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    record = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "unit_of_work": wl.unit, "work_per_full_command": wl.work,
              "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "machine": machine_facts(), "metrics": metrics, "raw_medians": raw,
              "ops": [vars(op) | {"stdout": op.stdout[-200:]} for op in runner.ops]}
    (WORK / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps(record["machine"], sort_keys=True))
    for op in runner.ops:
        for problem in op.problems:
            print(f"FAILED {op.kind}: {problem}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    for name, value in raw.items():
        print(f"{args.workload} {name} = {value!r} s (unscaled median)")
    result = {"correct": failed == 0 and len(metrics) == len(wanted),
              "attempted": len(runner.ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
