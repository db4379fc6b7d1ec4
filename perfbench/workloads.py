"""The benchmark's five workloads: seeded inputs, CLI commands, output checks.

Each workload has a *full* command, the one it measures, and a *setup*
command: the same command doing minimal work, whose time is mostly
interpreter start and import.  Every check returns a list of problems;
an empty list means the output is correct.  The checks hold on any seed;
a frozen reference mIoU is checked only at the reference seed and only on
a run of the reference length, so pixel-train checks CLEAN_MIOU_EXACT and
mask-train, which trains the reference scene for fewer epochs, checks no
frozen value.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# This module, like run.py, imports neither numpy nor lorentzseg: a child's
# peak RSS as wait4 reports it includes the spawning process's own peak, so
# the process that spawns the measured children has to stay small.

# the scene seed and training seed of lorentzseg.reference
REFERENCE_SEED = 42

# the epochs of lorentzseg.reference's REFERENCE_TRAIN (pixel head) and
# REFERENCE_MASK_TRAIN (mask head): the frozen mIoU values hold after
# exactly this many, so they are checked only on a run of this length
REFERENCE_EPOCHS = 300

# Sizes are chosen so one full command takes 2.5-6 s on a 2-core machine,
# several times its setup command: work_per_s divides by the difference
# of the two, so the full command has to dominate it.
MASK_EPOCHS = 40                    # the reference scene, a shorter schedule
PIXEL_EPOCHS = REFERENCE_EPOCHS
LOSSCAPE_GRID = 21                  # odd, so the grid holds the center 0
DELTA_BATCHES = 2                   # one batch per worker thread at 2 cores
DELTA_BATCH_SIZE = 1024
GRADCHECK_SAMPLES = 12000

MAX_REL_ERROR = 1e-5
CENTER_TOL = 1e-12


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _load_json(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        return exc


def digest(out: Path) -> str:
    """SHA-256 over every file under ``out`` (or ``out`` itself).

    A manifest's wall clock is the one field the CLI does not reproduce,
    so it is left out.
    """
    out = Path(out)
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else [out]
    h = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        if path.name.endswith("manifest.json"):
            manifest = json.loads(data)
            manifest.pop("wall_clock_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(str(path.relative_to(out.parent)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def read_csv_rows(path: Path) -> list[list[float]]:
    """The rows of a CLI csv, after its format line and column header."""
    lines = Path(path).read_text().splitlines()[2:]
    return [[float(x) for x in line.split(",")] for line in lines if line]


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def check_train(out_dir: Path, head: str, epochs: int, frozen_miou: float | None) -> list[str]:
    """Finite losses, a trace row per epoch plus the initial one, and (when
    given) the frozen mIoU."""
    out_dir = Path(out_dir)
    metrics = _load_json(out_dir / "metrics.json")
    if isinstance(metrics, Exception):
        return [f"metrics.json unreadable: {metrics}"]
    problems = []
    if not _finite([metrics.get("final_loss", math.nan)]):
        problems.append(f"final_loss not finite: {metrics.get('final_loss')}")
    try:
        rows = read_csv_rows(out_dir / "trace.csv")
    except (OSError, ValueError) as exc:
        return problems + [f"trace.csv unreadable: {exc}"]
    if len(rows) != epochs + 1:
        problems.append(f"trace.csv has {len(rows)} rows, expected {epochs + 1}")
    if not all(_finite(r) for r in rows):
        problems.append("trace.csv holds a non-finite loss")
    if frozen_miou is not None:
        key = "train_miou_semantic" if head == "mask" else "train_miou_distance"
        if metrics.get(key) != frozen_miou:
            problems.append(f"{key}={metrics.get(key)} != frozen {frozen_miou}")
    return problems


def check_losscape(csv_path: Path, grid: int, center_loss: float | None) -> list[str]:
    """grid x grid finite rows; the (0, 0) cell equals ``center_loss``."""
    try:
        rows = read_csv_rows(csv_path)
    except (OSError, ValueError) as exc:
        return [f"losscape csv unreadable: {exc}"]
    problems = []
    if len(rows) != grid * grid:
        problems.append(f"{len(rows)} rows, expected {grid * grid}")
    if not all(len(r) == 3 and _finite(r) for r in rows):
        problems.append("a losscape row is malformed or not finite")
    if center_loss is not None:
        centers = [r[2] for r in rows if len(r) == 3 and r[0] == 0.0 and r[1] == 0.0]
        if len(centers) != 1:
            problems.append(f"{len(centers)} center cells, expected 1")
        elif not abs(centers[0] - center_loss) <= CENTER_TOL:
            problems.append(f"center loss {centers[0]!r} != model final loss {center_loss!r}")
    return problems


def check_deltahyp(report_path: Path, batches: int, batch0_delta: float | None) -> list[str]:
    """Every delta_rel in [0, 1]; batch 0's delta equals the independent value."""
    report = _load_json(report_path)
    if isinstance(report, Exception):
        return [f"delta report unreadable: {report}"]
    per_batch = report.get("per_batch", [])
    problems = []
    if len(per_batch) != batches:
        problems.append(f"{len(per_batch)} batches reported, expected {batches}")
    rels = [b.get("delta_rel", math.nan) for b in per_batch] + [report.get("delta_rel", math.nan)]
    if not all(0.0 <= r <= 1.0 for r in rels):
        problems.append(f"delta_rel outside [0, 1]: {rels}")
    if batch0_delta is not None and (not per_batch or per_batch[0].get("delta") != batch0_delta):
        got = per_batch[0].get("delta") if per_batch else None
        problems.append(f"batch 0 delta {got!r} != independent {batch0_delta!r}")
    return problems


def check_gradcheck(report_path: Path, samples: int) -> list[str]:
    report = _load_json(report_path)
    if isinstance(report, Exception):
        return [f"gradcheck report unreadable: {report}"]
    problems = []
    if report.get("sample_count") != samples or len(report.get("samples", [])) != samples:
        problems.append(f"sample count {report.get('sample_count')}, expected {samples}")
    if not report.get("max_rel_error", math.inf) <= MAX_REL_ERROR:
        problems.append(f"max_rel_error {report.get('max_rel_error')} > {MAX_REL_ERROR}")
    if report.get("sign_agreement_rate") != 1.0:
        problems.append(f"sign agreement {report.get('sign_agreement_rate')} != 1.0")
    return problems


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Workload:
    """One CLI workload at one seed, with its files under ``work_dir``.

    ``work`` is the number of work units one full command does; ``unit``
    names them.  ``scaled`` says whether its times are scaled by the host
    speed probe of run.py: true where the command runs on one core and its
    time was measured to follow the probe's.  ``prepare(runner)`` builds
    the inputs in child processes of ``runner``.
    """

    name = ""
    unit = ""
    work = 1
    scaled = True

    def __init__(self, seed: int, work_dir: Path, frozen: dict):
        self.seed = seed
        self.dir = Path(work_dir)
        self.reference = seed == REFERENCE_SEED
        self.frozen = frozen

    def out(self, full: bool) -> Path:
        """The path the command writes; the same on every repeat, so that
        the manifests, which list it, repeat byte for byte."""
        return self.dir / ("full" if full else "setup")

    def prepare(self, runner):
        pass

    def argv(self, full: bool) -> list[str]:
        raise NotImplementedError

    def check(self, full: bool) -> list[str]:
        raise NotImplementedError


class _Train(Workload):
    head = ""
    epochs = 0
    frozen_key = ""
    unit = "epoch"

    @property
    def work(self):
        return self.epochs

    def argv(self, full):
        epochs = self.epochs if full else 0
        return ["train", "--head", self.head, "--epochs", str(epochs),
                "--scene-seed", str(self.seed), "--seed", str(self.seed),
                "--out-dir", str(self.out(full))]

    def check(self, full):
        protocol = full and self.reference and self.epochs == REFERENCE_EPOCHS
        frozen = self.frozen[self.frozen_key] if protocol else None
        return check_train(self.out(full), self.head, self.epochs if full else 0, frozen)


class MaskTrain(_Train):
    name = "mask-train"
    head = "mask"
    epochs = MASK_EPOCHS
    frozen_key = "MASK_MIOU_EXACT"


class PixelTrain(_Train):
    name = "pixel-train"
    head = "pixel"
    epochs = PIXEL_EPOCHS
    frozen_key = "CLEAN_MIOU_EXACT"
    # its time moves with the host's speed by about a third as much as the
    # probe's: scaled, its run-to-run spread rose from 0.09 to 0.19
    scaled = False


class Losscape(Workload):
    name = "losscape"
    unit = "cell"
    work = LOSSCAPE_GRID * LOSSCAPE_GRID

    def prepare(self, runner):
        model_dir = self.dir / "model"
        argv = ["train", "--head", "pixel", "--scene-seed", str(self.seed),
                "--seed", str(self.seed), "--out-dir", str(model_dir)]
        runner.cli(argv, "prepare", None, lambda: check_train(model_dir, "pixel", PIXEL_EPOCHS, None))
        self.model = model_dir / "model"
        metrics = _load_json(model_dir / "metrics.json")
        self.center_loss = None if isinstance(metrics, Exception) else metrics.get("final_loss")

    def argv(self, full):
        return ["losscape", "--model", str(self.model),
                "--directions-seed", str(self.seed),
                "--grid", str(LOSSCAPE_GRID if full else 1),
                "--out", str(self.out(full) / "losscape.csv")]

    def check(self, full):
        if full and self.center_loss is None:
            return ["the set-up model reported no final loss"]
        return check_losscape(self.out(full) / "losscape.csv",
                              LOSSCAPE_GRID if full else 1,
                              self.center_loss if full else None)


class Deltahyp(Workload):
    name = "deltahyp"
    unit = "batch"
    work = DELTA_BATCHES
    # its LSK_THREADS pool occupies every core: there is none left free for
    # the speed probe of run.py
    scaled = False

    def prepare(self, runner):
        self.csv = self.dir / "points.csv"
        op = runner.script("inputs.py", [str(self.seed), str(DELTA_BATCH_SIZE), str(self.csv)])
        try:
            self.batch0_delta = float(op.stdout)
        except ValueError:
            op.problems.append(f"inputs.py printed {op.stdout!r}")
            self.batch0_delta = None

    def argv(self, full):
        size, batches = (DELTA_BATCH_SIZE, DELTA_BATCHES) if full else (4, 1)
        return ["deltahyp", "--input", str(self.csv), "--metric", "lorentz",
                "--batch-size", str(size), "--batches", str(batches),
                "--seed", str(self.seed), "--out", str(self.out(full) / "delta.json")]

    def check(self, full):
        if full and self.batch0_delta is None:
            return ["no independent batch 0 delta"]
        return check_deltahyp(self.out(full) / "delta.json",
                              DELTA_BATCHES if full else 1,
                              self.batch0_delta if full else None)


class Gradcheck(Workload):
    name = "gradcheck"
    unit = "sample"
    work = GRADCHECK_SAMPLES

    def argv(self, full):
        return ["gradcheck", "--samples", str(GRADCHECK_SAMPLES if full else 1),
                "--seed", str(self.seed), "--out", str(self.out(full) / "gradcheck.json")]

    def check(self, full):
        return check_gradcheck(self.out(full) / "gradcheck.json",
                               GRADCHECK_SAMPLES if full else 1)


WORKLOADS = {w.name: w for w in (MaskTrain, PixelTrain, Losscape, Deltahyp, Gradcheck)}
