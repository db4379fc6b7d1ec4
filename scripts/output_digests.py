"""Run a fixed set of CLI commands and print one digest line per command.

Run from anywhere, with no flags:

    python scripts/output_digests.py

Every command runs as ``python -m lorentzseg.cli`` on the package of the
checkout this file lives in, in a fresh temporary directory.  Each line
reads ``<name> <exit code> <sha256>``; the digest covers the files the
command wrote, its stdout and its stderr.  Manifests are hashed without
``wall_clock_s``, and the temporary directory is replaced by ``<tmp>``
everywhere, so two runs of one checkout print the same lines.

To compare two checkouts, copy this file into the other one's
``scripts/`` directory and run

    diff <(python old/scripts/output_digests.py) <(python new/scripts/output_digests.py)

The script exits 1 when a command's exit code differs from the one listed
for it below, and 0 otherwise.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from lorentzseg.fileio import write_embedding_csv  # noqa: E402

TINY = ["--height", "16", "--width", "16"]
HELD_OUT = ["--height", "32", "--width", "32", "--exclude-class", "4"]
CLOUD = "{tmp}/cloud.csv"
# a cloud with one row of 1e200, whose distances overflow
OVERFLOW = "{tmp}/overflow.csv"
# a cloud whose odd rows repeat the even rows plus 1e-9 noise
NEAR = "{tmp}/near.csv"
DELTA = ["--input", CLOUD, "--batch-size", "128", "--batches", "2"]
# every scene and training flag of train off its default
EVERY_FLAG = ["--parents", "2", "--children", "4", "--height", "12", "--width", "10",
              "--noise", "0.05", "--edge-blend", "0.3", "--descriptor-dim", "6",
              "--scene-seed", "7", "--epochs", "30", "--lr", "0.25", "--lambda-w", "0.4",
              "--tau", "0.2", "--cone-k", "0.15", "--seed", "3", "--weight-decay", "0.002",
              "--hidden", "5", "--embed-dim", "4"]

# (name, expected exit code, argv); {tmp} is the temporary directory and
# {dir} the command's own directory, which holds everything it writes
COMMANDS = (
    ("train-pixel", 0, ["train", "--head", "pixel", "--out-dir", "{dir}"]),
    ("train-euclid", 0, ["train", "--head", "euclid", "--out-dir", "{dir}"]),
    ("train-mask", 0, ["train", "--head", "mask", "--epochs", "40", "--out-dir", "{dir}"]),
    ("train-mask-k", 0, ["train", "--head", "mask", "--epochs", "2", "--cone-k", "0.2",
                         "--out-dir", "{dir}"]),
    ("train-heldout", 0, ["train", "--head", "pixel", *HELD_OUT, "--out-dir", "{dir}"]),
    ("train-heldout-euclid", 0, ["train", "--head", "euclid", *HELD_OUT, "--epochs", "50",
                                 "--out-dir", "{dir}"]),
    ("train-blend", 0, ["train", "--head", "pixel", "--noise", "0.15", "--edge-blend", "0.8",
                        "--epochs", "100", "--out-dir", "{dir}"]),
    ("diverge-mask", 1, ["train", "--head", "mask", *TINY, "--epochs", "2", "--lr", "1e300",
                         "--out-dir", "{dir}"]),
    ("diverge-euclid", 1, ["train", "--head", "euclid", *TINY, "--epochs", "20", "--lr", "1e9",
                           "--out-dir", "{dir}"]),
    ("diverge-pixel", 1, ["train", "--head", "pixel", *TINY, "--epochs", "5", "--lr", "1e300",
                          "--out-dir", "{dir}"]),
    ("infer-pixel-distance", 0, ["infer", "--model", "{tmp}/train-pixel/model",
                                 "--out-dir", "{dir}"]),
    ("infer-pixel-angle", 0, ["infer", "--model", "{tmp}/train-pixel/model", "--mode", "angle",
                              "--out-dir", "{dir}"]),
    ("infer-euclid", 0, ["infer", "--model", "{tmp}/train-euclid/model", "--out-dir", "{dir}"]),
    ("infer-mask", 0, ["infer", "--model", "{tmp}/train-mask/model", "--out-dir", "{dir}"]),
    ("infer-heldout", 0, ["infer", "--model", "{tmp}/train-heldout/model", "--out-dir", "{dir}"]),
    ("uncertainty-blend", 0, ["uncertainty", "--model", "{tmp}/train-blend/model",
                              "--out-dir", "{dir}"]),
    ("uncertainty-euclid", 0, ["uncertainty", "--model", "{tmp}/train-euclid/model",
                               "--out-dir", "{dir}"]),
    ("uncertainty-mask", 0, ["uncertainty", "--model", "{tmp}/train-mask/model",
                             "--out-dir", "{dir}"]),
    ("uncertainty-bad-percentile", 2, ["uncertainty", "--model", "{tmp}/train-pixel/model",
                                       "--percentile", "0", "--out-dir", "{dir}"]),
    ("losscape-pixel", 0, ["losscape", "--model", "{tmp}/train-pixel/model", "--grid", "5",
                           "--out", "{dir}/ls.csv"]),
    ("losscape-euclid", 0, ["losscape", "--model", "{tmp}/train-euclid/model", "--grid", "5",
                            "--out", "{dir}/ls.csv"]),
    ("losscape-heldout", 0, ["losscape", "--model", "{tmp}/train-heldout/model", "--grid", "5",
                             "--out", "{dir}/ls.csv"]),
    ("gradcheck", 0, ["gradcheck", "--samples", "300", "--out", "{dir}/gc.json"]),
    ("gradfield", 0, ["gradfield", "--resolution", "11", "--out", "{dir}/gf.csv"]),
    ("gradfield-wide", 0, ["gradfield", "--grid-extent", "502.38", "--resolution", "3",
                           "--out", "{dir}/gf.csv"]),
    ("deltahyp-euclidean", 0, ["deltahyp", *DELTA, "--out", "{dir}/dh.json"]),
    ("deltahyp-lorentz", 0, ["deltahyp", *DELTA, "--metric", "lorentz",
                             "--out", "{dir}/dh.json"]),
    # 200 points per batch: delta_from_matrix walks three full 64-row blocks and a partial one
    ("deltahyp-lorentz-partial", 0, ["deltahyp", "--input", CLOUD, "--batch-size", "200",
                                     "--batches", "2", "--metric", "lorentz",
                                     "--out", "{dir}/dh.json"]),
    # distances at the acosh floor and round-off between near-twin rows
    ("deltahyp-near-duplicates", 0, ["deltahyp", "--input", NEAR, "--metric", "lorentz",
                                     "--batch-size", "128", "--batches", "2",
                                     "--out", "{dir}/dh.json"]),
    ("deltahyp-overflow", 2, ["deltahyp", "--input", OVERFLOW, "--out", "{dir}/dh.json"]),
    ("losscape-huge-extent", 2, ["losscape", "--model", "{tmp}/train-pixel/model", "--grid", "3",
                                 "--extent", "1e300", "--out", "{dir}/ls.csv"]),
    ("gradfield-far", 0, ["gradfield", "--grid-extent", "1e6", "--resolution", "3",
                          "--out", "{dir}/gf.csv"]),
    ("parse-error", 2, ["losscape", "--model", "{tmp}/train-pixel/model", "--grid", "x",
                        "--out", "{dir}/ls.csv"]),
    ("train-every-flag", 0, ["train", *EVERY_FLAG, "--out-dir", "{dir}"]),
    ("losscape-every-flag", 0, ["losscape", "--model", "{tmp}/train-every-flag/model",
                                "--directions-seed", "5", "--grid", "7", "--extent", "0.5",
                                "--out", "{dir}/ls.csv"]),
    ("train-many-classes", 2, ["train", "--parents", "16", "--children", "17", "--epochs", "1",
                               "--out-dir", "{dir}"]),
)


def _file_bytes(path: Path, tmp: str) -> bytes:
    if not path.name.endswith("manifest.json"):
        return path.read_bytes()
    manifest = json.loads(path.read_text())
    manifest.pop("wall_clock_s", None)
    return json.dumps(manifest, sort_keys=True).replace(tmp, "<tmp>").encode()


def digest(run_dir: Path, stdout: bytes, stderr: bytes, tmp: str) -> str:
    """sha256 over the files under ``run_dir`` (by sorted relative path),
    then stdout and stderr, with ``tmp`` replaced by ``<tmp>``."""
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(run_dir)).encode() + b"\0")
        h.update(_file_bytes(path, tmp) + b"\0")
    for stream in (stdout, stderr):
        h.update(stream.replace(tmp.encode(), b"<tmp>") + b"\0")
    return h.hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        rng = random.Random(0)
        write_embedding_csv(CLOUD.format(tmp=tmp),
                            [[rng.gauss(0.0, 1.0) for _ in range(4)] for _ in range(300)])
        big = random.Random(1)
        write_embedding_csv(OVERFLOW.format(tmp=tmp),
                            [[1e200 if i == 3 else big.gauss(0.0, 1.0) for _ in range(4)]
                             for i in range(20)])
        twin = random.Random(2)
        near = []
        for _ in range(150):
            row = [twin.gauss(0.0, 1.0) for _ in range(4)]
            near += [row, [x + 1e-9 * twin.gauss(0.0, 1.0) for x in row]]
        write_embedding_csv(NEAR.format(tmp=tmp), near)
        for name, expected, argv in COMMANDS:
            run_dir = Path(tmp) / name
            run_dir.mkdir()
            args = [a.format(tmp=tmp, dir=run_dir) for a in argv]
            proc = subprocess.run([sys.executable, "-m", "lorentzseg.cli", *args],
                                  capture_output=True, env=env, check=False)
            print(f"{name} {proc.returncode} {digest(run_dir, proc.stdout, proc.stderr, tmp)}",
                  flush=True)
            if proc.returncode != expected:
                print(f"{name}: exit {proc.returncode}, expected {expected}", file=sys.stderr)
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
