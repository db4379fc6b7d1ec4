"""File formats shared across commands.

Embedding sets travel as CSV whose first line is ``dim=<n>`` followed by
one comma-separated point per row.  Scalar and label maps export as
binary PGM (P5, 8-bit) with a JSON sidecar carrying kind and
normalization bounds.  Trained parameters serialize as a versioned JSON
descriptor plus a raw little-endian float64 blob.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import ParseError, UsageError

PARAMS_FORMAT = "lorentzseg/params/v1"


def worker_count() -> int:
    """Worker cap from LSK_THREADS, defaulting to available parallelism."""
    env = os.environ.get("LSK_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise UsageError(f"LSK_THREADS must be an integer, got {env!r}") from exc
        if n < 1:
            raise UsageError("LSK_THREADS must be >= 1")
        return n
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def read_embedding_csv(path) -> np.ndarray:
    """Read a ``dim=<n>`` headed CSV of points into an (n_points, dim) array."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not lines:
        raise ParseError(f"{path}:1: empty file, expected a dim=<n> header")
    header = lines[0].strip()
    if not header.startswith("dim="):
        raise ParseError(f"{path}:1: expected 'dim=<n>' header, got {header!r}")
    try:
        dim = int(header[4:])
    except ValueError as exc:
        raise ParseError(f"{path}:1: bad dimension in header {header!r}") from exc
    if dim < 1:
        raise ParseError(f"{path}:1: dimension must be >= 1")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != dim:
            raise ParseError(f"{path}:{lineno}: expected {dim} values, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric value") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{path}: non-finite values present")
    return arr


def write_embedding_csv(path, points: np.ndarray):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise UsageError("embedding CSV expects a 2-D array")
    with open(path, "w") as fh:
        fh.write(f"dim={points.shape[1]}\n")
        for row in points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_pgm(path, values: np.ndarray):
    """Write an 8-bit grayscale P5 image."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise UsageError("PGM expects a 2-D array")
    data = values.astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        magic, rest = blob.split(b"\n", 1)
        if magic != b"P5":
            raise ValueError("not a P5 file")
        dims, rest = rest.split(b"\n", 1)
        w, h = (int(t) for t in dims.split())
        if w < 0 or h < 0:
            raise ValueError("negative dimensions")
        maxval, rest = rest.split(b"\n", 1)
        if int(maxval) != 255:
            raise ValueError("only 8-bit PGM supported")
        data = np.frombuffer(rest[: h * w], dtype=np.uint8).reshape(h, w)
    except (OSError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: unreadable PGM ({exc})") from exc
    return data.copy()


_JSON_BATCH = 64  # items of a top-level list per write; 256 raised gradcheck's peak RSS


def write_json(path, payload: dict):
    """Write ``payload`` as compact JSON with sorted keys and a final
    newline: the bytes of ``json.dumps(payload, sort_keys=True) + "\n"``.

    Only ``json.dumps`` without ``indent`` runs the C encoder; ``json.dump``
    and any ``indent`` run the pure-Python one, which takes about twice as
    long over a 12000-sample gradient report.  One string of the whole
    document would hold every encoded byte at once and raise the peak
    memory, so each top-level list is encoded and written ``_JSON_BATCH``
    items at a time, and every other value in one piece."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(sorted(payload.items())):
            if i:
                fh.write(", ")
            if not isinstance(value, list):
                fh.write(encode({key: value})[1:-1])  # '"key": value'
                continue
            fh.write(encode({key: []})[1:-2])  # '"key": ['
            for start in range(0, len(value), _JSON_BATCH):
                fh.write((", " if start else "") + encode(value[start:start + _JSON_BATCH])[1:-1])
            fh.write("]")
        fh.write("}\n")


def read_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def export_scalar_map(path_prefix, smap, extras: dict | None = None):
    """Write an ``uncertainty.ScalarMap`` as PGM normalized to its
    ``vmin``/``vmax``, plus raw CSV and a JSON sidecar recording those
    bounds."""
    values, vmin, vmax = smap.values, smap.vmin, smap.vmax
    span = vmax - vmin
    if span > 0:
        scaled = np.round((values - vmin) / span * 255.0)
    else:
        scaled = np.zeros_like(values)
    write_pgm(str(path_prefix) + ".pgm", scaled)
    np.savetxt(str(path_prefix) + ".csv", values, delimiter=",", fmt="%.17g")
    sidecar = {"kind": smap.kind, "min": vmin, "max": vmax, "shape": list(values.shape)}
    if extras:
        sidecar.update(extras)
    write_json(str(path_prefix) + ".json", sidecar)


def save_param_blocks(path_prefix, blocks: dict, extras: dict | None = None):
    """Persist named float64 arrays as descriptor JSON + raw binary blob."""
    order = sorted(blocks)
    offset = 0
    desc = []
    chunks = []
    for name in order:
        arr = np.ascontiguousarray(np.asarray(blocks[name], dtype=np.float64))
        desc.append({"name": name, "shape": list(arr.shape), "offset": offset, "count": arr.size})
        chunks.append(arr.tobytes())
        offset += arr.size
    payload = {"format": PARAMS_FORMAT, "dtype": "<f8", "blocks": desc}
    if extras:
        payload["extras"] = extras
    write_json(str(path_prefix) + ".json", payload)
    with open(str(path_prefix) + ".bin", "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def load_param_blocks(path_prefix):
    """Inverse of save_param_blocks; returns (blocks, extras).  The blocks
    must tile the blob as save_param_blocks lays them out: taken in offset
    order, each starts where the previous one ended and the last ends at
    the blob's end.  A descriptor that names one block twice, or whose
    blocks overlap, leave a gap or leave values over, raises ParseError."""
    meta = read_json(str(path_prefix) + ".json")
    fmt = meta.get("format") if isinstance(meta, dict) else None
    if fmt != PARAMS_FORMAT:
        raise ParseError(f"{path_prefix}.json: unknown params format {fmt!r}")
    try:
        raw = np.fromfile(str(path_prefix) + ".bin", dtype="<f8")
    except OSError as exc:
        raise ParseError(f"{path_prefix}.bin: {exc}") from exc
    blocks = {}
    end = 0
    try:
        for entry in sorted(meta["blocks"], key=lambda e: e["offset"]):
            start, count, shape = entry["offset"], entry["count"], tuple(entry["shape"])
            if start < 0 or count < 0 or math.prod(shape) != count:
                raise ParseError(f"{path_prefix}.json: bad offset, count or shape in {entry!r}")
            if start + count > raw.size:
                raise ParseError(f"{path_prefix}.bin: truncated blob for block {entry['name']!r}")
            if entry["name"] in blocks:
                raise ParseError(f"{path_prefix}.json: block {entry['name']!r} is listed twice")
            if start != end:
                raise ParseError(f"{path_prefix}.json: malformed model descriptor (block "
                                 f"{entry['name']!r} starts at {start}, the blocks before "
                                 f"it end at {end})")
            blocks[entry["name"]] = raw[start : start + count].reshape(shape).copy()
            end = start + count
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path_prefix}.json: malformed model descriptor ({exc!r})") from exc
    if end != raw.size:
        raise ParseError(f"{path_prefix}.json: malformed model descriptor (the blocks end at "
                         f"{end}, the blob holds {raw.size} values)")
    return blocks, meta.get("extras", {})
