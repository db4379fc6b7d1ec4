"""Gromov delta-hyperbolicity of embedding sets.

With a fixed base point r, the Gromov product of y and z is
(y|z)_r = (d(r,y) + d(r,z) - d(y,z)) / 2.  For the matrix A of pairwise
products, delta = max_ij [(A (x) A)_ij - A_ij] where
(A (x) B)_ij = max_k min(A_ik, B_kj) is the max-min matrix product, and
delta_rel = 2*delta/diam normalizes to [0, 1]; smaller means more
tree-like.  The max-min product here is the naive cubic evaluation,
chunked to bound memory; sub-cubic algorithms exist but are unnecessary
at batch sizes around a thousand.  A brute-force triple loop lives
alongside as the oracle.  The lorentz metric lifts point rows onto the
unit-curvature hyperboloid; delta_rel is scale-invariant, so a rescaled
point cloud stands in for another curvature.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError
from .fileio import read_embedding_csv, worker_count
from .lorentz import pairwise_euclidean_distances, pairwise_lorentz_distances

_REPORT_FORMAT = "lorentzseg/hyperbolicity-report/v1"

METRICS = ("euclidean", "lorentz")

_MAXMIN_CHUNK = 16  # rows per step of the max-min product, bounding its memory


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative matrix with an exactly zero diagonal."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise UsageError(f"distance matrix must be square, got shape {arr.shape}")
        if np.any(np.diag(arr) != 0.0):
            raise UsageError("distance matrix diagonal must be exactly zero")
        if np.abs(arr - arr.T).max(initial=0.0) > 1e-12:
            raise UsageError("distance matrix must be symmetric to 1e-12")
        if np.any(arr < 0.0):
            raise UsageError("distances must be nonnegative")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def pairwise_distances(points: np.ndarray, metric: str) -> DistanceMatrix:
    """Pairwise distances of raw point rows under the chosen metric.

    For the lorentz metric the rows are treated as spatial coordinates
    and lifted onto the hyperboloid first.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise UsageError("points must be a 2-D array")
    if metric == "euclidean":
        return DistanceMatrix(pairwise_euclidean_distances(points))
    if metric == "lorentz":
        return DistanceMatrix(pairwise_lorentz_distances(points))
    raise UsageError(f"unknown metric {metric!r}; choose from {METRICS}")


def gromov_products(D: DistanceMatrix | np.ndarray, base: int) -> np.ndarray:
    """A_yz = (D[base,y] + D[base,z] - D[y,z]) / 2."""
    vals = D.values if isinstance(D, DistanceMatrix) else np.asarray(D, dtype=np.float64)
    n = vals.shape[0]
    if not 0 <= base < n:
        raise UsageError(f"base index {base} out of range for {n} points")
    row = vals[base]
    return 0.5 * (row[:, None] + row[None, :] - vals)


def maxmin_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(A (x) B)_ij = max_k min(A_ik, B_kj), evaluated naively in row chunks."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise UsageError(f"non-conformable shapes {A.shape} x {B.shape}")
    n, m = A.shape[0], B.shape[1]
    out = np.empty((n, m))
    for start in range(0, n, _MAXMIN_CHUNK):
        stop = min(start + _MAXMIN_CHUNK, n)
        # (rows, k, 1) vs (1, k, m)
        out[start:stop] = np.minimum(A[start:stop, :, None], B[None, :, :]).max(axis=1)
    return out


def delta_from_matrix(D: DistanceMatrix | np.ndarray, base: int = 0) -> float:
    A = gromov_products(D, base)
    return float((maxmin_product(A, A) - A).max())


def delta_hyperbolicity(points: np.ndarray, metric: str, base: int = 0) -> float:
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] < 4:
        raise UsageError("delta needs at least 4 points")
    return delta_from_matrix(pairwise_distances(points, metric), base)


def delta_bruteforce(D: DistanceMatrix | np.ndarray, base: int = 0) -> float:
    """Exhaustive triple-loop evaluation; the oracle for the chunked path."""
    A = gromov_products(D, base)
    rows = [list(map(float, row)) for row in A]
    n = len(rows)
    best = -math.inf
    for i in range(n):
        ai = rows[i]
        for j in range(n):
            cur = -math.inf
            for k in range(n):
                v = ai[k] if ai[k] < rows[k][j] else rows[k][j]
                if v > cur:
                    cur = v
            diff = cur - ai[j]
            if diff > best:
                best = diff
    return best


def diameter(D: DistanceMatrix | np.ndarray) -> float:
    vals = D.values if isinstance(D, DistanceMatrix) else np.asarray(D)
    return float(vals.max())


def delta_rel(points: np.ndarray, metric: str, base: int = 0) -> float:
    """Scale-invariant 2*delta/diam in [0, 1]."""
    D = pairwise_distances(np.asarray(points, dtype=np.float64), metric)
    diam = diameter(D)
    if diam <= 0.0:
        raise DomainError("degenerate diameter: all points coincide")
    return 2.0 * delta_from_matrix(D, base) / diam


@dataclass
class HyperbolicityReport:
    """Batched delta_rel estimate; the aggregate fields are arithmetic
    means over the per-batch values."""

    delta: float
    diameter: float
    delta_rel: float
    base_index: int
    batch_size: int
    batch_count: int
    seed: int
    metric: str
    n_points: int
    per_batch: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "format": _REPORT_FORMAT,
            "delta": self.delta,
            "diameter": self.diameter,
            "delta_rel": self.delta_rel,
            "base_index": self.base_index,
            "batch_size": self.batch_size,
            "batch_count": self.batch_count,
            "seed": self.seed,
            "metric": self.metric,
            "n_points": self.n_points,
            "per_batch": self.per_batch,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)


def batched_delta_rel_from_points(
    points: np.ndarray,
    batch_size: int = 1024,
    batch_count: int = 32,
    seed: int = 0,
    metric: str = "euclidean",
) -> HyperbolicityReport:
    """Estimate delta_rel over seeded batches sampled without replacement.

    The base point of every batch is its first sampled index.  Batches
    run on a thread pool capped by LSK_THREADS; results aggregate in
    batch order, so the report is deterministic per seed.
    """
    points = np.asarray(points, dtype=np.float64)
    if batch_size < 4:
        raise UsageError("batch_size must be >= 4")
    if batch_count < 1:
        raise UsageError("batch_count must be >= 1")
    n = points.shape[0]
    if n < 4:
        raise UsageError("need at least 4 points")
    size = min(batch_size, n)
    rng = np.random.default_rng(seed)
    batches = [rng.choice(n, size=size, replace=False) for _ in range(batch_count)]

    def one(idx):
        sub = points[batches[idx]]
        D = pairwise_distances(sub, metric)
        diam = diameter(D)
        if diam <= 0.0:
            raise DomainError(f"batch {idx}: degenerate diameter")
        d = delta_from_matrix(D, 0)
        return {"batch": idx, "delta": d, "diameter": diam, "delta_rel": 2.0 * d / diam}

    with ThreadPoolExecutor(max_workers=min(worker_count(), batch_count)) as pool:
        per_batch = list(pool.map(one, range(batch_count)))
    return HyperbolicityReport(
        delta=float(np.mean([b["delta"] for b in per_batch])),
        diameter=float(np.mean([b["diameter"] for b in per_batch])),
        delta_rel=float(np.mean([b["delta_rel"] for b in per_batch])),
        base_index=0,
        batch_size=size,
        batch_count=batch_count,
        seed=seed,
        metric=metric,
        n_points=n,
        per_batch=per_batch,
    )


def batched_delta_rel(
    embedding_file,
    batch_size: int = 1024,
    batch_count: int = 32,
    seed: int = 0,
    metric: str = "euclidean",
) -> HyperbolicityReport:
    """File-facing wrapper over batched_delta_rel_from_points."""
    points = read_embedding_csv(embedding_file)
    return batched_delta_rel_from_points(points, batch_size, batch_count, seed, metric)
