"""Gromov delta-hyperbolicity of embedding sets.

With a fixed base point r, the Gromov product of y and z is
(y|z)_r = (d(r,y) + d(r,z) - d(y,z)) / 2.  For the matrix A of pairwise
products, delta = max_ij [(A (x) A)_ij - A_ij] where
(A (x) B)_ij = max_k min(A_ik, B_kj) is the max-min matrix product, and
delta_rel = 2*delta/diam normalizes to [0, 1]; smaller means more
tree-like.  Each decision has one owner.  ``DistanceMatrix`` alone
mirrors a distance matrix from its upper triangle; the pairwise kernels
of ``lorentz`` return theirs as computed.  ``delta_from_matrix`` alone
cuts the max-min product into blocks of rows: A is symmetric, so
A (x) A is too, and it walks only the row blocks of the upper triangle,
half the work, with every max and min exact.  ``maxmin_product`` is the
kernel of one block: a running max over k of min(A_ik, B_kj) in two
(rows, m) buffers, which stay in cache at the block size, so memory
stays O(n^2) for the matrices themselves.  Sub-cubic algorithms exist
but are unnecessary at batch sizes around a thousand.  A brute-force
triple loop lives alongside as the oracle.  The lorentz metric lifts
point rows onto the unit-curvature hyperboloid; delta_rel is
scale-invariant, so a rescaled point cloud stands in for another
curvature.  Every function takes and returns arrays; reading an
embedding file is the caller's job.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError
from .fileio import worker_count
from .lorentz import pairwise_euclidean_distances, pairwise_lorentz_distances

_REPORT_FORMAT = "lorentzseg/hyperbolicity-report/v1"

METRICS = ("euclidean", "lorentz")

_MAXMIN_BLOCK = 64  # rows per block of delta_from_matrix; two (64, n) buffers fit in L2


@dataclass(frozen=True)
class DistanceMatrix:
    """Finite, symmetric, nonnegative matrix with an exactly zero diagonal;
    overflowed distances raise DomainError (the other checks miss nan).
    Entries within 1e-12 of symmetric are accepted and stored with the
    lower triangle mirrored from the upper, so values are bitwise
    symmetric.  This is the one place a distance matrix is mirrored."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise UsageError(f"distance matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("distance matrix has non-finite entries; the distances overflowed")
        if np.any(np.diag(arr) != 0.0):
            raise UsageError("distance matrix diagonal must be exactly zero")
        if np.abs(arr - arr.T).max(initial=0.0) > 1e-12:
            raise UsageError("distance matrix must be symmetric to 1e-12")
        if np.any(arr < 0.0):
            raise UsageError("distances must be nonnegative")
        lower = np.tri(arr.shape[0], k=-1, dtype=bool)
        object.__setattr__(self, "values", np.where(lower, arr.T, arr))

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


def gromov_products(D: DistanceMatrix, base: int) -> np.ndarray:
    """A_yz = (D[base,y] + D[base,z] - D[y,z]) / 2."""
    if not 0 <= base < D.n:
        raise UsageError(f"base index {base} out of range for {D.n} points")
    row = D.values[base]
    return 0.5 * (row[:, None] + row[None, :] - D.values)


def maxmin_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(A (x) B)_ij = max_k min(A_ik, B_kj) for any conformable A and B,
    as one block: a running max over k into two (rows, m) buffers.  A is
    transposed once so that its column k is contiguous; the caller picks
    the block size (``delta_from_matrix``)."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise UsageError(f"non-conformable shapes {A.shape} x {B.shape}")
    AT = np.ascontiguousarray(A.T)
    best = np.full((A.shape[0], B.shape[1]), -np.inf)
    cur = np.empty_like(best)
    for k in range(AT.shape[0]):
        np.minimum(AT[k][:, None], B[k], out=cur)
        np.maximum(best, cur, out=best)
    return best


def delta_from_matrix(D: DistanceMatrix, base: int = 0) -> float:
    """max_ij [(A (x) A)_ij - A_ij] over the upper triangle, in blocks of
    _MAXMIN_BLOCK rows; this is the one place the max-min product is
    blocked.  Both terms are symmetric, so the lower triangle repeats the
    maximum exactly."""
    A = gromov_products(D, base)
    best = -math.inf
    for start in range(0, D.n, _MAXMIN_BLOCK):
        stop = min(start + _MAXMIN_BLOCK, D.n)
        block = maxmin_product(A[start:stop], A[:, start:])
        block -= A[start:stop, start:]
        best = max(best, float(block.max()))
    return best


def delta_bruteforce(D: DistanceMatrix, base: int = 0) -> float:
    """Exhaustive triple-loop evaluation; the oracle for the blocked path."""
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


def diameter(D: DistanceMatrix) -> float:
    return float(D.values.max())


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
        # vars, not dataclasses.asdict, which would deep-copy every batch
        return {"format": _REPORT_FORMAT, **vars(self)}


def batched_delta_rel_from_points(
    points: np.ndarray,
    batch_size: int = 1024,
    batch_count: int = 32,
    seed: int = 0,
    metric: str = "euclidean",
) -> HyperbolicityReport:
    """Estimate delta_rel over seeded batches sampled without replacement.

    The base point of every batch is its first sampled index.  Batches
    run on a thread pool capped by LSK_THREADS, in the caller's np.errstate;
    results aggregate in batch order, so the report is deterministic per seed.
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

    err = np.geterr()
    with ThreadPoolExecutor(max_workers=min(worker_count(), batch_count),
                            initializer=lambda: np.seterr(**err)) as pool:
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

