"""Seeded input of the deltahyp workload, and its independent check value.

    python3 perfbench/inputs.py SEED BATCH_SIZE POINTS.csv

Writes a hierarchical point cloud (parents x children Gaussian clusters,
DIM-dimensional) as a ``dim=<n>`` CSV and prints the Gromov delta of the
batch that ``deltahyp --seed SEED --batch-size BATCH_SIZE`` draws first,
computed independently of the CLI's max-min product.  ``src`` must be on
PYTHONPATH.
"""

import sys

import numpy as np

from lorentzseg import hyperbolicity as hyp

PARENTS, CHILDREN, PER_CHILD, DIM = 4, 8, 64, 8


def hierarchical_points(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    parents = rng.normal(scale=2.0, size=(PARENTS, DIM))
    blocks = []
    for center in parents:
        for _ in range(CHILDREN):
            child = center + rng.normal(scale=0.7, size=DIM)
            blocks.append(child + rng.normal(scale=0.2, size=(PER_CHILD, DIM)))
    return np.concatenate(blocks)


def write_points_csv(path, points: np.ndarray):
    with open(path, "w") as fh:
        fh.write(f"dim={points.shape[1]}\n")
        for row in points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def first_batch(points: np.ndarray, batch_size: int, seed: int) -> np.ndarray:
    """The rows the CLI's batch 0 draws for ``--seed seed``."""
    n = points.shape[0]
    idx = np.random.default_rng(seed).choice(n, size=min(batch_size, n), replace=False)
    return points[idx]


def independent_delta(points: np.ndarray) -> float:
    """Gromov delta with base point 0, by a running max over k of
    min(A_ik, A_kj).  Max and min are exact, so the value must equal the
    CLI's chunked max-min product bit for bit."""
    A = hyp.gromov_products(hyp.pairwise_distances(points, "lorentz"), 0)
    best = np.full_like(A, -np.inf)
    for k in range(A.shape[0]):
        np.maximum(best, np.minimum(A[:, k, None], A[None, k, :]), out=best)
    return float((best - A).max())


def main(argv) -> int:
    seed, batch_size, path = int(argv[0]), int(argv[1]), argv[2]
    points = hierarchical_points(seed)
    write_points_csv(path, points)
    print(repr(independent_delta(first_batch(points, batch_size, seed))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
