"""Per-pixel uncertainty, confidence, and boundary maps.

Radius uncertainty is the negated time component: the lift preserves
length order, so ranking pixels by -x0, by -||x'||, or by the negated
Poincare radius gives the same ordering, and a lower radius means a
higher uncertainty.  Angle uncertainty is the minimum exterior angle
against a set of anchors (class prototypes or mask queries).  Class
confidence is exp(-d) to the Einstein-midpoint mean of the class's own
embeddings.  Boundary maps threshold an uncertainty map at an empirical
percentile.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .entailment import PrototypeSet, ext_angles_to_anchors
from .errors import UsageError
from .lorentz import EmbeddingGrid, distances_from_inner, inner_to_anchors
from .models import hyperbolic_mean_arrays

KINDS = ("radius_uncertainty", "angle_uncertainty", "confidence", "boundary")


@dataclass(frozen=True)
class ScalarMap:
    values: np.ndarray  # (H, W)
    kind: str
    vmin: float = math.nan
    vmax: float = math.nan

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise UsageError("scalar map must be 2-D")
        if not np.all(np.isfinite(vals)):
            raise UsageError("scalar map must be finite")
        if self.kind not in KINDS:
            raise UsageError(f"unknown map kind {self.kind!r}")
        if self.kind == "boundary" and not np.all(np.isin(vals, (0.0, 1.0))):
            raise UsageError("boundary maps must be 0/1-valued")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "vmin", float(vals.min()))
        object.__setattr__(self, "vmax", float(vals.max()))


def _anchor_arrays(anchors):
    if isinstance(anchors, PrototypeSet):
        return anchors.spatial, anchors.time
    if isinstance(anchors, tuple) and len(anchors) == 2:
        return np.asarray(anchors[0], float), np.asarray(anchors[1], float)
    pts = list(anchors)
    if not pts:
        raise UsageError("need at least one anchor")
    return np.stack([p.spatial for p in pts]), np.array([p.time for p in pts])


def radius_uncertainty(grid: EmbeddingGrid) -> ScalarMap:
    """-x0 per pixel: lower hyperboloid radius means higher uncertainty."""
    return ScalarMap(-grid.time, "radius_uncertainty")


def radius_uncertainty_variants(grid: EmbeddingGrid):
    """The three monotone-equivalent formulations, for ranking checks:
    (-x0, -||x'||, -poincare radius)."""
    pnorm = grid.spatial_norms / (grid.time + 1.0)
    return -grid.time, -grid.spatial_norms, -pnorm


def angle_uncertainty(grid: EmbeddingGrid, anchors) -> ScalarMap:
    """Minimum exterior angle over the anchors, per pixel, in [0, pi]."""
    asp, at = _anchor_arrays(anchors)
    norms = np.linalg.norm(asp, axis=1)
    if np.any(norms == 0.0):
        raise UsageError("an anchor at the origin has no exterior angle")
    sp, t = grid.flat()
    ext = ext_angles_to_anchors(sp, t, asp, at, anchor_norms=norms)
    return ScalarMap(ext.min(axis=1).reshape(grid.shape), "angle_uncertainty")


def class_confidence(grid: EmbeddingGrid, class_pixels: np.ndarray) -> ScalarMap:
    """exp(-d) to the Einstein-midpoint mean of the selected pixels.

    ``class_pixels`` is a boolean (H, W) mask of the class's pixels; the
    returned confidence covers every pixel and equals 1 only at the mean.
    """
    mask = np.asarray(class_pixels, dtype=bool)
    if mask.shape != grid.shape:
        raise UsageError("class mask shape mismatch")
    if not mask.any():
        raise UsageError("empty class pixel set")
    sp, t = grid.flat()
    sel = mask.reshape(-1)
    m_time, m_spatial = hyperbolic_mean_arrays(sp[sel], t[sel])
    inner = inner_to_anchors(sp, t, m_spatial[None, :], np.array([m_time]))
    conf = np.exp(-distances_from_inner(inner)[:, 0])
    return ScalarMap(conf.reshape(grid.shape), "confidence")


def boundary_map(u: ScalarMap, percentile: float = 90.0) -> ScalarMap:
    """1 where the map exceeds its empirical percentile, else 0."""
    if not 0.0 < percentile <= 100.0:
        raise UsageError("percentile must lie in (0, 100]")
    if u.vmax - u.vmin <= 0.0:
        warnings.warn("constant uncertainty map: boundary threshold degenerate", stacklevel=2)
        return ScalarMap(np.zeros_like(u.values), "boundary")
    thr = float(np.percentile(u.values, percentile))
    return ScalarMap((u.values > thr).astype(np.float64), "boundary")


def label_boundary_mask(labels: np.ndarray) -> np.ndarray:
    """Pixels with a 4-neighbor of another label."""
    labels = np.asarray(labels)
    edge = np.zeros(labels.shape, dtype=bool)
    edge[:-1, :] |= labels[:-1, :] != labels[1:, :]
    edge[1:, :] |= labels[1:, :] != labels[:-1, :]
    edge[:, :-1] |= labels[:, :-1] != labels[:, 1:]
    edge[:, 1:] |= labels[:, 1:] != labels[:, :-1]
    return edge


def boundary_interior_margin(u: ScalarMap, labels: np.ndarray) -> float:
    """Mean over the region borders minus the interior mean."""
    edge = label_boundary_mask(labels)
    if edge.all() or not edge.any():
        raise UsageError("degenerate boundary mask")
    return float(u.values[edge].mean() - u.values[~edge].mean())


def boundary_recall(pred_boundary: ScalarMap, labels: np.ndarray) -> float:
    """Fraction of true border pixels flagged by the map."""
    edge = label_boundary_mask(labels)
    if not edge.any():
        raise UsageError("no boundary pixels in the label map")
    flagged = pred_boundary.values > 0.5
    return float(flagged[edge].mean())


def ranking_signature(values: np.ndarray) -> np.ndarray:
    """Dense ranks (ties share a rank), for ordering-equivalence checks."""
    flat = np.asarray(values).reshape(-1)
    order = np.argsort(flat, kind="stable")
    ranks = np.empty(flat.size, dtype=np.int64)
    rank = 0
    prev = None
    for pos, idx in enumerate(order):
        if prev is not None and flat[idx] != prev:
            rank = pos
        ranks[idx] = rank
        prev = flat[idx]
    return ranks
