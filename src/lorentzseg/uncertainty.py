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

import warnings
from dataclasses import dataclass, field

import numpy as np

from .entailment import ext_angles_to_anchors
from .errors import UsageError
from .lorentz import EmbeddingGrid, distances_from_inner, inner_to_anchors
from .models import hyperbolic_mean_arrays

KINDS = ("radius_uncertainty", "angle_uncertainty", "confidence", "boundary")


@dataclass(frozen=True)
class ScalarMap:
    values: np.ndarray  # (H, W)
    kind: str
    vmin: float = field(init=False)
    vmax: float = field(init=False)

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


def radius_uncertainty(grid: EmbeddingGrid) -> ScalarMap:
    """-x0 per pixel: lower hyperboloid radius means higher uncertainty."""
    return ScalarMap(-grid.time, "radius_uncertainty")


def angle_uncertainty(grid: EmbeddingGrid, anchor_spatial: np.ndarray,
                      anchor_time: np.ndarray) -> ScalarMap:
    """Minimum exterior angle over the anchors (spatial parts (A, d), times
    (A,)), per pixel, in [0, pi]."""
    if np.any(np.linalg.norm(anchor_spatial, axis=1) == 0.0):
        raise UsageError("an anchor at the origin has no exterior angle")
    sp, t = grid.flat()
    ext = ext_angles_to_anchors(sp, t, anchor_spatial, anchor_time)
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


def boundary_map(u: ScalarMap, percentile: float) -> ScalarMap:
    """1 where the map exceeds its empirical percentile, else 0."""
    if u.vmax - u.vmin <= 0.0:
        warnings.warn("constant uncertainty map: boundary threshold degenerate", stacklevel=2)
        return ScalarMap(np.zeros_like(u.values), "boundary")
    thr = float(np.percentile(u.values, percentile))
    return ScalarMap((u.values > thr).astype(np.float64), "boundary")
