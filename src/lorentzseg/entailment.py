"""Entailment cones and the per-pixel loss stack.

Every class anchor x on the hyperboloid carries a geodesically convex
cone opening away from the origin with half-aperture

    aper(x) = asin( 2K / ||x'|| ),

which shrinks as the anchor moves outward.  Membership of a point y in
the cone of x is measured by the exterior angle at the pivot x of the
geodesic triangle origin-x-y,

    ext(x, y) = acos( (y0 + x0 * L) / (||x'|| sqrt(L^2 - 1)) ),
    L = <x, y>_L,

which is 0 when y lies directly beyond x on its outward ray and grows as
y swings off-axis.  The hinge max(0, ext - aper) penalizes points outside
the cone; classification logits are negative geodesic distances scaled by
a temperature.

Both formulas are written at unit curvature, like the rest of the
package; rescaling points from curvature -c onto this hyperboloid leaves
apertures and exterior angles unchanged.  The scalar functions take K as
a float.  A ``PrototypeSet`` carries K and turns it into its anchors'
apertures once, at construction.

The array form of the cross-entropy returns its softmax terms with the
per-row losses, and its backward takes them, so a training step
exponentiates its logits once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .lorentz import (
    LorentzPoint,
    geodesic_distance,
    inner_to_anchors,
    lorentz_inner,
)

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class PrototypeSet:
    """C class anchors, LorentzPoints on one hyperboloid (which check their
    own membership), with their class labels and the cone constant K.  The
    stacked ``spatial`` (C, d) and ``time`` (C,) of the anchors, their
    ``spatial_norms`` and each anchor's half-aperture ``apertures``,
    asin(2K/||x'||), are computed once here; an anchor with ||x'|| <= 2K,
    the origin included, raises UsageError."""

    anchors: tuple
    labels: tuple
    K: float

    def __post_init__(self):
        _check_cone_constant(self.K)
        if len(self.anchors) == 0:
            raise UsageError("prototype set needs at least one anchor")
        if len(self.anchors) != len(self.labels):
            raise UsageError("anchors and labels differ in length")
        object.__setattr__(self, "anchors", tuple(self.anchors))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "spatial", np.stack([a.spatial for a in self.anchors]))
        object.__setattr__(self, "time", np.array([a.time for a in self.anchors]))
        norms = np.linalg.norm(self.spatial, axis=1)
        object.__setattr__(self, "spatial_norms", norms)
        floor = 2.0 * self.K
        bad = np.nonzero(norms <= floor)[0]
        if bad.size:
            i = int(bad[0])
            raise UsageError(
                f"anchor {self.labels[i]!r} has spatial norm {norms[i]:.6g} <= "
                f"2K = {floor:.6g}; its cone aperture is undefined"
            )
        arg = 2.0 * self.K / norms
        object.__setattr__(self, "apertures", np.arcsin(np.minimum(arg, 1.0)))

    @property
    def n_classes(self) -> int:
        return len(self.anchors)


def _check_cone_constant(K: float):
    if not (K > 0 and math.isfinite(K)):
        raise UsageError(f"cone constant K must be positive, got {K}")


def half_aperture(x: LorentzPoint, K: float) -> float:
    """Half-aperture asin(2K/||x'||), in (0, pi/2], strictly decreasing in
    the anchor's spatial norm."""
    _check_cone_constant(K)
    norm = x.spatial_norm
    arg = 2.0 * K / norm if norm > 0 else math.inf
    if arg > 1.0 + 1e-12:
        raise DomainError(
            f"aperture undefined at anchor with ||x'|| = {norm:.6g}: "
            f"asin argument {arg:.6g} > 1"
        )
    return math.asin(min(arg, 1.0))


def exterior_angle(x: LorentzPoint, y: LorentzPoint) -> float:
    """Exterior angle in [0, pi] at pivot x of the triangle origin-x-y."""
    if x.spatial_norm == 0.0:
        raise UsageError("exterior angle undefined at the origin anchor")
    L = lorentz_inner(x.ambient, y.ambient)
    if L * L <= 1.0 + _DEGENERATE_TOL:
        raise DomainError(
            f"degenerate configuration: <x,y>_L^2 = {L * L:.12g} <= 1 "
            "(coincident or numerically off-manifold points)"
        )
    num = y.time + x.time * L
    den = x.spatial_norm * math.sqrt(L * L - 1.0)
    return math.acos(min(1.0, max(-1.0, num / den)))


def entailment_loss(x: LorentzPoint, y: LorentzPoint, K: float) -> float:
    """Hinge max(0, ext(x, y) - aper(x)); zero iff y is inside or on the cone."""
    return max(0.0, exterior_angle(x, y) - half_aperture(x, K))


def distance_logits(protos: PrototypeSet, y: LorentzPoint, tau: float) -> np.ndarray:
    """Length-C vector with component i = -d_L(x_i, y)/tau; the argmax is
    the nearest prototype."""
    d = np.array([geodesic_distance(a, y) for a in protos.anchors])
    return -d / tau


def pixel_cross_entropy(logits: np.ndarray, label: int) -> float:
    """-log softmax(logits)[label] via the max-shifted log-sum-exp form."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < logits.size:
        raise UsageError(f"label {label} out of range for {logits.size} classes")
    m = logits.max()
    lse = m + math.log(np.exp(logits - m).sum())
    return float(lse - logits[label])


def combined_pixel_loss(
    protos: PrototypeSet,
    y: LorentzPoint,
    label: int,
    tau: float,
    lambda_w: float,
) -> float:
    """Cross-entropy over -distance/tau logits plus lambda_w times the hinge
    against the ground-truth prototype only, with the set's cone constant."""
    ce = pixel_cross_entropy(distance_logits(protos, y, tau), label)
    if lambda_w == 0.0:
        return ce
    return ce + lambda_w * entailment_loss(protos.anchors[label], y, protos.K)


# --------------------------------------------------------------------------
# array layer
# --------------------------------------------------------------------------


def ext_angles_to_anchors(
    spatial: np.ndarray,
    time: np.ndarray,
    anchor_spatial: np.ndarray,
    anchor_time: np.ndarray,
    inner: np.ndarray | None = None,
) -> np.ndarray:
    """Exterior angles ext(anchor_j, point_i) for points (..., d) against
    anchors (C, d), returned as (..., C).  Precomputed inner products are
    accepted."""
    if inner is None:
        inner = inner_to_anchors(spatial, time, anchor_spatial, anchor_time)
    anchor_norms = np.linalg.norm(anchor_spatial, axis=1)
    return ext_angles_from_inner(inner, time[..., None], anchor_time, anchor_norms)


def ext_angles_from_inner(inner: np.ndarray, time: np.ndarray, anchor_time: np.ndarray,
                          anchor_norms: np.ndarray) -> np.ndarray:
    """Exterior angles from the products of ``inner_to_anchors``, the point
    times and the anchors' times and spatial norms, broadcast against
    ``inner``: (..., C) for all pairs, or one anchor per row.

    Degenerate entries are handled instead of raised (grid workloads
    tolerate them; the scalar API is the loud path): a point coinciding
    with its anchor counts as maximally aligned, angle 0.
    """
    coincident = inner * inner - 1.0 <= _DEGENERATE_TOL
    num = time + anchor_time * inner
    den = anchor_norms * np.sqrt(np.maximum(inner * inner - 1.0, _DEGENERATE_TOL))
    angles = np.arccos(np.clip(num / den, -1.0, 1.0))
    if np.any(coincident):
        angles = np.where(coincident, 0.0, angles)
    return angles


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_rows(logits: np.ndarray, labels: np.ndarray):
    """Per-row -log softmax(logits)[label] with the max-shifted form, and
    the softmax terms (e, s) that ``cross_entropy_rows_backward`` takes:
    the shifted exponentials e and their row sums s, so softmax = e / s."""
    # the exact row maxima taken column by column, several times faster than
    # max(axis=-1) on a narrow class axis; the row sum keeps its order
    row_max = logits[:, 0].copy()
    for column in logits.T[1:]:
        np.maximum(row_max, column, out=row_max)
    shifted = logits - row_max[:, None]
    picked = np.take_along_axis(shifted, labels[..., None], axis=-1)[..., 0]
    e = np.exp(shifted, out=shifted)
    s = e.sum(axis=-1)
    return np.log(s) - picked, (e, s)


def cross_entropy_rows_backward(terms, labels, weights) -> np.ndarray:
    """Gradient of sum(weights * cross_entropy_rows(logits, labels)[0])
    w.r.t. the (rows, C) logits, from the softmax terms (e, s) that the
    forward returned; the result is written over e."""
    e, s = terms
    d = np.divide(e, s[:, None], out=e)
    d[np.arange(d.shape[0]), labels] -= 1.0
    d *= weights[:, None]
    return d
