"""Entailment cones and the per-pixel loss stack.

Every class anchor x on the hyperboloid carries a geodesically convex
cone opening away from the origin with half-aperture

    aper(x) = asin( 2K / (sqrt(c) ||x'||) ),

which shrinks as the anchor moves outward.  Membership of a point y in
the cone of x is measured by the exterior angle at the pivot x of the
geodesic triangle origin-x-y,

    ext(x, y) = acos( (y0 + x0 * cL) / (||x'|| sqrt(cL^2 - 1)) ),
    cL = c <x, y>_L,

which is 0 when y lies directly beyond x on its outward ray and grows as
y swings off-axis.  The hinge max(0, ext - aper) penalizes points outside
the cone; classification logits are negative geodesic distances scaled by
a temperature.

The scalar functions read c from the anchor's own ``Curvature``; the
array layer works at unit curvature, like the rest of the array kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .lorentz import (
    Curvature,
    LorentzPoint,
    distances_from_inner,
    geodesic_distance,
    inner_to_anchors,
    lorentz_inner,
    manifold_check,
)

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class EntailmentConfig:
    """Cone constant K; the curvature is the anchors' own."""

    K: float = 0.1

    def __post_init__(self):
        if not (self.K > 0 and math.isfinite(self.K)):
            raise UsageError(f"cone constant K must be positive, got {self.K}")

    @property
    def min_anchor_norm(self) -> float:
        """Smallest spatial norm at which the aperture of a unit-curvature
        anchor is defined; at curvature c it is this over sqrt(c)."""
        return 2.0 * self.K


@dataclass(frozen=True)
class LossConfig:
    """Scalars of the per-pixel objective.

    tau is the softmax temperature on negative distances and lambda_w
    weighs the entailment hinge.
    """

    tau: float = 0.1
    lambda_w: float = 0.5

    def __post_init__(self):
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise UsageError(f"temperature must be positive, got {self.tau}")
        if not (self.lambda_w >= 0 and math.isfinite(self.lambda_w)):
            raise UsageError(f"entailment weight must be nonnegative, got {self.lambda_w}")


@dataclass(frozen=True)
class PrototypeSet:
    """C class anchors on one hyperboloid, with their class labels."""

    anchors: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.anchors) == 0:
            raise UsageError("prototype set needs at least one anchor")
        if len(self.anchors) != len(self.labels):
            raise UsageError("anchors and labels differ in length")
        object.__setattr__(self, "anchors", tuple(self.anchors))
        object.__setattr__(self, "labels", tuple(self.labels))
        c = self.anchors[0].curvature.c
        for a in self.anchors:
            if a.curvature.c != c:
                raise UsageError("anchors mix curvatures")
            if not manifold_check(a, 1e-8):
                raise DomainError("anchor fails the manifold check")
        object.__setattr__(self, "_spatial", np.stack([a.spatial for a in self.anchors]))
        object.__setattr__(self, "_time", np.array([a.time for a in self.anchors]))

    @property
    def n_classes(self) -> int:
        return len(self.anchors)

    @property
    def curvature(self) -> Curvature:
        return self.anchors[0].curvature

    @property
    def spatial(self) -> np.ndarray:
        return self._spatial

    @property
    def time(self) -> np.ndarray:
        return self._time

    @property
    def spatial_norms(self) -> np.ndarray:
        return np.linalg.norm(self._spatial, axis=1)

    def validate_apertures(self, cfg: EntailmentConfig) -> "PrototypeSet":
        """Reject anchors whose cone aperture is undefined (degenerate
        ||x'|| <= 2K/sqrt(c)); returns self for chaining."""
        floor = cfg.min_anchor_norm / self.curvature.sqrt_c
        norms = self.spatial_norms
        bad = np.nonzero(norms <= floor)[0]
        if bad.size:
            i = int(bad[0])
            raise UsageError(
                f"anchor {self.labels[i]!r} has spatial norm {norms[i]:.6g} <= "
                f"2K/sqrt(c) = {floor:.6g}; its cone aperture is undefined"
            )
        return self


def half_aperture(x: LorentzPoint, cfg: EntailmentConfig) -> float:
    """Half-aperture asin(2K/(sqrt(c)||x'||)) at the anchor's own
    curvature c, in (0, pi/2], strictly decreasing in its spatial norm."""
    norm = x.spatial_norm
    arg = 2.0 * cfg.K / (x.curvature.sqrt_c * norm) if norm > 0 else math.inf
    if arg > 1.0 + 1e-12:
        raise DomainError(
            f"aperture undefined at anchor with ||x'|| = {norm:.6g}: "
            f"asin argument {arg:.6g} > 1"
        )
    return math.asin(min(arg, 1.0))


def exterior_angle(x: LorentzPoint, y: LorentzPoint) -> float:
    """Exterior angle in [0, pi] at pivot x of the triangle origin-x-y."""
    if x.curvature.c != y.curvature.c:
        raise UsageError("mixed curvatures")
    c = x.curvature.c
    if x.spatial_norm == 0.0:
        raise UsageError("exterior angle undefined at the origin anchor")
    cl = c * lorentz_inner(x.ambient, y.ambient)
    if cl * cl <= 1.0 + _DEGENERATE_TOL:
        raise DomainError(
            f"degenerate configuration: (c<x,y>_L)^2 = {cl * cl:.12g} <= 1 "
            "(coincident or numerically off-manifold points)"
        )
    num = y.time + x.time * cl
    den = x.spatial_norm * math.sqrt(cl * cl - 1.0)
    return math.acos(min(1.0, max(-1.0, num / den)))


def entailment_loss(x: LorentzPoint, y: LorentzPoint, cfg: EntailmentConfig) -> float:
    """Hinge max(0, ext(x, y) - aper(x)); zero iff y is inside or on the cone."""
    return max(0.0, exterior_angle(x, y) - half_aperture(x, cfg))


def distance_logits(protos: PrototypeSet, y: LorentzPoint, cfg: LossConfig) -> np.ndarray:
    """Length-C vector with component i = -d_L(x_i, y)/tau; the argmax is
    the nearest prototype."""
    d = np.array([geodesic_distance(a, y) for a in protos.anchors])
    return -d / cfg.tau


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
    entail_cfg: EntailmentConfig,
    loss_cfg: LossConfig,
) -> float:
    """Cross-entropy plus lambda_w times the hinge against the
    ground-truth prototype only."""
    ce = pixel_cross_entropy(distance_logits(protos, y, loss_cfg), label)
    if loss_cfg.lambda_w == 0.0:
        return ce
    return ce + loss_cfg.lambda_w * entailment_loss(protos.anchors[label], y, entail_cfg)


# --------------------------------------------------------------------------
# array layer
# --------------------------------------------------------------------------


def anchor_apertures(anchor_spatial_norms: np.ndarray, K: float) -> np.ndarray:
    """Half-apertures asin(2K/||x'||) of unit-curvature anchors."""
    arg = 2.0 * K / anchor_spatial_norms
    if np.any(arg > 1.0 + 1e-12):
        raise DomainError("aperture undefined for an anchor with tiny spatial norm")
    return np.arcsin(np.minimum(arg, 1.0))


def ext_angles_to_anchors(
    spatial: np.ndarray,
    time: np.ndarray,
    anchor_spatial: np.ndarray,
    anchor_time: np.ndarray,
    inner: np.ndarray | None = None,
    anchor_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Exterior angles ext(anchor_j, point_i) for points (..., d) against
    anchors (C, d), returned as (..., C).  Precomputed inner products and
    anchor spatial norms are accepted."""
    if inner is None:
        inner = inner_to_anchors(spatial, time, anchor_spatial, anchor_time)
    if anchor_norms is None:
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


def distance_logit_matrix(
    spatial: np.ndarray,
    time: np.ndarray,
    anchor_spatial: np.ndarray,
    anchor_time: np.ndarray,
    tau: float,
    inner: np.ndarray | None = None,
) -> np.ndarray:
    """Batched -d_L/tau logits, shape (..., C)."""
    if inner is None:
        inner = inner_to_anchors(spatial, time, anchor_spatial, anchor_time)
    return -distances_from_inner(inner) / tau


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_rows(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row -log softmax(logits)[label] with the max-shifted form."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    picked = np.take_along_axis(shifted, labels[..., None], axis=-1)[..., 0]
    return lse - picked
