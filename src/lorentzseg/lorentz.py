"""Lorentz (hyperboloid) model primitives.

Points live on the upper sheet of the two-sheeted hyperboloid in
(n+1)-dimensional Minkowski space,

    H^n = { x = (x0, x') : <x, x>_L = -1, x0 > 0 },

where the Lorentzian inner product is <x, y>_L = -x0*y0 + sum_i xi*yi.
Membership is equivalent to x0 = sqrt(1 + ||x'||^2).  The package works
at unit curvature, -1, throughout, and no function takes a curvature:
curvature -c is this hyperboloid scaled by 1/sqrt(c), so distances scale
by 1/sqrt(c) and every scale-free quantity (exterior angles, cone
apertures, delta_rel) is unchanged.

Two layers are provided.  The scalar layer works on immutable
``LorentzPoint`` / ``TangentVector`` values and enforces contracts
loudly.  The array layer (functions taking plain ndarrays, plus
``EmbeddingGrid``) serves grid-sized workloads.  Its kernels accept
caller-supplied precomputed time components and spatial norms so hot
loops avoid redundant square roots, and they absorb round-off by
clamping instead of raising.

Tangent magnitudes are clamped so that ||v|| <= MAX_TANGENT_NORM before
cosh/sinh; every clamp is counted (see ``clamp_events``) and never
produces a silent NaN.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError

# ||v|| above this is rescaled before cosh/sinh so doubles stay finite
MAX_TANGENT_NORM = 12.0

# below this, sinh(r)/r and friends switch to series (rel. error < 1e-16)
SMALL_R = 1e-4

_MANIFOLD_TOL = 1e-8
_TANGENT_TOL = 1e-9


class _ClampCounter:
    """Atomic tally of tangent-magnitude clamp events."""

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self, n: int = 1):
        with self._lock:
            self._count += n

    def value(self) -> int:
        with self._lock:
            return self._count

    def reset(self):
        with self._lock:
            self._count = 0


_CLAMPS = _ClampCounter()


def clamp_events() -> int:
    """Number of tangent-magnitude clamps since the last reset."""
    return _CLAMPS.value()


def reset_clamp_events():
    _CLAMPS.reset()


def _as_spatial(v) -> np.ndarray:
    arr = np.array(v, dtype=np.float64, copy=True).reshape(-1)
    if arr.size < 1:
        raise UsageError("spatial vector must have dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise UsageError("spatial vector must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LorentzPoint:
    """A point on the hyperboloid: time component plus spatial vector.

    Invariants checked at construction: the time component matches
    sqrt(1 + ||spatial||^2) and the Lorentz self-product is -1.  The
    tolerance scales with x0^2 because evaluating <x,x>_L + 1 cancels
    terms of magnitude x0^2.
    """

    time: float
    spatial: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "spatial", _as_spatial(self.spatial))
        object.__setattr__(self, "time", float(self.time))
        if not math.isfinite(self.time) or self.time <= 0:
            raise DomainError(f"time component must be positive and finite, got {self.time}")
        sq = float(np.dot(self.spatial, self.spatial))
        residual = abs(-self.time * self.time + sq + 1.0)
        if residual > _MANIFOLD_TOL * max(1.0, self.time * self.time):
            raise DomainError(
                f"point is off the manifold: |<x,x>_L + 1| = {residual:.3e} "
                f"(time={self.time}, ||spatial||^2={sq})"
            )

    @property
    def dim(self) -> int:
        return self.spatial.size

    @property
    def ambient(self) -> np.ndarray:
        out = np.empty(self.dim + 1)
        out[0] = self.time
        out[1:] = self.spatial
        return out

    @property
    def spatial_norm(self) -> float:
        return float(np.linalg.norm(self.spatial))

    def same_coords(self, other: "LorentzPoint") -> bool:
        return (
            self.time == other.time
            and self.dim == other.dim
            and bool(np.array_equal(self.spatial, other.spatial))
        )


@dataclass(frozen=True)
class TangentVector:
    """An ambient vector Lorentz-orthogonal to its base point."""

    base: LorentzPoint
    components: np.ndarray

    def __post_init__(self):
        comps = np.array(self.components, dtype=np.float64, copy=True).reshape(-1)
        if comps.size != self.base.dim + 1:
            raise UsageError(
                f"tangent components must be ambient ({self.base.dim + 1}-dim), got {comps.size}"
            )
        if not np.all(np.isfinite(comps)):
            raise UsageError("tangent components must be finite")
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)
        ip = lorentz_inner(comps, self.base.ambient)
        scale = max(1.0, float(np.abs(comps).max()) * self.base.time)
        if abs(ip) > _TANGENT_TOL * scale:
            raise DomainError(f"vector is not tangent at base: <v,z>_L = {ip:.3e}")

    @property
    def norm(self) -> float:
        """Lorentzian norm sqrt(<v,v>_L); nonnegative on tangent spaces."""
        sq = lorentz_inner(self.components, self.components)
        return math.sqrt(max(sq, 0.0))


def lorentz_inner(x, y) -> float:
    """Lorentzian inner product -x0*y0 + sum_i xi*yi of ambient vectors."""
    xa = np.asarray(x, dtype=np.float64).reshape(-1)
    ya = np.asarray(y, dtype=np.float64).reshape(-1)
    if xa.shape != ya.shape:
        raise UsageError(f"dimension mismatch: {xa.shape} vs {ya.shape}")
    return float(-xa[0] * ya[0] + np.dot(xa[1:], ya[1:]))


def origin(dim: int) -> LorentzPoint:
    """The hyperboloid vertex (1, 0, ..., 0)."""
    if dim < 1:
        raise UsageError("dimension must be >= 1")
    return LorentzPoint(1.0, np.zeros(dim))


def lift_point(spatial) -> LorentzPoint:
    """Attach the time component x0 = sqrt(1 + ||spatial||^2); an
    overflowing ||spatial||^2 raises OverflowError, with no numpy warning."""
    s = _as_spatial(spatial)
    with np.errstate(over="ignore"):
        sq = float(np.dot(s, s))
    if not math.isfinite(sq):
        raise OverflowError("||spatial||^2 overflowed; rescale inputs")
    return LorentzPoint(math.sqrt(1.0 + sq), s)


def sinh_ratio(r: float) -> float:
    """sinh(r)/r with a series fallback near zero."""
    if r < SMALL_R:
        return 1.0 + r * r / 6.0
    return math.sinh(r) / r


def _clamp_tangent(v: np.ndarray, rho: float):
    """Rescale v so ||v|| <= MAX_TANGENT_NORM, counting the event."""
    if rho > MAX_TANGENT_NORM:
        _CLAMPS.bump()
        v = v * (MAX_TANGENT_NORM / rho)
        rho = MAX_TANGENT_NORM
    return v, rho


def exp_lift_origin(v_e) -> LorentzPoint:
    """Exponential map at the origin of a purely spatial tangent vector.

    For u = [0, v_e] the tangent projection at the origin is trivial and

        expm_O(u) = [ cosh(||v_e||), sinh(||v_e||)/||v_e|| * v_e ].

    The geodesic distance of the result from the origin equals ||v_e||.
    """
    v = _as_spatial(v_e)
    rho = float(np.linalg.norm(v))
    v, rho = _clamp_tangent(v, rho)
    if rho == 0.0:
        return origin(v.size)
    spatial = sinh_ratio(rho) * v
    # time enforced from the spatial part so membership holds by construction
    sq = float(np.dot(spatial, spatial))
    return LorentzPoint(math.sqrt(1.0 + sq), spatial)


def tangent_project(z: LorentzPoint, u) -> TangentVector:
    """Orthogonal projection of an ambient vector onto the tangent space at z:
    proj_z(u) = u + z * <z, u>_L."""
    ua = np.asarray(u, dtype=np.float64).reshape(-1)
    if ua.size != z.dim + 1:
        raise UsageError(f"ambient vector must be {z.dim + 1}-dim, got {ua.size}")
    za = z.ambient
    comps = ua + za * lorentz_inner(za, ua)
    # re-orthogonalize once; the correction is pure round-off
    comps = comps + za * lorentz_inner(za, comps)
    return TangentVector(z, comps)


def exp_map(z: LorentzPoint, v: TangentVector) -> LorentzPoint:
    """Geodesic shooting: expm_z(v) = cosh(|v|)z + sinh(|v|)/|v| v."""
    if v.base is not z and not v.base.same_coords(z):
        raise UsageError("tangent vector is not based at z")
    comps = np.array(v.components, copy=True)
    rho = v.norm
    comps, rho = _clamp_tangent(comps, rho)
    if rho == 0.0:
        return LorentzPoint(z.time, z.spatial)
    amb = math.cosh(rho) * z.ambient + sinh_ratio(rho) * comps
    spatial = amb[1:]
    sq = float(np.dot(spatial, spatial))
    return LorentzPoint(math.sqrt(1.0 + sq), spatial)


def log_map(z: LorentzPoint, x: LorentzPoint) -> TangentVector:
    """Inverse of the exponential map.

    logm_z(x) = acosh(-<z,x>_L) / sqrt(<z,x>_L^2 - 1) * proj_z(x);
    returns the zero vector when x coincides with z.  The Lorentzian norm
    of the result equals the geodesic distance d(z, x).
    """
    if z.same_coords(x):
        return TangentVector(z, np.zeros(z.dim + 1))
    alpha = -lorentz_inner(z.ambient, x.ambient)
    if alpha < 1.0 - 1e-8:
        raise DomainError(f"-<z,x>_L = {alpha} < 1: inputs are numerically off-manifold")
    alpha = max(alpha, 1.0)
    proj = x.ambient + z.ambient * lorentz_inner(z.ambient, x.ambient)
    h = alpha - 1.0
    if h < 1e-6:
        coef = 1.0 - h / 3.0
    else:
        coef = math.acosh(alpha) / math.sqrt(alpha * alpha - 1.0)
    return TangentVector(z, coef * proj)


def geodesic_distance(x: LorentzPoint, y: LorentzPoint) -> float:
    """d(x, y) = acosh(-<x,y>_L); zero iff the points coincide.

    Arguments are canonicalized (sorted by time component) before
    evaluation so the result is bit-identical under swapping.
    """
    if x.same_coords(y):
        return 0.0
    if y.time < x.time:
        x, y = y, x
    arg = -lorentz_inner(x.ambient, y.ambient)
    arg = max(arg, 1.0)
    return math.acosh(arg)


def manifold_check(x, tol: float) -> bool:
    """True iff |<x,x>_L + 1| <= tol and the time component is positive.

    Accepts a LorentzPoint or a raw ambient vector, so off-manifold and
    wrong-sheet coordinates can be probed directly.
    """
    if tol <= 0:
        raise UsageError("tolerance must be positive")
    amb = x.ambient if isinstance(x, LorentzPoint) else np.asarray(x, dtype=np.float64).reshape(-1)
    ip = lorentz_inner(amb, amb)
    return abs(ip + 1.0) <= tol and amb[0] > 0


# --------------------------------------------------------------------------
# array layer
# --------------------------------------------------------------------------


def spatial_sq_norms(spatial: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", spatial, spatial)


def time_from_spatial(spatial: np.ndarray) -> np.ndarray:
    """x0 = sqrt(1 + ||x'||^2) along the last axis."""
    return np.sqrt(1.0 + spatial_sq_norms(spatial))


def batched_exp_lift(v: np.ndarray):
    """Vectorized exponential lift at the origin.

    v has shape (..., d).  Returns (time, spatial) with shapes (...,) and
    (..., d).  Rows whose norm exceeds MAX_TANGENT_NORM are rescaled onto
    the cap; each such row counts one clamp event.
    """
    v = np.asarray(v, dtype=np.float64)
    r = np.sqrt(spatial_sq_norms(v))
    over = r > MAX_TANGENT_NORM
    n_over = int(np.count_nonzero(over))
    if n_over:
        _CLAMPS.bump(n_over)
        scale = np.ones_like(r)
        scale[over] = MAX_TANGENT_NORM / r[over]
        v = v * scale[..., None]
        r = np.minimum(r, MAX_TANGENT_NORM)
    ratio = np.where(r < SMALL_R, 1.0 + r * r / 6.0, np.sinh(r) / np.where(r == 0.0, 1.0, r))
    spatial = ratio[..., None] * v
    return time_from_spatial(spatial), spatial


def inner_to_anchors(
    spatial: np.ndarray,
    time: np.ndarray,
    anchor_spatial: np.ndarray,
    anchor_time: np.ndarray,
) -> np.ndarray:
    """<x, a>_L for every point (..., d) against every anchor (C, d) -> (..., C)."""
    return spatial @ anchor_spatial.T - time[..., None] * anchor_time


def distances_from_inner(inner: np.ndarray) -> np.ndarray:
    """Geodesic distances acosh(-<x, y>_L) from precomputed inner products;
    acosh argument clamped to >= 1 so round-off never yields NaN."""
    return np.arccosh(np.maximum(-inner, 1.0))


def pairwise_lorentz_distances(spatial: np.ndarray) -> np.ndarray:
    """Symmetric pairwise geodesic distances of lifted points (n, d) -> (n, n).

    The diagonal is exactly zero and the matrix is mirrored from the upper
    triangle so it is bitwise symmetric.
    """
    spatial = np.asarray(spatial, dtype=np.float64)
    t = time_from_spatial(spatial)
    inner = spatial @ spatial.T - np.outer(t, t)
    d = distances_from_inner(inner)
    np.fill_diagonal(d, 0.0)
    upper = np.triu(d, 1)
    return upper + upper.T


def pairwise_euclidean_distances(points: np.ndarray) -> np.ndarray:
    """Symmetric pairwise Euclidean distances (n, d) -> (n, n)."""
    points = np.asarray(points, dtype=np.float64)
    sq = spatial_sq_norms(points)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    d = np.sqrt(np.maximum(d2, 0.0))
    np.fill_diagonal(d, 0.0)
    upper = np.triu(d, 1)
    return upper + upper.T


@dataclass(frozen=True)
class EmbeddingGrid:
    """H x W field of hyperboloid points with cached time components."""

    spatial: np.ndarray  # (H, W, d)
    time: np.ndarray  # (H, W)

    def __post_init__(self):
        spatial = np.asarray(self.spatial, dtype=np.float64)
        time = np.asarray(self.time, dtype=np.float64)
        if spatial.ndim != 3 or time.shape != spatial.shape[:2]:
            raise UsageError(
                f"grid shapes inconsistent: spatial {spatial.shape}, time {time.shape}"
            )
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "time", time)

    @classmethod
    def from_tangent(cls, v: np.ndarray) -> "EmbeddingGrid":
        time, spatial = batched_exp_lift(v)
        return cls(spatial, time)

    @property
    def shape(self):
        return self.time.shape

    @property
    def dim(self) -> int:
        return self.spatial.shape[-1]

    @property
    def spatial_norms(self) -> np.ndarray:
        return np.sqrt(spatial_sq_norms(self.spatial))

    def flat(self):
        h, w = self.shape
        return self.spatial.reshape(h * w, self.dim), self.time.reshape(h * w)

    def point(self, row: int, col: int) -> LorentzPoint:
        return LorentzPoint(float(self.time[row, col]), self.spatial[row, col])
