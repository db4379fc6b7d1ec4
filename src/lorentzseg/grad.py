"""Analytic gradients, the exponential-map Jacobian, and a
finite-difference oracle.

Derivations are at unit curvature, like the rest of the package, and
differentiate with respect to the spatial coordinates of the MOVING
point, treating its time component as dependent through
x0 = sqrt(1 + ||x'||^2) (so these are total derivatives along the
manifold).  In every two-point function below, ``x`` is the
moving point and ``y`` is the fixed anchor:

  * distance d(x, y) = acosh(Lu), Lu = x0*y0 - x'.y':

        dd/dx_j = -(y_j - (y0/x0) x_j) / sqrt(Lu^2 - 1)

  * exterior angle at the anchor, ext(y, x) = acos(A) with
    A = (x0 + y0*L)/(||y'|| sqrt(L^2-1)), L = <x, y>_L:

        dext/dx_j = 1/sqrt(1-A^2) * 1/(||y'|| sqrt(L^2-1)) *
                    [ -x_j/x0 + (y0 + x0 L)/(L^2 - 1) * (y_j - y0 x_j/x0) ]

  * the sign of the cosine between those two gradients equals
    sign((-x0*L) - y0); Euclidean counterparts (distance to the anchor
    and the angle at the anchor between its origin ray and the offset)
    are exactly orthogonal.

The training stack assembles backprop by chain rule from these closed
forms and the exponential-map Jacobian; no autodiff framework is
involved.  Central finite differences are the independent oracle used to
cross-check every formula.  The oracle has a scalar form,
``finite_difference_gradient``, and a row-wise array form that
``gradient_interaction_report`` runs once over all its samples.

The array layer has one broadcasting body per formula: dd/dpoint,
dext/dpoint and dext/danchor.  Times, inner products and anchor norms
share one broadcast shape S and spatial coordinates are S + (d,), so the
same body serves one anchor per row (S = (N,)) and all pairs (S = (P, A),
points as (P, 1, d), anchors as (1, A, d)).  dd/danchor is dd/dpoint with
the roles swapped, since the distance is symmetric.  Degenerate entries
are floored rather than raised.  The only array form a trainer calls is
the per-row dext/dpoint, ``batched_grad_ext_wrt_point``, for the pixel
head's hinge; that head contracts its distance gradient against the
anchors inline, in ``segtoy._pixel_loss_and_grad``.  The all-pairs
kernels ``grad_*_cross*`` return dense (P, A, d) tensors; no trainer
calls them.  They are the oracle of ``maskhead._pair_backward``, which
contracts the same closed forms against (P, A) weights as matmuls,
without building those tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OracleError, UsageError
from .lorentz import MAX_TANGENT_NORM, SMALL_R, LorentzPoint, sinh_ratio

FD_STEP = 1e-6  # balances truncation against round-off at 64-bit
_SAMPLE_DIM = 3  # spatial dimension of the sampled verification pairs

_REPORT_FORMAT = "lorentzseg/gradient-report/v1"

_FLOOR = 1e-12  # floor of the sqrt arguments in the array layer's kernels


def grad_lorentz_distance(x: LorentzPoint, y: LorentzPoint) -> np.ndarray:
    """Gradient of d(x, y) w.r.t. x's spatial coordinates."""
    lu = x.time * y.time - float(np.dot(x.spatial, y.spatial))
    if abs(lu) <= 1.0 + 1e-12:
        raise DomainError(f"coincident points: |x0 y0 - x'.y'| = {abs(lu)} <= 1")
    return -(y.spatial - (y.time / x.time) * x.spatial) / math.sqrt(lu * lu - 1.0)


def _ext_terms(x: LorentzPoint, y: LorentzPoint):
    """(L, ||y'||, sqrt(L^2 - 1), A) of ext(y, x) = acos(A); a pair
    on which either gradient of ext is undefined raises."""
    L = -x.time * y.time + float(np.dot(x.spatial, y.spatial))
    if L * L <= 1.0 + 1e-12:
        raise DomainError("degenerate pair: (L)^2 <= 1")
    ny = y.spatial_norm
    if ny == 0.0:
        raise UsageError("anchor at the origin has no exterior angle")
    D = math.sqrt(L * L - 1.0)
    A = (x.time + y.time * L) / (ny * D)
    if abs(A) >= 1.0 - 1e-9:
        raise DomainError(f"near-degenerate angle: |acos argument| = {abs(A)}")
    return L, ny, D, A


def grad_exterior_angle(x: LorentzPoint, y: LorentzPoint) -> np.ndarray:
    """Gradient of the exterior angle at pivot y, ext(y, x), w.r.t. the
    moving point x's spatial coordinates."""
    L, ny, D, A = _ext_terms(x, y)
    inner_term = (
        -x.spatial / x.time
        + ((y.time + x.time * L) / (L * L - 1.0))
        * (y.spatial - y.time * x.spatial / x.time)
    )
    return inner_term / (math.sqrt(1.0 - A * A) * (ny * D))


def grad_exterior_angle_anchor(x: LorentzPoint, y: LorentzPoint) -> np.ndarray:
    """Gradient of ext(y, x) w.r.t. the ANCHOR y's spatial coordinates.

    Companion of grad_exterior_angle for heads whose anchors are
    themselves learned (mask queries); obtained by the same quotient-rule
    route and verified against finite differences."""
    L, ny, D, A = _ext_terms(x, y)
    dL = x.spatial - x.time * y.spatial / y.time
    dN = L * y.spatial / y.time + y.time * dL
    d_nyD = (y.spatial / ny) * D + ny * (L / D) * dL
    dA = (dN - A * d_nyD) / (ny * D)
    return -dA / math.sqrt(1.0 - A * A)


def grad_sign_predictor(x: LorentzPoint, y: LorentzPoint) -> int:
    """sign((-x0 <x,y>_L) - y0): the predicted sign of the cosine between
    the distance gradient and the exterior-angle gradient at x."""
    L = -x.time * y.time + float(np.dot(x.spatial, y.spatial))
    s = (-x.time * L) - y.time
    return (s > 0) - (s < 0)


def exp_map_jacobian(v: np.ndarray) -> np.ndarray:
    """Jacobian of the origin exponential lift, shape (n+1, n).

    Row 0 is dx0/dv_l = (v_l/r) sinh r; the spatial block is
    delta_jl sinh(r)/r + (v_j v_l / r^2)(cosh r - sinh(r)/r), whose
    diagonal coefficient is strictly positive for every v.  At v = 0 the
    spatial block is the identity and the time row vanishes.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    n = v.size
    r = float(np.linalg.norm(v))
    jac = np.zeros((n + 1, n))
    if r == 0.0:
        jac[1:, :] = np.eye(n)
        return jac
    sr = sinh_ratio(r)
    if r < SMALL_R:
        cross = 1.0 / 3.0 + r * r / 30.0  # (cosh r - sinh r / r)/r^2
    else:
        cross = (math.cosh(r) - sr) / (r * r)
    jac[0, :] = v * sr
    jac[1:, :] = sr * np.eye(n) + cross * np.outer(v, v)
    return jac


def grad_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(x.y)/dx = y."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    if x.shape != y.shape:
        raise UsageError("dimension mismatch")
    return y.copy()


def grad_euclidean_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d||x - y||/dx = (x - y)/||x - y||."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    diff = x - y
    norm = float(np.linalg.norm(diff))
    if norm == 0.0:
        raise DomainError("distance gradient undefined at coincident points")
    return diff / norm


def grad_cosine_similarity(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d cos(x,y)/dx = (y ||x||^2 - (x.y) x) / (||y|| ||x||^3)."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise DomainError("cosine gradient undefined for zero-norm input")
    return (y * nx * nx - float(np.dot(x, y)) * x) / (ny * nx**3)


def euclidean_exterior_angle(x: np.ndarray, y: np.ndarray) -> float:
    """Euclidean analogue of the cone angle: the angle at the anchor y
    between its origin ray and the offset x - y."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    v = x - y
    nv, ny = float(np.linalg.norm(v)), float(np.linalg.norm(y))
    if nv == 0.0 or ny == 0.0:
        raise DomainError("euclidean exterior angle undefined")
    return math.acos(min(1.0, max(-1.0, float(np.dot(y, v)) / (ny * nv))))


def grad_euclidean_exterior_angle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the Euclidean exterior angle w.r.t. x.

    Because the angle only depends on the direction of x - y, the result
    is exactly orthogonal to x - y, hence to the distance gradient.
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    v = x - y
    nv, ny = float(np.linalg.norm(v)), float(np.linalg.norm(y))
    if nv == 0.0 or ny == 0.0:
        raise DomainError("euclidean exterior angle undefined")
    A = float(np.dot(y, v)) / (ny * nv)
    if abs(A) >= 1.0 - 1e-12:
        raise DomainError("collinear configuration: angle gradient undefined")
    gc = (y * nv * nv - float(np.dot(y, v)) * v) / (ny * nv**3)
    return -gc / math.sqrt(1.0 - A * A)


def finite_difference_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central differences (f(x + h e) - f(x - h e)) / 2h per coordinate,
    h = FD_STEP."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = FD_STEP
        hi, lo = f(x + step), f(x - step)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise OracleError(f"non-finite evaluation near coordinate {i}")
        out.flat[i] = (hi - lo) / (2.0 * FD_STEP)
    return out


@dataclass
class GradientReport:
    """Outcome of the sampled gradient verification protocol."""

    sample_count: int
    seed: int
    fd_step: float
    max_rel_error: float
    sign_agreement_rate: float
    euclid_orthogonality_violations: int
    samples: list = field(default_factory=list)

    def to_dict(self) -> dict:
        # vars, not dataclasses.asdict, which would deep-copy every sample
        return {"format": _REPORT_FORMAT, **vars(self)}


def _sample_pair(rng):
    """Draw a pair clear of derivational degeneracies (coincidence,
    collinearity, tiny anchors)."""
    while True:
        xs = rng.normal(size=_SAMPLE_DIM) * rng.uniform(0.3, 1.2)
        ys = rng.normal(size=_SAMPLE_DIM) * rng.uniform(0.3, 1.2)
        nx, ny = np.linalg.norm(xs), np.linalg.norm(ys)
        if min(nx, ny) < 0.05:
            continue
        x = LorentzPoint(math.sqrt(1.0 + nx * nx), xs)
        y = LorentzPoint(math.sqrt(1.0 + ny * ny), ys)
        L = -x.time * y.time + float(np.dot(xs, ys))
        if L * L - 1.0 < 1e-3:
            continue
        A = (x.time + y.time * L) / (ny * math.sqrt(L * L - 1.0))
        if abs(A) > 1.0 - 1e-3:
            continue
        cos_e = abs(np.dot(xs / nx, ys / ny))
        if cos_e > 1.0 - 1e-3:  # euclid collinear
            continue
        return x, y


def _row_central_difference(f, s: np.ndarray) -> np.ndarray:
    """The array form of finite_difference_gradient: central differences,
    h = FD_STEP, at every row of s (N, d) of a row-wise f whose values are
    (..., N); returns (..., N, d)."""
    columns = []
    for i, step in enumerate(np.eye(s.shape[1]) * FD_STEP):
        hi, lo = f(s + step), f(s - step)
        if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
            raise OracleError(f"non-finite evaluation near coordinate {i}")
        columns.append((hi - lo) / (2.0 * FD_STEP))
    return np.stack(columns, axis=-1)


def gradient_interaction_report(sample_count: int, seed: int) -> GradientReport:
    """Sample point pairs and verify every closed form against the FD
    oracle, the gradient-sign law, and Euclidean orthogonality.

    The closed forms run per sample; the FD oracles run once, as array
    expressions over all samples."""
    if sample_count <= 0:
        raise UsageError("sample_count must be positive")
    rng = np.random.default_rng(seed)
    xs, ys = np.empty((2, sample_count, _SAMPLE_DIM))
    yt = np.empty(sample_count)
    grads = np.empty((4, sample_count, _SAMPLE_DIM))
    gd, ga, ge_d, ge_a = grads
    cosines, euclid_cosines, signs = [], [], []
    agree = 0
    gated = 0
    violations = 0
    for k in range(sample_count):
        x, y = _sample_pair(rng)
        xs[k], ys[k], yt[k] = x.spatial, y.spatial, y.time
        gd[k] = grad_lorentz_distance(x, y)
        ga[k] = grad_exterior_angle(x, y)
        cos = float(np.dot(gd[k], ga[k]) / (np.linalg.norm(gd[k]) * np.linalg.norm(ga[k])))
        pred = grad_sign_predictor(x, y)
        if abs(cos) > 1e-8:
            gated += 1
            if (cos > 0) - (cos < 0) == pred:
                agree += 1

        ge_d[k] = grad_euclidean_distance(x.spatial, y.spatial)
        ge_a[k] = grad_euclidean_exterior_angle(x.spatial, y.spatial)
        cos_e = float(np.dot(ge_d[k], ge_a[k])
                      / (np.linalg.norm(ge_d[k]) * np.linalg.norm(ge_a[k])))
        if abs(cos_e) >= 1e-8:
            violations += 1
        cosines.append(cos)
        euclid_cosines.append(cos_e)
        signs.append(pred)

    y_norm = np.linalg.norm(ys, axis=1)

    def oracles(s):
        """d(x, y), ext(y, x), ||x' - y'|| and the Euclidean angle at y'."""
        x0 = np.sqrt(1.0 + np.einsum("ij,ij->i", s, s))
        L = -x0 * yt + np.einsum("ij,ij->i", s, ys)
        den = y_norm * np.sqrt(np.maximum(L * L - 1.0, 1e-300))
        v = s - ys
        nv = np.linalg.norm(v, axis=1)
        return np.stack([
            np.arccosh(np.maximum(1.0, -L)),
            np.arccos(np.clip((x0 + yt * L) / den, -1.0, 1.0)),
            nv,
            np.arccos(np.clip(np.einsum("ij,ij->i", ys, v) / (y_norm * nv), -1.0, 1.0)),
        ])

    fd = _row_central_difference(oracles, xs)
    err = (np.linalg.norm(grads - fd, axis=-1)
           / np.maximum(1.0, np.linalg.norm(grads, axis=-1))).max(axis=0)
    keys = ("x_spatial", "y_spatial", "grad_distance", "grad_ext_angle", "fd_distance",
            "fd_ext_angle", "cosine", "euclid_cosine", "predicted_sign", "rel_error")
    columns = (xs.tolist(), ys.tolist(), gd.tolist(), ga.tolist(), fd[0].tolist(),
               fd[1].tolist(), cosines, euclid_cosines, signs, err.tolist())
    max_rel = float(err.max())
    # freed before the records are built, where they would raise the peak RSS
    del xs, ys, yt, y_norm, grads, gd, ga, ge_d, ge_a, fd, err
    return GradientReport(
        sample_count=sample_count,
        seed=seed,
        fd_step=FD_STEP,
        max_rel_error=max_rel,
        sign_agreement_rate=agree / gated if gated else 1.0,
        euclid_orthogonality_violations=violations,
        samples=[dict(zip(keys, row)) for row in zip(*columns)],
    )


# --------------------------------------------------------------------------
# array layer: the per-row forms the trainers use, and the dense all-pairs
# kernels that check the mask head's contraction
# --------------------------------------------------------------------------


def _distance_grad(psp, pt, asp, at, inner):
    """dd/d(point spatial) on broadcast-compatible operands: times and
    ``inner`` share one shape S, spatial arrays are S + (d,)."""
    den = np.sqrt(np.maximum(inner * inner - 1.0, _FLOOR))
    return -(asp - (at / pt)[..., None] * psp) / den[..., None]


def _ext_grad_point(psp, pt, asp, at, inner, anorms):
    """dext(anchor, point)/d(point spatial), broadcast as in _distance_grad."""
    L = inner
    L2m1 = np.maximum(L * L - 1.0, _FLOOR)
    A = (pt + at * L) / (anorms * np.sqrt(L2m1))
    sin_term = np.sqrt(np.maximum(1.0 - A * A, _FLOOR))
    coef = 1.0 / (sin_term * anorms * np.sqrt(L2m1))
    bracket = (
        -psp / pt[..., None]
        + ((at + pt * L) / L2m1)[..., None] * (asp - (at / pt)[..., None] * psp)
    )
    return coef[..., None] * bracket


def _ext_grad_anchor(psp, pt, asp, at, inner, anorms):
    """dext(anchor, point)/d(anchor spatial), broadcast as in _distance_grad."""
    L = inner
    D = np.sqrt(np.maximum(L * L - 1.0, _FLOOR))
    A = (pt + at * L) / (anorms * D)
    sin_term = np.sqrt(np.maximum(1.0 - A * A, _FLOOR))
    dL = psp - (pt / at)[..., None] * asp
    dN = (L / at)[..., None] * asp + at[..., None] * dL
    d_nD = (asp / anorms[..., None]) * D[..., None] + (anorms * L / D)[..., None] * dL
    dA = (dN - A[..., None] * d_nD) / (anorms * D)[..., None]
    return -dA / sin_term[..., None]


def batched_grad_ext_wrt_point(pt_spatial, pt_time, an_spatial, an_time, inner, an_norms):
    """dext(anchor, point)/d(point spatial) with one anchor per row: every
    argument is already gathered to N rows -> (N, d)."""
    return _ext_grad_point(pt_spatial, pt_time, an_spatial, an_time, inner, an_norms)


def grad_distance_cross(psp, pt, asp, at, inner):
    """All-pairs dd/d(point spatial): points (P, d) x anchors (A, d) ->
    (P, A, d), from precomputed inner products (P, A)."""
    return _distance_grad(psp[:, None, :], pt[:, None], asp[None], at[None], inner)


def grad_distance_cross_anchor(psp, pt, asp, at, inner):
    """All-pairs dd/d(anchor spatial) -> (P, A, d): the distance is
    symmetric, so this is the point gradient with the roles swapped."""
    return _distance_grad(asp[None], at[None], psp[:, None, :], pt[:, None], inner)


def grad_ext_cross_point(psp, pt, asp, at, inner, anorms):
    """All-pairs dext(anchor, point)/d(point spatial) -> (P, A, d)."""
    return _ext_grad_point(psp[:, None, :], pt[:, None], asp[None], at[None], inner, anorms[None])


def grad_ext_cross_anchor(psp, pt, asp, at, inner, anorms):
    """All-pairs dext(anchor, point)/d(anchor spatial) -> (P, A, d)."""
    return _ext_grad_anchor(psp[:, None, :], pt[:, None], asp[None], at[None], inner, anorms[None])


def exp_lift_backward(v: np.ndarray, g_spatial: np.ndarray) -> np.ndarray:
    """Chain a spatial-coordinate gradient back through the origin lift.

    ``v`` (..., d) are raw tangent vectors (pre-clamp), ``g_spatial`` the
    total derivative of the loss w.r.t. the lifted spatial coordinates
    (time dependence already folded in).  Rows beyond the magnitude clamp
    chain through the rescaling map as well.
    """
    v = np.asarray(v, dtype=np.float64)
    r_raw = np.sqrt(np.einsum("...i,...i->...", v, v))
    clamped = r_raw > MAX_TANGENT_NORM
    scale = np.where(clamped, MAX_TANGENT_NORM / np.maximum(r_raw, 1e-300), 1.0)
    v_used = v * scale[..., None]
    r = np.minimum(r_raw, MAX_TANGENT_NORM)
    small = r < SMALL_R
    r_big = np.maximum(r, SMALL_R)  # generic branch evaluated safely, then discarded where small
    sr = np.where(small, 1.0 + r * r / 6.0, np.sinh(r_big) / r_big)
    cross = np.where(
        small,
        1.0 / 3.0 + r * r / 30.0,
        (np.cosh(r_big) - np.sinh(r_big) / r_big) / (r_big * r_big),
    )
    vg = np.einsum("...i,...i->...", v_used, g_spatial)
    g_v = sr[..., None] * g_spatial + cross[..., None] * vg[..., None] * v_used
    if np.any(clamped):
        # derivative of s*v/||v||: (s/||v||)(I - vv^T/||v||^2)
        radial = np.einsum("...i,...i->...", v, g_v) / np.maximum(r_raw * r_raw, 1e-300)
        g_v = np.where(
            clamped[..., None],
            scale[..., None] * (g_v - radial[..., None] * v),
            g_v,
        )
    return g_v
