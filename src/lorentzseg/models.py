"""Isometric conversions among the Lorentz, Poincare, and Klein models,
and hyperbolic averaging via the Einstein midpoint.

For a hyperboloid point x = (x0, x') at unit curvature, -1, like the rest
of the package:

    Poincare:  p = x' / (x0 + 1)
    Klein:     k = x' / x0

with inverses

    x0 = (1 + ||p||^2) / (1 - ||p||^2),  x' = 2p / (1 - ||p||^2)
    x0 = 1 / sqrt(1 - ||k||^2),          x' = x0 * k

and the direct ball-to-ball maps

    p = k / (1 + sqrt(1 - ||k||^2)),   k = 2p / (1 + ||p||^2).

Ball points must satisfy ||.||^2 < 1; conversions reject inputs within
1e-12 of the boundary rather than emitting huge coordinates.
``hyperbolic_mean_arrays`` is the array kernel of ``hyperbolic_mean``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .lorentz import LorentzPoint, _as_spatial

_BOUNDARY_GUARD = 1e-12


def _check_ball(vec: np.ndarray, model: str):
    sq = float(np.dot(vec, vec))
    if sq >= 1.0 - _BOUNDARY_GUARD:
        raise DomainError(f"{model} point has ||.||^2 = {sq} too close to the unit ball boundary")


@dataclass(frozen=True)
class PoincarePoint:
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _as_spatial(self.p))
        _check_ball(self.p, "Poincare")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.p))


@dataclass(frozen=True)
class KleinPoint:
    k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _as_spatial(self.k))
        _check_ball(self.k, "Klein")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.k))


def lorentz_to_poincare(x: LorentzPoint) -> PoincarePoint:
    return PoincarePoint(x.spatial / (x.time + 1.0))


def poincare_to_lorentz(p: PoincarePoint) -> LorentzPoint:
    sq = float(np.dot(p.p, p.p))
    denom = 1.0 - sq
    x0 = (1.0 + sq) / denom
    return LorentzPoint(x0, 2.0 * p.p / denom)


def lorentz_to_klein(x: LorentzPoint) -> KleinPoint:
    return KleinPoint(x.spatial / x.time)


def klein_to_lorentz(k: KleinPoint) -> LorentzPoint:
    sq = float(np.dot(k.k, k.k))
    x0 = 1.0 / math.sqrt(1.0 - sq)
    return LorentzPoint(x0, x0 * k.k)


def klein_to_poincare(k: KleinPoint) -> PoincarePoint:
    sq = float(np.dot(k.k, k.k))
    return PoincarePoint(k.k / (1.0 + math.sqrt(1.0 - sq)))


def poincare_to_klein(p: PoincarePoint) -> KleinPoint:
    sq = float(np.dot(p.p, p.p))
    return KleinPoint(2.0 * p.p / (1.0 + sq))


def einstein_midpoint(points: list[KleinPoint]) -> KleinPoint:
    """Gamma-weighted Klein average: sum(gamma_i k_i) / sum(gamma_i) with
    gamma_i = 1/sqrt(1 - ||k_i||^2).  Permutation invariant up to the
    fixed left-to-right summation order of the input list."""
    if not points:
        raise UsageError("einstein_midpoint of an empty list")
    return KleinPoint(einstein_midpoint_arrays(np.stack([pt.k for pt in points])))


def einstein_midpoint_arrays(ks: np.ndarray) -> np.ndarray:
    """Array kernel for the Einstein midpoint over rows of (n, d)."""
    sq = np.einsum("ij,ij->i", ks, ks)
    if np.any(sq >= 1.0 - _BOUNDARY_GUARD):
        raise DomainError("a Klein point sits on the unit ball boundary")
    gammas = 1.0 / np.sqrt(1.0 - sq)
    return (gammas[:, None] * ks).sum(axis=0) / gammas.sum()


def hyperbolic_mean(points: list[LorentzPoint]) -> LorentzPoint:
    """Average hyperboloid points through the Klein model and map back."""
    if not points:
        raise UsageError("hyperbolic_mean of an empty list")
    return klein_to_lorentz(einstein_midpoint([lorentz_to_klein(x) for x in points]))


def hyperbolic_mean_arrays(spatial: np.ndarray, time: np.ndarray):
    """Array kernel: Einstein-midpoint mean of lifted points (n, d)/(n,).

    Returns (mean_time, mean_spatial)."""
    if spatial.shape[0] == 0:
        raise UsageError("hyperbolic_mean of an empty set")
    mid = einstein_midpoint_arrays(spatial / time[:, None])
    x0 = 1.0 / math.sqrt(1.0 - float(np.dot(mid, mid)))
    return x0, x0 * mid


def poincare_distance_reference(p: PoincarePoint, q: PoincarePoint) -> float:
    """Poincare-ball geodesic distance in the Mobius-free acosh form.

    Exists as an isometry test oracle only; production distance
    computations go through the Lorentz inner product.
    """
    diff_sq = float(np.dot(p.p - q.p, p.p - q.p))
    pp = 1.0 - float(np.dot(p.p, p.p))
    qq = 1.0 - float(np.dot(q.p, q.p))
    arg = 1.0 + 2.0 * diff_sq / (pp * qq)
    return math.acosh(max(arg, 1.0))
