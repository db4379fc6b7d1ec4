"""Lorentz-model hyperbolic geometry toolkit.

Core geometry (``lorentz``, ``models``), entailment cones and per-pixel
losses (``entailment``), analytic gradients with a finite-difference
oracle (``grad``), Gromov delta-hyperbolicity estimation
(``hyperbolicity``), a desk-scale synthetic segmentation pipeline
(``segtoy``), uncertainty and confidence maps (``uncertainty``), a
mask-classification head (``maskhead``), and a file-oriented CLI
(``cli``).
"""

__version__ = "0.1.0"

from .lorentz import (  # noqa: F401
    EmbeddingGrid,
    LorentzPoint,
    TangentVector,
    clamp_events,
    exp_lift_origin,
    exp_map,
    geodesic_distance,
    lift_point,
    log_map,
    lorentz_inner,
    manifold_check,
    origin,
    reset_clamp_events,
    tangent_project,
)
