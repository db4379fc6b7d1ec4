"""Mask-classification head on the hyperboloid.

N learned queries each predict a class distribution and a soft binary
mask.  Class logits score queries against the class prototypes
(sample-to-prototype),

    q_ij = -w_d * d(x_i, q_j) - max(0, ext(x_i, q_j) - aper(x_i)),

with an appended learned scalar column for "no object".  Mask logits
score pixel embeddings against each mask query (sample-to-sample),

    m^d = (-d + b_d)/s_d,   m^a = (-ext + b_a)/s_a,   m^q = m^d + m^a,

with a sigmoid downstream; the published shifts put the cone boundary
(b_a = 0.17, the unit-radius aperture) and the b_d = 1 distance shell at
logit zero.  The pixels enter as the two arrays of one lift, (spatial,
time).  The head's parameters are three blocks of the model's dict:
class_tangents and mask_tangents (N, d) and no_object_bias (1,).
Training runs in the loop every head shares (``segtoy._descend``), which
steps every block from the gradients ``_mask_loss`` returns.  Each step
matches queries to ground-truth segments by Hungarian assignment, applies
cross-entropy on classes plus focal and dice losses on matched masks,
supervises unmatched queries toward no-object, and backpropagates through
every term by chain rule.  Segments
travel as class columns plus one binary (M, pixels) mask matrix.  The
class and mask logits go back to the queries and the pixels through
``grad.pair_backward``.  The backward takes what the forward computed:
the lift terms of pixels and queries, the softmax terms of the class
cross-entropy, and the sigmoid terms that ``matching_cost`` took of the
mask logits.

The fixed values are module constants: W_D, B_D, S_D and B_A, the focal
exponent GAMMA, the loss weights LAMBDA_CLS, LAMBDA_FOCAL and LAMBDA_DICE,
and NO_OBJECT_WEIGHT; CLASS_LR_SCALE, the larger step of class_tangents
and no_object_bias, is part of ``segtoy``'s step rule.  ``MaskHeadConfig``
holds the two settings that vary: the query count ``n_queries`` and the
angle scale ``s_a`` (0.02; the angle ablation sets it to 1e9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import grad as gr
from .entailment import (
    PrototypeSet,
    cross_entropy_rows,
    cross_entropy_rows_backward,
    ext_angles_to_anchors,
    softmax_rows,
)
from .errors import UsageError
from .lorentz import (
    batched_exp_lift,
    distances_from_inner,
    inner_to_anchors,
)
from .segtoy import (
    DescriptorBank,
    LabelMap,
    SyntheticScene,
    TrainConfig,
    TrainResult,
    _descend,
    build_prototypes,
    encoder_forward,
    scene_segments,
)
from .uncertainty import ScalarMap, angle_uncertainty

_DICE_EPS = 1.0  # the smoothing term of dice_loss
W_D = 1.0
B_D = 1.0
S_D = 0.1
B_A = 0.17
GAMMA = 2.0
LAMBDA_CLS = 1.0
LAMBDA_FOCAL = 20.0
LAMBDA_DICE = 1.0
NO_OBJECT_WEIGHT = 0.1


@dataclass(frozen=True)
class MaskHeadConfig:
    """The settable part of the head: the query count and the angle-logit
    scale s_a (the angle ablation sets it to 1e9, switching m^a off)."""

    n_queries: int = 12
    s_a: float = 0.02

    def __post_init__(self):
        if self.n_queries < 1:
            raise UsageError(f"n_queries must be >= 1, got {self.n_queries}")
        if not (math.isfinite(self.s_a) and self.s_a > 0):
            raise UsageError(f"s_a must be finite and positive, got {self.s_a}")


def _class_logits(qsp, qt, protos: PrototypeSet):
    """(N, C) class logits -W_D*distance minus the cone hinge of lifted
    queries against the prototypes and their apertures, with the inner
    products and the active-hinge mask that the backward pass reuses."""
    inner = inner_to_anchors(qsp, qt, protos.spatial, protos.time)
    d = distances_from_inner(inner)
    ext = ext_angles_to_anchors(qsp, qt, protos.spatial, protos.time, inner=inner)
    apers = protos.apertures[None, :]
    logits = -W_D * d - np.maximum(0.0, ext - apers)
    return logits, inner, ext > apers


def _mask_logits(sp, t, msp, mt, cfg: MaskHeadConfig):
    """(pixels, N) mask logits m^d + m^a of lifted pixels against the lifted
    mask queries, with the inner products that the backward pass reuses."""
    inner = inner_to_anchors(sp, t, msp, mt)
    d = distances_from_inner(inner)
    ext = ext_angles_to_anchors(sp, t, msp, mt, inner=inner)
    return (-d + B_D) / S_D + (-ext + B_A) / cfg.s_a, inner


def class_query_logits(protos: PrototypeSet, params: dict) -> np.ndarray:
    """(N, C) matrix of -W_D*distance minus the cone hinge of the lifted
    class queries of ``params``, with the cone apertures the prototype set
    carries."""
    qt, qsp, _ = batched_exp_lift(params["class_tangents"])
    return _class_logits(qsp, qt, protos)[0]


def mask_query_logits(params: dict, spatial: np.ndarray, time: np.ndarray,
                      cfg: MaskHeadConfig) -> np.ndarray:
    """(N, H, W) mask logits m^d + m^a of the lifted mask queries of
    ``params`` at the lifted pixels (spatial, time), before the sigmoid."""
    mt, msp, _ = batched_exp_lift(params["mask_tangents"])
    logits, _ = _mask_logits(spatial.reshape(time.size, -1), time.reshape(-1), msp, mt, cfg)
    return logits.T.reshape(-1, *time.shape)


def hungarian_match(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost injective assignment of M columns (segments) to N rows
    (queries); returns the query index for each segment."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise UsageError("cost must be a matrix")
    n, m = cost.shape
    if m > n:
        raise UsageError(f"more segments ({m}) than queries ({n})")
    if not np.all(np.isfinite(cost)):
        raise UsageError("matching cost must be finite")
    seg_idx, query_idx = linear_sum_assignment(cost.T)
    out = np.empty(m, dtype=np.int64)
    out[seg_idx] = query_idx
    return out


def focal_loss(pred_prob_map: np.ndarray, gt_mask: np.ndarray, gamma: float = GAMMA) -> float:
    """Mean of -(1 - p_t)^gamma * log p_t over the map."""
    p = np.asarray(pred_prob_map, dtype=np.float64)
    g = np.asarray(gt_mask, dtype=np.float64)
    if p.shape != g.shape:
        raise UsageError("shape mismatch")
    p = np.clip(p, 1e-300, 1.0 - 1e-16)
    pt = np.where(g > 0.5, p, 1.0 - p)
    return float(np.mean(-((1.0 - pt) ** gamma) * np.log(pt)))


def dice_loss(pred_prob_map: np.ndarray, gt_mask: np.ndarray) -> float:
    """1 - (2*sum(p*g) + eps) / (sum(p) + sum(g) + eps), eps = _DICE_EPS."""
    p = np.asarray(pred_prob_map, dtype=np.float64)
    g = np.asarray(gt_mask, dtype=np.float64)
    if p.shape != g.shape:
        raise UsageError("shape mismatch")
    num = 2.0 * float((p * g).sum()) + _DICE_EPS
    den = float(p.sum() + g.sum()) + _DICE_EPS
    return 1.0 - num / den


def semantic_map(class_probs: np.ndarray, mask_probs: np.ndarray, legend=None) -> LabelMap:
    """Per-pixel argmax of sum_i class_probs[i, c] * mask_probs[i, h, w];
    ties break to the lowest class index."""
    scores = np.einsum("nc,nhw->hwc", class_probs, mask_probs)
    values = scores.argmax(axis=2)
    return LabelMap(values, dict(legend or {}))


def mask_angle_uncertainty(spatial: np.ndarray, time: np.ndarray, params: dict) -> ScalarMap:
    """Minimum exterior angle of the lifted pixels (spatial, time) against
    the lifted mask queries of ``params``."""
    mt, msp, _ = batched_exp_lift(params["mask_tangents"])
    return angle_uncertainty(spatial, time, msp, mt)


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


def _softplus(z):
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def _sigmoid_logs(z):
    """sigmoid(z) with log sigmoid(z) and log sigmoid(-z), both stable."""
    return 1.0 / (1.0 + np.exp(-z)), -_softplus(-z), -_softplus(z)


def matching_cost(class_probs: np.ndarray, mask_logits: np.ndarray, cols, masks):
    """(cost, focal, dice, sig): the assignment cost -LAMBDA_CLS *
    p(class) + LAMBDA_FOCAL * focal + LAMBDA_DICE * dice of every (query,
    segment) pair and the focal and dice losses it is made of, each
    (N, M), taken on sigmoid(mask_logits) (N, ...); ``sig`` holds the
    sigmoid terms (p, log p, log(1 - p)), each (N, pixels), which the
    backward of the matched pairs takes.  The M segments travel as their
    class columns ``cols`` and one binary (M, pixels) ``masks`` matrix.

    The sigmoid terms are computed once for all queries; the focal and
    dice sums over pixels are then matrix products with the masks."""
    n = class_probs.shape[0]
    z = np.ascontiguousarray(mask_logits, dtype=np.float64).reshape(n, -1)
    p, log_p, log_1p = _sigmoid_logs(z)
    focal_on = -((1.0 - p) ** GAMMA) * log_p
    focal_off = -(p**GAMMA) * log_1p
    focal = (focal_on @ masks.T + focal_off @ (1.0 - masks).T) / z.shape[1]
    num = 2.0 * (p @ masks.T) + _DICE_EPS
    dice = 1.0 - num / ((p.sum(axis=1)[:, None] + masks.sum(axis=1)) + _DICE_EPS)
    cost = -LAMBDA_CLS * class_probs[:, cols] + LAMBDA_FOCAL * focal + LAMBDA_DICE * dice
    return cost, focal, dice, (p, log_p, log_1p)


def _focal_dlogit(sig, g):
    """Gradient of the mean focal loss of p = sigmoid(z) against g w.r.t. z,
    row by row along the last axis, from the sigmoid terms ``sig`` = (p,
    log p, log(1 - p)) of ``_sigmoid_logs``."""
    p, log_p, log_1p = sig
    q = 1.0 - p
    dz = np.where(
        g > 0.5,
        GAMMA * p * (q**GAMMA) * log_p - q ** (GAMMA + 1.0),
        -GAMMA * (p**GAMMA) * q * log_1p + p ** (GAMMA + 1.0),
    )
    return dz / p.shape[-1]


def _dice_dlogit(p, g):
    """Gradient of the dice loss of p = sigmoid(z) against g w.r.t. z, row
    by row along the last axis."""
    num = 2.0 * (p * g).sum(axis=-1, keepdims=True) + _DICE_EPS
    den = (p.sum(axis=-1, keepdims=True) + g.sum(axis=-1, keepdims=True)) + _DICE_EPS
    dp = -(2.0 * g * den - num) / (den * den)
    return dp * p * (1.0 - p)


def _forward_state(v_p, params, protos, head_cfg):
    """Lifted pixels (from their tangent vectors ``v_p``) and queries (the
    blocks of ``params``), the class and mask logits, and what the backward
    pass reuses."""
    pt, psp, plift = batched_exp_lift(v_p)
    qt, qsp, qlift = batched_exp_lift(params["class_tangents"])
    mt, msp, mlift = batched_exp_lift(params["mask_tangents"])
    cls_logits, inner_cq, hinge_active = _class_logits(qsp, qt, protos)
    full_logits = np.concatenate(
        [cls_logits, np.full((qt.shape[0], 1), params["no_object_bias"])], axis=1
    )
    mq, inner_mp = _mask_logits(psp, pt, msp, mt, head_cfg)
    return {
        "pt": pt, "psp": psp, "qt": qt, "qsp": qsp, "mt": mt, "msp": msp,
        "plift": plift, "qlift": qlift, "mlift": mlift,
        "inner_cq": inner_cq, "hinge_active": hinge_active,
        "full_logits": full_logits, "inner_mp": inner_mp, "mq": mq,
    }


def _mask_loss(params, v_p, want_grad, protos, head_cfg, cols, masks):
    """The mask head's loss in ``segtoy._descend`` at the blocks ``params``
    and the pixel tangent vectors ``v_p``: Hungarian-match the queries to
    the segments (class columns ``cols``, binary (M, pixels) ``masks``),
    then class CE plus the matched focal/dice terms.  Returns (terms,
    dL/dv_p, grads), grads holding the gradients of class_tangents,
    mask_tangents and no_object_bias (None and {} unless ``want_grad``).
    A non-finite matching cost, which only a diverged run produces, has no
    assignment: its total is NaN."""
    state = _forward_state(v_p, params, protos, head_cfg)
    full_logits = state["full_logits"]
    cost, focal, dice, sig = matching_cost(softmax_rows(full_logits), state["mq"].T, cols, masks)
    if not np.all(np.isfinite(cost)):
        return {"total": math.nan}, None, {}
    assign = hungarian_match(cost)
    n, n_cls = full_logits.shape[0], full_logits.shape[1] - 1
    targets = np.full(n, n_cls, dtype=np.int64)
    targets[assign] = cols
    ce_rows, ce_terms = cross_entropy_rows(full_logits, targets)
    weights = np.where(targets == n_cls, NO_OBJECT_WEIGHT, 1.0)
    ce = float((ce_rows * weights).sum() / weights.sum())
    seg = np.arange(len(cols))
    mask_term = (LAMBDA_FOCAL * focal[assign, seg].sum()
                 + LAMBDA_DICE * dice[assign, seg].sum()) / max(len(cols), 1)
    terms = {"ce": ce, "mask": mask_term, "total": ce + mask_term}
    if not want_grad:
        return terms, None, {}
    sig = tuple(t[assign] for t in sig)  # the sigmoid terms of the matched rows only

    # ---- backward: class logits ----
    d_logits = cross_entropy_rows_backward(ce_terms, targets, weights / weights.sum())
    g_bno = d_logits[:, n_cls].sum().reshape(1)
    dl = d_logits[:, :n_cls]
    g_qsp, _ = gr.pair_backward(
        -W_D * dl, -dl * state["hinge_active"], state["qsp"], state["qt"],
        protos.spatial, protos.time, state["inner_cq"], protos.spatial_norms, False,
    )
    g_qc = gr.exp_lift_backward(state["qlift"], g_qsp)

    # ---- backward: mask logits, for the matched pairs only ----
    d_mq = np.zeros_like(state["mq"])  # (n_px, N)
    d_mq[:, assign] = ((LAMBDA_FOCAL * _focal_dlogit(sig, masks)
                        + LAMBDA_DICE * _dice_dlogit(sig[0], masks)) / len(cols)).T
    g_psp, g_msp = gr.pair_backward(
        d_mq * (-1.0 / S_D), d_mq * (-1.0 / head_cfg.s_a), state["psp"], state["pt"],
        state["msp"], state["mt"], state["inner_mp"], np.linalg.norm(state["msp"], axis=1),
        True,
    )
    grads = {"class_tangents": g_qc,
             "mask_tangents": gr.exp_lift_backward(state["mlift"], g_msp),
             "no_object_bias": g_bno}
    return terms, gr.exp_lift_backward(state["plift"], g_psp), grads


def train_maskhead(scene: SyntheticScene, bank: DescriptorBank, head_cfg: MaskHeadConfig,
                   train_cfg: TrainConfig) -> TrainResult:
    """Hungarian-matched mask-classification training in the loop every
    head shares (``segtoy._descend``), which steps the encoder and the
    head's seeded query blocks from the gradients ``_mask_loss`` returns,
    all by chain rule through the closed forms."""
    segments = scene_segments(scene)
    if len(segments) > head_cfg.n_queries:
        raise UsageError(f"{len(segments)} segments exceed {head_cfg.n_queries} queries")
    class_to_idx = {cid: j for j, cid in enumerate(bank.included)}
    held_out = [c for c, _ in segments if c not in class_to_idx]
    if held_out:
        raise UsageError(f"the mask head cannot hold out class {held_out[0]}, a segment of the scene")
    protos = build_prototypes(bank, train_cfg.K)
    cols = np.array([class_to_idx[c] for c, _ in segments], dtype=np.int64)
    masks = np.array([m.reshape(-1) for _, m in segments], dtype=np.float64)

    rng = np.random.default_rng(train_cfg.seed)
    queries = {
        "class_tangents": rng.normal(size=(head_cfg.n_queries, bank.d)) * 0.5,
        "mask_tangents": rng.normal(size=(head_cfg.n_queries, bank.d)) * 0.5,
        "no_object_bias": np.zeros(1),
    }
    loss = partial(_mask_loss, protos=protos, head_cfg=head_cfg, cols=cols, masks=masks)
    flat = scene.features.reshape(-1, scene.features.shape[-1])
    params, trace = _descend(loss, flat, train_cfg, bank.d, queries)
    return TrainResult("mask", params, protos, bank, trace, train_cfg, head_cfg)


def predict_semantic(result: TrainResult, scene: SyntheticScene) -> LabelMap:
    """MaskFormer-style assembly of a trained mask head: softmax class
    probabilities without the no-object column, weighted by sigmoid mask
    probabilities."""
    h, w = scene.shape
    v_p = encoder_forward(result.params, scene.features).reshape(h * w, -1)
    state = _forward_state(v_p, result.params, result.protos, result.head_cfg)
    probs_full = softmax_rows(state["full_logits"])[:, :-1]
    mask_probs = (1.0 / (1.0 + np.exp(-state["mq"].T))).reshape(-1, h, w)
    legend = {i: n for i, n in enumerate(result.protos.labels)}
    return semantic_map(probs_full, mask_probs, legend)

