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
logit zero.  Training matches queries to ground-truth segments by
Hungarian assignment each step, applies cross-entropy on classes plus
focal and dice losses on matched masks, supervises unmatched queries
toward no-object, and backpropagates through every term by chain rule.

The fixed values are module constants: W_D, B_D, S_D and B_A, the focal
exponent GAMMA, the loss weights LAMBDA_CLS, LAMBDA_FOCAL and LAMBDA_DICE,
NO_OBJECT_WEIGHT and CLASS_LR_SCALE.  ``MaskHeadConfig`` holds the two
settings that vary: the query count ``n_queries`` and the angle scale
``s_a`` (0.02; the angle ablation sets it to 1e9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import grad as gr
from .entailment import (
    PrototypeSet,
    anchor_apertures,
    cross_entropy_rows,
    ext_angles_to_anchors,
    softmax_rows,
)
from .errors import TrainingDivergedError, UsageError
from .lorentz import (
    EmbeddingGrid,
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
    _encoder_parts,
    _encoder_step,
    _start_encoder,
    _trace_arrays,
    build_prototypes,
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
# the 1/s_a and 1/s_d factors make the mask-logit path far stiffer than the
# class-logit path; a per-group learning rate rebalances them (the usual
# encoder-vs-head split)
CLASS_LR_SCALE = 100.0


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


@dataclass
class QuerySet:
    """Learnable query embeddings: tangent parameters plus the no-object
    bias; lifted coordinates are derived on demand."""

    class_tangents: np.ndarray  # (N, d)
    mask_tangents: np.ndarray  # (N, d)
    no_object_bias: float = 0.0

    def __post_init__(self):
        if self.class_tangents.shape != self.mask_tangents.shape:
            raise UsageError("class and mask tangents must share a shape")
        if not (np.all(np.isfinite(self.class_tangents)) and np.all(np.isfinite(self.mask_tangents))):
            raise UsageError("query tangents must be finite")

    @property
    def n(self) -> int:
        return self.class_tangents.shape[0]

    def class_points(self):
        return batched_exp_lift(self.class_tangents)

    def mask_points(self):
        return batched_exp_lift(self.mask_tangents)


def _class_logits(qsp, qt, protos: PrototypeSet, apers):
    """(N, C) class logits -W_D*distance minus the cone hinge of lifted
    queries against the prototypes, with the inner products and the
    active-hinge mask that the backward pass reuses."""
    inner = inner_to_anchors(qsp, qt, protos.spatial, protos.time)
    d = distances_from_inner(inner)
    ext = ext_angles_to_anchors(
        qsp, qt, protos.spatial, protos.time, inner=inner, anchor_norms=protos.spatial_norms
    )
    logits = -W_D * d - np.maximum(0.0, ext - apers[None, :])
    return logits, inner, ext > apers[None, :]


def _mask_logits(sp, t, msp, mt, cfg: MaskHeadConfig):
    """(pixels, N) mask logits m^d + m^a of lifted pixels against the lifted
    mask queries, with the inner products that the backward pass reuses."""
    inner = inner_to_anchors(sp, t, msp, mt)
    d = distances_from_inner(inner)
    ext = ext_angles_to_anchors(sp, t, msp, mt, inner=inner)
    return (-d + B_D) / S_D + (-ext + B_A) / cfg.s_a, inner


def class_query_logits(protos: PrototypeSet, queries: QuerySet, K: float) -> np.ndarray:
    """(N, C) matrix of -W_D*distance minus the cone hinge, with the cone
    apertures of the training constant K (``TrainConfig.K``)."""
    qt, qsp = queries.class_points()
    apers = anchor_apertures(protos.spatial_norms, K)
    return _class_logits(qsp, qt, protos, apers)[0]


def mask_query_logits(queries: QuerySet, grid: EmbeddingGrid, cfg: MaskHeadConfig) -> np.ndarray:
    """(N, H, W) mask logits m^d + m^a before the sigmoid."""
    mt, msp = queries.mask_points()
    sp, t = grid.flat()
    logits, _ = _mask_logits(sp, t, msp, mt, cfg)
    h, w = grid.shape
    return logits.T.reshape(queries.n, h, w)


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


def matching_cost(class_probs: np.ndarray, mask_logits: np.ndarray, segments) -> np.ndarray:
    """(N, M) assignment cost: -LAMBDA_CLS * p(class) + LAMBDA_FOCAL *
    focal + LAMBDA_DICE * dice, with focal and dice taken on
    sigmoid(mask_logits) (N, ...).  ``segments`` is a list of
    (class_column, binary mask)."""
    return _pair_costs(class_probs, mask_logits, segments)[0]


def semantic_map(class_probs: np.ndarray, mask_probs: np.ndarray, legend=None) -> LabelMap:
    """Per-pixel argmax of sum_i class_probs[i, c] * mask_probs[i, h, w];
    ties break to the lowest class index."""
    scores = np.einsum("nc,nhw->hwc", class_probs, mask_probs)
    values = scores.argmax(axis=2)
    return LabelMap(values, dict(legend or {}))


def mask_angle_uncertainty(grid: EmbeddingGrid, queries: QuerySet) -> ScalarMap:
    """Minimum exterior angle against the mask queries."""
    mt, msp = queries.mask_points()
    return angle_uncertainty(grid, (msp, mt))


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


def _softplus(z):
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def _sigmoid_logs(z):
    """sigmoid(z) with log sigmoid(z) and log sigmoid(-z), both stable."""
    return 1.0 / (1.0 + np.exp(-z)), -_softplus(-z), -_softplus(z)


def _pair_costs(class_probs, mask_logits, segments):
    """(cost, focal, dice), each (N, M): the matching cost of every
    (query, segment) pair and the focal and dice losses it is made of.

    The sigmoid terms are computed once for all queries; each segment then
    only selects and sums them, one query row at a time."""
    n = class_probs.shape[0]
    z = np.ascontiguousarray(mask_logits, dtype=np.float64).reshape(n, -1)
    p, log_p, log_1p = _sigmoid_logs(z)
    focal_on = -((1.0 - p) ** GAMMA) * log_p
    focal_off = -(p**GAMMA) * log_1p
    p_sum = p.sum(axis=1)
    focal = np.empty((n, len(segments)))
    dice = np.empty((n, len(segments)))
    for m, (_, gmask) in enumerate(segments):
        g = np.asarray(gmask, dtype=np.float64).reshape(-1)
        focal[:, m] = np.where(g > 0.5, focal_on, focal_off).sum(axis=1) / z.shape[1]
        num = 2.0 * (p * g).sum(axis=1) + _DICE_EPS
        dice[:, m] = 1.0 - num / ((p_sum + g.sum()) + _DICE_EPS)
    cols = [col for col, _ in segments]
    cost = -LAMBDA_CLS * class_probs[:, cols] + LAMBDA_FOCAL * focal + LAMBDA_DICE * dice
    return cost, focal, dice


def _focal_dlogit(z, g, gamma):
    """Gradient of the mean focal loss of sigmoid(z) against g w.r.t. z."""
    p, log_p, log_1p = _sigmoid_logs(z)
    q = 1.0 - p
    dz = np.where(
        g > 0.5,
        gamma * p * (q**gamma) * log_p - q ** (gamma + 1.0),
        -gamma * (p**gamma) * q * log_1p + p ** (gamma + 1.0),
    )
    return dz / z.size


def _dice_dlogit(z, g):
    """Gradient of the dice loss of sigmoid(z) against g w.r.t. z."""
    p = 1.0 / (1.0 + np.exp(-z))
    num = 2.0 * float((p * g).sum()) + _DICE_EPS
    den = float(p.sum() + g.sum()) + _DICE_EPS
    dp = -(2.0 * g * den - num) / (den * den)
    return dp * p * (1.0 - p)


def _forward_state(params, queries, flat, protos, head_cfg, apers):
    a1, u = _encoder_parts(params, flat)
    v_p = params.alpha * u
    pt, psp = batched_exp_lift(v_p)
    qt, qsp = queries.class_points()
    mt, msp = queries.mask_points()
    cls_logits, inner_cq, hinge_active = _class_logits(qsp, qt, protos, apers)
    full_logits = np.concatenate(
        [cls_logits, np.full((queries.n, 1), queries.no_object_bias)], axis=1
    )
    mq, inner_mp = _mask_logits(psp, pt, msp, mt, head_cfg)
    return {
        "a1": a1, "u": u, "v_p": v_p, "pt": pt, "psp": psp,
        "qt": qt, "qsp": qsp, "mt": mt, "msp": msp,
        "inner_cq": inner_cq, "hinge_active": hinge_active,
        "full_logits": full_logits, "inner_mp": inner_mp, "mq": mq,
    }


def _mask_loss_at(state, segments):
    """Hungarian-match the queries to ``segments`` at ``state``; returns
    (assign, ce, mask_term, total, targets, weights): class CE plus the
    matched focal/dice terms."""
    full_logits = state["full_logits"]
    cost, focal, dice = _pair_costs(softmax_rows(full_logits), state["mq"].T, segments)
    assign = hungarian_match(cost)
    n, n_cls = full_logits.shape[0], full_logits.shape[1] - 1
    targets = np.full(n, n_cls, dtype=np.int64)
    for m, (col, _) in enumerate(segments):
        targets[assign[m]] = col
    ce_rows = cross_entropy_rows(full_logits, targets)
    weights = np.where(targets == n_cls, NO_OBJECT_WEIGHT, 1.0)
    ce = float((ce_rows * weights).sum() / weights.sum())
    focal_total = dice_total = 0.0
    for m in range(len(segments)):
        focal_total += focal[assign[m], m]
        dice_total += dice[assign[m], m]
    m_count = max(len(segments), 1)
    mask_term = (LAMBDA_FOCAL * focal_total + LAMBDA_DICE * dice_total) / m_count
    return assign, ce, mask_term, ce + mask_term, targets, weights


def train_maskhead(
    scene: SyntheticScene,
    bank: DescriptorBank,
    head_cfg: MaskHeadConfig,
    train_cfg: TrainConfig,
) -> TrainResult:
    """Hungarian-matched mask-classification training, all gradients by
    chain rule through the closed forms."""
    segments = scene_segments(scene)
    if len(segments) > head_cfg.n_queries:
        raise UsageError(
            f"{len(segments)} segments exceed {head_cfg.n_queries} queries"
        )
    class_to_idx = {cid: j for j, cid in enumerate(bank.included)}
    held_out = [c for c, _ in segments if c not in class_to_idx]
    if held_out:
        raise UsageError(f"the mask head cannot hold out class {held_out[0]}, a segment of the scene")
    protos = build_prototypes(bank, train_cfg.entail_cfg)
    apers = anchor_apertures(protos.spatial_norms, train_cfg.K)
    flat = scene.features.reshape(-1, scene.features.shape[-1])
    segments_flat = [(class_to_idx[c], m.reshape(-1).astype(np.float64)) for c, m in segments]

    rng = np.random.default_rng(train_cfg.seed)
    params = _start_encoder(flat, train_cfg, bank.d)
    queries = QuerySet(
        class_tangents=rng.normal(size=(head_cfg.n_queries, bank.d)) * 0.5,
        mask_tangents=rng.normal(size=(head_cfg.n_queries, bank.d)) * 0.5,
        no_object_bias=0.0,
    )

    n_classes = len(bank.included)
    rows = []
    for epoch in range(train_cfg.epochs):
        state = _forward_state(params, queries, flat, protos, head_cfg, apers)
        assign, ce, mask_term, total, targets, weights = _mask_loss_at(state, segments_flat)
        if not math.isfinite(total):
            raise TrainingDivergedError(epoch)
        rows.append((epoch, ce, mask_term, total))

        # ---- backward: class logits ----
        d_logits = softmax_rows(state["full_logits"])
        d_logits[np.arange(queries.n), targets] -= 1.0
        d_logits *= (weights / weights.sum())[:, None]
        g_bno = float(d_logits[:, n_classes].sum())
        dl = d_logits[:, :n_classes]
        dl_dd = -W_D * dl
        dl_dext = -dl * state["hinge_active"]
        g_qsp = np.einsum(
            "nc,ncd->nd",
            dl_dd,
            gr.grad_distance_cross(
                state["qsp"], state["qt"], protos.spatial, protos.time, state["inner_cq"]
            ),
        )
        g_qsp += np.einsum(
            "nc,ncd->nd",
            dl_dext,
            gr.grad_ext_cross_point(
                state["qsp"], state["qt"], protos.spatial, protos.time,
                state["inner_cq"], protos.spatial_norms,
            ),
        )
        g_qc = gr.exp_lift_backward(queries.class_tangents, g_qsp)

        # ---- backward: mask logits, recomputed for the matched pairs only ----
        d_mq = np.zeros_like(state["mq"])  # (n_px, N)
        m_count = len(segments_flat)
        for m, (_, gmask) in enumerate(segments_flat):
            j = assign[m]
            z = state["mq"].T[j]
            dz_f = _focal_dlogit(z, gmask, GAMMA)
            dz_d = _dice_dlogit(z, gmask)
            d_mq[:, j] += (LAMBDA_FOCAL * dz_f + LAMBDA_DICE * dz_d) / m_count
        dd_mp = d_mq * (-1.0 / S_D)
        dext_mp = d_mq * (-1.0 / head_cfg.s_a)
        mnorms = np.linalg.norm(state["msp"], axis=1)
        g_psp = np.einsum(
            "pn,pnd->pd",
            dd_mp,
            gr.grad_distance_cross(
                state["psp"], state["pt"], state["msp"], state["mt"], state["inner_mp"]
            ),
        )
        g_psp += np.einsum(
            "pn,pnd->pd",
            dext_mp,
            gr.grad_ext_cross_point(
                state["psp"], state["pt"], state["msp"], state["mt"],
                state["inner_mp"], mnorms,
            ),
        )
        g_msp = np.einsum(
            "pn,pnd->nd",
            dd_mp,
            gr.grad_distance_cross_anchor(
                state["psp"], state["pt"], state["msp"], state["mt"], state["inner_mp"]
            ),
        )
        g_msp += np.einsum(
            "pn,pnd->nd",
            dext_mp,
            gr.grad_ext_cross_anchor(
                state["psp"], state["pt"], state["msp"], state["mt"],
                state["inner_mp"], mnorms,
            ),
        )
        g_qm = gr.exp_lift_backward(queries.mask_tangents, g_msp)
        g_vp = gr.exp_lift_backward(state["v_p"], g_psp)

        _encoder_step(params, flat, state["a1"], state["u"], g_vp, train_cfg)
        cls_lr = train_cfg.lr * CLASS_LR_SCALE
        queries.class_tangents = queries.class_tangents - cls_lr * g_qc
        queries.mask_tangents = queries.mask_tangents - train_cfg.lr * g_qm
        queries.no_object_bias = float(queries.no_object_bias - cls_lr * g_bno)

    state = _forward_state(params, queries, flat, protos, head_cfg, apers)
    _, ce, mask_term, total, _, _ = _mask_loss_at(state, segments_flat)
    rows.append((train_cfg.epochs, ce, mask_term, total))
    trace = _trace_arrays(("epoch", "ce", "mask", "total"), rows)
    return TrainResult("mask", params, protos, bank, trace, train_cfg, None, queries, head_cfg)


def predict_semantic(result: TrainResult, scene: SyntheticScene) -> LabelMap:
    """MaskFormer-style assembly of a trained mask head: softmax class
    probabilities without the no-object column, weighted by sigmoid mask
    probabilities."""
    flat = scene.features.reshape(-1, scene.features.shape[-1])
    apers = anchor_apertures(result.protos.spatial_norms, result.config.K)
    state = _forward_state(result.params, result.queries, flat, result.protos,
                           result.head_cfg, apers)
    probs_full = softmax_rows(state["full_logits"])[:, :-1]
    h, w = scene.shape
    mask_probs = (1.0 / (1.0 + np.exp(-state["mq"].T))).reshape(result.queries.n, h, w)
    legend = {i: n for i, n in enumerate(result.protos.labels)}
    return semantic_map(probs_full, mask_probs, legend)

