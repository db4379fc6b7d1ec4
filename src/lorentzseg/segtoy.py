"""Desk-scale per-pixel segmentation on synthetic hierarchical scenes.

A scene is a grid partitioned into contiguous rectangles, one per child
class of a two-level hierarchy (parents x children).  Per-pixel features
are the child's descriptor vector plus optional Gaussian noise and an
optional boundary blend that mixes neighboring descriptors along region
borders (the stand-in for the soft edges of real imagery; off by
default).

Descriptors play the role of encoded label text: a shared bias plus a
parent direction plus a child offset, which keeps pairwise cosines
positive the way sentence embeddings are.  PCA through LAPACK's
symmetric eigensolver reduces them; rows are rescaled by the inverse
mean norm (unit tangent norm on average) and lifted to the hyperboloid
to become class prototypes.

The trainable encoder is a 2-layer perceptron with a tanh hidden layer
and a learnable output scale.  A model is one dict of named float64
blocks, which one loop (``_descend``) steps by one plain gradient-descent
rule with weight decay.  Backprop is assembled by chain rule from the
closed-form spatial gradients and the exponential-map Jacobian; there is
no autodiff anywhere.  An identically shaped Euclidean pipeline (no
lift, no cone) exists for ablation baselines.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import grad as gr
from .entailment import (
    PrototypeSet,
    cross_entropy_rows,
    cross_entropy_rows_backward,
    ext_angles_from_inner,
    ext_angles_to_anchors,
)
from .errors import TrainingDivergedError, UsageError
from .lorentz import (
    EmbeddingGrid,
    batched_exp_lift,
    distances_from_inner,
    exp_lift_origin,
    inner_to_anchors,
)

if TYPE_CHECKING:  # annotations only; maskhead imports this module
    from .maskhead import MaskHeadConfig


@dataclass(frozen=True)
class SceneConfig:
    parents: int = 3
    children_per_parent: int = 3
    height: int = 64
    width: int = 64
    noise_sigma: float = 0.0
    edge_blend: float = 0.0
    descriptor_dim: int = 16
    seed: int = 42

    def __post_init__(self):
        for name in ("parents", "children_per_parent", "height", "width", "descriptor_dim"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        for name in ("noise_sigma", "edge_blend"):
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sigma < 0:
            raise UsageError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.edge_blend <= 1.0:
            raise UsageError(f"edge_blend must lie in [0, 1], got {self.edge_blend}")

    @property
    def n_classes(self) -> int:
        return self.parents * self.children_per_parent


@dataclass(frozen=True)
class SyntheticScene:
    features: np.ndarray  # (H, W, d_orig)
    labels: np.ndarray  # (H, W) int
    hierarchy: dict  # child class id -> parent id
    config: SceneConfig
    class_names: tuple
    class_descriptors: np.ndarray  # (C, d_orig) noise-free child descriptors
    parent_descriptors: np.ndarray  # (P, d_orig)

    @property
    def n_classes(self) -> int:
        return self.config.n_classes

    @property
    def shape(self):
        return self.labels.shape


def synthetic_descriptors(cfg: SceneConfig):
    """Deterministic descriptor family: shared bias + parent direction +
    child offset.  Returns (child (C, d), parent (P, d), parent_map, names)."""
    rng = np.random.default_rng(cfg.seed)
    d = cfg.descriptor_dim
    base = rng.normal(size=d)
    base *= 2.0 / np.linalg.norm(base)
    parent_dirs = rng.normal(size=(cfg.parents, d))
    parent_dirs *= 1.6 / np.linalg.norm(parent_dirs, axis=1, keepdims=True)
    child_offsets = rng.normal(size=(cfg.n_classes, d))
    child_offsets *= 0.9 / np.linalg.norm(child_offsets, axis=1, keepdims=True)
    parents = base[None, :] + parent_dirs
    parent_map, names, rows = {}, [], []
    for p in range(cfg.parents):
        for k in range(cfg.children_per_parent):
            cid = p * cfg.children_per_parent + k
            parent_map[cid] = p
            names.append(f"p{p}.c{k}")
            rows.append(parents[p] + child_offsets[cid])
    return np.asarray(rows), parents, parent_map, tuple(names)


def _edges(total: int, pieces: int) -> np.ndarray:
    return np.round(np.linspace(0, total, pieces + 1)).astype(int)


def generate_scene(cfg: SceneConfig) -> SyntheticScene:
    """Partition the grid into parent bands split into child strips and
    synthesize per-pixel features."""
    if cfg.height < cfg.parents or cfg.width < cfg.children_per_parent:
        raise UsageError(
            f"grid {cfg.height}x{cfg.width} too small for "
            f"{cfg.parents}x{cfg.children_per_parent} regions"
        )
    child, parents, parent_map, names = synthetic_descriptors(cfg)
    labels = np.zeros((cfg.height, cfg.width), dtype=np.int64)
    rows = _edges(cfg.height, cfg.parents)
    cols = _edges(cfg.width, cfg.children_per_parent)
    for p in range(cfg.parents):
        for k in range(cfg.children_per_parent):
            labels[rows[p] : rows[p + 1], cols[k] : cols[k + 1]] = (
                p * cfg.children_per_parent + k
            )
    features = child[labels]
    if cfg.edge_blend > 0.0:
        # border pixels mix their own descriptor with the mean descriptor
        # of differing 4-neighbors: 0.5*edge_blend of the way across
        ideal = child[labels]
        other_sum = np.zeros_like(features)
        other_count = np.zeros(labels.shape)
        for axis, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
            neighbor = np.roll(ideal, shift, axis=axis)
            edge = np.roll(labels, shift, axis=axis) != labels
            # grid border wrap-around is not a real boundary
            if axis == 0:
                (edge[0] if shift == 1 else edge[-1])[:] = False
            else:
                edge[:, 0 if shift == 1 else -1] = False
            other_sum += edge[..., None] * neighbor
            other_count += edge
        has_edge = other_count > 0
        mean_other = other_sum[has_edge] / other_count[has_edge][:, None]
        w = 0.5 * cfg.edge_blend
        features = features.copy()
        features[has_edge] = (1.0 - w) * features[has_edge] + w * mean_other
    rng = np.random.default_rng(cfg.seed + 1)
    if cfg.noise_sigma > 0.0:
        features = features + rng.normal(0.0, cfg.noise_sigma, size=features.shape)
        if not np.all(np.isfinite(features)):
            raise UsageError(f"noise_sigma {cfg.noise_sigma} overflows the scene features")
    return SyntheticScene(
        features=features,
        labels=labels,
        hierarchy=parent_map,
        config=cfg,
        class_names=names,
        class_descriptors=child,
        parent_descriptors=parents,
    )


# --------------------------------------------------------------------------
# PCA and prototype construction
# --------------------------------------------------------------------------


def pca_reduce(X: np.ndarray, d: int):
    """Mean-centered projection onto the top-d covariance eigenvectors.

    Deterministic sign convention: the first nonzero component of every
    eigenvector is positive.  Rank deficiency below d shrinks the
    effective dimension with a warning.  Returns (projection, reduced)
    with reduced = centered @ projection.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d_orig = X.shape
    if n < 2:
        raise UsageError("PCA needs at least 2 rows")
    if not 1 <= d <= min(n, d_orig):
        raise UsageError(f"target dimension {d} not in [1, min(n, d_orig)] = [1, {min(n, d_orig)}]")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (n - 1)
    vals, vecs = np.linalg.eigh(cov)
    vals, vecs = vals[::-1], vecs[:, ::-1]  # descending
    tol = max(vals[0], 0.0) * 1e-10 + 1e-30
    effective = int(min(d, np.count_nonzero(vals > tol)))
    if effective < d:
        warnings.warn(
            f"rank deficiency: requested {d} components, keeping {effective}",
            stacklevel=2,
        )
    proj = vecs[:, :effective].copy()
    for j in range(effective):
        col = proj[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            proj[:, j] = -col
    return proj, centered @ proj


@dataclass(frozen=True)
class DescriptorBank:
    """The PCA-reduced label descriptors that become the prototypes.

    ``reduced`` rows already carry the prototype scaling (divided by the
    mean row norm, so rows have unit tangent norm on average);
    ``included`` lists the class ids the PCA was fit on, which is how
    held-out classes stay out of both the projection and the prototype
    set; ``d`` is the effective PCA rank and ``names`` the included
    classes' names.  No command projects a new query, so the bank keeps
    neither the projection nor the raw descriptors; the retrieval
    statistics of tests/reference_runs.py refit the PCA for their queries.
    """

    included: tuple
    reduced: np.ndarray
    d: int
    names: tuple

    @classmethod
    def fit(cls, scene: SyntheticScene, d: int, exclude: tuple = ()) -> "DescriptorBank":
        raw = scene.class_descriptors
        included = tuple(i for i in range(raw.shape[0]) if i not in set(exclude))
        if len(included) < 2:
            raise UsageError("need at least 2 included classes")
        proj, reduced = pca_reduce(raw[list(included)], d)
        norms = np.linalg.norm(reduced, axis=1)
        mean_norm = float(norms.mean())
        if mean_norm <= 0:
            raise UsageError("descriptor rows collapse to zero after PCA")
        return cls(
            included=included,
            reduced=reduced / mean_norm,
            d=proj.shape[1],
            names=tuple(scene.class_names[i] for i in included),
        )


def build_prototypes(bank: DescriptorBank, K: float) -> PrototypeSet:
    """Lift the scaled descriptor rows to the hyperboloid as the anchors of
    cones with constant K; a row whose aperture is undefined raises."""
    anchors = tuple(exp_lift_origin(row) for row in bank.reduced)
    return PrototypeSet(anchors=anchors, labels=bank.names, K=K)


# --------------------------------------------------------------------------
# encoder
# --------------------------------------------------------------------------


def init_encoder(d_in: int, hidden: int, d_out: int, seed: int) -> dict:
    """Seeded blocks of the encoder v = alpha * (tanh(x w1^T + b1) w2^T + b2):
    w1, b1, w2, b2 and alpha, of shape (1,)."""
    rng = np.random.default_rng(seed)
    return {
        "w1": rng.normal(size=(hidden, d_in)) / math.sqrt(d_in),
        "b1": np.zeros(hidden),
        "w2": rng.normal(size=(d_out, hidden)) / math.sqrt(hidden),
        "b2": np.zeros(d_out),
        "alpha": np.ones(1),
    }


def _encoder_parts(params: dict, flat: np.ndarray):
    """Hidden activations a1 = tanh(flat w1^T + b1) and outputs
    u = a1 w2^T + b2, each taken in the array it is born in."""
    a1 = flat @ params["w1"].T
    a1 += params["b1"]
    np.tanh(a1, out=a1)
    u = a1 @ params["w2"].T
    u += params["b2"]
    return a1, u


def encoder_forward(params: dict, features: np.ndarray) -> np.ndarray:
    """Per-pixel tangent vectors alpha * mlp(features), shape (H, W, d)."""
    h, w, _ = features.shape
    u = _encoder_parts(params, features.reshape(h * w, -1))[1]
    return (params["alpha"] * u).reshape(h, w, -1)


def embed_scene(params: dict, scene: SyntheticScene) -> EmbeddingGrid:
    return EmbeddingGrid.from_tangent(encoder_forward(params, scene.features))


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    lr: float = 0.5
    lambda_w: float = 0.5
    tau: float = 0.1
    K: float = 0.1
    seed: int = 42
    weight_decay: float = 1e-4
    hidden: int = 32
    embed_dim: int = 8

    def __post_init__(self):
        for name in ("lr", "lambda_w", "tau", "K", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("epochs", "seed", "lr", "lambda_w", "weight_decay"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("tau", "K"):
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("hidden", "embed_dim"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class TrainResult:
    """A trained head: "pixel", "euclid" (the Euclidean pipeline, which has
    no prototypes) or "mask" (the only one with query blocks and a head
    config).  ``params`` maps each block name to its float64 array: the
    encoder's w1, b1, w2, b2 and alpha (shape (1,)), and the mask head's
    class_tangents, mask_tangents and no_object_bias (shape (1,))."""

    head: str
    params: dict
    protos: PrototypeSet | None
    bank: DescriptorBank
    trace: dict  # "epoch" + one array per loss term, last = post-training eval; {} if loaded
    config: TrainConfig
    exclude_class: int | None = None
    head_cfg: MaskHeadConfig | None = None

    @property
    def final_loss(self) -> float:
        return float(self.trace["total"][-1])


# The step rule of _descend: weight decay on the encoder's weight matrices
# only, and a larger step on the mask head's class blocks.  The 1/s_a and
# 1/s_d factors make its mask-logit path far stiffer than its class-logit
# path; a per-group learning rate rebalances them.
CLASS_LR_SCALE = 100.0
_DECAYED = ("w1", "w2")
_LR_SCALE = {"class_tangents": CLASS_LR_SCALE, "no_object_bias": CLASS_LR_SCALE}


def _start_encoder(flat: np.ndarray, cfg: TrainConfig, d_out: int) -> dict:
    """Seeded encoder blocks whose alpha gives its outputs unit mean norm."""
    params = init_encoder(flat.shape[1], cfg.hidden, d_out, cfg.seed)
    _, u0 = _encoder_parts(params, flat)
    mean_norm = float(np.linalg.norm(u0, axis=1).mean())
    params["alpha"] = np.array([1.0 / mean_norm if mean_norm > 0 else 1.0])
    return params


def _encoder_backward(params: dict, flat, a1, u, g_v) -> dict:
    """The gradients of the encoder blocks, dL/dv chained back through
    v = alpha * mlp(flat) (forward parts a1, u).  dL/dz1 is written over
    a1, which the caller no longer needs."""
    g_u = params["alpha"] * g_v
    g_alpha = np.einsum("nd,nd->", u, g_v).reshape(1)
    g_w2 = g_u.T @ a1
    g_b2 = g_u.sum(axis=0)
    g_z1 = a1
    g_z1 *= a1
    np.subtract(1.0, g_z1, out=g_z1)
    g_z1 *= g_u @ params["w2"]  # dL/da1 times tanh' = 1 - a1^2
    return {"w1": g_z1.T @ flat, "b1": g_z1.sum(axis=0), "w2": g_w2, "b2": g_b2,
            "alpha": g_alpha}


def _descend(loss, flat: np.ndarray, cfg: TrainConfig, d_out: int, head_blocks: dict):
    """The training loop of every head: full-batch gradient descent on
    ``loss`` of one dict of blocks, a seeded encoder's plus the head's own
    ``head_blocks``; returns (params, trace).  ``loss(params, v,
    want_grad)`` takes the tangent vectors v = alpha * mlp(flat), mutates
    nothing and returns a dict of loss terms, "total" among them, then
    dL/dv and the gradients of the head's own blocks (None and {} unless
    ``want_grad``).  The loop chains dL/dv back through the encoder and
    steps every block by p - (lr * scale) * (g + wd * p), wd and scale as
    _DECAYED and _LR_SCALE say.  Step ``cfg.epochs`` is the post-training
    evaluation; a non-finite total at any step raises TrainingDivergedError
    at it."""
    params = _start_encoder(flat, cfg, d_out)
    params.update(head_blocks)
    rows = []
    for epoch in range(cfg.epochs + 1):
        a1, u = _encoder_parts(params, flat)
        terms, g_v, grads = loss(params, params["alpha"] * u, epoch < cfg.epochs)
        if not math.isfinite(terms["total"]):
            raise TrainingDivergedError(epoch)
        rows.append(terms)
        if epoch < cfg.epochs:
            grads.update(_encoder_backward(params, flat, a1, u, g_v))
            for name, g in grads.items():
                p = params[name]
                if name in _DECAYED:
                    g = g + cfg.weight_decay * p
                params[name] = p - (cfg.lr * _LR_SCALE.get(name, 1.0)) * g
    trace = {"epoch": np.arange(cfg.epochs + 1)}
    trace.update((name, np.asarray([row[name] for row in rows])) for name in rows[0])
    return params, trace


@dataclass(frozen=True)
class PixelObjective:
    """The per-pixel objective on one scene, built once and evaluated at
    any tangent vectors.

    ``labels_idx`` holds each pixel's column among the bank's included
    classes; pixels of a held-out class map to column 0 and are left out
    by ``use_mask``.  The pixel head scores against the lifted prototypes
    and their cone apertures; the euclid head (``protos`` None) against the
    bank's reduced rows.

    Construction also derives the per-pixel constants of every epoch:
    ``n_used``, the used-pixel count; ``weights``, each pixel's share of the
    mean cross-entropy (1/n_used if used, else 0); and, for the pixel head,
    ``gt``, the spatial part, time, spatial norm and cone aperture of each
    pixel's ground-truth anchor.
    """

    flat: np.ndarray  # (Npx, d_orig) scene features
    labels_idx: np.ndarray
    use_mask: np.ndarray
    rows: np.ndarray  # the bank's reduced rows, the Euclidean prototypes
    protos: PrototypeSet | None
    cfg: TrainConfig

    @classmethod
    def build(cls, scene, bank, cfg, exclude_class=None, head="pixel") -> "PixelObjective":
        labels_flat = scene.labels.reshape(-1)
        column = np.zeros(scene.n_classes, dtype=np.int64)
        column[list(bank.included)] = np.arange(len(bank.included))
        use_mask = np.ones(labels_flat.size, dtype=bool)
        if exclude_class is not None:
            use_mask = labels_flat != exclude_class
        protos = build_prototypes(bank, cfg.K) if head == "pixel" else None
        return cls(
            flat=scene.features.reshape(-1, scene.features.shape[-1]),
            labels_idx=column[labels_flat], use_mask=use_mask, rows=bank.reduced,
            protos=protos, cfg=cfg,
        )

    def __post_init__(self):
        n_used = int(self.use_mask.sum())
        if n_used == 0:
            raise UsageError("no pixels left to train on")
        object.__setattr__(self, "n_used", n_used)
        object.__setattr__(self, "weights", self.use_mask / n_used)
        if self.protos is not None:
            idx = self.labels_idx
            object.__setattr__(self, "gt", (self.protos.spatial[idx], self.protos.time[idx],
                                            self.protos.spatial_norms[idx], self.protos.apertures[idx]))

    def loss(self, params: dict, v: np.ndarray, want_grad: bool):
        """The loss of ``segtoy._descend`` at tangent vectors v (Npx, d):
        (terms, dL/dv or None, {}), the terms "ce", "entail" (pixel head
        only) and "total".  The per-pixel heads have no blocks of their own,
        so nothing here reads ``params``."""
        head = _euclid_loss_and_grad if self.protos is None else _pixel_loss_and_grad
        return (*head(v, self, want_grad), {})


def _pixel_loss_and_grad(v: np.ndarray, obj: PixelObjective, want_grad: bool):
    """Mean combined loss over unmasked pixels and, optionally, its
    gradient w.r.t. the tangent vectors v (Npx, d)."""
    cfg, labels_idx, use_mask = obj.cfg, obj.labels_idx, obj.use_mask
    asp, at = obj.protos.spatial, obj.protos.time
    gt_asp, gt_at, gt_norm, gt_aperture = obj.gt
    time, spatial, lift = batched_exp_lift(v)
    inner = inner_to_anchors(spatial, time, asp, at)
    logits = -distances_from_inner(inner) / cfg.tau
    ce_rows, ce_terms = cross_entropy_rows(logits, labels_idx)
    ce = float(ce_rows[use_mask].mean())

    gt_inner = np.take_along_axis(inner, labels_idx[:, None], axis=1)[:, 0]
    # per-pixel exterior angle against the ground-truth anchor only
    ext_gt = ext_angles_from_inner(gt_inner, time, gt_at, gt_norm)
    hinge = np.maximum(0.0, ext_gt - gt_aperture)
    entail = float(hinge[use_mask].mean())
    terms = {"ce": ce, "entail": entail, "total": ce + cfg.lambda_w * entail}
    if not want_grad:
        return terms, None

    dl_dd = cross_entropy_rows_backward(ce_terms, labels_idx, obj.weights)
    dl_dd *= -1.0 / cfg.tau  # d(logits)/d(dist) = -1/tau
    g_sp, _ = gr.pair_backward(dl_dd, None, spatial, time, asp, at, inner,
                               obj.protos.spatial_norms, False)

    # the hinge's gradient on every row, weighted 0 where it is inactive
    g_ext = gr.batched_grad_ext_wrt_point(spatial, time, gt_asp, gt_at, gt_inner, gt_norm)
    g_sp += ((cfg.lambda_w / obj.n_used) * (use_mask & (hinge > 0.0)))[:, None] * g_ext
    return terms, gr.exp_lift_backward(lift, g_sp)


def _euclid_loss_and_grad(v: np.ndarray, obj: PixelObjective, want_grad: bool):
    """Euclidean counterpart: CE over -||v - proto||/tau logits."""
    diffs = v[:, None, :] - obj.rows[None, :, :]
    dists = np.sqrt(np.maximum(np.einsum("npd,npd->np", diffs, diffs), 0.0))
    ce_rows, ce_terms = cross_entropy_rows(-dists / obj.cfg.tau, obj.labels_idx)
    ce = float(ce_rows[obj.use_mask].mean())
    terms = {"ce": ce, "total": ce}
    if not want_grad:
        return terms, None
    dl_dd = cross_entropy_rows_backward(ce_terms, obj.labels_idx, obj.weights)
    dl_dd *= -1.0 / obj.cfg.tau
    dl_dd /= np.maximum(dists, 1e-12)
    return terms, np.einsum("np,npd->nd", dl_dd, diffs)


def train(scene: SyntheticScene, bank: DescriptorBank, cfg: TrainConfig,
          exclude_class: int | None = None, head: str = "pixel") -> TrainResult:
    """Train the per-pixel ``head`` in ``_descend``, the loop every head
    shares: "pixel" (cross-entropy over -distance/tau logits plus the cone
    hinge) or "euclid" (the same pipeline with Euclidean prototype
    distances: no lift, no cone, cross-entropy only).  Pixels of
    ``exclude_class``, which the bank must be fit without, are left out."""
    if exclude_class is not None and exclude_class in bank.included:
        raise UsageError("bank must be fit with the held-out class excluded")
    obj = PixelObjective.build(scene, bank, cfg, exclude_class, head)
    params, trace = _descend(obj.loss, obj.flat, cfg, bank.d, {})
    return TrainResult(head, params, obj.protos, bank, trace, cfg, exclude_class)


def evaluate_loss(params: dict, objective: PixelObjective) -> float:
    """Total training objective at the given parameters (used by the
    loss-landscape scans; matches the trace's final entry bit for bit)."""
    # a1 and u are dropped here, not held through the loss, whose
    # temporaries then reuse their memory instead of growing the heap
    v = params["alpha"] * _encoder_parts(params, objective.flat)[1]
    return objective.loss(params, v, False)[0]["total"]


# --------------------------------------------------------------------------
# inference and scoring
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelMap:
    values: np.ndarray  # (H, W) int
    legend: dict  # index -> name

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.int64))


def infer_distance(params: dict, protos: PrototypeSet, scene: SyntheticScene) -> LabelMap:
    """Per-pixel argmin geodesic distance over prototypes; ties break to
    the lowest class index."""
    grid = embed_scene(params, scene)
    sp, t = grid.flat()
    inner = inner_to_anchors(sp, t, protos.spatial, protos.time)
    d = distances_from_inner(inner)
    values = d.argmin(axis=1).reshape(grid.shape)
    return LabelMap(values, {i: n for i, n in enumerate(protos.labels)})


def infer_angle(params: dict, protos: PrototypeSet, scene: SyntheticScene) -> LabelMap:
    """Per-pixel argmin exterior angle over prototypes; ties break low."""
    grid = embed_scene(params, scene)
    sp, t = grid.flat()
    ext = ext_angles_to_anchors(sp, t, protos.spatial, protos.time)
    values = ext.argmin(axis=1).reshape(grid.shape)
    return LabelMap(values, {i: n for i, n in enumerate(protos.labels)})


def infer_euclidean(params: dict, bank: DescriptorBank, scene: SyntheticScene) -> LabelMap:
    v = encoder_forward(params, scene.features)
    flat = v.reshape(-1, v.shape[-1])
    diffs = flat[:, None, :] - bank.reduced[None, :, :]
    d = np.sqrt(np.maximum(np.einsum("npd,npd->np", diffs, diffs), 0.0))
    values = d.argmin(axis=1).reshape(scene.shape)
    return LabelMap(values, {i: n for i, n in enumerate(bank.names)})


def miou(pred, gt, n_classes: int) -> float:
    """Mean IoU over the classes present in the ground truth."""
    pv = pred.values if isinstance(pred, LabelMap) else np.asarray(pred)
    gv = gt.values if isinstance(gt, LabelMap) else np.asarray(gt)
    if pv.shape != gv.shape:
        raise UsageError(f"shape mismatch: {pv.shape} vs {gv.shape}")
    ious = []
    for c in range(n_classes):
        gt_c = gv == c
        if not gt_c.any():
            continue
        pred_c = pv == c
        inter = np.count_nonzero(gt_c & pred_c)
        union = np.count_nonzero(gt_c | pred_c)
        ious.append(inter / union)
    return float(np.mean(ious))


def scene_segments(scene: SyntheticScene):
    """One (class_id, binary mask) per class present in the scene."""
    segs = []
    for c in range(scene.n_classes):
        mask = scene.labels == c
        if mask.any():
            segs.append((c, mask))
    return segs
