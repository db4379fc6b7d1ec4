"""Desk-scale per-pixel segmentation on synthetic hierarchical scenes.

A scene is a grid partitioned into contiguous rectangles, one per child
class of a two-level hierarchy (parents x children).  Per-pixel features
are the child's descriptor vector plus optional Gaussian noise and an
optional boundary blend that mixes neighboring descriptors along region
borders (the stand-in for the soft edges of real imagery; off by
default).

Descriptors play the role of encoded label text: a shared bias plus a
parent direction plus a child offset, which keeps pairwise cosines
positive the way sentence embeddings are.  PCA (exact Jacobi
eigensolver) reduces them; rows are rescaled by the inverse mean norm
(unit tangent norm on average) and lifted to the hyperboloid to become
class prototypes.

The trainable encoder is a 2-layer perceptron with a tanh hidden layer
and a learnable output scale, trained by plain full-batch gradient
descent with weight decay.  Backprop is assembled by chain rule from the
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
    EntailmentConfig,
    PrototypeSet,
    anchor_apertures,
    cross_entropy_rows,
    distance_logit_matrix,
    ext_angles_from_inner,
    ext_angles_to_anchors,
    softmax_rows,
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
    from .maskhead import MaskHeadConfig, QuerySet

_EPS_FLOOR = 1e-12
_JACOBI_SWEEPS = 64  # cap on the cyclic Jacobi sweeps of the PCA


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


def _jacobi_eigh(S: np.ndarray):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix; returns
    (eigenvalues desc, eigenvectors as columns), bit-deterministic."""
    A = np.array(S, dtype=np.float64, copy=True)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(_JACOBI_SWEEPS):
        off = math.sqrt(max(0.0, (A * A).sum() - (np.diag(A) ** 2).sum()))
        if off <= 1e-14 * max(1.0, float(np.abs(np.diag(A)).max())):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p, rot_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * rot_p - s * rot_q
                A[:, q] = s * rot_p + c * rot_q
                rot_p, rot_q = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rot_p - s * rot_q
                A[q, :] = s * rot_p + c * rot_q
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    vals = np.diag(A).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], V[:, order]


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
    vals, vecs = _jacobi_eigh(cov)
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
    """Synthetic label descriptors with their PCA reduction.

    ``reduced`` rows already carry the prototype scaling (divided by the
    mean row norm, so rows have unit tangent norm on average);
    ``included`` lists the class ids the PCA was fit on, which is how
    held-out classes stay out of both the projection and the prototype
    set.
    """

    raw: np.ndarray
    included: tuple
    projection: np.ndarray
    mean: np.ndarray
    reduced: np.ndarray
    mean_norm: float
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
            raw=raw,
            included=included,
            projection=proj,
            mean=raw[list(included)].mean(axis=0),
            reduced=reduced / mean_norm,
            mean_norm=mean_norm,
            d=proj.shape[1],
            names=tuple(scene.class_names[i] for i in included),
        )

    def project(self, vec: np.ndarray) -> np.ndarray:
        """Run a raw descriptor-space vector through the trained PCA and
        prototype scaling (the novel-query path)."""
        vec = np.asarray(vec, dtype=np.float64).reshape(-1)
        if vec.size != self.raw.shape[1]:
            raise UsageError(
                f"query must have descriptor dimension {self.raw.shape[1]}, got {vec.size}"
            )
        return (vec - self.mean) @ self.projection / self.mean_norm


def build_prototypes(bank: DescriptorBank, entail_cfg: EntailmentConfig) -> PrototypeSet:
    """Lift the scaled descriptor rows to the hyperboloid."""
    norms = np.linalg.norm(bank.reduced, axis=1)
    if np.any(norms == 0.0):
        raise UsageError("zero-norm descriptor row cannot anchor a cone")
    anchors = tuple(exp_lift_origin(row) for row in bank.reduced)
    return PrototypeSet(anchors=anchors, labels=bank.names).validate_apertures(entail_cfg)


# --------------------------------------------------------------------------
# encoder
# --------------------------------------------------------------------------


@dataclass
class EncoderParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    alpha: float

    def blocks(self) -> dict:
        return {
            "w1": self.w1,
            "b1": self.b1,
            "w2": self.w2,
            "b2": self.b2,
            "alpha": np.array([self.alpha]),
        }

    @classmethod
    def from_blocks(cls, blocks: dict) -> "EncoderParams":
        return cls(
            w1=blocks["w1"], b1=blocks["b1"], w2=blocks["w2"], b2=blocks["b2"],
            alpha=float(np.asarray(blocks["alpha"]).reshape(-1)[0]),
        )


def init_encoder(d_in: int, hidden: int, d_out: int, seed: int) -> EncoderParams:
    rng = np.random.default_rng(seed)
    return EncoderParams(
        w1=rng.normal(size=(hidden, d_in)) / math.sqrt(d_in),
        b1=np.zeros(hidden),
        w2=rng.normal(size=(d_out, hidden)) / math.sqrt(hidden),
        b2=np.zeros(d_out),
        alpha=1.0,
    )


def _encoder_parts(params: EncoderParams, flat: np.ndarray):
    a1 = np.tanh(flat @ params.w1.T + params.b1)
    u = a1 @ params.w2.T + params.b2
    return a1, u


def encoder_forward(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    """Per-pixel tangent vectors alpha * mlp(features), shape (H, W, d)."""
    h, w, _ = features.shape
    _, u = _encoder_parts(params, features.reshape(h * w, -1))
    return (params.alpha * u).reshape(h, w, -1)


def embed_scene(params: EncoderParams, scene: SyntheticScene) -> EmbeddingGrid:
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

    @property
    def entail_cfg(self) -> EntailmentConfig:
        return EntailmentConfig(K=self.K)


@dataclass
class TrainResult:
    """A trained head: "pixel", "euclid" (the Euclidean pipeline, which has
    no prototypes) or "mask" (the only one with queries and a head config)."""

    head: str
    params: EncoderParams
    protos: PrototypeSet | None
    bank: DescriptorBank
    trace: dict  # one array per column, final row = post-training eval; {} when loaded
    config: TrainConfig
    exclude_class: int | None = None
    queries: QuerySet | None = None
    head_cfg: MaskHeadConfig | None = None

    @property
    def final_loss(self) -> float:
        return float(self.trace["total"][-1])


def _trace_arrays(columns, rows) -> dict:
    """One array per column from per-epoch rows (the last row is the
    post-training evaluation)."""
    return {c: np.asarray([row[i] for row in rows]) for i, c in enumerate(columns)}


def _start_encoder(flat: np.ndarray, cfg: TrainConfig, d_out: int) -> EncoderParams:
    """Seeded encoder whose alpha gives its initial outputs unit mean norm."""
    params = init_encoder(flat.shape[1], cfg.hidden, d_out, cfg.seed)
    _, u0 = _encoder_parts(params, flat)
    mean_norm = float(np.linalg.norm(u0, axis=1).mean())
    params.alpha = 1.0 / mean_norm if mean_norm > 0 else 1.0
    return params


def _encoder_step(params, flat, a1, u, g_v, cfg: TrainConfig):
    """Chain dL/dv back through v = alpha * mlp(flat) (forward parts a1, u)
    and take one plain gradient step, with weight decay on the weights."""
    g_u = params.alpha * g_v
    g_alpha = float(np.einsum("nd,nd->", u, g_v))
    g_w2 = g_u.T @ a1 + cfg.weight_decay * params.w2
    g_b2 = g_u.sum(axis=0)
    g_a1 = g_u @ params.w2
    g_z1 = g_a1 * (1.0 - a1 * a1)
    g_w1 = g_z1.T @ flat + cfg.weight_decay * params.w1
    g_b1 = g_z1.sum(axis=0)
    params.w1 = params.w1 - cfg.lr * g_w1
    params.b1 = params.b1 - cfg.lr * g_b1
    params.w2 = params.w2 - cfg.lr * g_w2
    params.b2 = params.b2 - cfg.lr * g_b2
    params.alpha = float(params.alpha - cfg.lr * g_alpha)


@dataclass(frozen=True)
class PixelObjective:
    """The per-pixel objective on one scene, built once and evaluated at
    any tangent vectors.

    ``labels_idx`` holds each pixel's column among the bank's included
    classes; pixels of a held-out class map to column 0 and are left out
    by ``use_mask``.  The Lorentz geometry scores against the lifted
    prototypes with their cone apertures; the Euclidean one (``protos``
    None) against the bank's reduced rows.
    """

    flat: np.ndarray  # (Npx, d_orig) scene features
    labels_idx: np.ndarray
    use_mask: np.ndarray
    rows: np.ndarray  # the bank's reduced rows, the Euclidean prototypes
    protos: PrototypeSet | None
    apers: np.ndarray | None
    cfg: TrainConfig

    @classmethod
    def build(cls, scene, bank, cfg, exclude_class=None, geometry="lorentz") -> "PixelObjective":
        labels_flat = scene.labels.reshape(-1)
        column = np.zeros(scene.n_classes, dtype=np.int64)
        column[list(bank.included)] = np.arange(len(bank.included))
        use_mask = np.ones(labels_flat.size, dtype=bool)
        if exclude_class is not None:
            use_mask = labels_flat != exclude_class
        protos = apers = None
        if geometry == "lorentz":
            protos = build_prototypes(bank, cfg.entail_cfg)
            apers = anchor_apertures(protos.spatial_norms, cfg.K)
        return cls(
            flat=scene.features.reshape(-1, scene.features.shape[-1]),
            labels_idx=column[labels_flat], use_mask=use_mask, rows=bank.reduced,
            protos=protos, apers=apers, cfg=cfg,
        )

    def loss(self, v: np.ndarray, want_grad: bool):
        """(ce, entail, total, dL/dv or None) at tangent vectors v (Npx, d)."""
        if self.protos is None:
            return _euclid_loss_and_grad(v, self, want_grad)
        return _pixel_loss_and_grad(v, self, want_grad)


def _ce_dlogits(logits, obj: PixelObjective) -> np.ndarray:
    """d(mean masked CE)/d(distance) for logits = -distance/tau."""
    labels_idx = obj.labels_idx[:, None]
    dl_dd = softmax_rows(logits)
    np.put_along_axis(dl_dd, labels_idx, np.take_along_axis(dl_dd, labels_idx, axis=1) - 1.0, axis=1)
    dl_dd *= -1.0 / obj.cfg.tau  # d(logits)/d(dist) = -1/tau
    dl_dd[~obj.use_mask] = 0.0
    dl_dd /= int(obj.use_mask.sum())
    return dl_dd


def _pixel_loss_and_grad(v: np.ndarray, obj: PixelObjective, want_grad: bool):
    """Mean combined loss over unmasked pixels and, optionally, its
    gradient w.r.t. the tangent vectors v (Npx, d)."""
    cfg, labels_idx, use_mask = obj.cfg, obj.labels_idx, obj.use_mask
    asp, at, anorm = obj.protos.spatial, obj.protos.time, obj.protos.spatial_norms
    time, spatial = batched_exp_lift(v)
    inner = inner_to_anchors(spatial, time, asp, at)
    logits = distance_logit_matrix(spatial, time, asp, at, cfg.tau, inner=inner)
    n_used = int(use_mask.sum())
    if n_used == 0:
        raise UsageError("no pixels left to train on")
    ce_rows = cross_entropy_rows(logits[use_mask], labels_idx[use_mask])
    ce = float(ce_rows.mean())

    gt_at = at[labels_idx]
    gt_norm = anorm[labels_idx]
    gt_inner = np.take_along_axis(inner, labels_idx[:, None], axis=1)[:, 0]
    # per-pixel exterior angle against the ground-truth anchor only
    ext_gt = ext_angles_from_inner(gt_inner, time, gt_at, gt_norm)
    hinge = np.maximum(0.0, ext_gt - obj.apers[labels_idx])
    entail = float(hinge[use_mask].mean())
    total = ce + cfg.lambda_w * entail
    if not want_grad:
        return ce, entail, total, None

    dl_dd = _ce_dlogits(logits, obj)
    # distance gradients: dd_i/dspatial = -(a_i - (at_i/t) s)/sqrt(inner^2-1)
    den_d = np.sqrt(np.maximum(inner * inner - 1.0, _EPS_FLOOR))
    coef = dl_dd / den_d
    g_sp = -(coef @ asp) + ((coef * at).sum(axis=1) / time)[:, None] * spatial

    active = use_mask & (hinge > 0.0)
    if np.any(active):
        g_ext = gr.batched_grad_ext_wrt_point(
            spatial[active], time[active], asp[labels_idx[active]], gt_at[active],
            gt_inner[active], gt_norm[active],
        )
        g_sp[active] += (cfg.lambda_w / n_used) * g_ext
    g_v = gr.exp_lift_backward(v, g_sp)
    return ce, entail, total, g_v


def _euclid_loss_and_grad(v: np.ndarray, obj: PixelObjective, want_grad: bool):
    """Euclidean counterpart: CE over -||v - proto||/tau logits."""
    diffs = v[:, None, :] - obj.rows[None, :, :]
    dists = np.sqrt(np.maximum(np.einsum("npd,npd->np", diffs, diffs), 0.0))
    logits = -dists / obj.cfg.tau
    use_mask = obj.use_mask
    ce = float(cross_entropy_rows(logits[use_mask], obj.labels_idx[use_mask]).mean())
    if not want_grad:
        return ce, 0.0, ce, None
    safe = np.maximum(dists, 1e-12)
    g_v = np.einsum("np,npd->nd", _ce_dlogits(logits, obj) / safe, diffs)
    return ce, 0.0, ce, g_v


def _run_training(scene, bank, cfg, exclude_class, geometry) -> TrainResult:
    if exclude_class is not None and exclude_class in bank.included:
        raise UsageError("bank must be fit with the held-out class excluded")
    obj = PixelObjective.build(scene, bank, cfg, exclude_class, geometry)
    params = _start_encoder(obj.flat, cfg, bank.d)
    rows = []
    for epoch in range(cfg.epochs):
        a1, u = _encoder_parts(params, obj.flat)
        ce, entail, total, g_v = obj.loss(params.alpha * u, True)
        if not math.isfinite(total):
            raise TrainingDivergedError(epoch)
        rows.append((epoch, ce, entail, total))
        _encoder_step(params, obj.flat, a1, u, g_v, cfg)
    _, u = _encoder_parts(params, obj.flat)
    rows.append((cfg.epochs, *obj.loss(params.alpha * u, False)[:3]))
    trace = _trace_arrays(("epoch", "ce", "entail", "total"), rows)
    head = "pixel" if geometry == "lorentz" else "euclid"
    return TrainResult(head, params, obj.protos, bank, trace, cfg, exclude_class)


def train(
    scene: SyntheticScene,
    bank: DescriptorBank,
    cfg: TrainConfig,
    exclude_class: int | None = None,
) -> TrainResult:
    """Full-batch gradient descent on the mean combined loss."""
    return _run_training(scene, bank, cfg, exclude_class, "lorentz")


def train_euclidean(
    scene: SyntheticScene,
    bank: DescriptorBank,
    cfg: TrainConfig,
    exclude_class: int | None = None,
) -> TrainResult:
    """Identical pipeline with Euclidean prototype distances: no lift, no
    cone, cross-entropy only."""
    return _run_training(scene, bank, cfg, exclude_class, "euclidean")


def evaluate_loss(params: EncoderParams, objective: PixelObjective) -> float:
    """Total training objective at the given parameters (used by the
    loss-landscape scans; matches the trace's final entry bit for bit)."""
    _, u = _encoder_parts(params, objective.flat)
    return objective.loss(params.alpha * u, False)[2]


# --------------------------------------------------------------------------
# inference, scoring, retrieval
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelMap:
    values: np.ndarray  # (H, W) int
    legend: dict  # index -> name

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.int64))


def infer_distance(params: EncoderParams, protos: PrototypeSet, scene: SyntheticScene) -> LabelMap:
    """Per-pixel argmin geodesic distance over prototypes; ties break to
    the lowest class index."""
    grid = embed_scene(params, scene)
    sp, t = grid.flat()
    inner = inner_to_anchors(sp, t, protos.spatial, protos.time)
    d = distances_from_inner(inner)
    values = d.argmin(axis=1).reshape(grid.shape)
    return LabelMap(values, {i: n for i, n in enumerate(protos.labels)})


def infer_angle(params: EncoderParams, protos: PrototypeSet, scene: SyntheticScene) -> LabelMap:
    """Per-pixel argmin exterior angle over prototypes; ties break low."""
    grid = embed_scene(params, scene)
    sp, t = grid.flat()
    ext = ext_angles_to_anchors(sp, t, protos.spatial, protos.time)
    values = ext.argmin(axis=1).reshape(grid.shape)
    return LabelMap(values, {i: n for i, n in enumerate(protos.labels)})


def infer_euclidean(params: EncoderParams, bank: DescriptorBank, scene: SyntheticScene) -> LabelMap:
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


def pixel_accuracy(pred, gt) -> float:
    pv = pred.values if isinstance(pred, LabelMap) else np.asarray(pred)
    gv = gt if isinstance(gt, np.ndarray) else gt.values
    return float(np.count_nonzero(pv == gv) / pv.size)


def text_query(
    params: EncoderParams,
    scene: SyntheticScene,
    query: np.ndarray,
    bank: DescriptorBank,
    mode: str = "distance",
) -> np.ndarray:
    """Score every pixel against a raw descriptor-space query.

    The query passes through the bank's PCA projection and scaling, is
    lifted, and scores are -distance or -exterior angle.  Returns the
    (H, W) scores.
    """
    if mode not in ("distance", "angle"):
        raise UsageError(f"mode must be 'distance' or 'angle', got {mode!r}")
    q = exp_lift_origin(bank.project(query))
    grid = embed_scene(params, scene)
    sp, t = grid.flat()
    anchor_sp, anchor_t = q.spatial[None, :], np.array([q.time])
    inner = inner_to_anchors(sp, t, anchor_sp, anchor_t)
    if mode == "distance":
        scores = -distances_from_inner(inner)[:, 0]
    else:
        scores = -ext_angles_to_anchors(sp, t, anchor_sp, anchor_t, inner=inner)[:, 0]
    return scores.reshape(grid.shape)


def euclid_text_query(
    params: EncoderParams,
    scene: SyntheticScene,
    query: np.ndarray,
    bank: DescriptorBank,
) -> np.ndarray:
    """(H, W) scores -||v - q|| of the Euclidean pipeline against the
    projected query."""
    q = bank.project(query)
    v = encoder_forward(params, scene.features)
    return -np.linalg.norm(v - q[None, None, :], axis=-1)


def recall_at_budget(scores: np.ndarray, gt_mask: np.ndarray) -> float:
    """Recall of the ground-truth pixels among as many top-scoring pixels
    as there are ground-truth pixels."""
    gt_mask = np.asarray(gt_mask, dtype=bool)
    total = int(gt_mask.sum())
    if total == 0:
        raise UsageError("empty ground-truth mask")
    flat = np.asarray(scores).reshape(-1)
    top = np.argsort(-flat, kind="stable")[:total]
    hits = int(gt_mask.reshape(-1)[top].sum())
    return hits / total


def scene_segments(scene: SyntheticScene):
    """One (class_id, binary mask) per class present in the scene."""
    segs = []
    for c in range(scene.n_classes):
        mask = scene.labels == c
        if mask.any():
            segs.append((c, mask))
    return segs
