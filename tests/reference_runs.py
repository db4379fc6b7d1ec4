"""The reference protocol's runs, the statistics frozen from them, and the
retrieval and boundary functions that only those statistics and the tests
read.

``RUNS`` names each reference run and how it is built.  ``ReferenceRuns``
maps each name to its run, trained the first time it is read, so a caller
pays only for the runs it reads.  ``STATISTICS`` maps each statistic of
tests/reference_values.py, in the order scripts/make_reference_values.py
prints them, to a function of those runs.  The session fixture of
conftest.py and that script share both tables.

No command runs text retrieval or scores a boundary against the labels, so
those functions live here rather than in the package: ``text_query`` and
``euclid_text_query`` score every pixel against a raw descriptor-space
query, ``recall_at_budget`` scores a retrieval, ``boundary_interior_margin``
and ``boundary_recall`` score an uncertainty map against the label
borders, and ``radius_uncertainty_variants`` and ``ranking_signature``
check that the radius formulations rank pixels alike.
"""

import time
from dataclasses import dataclass

import numpy as np

from lorentzseg import lorentz as lz
from lorentzseg import maskhead as mh
from lorentzseg import reference as rp
from lorentzseg import segtoy as st
from lorentzseg import uncertainty as unc
from lorentzseg.entailment import ext_angles_to_anchors
from lorentzseg.errors import UsageError
from lorentzseg.maskhead import MaskHeadConfig
from lorentzseg.segtoy import SceneConfig, TrainConfig


@dataclass(frozen=True)
class Run:
    """One reference run: its scene, the classes its bank is fit without,
    its head ("pixel", "euclid" or "mask"), the mask head's config, its
    train config and the class whose pixels its training leaves out."""

    scene: SceneConfig
    exclude: tuple = ()
    head: str = "pixel"
    head_cfg: MaskHeadConfig | None = None
    train: TrainConfig = rp.REFERENCE_TRAIN
    exclude_class: int | None = None


_HELDOUT = {"exclude": (rp.HELDOUT_CLASS,), "exclude_class": rp.HELDOUT_CLASS}
_MASK = {"head": "mask", "train": rp.REFERENCE_MASK_TRAIN}

# runs of one scene config and one exclusion tuple share a scene and a bank:
# the held-out pair shares a bank fit without the held-out class, and the
# mask run the clean run's bank
RUNS = {
    "clean": Run(rp.REFERENCE_SCENE),
    "noisy": Run(rp.REFERENCE_SCENE_NOISY),
    "boundary": Run(rp.REFERENCE_SCENE_BOUNDARY),
    "heldout-hyp": Run(rp.REFERENCE_SCENE_NOISY, **_HELDOUT),
    "heldout-euc": Run(rp.REFERENCE_SCENE_NOISY, head="euclid", **_HELDOUT),
    "mask": Run(rp.REFERENCE_SCENE, head_cfg=rp.REFERENCE_MASK_HEAD, **_MASK),
    "ablation-full": Run(rp.REFERENCE_SCENE_ABLATION, head_cfg=rp.REFERENCE_MASK_HEAD, **_MASK),
    "ablation-noangle": Run(rp.REFERENCE_SCENE_ABLATION,
                            head_cfg=rp.REFERENCE_MASK_HEAD_ABLATED, **_MASK),
}


def _parameter_bytes(run):
    """The bytes of every parameter block of a TrainResult."""
    return {name: block.tobytes() for name, block in run.params.items()}


class ReferenceRuns:
    """``RUNS[name]`` trained into a TrainResult on the first read of
    ``runs[name]``.  Every scene and bank is built once.  ``seconds``
    records what each training read took, with the scene and bank it
    built."""

    def __init__(self):
        self._built = {}
        self._runs = {}
        self._bytes = {}
        self.seconds = {}

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def scene(self, name):
        config = RUNS[name].scene
        return self._once(config, lambda: st.generate_scene(config))

    def bank(self, name):
        run = RUNS[name]
        return self._once((run.scene, run.exclude), lambda: st.DescriptorBank.fit(
            self.scene(name), rp.EMBED_DIM, exclude=run.exclude))

    def __getitem__(self, name):
        if name not in self._runs:
            run = RUNS[name]
            started = time.perf_counter()
            scene, bank = self.scene(name), self.bank(name)
            if run.head == "mask":
                result = mh.train_maskhead(scene, bank, run.head_cfg, run.train)
            else:
                result = st.train(scene, bank, run.train, run.exclude_class, run.head)
            self.seconds[name] = time.perf_counter() - started
            self._runs[name] = result
            self._bytes[name] = _parameter_bytes(result)
        return self._runs[name]

    def train_seconds(self, *names):
        """Train ``names`` if they are not yet; the seconds they took."""
        for name in names:
            self[name]
        return sum(self.seconds[name] for name in names)

    def changed(self):
        """The trained runs whose parameter bytes differ from the ones
        their training ended with."""
        return [name for name, run in self._runs.items()
                if _parameter_bytes(run) != self._bytes[name]]


def project(scene, bank, vec):
    """Run a raw descriptor-space vector through the PCA and prototype
    scaling of ``bank`` (the novel-query path).  The bank keeps only its
    scaled rows, so the PCA is fit again on the included classes'
    descriptors of ``scene``; ``bank.d`` is already the effective rank, so
    the refit warns of no rank deficiency."""
    raw = scene.class_descriptors[list(bank.included)]
    vec = np.asarray(vec, dtype=np.float64).reshape(-1)
    if vec.size != raw.shape[1]:
        raise UsageError(f"query must have descriptor dimension {raw.shape[1]}, got {vec.size}")
    proj, reduced = st.pca_reduce(raw, bank.d)
    mean_norm = float(np.linalg.norm(reduced, axis=1).mean())
    return (vec - raw.mean(axis=0)) @ proj / mean_norm


def text_query(params, scene, query, bank, mode="distance"):
    """Score every pixel against a raw descriptor-space query.

    The query passes through the bank's PCA projection and scaling, is
    lifted, and scores are -distance or -exterior angle.  Returns the
    (H, W) scores.
    """
    if mode not in ("distance", "angle"):
        raise UsageError(f"mode must be 'distance' or 'angle', got {mode!r}")
    q = lz.exp_lift_origin(project(scene, bank, query))
    grid = st.embed_scene(params, scene)
    sp, t = grid.flat()
    anchor_sp, anchor_t = q.spatial[None, :], np.array([q.time])
    inner = lz.inner_to_anchors(sp, t, anchor_sp, anchor_t)
    if mode == "distance":
        scores = -lz.distances_from_inner(inner)[:, 0]
    else:
        scores = -ext_angles_to_anchors(sp, t, anchor_sp, anchor_t, inner=inner)[:, 0]
    return scores.reshape(grid.shape)


def euclid_text_query(params, scene, query, bank):
    """(H, W) scores -||v - q|| of the Euclidean pipeline against the
    projected query."""
    q = project(scene, bank, query)
    v = st.encoder_forward(params, scene.features)
    return -np.linalg.norm(v - q[None, None, :], axis=-1)


def recall_at_budget(scores, gt_mask):
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


def label_boundary_mask(labels):
    """Pixels with a 4-neighbor of another label."""
    labels = np.asarray(labels)
    edge = np.zeros(labels.shape, dtype=bool)
    edge[:-1, :] |= labels[:-1, :] != labels[1:, :]
    edge[1:, :] |= labels[1:, :] != labels[:-1, :]
    edge[:, :-1] |= labels[:, :-1] != labels[:, 1:]
    edge[:, 1:] |= labels[:, 1:] != labels[:, :-1]
    return edge


def boundary_interior_margin(u, labels):
    """Mean of the ScalarMap ``u`` over the region borders minus its
    interior mean."""
    edge = label_boundary_mask(labels)
    if edge.all() or not edge.any():
        raise UsageError("degenerate boundary mask")
    return float(u.values[edge].mean() - u.values[~edge].mean())


def boundary_recall(pred_boundary, labels):
    """Fraction of true border pixels flagged by the boundary ScalarMap."""
    edge = label_boundary_mask(labels)
    if not edge.any():
        raise UsageError("no boundary pixels in the label map")
    flagged = pred_boundary.values > 0.5
    return float(flagged[edge].mean())


def radius_uncertainty_variants(grid):
    """The three monotone-equivalent formulations of radius uncertainty,
    for ranking checks: (-x0, -||x'||, -poincare radius)."""
    pnorm = grid.spatial_norms / (grid.time + 1.0)
    return -grid.time, -grid.spatial_norms, -pnorm


def ranking_signature(values):
    """Dense ranks of the flattened values, for ordering-equivalence
    checks: ties share a rank and the ranks run 0, 1, 2, ... without gaps
    ([3, 3, 5] -> [0, 0, 1])."""
    return np.unique(np.asarray(values).reshape(-1), return_inverse=True)[1]


def _miou(runs, name):
    run, scene = runs[name], runs.scene(name)
    pred = (mh.predict_semantic(run, scene) if run.head == "mask"
            else st.infer_distance(run.params, run.protos, scene))
    return st.miou(pred, scene.labels, scene.n_classes)


def _agreement(runs, name):
    """The share of pixels on which distance and angle inference agree."""
    run, scene = runs[name], runs.scene(name)
    pred_d = st.infer_distance(run.params, run.protos, scene)
    pred_a = st.infer_angle(run.params, run.protos, scene)
    return float((pred_d.values == pred_a.values).mean())


def _recall_p90(uncertainty, labels):
    """Boundary recall of the top decile of an uncertainty map."""
    return boundary_recall(unc.boundary_map(uncertainty, 90.0), labels)


def _uncertainty(runs, name, kind="angle"):
    """A run's radius or angle uncertainty map, the latter over the mask
    queries for a mask run, and its scene's labels."""
    run, scene = runs[name], runs.scene(name)
    grid = st.embed_scene(run.params, scene)
    if kind == "radius":
        return unc.radius_uncertainty(grid), scene.labels
    if run.head == "mask":
        return mh.mask_angle_uncertainty(grid, run.params), scene.labels
    return unc.angle_uncertainty(grid, run.protos.spatial, run.protos.time), scene.labels


def _confidence_gap(runs):
    """Mean class-0 confidence of class-0 pixels minus that of the rest."""
    run, scene = runs["boundary"], runs.scene("boundary")
    conf = unc.class_confidence(st.embed_scene(run.params, scene), scene.labels == 0)
    return float(conf.values[scene.labels == 0].mean() - conf.values[scene.labels != 0].mean())


def _parent_child_recall_min(runs):
    """Parent-descriptor retrieval of child pixels (angle mode), worst parent."""
    run, scene = runs["noisy"], runs.scene("noisy")
    recalls = []
    for p in range(scene.config.parents):
        gt = np.isin(scene.labels, [c for c, pp in scene.hierarchy.items() if pp == p])
        s = text_query(run.params, scene, scene.parent_descriptors[p], run.bank, mode="angle")
        recalls.append(recall_at_budget(s, gt))
    return min(recalls)


def _heldout_recall(runs, name):
    """Recall of the held-out class's pixels from its own descriptor."""
    run, scene = runs[name], runs.scene(name)
    q = scene.class_descriptors[rp.HELDOUT_CLASS]
    if run.head == "euclid":
        s = euclid_text_query(run.params, scene, q, run.bank)
    else:
        s = text_query(run.params, scene, q, run.bank, mode="distance")
    return recall_at_budget(s, scene.labels == rp.HELDOUT_CLASS)


def _crosslabel_ext(runs, query):
    """Mean exterior angle of the top pixels, as many as class 0 has, that
    the noisy run retrieves for ``query`` in angle mode."""
    run, scene = runs["noisy"], runs.scene("noisy")
    s = text_query(run.params, scene, query, run.bank, mode="angle")
    n0 = int((scene.labels == 0).sum())
    return float((-np.sort(s.reshape(-1))[::-1][:n0]).mean())


STATISTICS = {
    "CLEAN_MIOU": lambda runs: _miou(runs, "clean"),
    "CLEAN_AGREEMENT": lambda runs: _agreement(runs, "clean"),
    "NOISY_MIOU": lambda runs: _miou(runs, "noisy"),
    "NOISY_AGREEMENT": lambda runs: _agreement(runs, "noisy"),
    "BOUNDARY_MARGIN_RADIUS": lambda runs: boundary_interior_margin(
        *_uncertainty(runs, "boundary", "radius")),
    "BOUNDARY_MARGIN_ANGLE": lambda runs: boundary_interior_margin(
        *_uncertainty(runs, "boundary")),
    "BOUNDARY_RECALL_ANGLE_P90": lambda runs: _recall_p90(*_uncertainty(runs, "boundary")),
    "CONFIDENCE_GAP_CLASS0": _confidence_gap,
    "PARENT_CHILD_RECALL_MIN": _parent_child_recall_min,
    "HELDOUT_RECALL_HYP": lambda runs: _heldout_recall(runs, "heldout-hyp"),
    "HELDOUT_RECALL_EUC": lambda runs: _heldout_recall(runs, "heldout-euc"),
    # an unrelated random query against a same-class one
    "CROSSLABEL_EXT_RANDOM": lambda runs: _crosslabel_ext(
        runs, np.random.default_rng(0).normal(size=16) * 2.0),
    "CROSSLABEL_EXT_SAMECLASS": lambda runs: _crosslabel_ext(
        runs, runs.scene("noisy").class_descriptors[0]),
    "MASK_MIOU": lambda runs: _miou(runs, "mask"),
    "MASK_BOUNDARY_RECALL_FULL": lambda runs: _recall_p90(*_uncertainty(runs, "ablation-full")),
    "MASK_BOUNDARY_RECALL_NOANGLE": lambda runs: _recall_p90(
        *_uncertainty(runs, "ablation-noangle")),
}
