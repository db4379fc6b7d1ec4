"""Regenerate every statistic frozen into tests/reference_values.py.

Run from the repository root:

    python scripts/make_reference_values.py

and paste the printed block into tests/reference_values.py if the
reference protocol changes.  Frozen floors are the measured values
rounded down ~5 percent to absorb BLAS-ordering jitter across platforms;
the runs themselves are deterministic per seed on a given machine.
"""

import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lorentzseg import maskhead as mh  # noqa: E402
from lorentzseg import segtoy as st  # noqa: E402
from lorentzseg import uncertainty as unc  # noqa: E402
from lorentzseg.cli import _print_warning  # noqa: E402
from lorentzseg.reference import (  # noqa: E402
    EMBED_DIM,
    HELDOUT_CLASS,
    REFERENCE_MASK_HEAD,
    REFERENCE_MASK_HEAD_ABLATED,
    REFERENCE_MASK_TRAIN,
    REFERENCE_SCENE,
    REFERENCE_SCENE_ABLATION,
    REFERENCE_SCENE_BOUNDARY,
    REFERENCE_SCENE_NOISY,
    REFERENCE_TRAIN,
)


def main():
    out = {}

    scene = st.generate_scene(REFERENCE_SCENE)
    bank = st.DescriptorBank.fit(scene, EMBED_DIM)
    res = st.train(scene, bank, REFERENCE_TRAIN)
    pred_d = st.infer_distance(res.params, res.protos, scene)
    pred_a = st.infer_angle(res.params, res.protos, scene)
    out["CLEAN_MIOU"] = st.miou(pred_d, scene.labels, scene.n_classes)
    out["CLEAN_AGREEMENT"] = float((pred_d.values == pred_a.values).mean())

    noisy = st.generate_scene(REFERENCE_SCENE_NOISY)
    bank_n = st.DescriptorBank.fit(noisy, EMBED_DIM)
    res_n = st.train(noisy, bank_n, REFERENCE_TRAIN)
    pred_nd = st.infer_distance(res_n.params, res_n.protos, noisy)
    pred_na = st.infer_angle(res_n.params, res_n.protos, noisy)
    out["NOISY_MIOU"] = st.miou(pred_nd, noisy.labels, noisy.n_classes)
    out["NOISY_AGREEMENT"] = float((pred_nd.values == pred_na.values).mean())

    bscene = st.generate_scene(REFERENCE_SCENE_BOUNDARY)
    bank_b = st.DescriptorBank.fit(bscene, EMBED_DIM)
    res_b = st.train(bscene, bank_b, REFERENCE_TRAIN)
    grid_b = st.embed_scene(res_b.params, bscene)
    ru = unc.radius_uncertainty(grid_b)
    au = unc.angle_uncertainty(grid_b, res_b.protos)
    out["BOUNDARY_MARGIN_RADIUS"] = unc.boundary_interior_margin(ru, bscene.labels)
    out["BOUNDARY_MARGIN_ANGLE"] = unc.boundary_interior_margin(au, bscene.labels)
    out["BOUNDARY_RECALL_ANGLE_P90"] = unc.boundary_recall(
        unc.boundary_map(au, 90.0), bscene.labels
    )
    conf = unc.class_confidence(grid_b, bscene.labels == 0)
    out["CONFIDENCE_GAP_CLASS0"] = float(
        conf.values[bscene.labels == 0].mean() - conf.values[bscene.labels != 0].mean()
    )

    # parent-descriptor retrieval of child pixels (angle mode, worst parent)
    recalls = []
    for p in range(REFERENCE_SCENE_NOISY.parents):
        gt = np.isin(noisy.labels, [c for c, pp in noisy.hierarchy.items() if pp == p])
        s = st.text_query(res_n.params, noisy, noisy.parent_descriptors[p], bank_n, mode="angle")
        recalls.append(st.recall_at_budget(s, gt))
    out["PARENT_CHILD_RECALL_MIN"] = min(recalls)

    # held-out child class: hyperbolic vs euclidean recall, same seed
    bank_h = st.DescriptorBank.fit(noisy, EMBED_DIM, exclude=(HELDOUT_CLASS,))
    res_h = st.train(noisy, bank_h, REFERENCE_TRAIN, exclude_class=HELDOUT_CLASS)
    res_e = st.train(noisy, bank_h, REFERENCE_TRAIN, HELDOUT_CLASS, "euclid")
    gt_h = noisy.labels == HELDOUT_CLASS
    q = noisy.class_descriptors[HELDOUT_CLASS]
    s_h = st.text_query(res_h.params, noisy, q, bank_h, mode="distance")
    s_e = st.euclid_text_query(res_e.params, noisy, q, bank_h)
    out["HELDOUT_RECALL_HYP"] = st.recall_at_budget(s_h, gt_h)
    out["HELDOUT_RECALL_EUC"] = st.recall_at_budget(s_e, gt_h)

    # cross-label: retrieved pixels of an unrelated random query carry
    # larger exterior angles than same-class retrievals
    rng = np.random.default_rng(0)
    s_rand = st.text_query(res_n.params, noisy, rng.normal(size=16) * 2.0, bank_n, mode="angle")
    s_cls = st.text_query(res_n.params, noisy, noisy.class_descriptors[0], bank_n, mode="angle")
    n0 = int((noisy.labels == 0).sum())
    out["CROSSLABEL_EXT_RANDOM"] = float((-np.sort(s_rand.reshape(-1))[::-1][:n0]).mean())
    out["CROSSLABEL_EXT_SAMECLASS"] = float((-np.sort(s_cls.reshape(-1))[::-1][:n0]).mean())

    # mask head: reference run on the noise-free scene
    res_m = mh.train_maskhead(scene, bank, REFERENCE_MASK_HEAD, REFERENCE_MASK_TRAIN)
    out["MASK_MIOU"] = st.miou(mh.predict_semantic(res_m, scene), scene.labels, scene.n_classes)

    # mask-head angle ablation on a 32x32 boundary scene
    sc_s = st.generate_scene(REFERENCE_SCENE_ABLATION)
    bk_s = st.DescriptorBank.fit(sc_s, EMBED_DIM)
    full = mh.train_maskhead(sc_s, bk_s, REFERENCE_MASK_HEAD, REFERENCE_MASK_TRAIN)
    ablate = mh.train_maskhead(sc_s, bk_s, REFERENCE_MASK_HEAD_ABLATED, REFERENCE_MASK_TRAIN)
    for tag, r in (("FULL", full), ("NOANGLE", ablate)):
        g = st.embed_scene(r.params, sc_s)
        au_m = mh.mask_angle_uncertainty(g, r.params)
        out[f"MASK_BOUNDARY_RECALL_{tag}"] = unc.boundary_recall(
            unc.boundary_map(au_m, 90.0), sc_s.labels
        )

    print("# measured reference statistics (paste floors into tests/reference_values.py)")
    for key in out:
        print(f"{key} = {out[key]!r}")


if __name__ == "__main__":
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning  # one line, as the CLI prints it
        main()
