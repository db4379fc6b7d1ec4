"""Acceptance criteria, one test per criterion.

Each test checks every stated tolerance and prints one PASS line; a
failed assertion is the FAIL signal.  The reference runs train in the
session's shared runs (tests/reference_runs.py), at most once each;
a criterion that reads them adds their recorded training seconds to its
timed block, so its cap bounds the full protocol, training included.
Committed statistics live in reference_values.py and come from
scripts/make_reference_values.py, which computes them with the same
STATISTICS functions.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest

from lorentzseg import entailment as ent
from lorentzseg import grad as gr
from lorentzseg import hyperbolicity as hyp
from lorentzseg import lorentz as lz
from lorentzseg import maskhead as mh
from lorentzseg import models as mm
from lorentzseg import segtoy as st
from lorentzseg.cli import main as cli_main
from lorentzseg.fileio import read_json
from lorentzseg.reference import REFERENCE_MASK_TRAIN, REFERENCE_TRAIN

import reference_values as ref
from reference_runs import STATISTICS, radius_uncertainty_variants, ranking_signature


def _report(num, name, elapsed, cap, detail=""):
    tail = f" | {detail}" if detail else ""
    print(f"[criterion {num}] {name}: PASS ({elapsed:.1f}s < {cap:.0f}s{tail})")


def _sample_interior_tangent(rng, dim, rmax=3.0):
    v = rng.normal(size=dim)
    norm = np.linalg.norm(v)
    target = rng.uniform(0.05, rmax)
    return v * (target / norm)


def test_criterion_1_manifold_round_trips():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)

    for _ in range(1000):
        p = lz.exp_lift_origin(_sample_interior_tangent(rng, 4))
        assert lz.manifold_check(p, 1e-8)

    for _ in range(1000):
        z = lz.exp_lift_origin(_sample_interior_tangent(rng, 3, rmax=1.5))
        u = lz.tangent_project(z, rng.normal(size=4)).components
        nrm = lz.TangentVector(z, u).norm
        v = lz.TangentVector(z, u * (rng.uniform(0.0, 3.0) / max(nrm, 1e-12)))
        back = lz.log_map(z, lz.exp_map(z, v))
        err = float(np.abs(back.components - v.components).max())
        assert err <= 1e-7 * max(1.0, v.norm)

    worst = 0.0
    for _ in range(1000):
        x = lz.exp_lift_origin(_sample_interior_tangent(rng, 3))
        p = mm.lorentz_to_poincare(x)
        k = mm.lorentz_to_klein(x)
        for back in (
            mm.poincare_to_lorentz(p),
            mm.klein_to_lorentz(k),
        ):
            worst = max(worst, abs(back.time - x.time), np.abs(back.spatial - x.spatial).max())
        p2 = mm.klein_to_poincare(mm.poincare_to_klein(p))
        k2 = mm.poincare_to_klein(mm.klein_to_poincare(k))
        worst = max(worst, np.abs(p2.p - p.p).max(), np.abs(k2.k - k.k).max())
        via = mm.klein_to_poincare(k)
        worst = max(worst, np.abs(via.p - p.p).max())
    assert worst <= 1e-10

    iso_worst = 0.0
    for _ in range(1000):
        x = lz.exp_lift_origin(_sample_interior_tangent(rng, 3))
        y = lz.exp_lift_origin(_sample_interior_tangent(rng, 3))
        dl = lz.geodesic_distance(x, y)
        dp = mm.poincare_distance_reference(mm.lorentz_to_poincare(x), mm.lorentz_to_poincare(y))
        iso_worst = max(iso_worst, abs(dl - dp))
    assert iso_worst <= 1e-8

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(1, "manifold/round-trip suite", elapsed, 5,
            f"conversion worst {worst:.2e}, isometry worst {iso_worst:.2e}")


def test_criterion_2_published_constants():
    started = time.perf_counter()

    aper = ent.half_aperture(lz.exp_lift_origin([1.0, 0.0]), 0.1)
    assert 0.165 <= aper <= 0.175

    rng = np.random.default_rng(1002)
    lo, hi = -2.0 - 1e-9, -1.0 + 1e-9
    for _ in range(1000):
        u = rng.normal(size=8)
        u /= np.linalg.norm(u)
        t = rng.uniform(0.3, 1.0)
        w = rng.normal(size=8)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        v = t * u + math.sqrt(1.0 - t * t) * w
        ip = lz.lorentz_inner(lz.exp_lift_origin(u).ambient, lz.exp_lift_origin(v).ambient)
        assert lo <= ip <= hi

    cfg = mh.MaskHeadConfig()
    sig_d = 1.0 / (1.0 + math.exp(-(-0.78 + mh.B_D) / mh.S_D))
    assert 0.90 <= sig_d <= 0.905
    sig_a = 1.0 / (1.0 + math.exp(-(-0.13 + mh.B_A) / cfg.s_a))
    assert 0.87 <= sig_a <= 0.90

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, "published-constant checks", elapsed, 1,
            f"aper={aper:.4f}, sigmoid_d={sig_d:.4f}, sigmoid_a={sig_a:.4f}")


def test_criterion_3_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1003)

    def clear_pair():
        while True:
            xs = rng.normal(size=3) * rng.uniform(0.3, 1.2)
            ys = rng.normal(size=3) * rng.uniform(0.3, 1.2)
            if min(np.linalg.norm(xs), np.linalg.norm(ys)) < 0.05:
                continue
            x, y = lz.lift_point(xs), lz.lift_point(ys)
            L = lz.lorentz_inner(x.ambient, y.ambient)
            if L * L - 1.0 < 1e-3:
                continue
            A = (x.time + y.time * L) / (y.spatial_norm * math.sqrt(L * L - 1.0))
            if abs(A) > 1.0 - 1e-3:
                continue
            if abs(np.dot(xs, ys) / (np.linalg.norm(xs) * np.linalg.norm(ys))) > 1 - 1e-3:
                continue
            return x, y

    max_rel = 0.0

    def rel(analytic, fd):
        return float(np.linalg.norm(analytic - fd)) / max(1.0, float(np.linalg.norm(analytic)))

    for _ in range(100):
        x, y = clear_pair()
        fd = gr.finite_difference_gradient(
            lambda s: math.acosh(max(1.0, math.sqrt(1 + s @ s) * y.time - s @ y.spatial)),
            x.spatial,
        )
        max_rel = max(max_rel, rel(gr.grad_lorentz_distance(x, y), fd))
        fd = gr.finite_difference_gradient(
            lambda s: ent.exterior_angle(y, lz.lift_point(s)), x.spatial
        )
        max_rel = max(max_rel, rel(gr.grad_exterior_angle(x, y), fd))
        xs, ys = x.spatial, y.spatial
        max_rel = max(max_rel, rel(
            gr.grad_dot(xs, ys),
            gr.finite_difference_gradient(lambda s: float(s @ ys), xs)))
        max_rel = max(max_rel, rel(
            gr.grad_euclidean_distance(xs, ys),
            gr.finite_difference_gradient(lambda s: float(np.linalg.norm(s - ys)), xs)))
        max_rel = max(max_rel, rel(
            gr.grad_cosine_similarity(xs, ys),
            gr.finite_difference_gradient(
                lambda s: float(s @ ys) / (np.linalg.norm(s) * np.linalg.norm(ys)), xs)))

    for _ in range(100):
        v = rng.normal(size=3) * rng.uniform(0.01, 2.5)
        jac = gr.exp_map_jacobian(v)
        for row in range(4):
            def coord(w, row=row):
                p = lz.exp_lift_origin(w)
                return p.time if row == 0 else float(p.spatial[row - 1])
            fd_row = gr.finite_difference_gradient(coord, v)
            max_rel = max(max_rel, rel(jac[row], fd_row))
    assert max_rel <= 1e-5

    agree = total = 0
    orth_violations = 0
    for _ in range(10000):
        x, y = clear_pair()
        gd = gr.grad_lorentz_distance(x, y)
        ga = gr.grad_exterior_angle(x, y)
        cos = float(np.dot(gd, ga) / (np.linalg.norm(gd) * np.linalg.norm(ga)))
        ed = gr.grad_euclidean_distance(x.spatial, y.spatial)
        ea = gr.grad_euclidean_exterior_angle(x.spatial, y.spatial)
        ecos = float(np.dot(ed, ea) / (np.linalg.norm(ed) * np.linalg.norm(ea)))
        if abs(ecos) >= 1e-8:
            orth_violations += 1
        if abs(cos) <= 1e-8:
            continue
        total += 1
        agree += int((1 if cos > 0 else -1) == gr.grad_sign_predictor(x, y))
    assert total > 9000
    assert agree == total
    assert orth_violations == 0

    import mpmath as mp

    with mp.workdps(40):
        for r in np.geomspace(1.0000001e-8, 11.9999, 500):
            rm = mp.mpf(float(r))
            assert rm * mp.cosh(rm) - mp.sinh(rm) > 0

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(3, "gradient suite", elapsed, 30,
            f"max_rel={max_rel:.2e}, sign agreement {agree}/{total}")


def test_criterion_4_delta_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1004)

    for _ in range(100):
        n = int(rng.integers(4, 51))
        pts = rng.normal(size=(n, 3)) * rng.uniform(0.5, 3.0)
        D = hyp.pairwise_distances(pts, "euclidean")
        assert hyp.delta_from_matrix(D) == hyp.delta_bruteforce(D)

    weights = [1.0, 2.0, 1.5, 3.0, 0.5]
    n = len(weights) + 1
    tree = np.zeros((n, n))
    for i, wi in enumerate(weights, start=1):
        tree[0, i] = tree[i, 0] = wi
        for j, wj in enumerate(weights, start=1):
            if i != j:
                tree[i, j] = wi + wj
    D = hyp.DistanceMatrix(tree)
    assert 2.0 * hyp.delta_from_matrix(D) / hyp.diameter(D) == 0.0

    pts = rng.normal(size=(40, 4))
    a = hyp.delta_rel(pts, "euclidean")
    b = hyp.delta_rel(pts * 7.3, "euclidean")
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    r1 = hyp.batched_delta_rel_from_points(pts, 16, 8, seed=11)
    r2 = hyp.batched_delta_rel_from_points(pts, 16, 8, seed=11)
    assert r1.to_dict() == r2.to_dict()

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(4, "delta-hyperbolicity suite", elapsed, 60)


def test_criterion_5_per_pixel_reference_run(reference_runs):
    training_s = reference_runs.train_seconds("clean", "noisy")
    started = time.perf_counter()

    assert REFERENCE_TRAIN.epochs <= 500
    clean_miou = STATISTICS["CLEAN_MIOU"](reference_runs)
    assert clean_miou == ref.CLEAN_MIOU_EXACT == 1.0

    noisy_miou = STATISTICS["NOISY_MIOU"](reference_runs)
    agreement = STATISTICS["NOISY_AGREEMENT"](reference_runs)
    assert noisy_miou >= ref.NOISY_MIOU_MIN
    assert agreement >= ref.NOISY_AGREEMENT_MIN

    elapsed = time.perf_counter() - started + training_s
    assert elapsed < 180.0
    _report(5, "per-pixel reference run", elapsed, 180,
            f"clean mIoU={clean_miou:.3f}, noisy mIoU={noisy_miou:.3f}, agreement={agreement:.3f}")


def test_criterion_6_uncertainty_properties(reference_runs):
    training_s = reference_runs.train_seconds("boundary")
    started = time.perf_counter()

    margin_r = STATISTICS["BOUNDARY_MARGIN_RADIUS"](reference_runs)
    margin_a = STATISTICS["BOUNDARY_MARGIN_ANGLE"](reference_runs)
    assert margin_r >= ref.BOUNDARY_MARGIN_RADIUS_MIN
    assert margin_a >= ref.BOUNDARY_MARGIN_ANGLE_MIN

    sp, t = st.embed_scene(reference_runs["boundary"].params, reference_runs.scene("boundary"))
    v1, v2, v3 = radius_uncertainty_variants(sp, t)
    sig = ranking_signature(v1)
    assert np.array_equal(sig, ranking_signature(v2))
    assert np.array_equal(sig, ranking_signature(v3))

    elapsed = time.perf_counter() - started + training_s
    assert elapsed < 30.0
    _report(6, "uncertainty properties", elapsed, 30,
            f"margins r={margin_r:.1f}, a={margin_a:.3f}")


@functools.cache
def _injections(n, m):
    """Every injective map of m columns into n rows, one per row of a
    (permutations, m) index array."""
    return np.array(list(itertools.permutations(range(n), m)))


def test_criterion_7_mask_head_suite(reference_runs):
    training_s = reference_runs.train_seconds("mask")
    started = time.perf_counter()
    rng = np.random.default_rng(1007)

    for _ in range(1000):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 1))
        cost = rng.uniform(size=(n, m))
        assign = mh.hungarian_match(cost)
        got = sum(cost[assign[k], k] for k in range(m))
        # summed column by column, as ``got`` is, over every injection at once
        P = _injections(n, m)
        best = functools.reduce(np.add, (cost[P[:, k], k] for k in range(m)), 0.0).min()
        assert got <= best + 1e-12

    res, scene = reference_runs["mask"], reference_runs.scene("mask")
    mask_miou = STATISTICS["MASK_MIOU"](reference_runs)
    assert mask_miou == ref.MASK_MIOU_EXACT == 1.0

    class_probs = rng.uniform(size=(6, 4))
    masks = rng.uniform(size=(6, 5, 5))
    base = mh.semantic_map(class_probs, masks)
    perm = rng.permutation(6)
    assert np.array_equal(base.values, mh.semantic_map(class_probs[perm], masks[perm]).values)

    # compositional recomputation of the class/mask logit formulas
    protos = res.protos
    params = res.params
    cfg = res.head_cfg
    logits = mh.class_query_logits(protos, params)
    qt, qsp, _ = lz.batched_exp_lift(params["class_tangents"])
    for j in (0, 3, 7):
        q = lz.lift_point(qsp[j])
        for i in (0, 4, 8):
            expected = (
                -mh.W_D * lz.geodesic_distance(protos.anchors[i], q)
                - ent.entailment_loss(protos.anchors[i], q, REFERENCE_MASK_TRAIN.K)
            )
            assert logits[j, i] == pytest.approx(expected, abs=1e-8)
    sp, t = st.embed_scene(res.params, scene)
    mlogits = mh.mask_query_logits(params, sp, t, cfg)
    mt, msp, _ = lz.batched_exp_lift(params["mask_tangents"])
    for i in (0, 5):
        anchor = lz.lift_point(msp[i])
        for (r, c) in ((3, 3), (40, 50)):
            p = lz.LorentzPoint(t[r, c], sp[r, c])
            expected = (-lz.geodesic_distance(anchor, p) + mh.B_D) / mh.S_D + (
                -ent.exterior_angle(anchor, p) + mh.B_A
            ) / cfg.s_a
            assert mlogits[i, r, c] == pytest.approx(expected, abs=1e-8)

    elapsed = time.perf_counter() - started + training_s
    assert elapsed < 300.0
    _report(7, "mask-head suite", elapsed, 300, f"semantic mIoU={mask_miou:.3f}")


def test_criterion_8_retrieval_zero_shot(reference_runs):
    training_s = reference_runs.train_seconds("noisy", "heldout-hyp", "heldout-euc")
    started = time.perf_counter()

    parent_recall = STATISTICS["PARENT_CHILD_RECALL_MIN"](reference_runs)
    assert parent_recall >= ref.PARENT_CHILD_RECALL_MIN

    recall_h = STATISTICS["HELDOUT_RECALL_HYP"](reference_runs)
    recall_e = STATISTICS["HELDOUT_RECALL_EUC"](reference_runs)
    assert recall_h >= ref.HELDOUT_RECALL_HYP_MIN
    assert recall_h > recall_e

    elapsed = time.perf_counter() - started + training_s
    assert elapsed < 180.0
    _report(8, "retrieval/zero-shot mechanism", elapsed, 180,
            f"parent recall={parent_recall:.3f}, heldout hyp={recall_h:.3f} > euc={recall_e:.3f}")


def test_criterion_9_loss_landscape(tmp_path):
    started = time.perf_counter()

    train_dir = tmp_path / "pix"
    euc_dir = tmp_path / "euc"
    flags = ["--height", "32", "--width", "32", "--epochs", "200"]
    assert cli_main(["train", "--head", "pixel", *flags, "--out-dir", str(train_dir)]) == 0
    assert cli_main(["train", "--head", "euclid", *flags, "--out-dir", str(euc_dir)]) == 0

    surfaces = {}
    for tag, d in (("hyperbolic", train_dir), ("euclidean", euc_dir)):
        out = tmp_path / f"losscape_{tag}.csv"
        assert cli_main([
            "losscape", "--model", str(d / "model"), "--grid", "41",
            "--extent", "1.0", "--directions-seed", "3", "--out", str(out),
        ]) == 0
        rows = [
            tuple(float(x) for x in line.split(","))
            for line in out.read_text().splitlines()
            if line and not line.startswith(("#", "alpha"))
        ]
        surfaces[tag] = {(a, b): v for a, b, v in rows}
        final = read_json(d / "metrics.json")["final_loss"]
        assert abs(surfaces[tag][(0.0, 0.0)] - final) <= 1e-12

    # flatness comparison, recorded (qualitative; no hard threshold):
    # mean loss increase over the unit-radius ring of the grid
    def ring_rise(surface):
        center = surface[(0.0, 0.0)]
        ring = [v for (a, b), v in surface.items() if abs(math.hypot(a, b) - 1.0) < 0.3]
        return float(np.mean(ring) - center)

    rise_h = ring_rise(surfaces["hyperbolic"])
    rise_e = ring_rise(surfaces["euclidean"])

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(9, "loss-landscape artifact", elapsed, 120,
            f"unit-ring rise hyperbolic={rise_h:.3f}, euclidean={rise_e:.3f} (recorded)")
