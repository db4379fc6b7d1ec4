"""Tests for the mask-classification head."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from lorentzseg import entailment as ent
from lorentzseg import grad as gr
from lorentzseg import lorentz as lz
from lorentzseg import maskhead as mh
from lorentzseg import segtoy as st
from lorentzseg.errors import UsageError
from lorentzseg.reference import REFERENCE_MASK_HEAD, REFERENCE_MASK_TRAIN, REFERENCE_TRAIN

import reference_values as ref
from reference_runs import STATISTICS


def make_protos(vectors):
    anchors = tuple(lz.exp_lift_origin(np.asarray(v, dtype=float)) for v in vectors)
    return ent.PrototypeSet(anchors, tuple(f"c{i}" for i in range(len(anchors))), 0.1)


def logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


def pair_losses(z, g):
    """Focal (gamma 2) and dice values of one (mask logits, mask) pair, as
    matching sees them."""
    _, focal, dice, _ = mh.matching_cost(np.zeros((1, 1)), z[None], [0], g[None])
    return focal[0, 0], dice[0, 0]


def queries_from(tangents):
    """The query blocks of a mask head whose class and mask queries share
    ``tangents``."""
    arr = np.asarray(tangents, dtype=float)
    return {"class_tangents": arr.copy(), "mask_tangents": arr.copy(),
            "no_object_bias": np.zeros(1)}


class TestClassQueryLogits:
    def test_query_at_prototype_scores_zero(self):
        protos = make_protos([[1.0, 0.0], [0.0, 1.2]])
        queries = queries_from([[1.0, 0.0], [0.4, 0.4]])
        logits = mh.class_query_logits(protos, queries)
        # coincident pair: exact zero up to the acosh noise floor sqrt(2 ulp)
        assert logits[0, 0] == pytest.approx(0.0, abs=1e-7)
        assert logits[0].argmax() == 0
        assert np.all(logits <= 1e-12)

    def test_zero_distance_weight_leaves_hinge(self):
        # with the distance term added back, what is left is the hinge
        protos = make_protos([[1.0, 0.0], [0.0, 1.2]])
        queries = queries_from([[0.9, 0.4], [0.2, 1.0]])
        logits = mh.class_query_logits(protos, queries)
        qt, qsp, _ = lz.batched_exp_lift(queries["class_tangents"])
        for j in range(2):
            q = lz.lift_point(qsp[j])
            for i, anchor in enumerate(protos.anchors):
                hinge = ent.entailment_loss(anchor, q, 0.1)
                distance_term = mh.W_D * lz.geodesic_distance(anchor, q)
                assert logits[j, i] + distance_term == pytest.approx(-hinge, abs=1e-9)

    def test_in_cone_query_reduces_to_distance_term(self):
        # a query beyond the anchor on its outward ray sits inside the
        # cone: the hinge is exactly zero and the logit is -w_d * d
        protos = make_protos([[1.1, 0.0]])
        queries = queries_from([[2.6, 0.0]])
        logits = mh.class_query_logits(protos, queries)
        qt, qsp, _ = lz.batched_exp_lift(queries["class_tangents"])
        inner = lz.inner_to_anchors(qsp, qt, protos.spatial, protos.time)
        d_batched = lz.distances_from_inner(inner)[0, 0]
        assert logits[0, 0] == -mh.W_D * d_batched  # bitwise: hinge is 0
        d_scalar = lz.geodesic_distance(protos.anchors[0], lz.lift_point(qsp[0]))
        assert logits[0, 0] == pytest.approx(-mh.W_D * d_scalar, rel=1e-12)

    def test_matches_componentwise_recomputation(self):
        rng = np.random.default_rng(110)
        protos = make_protos(rng.normal(size=(4, 3)))
        queries = queries_from(rng.normal(size=(5, 3)))
        logits = mh.class_query_logits(protos, queries)
        qt, qsp, _ = lz.batched_exp_lift(queries["class_tangents"])
        for j in range(5):
            q = lz.lift_point(qsp[j])
            for i, anchor in enumerate(protos.anchors):
                expected = -mh.W_D * lz.geodesic_distance(anchor, q) - ent.entailment_loss(
                    anchor, q, 0.1
                )
                assert logits[j, i] == pytest.approx(expected, abs=1e-9)


class TestMaskQueryLogits:
    def test_published_distance_constant(self):
        # geodesic distance 0.78 -> logit 2.2 -> sigmoid 0.9002
        val = 1.0 / (1.0 + math.exp(-(-0.78 + mh.B_D) / mh.S_D))
        assert 0.90 <= val <= 0.905

    def test_published_angle_constant(self):
        cfg = mh.MaskHeadConfig()
        # exterior angle 0.13 -> logit 2.0 -> sigmoid 0.8808
        val = 1.0 / (1.0 + math.exp(-(-0.13 + mh.B_A) / cfg.s_a))
        assert 0.87 <= val <= 0.90

    def test_pixel_at_query_distance_logit(self):
        cfg = mh.MaskHeadConfig(n_queries=1)
        u = np.array([0.9, 0.3])
        queries = queries_from([u])
        t, sp, _ = lz.batched_exp_lift(np.array([[u]]))
        logits = mh.mask_query_logits(queries, sp, t, cfg)
        # coincident pair: distance 0 and angle 0 by the alignment rule
        expected = mh.B_D / mh.S_D + mh.B_A / cfg.s_a
        assert logits[0, 0, 0] == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_distance_and_angle(self):
        cfg = mh.MaskHeadConfig(n_queries=1)
        u = np.array([1.0, 0.0])
        queries = queries_from([u])
        tang = np.array([[1.5 * u, 2.5 * u, 3.5 * u]])
        t, sp, _ = lz.batched_exp_lift(tang)
        logits = mh.mask_query_logits(queries, sp, t, cfg)[0, 0]
        assert logits[0] > logits[1] > logits[2]  # farther along the ray, ext 0

    def test_matches_formula(self):
        rng = np.random.default_rng(111)
        cfg = mh.MaskHeadConfig(n_queries=3)
        queries = queries_from(rng.normal(size=(3, 4)))
        t, sp, _ = lz.batched_exp_lift(rng.normal(size=(2, 5, 4)))
        logits = mh.mask_query_logits(queries, sp, t, cfg)
        mt, msp, _ = lz.batched_exp_lift(queries["mask_tangents"])
        for i in range(3):
            anchor = lz.lift_point(msp[i])
            for r in range(2):
                for c in range(5):
                    p = lz.LorentzPoint(t[r, c], sp[r, c])
                    expected = (-lz.geodesic_distance(anchor, p) + mh.B_D) / mh.S_D + (
                        -ent.exterior_angle(anchor, p) + mh.B_A
                    ) / cfg.s_a
                    assert logits[i, r, c] == pytest.approx(expected, abs=1e-8)


class TestHungarian:
    def test_identity_on_diagonal_costs(self):
        cost = np.ones((4, 4))
        np.fill_diagonal(cost, 0.0)
        np.testing.assert_array_equal(mh.hungarian_match(cost), np.arange(4))

    def test_recovers_permutation(self):
        rng = np.random.default_rng(112)
        perm = rng.permutation(5)
        cost = np.ones((5, 5))
        for m, j in enumerate(perm):
            cost[j, m] = 0.0
        np.testing.assert_array_equal(mh.hungarian_match(cost), perm)

    def test_matches_bruteforce_6x6(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            cost = rng.uniform(size=(6, 6))
            assign = mh.hungarian_match(cost)
            best = min(
                sum(cost[p[m], m] for m in range(6))
                for p in itertools.permutations(range(6))
            )
            got = sum(cost[assign[m], m] for m in range(6))
            assert got == pytest.approx(best, abs=1e-12)

    def test_rectangular_injective(self):
        rng = np.random.default_rng(114)
        cost = rng.uniform(size=(7, 4))
        assign = mh.hungarian_match(cost)
        assert len(set(assign.tolist())) == 4

    def test_rejects_more_segments_than_queries(self):
        with pytest.raises(UsageError):
            mh.hungarian_match(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        cost = np.zeros((3, 3))
        cost[1, 1] = np.inf
        with pytest.raises(UsageError):
            mh.hungarian_match(cost)


class TestFocalDice:
    def test_focal_gamma_zero_is_bce(self):
        rng = np.random.default_rng(115)
        p = rng.uniform(0.05, 0.95, size=(4, 4))
        g = (rng.uniform(size=(4, 4)) > 0.5).astype(float)
        focal = mh.focal_loss(p, g, gamma=0.0)
        bce = float(np.mean(-(g * np.log(p) + (1 - g) * np.log(1 - p))))
        assert focal == pytest.approx(bce, rel=1e-12)

    def test_dice_perfect_mask_near_zero(self):
        g = np.zeros((6, 6))
        g[2:5, 1:4] = 1.0
        val = mh.dice_loss(g, g)
        # eps = 1 keeps it slightly above 0: 1 - (2s+1)/(2s+1) = 0 exactly
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_hand_summed_fixture(self):
        p = np.array([[0.9, 0.2], [0.6, 0.1]])
        g = np.array([[1.0, 0.0], [1.0, 0.0]])
        focal_oracle = (
            -((1 - 0.9) ** 2) * math.log(0.9)
            - (0.2**2) * math.log(0.8)
            - ((1 - 0.6) ** 2) * math.log(0.6)
            - (0.1**2) * math.log(0.9)
        ) / 4.0
        dice_oracle = 1.0 - (2 * (0.9 + 0.6) + 1.0) / (0.9 + 0.2 + 0.6 + 0.1 + 2.0 + 1.0)
        assert mh.focal_loss(p, g, 2.0) == pytest.approx(focal_oracle, rel=1e-12)
        assert mh.dice_loss(p, g) == pytest.approx(dice_oracle, rel=1e-12)

    def test_stable_focal_matches_plain(self):
        rng = np.random.default_rng(116)
        z = rng.normal(size=50) * 3.0
        g = (rng.uniform(size=50) > 0.5).astype(float)
        val, _ = pair_losses(z, g)
        dz = mh._focal_dlogit(mh._sigmoid_logs(z), g)
        p = 1.0 / (1.0 + np.exp(-z))
        assert val == pytest.approx(mh.focal_loss(p, g, 2.0), rel=1e-10)
        # gradient vs FD
        for k in (0, 7, 23):
            h = 1e-6
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            fd = (pair_losses(zp, g)[0] - pair_losses(zm, g)[0]) / (2 * h)
            assert dz[k] == pytest.approx(fd, abs=1e-8)

    def test_dice_gradient_matches_fd(self):
        rng = np.random.default_rng(117)
        z = rng.normal(size=30)
        g = (rng.uniform(size=30) > 0.6).astype(float)
        dz = mh._dice_dlogit(mh._sigmoid_logs(z)[0], g)
        for k in (0, 11, 29):
            h = 1e-6
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            fd = (pair_losses(zp, g)[1] - pair_losses(zm, g)[1]) / (2 * h)
            assert dz[k] == pytest.approx(fd, abs=1e-8)

    def test_stacked_dlogits_are_the_row_by_row_calls(self):
        rng = np.random.default_rng(119)
        z = rng.normal(size=(3, 40)) * 3.0
        g = (rng.uniform(size=(3, 40)) > 0.5).astype(float)
        sig = mh._sigmoid_logs(z)
        focal, dice = mh._focal_dlogit(sig, g), mh._dice_dlogit(sig[0], g)
        for m in range(3):
            row = mh._sigmoid_logs(z[m])
            assert np.all(focal[m] == mh._focal_dlogit(row, g[m]))
            assert np.all(dice[m] == mh._dice_dlogit(row[0], g[m]))


class TestMatchingCost:
    def test_perfect_query_wins_row(self):
        rng = np.random.default_rng(118)
        n, hw = 3, 16
        class_probs = np.full((n, 2), 0.5)
        class_probs[1] = [1.0, 0.0]
        gmask = np.zeros(16)
        gmask[:8] = 1.0
        mask_probs = np.full((n, 16), 0.5)
        mask_probs[1] = np.clip(gmask, 0.01, 0.99)
        cost = mh.matching_cost(class_probs, logit(mask_probs), [0], gmask[None])[0]
        assert cost[:, 0].argmin() == 1

    def test_compositional_recomputation(self):
        rng = np.random.default_rng(120)
        class_probs = rng.uniform(size=(3, 4))
        mask_probs = rng.uniform(0.1, 0.9, size=(3, 12))
        cols = np.array([1, 3, 0])
        masks = (rng.uniform(size=(3, 12)) > 0.4).astype(float)
        cost = mh.matching_cost(class_probs, logit(mask_probs), cols, masks)[0]
        assert cost.shape == (3, 3)
        for j, m in itertools.product(range(3), range(3)):
            expected = (
                -mh.LAMBDA_CLS * class_probs[j, cols[m]]
                + mh.LAMBDA_FOCAL * mh.focal_loss(mask_probs[j], masks[m], mh.GAMMA)
                + mh.LAMBDA_DICE * mh.dice_loss(mask_probs[j], masks[m])
            )
            assert cost[j, m] == pytest.approx(expected, rel=1e-12)


class TestSemanticMap:
    def test_one_hot_query_labels_its_mask(self):
        class_probs = np.array([[1.0, 0.0]])
        mask = np.zeros((1, 4, 4))
        mask[0, :2] = 1.0
        out = mh.semantic_map(class_probs, mask)
        # inside the mask class 0 wins; outside both scores are 0 and the
        # tie breaks to class 0 as documented
        assert np.all(out.values == 0)

    def test_two_disjoint_queries(self):
        class_probs = np.array([[0.9, 0.1], [0.1, 0.9]])
        masks = np.zeros((2, 4, 6))
        masks[0, :, :3] = 0.95
        masks[1, :, 3:] = 0.95
        out = mh.semantic_map(class_probs, masks)
        assert np.all(out.values[:, :3] == 0)
        assert np.all(out.values[:, 3:] == 1)

    def test_matches_bruteforce_summation(self):
        rng = np.random.default_rng(121)
        class_probs = rng.uniform(size=(5, 3))
        masks = rng.uniform(size=(5, 6, 7))
        out = mh.semantic_map(class_probs, masks)
        for r in range(6):
            for c in range(7):
                scores = [
                    sum(class_probs[i, k] * masks[i, r, c] for i in range(5))
                    for k in range(3)
                ]
                assert out.values[r, c] == int(np.argmax(scores))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(122)
        class_probs = rng.uniform(size=(6, 4))
        masks = rng.uniform(size=(6, 5, 5))
        base = mh.semantic_map(class_probs, masks)
        perm = rng.permutation(6)
        out = mh.semantic_map(class_probs[perm], masks[perm])
        np.testing.assert_array_equal(base.values, out.values)


class TestMaskAngleUncertainty:
    def test_single_query_equals_plain_map(self):
        rng = np.random.default_rng(123)
        t, sp, _ = lz.batched_exp_lift(rng.normal(size=(3, 3, 3)))
        q = queries_from(rng.normal(size=(1, 3)))
        m = mh.mask_angle_uncertainty(sp, t, q)
        mt, msp, _ = lz.batched_exp_lift(q["mask_tangents"])
        anchor = lz.lift_point(msp[0])
        for r in range(3):
            for c in range(3):
                assert m.values[r, c] == pytest.approx(
                    ent.exterior_angle(anchor, lz.LorentzPoint(t[r, c], sp[r, c])), abs=1e-10
                )

    def test_zero_on_query_ray(self):
        u = np.array([1.0, 0.5])
        q = queries_from([u])
        t, sp, _ = lz.batched_exp_lift(np.array([[2.0 * u, 3.0 * u]]))
        m = mh.mask_angle_uncertainty(sp, t, q)
        np.testing.assert_allclose(m.values, 0.0, atol=1e-6)


class TestPairBackward:
    """The matmul contraction of ``grad.pair_backward`` against the einsum
    of the dense all-pairs kernels.  Both apply the same partials through
    the same chain rule, so this checks the contraction's algebra; the
    independent check is the scalar-oracle test in ``test_grad``."""

    P = 50

    def pairs(self, n_anchors):
        rng = np.random.default_rng(5)
        d = REFERENCE_TRAIN.embed_dim
        pt, psp, _ = lz.batched_exp_lift(rng.normal(size=(self.P, d)) * 1.2)
        at, asp, _ = lz.batched_exp_lift(rng.normal(size=(n_anchors, d)) * 1.2)
        psp[3], pt[3] = asp[0], at[0]  # a point on anchor 0
        inner = lz.inner_to_anchors(psp, pt, asp, at)
        assert inner[3, 0] ** 2 - 1.0 < gr._FLOOR  # its den is the floor's
        w_d, w_ext = rng.normal(size=(2, self.P, n_anchors))
        return w_d, w_ext, psp, pt, asp, at, inner, np.linalg.norm(asp, axis=1)

    @staticmethod
    def dense(w_d, w_ext, psp, pt, asp, at, inner, anorms):
        g_p = (np.einsum("pa,pad->pd", w_d, gr.grad_distance_cross(psp, pt, asp, at, inner))
               + np.einsum("pa,pad->pd", w_ext,
                           gr.grad_ext_cross_point(psp, pt, asp, at, inner, anorms)))
        g_a = (np.einsum("pa,pad->ad", w_d, gr.grad_distance_cross_anchor(psp, pt, asp, at, inner))
               + np.einsum("pa,pad->ad", w_ext,
                           gr.grad_ext_cross_anchor(psp, pt, asp, at, inner, anorms)))
        return g_p, g_a

    @staticmethod
    def assert_close(got, want, rtol):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())

    @pytest.mark.parametrize("n_anchors", [12, 1])
    @pytest.mark.parametrize("want_anchor", [True, False])
    def test_matches_dense_kernels(self, n_anchors, want_anchor):
        args = self.pairs(n_anchors)
        g_p, g_a = gr.pair_backward(*args, want_anchor)
        d_p, d_a = self.dense(*args)
        clear_p = np.arange(self.P) != 3
        self.assert_close(g_p[clear_p], d_p[clear_p], 1e-12)
        # the floored pair's terms carry 1/sqrt(_FLOOR) = 1e6 and cancel in
        # the sum, so its point row and anchor column keep less of the
        # precision; 300 draws differed by at most 5.3e-11 there
        self.assert_close(g_p[3], d_p[3], 1e-9)
        if not want_anchor:
            assert g_a is None
            return
        if n_anchors > 1:
            self.assert_close(g_a[1:], d_a[1:], 1e-12)
        self.assert_close(g_a[0], d_a[0], 1e-9)

    def test_point_on_anchor_ray_is_finite(self):
        # a point beyond its anchor on the anchor's origin ray has ext 0, so
        # the acos argument A is 1 and 1 - A^2 rounds to 0 here: only the
        # floor of sqrt(1 - A^2) keeps the ext coefficient finite
        u = np.array([0.6, 0.8])
        at, asp, _ = lz.batched_exp_lift(0.3 * u[None])
        pt, psp, _ = lz.batched_exp_lift(1.8 * u[None])
        inner = lz.inner_to_anchors(psp, pt, asp, at)
        anorms = np.linalg.norm(asp, axis=1)
        A = (pt[:, None] + at * inner) / (anorms * np.sqrt(np.maximum(inner * inner - 1.0, gr._FLOOR)))
        assert 1.0 - A[0, 0] * A[0, 0] == 0.0
        g_p, g_a = gr.pair_backward(np.ones((1, 1)), np.ones((1, 1)), psp, pt, asp, at, inner,
                                    anorms, True)
        assert np.all(np.isfinite(g_p)) and np.all(np.isfinite(g_a))


class TestTrainMaskheadGradient:
    """End to end: the gradient of every block that a training step takes,
    the query blocks' from ``_mask_loss`` and the encoder blocks' chained
    from its dL/dv, against central differences of the matched loss the
    trainer reports."""

    BLOCKS = ("w1", "b1", "w2", "b2", "alpha",
              "class_tangents", "mask_tangents", "no_object_bias")

    def test_step_matches_finite_differences(self):
        scene = st.generate_scene(st.SceneConfig(
            parents=2, children_per_parent=2, height=12, width=12,
            noise_sigma=0.3, edge_blend=0.5,
        ))
        bank = st.DescriptorBank.fit(scene, d=3)
        head = mh.MaskHeadConfig(n_queries=6)
        cfg = st.TrainConfig(epochs=0, weight_decay=0.0, hidden=8, embed_dim=3)
        start = mh.train_maskhead(scene, bank, head, cfg)
        params = start.params
        assert tuple(params) == self.BLOCKS

        flat = scene.features.reshape(-1, scene.features.shape[-1])
        column = {c: j for j, c in enumerate(bank.included)}
        segments = st.scene_segments(scene)
        cols = np.array([column[c] for c, _ in segments])
        masks = np.array([m.reshape(-1) for _, m in segments], dtype=np.float64)

        def loss_at(probe, want_grad):
            a1, u = st._encoder_parts(probe, flat)
            terms, g_v, grads = mh._mask_loss(probe, probe["alpha"] * u, want_grad,
                                              start.protos, head, cols, masks)
            return terms, a1, u, g_v, grads

        _, a1, u, g_v, grads = loss_at(params, True)
        assert set(grads) == {"class_tangents", "mask_tangents", "no_object_bias"}
        grads.update(st._encoder_backward(params, flat, a1, u, g_v))
        state = mh._forward_state(params["alpha"] * u, params, start.protos, head)
        assert state["hinge_active"].any()  # the class-logit cone hinge is exercised

        for block in self.BLOCKS:
            fd = gr.finite_difference_gradient(
                lambda x: loss_at({**params, block: x}, False)[0]["total"], params[block])
            err = np.linalg.norm(grads[block] - fd) / np.linalg.norm(grads[block])
            assert err < 1e-6, (block, err)


class TestTrainMaskhead:
    def test_zero_lr_keeps_everything(self, clean_scene, clean_bank):
        cfg = st.TrainConfig(epochs=2, lr=0.0, seed=9)
        res = mh.train_maskhead(clean_scene, clean_bank, mh.MaskHeadConfig(n_queries=10), cfg)
        rng = np.random.default_rng(9)
        expected = rng.normal(size=(10, clean_bank.d)) * 0.5
        np.testing.assert_array_equal(res.params["class_tangents"], expected)
        np.testing.assert_array_equal(res.params["no_object_bias"], [0.0])

    def test_too_few_queries_rejected(self, clean_scene, clean_bank):
        with pytest.raises(UsageError):
            mh.train_maskhead(
                clean_scene, clean_bank, mh.MaskHeadConfig(n_queries=4),
                st.TrainConfig(epochs=1),
            )

    def test_reference_run_perfect_miou(self, reference_runs):
        assert STATISTICS["MASK_MIOU"](reference_runs) == ref.MASK_MIOU_EXACT

    def test_loss_decreases(self, reference_runs):
        trace = reference_runs["mask"].trace["total"]
        assert trace[-1] < trace[0]

    def test_epoch_builds_no_pixel_query_dim_tensor(self, clean_scene, clean_bank):
        # one dense (pixels, queries, d) float64 tensor is P*N*d*8 bytes; the
        # backward contracts without any, so an epoch peaks well below four
        cfg = dataclasses.replace(REFERENCE_MASK_TRAIN, epochs=1)
        h, w = clean_scene.shape
        dense = h * w * REFERENCE_MASK_HEAD.n_queries * clean_bank.d * 8
        tracemalloc.start()
        try:
            mh.train_maskhead(clean_scene, clean_bank, REFERENCE_MASK_HEAD, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * dense, (peak, dense)

    def test_angle_ablation_degrades_boundary_separation(self, reference_runs):
        full = STATISTICS["MASK_BOUNDARY_RECALL_FULL"](reference_runs)
        ablated = STATISTICS["MASK_BOUNDARY_RECALL_NOANGLE"](reference_runs)
        assert full >= ref.MASK_BOUNDARY_RECALL_FULL_MIN
        assert full > ablated
        # the floor reads a descent, not an oscillation whose end point
        # depends on float summation order: few steps may raise the loss
        trace = reference_runs["ablation-full"].trace["total"]
        up_steps = int(np.count_nonzero(np.diff(trace) > 0))
        assert up_steps <= 20, up_steps
