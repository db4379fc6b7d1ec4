"""Tests for the synthetic per-pixel pipeline."""

import dataclasses
import math

import numpy as np
import pytest

from lorentzseg import entailment as ent
from lorentzseg import grad as gr
from lorentzseg import lorentz as lz
from lorentzseg import maskhead as mh
from lorentzseg import segtoy as st
from lorentzseg.errors import TrainingDivergedError, UsageError
from lorentzseg.reference import HELDOUT_CLASS, REFERENCE_TRAIN

import reference_values as ref
from reference_runs import STATISTICS, label_boundary_mask, recall_at_budget, text_query


SMALL = st.SceneConfig(parents=2, children_per_parent=2, height=16, width=16,
                       noise_sigma=0.0, seed=7)


class TestGenerateScene:
    def test_noise_free_features_constant_per_class(self):
        scene = st.generate_scene(SMALL)
        for c in range(scene.n_classes):
            feats = scene.features[scene.labels == c]
            assert np.all(feats == feats[0])

    def test_deterministic_per_seed(self):
        a = st.generate_scene(st.SceneConfig(noise_sigma=0.3, seed=5, height=16, width=16))
        b = st.generate_scene(st.SceneConfig(noise_sigma=0.3, seed=5, height=16, width=16))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_all_classes_present(self):
        for h, w in ((32, 32), (33, 47)):
            scene = st.generate_scene(st.SceneConfig(height=h, width=w))
            assert np.array_equal(np.unique(scene.labels), np.arange(9))

    def test_hierarchy_map(self):
        scene = st.generate_scene(SMALL)
        assert scene.hierarchy == {0: 0, 1: 0, 2: 1, 3: 1}

    def test_grid_too_small(self):
        with pytest.raises(UsageError):
            st.generate_scene(st.SceneConfig(parents=5, height=3, width=10))

    def test_edge_blend_only_touches_borders(self):
        clean = st.generate_scene(st.SceneConfig(height=24, width=24, seed=3))
        blended = st.generate_scene(st.SceneConfig(height=24, width=24, seed=3, edge_blend=1.0))
        diff = np.abs(clean.features - blended.features).sum(axis=2) > 0
        edge = label_boundary_mask(clean.labels)
        assert diff.any()
        assert not diff[~edge].any()


class TestConfigValidation:
    @pytest.mark.parametrize("config, field, value", [
        (st.SceneConfig, "parents", 0),
        (st.SceneConfig, "children_per_parent", 0),
        (st.SceneConfig, "height", 0),
        (st.SceneConfig, "width", -2),
        (st.SceneConfig, "noise_sigma", -0.5),
        (st.SceneConfig, "edge_blend", 1.5),
        (st.TrainConfig, "epochs", -1),
        (st.TrainConfig, "lr", -0.5),
        (st.TrainConfig, "tau", 0.0),
        (st.TrainConfig, "K", -0.1),
        (st.TrainConfig, "lambda_w", -5.0),
        (st.TrainConfig, "weight_decay", -3.0),
        (st.TrainConfig, "hidden", -1),
        (st.TrainConfig, "hidden", 0),
        (st.SceneConfig, "noise_sigma", math.nan),
        (st.SceneConfig, "edge_blend", math.nan),
        (st.SceneConfig, "descriptor_dim", 0),
        (st.SceneConfig, "seed", -1),
        (st.TrainConfig, "lr", math.nan),
        (st.TrainConfig, "lambda_w", math.nan),
        (st.TrainConfig, "tau", math.nan),
        (st.TrainConfig, "K", math.inf),
        (st.TrainConfig, "weight_decay", math.inf),
        (st.TrainConfig, "weight_decay", math.nan),
        (st.TrainConfig, "embed_dim", 0),
        (st.TrainConfig, "seed", -1),
        (mh.MaskHeadConfig, "n_queries", 0),
        (mh.MaskHeadConfig, "s_a", 0.0),
        (mh.MaskHeadConfig, "s_a", math.nan),
    ])
    def test_message_names_field_and_value(self, config, field, value):
        # the CLI shows these messages as they are
        with pytest.raises(UsageError) as info:
            config(**{field: value})
        message = str(info.value)
        assert message.startswith(f"{field} must ") and message.endswith(f"got {value}")


class TestPcaReduce:
    def test_subspace_data_reconstructs(self):
        rng = np.random.default_rng(50)
        basis = rng.normal(size=(3, 10))
        X = rng.normal(size=(20, 3)) @ basis
        proj, reduced = st.pca_reduce(X, 3)
        centered = X - X.mean(axis=0)
        recon = reduced @ proj.T
        assert np.abs(recon - centered).max() < 1e-8

    def test_full_rank_preserves_distances(self):
        rng = np.random.default_rng(51)
        X = rng.normal(size=(6, 4))
        proj, reduced = st.pca_reduce(X, 4)
        for i in range(6):
            for j in range(6):
                orig = np.linalg.norm(X[i] - X[j])
                new = np.linalg.norm(reduced[i] - reduced[j])
                assert new == pytest.approx(orig, abs=1e-8)

    def test_eigenvalues_match_charpoly_roots(self):
        # independent oracle: Faddeev-LeVerrier characteristic polynomial
        # coefficients plus extended-precision root finding
        import mpmath as mp

        rng = np.random.default_rng(52)
        X = rng.normal(size=(5, 4))
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / 4.0
        _, reduced = st.pca_reduce(X, 4)
        vals = reduced.var(axis=0, ddof=1)  # the component variances, descending

        n = 4
        coeffs = [1.0]
        M = np.zeros_like(cov)
        for k in range(1, n + 1):
            M = cov @ M + coeffs[-1] * np.eye(n)
            coeffs.append(-np.trace(cov @ M) / k)
        with mp.workdps(50):
            roots = mp.polyroots([mp.mpf(c) for c in coeffs])
            oracle = sorted((float(mp.re(r)) for r in roots), reverse=True)
        np.testing.assert_allclose(vals, oracle, atol=1e-10)

    def test_rank_deficiency_warns(self):
        rng = np.random.default_rng(53)
        basis = rng.normal(size=(2, 6))
        X = rng.normal(size=(8, 2)) @ basis
        with pytest.warns(UserWarning, match="rank deficiency"):
            proj, reduced = st.pca_reduce(X, 4)
        assert proj.shape[1] == 2

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(54)
        X = rng.normal(size=(7, 5))
        p1, _ = st.pca_reduce(X, 3)
        p2, _ = st.pca_reduce(X.copy(), 3)
        np.testing.assert_array_equal(p1, p2)
        for j in range(3):
            nz = np.nonzero(np.abs(p1[:, j]) > 1e-12)[0]
            assert p1[nz[0], j] > 0


class TestDescriptorBank:
    @pytest.mark.parametrize("entry", [99, -1, True, 1.0], ids=["99", "-1", "True", "1.0"])
    def test_exclude_must_name_a_class_of_the_scene(self, entry):
        # an entry that is not an int class id would otherwise hold out
        # nothing (99, -1) or class 1 (True, 1.0) without a word
        with pytest.raises(UsageError, match=rf"exclude_class {entry!r} is not a class of the scene"):
            st.DescriptorBank.fit(st.generate_scene(SMALL), d=2, exclude=(entry,))


class TestBuildPrototypes:
    def test_unit_rows_sit_at_radius_one(self, clean_scene):
        bank = st.DescriptorBank.fit(clean_scene, REFERENCE_TRAIN.embed_dim)
        # force exactly unit rows through the recipe: rows already share
        # the mean-norm scaling, so rescale to unit norm individually
        rows = bank.reduced / np.linalg.norm(bank.reduced, axis=1, keepdims=True)
        forced = dataclasses.replace(bank, reduced=rows)
        protos = st.build_prototypes(forced, 0.1)
        o = lz.origin(bank.d)
        for a in protos.anchors:
            assert lz.geodesic_distance(o, a) == pytest.approx(1.0, abs=1e-12)

    def test_aperture_constant_at_unit_radius(self, clean_scene):
        x = lz.exp_lift_origin(np.array([1.0] + [0.0] * 7))
        aper = ent.half_aperture(x, 0.1)
        assert 0.165 <= aper <= 0.175

    def test_unit_radius_pair_inner_product_bounds(self):
        # pairs of unit-radius anchors separated by at most acosh(2)
        # (descriptor cosine >= ~0.28, as text-like descriptors are)
        rng = np.random.default_rng(55)
        lo, hi = -2.0 - 1e-9, -1.0 + 1e-9
        for _ in range(500):
            u = rng.normal(size=8)
            u /= np.linalg.norm(u)
            t = rng.uniform(0.3, 1.0)  # pairwise direction cosine
            w = rng.normal(size=8)
            w -= (w @ u) * u
            w /= np.linalg.norm(w)
            v = t * u + math.sqrt(1.0 - t * t) * w
            a = lz.exp_lift_origin(u)
            b = lz.exp_lift_origin(v)
            ip = lz.lorentz_inner(a.ambient, b.ambient)
            assert lo <= ip <= hi

    def test_mean_scaling_recorded(self, clean_scene, clean_bank):
        protos = st.build_prototypes(clean_bank, 0.1)
        # each anchor lies at geodesic radius equal to its scaled row's norm
        o = lz.origin(clean_bank.d)
        for a, row in zip(protos.anchors, clean_bank.reduced):
            assert lz.geodesic_distance(o, a) == pytest.approx(np.linalg.norm(row), rel=1e-12)
        assert np.linalg.norm(clean_bank.reduced, axis=1).mean() == pytest.approx(1.0, rel=1e-12)

    def test_zero_norm_row_rejected(self, clean_bank):
        rows = clean_bank.reduced.copy()
        rows[0] = 0.0
        broken = dataclasses.replace(clean_bank, reduced=rows)
        with pytest.raises(UsageError):
            st.build_prototypes(broken, 0.1)


class TestEncoder:
    def test_zero_weights_lift_to_origin(self):
        scene = st.generate_scene(SMALL)
        params = st.init_encoder(16, 8, 4, seed=0)
        params["w1"] = np.zeros_like(params["w1"])
        params["w2"] = np.zeros_like(params["w2"])
        sp, t = st.embed_scene(params, scene)
        assert np.all(t == 1.0)
        assert np.all(sp == 0.0)

    def test_single_pixel_equals_batch(self):
        scene = st.generate_scene(SMALL)
        params = st.init_encoder(16, 8, 4, seed=1)
        full = st.encoder_forward(params, scene.features)
        one = st.encoder_forward(params, scene.features[3:4, 5:6, :])
        np.testing.assert_allclose(one[0, 0], full[3, 5], atol=1e-15)

    def test_forward_jvp_matches_fd(self):
        scene = st.generate_scene(SMALL)
        params = st.init_encoder(16, 6, 3, seed=2)
        f0 = scene.features[2, 2]

        def out_k(x, k):
            feats = x.reshape(1, 1, -1)
            return float(st.encoder_forward(params, feats)[0, 0, k])

        for k in range(3):
            fd = gr.finite_difference_gradient(lambda x: out_k(x, k), f0)
            # analytic JVP row: alpha * w2 @ diag(1-a1^2) @ w1
            a1 = np.tanh(params["w1"] @ f0 + params["b1"])
            row = params["alpha"] * (params["w2"][k] * (1 - a1 * a1)) @ params["w1"]
            np.testing.assert_allclose(row, fd, atol=1e-7)


class TestTrain:
    def test_zero_lr_keeps_params(self):
        scene = st.generate_scene(SMALL)
        bank = st.DescriptorBank.fit(scene, d=3)
        cfg = st.TrainConfig(epochs=5, lr=0.0, seed=3, hidden=6, embed_dim=3)
        res = st.train(scene, bank, cfg)
        fresh = st.init_encoder(16, 6, bank.d, 3)
        np.testing.assert_array_equal(res.params["w1"], fresh["w1"])
        np.testing.assert_array_equal(res.params["w2"], fresh["w2"])
        assert np.ptp(res.trace["total"]) == 0.0  # flat trace

    def test_noise_free_scene_reaches_perfect_accuracy(self, clean_scene, clean_bank):
        cfg = st.TrainConfig(epochs=200, lr=0.5)
        res = st.train(clean_scene, clean_bank, cfg)
        pred = st.infer_distance(res.params, res.protos, clean_scene)
        assert np.array_equal(pred.values, clean_scene.labels)

    def test_loss_decreases(self, clean_run):
        assert clean_run.trace["total"][-1] < clean_run.trace["total"][0]

    def test_lambda_weight_shrinks_entailment_term(self):
        scene = st.generate_scene(st.SceneConfig(height=32, width=32))
        bank = st.DescriptorBank.fit(scene, REFERENCE_TRAIN.embed_dim)
        res0 = st.train(scene, bank, st.TrainConfig(epochs=150, lr=0.5, lambda_w=0.0))
        res5 = st.train(scene, bank, st.TrainConfig(epochs=150, lr=0.5, lambda_w=0.5))
        assert res0.trace["total"][-1] < res0.trace["total"][0]
        assert res5.trace["total"][-1] < res5.trace["total"][0]
        assert res5.trace["entail"][-1] < res0.trace["entail"][-1]

    def test_divergence_raises_with_step(self):
        scene = st.generate_scene(SMALL)
        bank = st.DescriptorBank.fit(scene, d=3)
        cfg = st.TrainConfig(epochs=150, lr=1e5, seed=3, hidden=6, embed_dim=3,
                             weight_decay=1.0)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                st.train(scene, bank, cfg)
        assert err.value.step >= 0
        lz.reset_clamp_events()

    def test_deterministic_per_seed(self):
        scene = st.generate_scene(st.SceneConfig(height=24, width=24, noise_sigma=0.1))
        bank = st.DescriptorBank.fit(scene, REFERENCE_TRAIN.embed_dim)
        cfg = st.TrainConfig(epochs=40, lr=0.5)
        a = st.train(scene, bank, cfg)
        b = st.train(scene, bank, cfg)
        np.testing.assert_array_equal(a.params["w1"], b.params["w1"])
        np.testing.assert_array_equal(a.params["w2"], b.params["w2"])
        np.testing.assert_array_equal(a.params["alpha"], b.params["alpha"])
        np.testing.assert_array_equal(a.trace["total"], b.trace["total"])

    @pytest.mark.parametrize("head", ["mask", "pixle"])
    def test_head_other_than_pixel_or_euclid_refused(self, head):
        scene = st.generate_scene(SMALL)
        bank = st.DescriptorBank.fit(scene, d=3)
        cfg = st.TrainConfig(epochs=1, hidden=6, embed_dim=3)
        with pytest.raises(UsageError, match=f"no per-pixel head '{head}'"):
            st.PixelObjective.build(scene, bank, cfg, head)
        with pytest.raises(UsageError, match=f"no per-pixel head '{head}'"):
            st.train(scene, bank, cfg, head=head)


class TestPixelObjectiveGradient:
    """End to end: the dL/dv that both pixel trainers apply, against central
    differences of the loss they report."""

    @pytest.mark.parametrize(
        "head, held_out",
        [("pixel", None), ("euclid", None), ("pixel", 1), ("euclid", 1)],
        ids=["lorentz", "euclidean", "lorentz-held-out", "euclidean-held-out"],
    )
    def test_matches_finite_differences(self, head, held_out):
        scene = st.generate_scene(st.SceneConfig(
            parents=2, children_per_parent=2, height=10, width=10,
            noise_sigma=0.3, edge_blend=0.5,
        ))
        # three included classes span a 2-d PCA, so the held-out bank keeps d = 2
        exclude = () if held_out is None else (held_out,)
        bank = st.DescriptorBank.fit(scene, d=3 - len(exclude), exclude=exclude)
        cfg = st.TrainConfig(embed_dim=bank.d)
        obj = st.PixelObjective.build(scene, bank, cfg, head=head)
        params = st._start_encoder(obj.flat, cfg, bank.d)
        _, u = st._encoder_parts(params, obj.flat)
        v = params["alpha"] * u
        terms, g, _ = obj.loss(params, v, True)
        if head == "pixel":
            assert terms["entail"] > 0.0  # the cone hinge is part of what is checked
        if held_out is not None:
            held = scene.labels.reshape(-1) == held_out
            assert held.any() and np.all(g[held] == 0.0)
        fd = gr.finite_difference_gradient(lambda w: obj.loss(params, w, False)[0]["total"], v)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-6



class TestEncoderBlockGradient:
    """End to end: the encoder-block gradients that ``_descend`` steps,
    chained from each pixel head's dL/dv, against central differences of
    ``evaluate_loss``."""

    @pytest.mark.parametrize("head", ["pixel", "euclid"])
    def test_matches_finite_differences(self, head):
        scene = st.generate_scene(st.SceneConfig(
            parents=2, children_per_parent=2, height=10, width=10,
            noise_sigma=0.3, edge_blend=0.5,
        ))
        bank = st.DescriptorBank.fit(scene, d=3)
        cfg = st.TrainConfig(hidden=6, embed_dim=bank.d)
        obj = st.PixelObjective.build(scene, bank, cfg, head=head)
        params = st._start_encoder(obj.flat, cfg, bank.d)
        a1, u = st._encoder_parts(params, obj.flat)
        terms, g_v, own = obj.loss(params, params["alpha"] * u, True)
        assert own == {}
        if head == "pixel":
            assert terms["entail"] > 0.0  # the cone hinge is part of what is checked
        grads = st._encoder_backward(params, obj.flat, a1, u, g_v)
        assert tuple(grads) == tuple(params)
        for name, g in grads.items():
            fd = gr.finite_difference_gradient(
                lambda x: st.evaluate_loss({**params, name: x}, obj), params[name])
            assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-6, name


class TestStepRule:
    """``_descend`` steps every block by p - (lr * scale) * (g + wd * p):
    only w1 and w2 decay, and only class_tangents and no_object_bias take
    CLASS_LR_SCALE."""

    def test_decay_and_scale_per_block(self):
        scene = st.generate_scene(SMALL)
        flat = scene.features.reshape(-1, scene.features.shape[-1])
        lr, wd = 0.01, 0.5
        cfg = st.TrainConfig(epochs=1, lr=lr, weight_decay=wd, hidden=6, embed_dim=3)
        head = {"class_tangents": np.ones((2, 3)), "mask_tangents": np.ones((2, 3)),
                "no_object_bias": np.ones(1)}
        g_head = {name: np.full_like(block, 0.25) for name, block in head.items()}

        def loss(params, v, want_grad):
            # a constant gradient, so the first step's is known in advance
            if not want_grad:
                return {"total": 0.0}, None, {}
            return {"total": 0.0}, np.full_like(v, 0.1), dict(g_head)

        start = st._start_encoder(flat, cfg, 3)
        a1, u = st._encoder_parts(start, flat)
        g_enc = st._encoder_backward(start, flat, a1, u, np.full_like(u, 0.1))
        params, _ = st._descend(loss, flat, cfg, 3, head)
        assert tuple(params) == tuple(start) + tuple(head)
        for name in ("w1", "w2"):
            np.testing.assert_array_equal(
                params[name], start[name] - lr * (g_enc[name] + wd * start[name]))
        for name in ("b1", "b2", "alpha"):
            np.testing.assert_array_equal(params[name], start[name] - lr * g_enc[name])
        for name, scale in (("class_tangents", st.CLASS_LR_SCALE), ("mask_tangents", 1.0),
                            ("no_object_bias", st.CLASS_LR_SCALE)):
            np.testing.assert_array_equal(params[name], head[name] - (lr * scale) * g_head[name])
        # the head's blocks are stepped into new arrays, not in place
        np.testing.assert_array_equal(head["class_tangents"], 1.0)


class TestPixelObjectiveOracle:
    """The array objective against its scalar form,
    ``entailment.combined_pixel_loss``, averaged over the used pixels."""

    def test_loss_matches_scalar_combined_pixel_loss(self):
        scene = st.generate_scene(st.SceneConfig(
            parents=2, children_per_parent=2, height=8, width=8, noise_sigma=0.3,
        ))
        # three included classes span a 2-d PCA
        bank = st.DescriptorBank.fit(scene, d=2, exclude=(1,))
        cfg = st.TrainConfig(embed_dim=bank.d)
        obj = st.PixelObjective.build(scene, bank, cfg)
        rng = np.random.default_rng(131)
        v = rng.normal(size=(obj.flat.shape[0], bank.d)) * 2.0
        v[::5] *= 9.0
        used = np.nonzero(obj.use_mask)[0]
        points = {i: lz.exp_lift_origin(v[i]) for i in used}
        labels = {i: int(obj.labels_idx[i]) for i in used}
        oracle = np.mean([ent.combined_pixel_loss(obj.protos, points[i], labels[i], cfg.tau,
                                                  cfg.lambda_w) for i in used])
        got = obj.loss({}, v, False)[0]["total"]
        lz.reset_clamp_events()
        # the held-out class drops pixels, some used rows lie beyond the
        # clamp, and the hinge is active on some
        assert 0 < used.size < obj.use_mask.size
        assert np.any(np.linalg.norm(v[used], axis=1) > lz.MAX_TANGENT_NORM)
        anchors, K = obj.protos.anchors, obj.protos.K
        assert any(ent.entailment_loss(anchors[labels[i]], points[i], K) > 0.0 for i in used)
        assert got == pytest.approx(oracle, rel=1e-10)


class TestNoInputMutated:
    """The encoder and the loss work in arrays of their own: the
    parameters, the features and the tangent vectors they are given keep
    every byte."""

    @pytest.mark.parametrize("head", ["pixel", "euclid"])
    def test_forward_backward_and_training_leave_inputs_alone(self, head):
        scene = st.generate_scene(SMALL)
        bank = st.DescriptorBank.fit(scene, d=3)
        cfg = st.TrainConfig(epochs=2, embed_dim=bank.d)
        obj = st.PixelObjective.build(scene, bank, cfg, head=head)
        params = st._start_encoder(obj.flat, cfg, bank.d)
        params["alpha"] *= 20.0  # past the clamp, so the clamped backward runs too
        v = st.encoder_forward(params, scene.features).reshape(obj.flat.shape[0], -1)

        def snapshot():
            blocks = [b.tobytes() for b in params.values()]
            return blocks + [obj.flat.tobytes(), scene.features.tobytes(), v.tobytes()]

        before = snapshot()
        st.encoder_forward(params, scene.features)
        st.evaluate_loss(params, obj)
        obj.loss(params, v, True)
        st.train(scene, bank, cfg, head=head)
        lz.reset_clamp_events()
        assert snapshot() == before


class TestInference:
    def test_matches_per_pixel_bruteforce(self, clean_run, clean_scene):
        pred = st.infer_distance(clean_run.params, clean_run.protos, clean_scene)
        sp, t = st.embed_scene(clean_run.params, clean_scene)
        for (r, c) in [(0, 0), (10, 40), (33, 12), (63, 63)]:
            p = lz.LorentzPoint(t[r, c], sp[r, c])
            d = [lz.geodesic_distance(a, p) for a in clean_run.protos.anchors]
            assert pred.values[r, c] == int(np.argmin(d))

    def test_tie_breaks_to_lowest_index(self):
        scene = st.generate_scene(SMALL)
        params = st.init_encoder(16, 8, 2, seed=0)
        params["w1"] = np.zeros_like(params["w1"])
        params["w2"] = np.zeros_like(params["w2"])  # all pixels at the origin
        anchors = (lz.exp_lift_origin([1.0, 0.0]), lz.exp_lift_origin([-1.0, 0.0]))
        protos = ent.PrototypeSet(anchors, ("a", "b"), 0.1)
        pred = st.infer_distance(params, protos, scene)
        assert np.all(pred.values == 0)

    def test_angle_mode_agrees_on_clean_run(self, reference_runs):
        assert STATISTICS["CLEAN_AGREEMENT"](reference_runs) >= ref.CLEAN_AGREEMENT_MIN

    def test_logit_identity(self, clean_run, clean_scene):
        # argmax of -d/tau logits is the distance-inference label
        pred = st.infer_distance(clean_run.params, clean_run.protos, clean_scene)
        sp, t = st.embed_scene(clean_run.params, clean_scene)
        rng = np.random.default_rng(56)
        for _ in range(20):
            r, c = rng.integers(0, 64, size=2)
            logits = ent.distance_logits(
                clean_run.protos, lz.LorentzPoint(t[r, c], sp[r, c]), 0.37
            )
            assert int(np.argmax(logits)) == pred.values[r, c]

    def test_tau_invariance_of_map(self, clean_run, clean_scene):
        sp, t = st.embed_scene(clean_run.params, clean_scene)
        sp, t = sp.reshape(t.size, -1), t.reshape(-1)
        inner = lz.inner_to_anchors(sp, t, clean_run.protos.spatial, clean_run.protos.time)
        maps = [(-lz.distances_from_inner(inner) / tau).argmax(axis=1) for tau in (0.05, 0.1, 2.0)]
        np.testing.assert_array_equal(maps[0], maps[1])
        np.testing.assert_array_equal(maps[0], maps[2])


class TestMiou:
    def test_perfect(self):
        labels = np.arange(9).reshape(3, 3)
        assert st.miou(labels, labels, 9) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4), dtype=int)
        b = np.ones((4, 4), dtype=int)
        assert st.miou(a, b, 2) == 0.0

    def test_half_overlap_rectangle(self):
        gt = np.zeros((4, 8), dtype=int)
        gt[:, :4] = 1
        pred = np.zeros((4, 8), dtype=int)
        pred[:, 2:6] = 1
        # class 1: intersection 8, union 24 -> 1/3; class 0 symmetric
        assert st.miou(pred, gt, 2) == pytest.approx(1.0 / 3.0)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            st.miou(np.zeros((2, 2)), np.zeros((3, 3)), 2)

    def test_skips_absent_classes(self):
        gt = np.zeros((4, 4), dtype=int)
        pred = np.zeros((4, 4), dtype=int)
        assert st.miou(pred, gt, 5) == 1.0


class TestRetrieval:
    def test_class_query_recalls_own_pixels(self, clean_run, clean_scene, clean_bank):
        gt = clean_scene.labels == 2
        scores = text_query(
            clean_run.params, clean_scene, clean_scene.class_descriptors[2],
            clean_bank, mode="distance",
        )
        assert recall_at_budget(scores, gt) == 1.0

    def test_dimension_mismatch(self, clean_run, clean_scene, clean_bank):
        with pytest.raises(UsageError):
            text_query(clean_run.params, clean_scene, np.zeros(5), clean_bank)

    def test_parent_query_recalls_children(self, reference_runs):
        assert STATISTICS["PARENT_CHILD_RECALL_MIN"](reference_runs) >= ref.PARENT_CHILD_RECALL_MIN

    def test_unrelated_query_carries_higher_angles(self, reference_runs):
        ext_rand = STATISTICS["CROSSLABEL_EXT_RANDOM"](reference_runs)
        ext_cls = STATISTICS["CROSSLABEL_EXT_SAMECLASS"](reference_runs)
        assert ext_rand - ext_cls >= ref.CROSSLABEL_EXT_GAP_MIN


class TestHeldOut:
    def test_held_out_bank_alone_leaves_its_pixels_out(self, reference_runs):
        scene, bank = reference_runs.scene("heldout-hyp"), reference_runs.bank("heldout-hyp")
        held = scene.labels.reshape(-1) == HELDOUT_CLASS
        assert HELDOUT_CLASS not in bank.included and held.any()
        for head in ("pixel", "euclid"):
            obj = st.PixelObjective.build(scene, bank, REFERENCE_TRAIN, head)
            np.testing.assert_array_equal(obj.use_mask, ~held)
            assert obj.n_used == np.count_nonzero(~held)
            assert np.all(obj.weights[held] == 0.0)

    def test_hyperbolic_beats_euclidean(self, reference_runs):
        r_h = STATISTICS["HELDOUT_RECALL_HYP"](reference_runs)
        r_e = STATISTICS["HELDOUT_RECALL_EUC"](reference_runs)
        assert r_h >= ref.HELDOUT_RECALL_HYP_MIN
        assert r_h > r_e


class TestEuclideanBaseline:
    def test_trains_to_perfect_miou(self, clean_scene, clean_bank):
        res = st.train(clean_scene, clean_bank, st.TrainConfig(epochs=200, lr=0.5), head="euclid")
        pred = st.infer_euclidean(res.params, clean_bank, clean_scene)
        assert st.miou(pred, clean_scene.labels, clean_scene.n_classes) == 1.0

    def test_no_entailment_in_trace(self, clean_scene, clean_bank):
        res = st.train(clean_scene, clean_bank, st.TrainConfig(epochs=3, lr=0.1), head="euclid")
        assert "entail" not in res.trace
