"""End-to-end tests of the command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from test_fileio import JSON_VALUES

import lorentzseg
from lorentzseg import hyperbolicity as hyp
from lorentzseg import maskhead as mh
from lorentzseg import segtoy as st
from lorentzseg.cli import load_model, main
from lorentzseg.entailment import anchor_apertures
from lorentzseg.errors import TrainingDivergedError
from lorentzseg.fileio import read_json, read_pgm, write_embedding_csv, write_json


def run(argv):
    return main(argv)


SMALL_TRAIN = [
    "--parents", "3", "--children", "3", "--height", "16", "--width", "16",
    "--epochs", "200", "--embed-dim", "8",
]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_runs")
    assert run(["train", "--head", "pixel", *SMALL_TRAIN, "--out-dir", str(d / "pix")]) == 0
    assert run(["train", "--head", "euclid", *SMALL_TRAIN, "--out-dir", str(d / "euc")]) == 0
    return d


class TestDeltahyp:
    def test_collinear_points_are_tree_like(self, tmp_path):
        # integer points on a line metrize a path tree exactly in float
        # arithmetic: delta_rel must be 0
        pts = np.zeros((12, 3))
        pts[:, 0] = np.arange(12.0)
        path = tmp_path / "line.csv"
        write_embedding_csv(path, pts)
        out = tmp_path / "rep.json"
        assert run(["deltahyp", "--input", str(path), "--batch-size", "12",
                    "--batches", "1", "--seed", "0", "--out", str(out)]) == 0
        rep = read_json(out)
        assert rep["delta_rel"] == 0.0

    def test_same_seed_identical_json(self, tmp_path):
        rng = np.random.default_rng(130)
        path = tmp_path / "e.csv"
        write_embedding_csv(path, rng.normal(size=(60, 4)))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["deltahyp", "--input", str(path), "--batch-size", "20",
                        "--batches", "4", "--seed", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cli_matches_library_on_exported_embeddings(self, tmp_path):
        # tangent embeddings exported from a trained scene encoder
        scene = st.generate_scene(st.SceneConfig(height=16, width=16))
        bank = st.DescriptorBank.fit(scene, 8)
        res = st.train(scene, bank, st.TrainConfig(epochs=30, lr=0.5))
        tangents = st.encoder_forward(res.params, scene.features).reshape(-1, 8)
        path = tmp_path / "e.csv"
        write_embedding_csv(path, tangents)
        out = tmp_path / "r.json"
        assert run(["deltahyp", "--input", str(path), "--metric", "lorentz",
                    "--batch-size", "64", "--batches", "3", "--seed", "9",
                    "--out", str(out)]) == 0
        rep = read_json(out)
        lib = hyp.batched_delta_rel_from_points(tangents, 64, 3, seed=9, metric="lorentz")
        assert rep["delta_rel"] == lib.delta_rel

    def test_missing_file_exits_3(self, tmp_path):
        assert run(["deltahyp", "--input", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "r.json")]) == 3

    def test_malformed_file_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("dim=2\n1.0,2.0\n3.0\n")
        assert run(["deltahyp", "--input", str(bad), "--out", str(tmp_path / "r.json")]) == 3

    def test_undecodable_file_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe")
        assert run(["deltahyp", "--input", str(bad), "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err.startswith("io error:")


class TestGradcheck:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gradcheck", "--samples", "50", "--seed", "3", "--out", str(out)]) == 0
        rep = read_json(out)
        assert rep["max_rel_error"] <= 1e-5
        assert rep["sign_agreement_rate"] == 1.0

    def test_injected_error_exits_1(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gradcheck", "--samples", "5", "--seed", "3",
                    "--inject-error", "--out", str(out)]) == 1

    def test_single_sample(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gradcheck", "--samples", "1", "--seed", "4", "--out", str(out)]) == 0
        assert len(read_json(out)["samples"]) == 1


@pytest.fixture(scope="module")
def field(tmp_path_factory):
    d = tmp_path_factory.mktemp("gradfield")
    out = d / "f.csv"
    assert run(["gradfield", "--grid-extent", "1.2", "--resolution", "7",
                "--target", "0.6,0.3", "--out", str(out)]) == 0
    rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


class TestGradfield:
    def test_row_count(self, field):
        header, data = field
        assert len(data) == 49

    def test_target_row_zeroed(self, field):
        header, data = field
        col = {name: i for i, name in enumerate(header)}
        for row in data:
            if row[col["v1"]] == 0.6 and row[col["v2"]] == 0.3:
                assert row[col["ld_mag"]] == 0.0
                assert row[col["sign"]] == 0

    def test_euclid_orthogonality_per_row(self, field):
        header, data = field
        col = {name: i for i, name in enumerate(header)}
        checked = 0
        for row in data:
            if row[col["euclid_d_mag"]] > 0:
                assert abs(row[col["euclid_cos"]]) < 1e-8
                checked += 1
        assert checked > 40

    def test_sign_column_matches_recomputed_cosine(self, field):
        header, data = field
        col = {name: i for i, name in enumerate(header)}
        for row in data:
            gd = np.array([row[col["ld_dx"]], row[col["ld_dy"]]])
            ga = np.array([row[col["lext_dx"]], row[col["lext_dy"]]])
            if np.linalg.norm(gd) == 0 or np.linalg.norm(ga) == 0:
                continue
            cos = float(gd @ ga / (np.linalg.norm(gd) * np.linalg.norm(ga)))
            if abs(cos) > 1e-8:
                assert (1 if cos > 0 else -1) == int(row[col["sign"]])


class TestTrainInferUncertainty:
    def test_pixel_train_reaches_perfect_miou(self, trained_dir):
        metrics = read_json(trained_dir / "pix" / "metrics.json")
        assert metrics["train_miou_distance"] == 1.0
        assert metrics["distance_angle_agreement"] > 0.9

    def test_infer_modes_agree_and_log(self, trained_dir, tmp_path):
        out = tmp_path / "inf"
        assert run(["infer", "--model", str(trained_dir / "pix" / "model"),
                    "--mode", "angle", "--out-dir", str(out)]) == 0
        metrics = read_json(out / "metrics.json")
        assert metrics["miou_angle"] == 1.0
        assert metrics["distance_angle_agreement"] > 0.9
        pgm = read_pgm(out / "pred.pgm")
        assert pgm.shape == (16, 16)
        legend = read_json(out / "pred.legend.json")
        assert legend["0"] == "p0.c0"

    def test_uncertainty_exports(self, trained_dir, tmp_path):
        out = tmp_path / "unc"
        assert run(["uncertainty", "--model", str(trained_dir / "pix" / "model"),
                    "--percentile", "85", "--out-dir", str(out)]) == 0
        for stem in ("radius_uncertainty", "angle_uncertainty", "boundary", "confidence_class0"):
            assert (out / f"{stem}.pgm").exists()
            sidecar = read_json(out / f"{stem}.json")
            assert "min" in sidecar and "max" in sidecar
        bvals = np.loadtxt(out / "boundary.csv", delimiter=",")
        assert set(np.unique(bvals)) <= {0.0, 1.0}

    def test_train_outputs_reproducible(self, trained_dir, tmp_path):
        rerun = tmp_path / "pix2"
        assert run(["train", "--head", "pixel", *SMALL_TRAIN, "--out-dir", str(rerun)]) == 0
        for name in ("model.bin", "model.json", "trace.csv", "metrics.json"):
            assert (rerun / name).read_bytes() == (trained_dir / "pix" / name).read_bytes()

    def test_manifest_written_with_clamp_counter(self, trained_dir):
        manifest = read_json(trained_dir / "pix" / "manifest.json")
        assert manifest["command"].startswith("train")
        assert manifest["tool_version"]
        assert "clamp_events" in manifest and "wall_clock_s" in manifest

    def test_mask_head_cli(self, tmp_path):
        out = tmp_path / "mask"
        assert run(["train", "--head", "mask", "--height", "24", "--width", "24",
                    "--epochs", "250", "--lr", "0.002", "--out-dir", str(out)]) == 0
        metrics = read_json(out / "metrics.json")
        assert metrics["train_miou_semantic"] == 1.0
        inf = tmp_path / "mask_inf"
        assert run(["infer", "--model", str(out / "model"), "--out-dir", str(inf)]) == 0
        assert read_json(inf / "metrics.json")["miou_semantic"] == metrics["train_miou_semantic"]
        un = tmp_path / "mask_unc"
        assert run(["uncertainty", "--model", str(out / "model"), "--out-dir", str(un)]) == 0
        assert (un / "angle_uncertainty.pgm").exists()


class TestLosscape:
    def test_center_cell_equals_final_loss(self, trained_dir, tmp_path):
        out = tmp_path / "ls.csv"
        assert run(["losscape", "--model", str(trained_dir / "pix" / "model"),
                    "--grid", "5", "--extent", "0.5", "--out", str(out)]) == 0
        metrics = read_json(trained_dir / "pix" / "metrics.json")
        center = None
        for line in out.read_text().splitlines():
            if line.startswith("0.0,0.0,"):
                center = float(line.split(",")[2])
        assert center is not None
        assert abs(center - metrics["final_loss"]) <= 1e-12

    def test_deterministic_grid(self, trained_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["losscape", "--model", str(trained_dir / "pix" / "model"),
                        "--grid", "3", "--directions-seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_euclid_landscape(self, trained_dir, tmp_path):
        out = tmp_path / "e.csv"
        assert run(["losscape", "--model", str(trained_dir / "euc" / "model"),
                    "--grid", "3", "--out", str(out)]) == 0
        metrics = read_json(trained_dir / "euc" / "metrics.json")
        for line in out.read_text().splitlines():
            if line.startswith("0.0,0.0,"):
                assert abs(float(line.split(",")[2]) - metrics["final_loss"]) <= 1e-12


class TestEuclidBaseline:
    def test_perfect_miou_and_no_entailment(self, trained_dir):
        metrics = read_json(trained_dir / "euc" / "metrics.json")
        assert metrics["train_miou_euclid"] == 1.0
        header = (trained_dir / "euc" / "trace.csv").read_text().splitlines()[1]
        assert "entail" not in header
        assert "aper" not in json.dumps(metrics)


class TestExitCodes:
    def test_bad_flag_value_exits_2(self, tmp_path):
        assert run(["deltahyp", "--input", "x.csv", "--metric", "manhattan",
                    "--out", str(tmp_path / "r.json")]) == 2

    def test_bad_config_exits_2(self, tmp_path, capsys):
        assert run(["train", "--head", "pixel", "--parents", "0",
                    "--out-dir", str(tmp_path / "o")]) == 2
        # the scene config's own check is the one the user sees
        assert capsys.readouterr().err.splitlines() == ["usage error: parents must be >= 1, got 0"]

    @pytest.mark.parametrize("head, flag, value, message", [
        ("pixel", "--noise", "nan", "noise_sigma must be finite, got nan"),
        ("pixel", "--tau", "nan", "tau must be finite, got nan"),
        ("pixel", "--embed-dim", "0", "embed_dim must be >= 1, got 0"),
        ("euclid", "--lambda-w", "nan", "lambda_w must be finite, got nan"),
        ("euclid", "--lr", "nan", "lr must be finite, got nan"),
        ("mask", "--weight-decay", "inf", "weight_decay must be finite, got inf"),
        ("mask", "--weight-decay", "nan", "weight_decay must be finite, got nan"),
        ("mask", "--scene-seed", "-1", "seed must be >= 0, got -1"),
    ])
    def test_bad_setting_exits_2_naming_it(self, tmp_path, capsys, head, flag, value, message):
        assert run(["train", "--head", head, "--height", "16", "--width", "16", "--epochs", "2",
                    flag, value, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]

    def test_mask_head_refuses_held_out_class(self, tmp_path, capsys):
        assert run(["train", "--head", "mask", "--height", "16", "--width", "16", "--epochs", "2",
                    "--exclude-class", "4", "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:") and "class 4" in err[0]

    def test_unwritable_manifest_exits_3(self, tmp_path, capsys):
        # the manifest is written last, by main, after the command returned
        (tmp_path / "g.json.manifest.json").mkdir()
        assert run(["gradcheck", "--samples", "1", "--out", str(tmp_path / "g.json")]) == 3
        assert capsys.readouterr().err.startswith("io error:")

    def test_batch_size_too_small_exits_2(self, tmp_path):
        path = tmp_path / "e.csv"
        write_embedding_csv(path, np.zeros((8, 2)))
        assert run(["deltahyp", "--input", str(path), "--batch-size", "2",
                    "--out", str(tmp_path / "r.json")]) == 2


def _edited_model(src_dir, dst_dir, edit):
    """Copy the model under ``src_dir`` with ``edit`` applied to its descriptor."""
    doc = read_json(src_dir / "model.json")
    edit(doc)
    dst_dir.mkdir()
    write_json(dst_dir / "model.json", doc)
    (dst_dir / "model.bin").write_bytes((src_dir / "model.bin").read_bytes())
    return str(dst_dir / "model")


def _drop_block(name):
    def edit(doc):
        doc["blocks"] = [b for b in doc["blocks"] if b["name"] != name]
    return edit


def _drop_offset(doc):
    del doc["blocks"][0]["offset"]


def _drop_extra(name):
    def edit(doc):
        del doc["extras"][name]
    return edit


class TestModelLoading:
    @pytest.mark.parametrize("edit", [_drop_block("w1"), _drop_block("alpha"), _drop_offset,
                                      _drop_extra("scene"), _drop_extra("head")])
    def test_malformed_descriptor_exits_3(self, trained_dir, tmp_path, edit, capsys):
        model = _edited_model(trained_dir / "pix", tmp_path / "m", edit)
        assert run(["infer", "--model", model, "--out-dir", str(tmp_path / "inf")]) == 3
        assert run(["losscape", "--model", model, "--grid", "1",
                    "--out", str(tmp_path / "ls.csv")]) == 3
        assert "malformed model descriptor" in capsys.readouterr().err

    def test_model_with_zero_momentum_still_loads(self, trained_dir, tmp_path):
        # models saved while TrainConfig still had a momentum field record it as 0.0
        def add_momentum(doc):
            doc["extras"]["train"]["momentum"] = 0.0
        model = _edited_model(trained_dir / "pix", tmp_path / "m", add_momentum)
        assert run(["infer", "--model", model, "--out-dir", str(tmp_path / "inf")]) == 0
        assert read_json(tmp_path / "inf" / "metrics.json")["miou_distance"] == 1.0
        assert run(["uncertainty", "--model", model, "--out-dir", str(tmp_path / "unc")]) == 0
        out = tmp_path / "ls.csv"
        assert run(["losscape", "--model", model, "--grid", "3", "--out", str(out)]) == 0
        center = [line for line in out.read_text().splitlines() if line.startswith("0.0,0.0,")]
        final = read_json(trained_dir / "pix" / "metrics.json")["final_loss"]
        assert float(center[0].split(",")[2]) == final

    def test_unknown_head_exits_3(self, trained_dir, tmp_path, capsys):
        def rename_head(doc):
            doc["extras"]["head"] = "conformal"
        model = _edited_model(trained_dir / "pix", tmp_path / "m", rename_head)
        assert run(["infer", "--model", model, "--out-dir", str(tmp_path / "inf")]) == 3
        assert "unknown head 'conformal'" in capsys.readouterr().err

    def test_loaded_record_is_the_trained_head(self, trained_dir):
        scene, res = load_model(str(trained_dir / "pix" / "model"))
        assert (res.head, res.trace, res.exclude_class, res.queries) == ("pixel", {}, None, None)
        assert scene.shape == (16, 16) and res.bank.d == res.config.embed_dim == 8
        pred = st.infer_distance(res.params, res.protos, scene)
        assert st.miou(pred, scene.labels, scene.n_classes) == 1.0
        _, euc = load_model(str(trained_dir / "euc" / "model"))
        assert euc.head == "euclid" and euc.protos is None

    def test_nonzero_momentum_exits_3(self, trained_dir, tmp_path):
        def add_momentum(doc):
            doc["extras"]["train"]["momentum"] = 0.9
        model = _edited_model(trained_dir / "pix", tmp_path / "m", add_momentum)
        assert run(["infer", "--model", model, "--out-dir", str(tmp_path / "inf")]) == 3


@pytest.fixture(scope="module")
def mask_k_dir(tmp_path_factory):
    """A briefly trained mask head whose cone constant is not the default."""
    d = tmp_path_factory.mktemp("mask_k") / "mask"
    assert run(["train", "--head", "mask", "--height", "16", "--width", "16",
                "--cone-k", "0.2", "--epochs", "2", "--out-dir", str(d)]) == 0
    return d


class TestMaskModelConeConstant:
    def test_loaded_class_logits_match_training_forward(self, mask_k_dir):
        scene, res = load_model(str(mask_k_dir / "model"))
        assert res.head == "mask" and res.config.K == 0.2 and res.trace == {}
        flat = scene.features.reshape(-1, scene.features.shape[-1])
        apers = anchor_apertures(res.protos.spatial_norms, res.config.K)
        state = mh._forward_state(res.params, res.queries, flat, res.protos, res.head_cfg, apers)
        logits = mh.class_query_logits(res.protos, res.queries, res.config.K)
        assert np.array_equal(logits, state["full_logits"][:, :-1])

    def test_model_with_head_cone_constant_still_loads(self, mask_k_dir, tmp_path):
        # mask models saved while MaskHeadConfig still had its own K record it
        def add_head_k(doc):
            doc["extras"]["head_cfg"]["K"] = 0.1
        model = _edited_model(mask_k_dir, tmp_path / "m", add_head_k)
        assert run(["infer", "--model", model, "--out-dir", str(tmp_path / "old")]) == 0
        assert run(["infer", "--model", str(mask_k_dir / "model"),
                    "--out-dir", str(tmp_path / "new")]) == 0
        for name in ("pred.pgm", "metrics.json"):
            assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()

    def test_model_with_retired_head_settings_still_loads(self, mask_k_dir, tmp_path):
        # mask models saved while the head constants were MaskHeadConfig
        # fields record all twelve, at these values
        def add_retired(doc):
            doc["extras"]["head_cfg"].update(RETIRED_HEAD_CFG)
        model = _edited_model(mask_k_dir, tmp_path / "m", add_retired)
        for command in ("infer", "uncertainty"):
            for tag, prefix in (("old", model), ("new", str(mask_k_dir / "model"))):
                assert run([command, "--model", prefix, "--out-dir", str(tmp_path / command / tag)]) == 0
            new = sorted(p for p in (tmp_path / command / "new").iterdir() if p.name != "manifest.json")
            assert new
            for path in new:
                assert (tmp_path / command / "old" / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("key, value", [("w_d", 0.7), ("class_lr_scale", 10.0),
                                            ("gamma", None), ("n_queries", 3)])
    def test_head_setting_that_disagrees_exits_3(self, mask_k_dir, tmp_path, key, value, capsys):
        def edit(doc):
            doc["extras"]["head_cfg"].update(RETIRED_HEAD_CFG)
            doc["extras"]["head_cfg"][key] = value
        model = _edited_model(mask_k_dir, tmp_path / "m", edit)
        assert run(["infer", "--model", model, "--out-dir", str(tmp_path / "inf")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("io error:")


RETIRED_HEAD_CFG = {
    "w_d": 1.0, "b_d": 1.0, "s_d": 0.1, "b_a": 0.17, "gamma": 2.0, "lambda_cls": 1.0,
    "lambda_focal": 20.0, "lambda_dice": 1.0, "no_object_weight": 0.1, "class_lr_scale": 100.0,
}


def _set_extra(path, value):
    def edit(doc):
        owner = doc["extras"]
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
    return edit


class TestModelDescriptorValues:
    """Every value of a model's extras that the loader cannot use exits 3
    with one stderr line, never a traceback or a usage error."""

    @pytest.mark.parametrize("path, value", [
        (("exclude_class",), [1]),
        (("exclude_class",), 99),
        (("exclude_class",), True),
        (("scene", "seed"), "x"),
        (("scene", "seed"), -1),
        (("scene", "parents"), 20),
        (("scene", "descriptor_dim"), 4),
        (("scene", "descriptor_dim"), 32),
        (("scene", "noise_sigma"), None),
        (("train", "embed_dim"), 0),
        (("train", "embed_dim"), 4),
        (("train", "embed_dim"), 50),
        (("train", "hidden"), 16),
        (("train", "tau"), "nan"),
    ])
    def test_unusable_value_exits_3(self, trained_dir, tmp_path, path, value, capsys):
        model = _edited_model(trained_dir / "pix", tmp_path / "m", _set_extra(path, value))
        assert run(["infer", "--model", model, "--out-dir", str(tmp_path / "inf")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("io error:")

    @settings(max_examples=60, deadline=None)
    @given(data=hs.data())
    def test_any_one_value_replaced_exits_0_or_3(self, trained_dir, mask_k_dir, fuzz_model_dir, data):
        src = data.draw(hs.sampled_from([trained_dir / "pix", mask_k_dir]))
        doc = read_json(src / "model.json")
        extras = doc["extras"]
        paths = [(key,) for key in extras]
        paths += [(key, sub) for key, inner in extras.items() if isinstance(inner, dict) for sub in inner]
        _set_extra(data.draw(hs.sampled_from(paths)), data.draw(JSON_VALUES))(doc)
        write_json(fuzz_model_dir / "model.json", doc)
        (fuzz_model_dir / "model.bin").write_bytes((src / "model.bin").read_bytes())
        with np.errstate(all="ignore"):
            code = run(["infer", "--model", str(fuzz_model_dir / "model"),
                        "--out-dir", str(fuzz_model_dir / "inf")])
        assert code in (0, 3)


@pytest.fixture(scope="module")
def fuzz_model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz_model")


class TestDivergence:
    def test_diverged_run_exits_1_with_step(self, tmp_path, capsys):
        out = tmp_path / "euc"
        with np.errstate(all="ignore"):
            assert run(["train", "--head", "euclid", *SMALL_TRAIN, "--lr", "1e9", "--epochs", "20",
                        "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("training diverged:") and "at step" in err[0]
        manifest = read_json(out / "manifest.json")
        assert manifest["diverged_at_step"] == int(err[0].rsplit(" ", 1)[1])
        assert manifest["command"] == "train --head euclid"
        assert manifest["config"]["train"]["lr"] == 1e9
        assert {"seed", "tool_version", "wall_clock_s", "clamp_events"} <= manifest.keys()
        # nothing but the manifest was written, and it lists no outputs
        assert manifest["inputs"] == [] and manifest["outputs"] == []
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_diverged_train_writes_manifest(self, tmp_path, monkeypatch, capsys):
        # neither training head diverges even at lr 1e9 on the small scenes
        # (the tangent clamp bounds them), so the divergence is injected
        def diverge(*args, **kwargs):
            raise TrainingDivergedError(3)
        monkeypatch.setattr(st, "train", diverge)
        out = tmp_path / "pix"
        assert run(["train", "--head", "pixel", *SMALL_TRAIN, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "training diverged: loss became non-finite at step 3\n"
        manifest = read_json(out / "manifest.json")
        assert manifest["diverged_at_step"] == 3
        assert manifest["command"] == "train --head pixel"
        assert manifest["outputs"] == []
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_finished_run_has_no_diverged_step(self, trained_dir):
        assert "diverged_at_step" not in read_json(trained_dir / "pix" / "manifest.json")


CONTRACT_RUNS = {
    # name: the command's flags up to its output flag; the test fills in the
    # {pix}/{mask} model prefixes and the {csv} input, and appends the output path
    "train-pixel": ["train", "--head", "pixel", *SMALL_TRAIN, "--out-dir"],
    "train-mask": ["train", "--head", "mask", "--height", "16", "--width", "16",
                   "--epochs", "2", "--out-dir"],
    "train-euclid": ["train", "--head", "euclid", *SMALL_TRAIN, "--out-dir"],
    "infer-pixel": ["infer", "--model", "{pix}", "--out-dir"],
    "infer-mask": ["infer", "--model", "{mask}", "--out-dir"],
    "uncertainty-pixel": ["uncertainty", "--model", "{pix}", "--out-dir"],
    "uncertainty-mask": ["uncertainty", "--model", "{mask}", "--out-dir"],
    "losscape": ["losscape", "--model", "{pix}", "--grid", "3", "--out"],
    "gradcheck": ["gradcheck", "--samples", "20", "--out"],
    "gradfield": ["gradfield", "--resolution", "5", "--out"],
    "deltahyp": ["deltahyp", "--input", "{csv}", "--batch-size", "20", "--batches", "3", "--out"],
}


def _without_clock(manifest):
    return {k: v for k, v in manifest.items() if k != "wall_clock_s"}


class TestManifestContract:
    @pytest.mark.parametrize("name", sorted(CONTRACT_RUNS))
    def test_outputs_listed_exactly_and_reproduced(self, name, trained_dir, mask_k_dir, tmp_path):
        csv = tmp_path / "e.csv"
        write_embedding_csv(csv, np.random.default_rng(131).normal(size=(50, 3)))
        paths = {"pix": trained_dir / "pix" / "model", "mask": mask_k_dir / "model", "csv": csv}
        argv = [arg.format(**paths) for arg in CONTRACT_RUNS[name]]
        run_dir = tmp_path / "run"
        if argv[-1] == "--out-dir":
            argv.append(str(run_dir))
            manifest_path = run_dir / "manifest.json"
        else:
            argv.append(str(run_dir / "out"))
            manifest_path = run_dir / "out.manifest.json"
        assert run(argv) == 0
        manifest = read_json(manifest_path)
        outputs = [Path(p) for p in manifest["outputs"]]
        assert outputs and all(p.is_file() for p in outputs)
        assert all(Path(p).is_file() for p in manifest["inputs"])
        # the run's directory holds the listed outputs and the manifest, nothing else
        assert sorted(run_dir.iterdir()) == sorted(outputs + [manifest_path])
        first = {p: p.read_bytes() for p in outputs}
        assert run(argv) == 0
        assert {p: p.read_bytes() for p in outputs} == first
        assert _without_clock(read_json(manifest_path)) == _without_clock(manifest)


class TestThreadCountDeterminism:
    def test_outputs_identical_across_blas_and_pool_threads(self, tmp_path):
        src = str(Path(lorentzseg.__file__).resolve().parents[1])
        csv = tmp_path / "e.csv"
        write_embedding_csv(csv, np.random.default_rng(132).normal(size=(512, 4)))
        outputs = {}
        for blas in ("1", "2"):
            for pool in ("1", "2"):
                out = tmp_path / f"blas{blas}_pool{pool}"
                train = ["train", "--head", "pixel", *SMALL_TRAIN, "--epochs", "60",
                         "--out-dir", str(out)]
                delta = ["deltahyp", "--input", str(csv), "--metric", "lorentz",
                         "--batch-size", "256", "--batches", "4", "--out", str(out / "delta.json")]
                # one child runs both commands, so the numpy import is paid once
                script = ("import sys; from lorentzseg.cli import main; "
                          f"sys.exit(main({train!r}) or main({delta!r}))")
                env = {**os.environ, "OPENBLAS_NUM_THREADS": blas, "LSK_THREADS": pool,
                       "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
                subprocess.run([sys.executable, "-c", script], env=env, check=True,
                               capture_output=True)
                outputs[blas, pool] = {
                    name: (out / name).read_bytes()
                    for name in ("model.bin", "model.json", "trace.csv", "metrics.json", "delta.json")
                }
        assert all(files == outputs["1", "1"] for files in outputs.values())
