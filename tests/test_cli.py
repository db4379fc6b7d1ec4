"""End-to-end tests of the command-line surface."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from test_fileio import JSON_VALUES

import lorentzseg
from lorentzseg import entailment as ent
from lorentzseg import grad as gr
from lorentzseg import hyperbolicity as hyp
from lorentzseg import lorentz as lz
from lorentzseg import maskhead as mh
from lorentzseg import segtoy as st
from lorentzseg.cli import build_parser, load_model, main
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

    @pytest.mark.parametrize("metric", ["euclidean", "lorentz"])
    def test_overflowing_distances_exit_2(self, tmp_path, capsys, metric):
        # one row of 1e200 overflows every distance to it
        pts = np.random.default_rng(131).normal(size=(20, 4))
        pts[3] = 1e200
        path = tmp_path / "e.csv"
        write_embedding_csv(path, pts)
        out = tmp_path / "r.json"
        assert run(["deltahyp", "--input", str(path), "--metric", metric,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:") and "overflow" in err[0]
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()

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

    def test_injected_error_exits_1(self, tmp_path, monkeypatch):
        distance_gradient = gr.grad_lorentz_distance
        monkeypatch.setattr(gr, "grad_lorentz_distance", lambda x, y: -distance_gradient(x, y))
        out = tmp_path / "g.json"
        assert run(["gradcheck", "--samples", "5", "--seed", "3", "--out", str(out)]) == 1

    def test_single_sample(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gradcheck", "--samples", "1", "--seed", "4", "--out", str(out)]) == 0
        assert len(read_json(out)["samples"]) == 1

    def test_euclid_orthogonality_violation_exits_1(self, tmp_path, monkeypatch, capsys):
        # a 1e-7 radial leak keeps max_rel_error far below 1e-5, so only
        # the orthogonality count can fail the check
        angle_gradient = gr.grad_euclidean_exterior_angle
        monkeypatch.setattr(gr, "grad_euclidean_exterior_angle",
                            lambda x, y: angle_gradient(x, y) + 1e-7 * (x - y))
        out = tmp_path / "g.json"
        assert run(["gradcheck", "--samples", "20", "--seed", "3", "--out", str(out)]) == 1
        assert "euclid_violations=20 -> FAIL" in capsys.readouterr().out
        assert read_json(out)["max_rel_error"] <= 1e-5


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


    def test_tangent_columns_match_finite_differences(self, field):
        # ltd and ltext are the gradients of d(expm_O(u), y) and
        # ext(y, expm_O(u)) in u, the origin-tangent coordinates of the
        # row's point x = lift_point(v): u = asinh(||v||) v/||v||
        header, data = field
        col = {name: i for i, name in enumerate(header)}
        y = lz.lift_point(np.array([0.6, 0.3]))
        for row in (data[0], data[17], data[40]):
            v = np.array([row[col["v1"]], row[col["v2"]]])
            r = np.linalg.norm(v)
            u = v * np.arcsinh(r) / r
            fd_d = gr.finite_difference_gradient(
                lambda w: lz.geodesic_distance(lz.exp_lift_origin(w), y), u)
            fd_ext = gr.finite_difference_gradient(
                lambda w: ent.exterior_angle(y, lz.exp_lift_origin(w)), u)
            np.testing.assert_allclose([row[col["ltd_dx"]], row[col["ltd_dy"]]], fd_d, atol=1e-7)
            np.testing.assert_allclose([row[col["ltext_dx"]], row[col["ltext_dy"]]], fd_ext,
                                       atol=1e-7)

    def test_far_grid_writes_finite_rows(self, tmp_path):
        out = tmp_path / "far.csv"
        assert run(["gradfield", "--grid-extent", "1e6", "--resolution", "3",
                    "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=2)
        assert rows.shape == (9, 18) and np.isfinite(rows).all()


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

    def test_mask_manifest_records_head_settings(self, trained_dir, tmp_path):
        configs = []
        for queries in ("10", "12"):
            out = tmp_path / queries
            assert run(["train", "--head", "mask", "--height", "16", "--width", "16",
                        "--epochs", "1", "--queries", queries, "--out-dir", str(out)]) == 0
            configs.append(read_json(out / "manifest.json")["config"])
        a, b = configs
        assert a.keys() == b.keys()
        assert [key for key in a if a[key] != b[key]] == ["head_cfg"]
        assert (a["head_cfg"]["n_queries"], b["head_cfg"]["n_queries"]) == (10, 12)
        assert "head_cfg" not in read_json(trained_dir / "pix" / "manifest.json")["config"]

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
        # at 23 cells over +-0.1, linspace's middle coordinate misses 0.0
        for grid, extent in (("5", "0.5"), ("23", "0.1")):
            out = tmp_path / f"ls{grid}.csv"
            assert run(["losscape", "--model", str(trained_dir / "pix" / "model"),
                        "--grid", grid, "--extent", extent, "--out", str(out)]) == 0
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
    def test_bad_flag_value_exits_2(self, trained_dir, tmp_path, capsys):
        assert run(["deltahyp", "--input", "x.csv", "--metric", "manhattan",
                    "--out", str(tmp_path / "r.json")]) == 2
        capsys.readouterr()
        # checked before the output is opened: one stderr line naming the flag
        model = str(trained_dir / "pix" / "model")
        for argv in (["losscape", "--model", model, "--grid", "0"],
                     ["losscape", "--model", model, "--grid", "2"],
                     ["losscape", "--model", model, "--grid", "-3"],
                     ["losscape", "--model", model, "--extent", "nan"],
                     ["losscape", "--model", model, "--extent", "0"],
                     ["losscape", "--model", model, "--extent", "-1"],
                     ["losscape", "--model", model, "--extent", "1e300"],
                     ["losscape", "--model", model, "--grid", "x"],
                     ["gradfield", "--target", "1e300,0"],
                     ["gradfield", "--target", "1,2,3"],
                     ["gradfield", "--resolution", "1"],
                     ["gradfield", "--grid-extent", "1e300"],
                     ["gradfield", "--grid-extent", "nan"],
                     ["gradfield", "--grid-extent", "inf"]):
            out = tmp_path / "field.csv"
            assert run([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            # argparse's own errors name the flag as "argument --grid:"
            flag = f"argument {argv[-2]}:" if argv[-1] == "x" else f"{argv[-2]} "
            assert len(err) == 1 and err[0].startswith(f"usage error: {flag}")
            assert not out.exists()
        # checked after the model loads, before any output: one stderr line,
        # naming the flag where one is at fault, and no file
        mask_dir = tmp_path / "mask"
        assert run(["train", "--head", "mask", "--height", "16", "--width", "16",
                    "--epochs", "2", "--out-dir", str(mask_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "ls.csv"
        assert run(["losscape", "--model", str(mask_dir / "model"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["usage error: loss landscape supports the pixel and euclid heads"]
        assert not out.exists()
        for flag, value in (("--class-id", "99"), ("--class-id", "-1"),
                            ("--percentile", "0"), ("--percentile", "nan")):
            out_dir = tmp_path / f"unc{flag}{value}"
            assert run(["uncertainty", "--model", model, flag, value,
                        "--out-dir", str(out_dir)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"usage error: {flag} ")
            assert not out_dir.exists()

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
        ("pixel", "--noise", "1e308", "noise_sigma 1e+308 overflows the scene features"),
        ("euclid", "--noise", "1e308", "noise_sigma 1e+308 overflows the scene features"),
        ("mask", "--noise", "1e308", "noise_sigma 1e+308 overflows the scene features"),
        ("pixel", "--cone-k", "5", "anchor 'p0.c0' has spatial norm 1.21678 <= 2K = 10; "
                                   "its cone aperture is undefined"),
        ("pixel", "--exclude-class", "99", "exclude_class 99 is not a class of the scene"),
    ])
    def test_bad_setting_exits_2_naming_it(self, tmp_path, capsys, head, flag, value, message):
        assert run(["train", "--head", head, "--height", "16", "--width", "16", "--epochs", "2",
                    flag, value, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]

    def test_scene_past_256_classes_refused(self, trained_dir, tmp_path, capsys):
        # the label maps are 8-bit PGMs: train refuses such a scene before
        # any file, and a model descriptor of one does not load
        out = tmp_path / "o"
        assert run(["train", "--parents", "16", "--children", "17", "--epochs", "1",
                    "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "usage error: 272 classes exceed the 256 of an 8-bit label map"]
        assert not out.exists()

        def edit(doc):
            doc["extras"]["scene"].update(parents=16, children_per_parent=17)
        model = _edited_model(trained_dir / "pix", tmp_path / "m", edit)
        assert run(["infer", "--model", model, "--out-dir", str(tmp_path / "inf")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("io error:") and "272 classes" in err[0]

    def test_warning_prints_as_one_line(self, tmp_path, capsys):
        assert run(["train", *SMALL_TRAIN, "--epochs", "2", "--exclude-class", "4",
                    "--out-dir", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == (
            "warning: rank deficiency: requested 8 components, keeping 7\n")

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


def _set_extra(path, value):
    def edit(doc):
        owner = doc["extras"]
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
    return edit


class TestModelLoading:
    # the last edit adds a momentum of 0.0, a field TrainConfig does not have
    @pytest.mark.parametrize("edit", [_drop_block("w1"), _drop_block("alpha"), _drop_offset,
                                      _drop_extra("scene"), _drop_extra("head"),
                                      _set_extra(("train", "momentum"), 0.0)])
    def test_malformed_descriptor_exits_3(self, trained_dir, tmp_path, edit, capsys):
        model = _edited_model(trained_dir / "pix", tmp_path / "m", edit)
        assert run(["infer", "--model", model, "--out-dir", str(tmp_path / "inf")]) == 3
        assert run(["losscape", "--model", model, "--grid", "1",
                    "--out", str(tmp_path / "ls.csv")]) == 3
        assert "malformed model descriptor" in capsys.readouterr().err

    def test_unknown_head_exits_3(self, trained_dir, tmp_path, capsys):
        def rename_head(doc):
            doc["extras"]["head"] = "conformal"
        model = _edited_model(trained_dir / "pix", tmp_path / "m", rename_head)
        assert run(["infer", "--model", model, "--out-dir", str(tmp_path / "inf")]) == 3
        assert "unknown head 'conformal'" in capsys.readouterr().err

    def test_loaded_record_is_the_trained_head(self, trained_dir):
        scene, res = load_model(str(trained_dir / "pix" / "model"))
        assert (res.head, res.trace, res.exclude_class, res.head_cfg) == ("pixel", {}, None, None)
        assert tuple(res.params) == ("w1", "b1", "w2", "b2", "alpha")
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

    def test_block_listed_twice_exits_3(self, trained_dir, tmp_path, capsys):
        # a second b2 entry over the blob's first values, which would win
        def list_b2_twice(doc):
            b2 = next(b for b in doc["blocks"] if b["name"] == "b2")
            doc["blocks"].append({**b2, "offset": 0})
        model = _edited_model(trained_dir / "pix", tmp_path / "m", list_b2_twice)
        assert run(["infer", "--model", model, "--out-dir", str(tmp_path / "inf")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("io error:") and "'b2'" in err[0], err
        assert not (tmp_path / "inf").exists()

    def test_overlapping_blocks_exit_3(self, trained_dir, tmp_path, capsys):
        # b2 moved one value back, over the last value of b1, the block before it
        def overlap_b2(doc):
            next(b for b in doc["blocks"] if b["name"] == "b2")["offset"] -= 1
        model = _edited_model(trained_dir / "pix", tmp_path / "m", overlap_b2)
        assert run(["infer", "--model", model, "--out-dir", str(tmp_path / "inf")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("io error:") and "'b2'" in err[0], err
        assert not (tmp_path / "inf").exists()


def _poisoned_model(src_dir, dst_dir, name, value):
    """Copy the model under ``src_dir`` with the first entry of block
    ``name`` set to ``value`` in its blob."""
    doc = read_json(src_dir / "model.json")
    offset = next(b["offset"] for b in doc["blocks"] if b["name"] == name)
    raw = np.fromfile(src_dir / "model.bin", dtype="<f8")
    raw[offset] = value
    dst_dir.mkdir()
    write_json(dst_dir / "model.json", doc)
    raw.tofile(dst_dir / "model.bin")
    return str(dst_dir / "model")


class TestModelBlockValues:
    """A block of the wrong shape or with a non-finite entry exits 3 with
    one stderr line from every command that reads a model."""

    COMMANDS = {
        "infer": ["infer", "--out-dir", "{out}"],
        "uncertainty": ["uncertainty", "--out-dir", "{out}"],
        "losscape": ["losscape", "--grid", "3", "--out", "{out}/ls.csv"],
    }

    def assert_exits_3(self, model, command, tmp_path, capsys, message):
        argv = [a.format(out=tmp_path / "out") for a in self.COMMANDS[command]]
        assert run([argv[0], "--model", model, *argv[1:]]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("io error:") and message in err[0], err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["infer", "uncertainty", "losscape"])
    def test_nan_in_pixel_weights_exits_3(self, trained_dir, tmp_path, command, capsys):
        model = _poisoned_model(trained_dir / "pix", tmp_path / "m", "w1", np.nan)
        self.assert_exits_3(model, command, tmp_path, capsys, "block w1 is not finite")

    @pytest.mark.parametrize("name, value", [("w2", np.inf), ("no_object_bias", np.nan),
                                             ("class_tangents", -np.inf)])
    def test_non_finite_mask_block_exits_3(self, mask_k_dir, tmp_path, name, value, capsys):
        model = _poisoned_model(mask_k_dir, tmp_path / "m", name, value)
        self.assert_exits_3(model, "infer", tmp_path, capsys, f"block {name} is not finite")

    @pytest.mark.parametrize("command", ["infer", "uncertainty", "losscape"])
    def test_alpha_of_another_shape_exits_3(self, trained_dir, tmp_path, command, capsys):
        def reshape_alpha(doc):
            next(b for b in doc["blocks"] if b["name"] == "alpha")["shape"] = [1, 1]
        model = _edited_model(trained_dir / "pix", tmp_path / "m", reshape_alpha)
        self.assert_exits_3(model, command, tmp_path, capsys, "block alpha has shape (1, 1)")


# the settings that became maskhead constants, at the constants' values
RETIRED_HEAD_CFG = {
    "w_d": 1.0, "b_d": 1.0, "s_d": 0.1, "b_a": 0.17, "gamma": 2.0, "lambda_cls": 1.0,
    "lambda_focal": 20.0, "lambda_dice": 1.0, "no_object_weight": 0.1, "class_lr_scale": 100.0,
}


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
        v = st.encoder_forward(res.params, scene.features).reshape(-1, res.bank.d)
        state = mh._forward_state(v, res.params, res.protos, res.head_cfg)
        logits = mh.class_query_logits(res.protos, res.params)
        assert np.array_equal(logits, state["full_logits"][:, :-1])

    # MaskHeadConfig has n_queries and s_a only: a K, or a setting that is a
    # maskhead constant, is malformed even at the constant's value
    @pytest.mark.parametrize("key, value", [("w_d", 0.7), ("class_lr_scale", 10.0),
                                            ("gamma", None), ("n_queries", 3), ("K", 0.1),
                                            *RETIRED_HEAD_CFG.items()])
    def test_head_setting_that_disagrees_exits_3(self, mask_k_dir, tmp_path, key, value, capsys):
        def edit(doc):
            doc["extras"]["head_cfg"][key] = value
        model = _edited_model(mask_k_dir, tmp_path / "m", edit)
        assert run(["infer", "--model", model, "--out-dir", str(tmp_path / "inf")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("io error:")


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
        (("scene", "noise_sigma"), 1e308),
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
        # the mask head diverges through a non-finite matching cost; numpy's
        # overflow warnings on the way must not reach stderr either.  With
        # one epoch, the post-training evaluation is the step that diverges.
        for head, lr, epochs in (("euclid", "1e9", "20"), ("mask", "1e300", "20"),
                                 ("pixel", "1e300", "1"), ("euclid", "1e300", "1"),
                                 ("mask", "1e300", "1")):
            out = tmp_path / f"{head}-{epochs}"
            assert run(["train", "--head", head, *SMALL_TRAIN, "--lr", lr, "--epochs", epochs,
                        "--out-dir", str(out)]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert err[0].startswith("training diverged:") and "at step" in err[0]
            manifest = read_json(out / "manifest.json")
            assert manifest["diverged_at_step"] == int(err[0].rsplit(" ", 1)[1])
            if epochs == "1":
                assert manifest["diverged_at_step"] == 1
            assert manifest["command"] == f"train --head {head}"
            assert manifest["config"]["train"]["lr"] == float(lr)
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


# every flag of a command is drawn with each of these values
FLAG_VALUES = ("0", "-1", "1", "3", "1e-300", "1e300", "nan", "inf", "-inf", "x")
_COMMANDS = next(a for a in build_parser()._actions if a.dest == "command").choices
# (run of CONTRACT_RUNS, one flag of its command, one value of the pool)
CONTRACT_CASES = [(name, action.option_strings[0], value)
                  for name, argv in sorted(CONTRACT_RUNS.items())
                  for action in _COMMANDS[argv[0]]._actions if action.dest != "help"
                  for value in FLAG_VALUES]


def _assert_finite(path):
    """Every number of a JSON report or a CSV output (its ``#`` line and
    column names skipped) is finite."""
    text = path.read_text()
    if text.startswith("{"):
        # json writes a non-finite float as NaN, Infinity or -Infinity
        json.loads(text, parse_constant=lambda token: pytest.fail(f"{path} holds {token}"))
        return
    lines = text.splitlines()
    if lines[0].startswith("# lorentzseg/"):
        lines = lines[2:]
    assert np.isfinite(np.array([line.split(",") for line in lines], dtype=float)).all(), path


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    write_embedding_csv(d / "e.csv", np.random.default_rng(131).normal(size=(50, 3)))
    return d


class TestCliContract:
    """One flag of a command set to a value of a fixed pool: the run keeps
    the exit-code contract of the CLI."""

    @pytest.mark.parametrize("case", CONTRACT_CASES,
                             ids=[f"{name}{flag}={value}" for name, flag, value in CONTRACT_CASES])
    def test_any_flag_value_keeps_exit_contract(self, trained_dir, mask_k_dir, contract_dir, case):
        name, flag, value = case
        paths = {"pix": trained_dir / "pix" / "model", "mask": mask_k_dir / "model",
                 "csv": contract_dir / "e.csv"}
        argv = [arg.format(**paths) for arg in CONTRACT_RUNS[name]]
        short = ["--epochs", "2"] if argv[0] == "train" else []
        # the drawn flag comes last, so it wins over the run's own value
        argv = [*argv, "run", *short, flag, value]
        stderr, here = io.StringIO(), os.getcwd()
        with tempfile.TemporaryDirectory(dir=contract_dir) as tmp:
            # a drawn output path is relative: it lands in the run's directory
            os.chdir(tmp)
            try:
                with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                    code = run(argv)
            finally:
                os.chdir(here)
            lines = stderr.getvalue().splitlines()
            made = sorted(Path(tmp).rglob("*"))
            files = [p for p in made if p.is_file()]
            assert code in (0, 1, 2, 3) and "Traceback" not in stderr.getvalue(), lines
            if code in (2, 3):
                assert len(lines) == 1 and made == [], (lines, made)
            elif code == 1 and argv[0] == "train":
                assert [p.name for p in files] == ["manifest.json"]
            elif code == 0:
                for path in files:
                    if path.suffix not in (".pgm", ".bin"):
                        _assert_finite(path)


# each command but train with every flag other than its output flag off its
# default; {pix} is a trained pixel model and {csv} an embedding CSV
EVERY_FLAG = {
    "deltahyp": ["--input", "{csv}", "--metric", "lorentz", "--batch-size", "20",
                 "--batches", "3", "--seed", "7"],
    "gradcheck": ["--samples", "20", "--seed", "3"],
    "gradfield": ["--grid-extent", "1.2", "--resolution", "5", "--target", "0.5,0.3"],
    "infer": ["--model", "{pix}", "--mode", "angle"],
    "uncertainty": ["--model", "{pix}", "--percentile", "80", "--class-id", "2"],
    "losscape": ["--model", "{pix}", "--directions-seed", "3", "--grid", "3", "--extent", "0.5"],
}

# every scene and training flag of train off its default, each value
# distinct from the others of its config: (flag, value, config, field)
TRAIN_EVERY_FLAG = (
    ("--parents", "2", "scene", "parents"),
    ("--children", "4", "scene", "children_per_parent"),
    ("--height", "12", "scene", "height"),
    ("--width", "10", "scene", "width"),
    ("--noise", "0.05", "scene", "noise_sigma"),
    ("--edge-blend", "0.3", "scene", "edge_blend"),
    ("--descriptor-dim", "6", "scene", "descriptor_dim"),
    ("--scene-seed", "7", "scene", "seed"),
    ("--epochs", "2", "train", "epochs"),
    ("--lr", "0.25", "train", "lr"),
    ("--lambda-w", "0.4", "train", "lambda_w"),
    ("--tau", "0.2", "train", "tau"),
    ("--cone-k", "0.15", "train", "K"),
    ("--seed", "3", "train", "seed"),
    ("--weight-decay", "0.002", "train", "weight_decay"),
    ("--hidden", "5", "train", "hidden"),
    ("--embed-dim", "4", "train", "embed_dim"),
)


class TestManifestConfig:
    """A manifest records every flag of its run."""

    @pytest.mark.parametrize("command", sorted(EVERY_FLAG))
    def test_config_is_the_flags_but_the_output_flag(self, command, trained_dir, contract_dir,
                                                     tmp_path):
        paths = {"pix": trained_dir / "pix" / "model", "csv": contract_dir / "e.csv"}
        argv = [arg.format(**paths) for arg in EVERY_FLAG[command]]
        options = {a.option_strings[0]: a for a in _COMMANDS[command]._actions
                   if a.dest != "help"}
        out_flag = "--out-dir" if "--out-dir" in options else "--out"
        expected = {}
        for flag, value in zip(argv[::2], argv[1::2]):
            action = options[flag]
            expected[action.dest] = action.type(value) if action.type else value
            assert expected[action.dest] != action.default, flag
        assert expected.keys() == {a.dest for flag, a in options.items() if flag != out_flag}
        out = tmp_path / "run"
        assert run([command, *argv, out_flag, str(out)]) == 0
        manifest = read_json(out / "manifest.json" if out_flag == "--out-dir"
                             else Path(f"{out}.manifest.json"))
        assert manifest["command"] == command
        assert manifest["config"] == expected

    def test_train_flags_land_at_their_fields(self, tmp_path):
        options = {a.option_strings[0] for a in _COMMANDS["train"]._actions if a.dest != "help"}
        table = {flag for flag, *_ in TRAIN_EVERY_FLAG}
        assert options - table == {"--head", "--exclude-class", "--queries", "--out-dir"}
        out = tmp_path / "run"
        argv = [arg for flag, value, *_ in TRAIN_EVERY_FLAG for arg in (flag, value)]
        assert run(["train", *argv, "--out-dir", str(out)]) == 0
        expected = {"scene": {}, "train": {}}
        defaults = {"scene": st.SceneConfig(), "train": st.TrainConfig()}
        for flag, value, config, field in TRAIN_EVERY_FLAG:
            expected[config][field] = float(value) if "." in value else int(value)
            assert expected[config][field] != getattr(defaults[config], field), flag
        scene_cfg = st.SceneConfig(**expected["scene"])
        train_cfg = st.TrainConfig(**expected["train"])
        manifest = read_json(out / "manifest.json")
        extras = read_json(out / "model.json")["extras"]
        for config in (manifest["config"], extras):
            assert config == {**expected, "head": "pixel", "exclude_class": None}
        scene, res = load_model(str(out / "model"))
        assert scene.config == scene_cfg and res.config == train_cfg


class TestThreadCountDeterminism:
    def test_outputs_identical_across_blas_and_pool_threads(self, tmp_path):
        src = str(Path(lorentzseg.__file__).resolve().parents[1])
        csv = tmp_path / "e.csv"
        write_embedding_csv(csv, np.random.default_rng(132).normal(size=(512, 4)))
        runs = ("model.bin", "model.json", "trace.csv", "metrics.json")
        outputs = {}
        for blas in ("1", "2"):
            for pool in ("1", "2"):
                out = tmp_path / f"blas{blas}_pool{pool}"
                train = ["train", "--head", "pixel", *SMALL_TRAIN, "--epochs", "60",
                         "--out-dir", str(out)]
                mask = ["train", "--head", "mask", "--height", "16", "--width", "16",
                        "--epochs", "20", "--out-dir", str(out / "mask")]
                delta = ["deltahyp", "--input", str(csv), "--metric", "lorentz",
                         "--batch-size", "256", "--batches", "4", "--out", str(out / "delta.json")]
                # one child runs every command, so the numpy import is paid once
                script = ("import sys; from lorentzseg.cli import main; "
                          f"sys.exit(main({train!r}) or main({mask!r}) or main({delta!r}))")
                env = {**os.environ, "OPENBLAS_NUM_THREADS": blas, "LSK_THREADS": pool,
                       "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
                subprocess.run([sys.executable, "-c", script], env=env, check=True,
                               capture_output=True)
                outputs[blas, pool] = {
                    name: (out / name).read_bytes()
                    for name in (*runs, *(f"mask/{run}" for run in runs), "delta.json")
                }
        assert all(files == outputs["1", "1"] for files in outputs.values())
