"""Every output check passes on real CLI output and fails on a perturbed copy."""

import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import inputs
import run
import workloads as wl
from lorentzseg import hyperbolicity as hyp
from lorentzseg.reference import REFERENCE_MASK_TRAIN, REFERENCE_SCENE, REFERENCE_TRAIN

SMALL_SCENE = ["--height", "8", "--width", "8", "--scene-seed", "3", "--seed", "3"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Small real outputs of every workload's command."""
    base = tmp_path_factory.mktemp("out")
    points = inputs.hierarchical_points(5)[::16]
    csv = base / "points.csv"
    inputs.write_points_csv(csv, points)
    commands = {
        "train": ["train", "--head", "pixel", "--epochs", "3", *SMALL_SCENE,
                  "--out-dir", str(base / "train")],
        "losscape": ["losscape", "--model", str(base / "train" / "model"), "--grid", "3",
                     "--out", str(base / "losscape.csv")],
        "delta": ["deltahyp", "--input", str(csv), "--metric", "lorentz", "--batch-size", "32",
                  "--batches", "2", "--seed", "7", "--out", str(base / "delta.json")],
        "gradcheck": ["gradcheck", "--samples", "4", "--out", str(base / "gradcheck.json")],
    }
    env = dict(os.environ, PYTHONPATH=str(run.SRC), **run.thread_env())
    for args in commands.values():
        proc = subprocess.run([sys.executable, "-m", "lorentzseg.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    final_loss = json.loads((base / "train" / "metrics.json").read_text())["final_loss"]
    batch0 = inputs.independent_delta(inputs.first_batch(points, 32, 7))
    return base, final_loss, batch0


def edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def copy(src, dst):
    (shutil.copytree if src.is_dir() else shutil.copy)(src, dst)
    return dst


def test_train_check(outputs, tmp_path):
    base, _, _ = outputs
    good = base / "train"
    assert wl.check_train(good, "pixel", 3, None) == []
    assert wl.check_train(good, "pixel", 4, None)  # wrong epoch count
    metrics = json.loads((good / "metrics.json").read_text())
    assert wl.check_train(good, "pixel", 3, metrics["train_miou_distance"]) == []
    assert wl.check_train(good, "pixel", 3, metrics["train_miou_distance"] + 0.5)

    bad = copy(good, tmp_path / "nan_loss")
    edit_json(bad / "metrics.json", lambda m: m.update(final_loss=math.inf))
    assert wl.check_train(bad, "pixel", 3, None)

    bad = copy(good, tmp_path / "nan_trace")
    lines = (bad / "trace.csv").read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
    (bad / "trace.csv").write_text("\n".join(lines) + "\n")
    assert wl.check_train(bad, "pixel", 3, None)


def test_losscape_check(outputs, tmp_path):
    base, final_loss, _ = outputs
    good = base / "losscape.csv"
    assert wl.check_losscape(good, 3, final_loss) == []
    assert wl.check_losscape(good, 3, final_loss + 1e-9)
    assert wl.check_losscape(good, 5, final_loss)

    lines = good.read_text().splitlines()
    center = next(i for i, line in enumerate(lines) if line.startswith("0.0,0.0,"))
    dropped = tmp_path / "dropped.csv"
    dropped.write_text("\n".join(lines[:center] + lines[center + 1:]) + "\n")
    assert wl.check_losscape(dropped, 3, final_loss)
    nan = tmp_path / "nan.csv"
    nan.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",nan"]) + "\n")
    assert wl.check_losscape(nan, 3, final_loss)


def test_deltahyp_check(outputs, tmp_path):
    base, _, batch0 = outputs
    good = base / "delta.json"
    assert wl.check_deltahyp(good, 2, batch0) == []
    assert wl.check_deltahyp(good, 2, float(np.nextafter(batch0, math.inf)))
    assert wl.check_deltahyp(good, 3, batch0)

    bad = copy(good, tmp_path / "rel.json")
    edit_json(bad, lambda r: r["per_batch"][1].update(delta_rel=1.5))
    assert wl.check_deltahyp(bad, 2, batch0)


def test_independent_delta_equals_the_bruteforce_oracle():
    points = np.random.default_rng(0).normal(size=(24, 3))
    D = hyp.pairwise_distances(points, "lorentz")
    assert inputs.independent_delta(points) == hyp.delta_bruteforce(D, 0)


def test_reference_seed_and_epochs_are_the_protocol_s():
    assert wl.REFERENCE_SEED == REFERENCE_SCENE.seed == REFERENCE_TRAIN.seed
    assert wl.REFERENCE_EPOCHS == REFERENCE_TRAIN.epochs == REFERENCE_MASK_TRAIN.epochs
    assert wl.PIXEL_EPOCHS == REFERENCE_TRAIN.epochs


def test_frozen_miou_is_checked_only_on_a_reference_length_run(tmp_path):
    frozen = {"CLEAN_MIOU_EXACT": 1.0, "MASK_MIOU_EXACT": 1.0}
    checked = []
    for workload in (wl.PixelTrain, wl.MaskTrain):
        w = workload(wl.REFERENCE_SEED, tmp_path, frozen)
        w.out(True).mkdir(exist_ok=True)
        (w.out(True) / "metrics.json").write_text(json.dumps({"final_loss": 0.0}))
        (w.out(True) / "trace.csv").write_text("header\nheader\n")
        # no mIoU in metrics.json: a check that looks for one reports it
        checked.append(any("miou" in problem for problem in w.check(True)))
    assert checked == [True, wl.MASK_EPOCHS == wl.REFERENCE_EPOCHS]


def test_gradcheck_check(outputs, tmp_path):
    base, _, _ = outputs
    good = base / "gradcheck.json"
    assert wl.check_gradcheck(good, 4) == []
    assert wl.check_gradcheck(good, 5)
    for field, value in (("max_rel_error", 2e-5), ("sign_agreement_rate", 0.999)):
        bad = copy(good, tmp_path / f"{field}.json")
        edit_json(bad, lambda r: r.update({field: value}))
        assert wl.check_gradcheck(bad, 4)


def test_digest_ignores_only_the_wall_clock(outputs, tmp_path):
    base, _, _ = outputs
    run_dir = copy(base / "train", tmp_path / "train")
    first = wl.digest(run_dir)
    edit_json(run_dir / "manifest.json", lambda m: m.update(wall_clock_s=123.0))
    assert wl.digest(run_dir) == first
    edit_json(run_dir / "manifest.json", lambda m: m.update(clamp_events=-1))
    assert wl.digest(run_dir) != first


def test_failed_exit_code_is_a_problem(tmp_path):
    runner = run.Runner(tmp_path)
    op = runner.cli(["train", "--epochs", "-1", "--out-dir", str(tmp_path / "x")],
                    "full", None, lambda: [])
    assert any("exit code 2" in problem for problem in op.problems)


def test_a_repeat_with_another_digest_fails(tmp_path, monkeypatch):
    runner = run.Runner(tmp_path)
    out = tmp_path / "out"
    outputs = iter([b"same", b"same", b"different"])

    def fake_spawn(argv, kind, probe=False):
        out.mkdir(exist_ok=True)
        (out / "result.bin").write_bytes(next(outputs))
        op = run.Op(kind, 1.0, 1.0)
        runner.ops.append(op)
        return op

    monkeypatch.setattr(runner, "spawn", fake_spawn)
    ops = [runner.cli(["gradcheck"], "full", out, lambda: []) for _ in range(3)]
    assert [bool(op.problems) for op in ops] == [False, False, True]



def fake_commands(runner, monkeypatch, walls, probes):
    """Make ``runner.cli`` return ops of the given wall and probe times."""
    samples = iter(zip(walls, probes))

    def fake_cli(argv, kind, out, check, traced=(), probe=False):
        wall, probe_s = next(samples)
        op = run.Op(kind, wall, 50.0, probe_s=probe_s if probe else None)
        runner.ops.append(op)
        return op

    monkeypatch.setattr(runner, "cli", fake_cli)


def test_end_to_end_scales_each_command_by_the_probe_during_it(tmp_path, monkeypatch):
    runner = run.Runner(tmp_path)
    monkeypatch.setattr(run, "PROBE_REFERENCE_S", 1.0)
    # warmup, then setup, full, setup, full
    fake_commands(runner, monkeypatch, [0.6, 0.6, 4.0, 0.3, 2.0], [9.0, 1.5, 2.0, 0.75, 1.0])
    workload = SimpleNamespace(work=8, scaled=True, argv=lambda full: [],
                               out=lambda full: None, check=lambda full: [])
    metrics, raw = run.end_to_end(runner, workload, 0.0)
    assert metrics["setup_s"] == pytest.approx(0.4)
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["work_per_s"] == pytest.approx(8 / 1.6)
    assert metrics["peak_rss_mb"] == 50.0
    assert raw == pytest.approx({"raw_setup_s": 0.45, "raw_full_s": 3.0, "raw_probe_s": 1.25})


def test_end_to_end_leaves_an_unscaled_workload_as_measured(tmp_path, monkeypatch):
    runner = run.Runner(tmp_path)
    fake_commands(runner, monkeypatch, [0.6, 0.5, 4.0, 0.7, 2.0], [1.0] * 5)
    workload = SimpleNamespace(work=2, scaled=False, argv=lambda full: [],
                               out=lambda full: None, check=lambda full: [])
    metrics, raw = run.end_to_end(runner, workload, 0.0)
    assert (metrics["setup_s"], metrics["wall_s"]) == (0.6, 3.0)
    assert metrics["work_per_s"] == pytest.approx(2 / 2.4)
    assert raw == {"raw_setup_s": 0.6, "raw_full_s": 3.0}


def test_spawn_samples_the_host_speed_while_the_child_runs(tmp_path):
    runner = run.Runner(tmp_path)
    op = runner.spawn([sys.executable, "-c", "import time; time.sleep(0.3)"], "probe", probe=True)
    assert 0 < op.probe_s < op.wall_s
    assert runner.spawn([sys.executable, "-c", "pass"], "plain").probe_s is None
