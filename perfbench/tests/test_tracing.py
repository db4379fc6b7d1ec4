"""Self-time arithmetic and span parentage of the benchmark's tracer."""

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from tracing import Tracer, fan_out_share, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def test_self_time_of_nested_and_overlapping_children():
    spans = [
        # id, parent, name, thread, start, end
        (1, None, "outer", 1, 0.0, 10.0),
        (2, 1, "a", 2, 1.0, 4.0),       # a and b ran side by side on two
        (3, 1, "b", 3, 3.0, 6.0),       # threads: the union 1..6 is covered
        (4, 2, "leaf", 2, 2.0, 3.0),
        (5, 1, "late", 1, 9.5, 11.0),   # clipped to the parent's interval
    ]
    got = summarize(spans)
    assert got["outer"]["self_s"] == pytest.approx(10.0 - 5.0 - 0.5)
    assert got["a"]["self_s"] == pytest.approx(3.0 - 1.0)
    assert got["b"]["self_s"] == pytest.approx(3.0)
    assert got["leaf"]["self_s"] == pytest.approx(1.0)
    assert got["outer"]["s"] == pytest.approx(10.0)
    assert got["a"]["calls"] == 1
    assert fan_out_share(spans, "outer") == pytest.approx((3.0 + 3.0 + 1.5) / 10.0)
    assert fan_out_share(spans, "absent") == 0.0


def test_recursive_spans_count_once_in_total_time():
    spans = [
        (1, None, "f", 1, 0.0, 5.0),
        (2, 1, "g", 1, 0.5, 4.5),
        (3, 2, "f", 1, 1.0, 3.0),
    ]
    got = summarize(spans)
    assert got["f"]["s"] == pytest.approx(5.0)
    assert got["f"]["calls"] == 2
    assert got["f"]["self_s"] == pytest.approx((5.0 - 4.0) + 2.0)
    assert got["g"]["self_s"] == pytest.approx(4.0 - 2.0)


def test_worker_threads_keep_their_own_stacks():
    tracer = Tracer()
    both_inside = threading.Barrier(2, timeout=10)

    leaf = tracer.wrap("leaf", lambda: None)

    def inner_fn():
        both_inside.wait()  # both workers hold an open span at once
        leaf()
        both_inside.wait()

    inner = tracer.wrap("inner", inner_fn)

    def outer_fn():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(inner) for _ in range(2)]
            for f in futures:
                f.result(timeout=10)

    tracer.wrap("outer", outer_fn)()

    by_id = {s[0]: s for s in tracer.spans}
    outer = [s for s in tracer.spans if s[2] == "outer"]
    inners = [s for s in tracer.spans if s[2] == "inner"]
    leaves = [s for s in tracer.spans if s[2] == "leaf"]
    assert len(outer) == 1 and len(inners) == 2 and len(leaves) == 2
    assert all(s[1] == outer[0][0] for s in inners)
    assert {s[3] for s in inners} != {outer[0][3]}
    for s in leaves:
        parent = by_id[s[1]]
        assert parent[2] == "inner" and parent[3] == s[3]
    got = summarize(tracer.spans)
    assert got["outer"]["self_s"] <= got["outer"]["s"]
    assert fan_out_share(tracer.spans, "outer") > 0.0


def test_traced_cli_wraps_every_binding(tmp_path):
    metrics_path, spans_path = tmp_path / "layers.json", tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(BENCH, "traced_cli.py"), str(metrics_path), str(spans_path),
           "train", "--head", "pixel", "--epochs", "2", "--height", "8", "--width", "8",
           "--out-dir", str(tmp_path / "run")]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = [tuple(s) for s in json.loads(spans_path.read_text())]
    by_id = {s[0]: s for s in spans}
    roots = [s for s in spans if s[1] is None]
    assert [s[2] for s in roots] == ["cli.main"]

    def ancestors(span):
        while span[1] is not None:
            span = by_id[span[1]]
            yield span[2]

    # segtoy imports batched_exp_lift by name: those calls are traced too
    lifts = [s for s in spans if s[2] == "lorentz.batched_exp_lift"]
    assert any("segtoy.train" in ancestors(s) for s in lifts)

    metrics = json.loads(metrics_path.read_text())
    assert metrics["segtoy.DescriptorBank.fit.calls"] == 1      # a classmethod
    assert metrics["lorentz.batched_exp_lift.calls"] == len(lifts)
    assert metrics["maskhead.train_maskhead.calls"] == 0        # wrapped, not called
    assert metrics["grad.cross.bytes"] == 0
    assert metrics["hyperbolicity.batch_overlap"] == 0.0
