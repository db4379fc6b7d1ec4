"""The summary of scripts/paired_bench.py, on canned run records."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "paired_bench.py"
spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)

BETTER = {"wall_s": "lower", "work_per_s": "higher"}


def run(wall, work, raw_full, failed=0, attempted=20):
    return {"metrics": {"wall_s": wall, "work_per_s": work},
            "raw": {"raw_full_s": raw_full, "raw_setup_s": 0.5},
            "failed": failed, "attempted": attempted}


def pairs():
    # the change is faster in four of five pairs and equal in one
    walls = [(3.0, 2.5), (3.2, 2.6), (2.8, 2.8), (3.1, 2.4), (3.4, 2.7)]
    return [{"parent": run(p, 100.0 / p, p + 0.1),
             "change": run(c, 100.0 / c, c + 0.1, failed=int(i == 4))}
            for i, (p, c) in enumerate(walls)]


def line_of(lines, prefix):
    (line,) = [line for line in lines if line.startswith(prefix)]
    return line


def test_medians_quartiles_and_wins():
    lines = paired_bench.summarize(pairs(), BETTER)
    assert lines[0] == "5 pairs"
    wall = line_of(lines, "wall_s:")
    # parent walls 2.8 3.0 3.1 3.2 3.4, change 2.4 2.5 2.6 2.7 2.8
    assert "parent 3.1 [3, 3.2]" in wall
    assert "change 2.6 [2.5, 2.7]" in wall
    assert "change won 4 of 5" in wall  # a tie is not a win
    assert "|median difference| 0.5 vs parent quartile spread 0.2" in wall
    # higher is better for a rate: the same pairs win
    assert "change won 4 of 5" in line_of(lines, "work_per_s:")


def test_raw_medians_and_failed_operations():
    lines = paired_bench.summarize(pairs(), BETTER)
    assert line_of(lines, "parent raw") == (
        "parent raw medians: raw_full_s=3.2 raw_setup_s=0.5  failed 0 of 100 operations")
    assert line_of(lines, "change raw") == (
        "change raw medians: raw_full_s=2.7 raw_setup_s=0.5  failed 1 of 100 operations")


def test_quartiles_of_one_value():
    assert paired_bench.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert paired_bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((2.0, 3.0, 4.0))
