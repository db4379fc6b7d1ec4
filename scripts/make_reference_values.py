"""Regenerate every statistic frozen into tests/reference_values.py.

Run from the repository root:

    python scripts/make_reference_values.py

and paste the printed block into tests/reference_values.py if the
reference protocol changes.  The runs and the statistics are the tables
of tests/reference_runs.py, which the test suite reads too.  Frozen
floors are the measured values rounded down ~5 percent to absorb
BLAS-ordering jitter across platforms; the runs themselves are
deterministic per seed on a given machine.
"""

import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lorentzseg.cli import _print_warning  # noqa: E402
from reference_runs import STATISTICS, ReferenceRuns  # noqa: E402


def main():
    runs = ReferenceRuns()
    print("# measured reference statistics (paste floors into tests/reference_values.py)")
    for key, statistic in STATISTICS.items():
        print(f"{key} = {statistic(runs)!r}")


if __name__ == "__main__":
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning  # one line, as the CLI prints it
        main()
