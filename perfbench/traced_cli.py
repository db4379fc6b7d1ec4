"""Run one lorentzseg CLI command in-process with its public functions traced.

    python3 perfbench/traced_cli.py METRICS.json SPANS.json CLI_ARG...

The spans are kept in memory and written to SPANS.json once the command
has returned.  METRICS.json gets what the benchmark reads from them:
``<span>.s``, ``<span>.self_s`` and ``<span>.calls`` for every wrapped
function (0 for those never called), the counters computed from returned
shapes, and ``hyperbolicity.batch_overlap``.  Summarizing here keeps the
spans out of the benchmark process, whose own peak RSS must stay below
its children's.  The exit code is the command's.  ``src`` must be on
PYTHONPATH.
"""

import json
import sys

from tracing import Tracer, fan_out_share, instrument, summarize

FIELDS = ("s", "self_s", "calls")


def main(argv) -> int:
    metrics_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    wrapped = instrument(tracer)
    from lorentzseg import cli

    code = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    metrics = {f"{name}.{field}": 0 for name in wrapped for field in FIELDS}
    for name, row in summarize(tracer.spans).items():
        metrics.update({f"{name}.{field}": row[field] for field in FIELDS})
    metrics.update(tracer.counters)
    metrics["hyperbolicity.batch_overlap"] = fan_out_share(
        tracer.spans, "hyperbolicity.batched_delta_rel_from_points")
    with open(metrics_path, "w") as fh:
        json.dump(metrics, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
