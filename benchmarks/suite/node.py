"""Launch one ``repro serve`` process for the suite, optionally traced.

    python benchmarks/suite/node.py --name NAME [--trace-dir DIR] -- SERVE_ARGS...

Everything after ``--`` goes to ``repro.cli.main(["serve", ...])``
unchanged.  With ``--trace-dir`` the server-side layer wrappers
(:func:`spans.install_server`) are installed first; when the server exits
(SIGTERM runs its graceful drain) the kept spans are written to
``DIR/spans-NAME.jsonl`` and the per-layer totals, the queue-wait probe
and the process's CPU time to ``DIR/summary-NAME.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common


def main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--name", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    common.import_repro()
    from repro import cli

    if args.trace_dir is None:
        return cli.main(["serve", *serve_args])

    import numpy as np

    import spans

    rec = spans.SpanRecorder()
    probe = spans.QueueProbe()
    spans.install_server(rec, probe)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        times = os.times()
        rec.dump(os.path.join(args.trace_dir, f"spans-{args.name}.jsonl"))
        summary = {
            "name": args.name,
            "stats": rec.stats,
            "spans_kept": len(rec.spans),
            "spans_dropped": rec.dropped,
            "cpu_s": times.user + times.system,
            "queue_wait_p50_ms": (
                float(np.median(probe.waits_s)) * 1e3
                if probe.waits_s
                else 0.0
            ),
            "applied_elements": probe.applied_elements,
            "nonempty_applies": probe.nonempty_applies,
        }
        path = os.path.join(args.trace_dir, f"summary-{args.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
