"""thermbench benchmark runner.

    python3 perfbench/run.py --workload {plant,identify,closed_loop} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; it measures the checkout's own ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the workload's extra results (decision latency, quality figures).  A
manifest (and, when traced, the spans) is written under ``perfbench/out/``.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import bootstrap


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("plant", "identify", "closed_loop"))
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 selects the acceptance seeds 42/777")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure passes for at least this long (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        bootstrap.prepare()
    except bootstrap.MissingSource as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    workdir = harness.OUT / f"work_{args.workload}_{os.getpid()}"
    try:
        record = harness.run(WORKLOADS[args.workload](), args.seed, args.seconds,
                             bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    harness.write_outputs(vars(args), record)
    print(json.dumps({"workload": args.workload, **record["seeds"], **record["extras"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
