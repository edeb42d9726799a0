"""Record the reference outputs the benchmark checks every pass against.

    python3 perfbench/record.py

For each workload and each of the ``SEED_POOL`` seed pairs, run the set-up
and one pass, and write the outputs to ``perfbench/refs/<workload>.json``.
Run it only at a commit whose outputs are the accepted ones: a later change
that moves an output must explain why, not re-record.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import bootstrap


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    bootstrap.prepare()

    import harness
    from check import TOLERANCE, ref_path
    from tracer import Patches, SolveTimer
    from workloads import SEED_POOL, WORKLOADS, seed_pair

    for name, workload in WORKLOADS.items():
        wl = workload()
        pool = {}
        for i in range(SEED_POOL):
            workdir = harness.OUT / f"record_{name}"
            timer, patches = SolveTimer(), Patches()
            try:
                inputs, setup_out = wl.setup(seed_pair(i), workdir)
                timer.install(patches)
                _, outputs = harness.execute(wl, inputs, timer)
            finally:
                patches.restore()
                shutil.rmtree(workdir, ignore_errors=True)
            if any(out is None for out in outputs.values()):
                print(f"{name}: seed pair {i} failed; not recording", file=sys.stderr)
                return 1
            entry = {"seeds": list(seed_pair(i)), "ops": outputs}
            if setup_out is not None:
                entry["setup"] = setup_out
            pool[str(i)] = entry
            print(f"{name}: seed pair {i} {seed_pair(i)} recorded", file=sys.stderr)
        doc = {"workload": name, "tolerance": TOLERANCE,
               "git_sha": harness.git_sha(), "src_sha256": harness.source_sha256(),
               "pool": pool}
        path = ref_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
