"""Write bench/reference.json: the outputs the benchmark checks against.

    python3 bench/make_reference.py [--seeds 12]

Run it at the commit whose outputs define "correct"; the committed file
was generated from the program as of the commit that added the benchmark.
For every workload and plan seed 0 .. seeds-1 it runs the workload's
stages into a fresh store and pins

* ``characterize``: the SHA-256 of the experiment payloads (compared
  exactly; the counts are integers);
* ``evaluate`` and ``markov``: the payloads (floats compared within 1e-9);
* ``fingerprint``: ``payload_fingerprint()`` of the whole store (reported,
  not enforced, because it covers the optimiser stages too).

Repetition i of ``run.py --seed 0`` uses plan seed i, so these are the
plan seeds a run with ``--seed 0`` compares.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def reference_for(wl: run.Workload, plan_seed: int) -> dict:
    store_dir = run.WORK / f"reference-{wl.name}-{plan_seed}"
    shutil.rmtree(store_dir, ignore_errors=True)
    _, harness, plan, store = run.set_up(wl, plan_seed, store_dir)
    entry = {}
    for stage in wl.stages:
        harness.run_plan(plan, store, stages=(stage,))
        pinned = run.reference_entry(stage, store)
        if pinned is not None:
            entry[stage] = pinned
    entry["fingerprint"] = store.payload_fingerprint()
    shutil.rmtree(store_dir, ignore_errors=True)
    return entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=12)
    args = ap.parse_args()
    sys.path.insert(0, str(run.SRC))
    doc = {name: {str(s): reference_for(wl, s) for s in range(args.seeds)}
           for name, wl in run.WORKLOADS.items()}
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
