"""Record the reference construction digests and exact counts per seed.

    python3 perfbench/record_reference.py SEED [SEED ...]

Runs one traced iteration of every workload for each seed and merges the
construction digest (construct workloads) and the counts that must repeat
exactly into perfbench/reference.json.  run.py reports a mismatch with these
values as its own field, not as a failure.  Re-record only for a change that
is meant to alter the chosen blocks or the work asked of a layer, and say so.
"""

import json
import os
import shutil
import sys

from run import HERE, RUNS, import_program

if __name__ == "__main__":
    import_program()
    import workloads
    from tracing import EXACT_COUNTS, Tracer, layer_counts

    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="ascii") as fh:
        reference = json.load(fh)
    workdir = os.path.join(RUNS, "record")
    for seed in map(int, sys.argv[1:]):
        for name in workloads.WORKLOADS:
            inputs = workloads.make_inputs(name, seed, os.path.join(workdir, "inputs"))
            tracer = Tracer()
            outcome = workloads.run_iteration(inputs, os.path.join(workdir, "out"), tracer)
            if not outcome.ok:
                sys.exit(f"{name} seed {seed} failed its checks: {outcome.problems}")
            counts = layer_counts(tracer)
            entry = {"counts": {k: counts[k] for k in EXACT_COUNTS}}
            if outcome.digest is not None:
                entry["digest"] = outcome.digest
            reference.setdefault(name, {})[str(seed)] = entry
            print(name, seed, entry, flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
