"""Set-up step timed as setup_s: start an interpreter, import fsdim from the
checkout's src/, and write one workload's seeded inputs.

    python3 perfbench/setup_inputs.py WORKLOAD SEED WORKDIR
"""

import os
import sys

from run import import_program

if __name__ == "__main__":
    import_program()
    import workloads

    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.make_inputs(workload, seed, workdir)
