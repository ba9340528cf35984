"""One set-up sample, in a fresh interpreter: import the program and build
a workload's inputs.  Prints the elapsed seconds.

Usage: python3 setup_probe.py SRC_DIR WORKLOAD SEED WORKDIR
"""

import sys
import time

t0 = time.perf_counter()
src, workload, seed, workdir = sys.argv[1:5]
sys.path.insert(0, src)
import freeconv.cli  # noqa: E402,F401  (the import is what is timed)
import workloads  # noqa: E402

workloads.build(workload, int(seed), workdir)
print(time.perf_counter() - t0)
