"""Median seconds of a small direct regime-B solve, BLAS threads as inherited.

The traced run starts this script once with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS unset, to record what default BLAS threading costs on small
dense solves.  Usage: python3 perfbench/threads_probe.py SEED (with the
repository's src/ on PYTHONPATH).  Prints one JSON line.
"""

import json
import statistics
import sys
from time import perf_counter

import numpy as np

import cbv
import generate
from workloads import cut_statistics

NODES, PERIMETER, CALLS = 200, 100, 40


def main(seed: int):
    rng = np.random.default_rng(seed)
    net = generate.ownership(NODES, rng)
    stats = cut_statistics(net, generate.perimeter_mask(NODES, PERIMETER, rng))
    cfg = cbv.SolverConfig(method="direct")
    times = []
    for _ in range(CALLS):
        start = perf_counter()
        cbv.evaluate_regime_b(stats, cfg)
        times.append(perf_counter() - start)
    print(json.dumps({"median_s": statistics.median(times), "n": CALLS}))


if __name__ == "__main__":
    main(int(sys.argv[1]))
