"""Benchmark of cbv: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pkg-cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload valuation-batch --seed 1 --trace 1

Workloads (see workloads.py): pkg-cli, valuation-batch, group-structure, or
`all`, which runs each in its own child process, one after the other.

With --trace 0 the run sets the workload up at least SETUP_REPEATS times and
for at least SETUP_SECONDS, each time on a fresh workload object after the
previous one is released, then runs whole rounds of timed operations until
--seconds have passed.  The result carries setup_s, round_s and
peak_rss_mb.  round_s is the length of one round, each operation at its
median over the rounds; setup_s is the median set-up.  Both are seconds at
the nominal host's speed: each operation or set-up is divided by the host's
slowdown while it ran, measured with a kernel that does the same kind of
work (workloads.interpreter_slowdown, workloads.int_matmul_slowdown), which
keeps the host's speed phases out of the figures.  The lines above the
result print both in wall seconds too (round_wall_s, setup_wall_s), and the
workload's own operation metrics in wall seconds and at nominal speed
(nominal=).  The peak resident set is printed after set-up too, to show
which phase sets peak_rss_mb.

With --trace 1 it runs every workload, whichever is named, with spans around
each layer (traced.py), since the per-layer metrics cover every layer.  It
reports those metrics and the tracing overhead of each workload, and writes
the spans to .perfbench-out/.

Every output is checked against references computed in oracle.py.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 1 when any operation failed or returned
a wrong answer.  BLAS threads are pinned to one in this process and its
children only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3  # at least this many set-ups, and at least SETUP_SECONDS of them
SETUP_SECONDS = 2.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("pkg-cli", "valuation-batch", "group-structure")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def load_cbv():
    """Import cbv from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "cbv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cbv sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import cbv

    if Path(cbv.__file__).resolve().parent != (src / "cbv").resolve():
        sys.exit(f"perfbench: imported cbv from {cbv.__file__}, not from {src}")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in PINNED},
        "nproc": os.cpu_count(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def print_metric(name: str, value, unit: str, detail: str = ""):
    print(f"metric {name} = {value!r} {unit}{f' ({detail})' if detail else ''}")


def run_workload(name: str, seed: int, seconds: float, work: Path) -> dict:
    import workloads

    setup_times, setup_nominal = [], []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        wl = None  # release the previous set-up, so no two are held at once
        gc.collect()
        wl = workloads.make(name, ROOT)
        before = workloads.interpreter_slowdown()
        start = perf_counter()
        wl.setup(seed, work / f"setup{len(setup_times)}")
        setup_times.append(perf_counter() - start)
        slowdown = (before + workloads.interpreter_slowdown()) / 2
        setup_nominal.append(setup_times[-1] / slowdown)
    print(f"peak_rss_mb after set-up = {peak_rss_mb()!r} MB")
    tally = workloads.Tally()
    rounds = workloads.run_rounds(wl, seconds, tally)
    for op in wl.gates():
        tally.run(op)

    nominal = workloads.nominal_seconds(rounds)
    for metric, samples in sorted(tally.by_metric.items()):
        agg = workloads.aggregate(metric, samples)
        p_max = "none" if agg["p_max"] is None else f"{agg['p_max'][0]}={agg['p_max'][1]!r}"
        print_metric(metric, agg["value"], agg["unit"],
                     f"n={agg['n']}, p_max={p_max}, nominal={nominal[metric]!r}")
    print_metric("fail_rate", tally.failed / tally.attempted, "fraction",
                 f"{tally.failed}/{tally.attempted}")
    workloads.report_known_defects(wl)
    round_wall, round_nominal = workloads.round_seconds(rounds)
    print_metric("round_wall_s", round_wall, "s", f"n={len(rounds)}")
    print_metric("setup_wall_s", statistics.median(setup_times), "s", f"n={len(setup_times)}")
    metrics = {
        "setup_s": (statistics.median(setup_nominal), "s", len(setup_times)),
        "round_s": (round_nominal, "s", len(rounds)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    for metric, (value, unit, n) in metrics.items():
        print_metric(metric, value, unit, f"n={n}")
    return finish(tally, {k: (v, u) for k, (v, u, _) in metrics.items()})


def run_traced(seed: int, seconds: float, work: Path) -> dict:
    import traced

    run = traced.TracedRun(ROOT, seed, seconds, work)
    metrics = run.run()
    OUT.mkdir(exist_ok=True)
    run.recorder.dump(OUT / f"spans-seed{seed}.jsonl")
    moves = {m: (e2e, wl) for m, _, _, _, e2e, wl in traced.TIMED}
    for metric, (value, unit) in sorted(metrics.items()):
        e2e, wl = moves.get(metric, (None, None))
        print_metric(metric, value, unit, f"moves {e2e} on {wl}" if e2e else "")
    return finish(run.tally, metrics)


def finish(tally, metrics: dict) -> dict:
    for error in tally.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own child process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if lines and proc.returncode in (0, 1) else None
        if result is None:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode} without a result")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED)  # before numpy loads BLAS; children inherit it
    load_cbv()
    sys.path.insert(0, str(HERE))
    print("env " + json.dumps(environment(args.seed)))
    if args.workload == "all" and not args.trace:
        result = run_all(args)
    else:
        work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            if args.trace:
                result = run_traced(args.seed, args.seconds, work)
            else:
                result = run_workload(args.workload, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
