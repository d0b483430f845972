"""The traced run: spans around each layer's public functions, per-layer metrics.

Spans are recorded from the benchmark's own files.  `instrument` replaces the
public functions at the module attributes other layers call them through
(for example `cbv.cli.load_package` and `cbv.engine.partition`) with wrappers
that open a span, and puts the originals back on exit.  The CLI commands run
in-process through `cbv.cli.main(argv)`, so their spans nest under the
command.  Each span records its name, start, end, parent span and op id;
spans stay in memory and are written out at the end of the run.

A layer metric is the median, over the operations of the named kinds, of the
time each operation spent in the named spans.  That time is self time (the
span's duration minus the part its child spans cover) unless the metric is
marked inclusive.  Counts repeat exactly for a given seed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import cbv
import cbv.cli
import cbv.engine
import cbv.fisher
import cbv.report
import oracle
import workloads

HERE = Path(__file__).resolve().parent
STARTUP_CALLS = 5
# Perimeter sizes (share of the nodes) on which every regime-B method runs;
# one on each side of DIRECT_SOLVER_MAX_SIZE.  They are drawn from their own
# generator seeded with the run's seed, so they do not depend on how many
# rounds fitted in the time.
SOLVER_FRACTIONS = (0.3, 0.8)
SOLVER_METHODS = {"direct": "solve_direct", "neumann": "solve_neumann",
                  "iterative_krylov": "solve_gmres"}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class SpanRecorder:
    """Nested spans, kept in memory; one op id per benchmark operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_kinds: dict[int, str] = {}
        self._stack: list[Span] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, perf_counter(), 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        outer = self._op
        self._op = len(self.op_kinds)
        self.op_kinds[self._op] = kind
        try:
            with self.span(f"op.{kind}"):
                yield
        finally:
            self._op = outer

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def per_op(self, names, kinds, inclusive: bool) -> list[float]:
        """Time each op of the given kinds spent in the named spans."""
        times = self.self_times()
        totals: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.name in names and self.op_kinds.get(span.op) in kinds:
                totals[span.op] += (span.end - span.start) if inclusive else times[span.id]
        return list(totals.values())

    def dump(self, path: Path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = asdict(span)
                record["op_kind"] = self.op_kinds.get(span.op)
                handle.write(json.dumps(record) + "\n")


# (module or class, attribute, span name).  Library code calls the first
# group through these bindings; the benchmark calls the `cbv` ones.
PATCHES = (
    (cbv.cli, "load_package", "report.load_package"),
    (cbv.report, "load_package", "report.load_package"),
    (cbv.report, "sha256_of_file", "report.hash"),
    (cbv.report, "validate_package", "report.validate_package"),
    (cbv.cli, "build_cut_summary", "report.build_cut_summary"),
    (cbv.report.CutSummaryDoc, "to_json_bytes", "report.to_json_bytes"),
    (cbv.cli, "evaluate_for_observer", "engine.evaluate_for_observer"),
    (cbv.fisher, "evaluate_for_observer", "engine.evaluate_for_observer"),
    (cbv.cli, "cross_priced_quad", "fisher.quad"),
    (cbv.cli, "fisher_indices", "fisher.indices"),
    (cbv.engine, "partition", "network.partition"),
    (cbv.engine, "evaluate_regime_a", "engine.regime_a"),
    (cbv.engine, "evaluate_regime_b", "engine.regime_b"),
    (cbv.engine, "estimate_internal_values", "engine.estimate"),
    (cbv.engine, "spectral_radius_bound", "engine.gate"),
    (cbv, "OwnershipNetwork", "network.build"),
    (cbv, "write_package", "report.write_package"),
    (cbv, "evaluate_regime_a", "engine.regime_a"),
    (cbv, "evaluate_regime_b", "engine.regime_b"),
    (cbv, "monte_carlo_band", "robustness.band"),
    (cbv, "regime_b_bound", "robustness.bound"),
    (cbv, "condition_diagnostics", "robustness.condition"),
    (cbv, "threshold_control", "control.threshold"),
    (cbv, "herfindahl_control", "control.herfindahl"),
    (cbv, "attenuated_control", "control.attenuated"),
    (cbv, "select_perimeter", "control.select_perimeter"),
    (cbv, "clear", "clearing.clear"),
    (cbv, "net_boundary_flows", "clearing.net_flows"),
)


@contextmanager
def instrument(recorder: SpanRecorder):
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCHES]
    try:
        for (owner, attr, name), (_, _, fn) in zip(PATCHES, originals):
            setattr(owner, attr, recorder.wrap(name, fn))
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


# (metric, spans, op kinds, inclusive, end-to-end metric it should move, workload)
TIMED = (
    ("report.load_package_s", ("report.load_package",), ("validate", "compute"), False,
     "validate_p50_s compute_p50_s fisher_p50_s", "pkg-cli"),
    ("report.hash_s", ("report.hash",), ("validate", "compute"), False,
     "validate_p50_s compute_p50_s fisher_p50_s", "pkg-cli"),
    ("report.validate_package_s", ("report.validate_package",), ("validate",), False,
     "validate_p50_s", "pkg-cli"),
    ("report.cut_summary_s", ("report.build_cut_summary", "report.to_json_bytes"),
     ("compute",), False, "compute_p50_s", "pkg-cli"),
    ("report.write_package_s", ("report.write_package",), ("write_package",), False,
     "write_package_p50_s", "pkg-cli"),
    ("engine.evaluate_for_observer_s", ("engine.evaluate_for_observer",), ("compute",), True,
     "compute_p50_s fisher_p50_s", "pkg-cli"),
    ("fisher.quad_s", ("fisher.quad", "fisher.indices"), ("fisher",), False,
     "fisher_p50_s", "pkg-cli"),
    ("network.build_s", ("network.build",), ("setup",), False, "setup_s", "valuation-batch"),
    ("network.partition_s", ("network.partition",), ("regime_a", "regime_b"), False,
     "regime_a_per_s regime_b_per_s peak_rss_mb", "valuation-batch"),
    ("engine.regime_a_s", ("engine.regime_a",), ("regime_a",), False,
     "regime_a_per_s", "valuation-batch"),
    ("engine.gate_s", ("engine.gate",), ("regime_b",), False, "regime_b_per_s",
     "valuation-batch"),
    ("engine.solve_direct_s", ("engine.estimate",), ("solve_direct",), False,
     "regime_b_per_s", "valuation-batch"),
    ("engine.solve_neumann_s", ("engine.estimate",), ("solve_neumann",), False,
     "regime_b_per_s", "valuation-batch"),
    ("engine.solve_gmres_s", ("engine.estimate",), ("solve_gmres",), False,
     "regime_b_per_s", "valuation-batch"),
    ("robustness.band_s", ("robustness.band",), ("band",), True, "band_p50_s",
     "valuation-batch"),
    ("robustness.bound_s", ("robustness.bound",), ("band",), False, "band_p50_s",
     "valuation-batch"),
    ("robustness.condition_s", ("robustness.condition",), ("band",), False, "band_p50_s",
     "valuation-batch"),
    ("control.threshold_s", ("control.threshold",), ("threshold",), False,
     "control_p50_s", "group-structure"),
    ("control.herfindahl_s", ("control.herfindahl",), ("herfindahl",), False,
     "control_p50_s", "group-structure"),
    ("control.herfindahl_prime_s", ("control.herfindahl",), ("herfindahl_prime",), False,
     "control_p50_s", "group-structure"),
    ("control.attenuated_s", ("control.attenuated",), ("attenuated",), False,
     "control_p50_s", "group-structure"),
    ("control.select_perimeter_s", ("control.select_perimeter",), ("select_perimeter",),
     False, "control_p50_s", "group-structure"),
    ("clearing.clear_greatest_s", ("clearing.clear",), ("clear_greatest",), False,
     "clearing_p50_s", "group-structure"),
    ("clearing.clear_least_s", ("clearing.clear",), ("clear_least",), False,
     "clearing_p50_s", "group-structure"),
    ("clearing.net_flows_s", ("clearing.net_flows",), ("net_flows",), False,
     "clearing_p50_s", "group-structure"),
)


class TracedRun:
    """Runs every workload with and without spans; collects per-layer metrics."""

    def __init__(self, root: Path, seed: int, seconds: float, work: Path):
        self.root, self.seed, self.seconds, self.work = root, seed, seconds, work
        self.recorder = SpanRecorder()
        self.tally = workloads.Tally()
        self.outputs: dict[str, list] = defaultdict(list)
        self.metrics: dict[str, tuple[float, str]] = {}

    def run_op(self, op: workloads.Op) -> float:
        def keep(out):
            self.outputs[op.kind].append(out)
            op.check(out)

        with self.recorder.op(op.kind):
            return self.tally.run(dataclasses.replace(op, check=keep))

    def round_pair(self, ops: list[workloads.Op], traced_first: bool) -> float:
        """Seconds the same ops take traced minus untraced."""
        seconds = {}
        for traced in (traced_first, not traced_first):
            if traced:
                with instrument(self.recorder):
                    seconds[traced] = sum(self.run_op(op) for op in ops)
            else:
                seconds[traced] = sum(self.tally.run(op) for op in ops)
        return seconds[True] - seconds[False]

    def workload(self, name: str, budget: float):
        wl = workloads.make(name, self.root, cli=workloads.in_process_cli)
        with instrument(self.recorder), self.recorder.op("setup"):
            wl.setup(self.seed, self.work / name)
        for op in wl.round(0):  # warm-up: first calls pay for imports and cold caches
            self.tally.run(op)
        overheads, start = [], perf_counter()
        while not overheads or perf_counter() - start < budget:
            ops = list(wl.round(1 + len(overheads)))
            overheads.append(self.round_pair(ops, traced_first=len(overheads) % 2 == 1))
        with instrument(self.recorder):
            for op in wl.gates():
                self.tally.run(op)
            extras = {"pkg-cli": self._extra_pkg_cli,
                      "valuation-batch": self._extra_valuation_batch,
                      "group-structure": self._extra_group_structure}
            extras[name](wl)
        self.metrics[f"trace.{name}.overhead_s"] = (statistics.mean(overheads), "s")
        print(f"trace {name}: {len(overheads)} rounds, each run traced and untraced")

    def _extra_pkg_cli(self, wl):
        runner = workloads.SubprocessCli(self.root)
        times = []
        for _ in range(STARTUP_CALLS):
            start = perf_counter()
            code, _ = runner(["--version"])
            times.append(perf_counter() - start)
            self.tally.attempted += 1
            self.tally.failed += code != 0
        self.metrics["cli.startup_s"] = (statistics.median(times), "s")
        self.metrics["report.package_bytes"] = (wl.package_bytes, "bytes")
        workloads.report_known_defects(wl)

    def _extra_valuation_batch(self, wl):
        rng = np.random.default_rng([self.seed, 1])  # a stream of its own
        for fraction in SOLVER_FRACTIONS:
            in_p, w = wl.perimeter(fraction, rng)
            stats = wl.stats_call(in_p, observed=False)()
            for method, kind in SOLVER_METHODS.items():
                cfg = cbv.SolverConfig(method=method, eps=1e-10)
                self.run_op(workloads.Op(
                    kind, None, lambda cfg=cfg: cbv.evaluate_regime_b(stats, cfg),
                    lambda res, m=method, w=w: oracle.check_valuation(
                        f"regime B {m}", res.w, w)))
        iters = {kind: sum(r.solver_log.iterations for r in self.outputs[kind])
                 for kind in ("solve_neumann", "solve_gmres")}
        self.metrics["engine.neumann_iters"] = (iters["solve_neumann"], "count")
        self.metrics["engine.gmres_iters"] = (iters["solve_gmres"], "count")
        band = self.outputs["band"][-1][0]
        self.metrics["robustness.band_probes"] = (band.evaluated + band.excluded, "count")
        self.metrics["robustness.band_excluded"] = (band.excluded, "count")
        self.metrics["engine.solve_direct_default_threads_s"] = (self._default_threads(), "s")

    def _default_threads(self) -> float:
        """Median direct solve in one child whose BLAS threads are not pinned."""
        self.tally.attempted += 1
        proc = subprocess.run(
            [sys.executable, str(HERE / "threads_probe.py"), str(self.seed)],
            env=workloads.cli_env(self.root, pin_threads=False),
            capture_output=True, text=True, timeout=workloads.CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            self.tally.failed += 1
            self.tally.errors.append(f"threads_probe: {proc.stderr.strip()[-200:]}")
            return float("nan")
        return json.loads(proc.stdout.strip().splitlines()[-1])["median_s"]

    def _extra_group_structure(self, wl):
        self.metrics["control.perimeter_size"] = (
            len(self.outputs["select_perimeter"][-1].members), "count")
        self.metrics["clearing.sweeps_greatest"] = (
            self.outputs["clear_greatest"][-1].iterations, "count")
        self.metrics["clearing.sweeps_least"] = (
            self.outputs["clear_least"][-1].iterations, "count")

    def run(self) -> dict[str, tuple[float, str]]:
        names = list(workloads.WORKLOADS)
        for name in names:
            self.workload(name, self.seconds / len(names))
        for metric, spans, kinds, inclusive, _, _ in TIMED:
            samples = self.recorder.per_op(spans, kinds, inclusive)
            if samples:
                self.metrics[metric] = (statistics.median(samples), "s")
            else:
                self.tally.failed += 1
                self.tally.errors.append(f"traced run recorded no span for {metric}")
        return self.metrics
