"""The three benchmark workloads, one per user path of `cbv`.

A workload builds its inputs from a seed (`setup`), then yields rounds of
timed operations (`round`), each paired with a check against the references
in `oracle`.  `gates` yields checks that run once per run, untimed.  Every
operation names the end-to-end metric it feeds (`METRICS`) and its kind,
which the traced run uses to attribute spans.

* pkg-cli: auditors running the CLI on disclosure packages.
* valuation-batch: analysts valuing many perimeters in-process.
* group-structure: control, then perimeter selection, then clearing.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

import cbv
import cbv.cli
import generate
import oracle

CLI_TIMEOUT_S = 120
MIN_ROUNDS = 3

# The end-to-end metrics each workload reports besides setup_s, round_s and
# peak_rss_mb: name -> (unit, aggregate).  "p50" is the median seconds per
# operation, "rate" the operations completed per busy second.
METRICS = {
    "write_package_p50_s": ("s", "p50"),
    "validate_p50_s": ("s", "p50"),
    "compute_p50_s": ("s", "p50"),
    "fisher_p50_s": ("s", "p50"),
    "regime_a_per_s": ("perimeters/s", "rate"),
    "regime_b_per_s": ("perimeters/s", "rate"),
    "band_p50_s": ("s", "p50"),
    "control_p50_s": ("s", "p50"),
    "clearing_p50_s": ("s", "p50"),
}


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------
#
# Shared hosts alternate between phases, minutes long, in which work runs
# slower.  On a 2-vCPU VM the interpreter, memory copies and BLAS slowed by
# up to about 1.6 in those phases, while numpy's integer matmul (threshold
# control) slowed by less and sometimes ran faster.  Each timed operation is
# therefore divided by the current slowdown of a fixed kernel that does the
# same kind of work, timed just before and just after it: its seconds over
# the kernel's seconds on the nominal host.  The result is the operation's
# seconds at the nominal host's speed.

def interpreter_slowdown() -> float:
    """A Python loop and a small dense solve; nominal 5 ms."""
    matrix = np.eye(150) * 4.0 + 1.0 / 150
    start = perf_counter()
    total = 0
    for k in range(100_000):
        total += k
    np.linalg.solve(matrix, matrix[0])
    return (perf_counter() - start) / 0.005


def int_matmul_slowdown() -> float:
    """64 rows of the integer matmul threshold control runs at 800 nodes; nominal 80 ms."""
    direct = np.eye(GroupStructure.n_nodes, dtype=bool)
    start = perf_counter()
    (direct[:64].astype(int) @ direct.astype(int)) > 0
    return (perf_counter() - start) / 0.08


@dataclass
class Op:
    """One operation: `run` is timed, `check` validates its output afterwards.

    `slowdown` is the host-speed kernel that matches the operation's work.
    """

    kind: str
    metric: str | None
    run: Callable[[], object]
    check: Callable[[object], None]
    cleanup: Callable[[], None] | None = None
    slowdown: Callable[[], float] = interpreter_slowdown


# ---------------------------------------------------------------------------
# CLI runners
# ---------------------------------------------------------------------------

def cli_env(root: Path, pin_threads: bool = True) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    if not pin_threads:
        env.pop("OPENBLAS_NUM_THREADS", None)
        env.pop("OMP_NUM_THREADS", None)
    return env


class SubprocessCli:
    """`python -m cbv.cli ARGS` in a child process, one at a time."""

    def __init__(self, root: Path):
        self.env = cli_env(root)

    def __call__(self, argv) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "cbv.cli", *argv], env=self.env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout


def in_process_cli(argv) -> tuple[int, str]:
    """`cbv.cli.main(argv)` with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cbv.cli.main(list(argv))
    return code, out.getvalue()


def _json_output(result, name: str) -> dict:
    code, stdout = result
    oracle.check(code == 0, f"cbv {name} exited {code}")
    return json.loads(stdout)


# ---------------------------------------------------------------------------
# pkg-cli
# ---------------------------------------------------------------------------

def cut_statistics(net: generate.Ownership, in_p: np.ndarray):
    """Share-form statistics for a perimeter, sliced with numpy (no partition)."""
    dense = net.dense()
    p, o = np.flatnonzero(in_p), np.flatnonzero(~in_p)
    return cbv.CutStatistics(
        p_ids=tuple(net.ids[k] for k in p),
        o_ids=tuple(net.ids[k] for k in o),
        b_p=net.b[p],
        v_o=net.v[o],
        o_po=dense[np.ix_(p, o)],
        o_op=dense[np.ix_(o, p)],
        o_pp=dense[np.ix_(p, p)],
    )


class PkgCli:
    """Two regime-B period packages; write, validate, compute and fisher."""

    name = "pkg-cli"
    n_nodes = 1200
    n_perimeter = 600

    def __init__(self, cli):
        self.cli = cli

    def setup(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        net1 = generate.ownership(self.n_nodes, rng)
        in_p = generate.perimeter_mask(self.n_nodes, self.n_perimeter, rng)
        net2 = generate.regrown(net1, rng)
        kappa = float(rng.uniform(1.02, 1.12))
        base = dict(perimeter_ref="P-bench", units="EUR", regime="B",
                    control_rule="IFRS10-control@50")
        self.observers = (
            cbv.Observer(date="2024-12-31", **base),
            cbv.Observer(date="2025-12-31",
                         fx_ppp=cbv.FxPppSpec(scale=kappa, fx_source="ECB-reference"),
                         **base),
        )
        self.stats = (cut_statistics(net1, in_p), cut_statistics(net2, in_p))
        self.work = work
        self.dirs = (work / "period1", work / "period2")
        self.manifests = tuple(
            cbv.write_package(d, s, o).to_yaml_bytes()
            for d, s, o in zip(self.dirs, self.stats, self.observers)
        )
        self.package_bytes = sum(
            f.stat().st_size for d in self.dirs for f in d.iterdir()
        )
        # references: W priced by each period's own observer, and G_F
        cuts = [oracle.reference_cut(n.shares, n.b, n.v, in_p) for n in (net1, net2)]
        self.expected = (cuts[0], tuple(kappa * x for x in cuts[1]))
        self.fx_scales = (1.0, kappa)
        self.fx_units_defects = 0  # compute ops whose cut summary showed the FX-units defect
        self.g_f_reference = oracle.reference_g_f(cuts[0][0], cuts[1][0], 1.0, kappa)
        quad = cbv.cross_priced_quad(*self.stats, *self.observers)
        self.g_f_in_process = cbv.fisher_indices(quad).g_f
        oracle.check_close("in-process G_F", self.g_f_in_process, self.g_f_reference)
        if isinstance(self.cli, SubprocessCli):
            self.cli(["--version"])  # warm the interpreter's files before timing

    def round(self, r: int) -> Iterator[Op]:
        k = r % 2
        fresh = self.work / f"write{r}"
        yield Op(
            "write_package", "write_package_p50_s",
            lambda: cbv.write_package(fresh, self.stats[0], self.observers[0]),
            lambda manifest: oracle.check(
                manifest.to_yaml_bytes() == self.manifests[0],
                "write_package is not byte-identical to the set-up copy"),
            lambda: shutil.rmtree(fresh, ignore_errors=True),
        )
        yield Op("validate", "validate_p50_s",
                 lambda: self.cli(["validate", str(self.dirs[k]), "--format", "json"]),
                 self._check_validate)
        summary = self.work / f"cut_summary{k}.json"
        yield Op("compute", "compute_p50_s",
                 lambda: self.cli(["compute", "--package", str(self.dirs[k]),
                                   "--format", "json", "-o", str(summary)]),
                 lambda out: self._check_compute(out, k, summary))
        yield Op("fisher", "fisher_p50_s",
                 lambda: self.cli(["fisher", "--prev", str(self.dirs[0]),
                                   "--curr", str(self.dirs[1]), "--format", "json"]),
                 self._check_fisher)

    def _check_validate(self, out):
        findings = _json_output(out, "validate")
        errors = [f for f in findings if f["severity"] == "error"]
        oracle.check(not errors, f"validate reported errors: {errors[:3]}")

    def _check_compute(self, out, k: int, summary: Path):
        payload = _json_output(out, "compute")
        w, t_out, t_in = self.expected[k]
        oracle.check_valuation("cbv compute", payload["consolidated_value"], w)
        oracle.check_close("cbv compute T_out", payload["T_out"], t_out)
        oracle.check_close("cbv compute T_in", payload["T_in"], t_in)
        if oracle.check_cut_summary(summary, t_out, t_in, self.fx_scales[k]):
            self.fx_units_defects += 1

    def _check_fisher(self, out):
        g_f = _json_output(out, "fisher")["indices"]["G_F"]
        oracle.check_close("cbv fisher G_F vs in-process", g_f, self.g_f_in_process)
        oracle.check_close("cbv fisher G_F vs reference", g_f, self.g_f_reference)

    def gates(self) -> Iterator[Op]:
        tampered = self.work / "tampered"

        def run():
            shutil.copytree(self.dirs[0], tampered)
            oracle.tamper(tampered)
            return (self.cli(["validate", str(tampered)])[0],
                    self.cli(["compute", "--package", str(tampered),
                              "-o", str(self.work / "tampered.json")])[0])

        yield Op("tamper", None, run, lambda codes: oracle.check_tamper_exits(*codes),
                 lambda: shutil.rmtree(tampered, ignore_errors=True))


# ---------------------------------------------------------------------------
# valuation-batch
# ---------------------------------------------------------------------------

class ValuationBatch:
    """Many perimeters of one 3000-node network, valued in regimes A and B."""

    name = "valuation-batch"
    n_nodes = 3000
    # |P| as a share of the nodes; one perimeter of each size per round.  The
    # range straddles DIRECT_SOLVER_MAX_SIZE, so `auto` takes both branches.
    fractions = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    band_size = 200
    band_draws = 100
    band_noise = 0.02

    def setup(self, seed: int, work: Path):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.net = generate.ownership(self.n_nodes, self.rng)
        self.network = cbv.OwnershipNetwork(self.net.ids, self.net.dense())
        self.b = dict(zip(self.net.ids, self.net.b.tolist()))
        self.v = dict(zip(self.net.ids, self.net.v.tolist()))
        in_band = generate.perimeter_mask(self.n_nodes, self.band_size, self.rng)
        self.band_stats = self.stats_call(in_band, observed=False)()
        self.band_w = oracle.reference_cut(self.net.shares, self.net.b, self.net.v, in_band)[0]

    def stats_call(self, in_p: np.ndarray, observed: bool):
        """A call of `CutStatistics.from_network` with v_P observed (A) or not (B)."""
        perimeter = cbv.Perimeter(self.net.ids[k] for k in np.flatnonzero(in_p))
        values = self.v if observed else {
            self.net.ids[k]: self.net.v[k] for k in np.flatnonzero(~in_p)}
        return lambda: cbv.CutStatistics.from_network(self.network, perimeter, self.b, values)

    def perimeter(self, fraction: float, rng) -> tuple[np.ndarray, float]:
        in_p = generate.perimeter_mask(self.n_nodes, round(fraction * self.n_nodes), rng)
        return in_p, oracle.reference_cut(self.net.shares, self.net.b, self.net.v, in_p)[0]

    def round(self, r: int) -> Iterator[Op]:
        for fraction in self.fractions:
            in_p, w = self.perimeter(fraction, self.rng)
            stats_a = self.stats_call(in_p, observed=True)
            stats_b = self.stats_call(in_p, observed=False)
            yield Op("regime_a", "regime_a_per_s",
                     lambda call=stats_a: cbv.evaluate_regime_a(call()),
                     lambda res, w=w: oracle.check_valuation("regime A", res.w, w))
            yield Op("regime_b", "regime_b_per_s",
                     lambda call=stats_b: cbv.evaluate_regime_b(call()),
                     lambda res, w=w: oracle.check_valuation("regime B auto", res.w, w))
        yield Op("band", "band_p50_s", self.uncertainty_report, self._check_band)

    def uncertainty_report(self):
        stats = self.band_stats
        band = cbv.monte_carlo_band(stats, noise=self.band_noise,
                                    draws=self.band_draws, seed=self.seed)
        spec = cbv.PerturbationSpec(p=1.0, eta=1.0, eps=0.01)
        bound = cbv.regime_b_bound(spec, stats)
        conditioning = cbv.condition_diagnostics(stats.o_pp)
        return band, bound, conditioning

    def _check_band(self, report):
        band, bound, conditioning = report
        oracle.check(band.evaluated + band.excluded == self.band_draws + 3,
                     f"band probed {band.evaluated + band.excluded}, want {self.band_draws + 3}")
        tol = oracle.RTOL * abs(self.band_w)
        oracle.check(band.low - tol <= self.band_w <= band.high + tol,
                     f"band [{band.low!r}, {band.high!r}] misses W {self.band_w!r}")
        oracle.check(np.isfinite(bound.bound) and bound.bound > 0,
                     f"regime-B bound {bound.bound!r} is not a positive number")
        oracle.check(np.isfinite(conditioning.kappa2) and conditioning.kappa2 >= 1.0,
                     f"condition number {conditioning.kappa2!r} is not >= 1")

    def gates(self) -> Iterator[Op]:
        def two_cycle():
            stats = cbv.CutStatistics(p_ids=("a", "b"), o_ids=(), b_p=[1.0, 1.0],
                                      o_pp=[[0.0, 1.0], [1.0, 0.0]])
            return lambda: cbv.evaluate_regime_b(stats)

        yield Op("stability_gate", None, two_cycle,
                 lambda call: oracle.check_raises("fully owned 2-cycle", call,
                                                  cbv.StabilityError))


# ---------------------------------------------------------------------------
# group-structure
# ---------------------------------------------------------------------------

class GroupStructure:
    """Control rules and perimeter selection on 800 nodes, then clearing."""

    name = "group-structure"
    n_nodes = 800
    tau = 0.5
    depth = 3
    alpha = 0.6
    n_roots = 3

    def setup(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        net = generate.ownership(self.n_nodes, rng)
        self.ids = net.ids
        self.shares = net.dense()
        self.reach = oracle.reference_threshold(self.shares, self.tau, self.depth)
        # seed the perimeter with the nodes that directly control the most others
        direct = (self.shares >= self.tau).sum(axis=1)
        self.roots = tuple(self.ids[k] for k in np.argsort(-direct, kind="stable")[: self.n_roots])
        self.liab = generate.liabilities(self.n_nodes, rng)
        self.problem = cbv.ClearingProblem(
            node_ids=self.ids, liabilities=self.liab.classes,
            resources=self.liab.resources,
            default_costs=np.full((2, self.n_nodes), self.liab.gamma),
        )

    def round(self, r: int) -> Iterator[Op]:
        state = {}
        s = self.shares

        def threshold():
            state["control"] = cbv.threshold_control(s, self.tau, ids=self.ids, depth=self.depth)
            return state["control"]

        def select():
            state["perimeter"] = cbv.select_perimeter(state["control"], self.roots, self.tau)
            return state["perimeter"]

        yield Op("threshold", "control_p50_s", threshold,
                 lambda c: oracle.check_threshold(c.omega, self.reach),
                 slowdown=int_matmul_slowdown)
        yield Op("herfindahl", "control_p50_s",
                 lambda: cbv.herfindahl_control(s, "B", ids=self.ids),
                 lambda c: oracle.check_herfindahl(s, c.omega, "B"))
        yield Op("herfindahl_prime", "control_p50_s",
                 lambda: cbv.herfindahl_control(s, "B_prime", ids=self.ids),
                 lambda c: oracle.check_herfindahl(s, c.omega, "B_prime"))
        yield Op("attenuated", "control_p50_s",
                 lambda: cbv.attenuated_control(s, self.alpha, ids=self.ids),
                 lambda c: oracle.check_attenuated(s, c.omega, self.alpha))
        yield Op("select_perimeter", "control_p50_s", select,
                 lambda p: oracle.check_selection(state["control"].omega, self.ids,
                                                  p.members, self.roots, self.tau))

        def clear(selection):
            state[selection] = cbv.clear(self.problem, selection=selection)
            return state[selection]

        def check_clear(outcome):
            oracle.check_clearing(self.liab.classes, self.liab.resources,
                                  self.liab.gamma, outcome.payments)
            if outcome.selection == "least":
                oracle.check_ordering(state["greatest"].payments, outcome.payments)

        def net_flows():
            state["flows"] = cbv.net_boundary_flows(
                self.problem, state["greatest"], state["perimeter"])
            return state["flows"]

        def reference_flows():
            in_p = np.isin(np.asarray(self.ids), sorted(state["perimeter"].members))
            x_po, x_op = oracle.reference_net_flows(
                self.liab.classes, self.liab.dues, state["greatest"].payments, in_p)
            return in_p, x_po, x_op

        def check_flows(flows):
            _, x_po, x_op = reference_flows()
            oracle.check_matrix("net flows X_PO", flows.x_po, x_po)
            oracle.check_matrix("net flows X_OP", flows.x_op, x_op)

        def amount_form():
            flows = state["flows"]
            in_p = np.isin(np.asarray(self.ids), flows.p_ids)
            stats = cbv.CutStatistics.from_amounts(
                flows.p_ids, flows.o_ids, self.liab.resources[in_p],
                flows.x_po, flows.x_op, clearing_tag="seniority-clearing")
            return cbv.evaluate_regime_a(stats)

        def check_amounts(result):
            in_p, x_po, x_op = reference_flows()
            w = self.liab.resources[in_p].sum() + x_po.sum() - x_op.sum()
            oracle.check_valuation("amount-form regime A", result.w, w)

        yield Op("clear_greatest", "clearing_p50_s", lambda: clear("greatest"), check_clear)
        yield Op("clear_least", "clearing_p50_s", lambda: clear("least"), check_clear)
        yield Op("net_flows", "clearing_p50_s", net_flows, check_flows)
        yield Op("regime_a_amounts", "clearing_p50_s", amount_form, check_amounts)

    def gates(self) -> Iterator[Op]:
        return iter(())


WORKLOADS = {cls.name: cls for cls in (PkgCli, ValuationBatch, GroupStructure)}


def report_known_defects(wl):
    """Print the known library defects the run's outputs showed (see oracle.check_cut_summary)."""
    seen = getattr(wl, "fx_units_defects", None)
    if seen is not None:
        print(f"known_defect cut_summary_fx_units = {seen} compute ops "
              "(cbv compute with FX scale != 1: P->O edges in package units, totals priced)")


def make(name: str, root: Path, cli=None):
    cls = WORKLOADS[name]
    return cls(cli or SubprocessCli(root)) if cls is PkgCli else cls()


# ---------------------------------------------------------------------------
# Timing loop
# ---------------------------------------------------------------------------

class Tally:
    """Per-metric timings plus attempted/failed counts."""

    def __init__(self):
        self.by_metric = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op: Op) -> float:
        self.attempted += 1
        start = perf_counter()
        elapsed = None
        try:
            out = op.run()
            elapsed = perf_counter() - start
            op.check(out)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            self.failed += 1
            self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            return perf_counter() - start if elapsed is None else elapsed
        finally:
            if op.cleanup is not None:
                op.cleanup()
        if op.metric:
            self.by_metric[op.metric].append(elapsed)
        return elapsed


def summarize(samples) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    out = {"value": statistics.median(samples), "n": n, "p_max": None}
    if n >= 11:
        pct = 100 * (n - 10) // n
        out["p_max"] = (f"p{pct}", float(np.percentile(samples, pct)))
    return out


def aggregate(metric: str, samples) -> dict:
    unit, how = METRICS[metric]
    if how == "rate":
        return {"value": len(samples) / sum(samples), "n": len(samples), "p_max": None,
                "unit": unit}
    return {**summarize(samples), "unit": unit}


def run_rounds(workload, seconds: float,
               tally: Tally) -> list[list[tuple[str | None, float, float]]]:
    """Run whole rounds, at least MIN_ROUNDS, until `seconds` have passed.

    Returns, per round and op, the op's metric, its seconds and the host's
    slowdown: the mean of its kernel's, just before and just after the op.
    """
    rounds = []
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
        row = []
        for op in workload.round(len(rounds)):
            before = op.slowdown()
            elapsed = tally.run(op)
            row.append((op.metric, elapsed, (before + op.slowdown()) / 2))
        rounds.append(row)
    return rounds


def round_seconds(rounds) -> tuple[float, float]:
    """One round's wall seconds, and its seconds at the nominal host's speed.

    Op slots are alike from round to round (same kind and input size); each
    slot contributes its median over the rounds.
    """
    slots = list(zip(*rounds))
    wall = sum(statistics.median(t for _, t, _ in slot) for slot in slots)
    nominal = sum(statistics.median(t / slow for _, t, slow in slot) for slot in slots)
    return wall, nominal


def nominal_seconds(rounds) -> dict[str, float]:
    """Each operation metric aggregated over seconds at the nominal host's speed."""
    samples = defaultdict(list)
    for row in rounds:
        for metric, t, slow in row:
            if metric:
                samples[metric].append(t / slow)
    return {metric: aggregate(metric, ts)["value"] for metric, ts in samples.items()}
