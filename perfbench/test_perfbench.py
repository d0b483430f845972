"""Self-tests of the benchmark: inputs are deterministic, and every gate fires.

Run from the repository root: python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil

import numpy as np
import pytest

import cbv
import cbv.report
import generate
import oracle
import traced
import workloads


def small_pkg(tmp_path, name="pkg"):
    wl = workloads.PkgCli(workloads.in_process_cli)
    wl.n_nodes, wl.n_perimeter = 60, 30
    wl.setup(5, tmp_path / name)
    return wl


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_ownership_is_deterministic_per_seed():
    a = generate.ownership(300, np.random.default_rng(7))
    b = generate.ownership(300, np.random.default_rng(7))
    c = generate.ownership(300, np.random.default_rng(8))
    for x, y in ((a.shares.data, b.shares.data), (a.shares.indices, b.shares.indices),
                 (a.b, b.b), (a.v, b.v)):
        assert x.tobytes() == y.tobytes()
    assert a.shares.data.tobytes() != c.shares.data.tobytes()


def test_ownership_shape():
    net = generate.ownership(2000, np.random.default_rng(1))
    dense = net.dense()
    assert np.all(np.diag(dense) == 0.0)
    assert dense.sum(axis=0).max() <= generate.MAX_COLUMN_SUM
    assert 4.5 <= net.shares.nnz / net.n <= 5.5
    np.testing.assert_allclose(net.v - net.shares @ net.v, net.b, rtol=1e-12)
    assert list(net.ids) == sorted(net.ids)


def test_liabilities_are_deterministic_per_seed():
    a = generate.liabilities(100, np.random.default_rng(3))
    b = generate.liabilities(100, np.random.default_rng(3))
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.classes, b.classes))
    assert a.resources.tobytes() == b.resources.tobytes()


def test_packages_are_byte_identical_per_seed(tmp_path):
    first, second = small_pkg(tmp_path, "a"), small_pkg(tmp_path, "b")
    for d1, d2 in zip(first.dirs, second.dirs):
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# ---------------------------------------------------------------------------
# Gates fire on planted wrong answers
# ---------------------------------------------------------------------------

def test_valuation_gate():
    oracle.check_valuation("W", 1234.5 * (1 + 1e-12), 1234.5)
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_valuation("W", 1234.5 * (1 + 1e-6), 1234.5)
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_valuation("W", float("nan"), 1234.5)


def test_reference_cut_matches_regime_a_and_b():
    rng = np.random.default_rng(2)
    net = generate.ownership(200, rng)
    in_p = generate.perimeter_mask(200, 80, rng)
    w = oracle.reference_cut(net.shares, net.b, net.v, in_p)[0]
    stats = dataclasses.replace(workloads.cut_statistics(net, in_p), v_p=net.v[in_p])
    oracle.check_valuation("A", cbv.evaluate_regime_a(stats).w, w)
    for method in ("direct", "neumann", "iterative_krylov"):
        cfg = cbv.SolverConfig(method=method)
        oracle.check_valuation(method, cbv.evaluate_regime_b(stats, cfg).w, w)


def test_cut_summary_gate(tmp_path):
    doc = {"edges_PO": [{"amount": 1.5}, {"amount": 2.5}], "edges_OP": [{"amount": 1.0}],
           "totals": {"T_out": 4.0, "T_in": 1.0}}
    path = tmp_path / "cs.json"
    path.write_text(json.dumps(doc))
    oracle.check_cut_summary(path, 4.0, 1.0)
    doc["edges_PO"].pop()
    path.write_text(json.dumps(doc))
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_cut_summary(path, 4.0, 1.0)


def test_cut_summary_gate_fx_units(tmp_path):
    """Edges in package units pass only with the FX scale that priced the totals."""
    doc = {"edges_PO": [{"amount": 2.0}], "edges_OP": [{"amount": 1.0}],
           "totals": {"T_out": 4.0, "T_in": 1.0}}
    path = tmp_path / "cs.json"
    path.write_text(json.dumps(doc))
    assert oracle.check_cut_summary(path, 4.0, 1.0, fx_scale=2.0)
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_cut_summary(path, 4.0, 1.0)
    doc["edges_OP"][0]["amount"] = 0.5  # O->P edges are priced even with the defect
    path.write_text(json.dumps(doc))
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_cut_summary(path, 4.0, 1.0, fx_scale=2.0)
    doc["edges_OP"][0]["amount"] = 1.0
    doc["edges_PO"][0]["amount"] *= 1 + 1e-6
    path.write_text(json.dumps(doc))
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_cut_summary(path, 4.0, 1.0, fx_scale=2.0)
    doc["edges_PO"][0]["amount"] = 4.0
    path.write_text(json.dumps(doc))
    assert not oracle.check_cut_summary(path, 4.0, 1.0, fx_scale=2.0)


def test_fisher_gate(tmp_path):
    wl = small_pkg(tmp_path)
    out = workloads.in_process_cli(["fisher", "--prev", str(wl.dirs[0]),
                                    "--curr", str(wl.dirs[1]), "--format", "json"])
    wl._check_fisher(out)
    payload = json.loads(out[1])
    payload["indices"]["G_F"] *= 1 + 1e-6
    with pytest.raises(oracle.WrongAnswer):
        wl._check_fisher((0, json.dumps(payload)))


def tampered_exits(wl, tmp_path):
    copy = tmp_path / "tampered"
    shutil.copytree(wl.dirs[0], copy)
    oracle.tamper(copy)
    return (workloads.in_process_cli(["validate", str(copy)])[0],
            workloads.in_process_cli(["compute", "--package", str(copy),
                                      "-o", str(tmp_path / "cs.json")])[0])


def test_tamper_gate_passes_with_hash_check(tmp_path):
    oracle.check_tamper_exits(*tampered_exits(small_pkg(tmp_path), tmp_path))


def test_tamper_gate_fires_when_hash_check_is_skipped(tmp_path, monkeypatch):
    wl = small_pkg(tmp_path)
    recorded = {p.name: cbv.report.sha256_of_file(p) for p in wl.dirs[0].iterdir()}
    monkeypatch.setattr(cbv.report, "sha256_of_file", lambda path: recorded[path.name])
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_tamper_exits(*tampered_exits(wl, tmp_path))


def test_stability_gate():
    gate = next(workloads.ValuationBatch().gates())
    gate.check(gate.run())

    def swallowed():
        try:
            return gate.run()()
        except cbv.StabilityError:
            return None

    with pytest.raises(oracle.WrongAnswer):
        gate.check(swallowed)


@pytest.fixture(scope="module")
def group():
    wl = workloads.GroupStructure()
    wl.n_nodes = 120
    wl.setup(4, None)
    return wl


def test_control_gates(group):
    s = group.shares
    control = cbv.threshold_control(s, group.tau, ids=group.ids, depth=group.depth)
    oracle.check_threshold(control.omega, group.reach)
    flipped = control.omega.copy()
    flipped[0, 1] = 1.0 - flipped[0, 1]
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_threshold(flipped, group.reach)

    for variant in ("B", "B_prime"):
        omega = cbv.herfindahl_control(s, variant).omega
        oracle.check_herfindahl(s, omega, variant)
        with pytest.raises(oracle.WrongAnswer):
            oracle.check_herfindahl(s, omega * (1 + 1e-6), variant)

    omega = cbv.attenuated_control(s, group.alpha).omega
    oracle.check_attenuated(s, omega, group.alpha)
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_attenuated(s, omega * (1 + 1e-6), group.alpha)

    members = cbv.select_perimeter(control, group.roots, group.tau).members
    oracle.check_selection(control.omega, group.ids, members, group.roots, group.tau)
    grown = [m for m in members if m not in group.roots]
    if grown:
        with pytest.raises(oracle.WrongAnswer):
            oracle.check_selection(control.omega, group.ids, members - {grown[0]},
                                   group.roots, group.tau)
    outside = next(n for n in group.ids if n not in members)
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_selection(control.omega, group.ids, members | {outside},
                               group.roots, group.tau)


def test_clearing_gates(group):
    liab = group.liab
    greatest = cbv.clear(group.problem, "greatest").payments
    least = cbv.clear(group.problem, "least").payments
    oracle.check_clearing(liab.classes, liab.resources, liab.gamma, greatest)
    oracle.check_ordering(greatest, least)
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_clearing(liab.classes, liab.resources, liab.gamma, liab.dues * 1.01)
    with pytest.raises(oracle.WrongAnswer):
        oracle.check_clearing(liab.classes, liab.resources, liab.gamma, greatest * 0.999)
    if not np.allclose(greatest, least):
        with pytest.raises(oracle.WrongAnswer):
            oracle.check_ordering(least, greatest)


def test_one_round_of_each_in_process_workload(group):
    tally = workloads.Tally()
    for op in group.round(0):
        tally.run(op)
    batch = workloads.ValuationBatch()
    batch.n_nodes, batch.band_size, batch.band_draws = 150, 20, 5
    batch.setup(3, None)
    for op in [*batch.round(0), *batch.gates()]:
        tally.run(op)
    assert tally.errors == []
    assert tally.failed == 0 and tally.attempted == 9 + 17 + 1


def test_wrong_library_answer_counts_as_failure(group, monkeypatch):
    real = cbv.evaluate_regime_a
    monkeypatch.setattr(cbv, "evaluate_regime_a", lambda stats, *a: real(
        cbv.scale_units(1 + 1e-6, stats), *a))
    tally = workloads.Tally()
    for op in group.round(0):
        tally.run(op)
    assert tally.failed == 1 and "amount-form regime A" in tally.errors[0]


# ---------------------------------------------------------------------------
# Spans and summaries
# ---------------------------------------------------------------------------

def test_self_time_subtracts_children():
    rec = traced.SpanRecorder()
    rec.spans = [traced.Span(0, "op.x", 0.0, 10.0, None, 0),
                 traced.Span(1, "a", 1.0, 7.0, 0, 0),
                 traced.Span(2, "b", 2.0, 3.0, 1, 0),
                 traced.Span(3, "b", 4.0, 6.0, 1, 0)]
    rec.op_kinds = {0: "x"}
    assert rec.self_times() == [4.0, 3.0, 1.0, 2.0]
    assert rec.per_op(("b",), ("x",), inclusive=False) == [3.0]
    assert rec.per_op(("a",), ("x",), inclusive=True) == [6.0]


def test_instrument_nests_library_spans_and_restores():
    rng = np.random.default_rng(1)
    net = generate.ownership(50, rng)
    stats = workloads.cut_statistics(net, generate.perimeter_mask(50, 20, rng))
    rec = traced.SpanRecorder()
    before = cbv.engine.estimate_internal_values
    with traced.instrument(rec), rec.op("k"):
        cbv.evaluate_regime_b(stats)
    assert cbv.engine.estimate_internal_values is before
    names = {s.id: s.name for s in rec.spans}
    chain = [(s.name, names.get(s.parent)) for s in rec.spans]
    assert ("engine.regime_b", "op.k") in chain
    assert ("engine.estimate", "engine.regime_b") in chain
    assert ("engine.gate", "engine.estimate") in chain
    assert ("engine.regime_a", "engine.regime_b") in chain


def test_summary_percentile():
    assert workloads.summarize([1.0, 2.0, 3.0])["p_max"] is None
    out = workloads.summarize(list(map(float, range(40))))
    assert out["n"] == 40 and out["p_max"][0] == "p75"


def test_traced_counts_do_not_depend_on_the_budget(tmp_path, monkeypatch):
    for attr, value in (("n_nodes", 150), ("band_size", 20), ("band_draws", 5)):
        monkeypatch.setattr(workloads.ValuationBatch, attr, value)
    monkeypatch.setattr(traced.TracedRun, "_default_threads", lambda self: 1.0)
    runs = []
    for budget in (0.0, 1.0):
        run = traced.TracedRun(None, 3, budget, tmp_path)
        run.workload("valuation-batch", budget)
        runs.append(run)
    short, long = runs
    assert long.tally.attempted > short.tally.attempted
    assert short.tally.failed == long.tally.failed == 0
    for count in ("engine.neumann_iters", "engine.gmres_iters",
                  "robustness.band_probes", "robustness.band_excluded"):
        assert short.metrics[count] == long.metrics[count]


def test_round_pair_runs_the_same_ops_traced_and_untraced(group):
    run = traced.TracedRun(None, 4, 0.0, None)
    ops = list(group.round(1))
    checks = [op.check for op in ops]
    run.round_pair(ops, traced_first=True)
    assert [op.check for op in ops] == checks
    kinds = [op.kind for op in ops]
    assert [kind for kind in run.outputs for _ in run.outputs[kind]] == kinds
    assert run.tally.attempted == 2 * len(ops) and run.tally.failed == 0


def test_nominal_seconds():
    rounds = [[("control_p50_s", 2.0, 1.0), ("regime_a_per_s", 1.0, 0.5), (None, 9.0, 1.0)],
              [("control_p50_s", 6.0, 2.0), ("regime_a_per_s", 3.0, 1.0), (None, 9.0, 1.0)]]
    assert workloads.nominal_seconds(rounds) == {"control_p50_s": 2.5, "regime_a_per_s": 0.4}
    assert workloads.round_seconds(rounds) == (4.0 + 2.0 + 9.0, 2.5 + 2.5 + 9.0)
