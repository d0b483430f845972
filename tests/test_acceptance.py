"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
every tolerance is pinned here and nowhere else.
"""

import itertools

import numpy as np
import pytest

import cbv
from cbv.errors import PackageError
from cbv.payoffs import cvar_gains
from cbv.report import Edge, Manifest

from conftest import (
    example_stats,
    gauge_rewiring_family,
    herfindahl_index,
    iterate_once,
    observed_regime_a_deltas,
    observed_regime_b_deltas,
    random_regime_stats,
    random_share_matrix,
    renault_stats,
    sample_perturbations,
    truncated_attenuated_series,
)

SEED = 20250808


def _ok(number: int, message: str):
    print(f"criterion {number:02d} PASS: {message}")


def test_criterion_01_worked_example_regime_a():
    result = cbv.evaluate_regime_a(example_stats())
    assert abs(result.base_total - 90.0) <= 1e-10
    assert abs(result.t_out - 9.6) <= 1e-10
    assert abs(result.t_in - 15.04) <= 1e-10
    assert abs(result.w - 84.56) <= 1e-10
    _ok(1, "regime A worked example: W = 84.56 with components (90, 9.6, 15.04)")


def test_criterion_02_worked_example_regime_b():
    stats = example_stats(with_v_p=False)
    expected_v_p = (33.8020, 42.0202, 35.3010)
    for method in ("direct", "neumann"):
        result = cbv.evaluate_regime_b(
            stats, cbv.SolverConfig(method=method, eps=1e-12)
        )
        np.testing.assert_allclose(result.stats.v_p, expected_v_p, atol=1e-4)
        assert abs(result.w - 86.5211) <= 1e-4
    direct = cbv.evaluate_regime_b(stats, cbv.SolverConfig(method="direct")).w
    neumann = cbv.evaluate_regime_b(
        stats, cbv.SolverConfig(method="neumann", eps=1e-13)
    ).w
    assert abs(direct - neumann) <= 1e-9
    _ok(2, "regime B worked example: v_P to 1e-4 and W = 86.5211 on both solvers")


def test_criterion_03_input_scenarios():
    scenarios = (
        ((40.0, 30.0), 50.0, 66.5),
        ((50.0, 25.0), 80.0, 74.5),
    )
    for bases, v_out, expected in scenarios:
        stats = cbv.CutStatistics(
            p_ids=("e1", "e2"), o_ids=("x",),
            b_p=bases, v_o=[v_out], v_p=bases,
            o_po=[[0.10], [0.05]], o_op=[[0.20, 0.10]],
        )
        assert abs(cbv.evaluate_regime_a(stats).w - expected) <= 1e-12
    _ok(3, "input scenarios evaluate to 66.5 and 74.5")


def test_criterion_04_t_account():
    stats = cbv.CutStatistics(
        p_ids=("A", "B"), o_ids=("o1",),
        b_p=[10.0, 5.0], v_o=[100.0], v_p=[50.0, 30.0],
        o_po=[[0.30], [0.0]], o_op=[[0.20, 0.10]],
    )
    assert cbv.evaluate_regime_a(stats).w == 32.0
    _ok(4, "two-entity T-account consolidates to exactly 32")


def test_criterion_05_renault_nissan():
    net = cbv.OwnershipNetwork.from_edges(
        ["RENAULT", "NISSAN"],
        [("RENAULT", "NISSAN", 0.357), ("NISSAN", "RENAULT", 0.15)],
    )
    bases = cbv.implied_bases(net, {"RENAULT": 9.06e9, "NISSAN": 7.044303429e9})
    assert round(bases["RENAULT"]) == 6_545_183_676
    assert round(bases["NISSAN"]) == 5_685_303_429
    result = cbv.evaluate_regime_a(renault_stats())
    assert result.w == 7.701e9
    compact = 9.06e9 * (1.0 - 0.15)
    assert abs(result.w - compact) / compact <= 1e-6
    _ok(5, "Renault-Nissan: implied bases to the unit, W = 7,701,000,000")


def test_criterion_06_case_study_totals():
    country = cbv.CutStatistics.from_amounts(
        ("A", "B", "C"), ("ROW",),
        b_p=[0.0, 0.0, 0.0],
        x_po=[[0.0], [0.0], [0.0]],
        x_op=[[90e9, 70e9, 45e9]],
    )
    res = cbv.evaluate_regime_a(country)
    gross = 250e9
    assert res.t_in == 205e9
    assert cbv.cut_gap(gross, res.t_in) == pytest.approx(45e9 / 205e9, rel=1e-12)

    pyramid = cbv.CutStatistics.from_amounts(
        ("B", "C", "H"), ("ext",),
        b_p=[0.0, 0.0, 0.0],
        x_po=[[5.0], [0.0], [0.0]],
        x_op=[[25.0, 10.0, 15.0]],
    )
    res = cbv.evaluate_regime_a(pyramid)
    assert res.t_in == 50.0
    assert res.t_out == 5.0

    fof = cbv.CutStatistics.from_amounts(
        ("F", "U1", "U2"), ("ext",),
        b_p=[0.0, 0.0, 0.0],
        x_po=[[0.0], [0.0], [0.0]],
        x_op=[[35e9, 15e9, 20e9]],
    )
    res = cbv.evaluate_regime_a(fof)
    assert res.t_in == 70e9
    assert cbv.cut_gap(105e9, res.t_in) == 0.5
    _ok(6, "country 205e9/250e9, pyramid 50/5, fund-of-funds 70e9/105e9")


def test_criterion_07_cut_invariance():
    rng = np.random.default_rng(SEED)
    # regime A: rewiring the internal block can never move W, bit for bit
    for _ in range(5):
        stats = random_regime_stats(rng, n_p=4, n_o=3, observed=True)
        reference = cbv.evaluate_regime_a(stats).w
        for _ in range(20):
            rewired = cbv.CutStatistics(
                p_ids=stats.p_ids, o_ids=stats.o_ids, b_p=stats.b_p,
                v_o=stats.v_o, v_p=stats.v_p, o_po=stats.o_po, o_op=stats.o_op,
                o_pp=random_share_matrix(rng, 4),
            )
            assert cbv.evaluate_regime_a(rewired).w == reference
    # regime B: gauge rewirings preserving the boundary operators
    base, rewired = gauge_rewiring_family(rng, n_draws=100)
    w_base = cbv.evaluate_regime_b(base).w
    for variant in rewired:
        w_new = cbv.evaluate_regime_b(variant).w
        assert abs(w_new - w_base) / abs(w_base) <= 1e-9
    _ok(7, "100 internal rewirings leave W unchanged in both regimes")


def test_criterion_08_scaling_equivariance():
    stats_a = example_stats()
    stats_b = example_stats(with_v_p=False)
    for kappa in (0.5, 1.2, 3.0):
        w_a = cbv.evaluate_regime_a(stats_a).w
        scaled_a = cbv.evaluate_regime_a(cbv.scale_units(kappa, stats_a)).w
        assert abs(scaled_a - kappa * w_a) / abs(kappa * w_a) <= 1e-12
        w_b = cbv.evaluate_regime_b(stats_b).w
        scaled_b = cbv.evaluate_regime_b(cbv.scale_units(kappa, stats_b)).w
        assert abs(scaled_b - kappa * w_b) / abs(kappa * w_b) <= 1e-12
    _ok(8, "units scaling is equivariant for kappa in {0.5, 1.2, 3}")


def test_criterion_09_conditioning_and_bands():
    assert cbv.condition_diagnostics([[0.0, 0.80], [0.80, 0.0]]).kappa2 == (
        pytest.approx(9.0, abs=0.5)
    )
    assert cbv.condition_diagnostics([[0.0, 0.99], [0.99, 0.0]]).kappa2 == (
        pytest.approx(199.0, abs=0.5)
    )

    def stats_for(t):
        return cbv.CutStatistics(
            p_ids=("p1", "p2"), o_ids=(), b_p=[100.0, 50.0],
            o_pp=[[0.0, t], [t, 0.0]],
        )

    for t, total in ((0.80, 750.0), (0.99, 15000.0)):
        v_p, _ = cbv.estimate_internal_values(stats_for(t))
        assert float(v_p.sum()) == pytest.approx(total, abs=1e-3)
    moderate = cbv.monte_carlo_band(
        stats_for(0.80), noise=0.01, draws=500, seed=SEED, metric="internal_total"
    )
    assert moderate.low == pytest.approx(714.2857, abs=1e-3)
    assert moderate.high == pytest.approx(789.4737, abs=1e-3)
    near_unit = cbv.monte_carlo_band(
        stats_for(0.99), noise=0.01, draws=0, seed=SEED, metric="internal_total"
    )
    assert near_unit.low == pytest.approx(7500.0, abs=1e-3)
    assert near_unit.high == pytest.approx(15000.0, abs=1e-3)
    assert near_unit.excluded == 1
    _ok(9, "conditioning 9.0/199.0, totals 750/15000, bands reproduced")


def test_criterion_10_robustness_bound_soundness():
    rng = np.random.default_rng(SEED)
    draws = 1000
    for instance in range(50):
        n_p = int(rng.integers(2, 7))
        n_o = int(rng.integers(1, 5))
        stats = random_regime_stats(rng, n_p=n_p, n_o=n_o)
        eta = float(rng.uniform(0.1, 2.0))
        eps = float(rng.uniform(0.1, 2.0))
        for p in (1.0, 2.0, float("inf")):
            spec = cbv.PerturbationSpec(p=p, eta=eta, eps=eps)
            db = sample_perturbations(rng, n_p, p, eta, draws)
            dv = sample_perturbations(rng, n_o, p, eps, draws)
            bound_a = cbv.boundary_bound(spec, stats.o_po, n_p).bound
            assert np.abs(observed_regime_a_deltas(stats, db, dv)).max() \
                <= bound_a + 1e-12
            bound_b = cbv.regime_b_bound(spec, stats).bound
            assert np.abs(observed_regime_b_deltas(stats, db, dv)).max() \
                <= bound_b + 1e-12
    _ok(10, "50 instances x 1000 perturbations never exceed the bounds")


def test_criterion_11_control_rules():
    shares = np.zeros((4, 4))
    shares[0, 3], shares[1, 3], shares[2, 3] = 0.6, 0.3, 0.1
    ids = ("a", "b", "c", "x")
    option_a = cbv.threshold_control(shares, 0.5, ids=ids)
    np.testing.assert_array_equal(option_a.column("x"), [1.0, 0.0, 0.0, 0.0])
    assert herfindahl_index([0.6, 0.3, 0.1]) == pytest.approx(0.46, abs=1e-3)
    option_b = cbv.herfindahl_control(shares, "B", ids=ids)
    np.testing.assert_allclose(
        option_b.column("x")[:3], [0.276, 0.138, 0.046], atol=1e-3
    )
    rng = np.random.default_rng(SEED)
    alpha = 0.6
    for _ in range(10):
        sample = random_share_matrix(rng, 5)
        # the geometric tail certificate lives in the induced inf-norm
        row_max = np.abs(sample).sum(axis=1).max()
        if alpha * row_max >= 0.9:
            sample = sample * (0.9 / (alpha * row_max))
        closed = cbv.attenuated_control(sample, alpha).omega
        for terms in (3, 6, 12):
            partial = truncated_attenuated_series(sample, alpha, terms)
            norm = np.abs(alpha * sample).sum(axis=1).max()
            tail = norm ** terms / (1.0 - norm)
            assert np.abs(partial - closed).sum(axis=1).max() <= tail + 1e-12
    _ok(11, "options A/B reproduce the reference columns, option C within tail")


def test_criterion_12_fisher_protocol():
    goods = cbv.bilateral_goods_index(
        (10.0, 5.0), (6.667, 5.0), (1.0, 2.0), (1.5, 1.5)
    )
    assert goods.laspeyres == pytest.approx(0.833, abs=5e-4)
    assert goods.paasche == pytest.approx(0.778, abs=5e-4)
    assert goods.fisher == pytest.approx(0.805, abs=5e-4)
    rescaled = cbv.bilateral_goods_index(
        (12.0, 6.0), (1.2 * 6.667, 6.0), (1.0, 2.0), (1.5, 1.5)
    )
    assert rescaled.fisher == pytest.approx(goods.fisher, rel=1e-12)

    stats = example_stats()
    grown = cbv.CutStatistics(
        p_ids=stats.p_ids, o_ids=stats.o_ids, b_p=stats.b_p * 1.25,
        v_o=stats.v_o, v_p=stats.v_p, o_po=stats.o_po, o_op=stats.o_op,
    )
    obs = cbv.Observer(perimeter_ref="P", units="EUR", date="2025-01-01",
                       regime="A", control_rule=cbv.ControlRuleSpec())
    quad = cbv.cross_priced_quad(stats, grown, obs, obs)
    indices = cbv.fisher_indices(quad)
    assert indices.ip_l == 1.0 and indices.ip_p == 1.0 and indices.ip_f == 1.0

    rng = np.random.default_rng(SEED)
    for _ in range(25):
        cells = rng.uniform(5.0, 500.0, size=4)
        idx = cbv.fisher_indices(cbv.FisherQuad(*cells))
        assert idx.g_f == pytest.approx(cells[3] / cells[0], rel=1e-12)
    levels = cbv.chain_link([1.10, 1.122, 0.95])
    assert levels[-1] == pytest.approx(1.10 * 1.122 * 0.95, rel=1e-12)
    _ok(12, "bilateral indices, unit price indices, telescoping and chaining")


def test_criterion_13_clearing_oracle_and_invariance():
    # brute-force lattice oracle on the chain instance
    liabilities = np.zeros((3, 3))
    liabilities[0, 1] = 100.0
    liabilities[1, 2] = 50.0
    problem = cbv.ClearingProblem(
        node_ids=("n1", "n2", "n3"),
        liabilities=(liabilities,),
        resources=np.array([30.0, 0.0, 0.0]),
        default_costs=np.array([[0.0, 0.5, 0.0]]),
    )
    outcome = cbv.clear(problem, eps=1e-12)
    dues = problem.gross_dues
    hits = []
    for p1 in np.arange(0.0, 101.0, 2.5):
        for p2 in np.arange(0.0, 51.0, 2.5):
            candidate = np.array([[p1, p2, 0.0]])
            if np.abs(iterate_once(problem, candidate) - candidate).max() <= 1e-9:
                hits.append(candidate)
    assert len(hits) == 1
    assert np.abs(hits[0] - outcome.payments).max() <= 1e-12

    rng = np.random.default_rng(SEED)
    for _ in range(10):
        n = 4
        mats = rng.uniform(0, 50, size=(n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(mats, 0.0)
        random_problem = cbv.ClearingProblem.single_class(
            tuple(f"n{k}" for k in range(n)), mats,
            rng.uniform(0, 30, size=n), gamma=0.4,
        )
        grid = random_problem.gross_dues.copy()
        for _ in range(60):
            nxt = iterate_once(random_problem, grid)
            assert (nxt <= grid + 1e-9).all()
            grid = nxt
        rising = np.zeros_like(grid)
        for _ in range(60):
            nxt = iterate_once(random_problem, rising)
            assert (nxt >= rising - 1e-9).all()
            rising = nxt

    def cleared_w(internal):
        mats = np.zeros((3, 3))
        mats[0, 2] = 100.0
        mats[0, 1] = internal
        prob = cbv.ClearingProblem.single_class(
            ("p1", "p2", "o"), mats, [200.0, 5.0, 0.0]
        )
        net = cbv.net_boundary_flows(prob, cbv.clear(prob), cbv.Perimeter({"p1", "p2"}))
        stats = cbv.CutStatistics.from_amounts(
            net.p_ids, net.o_ids, b_p=[50.0, 5.0],
            x_po=net.x_po, x_op=net.x_op, clearing_tag="seniority",
        )
        return cbv.evaluate_regime_a(stats).w, net

    w_one, net_one = cleared_w(20.0)
    w_two, net_two = cleared_w(80.0)
    np.testing.assert_allclose(net_one.x_po, net_two.x_po, atol=1e-12)
    np.testing.assert_allclose(net_one.x_op, net_two.x_op, atol=1e-12)
    assert w_one == w_two
    _ok(13, "clearing matches the lattice oracle, iterates monotone, "
            "post-clearing rewiring invariant")


def test_criterion_14_pwa_table_and_waterfall():
    table = {
        (0.05, 0.5): (0.8944, 2), (0.05, 1.0): (0.6325, 2),
        (0.05, 2.0): (0.4472, 3), (0.05, 5.0): (0.2828, 4),
        (0.02, 0.5): (0.5657, 2), (0.02, 1.0): (0.4000, 3),
        (0.02, 2.0): (0.2828, 4), (0.02, 5.0): (0.1789, 6),
        (0.01, 0.5): (0.4000, 3), (0.01, 1.0): (0.2828, 4),
        (0.01, 2.0): (0.2000, 5), (0.01, 5.0): (0.1265, 8),
        (0.005, 0.5): (0.2828, 4), (0.005, 1.0): (0.2000, 5),
        (0.005, 2.0): (0.1414, 8), (0.005, 5.0): (0.0894, 12),
        (0.001, 0.5): (0.1265, 8), (0.001, 1.0): (0.0894, 12),
        (0.001, 2.0): (0.0632, 16), (0.001, 5.0): (0.0400, 25),
    }
    for (eps, gamma), (delta, segments) in table.items():
        result = cbv.delta_max(eps, gamma)
        assert abs(result.delta_max - delta) <= 1e-4
        assert result.segments == segments

    for n_knots in (3, 5, 9, 17):
        knots = np.linspace(0.0, 1.0, n_knots)
        f = cbv.pwa_build([(x, x * x) for x in knots])
        grid = np.linspace(0.0, 1.0, 10001)
        measured = np.abs(f(grid) - grid * grid).max()
        assert measured <= cbv.pwa_error_bound(2.0, f.max_step) + 1e-15

    for inflow, senior, junior in ((60.0, 60.0, 0.0), (90.0, 90.0, 0.0),
                                   (150.0, 100.0, 50.0)):
        split = cbv.eval_waterfall(inflow, 100.0)
        assert split.senior == senior and split.junior == junior
    _ok(14, "all 20 granularity cells, certified x^2 error, exact waterfall")


def test_criterion_15_aggregation():
    states = (
        cbv.State("no_default", 0.95, value=-1.0),
        cbv.State("idiosyncratic", 0.04, value=59.0),
        cbv.State("systemic", 0.01, value=89.0),
    )
    space = cbv.StateSpace(states)
    expectation = cbv.scl_evaluate(space, cbv.AggregatorPolicy("expectation_q"))
    assert abs(expectation.aggregate - 2.30) <= 1e-12
    tail = cbv.scl_evaluate(space, cbv.AggregatorPolicy("cvar", alpha=0.95))
    assert tail.aggregate == -1.0

    rng = np.random.default_rng(SEED)
    policies = (
        cbv.AggregatorPolicy("expectation_q"),
        cbv.AggregatorPolicy("cvar", alpha=0.9),
        cbv.AggregatorPolicy("worst_case", worst_states=("s0", "s1", "s2")),
    )
    weights = (0.2, 0.5, 0.3)

    def space_of(values):
        return cbv.StateSpace(tuple(
            cbv.State(f"s{k}", w, value=v)
            for k, (w, v) in enumerate(zip(weights, values))
        ))

    for policy in policies:
        for _ in range(25):
            values = rng.uniform(-40, 40, size=3)
            bumped = values.copy()
            bumped[rng.integers(0, 3)] += rng.uniform(0.0, 15.0)
            low = cbv.scl_evaluate(space_of(values), policy).aggregate
            high = cbv.scl_evaluate(space_of(bumped), policy).aggregate
            assert high >= low - 1e-12
            shift = float(rng.uniform(-10, 10))
            moved = cbv.scl_evaluate(space_of(values + shift), policy).aggregate
            assert moved == pytest.approx(low + shift, rel=1e-9, abs=1e-9)
    _ok(15, "CDS expectation 2.30 / CVaR -1.00, monotone and translation-safe")


def test_criterion_16_package_integrity(tmp_path):
    stats = example_stats(with_v_p=False)
    observer = cbv.Observer(
        perimeter_ref="P-DEMO", basis="fair_value", units="EUR",
        date="2025-06-30", regime="B",
        control_rule=cbv.ControlRuleSpec(option="A", tau=0.5),
    )
    target = tmp_path / "pkg"
    cbv.write_package(target, stats, observer)
    pkg = cbv.load_package(target)
    np.testing.assert_array_equal(pkg.b_p, stats.b_p)
    np.testing.assert_array_equal(pkg.o_po, stats.o_po)
    np.testing.assert_array_equal(pkg.o_pp, stats.o_pp)
    assert cbv.validate_package(pkg).ok

    blob = bytearray((target / "O_OP.csv").read_bytes())
    blob[len(blob) // 2] ^= 0x01
    (target / "O_OP.csv").write_bytes(bytes(blob))
    report = cbv.validate_directory(target)
    assert report.has_errors and report.findings[0].rule == "hash"

    fresh = tmp_path / "pkg2"
    cbv.write_package(fresh, stats, observer)
    manifest = Manifest.from_yaml_bytes((fresh / "manifest.yaml").read_bytes())
    del manifest.data["data_files"]["O_PP"]
    del manifest.data["hashes"]["O_PP"]
    (fresh / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
    with pytest.raises(PackageError):
        cbv.load_package(fresh)

    doc = cbv.CutSummaryDoc(
        perimeter="P_name_or_id", date="2025-06-30", currency="EUR",
        edges_po=[Edge("a", "o1", "equity", 123.45)],
        edges_op=[Edge("o1", "b", "debt", 67.89)],
        v_p={"a": 100.0, "b": 50.0}, v_o={"o1": 0.0},
        t_out=123.45, t_in=67.89, consolidated_value=55.56,
    )
    reloaded = cbv.CutSummaryDoc.from_json_bytes(doc.to_json_bytes())
    assert reloaded.to_json_bytes() == doc.to_json_bytes()
    assert (reloaded.t_out, reloaded.t_in) == (123.45, 67.89)
    assert reloaded.consolidated_value == 55.56
    computed = cbv.evaluate_regime_a(cbv.CutStatistics.from_amounts(
        ("p",), ("o",), b_p=[0.0], x_po=[[123.45]], x_op=[[67.89]],
    ))
    assert computed.w == pytest.approx(55.56, abs=1e-9)
    _ok(16, "round-trip, SHA-256 tamper detection, regime gate, schema fixture")
