from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cbv
from cbv.errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    MembershipError,
    RegimeError,
    StabilityError,
)

from conftest import (
    B_P,
    EXAMPLE_BASE,
    EXAMPLE_T_IN_A,
    EXAMPLE_T_OUT,
    EXAMPLE_V_P_B,
    EXAMPLE_W_A,
    EXAMPLE_W_B,
    NEAR_ONE_ROW,
    O_IDS,
    O_OP,
    O_PO,
    P_IDS,
    V_O,
    V_P_OBSERVED,
    dense_iterative_solve,
    example_network,
    example_stats,
    gauge_rewiring_family,
    near_one_circulant,
    partition_identity,
    random_regime_stats,
    random_share_matrix,
    reference_boundary_operators,
    reference_inverse_norm,
    renault_stats,
    sparse_ownership,
    two_cycle_chain_stats,
)

TOL = 1e-12


class TestRegimeA:
    def test_worked_example(self, stats_a):
        result = cbv.evaluate_regime_a(stats_a)
        assert result.base_total == pytest.approx(EXAMPLE_BASE, abs=1e-12)
        assert result.t_out == pytest.approx(EXAMPLE_T_OUT, abs=1e-12)
        assert result.t_in == pytest.approx(EXAMPLE_T_IN_A, abs=1e-12)
        assert result.w == pytest.approx(EXAMPLE_W_A, abs=1e-12)
        assert result.w == result.base_total + result.t_out - result.t_in

    def test_t_account(self):
        stats = cbv.CutStatistics(
            p_ids=("A", "B"), o_ids=("o1",),
            b_p=[10.0, 5.0], v_o=[100.0], v_p=[50.0, 30.0],
            o_po=[[0.30], [0.0]], o_op=[[0.20, 0.10]],
        )
        result = cbv.evaluate_regime_a(stats)
        assert result.w == 32.0
        assert result.t_out == 30.0
        assert result.t_in == 13.0

    def test_no_boundary_edges(self):
        stats = cbv.CutStatistics(
            p_ids=("a", "b"), o_ids=(), b_p=[7.0, 5.0]
        )
        assert cbv.evaluate_regime_a(stats).w == 12.0

    @pytest.mark.parametrize("p_ids", [(), ("a",), ("a", "b")])
    def test_missing_bases_are_refused(self, p_ids):
        # with one node, b_p = None was stored as [nan] and priced W = nan
        with pytest.raises(DimensionError, match="b_p is required"):
            cbv.CutStatistics(p_ids, (), None)

    @pytest.mark.parametrize("fields, message", [
        ({"b_p": [1.0, 2.0]}, r"b_p has shape \(2,\), expected \(3,\)"),
        ({"o_pp": [[0.0]]}, r"o_pp has shape \(1, 1\), expected \(3, 3\)"),
        ({"o_po": None}, "outgoing side needs o_po/v_o or x_po"),
        ({"o_op": None}, "incoming side needs o_op or x_op"),
        ({"v_o": None}, "o_po given without v_o"),
    ], ids=["b_p-shape", "o_pp-shape", "no-outgoing", "no-incoming", "no-v_o"])
    def test_shape_and_side_refusals(self, stats_a, fields, message):
        with pytest.raises(DimensionError, match=message):
            stats_a.replace(**fields)

    def test_missing_v_p_is_regime_error(self, stats_b):
        with pytest.raises(RegimeError):
            cbv.evaluate_regime_a(stats_b)

    def test_internal_block_never_read(self, stats_a, rng):
        # 100 arbitrary rewirings of the internal block: W is bit-identical
        reference = cbv.evaluate_regime_a(stats_a).w
        for _ in range(100):
            rewired = cbv.CutStatistics(
                p_ids=stats_a.p_ids, o_ids=stats_a.o_ids,
                b_p=stats_a.b_p, v_o=stats_a.v_o, v_p=stats_a.v_p,
                o_po=stats_a.o_po, o_op=stats_a.o_op,
                o_pp=random_share_matrix(rng, 3),
            )
            assert cbv.evaluate_regime_a(rewired).w == reference

    def test_threshold_drops_edges(self, stats_a):
        result = cbv.evaluate_regime_a(stats_a, rounding_threshold=2.0)
        # edges priced below 2.0: B->X (1.8) and 0.02*80 (1.6)
        assert result.solver_log.dropped_edges == 2
        assert result.t_out == pytest.approx(3.0 + 3.2, abs=1e-12)

    @pytest.mark.parametrize("tau", [0.0, 1e-8])
    def test_non_finite_value_behind_empty_column_stays_out(self, stats_a, tau):
        # Z (outside) and D (inside, base 0) share no edge with the cut, so
        # their NaN values must not reach W on either pricing path
        stats = cbv.CutStatistics(
            p_ids=stats_a.p_ids + ("D",), o_ids=stats_a.o_ids + ("Z",),
            b_p=[*stats_a.b_p, 0.0], v_o=[*stats_a.v_o, np.nan],
            v_p=[*stats_a.v_p, np.nan],
            o_po=np.pad(stats_a.o_po, ((0, 1), (0, 1))),
            o_op=np.pad(stats_a.o_op, ((0, 1), (0, 1))),
        )
        result = cbv.evaluate_regime_a(stats, rounding_threshold=tau)
        assert result.w == pytest.approx(
            cbv.evaluate_regime_a(stats_a, rounding_threshold=tau).w, rel=TOL)
        assert result.solver_log.dropped_edges == 0

    @pytest.mark.parametrize("tau", [0.0, 1e-8])
    def test_nan_priced_edge_stays_in_at_every_threshold(self, stats_a, tau):
        # X holds a share of the cut, so its NaN value prices an edge: the
        # edge is not "below threshold", it reaches W and the cut summary
        v_o = np.array(stats_a.v_o)
        v_o[0] = np.nan
        stats = cbv.CutStatistics(p_ids=stats_a.p_ids, o_ids=stats_a.o_ids, b_p=stats_a.b_p,
                                  v_o=v_o, v_p=stats_a.v_p, o_po=stats_a.o_po,
                                  o_op=stats_a.o_op)
        result = cbv.evaluate_regime_a(stats, rounding_threshold=tau)
        assert np.isnan(result.w) and np.isnan(result.t_out)
        assert result.solver_log.dropped_edges == 0
        observer = cbv.Observer(perimeter_ref="P", regime="A", date="2025-01-01",
                                control_rule="IFRS10-control@50",
                                tolerances=cbv.Tolerances(rounding_threshold=tau))
        doc = cbv.build_cut_summary(result, observer)
        assert [(e.from_id, e.to_id) for e in doc.edges_po if np.isnan(e.amount)] == [
            ("A", "X"), ("B", "X")]

    def test_caller_arrays_are_copied(self):
        arrays = {"b_p": B_P, "v_o": V_O, "v_p": V_P_OBSERVED, "o_po": O_PO, "o_op": O_OP}
        arrays = {name: np.array(value) for name, value in arrays.items()}
        stats = cbv.CutStatistics(p_ids=P_IDS, o_ids=O_IDS, **arrays)
        derived = stats.with_v_p(arrays["v_p"])
        for array in arrays.values():
            array *= 2.0
        assert cbv.evaluate_regime_a(stats).w == pytest.approx(EXAMPLE_W_A, abs=1e-12)
        assert cbv.evaluate_regime_a(derived).w == pytest.approx(EXAMPLE_W_A, abs=1e-12)

    def test_derived_statistics_share_unchanged_blocks(self, stats_b):
        v_p, _ = cbv.estimate_internal_values(stats_b)
        for derived in (stats_b.with_v_p(v_p), cbv.scale_units(2.0, stats_b)):
            for name in ("o_po", "o_op", "o_pp"):
                assert getattr(derived, name) is getattr(stats_b, name)

    def test_amount_form(self):
        stats = cbv.CutStatistics.from_amounts(
            ("p",), ("o",), b_p=[0.0], x_po=[[123.45]], x_op=[[67.89]]
        )
        result = cbv.evaluate_regime_a(stats)
        assert result.w == pytest.approx(55.56, abs=1e-12)


class TestEstimation:
    def test_worked_example_values(self, stats_b):
        v_p, log = cbv.estimate_internal_values(stats_b)
        np.testing.assert_allclose(v_p, EXAMPLE_V_P_B, atol=1e-4)
        assert log.residual <= 1e-10

    def test_zero_internal_block(self):
        stats = cbv.CutStatistics(
            p_ids=("p",), o_ids=("o",), b_p=[10.0], v_o=[100.0],
            o_po=[[0.5]], o_op=[[0.2]], o_pp=[[0.0]],
        )
        v_p, _ = cbv.estimate_internal_values(stats)
        assert v_p[0] == pytest.approx(60.0, abs=1e-12)

    def test_direct_and_neumann_agree(self, rng):
        for _ in range(5):
            stats = random_regime_stats(rng, n_p=8, n_o=3)
            direct, _ = cbv.estimate_internal_values(
                stats, cbv.SolverConfig(method="direct")
            )
            neumann, log = cbv.estimate_internal_values(
                stats, cbv.SolverConfig(method="neumann", eps=1e-12)
            )
            np.testing.assert_allclose(neumann, direct, atol=1e-9)
            assert log.iterations >= 1

    def test_krylov_agrees(self, rng):
        stats = random_regime_stats(rng, n_p=6, n_o=2)
        direct, _ = cbv.estimate_internal_values(stats)
        krylov, _ = cbv.estimate_internal_values(
            stats, cbv.SolverConfig(method="iterative_krylov", eps=1e-12)
        )
        np.testing.assert_allclose(krylov, direct, atol=1e-9)

    def test_missing_o_pp(self, stats_a):
        stats = cbv.CutStatistics(
            p_ids=stats_a.p_ids, o_ids=stats_a.o_ids, b_p=stats_a.b_p,
            v_o=stats_a.v_o, o_po=stats_a.o_po, o_op=stats_a.o_op,
        )
        with pytest.raises(RegimeError):
            cbv.estimate_internal_values(stats)

    def test_unstable_block_rejected(self):
        stats = cbv.CutStatistics(
            p_ids=("a", "b"), o_ids=(), b_p=[1.0, 1.0],
            o_pp=[[0.0, 1.05], [1.05, 0.0]],
        )
        with pytest.raises(StabilityError):
            cbv.estimate_internal_values(stats)

    def test_singular_block_past_the_gate_is_stability_error(self):
        # the 2-cycle at 1, whose I - O_PP is singular, is refused before any
        # solve, by regime B and by the regime-B bound alike
        cycle = cbv.CutStatistics(
            p_ids=("a", "b"), o_ids=("x",), b_p=[1.0, 1.0], v_o=[1.0],
            o_po=np.zeros((2, 1)), o_op=np.zeros((1, 2)), o_pp=[[0.0, 1.0], [1.0, 0.0]],
        )
        with pytest.raises(StabilityError, match="is unstable"):
            cbv.evaluate_regime_b(cycle)
        for p in (1.0, 2.0, float("inf")):
            with pytest.raises(StabilityError, match="is unstable"):
                cbv.regime_b_bound(cbv.PerturbationSpec(p=p, eta=1.0, eps=1.0), cycle)

    @pytest.mark.parametrize("method", ["auto", "direct", "neumann", "iterative_krylov"])
    def test_refusal_names_o_pp_for_every_method(self, method):
        # the gate runs on O_PP itself, whatever the method
        for share in ("1.05", "1.1"):
            stats = cbv.CutStatistics(
                p_ids=("a", "b"), o_ids=(), b_p=[1.0, 1.0],
                o_pp=[[0.0, float(share)], [float(share), 0.0]],
            )
            with pytest.raises(StabilityError, match=rf"is unstable: rho\(\|O_PP\|\) >= {share}"):
                cbv.evaluate_regime_b(stats, cbv.SolverConfig(method=method))

    @pytest.mark.parametrize("cycle", [1.0, 1.001])
    def test_uncertified_block_is_refused(self, cycle):
        stats = two_cycle_chain_stats(cycle=cycle)
        with pytest.raises(StabilityError, match="no certified bound"):
            cbv.evaluate_regime_b(stats)

    def test_unstable_block_is_refused(self):
        # rho(O_PP) = 1.05: the gate refuses the block itself, and no config
        # reaches a solve
        stats = cbv.CutStatistics(
            p_ids=("a", "b"), o_ids=(), b_p=[1.0, 1.0],
            o_pp=[[0.0, 1.05], [1.05, 0.0]],
        )
        with pytest.raises(StabilityError, match=r"is unstable: rho\(\|O_PP\|\) >= 1\.05"):
            cbv.estimate_internal_values(stats)

    def test_near_unit_self_loop_is_solved(self):
        # rho(O_PP) = 0.999999 < 1 is certified, and v = 1 / (1 - 0.999999)
        stats = cbv.CutStatistics(
            p_ids=("a",), o_ids=(), b_p=[1.0], o_pp=[[0.999999]],
        )
        v_p, log = cbv.estimate_internal_values(stats)
        assert log.rho_bound.certified and log.rho_bound.rho_upper == 0.999999
        assert v_p[0] == pytest.approx(1.0 / (1.0 - 0.999999), rel=1e-9)

    def test_collatz_wielandt_certifies_where_norms_do_not(self):
        # norm bounds sit at 1.2 but the true spectral radius is ~0.775
        stats = cbv.CutStatistics(
            p_ids=("a", "b"), o_ids=(), b_p=[1.0, 1.0],
            o_pp=[[0.0, 1.2], [0.5, 0.0]],
        )
        v_p, log = cbv.estimate_internal_values(stats)
        assert not log.warnings
        assert log.rho_bound.rho_upper < 1.0 <= log.rho_bound.norm_1
        assert log.rho_bound.passes >= 1
        expected = np.linalg.solve(np.eye(2) - np.array(stats.o_pp), [1.0, 1.0])
        np.testing.assert_allclose(v_p, expected, atol=1e-10)

    def test_system_solved_identically_by_both_methods(self, rng):
        # both solvers agree on the system within 10x the solver tolerance
        stats = random_regime_stats(rng, n_p=6, n_o=2)
        eps = 1e-11
        direct, _ = cbv.estimate_internal_values(
            stats, cbv.SolverConfig(method="direct")
        )
        neumann, _ = cbv.estimate_internal_values(
            stats, cbv.SolverConfig(method="neumann", eps=eps)
        )
        assert np.abs(direct - neumann).max() <= 10 * eps

    @pytest.mark.parametrize("case", [200, 1800, 2400, "rectangular", "two-class-inflow"])
    def test_held_edges_multiply_as_csr_does(self, rng, case):
        from scipy.sparse import csr_array

        def sparse(rows, cols):
            return rng.uniform(-1.0, 1.0, (rows, cols)) * (rng.random((rows, cols)) < 3.0 / cols)

        if case == "rectangular":  # an O_PO-like block
            block = sparse(300, 1700)
            held = cbv.network._HeldEdges.of(block)
        elif case == "two-class-inflow":  # clearing's stacking: entry (i, k n + j) is L^k[j, i]
            n = 400
            classes = [np.abs(sparse(n, n)) for _ in range(2)]
            problem = cbv.ClearingProblem(
                node_ids=tuple(f"n{k}" for k in range(n)), liabilities=tuple(classes),
                resources=np.ones(n), default_costs=np.zeros((2, n)))
            block = np.hstack([mat.T for mat in classes])
            held = cbv.clearing._inflow(problem)
        else:
            block = sparse(case, case)
            held = cbv.network._HeldEdges.of(block)
        csr = csr_array(block)
        x = rng.uniform(-1e3, 1e3, block.shape[1])
        assert held.shape == block.shape and held.vals.size == csr.nnz
        # row-major, as CSR stores them; the stacked inflow lists class by
        # class, so it is compared row by row, each row in column order
        if case == "two-class-inflow":
            order = np.argsort(held.rows, kind="stable")
        else:
            order = np.arange(held.rows.size)
        np.testing.assert_array_equal(held.cols[order], csr.indices)
        np.testing.assert_array_equal(held.vals[order], csr.data)
        np.testing.assert_array_equal(np.bincount(held.rows, minlength=block.shape[0]),
                                      np.diff(csr.indptr))
        np.testing.assert_array_equal(held @ x, csr @ x)

    def test_neumann_matches_the_loop_that_formed_i_minus_o_pp(self, rng):
        # reference: a second matvec per iteration, with I - O_PP, only for
        # the residual.  The sweeps multiply with the held edges, which sum
        # each row as a CSR product does, so the iterates and the count are
        # the same; the residual agrees up to rounding of its two formulas.
        # The right-hand side is a held-edge product, so it is formed here as
        # a CSR product, which rounds the same way
        from scipy.sparse import csr_array

        eps = 1e-10
        for n_p in (1, 8, 40):
            stats = random_regime_stats(rng, n_p=n_p, n_o=4)
            v_p, log = cbv.estimate_internal_values(
                stats, cbv.SolverConfig(method="neumann", eps=eps))
            rhs = stats.b_p + csr_array(stats.o_po) @ stats.v_o
            operator = csr_array(stats.o_pp)
            system = np.eye(n_p) - stats.o_pp
            ref = rhs.copy()
            for iteration in range(1, 1001):
                ref = rhs + operator @ ref
                residual = float(np.abs(system @ ref - rhs).max())
                if residual < eps:
                    break
            np.testing.assert_array_equal(v_p, ref)
            assert log.iterations == iteration
            assert log.residual == pytest.approx(
                residual, abs=4 * n_p * np.finfo(float).eps * np.abs(ref).max())

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_iterative_solves_match_the_dense_oracle(self, data):
        # the held-edge operator against the dense matvecs it replaced: the
        # gate's norms as the dense block gives them, the same Neumann count
        # and iterates up to summation order, and GMRES solutions that agree
        # to its atol
        n = data.draw(st.integers(0, 12), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kind = data.draw(st.sampled_from(["nonnegative", "signed", "reducible"]), label="kind")
        rho = data.draw(st.floats(0.0, 0.99), label="rho")
        o_pp = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.5)
        if kind == "signed":
            o_pp *= rng.choice([-1.0, 1.0], (n, n))
        elif kind == "reducible":  # block upper triangular
            o_pp = np.triu(o_pp, k=-(n // 3))
            o_pp[n // 2:, :n // 2] = 0.0
        radius = float(np.abs(np.linalg.eigvals(o_pp)).max()) if n else 0.0
        if radius > 0.0:  # a nilpotent block keeps its entries
            o_pp *= rho / radius
        rhs = rng.uniform(0.0, 100.0, n)
        system = np.eye(n) - o_pp
        # eps far above the rounding floor of v_P, where the two summation
        # orders could stop the sweeps one apart
        eps = 1e-9 * max(1.0, float(np.abs(np.linalg.solve(system, rhs)).max()) if n else 1.0)

        def outcome(solve, *args):
            try:
                return solve(*args)
            except (StabilityError, ConvergenceError) as exc:
                return type(exc)

        def fields(bound):
            return np.array([bound.rho_upper, bound.norm_1, bound.norm_inf, bound.rho_lower])

        bound = cbv.spectral_radius_bound(o_pp)
        sums = (np.abs(o_pp).sum(axis=0), np.abs(o_pp).sum(axis=1))
        norms = [s.max() if n else 0.0 for s in sums]  # norm_1, norm_inf
        np.testing.assert_allclose([bound.norm_1, bound.norm_inf], norms, rtol=1e-14, atol=0.0)
        assert bound.rho_upper <= min(bound.norm_1, bound.norm_inf)

        # the gate's certificate against rho(|O_PP|) from LAPACK's eigenvalues.
        # A defective block's eigenvalues are accurate only to about
        # sqrt(u) ||O_PP||, so that is the slack on either side.
        radius = float(np.abs(np.linalg.eigvals(np.abs(o_pp))).max()) if n else 0.0
        slack = np.sqrt(np.finfo(float).eps) * norms[0]
        assert bound.rho_lower - slack <= radius <= bound.rho_upper + slack

        for method in ("neumann", "iterative_krylov"):
            cfg = cbv.SolverConfig(method=method, eps=eps, max_iters=5000).resolved()
            got = outcome(cbv.engine._solve_internal, o_pp, rhs, cfg)
            want = outcome(dense_iterative_solve, o_pp, rhs, cfg)
            if isinstance(want, type):
                assert got is want
                continue
            assert not isinstance(got, type), got
            (v_p, log), (ref, ref_log) = got, want
            assert (log.method, log.warnings) == (ref_log.method, ref_log.warnings)
            np.testing.assert_allclose(fields(log.rho_bound), fields(ref_log.rho_bound),
                                       rtol=1e-14, atol=0.0)
            if method == "neumann":
                assert log.iterations == ref_log.iterations
                scale = np.abs(ref).max() if n else 0.0
                np.testing.assert_allclose(v_p, ref, rtol=0.0, atol=1e-13 * scale)
            else:
                gap = float(np.linalg.norm(system @ (v_p - ref))) if n else 0.0
                assert gap <= 2 * eps * (1.0 + 1e-6)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_direct_solves_the_dense_system_bit_for_bit(self, data):
        # `direct` builds I - O_PP from its held edges: the same system, so the
        # same LU and the same bits
        n = data.draw(st.integers(0, 12), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kind = data.draw(st.sampled_from(["nonnegative", "signed", "reducible"]), label="kind")
        rho = data.draw(st.floats(0.0, 1.5), label="rho")
        o_pp = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.5)
        if kind == "signed":
            o_pp *= rng.choice([-1.0, 1.0], (n, n))
        elif kind == "reducible":  # block upper triangular
            o_pp = np.triu(o_pp, k=-(n // 3))
            o_pp[n // 2:, :n // 2] = 0.0
        radius = float(np.abs(np.linalg.eigvals(o_pp)).max()) if n else 0.0
        if radius > 0.0:
            o_pp *= rho / radius
        rhs = rng.uniform(0.0, 100.0, n)
        cfg = cbv.SolverConfig(method="direct").resolved()
        try:
            v_p, log = cbv.engine._solve_internal(o_pp, rhs, cfg)
        except StabilityError:  # refused by the gate, or I - O_PP singular
            return
        np.testing.assert_array_equal(v_p, np.linalg.solve(np.eye(n) - o_pp, rhs))
        assert log.method == "direct"

    def test_kmax_exceeded(self):
        stats = cbv.CutStatistics(
            p_ids=("a", "b"), o_ids=(), b_p=[1.0, 1.0],
            o_pp=[[0.0, 0.95], [0.95, 0.0]],
        )
        with pytest.raises(ConvergenceError) as err:
            cbv.estimate_internal_values(
                stats, cbv.SolverConfig(method="neumann", eps=1e-14, max_iters=3)
            )
        assert err.value.residual is not None

    def test_unconverged_iterate_is_v_p(self):
        # the sweeps run on A = 0.9 J; the iterate a ConvergenceError carries
        # is the third, 1 + 0.9 + 0.81 + 0.729
        stats = cbv.CutStatistics(p_ids=("a", "b"), o_ids=(), b_p=[1.0, 1.0],
                                  o_pp=[[0.0, 0.9], [0.9, 0.0]])
        with pytest.raises(ConvergenceError) as err:
            cbv.estimate_internal_values(stats, cbv.SolverConfig(
                method="neumann", eps=1e-14, max_iters=3))
        np.testing.assert_allclose(err.value.last_iterate, [3.439] * 2, rtol=1e-15)

    @pytest.mark.parametrize("field", [
        {"method": "lu"}, {"eps": 0.0}, {"max_iters": 0},
        {"eps": float("inf")}, {"eps": float("nan")},
        {"max_iters": 2.5},
        {"method": ""}, {"eps": -1e-3}, {"eps": float("-inf")},
        {"max_iters": -1}, {"max_iters": "10"},
    ])
    def test_solver_config_domains(self, field):
        with pytest.raises(DomainError):
            cbv.SolverConfig(**field)

    @pytest.mark.parametrize("field", [
        {"solver_eps": float("nan")}, {"solver_eps": float("inf")}, {"solver_eps": 0.0},
        {"rounding_threshold": float("inf")}, {"rounding_threshold": float("nan")},
        {"rounding_threshold": -1e-9}, {"max_iters": 2.5}, {"max_iters": "10"},
        {"max_iters": 0},
    ])
    def test_tolerances_domains(self, field):
        with pytest.raises(DomainError):
            cbv.Tolerances(**field)

    def test_regime_a_without_v_p_or_o_pp(self):
        # a package with neither file: v = b + O v over an empty internal
        # block gives v_P = b_P + O_PO v_O, and the cut prices at it
        stats = example_stats(with_v_p=False, with_o_pp=False)
        observer = cbv.Observer(perimeter_ref="P", regime="A",
                                control_rule=cbv.ControlRuleSpec())
        result = cbv.evaluate_for_observer(stats, observer)
        v_p = stats.b_p + stats.o_po @ stats.v_o
        np.testing.assert_array_equal(result.stats.v_p, v_p)
        assert result.w == cbv.evaluate_regime_a(stats.with_v_p(v_p), 1e-8).w
        assert result.w == pytest.approx(87.872, abs=1e-12)

    def test_regime_a_without_v_p_or_o_pp_is_priced_as_a_cut(self):
        # no internal block to solve: the log names the cut pricing that ran
        stats = example_stats(with_v_p=False, with_o_pp=False)
        observer = cbv.Observer(perimeter_ref="P", regime="A",
                                control_rule=cbv.ControlRuleSpec())
        log = cbv.evaluate_for_observer(stats, observer).solver_log
        assert (log.method, log.rho_bound) == ("direct-cut", None)

    def test_unset_solver_fields_follow_the_observer(self, stats_b):
        observer = cbv.Observer(perimeter_ref="P", regime="B",
                                control_rule=cbv.ControlRuleSpec(),
                                tolerances=cbv.Tolerances(max_iters=2))
        cfg = cbv.SolverConfig(method="neumann")
        assert cfg.resolved() == cbv.SolverConfig(method="neumann", eps=1e-10,
                                                  max_iters=10000)
        with pytest.raises(ConvergenceError):
            cbv.evaluate_for_observer(stats_b, observer, cfg)
        given = cbv.SolverConfig(method="neumann", max_iters=10000)
        assert cbv.evaluate_for_observer(stats_b, observer, given).w == pytest.approx(
            EXAMPLE_W_B, abs=1e-4
        )


def ring_stats(n: int, share: float, b_scale: float = 1.0) -> cbv.CutStatistics:
    """A ring owned at `share`, one outside node holding 10% of each member."""
    idx = np.arange(n)
    o_pp = np.zeros((n, n))
    o_pp[idx, (idx + 1) % n] = share
    return cbv.CutStatistics(
        p_ids=tuple(f"p{k:04d}" for k in idx), o_ids=("x",), b_p=np.full(n, b_scale),
        v_o=[0.0], o_po=np.zeros((n, 1)), o_op=np.full((1, n), 0.1), o_pp=o_pp,
    )


class TestInverseMinusIdentity:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_block_elimination_matches_the_lu(self, data):
        # on gated blocks of up to three leaves and more, (I - A)^-1 - I by
        # block elimination stays within c kappa_1(I - A) n u of an LU solve
        # of (I - A) Y = A.  c = 4 holds one rounding of each side at n = 1;
        # past the leaf the gap has stayed below 0.1 kappa_1 n u.
        leaf = cbv.engine.INVERSE_LEAF
        n = data.draw(st.integers(1, 3 * leaf + 9), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kind = data.draw(st.sampled_from(["nonnegative", "signed", "rescaled", "self-holding"]),
                         label="kind")
        rho = data.draw(st.floats(0.5, 0.999), label="rho")
        density = data.draw(st.sampled_from([0.05, 0.3, 1.0]), label="density")
        a = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density)
        if kind == "signed":
            a *= rng.choice([-1.0, 1.0], (n, n))
        elif kind == "rescaled":  # D A D^-1: its norms exceed 1, only weights certify it
            d = np.exp(rng.uniform(-2.0, 2.0, n))
            a = d[:, None] * a / d[None, :]
        elif kind == "self-holding":
            np.fill_diagonal(a, rng.uniform(0.0, 1.0, n))
        radius = float(np.abs(np.linalg.eigvals(np.abs(a))).max())
        assume(radius > 0.0)
        a *= rho / radius
        held = cbv.network._HeldEdges.of(a)
        assume(cbv.spectral_radius_bound(held).certified)
        system = np.eye(n) - a
        want = np.linalg.solve(system, a)
        got = cbv.engine._inverse_minus_identity(held)
        u = np.finfo(float).eps / 2
        bound = 4 * np.linalg.cond(system, 1) * n * u * np.abs(want).max()
        assert np.abs(got - want).max() <= bound

    def test_singular_leaf_is_stability_error(self):
        # no gate runs here: the 2-cycle at 1 makes I - A singular
        held = cbv.network._HeldEdges.of(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(StabilityError, match="singular"):
            cbv.engine._inverse_minus_identity(held)


class TestAutoMethod:
    """`auto` sweeps wherever the gate certifies the operator it sweeps, up to
    as many sweeps as one LU costs, and otherwise, or when the sweeps have not
    reached eps within that budget, factors."""

    def test_neumann_sweeps_the_block_that_auto_factors(self):
        # (I - O_PP) v = b with ||O_PP|| = 0.9, which the gate certifies: Neumann
        # sweeps O_PP and agrees with the LU within eps / (1 - ||O_PP||_inf)
        stats = cbv.CutStatistics(p_ids=("a", "b"), o_ids=(), b_p=[1.0, 0.0],
                                  o_pp=[[0.0, 0.9], [0.9, 0.0]])
        cfg = cbv.SolverConfig()
        neumann = cbv.evaluate_regime_b(stats, replace(cfg, method="neumann"))
        direct = cbv.evaluate_regime_b(stats, replace(cfg, method="direct"))
        auto = cbv.evaluate_regime_b(stats, cfg)
        assert neumann.w == direct.w == auto.w == 1.0
        assert auto.solver_log.method == "direct"
        log = neumann.solver_log
        assert log.method == "neumann" and not log.warnings
        assert log.rho_bound.certified and log.rho_bound.norm_inf == pytest.approx(0.9)
        assert log.residual < 1e-10
        np.testing.assert_allclose(neumann.stats.v_p, direct.stats.v_p,
                                   rtol=0.0, atol=1e-10 / (1.0 - 0.9))

    @pytest.mark.parametrize("n, share, max_iters, sweeps",
                             [(50, 0.95, None, 448), (400, 0.998, 20000, 11501)])
    def test_neumann_converges_on_rings(self, n, share, max_iters, sweeps):
        # the ring is certified by ||O_PP||_inf = share < 1, so the error in W
        # is at most sum_j |c_j| eps / (1 - ||O_PP||_inf), plus rounding
        stats = ring_stats(n, share)
        cfg = cbv.SolverConfig(method="neumann", max_iters=max_iters)
        neumann = cbv.evaluate_regime_b(stats, cfg)
        direct = cbv.evaluate_regime_b(stats, replace(cfg, method="direct"))
        log = neumann.solver_log
        assert (log.method, log.iterations) == ("neumann", sweeps) and log.residual < 1e-10
        assert log.rho_bound.norm_inf == share
        bound = 0.1 * n * 1e-10 / (1.0 - share)
        assert abs(neumann.w - direct.w) <= bound + 1e-12 * abs(direct.w)

    @pytest.mark.parametrize("stats", [
        cbv.CutStatistics(p_ids=("p1", "p2"), o_ids=(), b_p=[100.0, 50.0],
                          o_pp=[[0.0, t], [t, 0.0]])
        for t in (0.80, 0.99)
    ] + [ring_stats(400, 0.998)], ids=["2-cycle-0.80", "2-cycle-0.99", "ring-0.998"])
    def test_small_and_near_unit_blocks_take_lu(self, stats):
        auto = cbv.evaluate_regime_b(stats)
        direct = cbv.evaluate_regime_b(stats, cbv.SolverConfig(method="direct"))
        assert (auto.solver_log.method, auto.solver_log.iterations) == ("direct", 0)
        assert auto.w == direct.w
        assert auto.solver_log.rho_bound.rho_upper < 1.0

    def test_sparse_block_sweeps_as_predicted(self):
        stats = ring_stats(600, 0.5)
        auto = cbv.evaluate_regime_b(stats)
        direct = cbv.evaluate_regime_b(stats, cbv.SolverConfig(method="direct"))
        log = auto.solver_log
        assert log.method == "neumann" and not log.warnings
        # |r_k| <= 0.5^k * 0.5 below 1e-10 first at k = 33
        assert log.iterations <= 33 and log.residual < 1e-10
        # |dW| <= sum_j |c_j| eps / (1 - rho_inf) = 60 * 1e-10 / 0.5
        assert abs(auto.w - direct.w) <= 1.2e-8

    def test_stalled_sweeps_fall_back_to_lu(self):
        stats = ring_stats(600, 0.5)
        with patch.object(cbv.engine, "LU_SWEEP_RATIO", 90000):
            auto = cbv.evaluate_regime_b(stats)  # two sweeps allowed, 33 needed
        direct = cbv.evaluate_regime_b(stats, cbv.SolverConfig(method="direct"))
        assert (auto.solver_log.method, auto.solver_log.iterations) == ("direct", 0)
        assert auto.solver_log.warnings == [
            f"Neumann sweeps did not reach eps=1e-10 within the budget of 2 sweeps, "
            f"one LU's price (residual {0.5 ** 3!r}); solved by LU"]
        assert auto.w == direct.w

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_auto_returns_wherever_direct_does(self, data):
        # on drawn blocks, sweeps forced where certified (ratio ~0) or left
        # to the measured rule, auto answers wherever direct does, within
        # what its residual certifies: |dW| <= sum_j |c_j| eps / (1 - rho_inf)
        # (n max_j |c_j| eps / (1 - rho_1) from the 1-norm), plus rounding
        n = data.draw(st.integers(1, 120), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kind = data.draw(st.sampled_from(["nonnegative", "signed", "reducible"]), label="kind")
        rho = data.draw(st.floats(0.0, 0.999) | st.sampled_from([0.99, 0.999]), label="rho")
        density = data.draw(st.sampled_from([1.0, 0.3, 2.0 / n]), label="density")
        scale = 10.0 ** data.draw(st.integers(0, 12), label="log10 value scale")
        eps = data.draw(st.sampled_from([1e-12, 1e-10, 1e-6]), label="eps")
        ratio = data.draw(st.sampled_from([1e-9, cbv.engine.LU_SWEEP_RATIO]), label="ratio")
        o_pp = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density)
        if kind == "signed":
            o_pp *= rng.choice([-1.0, 1.0], (n, n))
        elif kind == "reducible":  # block upper triangular
            o_pp = np.triu(o_pp, k=-(n // 3))
            o_pp[n // 2:, :n // 2] = 0.0
        radius = float(np.abs(np.linalg.eigvals(o_pp)).max())
        if radius > 0.0:
            o_pp *= rho / radius
        n_o = 2
        stats = cbv.CutStatistics(
            p_ids=tuple(f"p{k}" for k in range(n)), o_ids=("x", "y"),
            b_p=scale * rng.uniform(0.0, 1.0, n), v_o=scale * rng.uniform(0.0, 1.0, n_o),
            o_po=rng.uniform(0.0, 0.1, (n, n_o)), o_op=rng.uniform(0.0, 0.1, (n_o, n)),
            o_pp=o_pp)
        cfg = cbv.SolverConfig(eps=eps)
        try:
            direct = cbv.evaluate_regime_b(stats, replace(cfg, method="direct"))
        except StabilityError:
            return
        with patch.object(cbv.engine, "LU_SWEEP_RATIO", ratio):
            auto = cbv.evaluate_regime_b(stats, cfg)
        if auto.solver_log.method == "direct":
            assert auto.w == direct.w
            return
        assert auto.solver_log.method == "neumann"
        bound = cbv.spectral_radius_bound(o_pp)
        c = np.abs(stats.o_op.sum(axis=0))
        weights = [c.sum() / (1.0 - bound.norm_inf) if bound.norm_inf < 1.0 else np.inf,
                   n * c.max() / (1.0 - bound.norm_1) if bound.norm_1 < 1.0 else np.inf]
        rhs = stats.b_p + stats.o_po @ stats.v_o
        unit = np.finfo(float).eps
        rounding = 16 * (n + 2) * unit * (np.abs(rhs).max() + np.abs(direct.stats.v_p).max())
        assert auto.solver_log.residual < eps
        assert abs(auto.w - direct.w) <= min(weights) * (eps + rounding)


class TestRegimeB:
    def test_worked_example(self, stats_b):
        result = cbv.evaluate_regime_b(stats_b)
        assert result.w == pytest.approx(EXAMPLE_W_B, abs=1e-4)
        assert result.t_in == pytest.approx(13.0789, abs=1e-4)

    def test_matches_regime_a_with_estimated_values(self, stats_b):
        v_p, _ = cbv.estimate_internal_values(stats_b)
        direct = cbv.evaluate_regime_a(stats_b.with_v_p(v_p))
        chained = cbv.evaluate_regime_b(stats_b)
        assert chained.w == direct.w

    def test_single_node_without_internal_links_matches_regime_a(self):
        stats = renault_stats()
        assert cbv.evaluate_regime_b(stats).w == pytest.approx(
            cbv.evaluate_regime_a(stats).w, rel=1e-14
        )

    def test_structural_identity_bridges_regimes(self, rng):
        # full network with known v: regime A with observed v_P equals
        # regime B estimated from bases alone
        for _ in range(5):
            stats = random_regime_stats(rng, n_p=4, n_o=3, observed=True)
            w_a = cbv.evaluate_regime_a(stats).w
            w_b = cbv.evaluate_regime_b(stats).w
            assert w_b == pytest.approx(w_a, rel=1e-9)

    def test_2x2_symmetric_internal_total(self):
        stats = cbv.CutStatistics(
            p_ids=("p1", "p2"), o_ids=(), b_p=[100.0, 50.0],
            o_pp=[[0.0, 0.8], [0.8, 0.0]],
        )
        v_p, _ = cbv.estimate_internal_values(stats)
        assert float(v_p.sum()) == pytest.approx(750.0, abs=1e-9)
        np.testing.assert_allclose(v_p, [388.8889, 361.1111], atol=1e-4)

    @pytest.mark.parametrize("method", ["direct", "neumann", "iterative_krylov"])
    def test_value_behind_a_held_negative_zero_share_is_not_read(self, method):
        # O_PO holds -0.0 at (a, x), which is no edge, so x's NaN value is
        # read by neither regime: the right-hand side prices O_PO's edges
        # as regime A's T_out does, and v_P = 1 + 0.5 * 2 = 2
        stats = cbv.CutStatistics(
            p_ids=("a",), o_ids=("x", "y"), b_p=[1.0], v_o=[float("nan"), 2.0],
            o_po=[[-0.0, 0.5]], o_op=[[0.1], [0.0]], o_pp=[[0.0]],
        )
        assert np.signbit(stats.o_po[0, 0])
        result = cbv.evaluate_regime_b(stats, cbv.SolverConfig(method=method))
        observed = cbv.evaluate_regime_a(stats.with_v_p(np.array([2.0])))
        assert result.stats.v_p.tolist() == [2.0]
        assert (result.w, result.t_out, result.t_in) == (observed.w, 1.0, 0.2)


class TestAxioms:
    def test_closed_system(self, rng):
        # P = V: consolidated value is the plain sum of bases
        for _ in range(5):
            n = 5
            stats = cbv.CutStatistics(
                p_ids=tuple(f"n{k}" for k in range(n)), o_ids=(),
                b_p=rng.uniform(1, 10, size=n),
                o_pp=random_share_matrix(rng, n),
            )
            result = cbv.evaluate_regime_b(stats)
            assert result.w == pytest.approx(float(stats.b_p.sum()), rel=1e-12)

    def test_aggregative_consistency(self, rng):
        # nested perimeters: W(Q) = W(P) + W(Q\P) - net internal cut value
        n = 8
        shares = random_share_matrix(rng, n)
        ids = tuple(f"n{k}" for k in range(n))
        values = rng.uniform(10, 100, size=n)
        bases = rng.uniform(1, 10, size=n)
        net = cbv.OwnershipNetwork(ids, shares)
        b = dict(zip(ids, bases))
        v = dict(zip(ids, values))
        q_members = {"n0", "n1", "n2", "n3", "n4"}
        p_members = {"n0", "n2"}
        r_members = q_members - p_members

        def w_of(members):
            stats = cbv.CutStatistics.from_network(net, cbv.Perimeter(members), b, v)
            return cbv.evaluate_regime_a(stats).w

        def edge_value(srcs, dsts):
            total = 0.0
            for i in srcs:
                for j in dsts:
                    total += shares[ids.index(i), ids.index(j)] * values[ids.index(j)]
            return total

        net_internal = (
            edge_value(p_members, r_members) - edge_value(r_members, p_members)
        ) + (
            edge_value(r_members, p_members) - edge_value(p_members, r_members)
        )
        lhs = w_of(q_members)
        rhs = w_of(p_members) + w_of(r_members) - net_internal
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_scaling_equivariance(self, stats_a, stats_b):
        for kappa in (0.5, 1.2, 3.0):
            w = cbv.evaluate_regime_a(stats_a).w
            w_scaled = cbv.evaluate_regime_a(cbv.scale_units(kappa, stats_a)).w
            assert w_scaled == pytest.approx(kappa * w, rel=1e-12)
            wb = cbv.evaluate_regime_b(stats_b).w
            wb_scaled = cbv.evaluate_regime_b(cbv.scale_units(kappa, stats_b)).w
            assert wb_scaled == pytest.approx(kappa * wb, rel=1e-12)


class TestSpectralBound:
    def test_worked_example_row_sums(self, stats_b):
        bound = cbv.spectral_radius_bound(stats_b.o_pp)
        assert bound.norm_inf == pytest.approx(0.15, abs=1e-12)
        assert bound.rho_upper <= 0.15 + 1e-12
        assert bound.norm_inf < 1.0

    def test_zero_matrix(self):
        bound = cbv.spectral_radius_bound(np.zeros((3, 3)))
        assert bound.rho_upper == 0.0

    def test_norm_below_1_needs_no_pass(self, stats_b):
        assert cbv.spectral_radius_bound(stats_b.o_pp).passes == 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bound_is_at_least_the_spectral_radius(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kind = data.draw(st.sampled_from(
            ["dense", "reducible", "zero_rows", "cycle", "block_cycle", "chain", "signed"]),
            label="kind")
        scale = data.draw(st.floats(0.05, 3.0), label="scale")
        a = rng.uniform(0.0, 1.0, size=(n, n))
        if kind == "reducible":  # upper block triangular, with random zeros
            a = np.triu(a * (rng.random((n, n)) < 0.6), k=-(n // 3))
            a[n // 2:, :n // 2] = 0.0
        elif kind == "zero_rows":
            a[rng.random(n) < 0.5] = 0.0
        elif kind == "cycle":  # a pure cycle through every node: periodic
            a = np.zeros((n, n))
            order = rng.permutation(n)
            a[order, np.roll(order, 1)] = rng.uniform(0.5, 1.0, size=n)
        elif kind == "block_cycle":  # a bipartite, period-2 block
            a = np.zeros((n, n))
            half = max(n // 2, 1)
            a[:half, half:] = rng.uniform(0.0, 1.0, size=(half, n - half))
            a[half:, :half] = rng.uniform(0.0, 1.0, size=(n - half, half))
        elif kind == "chain":  # a 2-cycle plus a nilpotent chain
            a = np.diag(rng.uniform(0.5, 1.0, size=n - 1), k=1)
            a[min(1, n - 1), 0] = rng.uniform(0.5, 1.0)
        elif kind == "signed":
            a = rng.uniform(-1.0, 1.0, size=(n, n))
        a = scale * a / max(np.abs(a).sum(axis=0).max(), 1e-300)
        bound = cbv.spectral_radius_bound(a)
        rho = float(np.abs(np.linalg.eigvals(a)).max())
        assert bound.rho_upper >= rho * (1.0 - 1e-9)
        assert bound.rho_upper <= min(bound.norm_1, bound.norm_inf)
        rho_abs = float(np.abs(np.linalg.eigvals(np.abs(a))).max())
        assert bound.rho_lower <= rho_abs * (1.0 + 1e-9) + 1e-12

    @pytest.mark.parametrize("cycle", [1.0, 1.05])
    def test_passes_stop_once_the_lower_bound_reaches_1(self, cycle):
        o_pp = [[0.0, cycle], [cycle, 0.0]]
        bound = cbv.spectral_radius_bound(o_pp)
        assert bound.rho_lower == bound.rho_upper == cycle
        assert bound.passes < cbv.engine.POWER_ITERATIONS
        stats = cbv.CutStatistics(p_ids=("a", "b"), o_ids=(), b_p=[1.0, 1.0], o_pp=o_pp)
        with pytest.raises(StabilityError, match=rf"unstable: rho\(\|O_PP\|\) >= {cycle}"):
            cbv.evaluate_regime_b(stats)

    def test_signed_block_is_not_called_unstable(self):
        # rho(|A|) = 1.2 stops the passes, but rho(A) = 0.6 * sqrt(2) < 1
        o_pp = [[0.6, 0.6], [-0.6, 0.6]]
        assert cbv.spectral_radius_bound(o_pp).rho_lower == pytest.approx(1.2)
        stats = cbv.CutStatistics(p_ids=("a", "b"), o_ids=(), b_p=[1.0, 1.0], o_pp=o_pp)
        with pytest.raises(StabilityError, match="cannot be certified stable"):
            cbv.evaluate_regime_b(stats)

    def test_a_chain_row_keeps_the_passes_running(self):
        # the zero last row of the chain keeps min_i (|A| v)_i / v_i at 0
        bound = cbv.spectral_radius_bound(two_cycle_chain_stats(cycle=1.001).o_pp)
        assert bound.rho_lower == 0.0
        assert bound.passes == cbv.engine.POWER_ITERATIONS

    @pytest.mark.parametrize("method", cbv.engine.SOLVER_METHODS)
    def test_a_bound_within_rounding_of_1_certifies_nothing(self, method):
        # the circulant's exact rho is its row sum, above 1, yet its rounded
        # bound reads below 1; before the margin, auto and direct priced it at
        # W = -6.5e16 with residual 8.0 and no warning
        assert sum(map(Fraction, NEAR_ONE_ROW)) > 1
        o_pp = near_one_circulant()
        bound = cbv.spectral_radius_bound(o_pp)
        assert bound.rho_upper < 1.0 and not bound.certified
        n = o_pp.shape[0]
        stats = cbv.CutStatistics(
            p_ids=tuple(f"p{k}" for k in range(n)), o_ids=("x",), b_p=np.ones(n),
            v_o=[0.0], o_po=np.zeros((n, 1)), o_op=np.full((1, n), 0.1), o_pp=o_pp)
        with pytest.raises(StabilityError, match="within rounding of 1"):
            cbv.evaluate_regime_b(stats, cbv.SolverConfig(method=method))


class TestSchur:
    def test_gauge_rewirings_preserve_operators_and_w(self, rng):
        base, rewired = gauge_rewiring_family(rng, n_draws=10)
        t_base, u_base = reference_boundary_operators(base)
        w_base = cbv.evaluate_regime_b(base).w
        for variant in rewired:
            t_po, u_op = reference_boundary_operators(variant)
            np.testing.assert_allclose(t_po, t_base, atol=1e-12)
            np.testing.assert_allclose(u_op, u_base, atol=1e-12)
            assert cbv.evaluate_regime_b(variant).w == pytest.approx(w_base, rel=1e-9)
            # the rewiring is not a no-op: internal values do move
            v_base, _ = cbv.estimate_internal_values(base)
            v_new, _ = cbv.estimate_internal_values(variant)
            assert not np.allclose(v_base, v_new)


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_regime_b_equals_the_schur_form(self, data):
        # 1'b_P + 1'O_PO v_O - 1'U_OP (b_P + O_PO v_O): the transposed solve
        # behind U_OP against the plain solve behind v_P
        n_p = data.draw(st.integers(1, 12), label="n_p")
        n_o = data.draw(st.integers(0, 6), label="n_o")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rho = data.draw(st.floats(0.0, 0.95), label="rho")
        o_pp = rng.uniform(0.0, 1.0, size=(n_p, n_p)) * (rng.random((n_p, n_p)) < 0.6)
        radius = float(np.abs(np.linalg.eigvals(o_pp)).max())
        o_pp *= rho / radius if radius > 0.0 else 0.0
        assume(cbv.spectral_radius_bound(o_pp).rho_upper < 1.0)
        stats = cbv.CutStatistics(
            p_ids=tuple(f"p{k}" for k in range(n_p)), o_ids=tuple(f"o{k}" for k in range(n_o)),
            b_p=rng.uniform(0.0, 100.0, n_p), v_o=rng.uniform(0.0, 100.0, n_o),
            o_po=rng.uniform(0.0, 0.3, (n_p, n_o)), o_op=rng.uniform(0.0, 0.3, (n_o, n_p)),
            o_pp=o_pp,
        )
        _, u_op = reference_boundary_operators(stats)
        rhs = stats.b_p + stats.o_po @ stats.v_o
        schur_w = rhs.sum() - u_op.sum(axis=0) @ rhs
        w = cbv.evaluate_regime_b(stats, cbv.SolverConfig(method="direct")).w
        assert w == pytest.approx(schur_w, rel=1e-9, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(n_p=st.integers(2, 12), n_o=st.integers(0, 6), t=st.integers(0, 11),
           seed=st.integers(0, 2**32 - 1))
    @example(n_p=2, n_o=2, t=0, seed=378)  # Neumann off by 2.3e-12 relative
    def test_rewiring_an_unowned_nodes_holdings_keeps_w(self, n_p, n_o, t, seed):
        # Cut Theorem: node t is owned by nobody (its O_PP and O_OP columns are
        # zero), so its holdings move v_t alone and v_t is priced by no edge.
        # Direct agrees to rounding.  An iterative v_P has residual below eps,
        # so its W is within sum|O_OP| ||(I - O_PP)^-1||_inf eps of the exact
        # one, and a variant's W within the sum of its and the base's bounds
        t %= n_p
        rng = np.random.default_rng(seed)
        held = rng.uniform(0.0, 1.0, (n_p + n_o, n_p)) * (rng.random((n_p + n_o, n_p)) < 0.6)
        held[:, t] = 0.0
        sums = held.sum(axis=0)
        owned = sums > 0.0
        held[:, owned] *= rng.uniform(0.0, 0.9, n_p)[owned] / sums[owned]
        base = cbv.CutStatistics(
            p_ids=tuple(f"p{k}" for k in range(n_p)), o_ids=tuple(f"o{k}" for k in range(n_o)),
            b_p=rng.uniform(0.0, 100.0, n_p), v_o=rng.uniform(0.0, 100.0, n_o),
            o_po=rng.uniform(0.0, 0.3, (n_p, n_o)), o_op=held[n_p:], o_pp=held[:n_p],
        )
        # every column sum of O_PP and O_OP stays below 1 after the redraw
        headroom = 1.0 - held.sum(axis=0) + held[t]
        variants = []
        for _ in range(3):
            o_pp = held[:n_p].copy()
            o_pp[t] = rng.uniform(0.0, 0.99, n_p) * headroom
            o_pp[t, t] = 0.0
            variants.append(base.replace(o_pp=o_pp))
        def certified(stats, eps):
            return np.abs(stats.o_op).sum() * reference_inverse_norm(stats.o_pp, np.inf) * eps

        for method in ("direct", "neumann", "iterative_krylov"):
            cfg = cbv.SolverConfig(method=method).resolved()
            w = cbv.evaluate_regime_b(base, cfg).w
            v_p, _ = cbv.estimate_internal_values(base, cfg)
            for variant in variants:
                moved_w = cbv.evaluate_regime_b(variant, cfg).w
                if method == "direct":
                    assert moved_w == pytest.approx(w, rel=1e-12)
                else:
                    bound = certified(base, cfg.eps) + certified(variant, cfg.eps)
                    assert abs(moved_w - w) <= bound
                moved, _ = cbv.estimate_internal_values(variant, cfg)
                assert not np.allclose(moved, v_p, rtol=1e-9, atol=0.0)


class TestPartitionIdentity:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_a_partition_prices_its_cross_holdings_out(self, data):
        # blocks P_1..P_k that label every node: each cross holding is T_out
        # of its holder's block and T_in of its held node's block, so
        # sum_k W_A(P_k) = sum_i b_i for any observed values, up to rounding
        n = data.draw(st.integers(1, 40), label="n")
        k = data.draw(st.integers(1, 6), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shares = rng.uniform(0.0, 0.3, (n, n)) * (rng.random((n, n)) < 0.3)
        shares[rng.random((n, n)) < 0.05] = -0.0
        ids = [f"n{j}" for j in range(n)]
        network = cbv.OwnershipNetwork(ids, shares)
        labels = rng.integers(0, k, n)
        blocks = [[ids[j] for j in np.flatnonzero(labels == label)] for label in np.unique(labels)]
        b = dict(zip(ids, rng.uniform(-50.0, 100.0, n).tolist()))
        v = dict(zip(ids, rng.uniform(-50.0, 200.0, n).tolist()))
        gap, bound = partition_identity(network, blocks, b, v)
        assert gap <= bound, (gap, bound)

    def test_strided_perimeters_of_a_sparse_network(self):
        # the CI's 10^5-node check at 3000 nodes: 50 perimeters nodes[r::50]
        # of a network built from its edges, valued with its own v
        network, b, v = sparse_ownership(3000, seed=5)
        gap, bound = partition_identity(network, [network.nodes[r::50] for r in range(50)], b, v)
        assert gap <= bound, (gap, bound)


class TestMetaNode:
    def test_no_external_minorities(self):
        stats = cbv.CutStatistics(
            p_ids=("a", "b"), o_ids=("x",), b_p=[10.0, 5.0], v_o=[30.0],
            o_po=[[0.1], [0.0]], o_op=[[0.0, 0.0]],
            o_pp=[[0.0, 0.1], [0.2, 0.0]],
        )
        share = cbv.effective_external_share(stats)
        assert share.e_ext == 0.0
        assert share.omega_eff == 0.0

    def test_meta_identity_matches_regime_b(self, stats_b):
        share = cbv.effective_external_share(stats_b)
        w_meta = float(stats_b.b_p.sum()) + 9.6 - share.e_ext
        assert w_meta == pytest.approx(cbv.evaluate_regime_b(stats_b).w, rel=1e-12)
        assert share.e_ext == pytest.approx(13.0789, abs=1e-4)

    def test_single_node_multiplier(self):
        # one node with self-participation rho, outside owns delta directly:
        # the effective claim is delta * b / (1 - rho), a 1/(1 - rho) blow-up
        rho, delta, b = 0.4, 0.3, 50.0
        stats = cbv.CutStatistics(
            p_ids=("p",), o_ids=("o",), b_p=[b], v_o=[0.0],
            o_po=[[0.0]], o_op=[[delta]], o_pp=[[rho]],
        )
        share = cbv.effective_external_share(stats)
        assert share.e_ext == pytest.approx(delta * b / (1 - rho), rel=1e-12)
        assert share.e_ext / (delta * b) == pytest.approx(1.0 / (1 - rho), rel=1e-12)
        assert share.omega_eff == pytest.approx(delta, rel=1e-12)


class TestDiagnostics:
    def test_hedge_vector_worked_example(self, stats_a):
        assert cbv.hedge_vector(stats_a) == {
            "X": pytest.approx(0.08, abs=1e-15),
            "Y": pytest.approx(0.06, abs=1e-15),
        }

    def test_hedge_vector_renault(self):
        assert cbv.hedge_vector(renault_stats()) == {"NISSAN": 0.357}

    def test_cut_gap(self):
        assert cbv.cut_gap(100.0, 100.0) == 0.0
        assert cbv.cut_gap(250e9, 205e9) == pytest.approx(45.0 / 205.0, rel=1e-12)
        assert cbv.cut_gap(105e9, 70e9) == pytest.approx(0.5, rel=1e-12)
        with pytest.raises(DomainError):
            cbv.cut_gap(10.0, 0.0)

    def test_implied_bases_renault(self):
        net = cbv.OwnershipNetwork.from_edges(
            ["RENAULT", "NISSAN"],
            [("RENAULT", "NISSAN", 0.357), ("NISSAN", "RENAULT", 0.15)],
        )
        bases = cbv.implied_bases(net, {"RENAULT": 9.06e9, "NISSAN": 7.044303429e9})
        assert round(bases["RENAULT"]) == 6_545_183_676
        assert round(bases["NISSAN"]) == 5_685_303_429

    def test_implied_bases_names_the_nodes_without_a_value(self):
        net = cbv.OwnershipNetwork.from_edges(["a", "b", "c"], [("a", "b", 0.5)])
        with pytest.raises(MembershipError, match=r"\['b', 'c'\]"):
            cbv.implied_bases(net, {"a": 1.0})

    def test_a_defaultdict_lacking_an_id_is_refused_naming_it(self):
        # its __missing__ would answer 0.0 for the id it lacks
        net = example_network()
        perimeter = cbv.Perimeter(P_IDS)
        b = defaultdict(float, zip(P_IDS, B_P))
        v = defaultdict(float, zip(O_IDS, V_O))
        del v["Y"]
        with pytest.raises(MembershipError, match=r"^values missing for complement nodes: \['Y'\]"):
            cbv.CutStatistics.from_network(net, perimeter, b, v)
        v["Y"] = 1.0
        del b["C"]
        with pytest.raises(MembershipError, match=r"^bases missing for perimeter nodes: \['C'\]$"):
            cbv.CutStatistics.from_network(net, perimeter, b, v)
        with pytest.raises(MembershipError, match=r"\['b', 'c'\]"):
            cbv.implied_bases(cbv.OwnershipNetwork.from_edges(["a", "b", "c"], [("a", "b", 0.5)]),
                              defaultdict(float, {"a": 1.0}))

    @pytest.mark.parametrize("value, shown", [("x", "'x'"), (None, "None"), ([1.0], r"\[1.0\]")])
    def test_implied_bases_refuses_a_non_number(self, value, shown):
        net = cbv.OwnershipNetwork.from_edges(["a", "b", "c"], [("a", "b", 0.5)])
        with pytest.raises(DomainError, match=rf"^value {shown} of node 'b' is not a number$"):
            cbv.implied_bases(net, {"a": 1.0, "b": value, "c": "y"})

    @pytest.mark.parametrize("value, shown", [("x", "'x'"), (None, "None"), ([1.0], r"\[1.0\]")])
    def test_from_network_refuses_a_non_number(self, value, shown):
        # the first non-number in the order bases, complement values, then
        # perimeter values is named; float() semantics otherwise: "2.5" and
        # True are numbers, and no non-number becomes a NaN
        net = example_network()
        perimeter = cbv.Perimeter(P_IDS)
        b = dict(zip(P_IDS, B_P))
        v = dict(zip(O_IDS, V_O))
        for bases, values, refused in (
            ({**b, "B": value, "C": "z"}, {**v, "X": "y"}, f"base {shown} of node 'B'"),
            (b, {**v, "Y": value}, f"value {shown} of node 'Y'"),
            (b, {**v, "A": 1.0, "B": 1.0, "C": value}, f"value {shown} of node 'C'"),
        ):
            with pytest.raises(DomainError, match=rf"^{refused} is not a number$"):
                cbv.CutStatistics.from_network(net, perimeter, bases, values)
        # v_P is unobserved when v misses a member, whatever it gives the others
        stats = cbv.CutStatistics.from_network(
            net, perimeter, {**b, "A": "2.5", "B": True}, {**v, "A": value})
        assert stats.v_p is None and stats.b_p.tolist() == [2.5, 1.0, B_P[2]]

    def test_from_network_refuses_missing_ids_before_non_numbers(self):
        net = example_network()
        perimeter = cbv.Perimeter(P_IDS)
        with pytest.raises(MembershipError, match=r"^values missing for complement nodes: \['Y'\]$"):
            cbv.CutStatistics.from_network(net, perimeter, {"A": "x", "B": 1.0, "C": 1.0},
                                           {"X": 1.0})
        with pytest.raises(MembershipError, match=r"^bases missing for perimeter nodes: \['C'\]$"):
            cbv.CutStatistics.from_network(net, perimeter, {"A": None, "B": 1.0}, {})
