import itertools

import numpy as np
import pytest

import cbv
from cbv.errors import ConvergenceError, DimensionError, DomainError, MembershipError

from conftest import iterate_once


def chain_problem() -> cbv.ClearingProblem:
    """n1 owes n2 100, n2 owes n3 50; only n2 burns value in default."""
    liabilities = np.zeros((3, 3))
    liabilities[0, 1] = 100.0
    liabilities[1, 2] = 50.0
    return cbv.ClearingProblem(
        node_ids=("n1", "n2", "n3"),
        liabilities=(liabilities,),
        resources=np.array([30.0, 0.0, 0.0]),
        default_costs=np.array([[0.0, 0.5, 0.0]]),
    )


def ring_problem() -> cbv.ClearingProblem:
    """Symmetric 3-ring with default costs: full payment and zero payment
    are both fixed points."""
    liabilities = np.zeros((3, 3))
    liabilities[0, 1] = liabilities[1, 2] = liabilities[2, 0] = 100.0
    return cbv.ClearingProblem(
        node_ids=("r1", "r2", "r3"),
        liabilities=(liabilities,),
        resources=np.array([40.0, 0.0, 0.0]),
        default_costs=np.full((1, 3), 0.5),
    )


def brute_force_fixed_points(problem, grids, tol):
    """Lattice search: every grid combination close to a fixed point."""
    dues = problem.gross_dues()
    hits = []
    for combo in itertools.product(*grids):
        payments = np.array([combo], dtype=float).reshape(dues.shape)
        image = iterate_once(problem, payments)
        if np.abs(image - payments).max() <= tol:
            hits.append(payments)
    return hits


class TestClear:
    def test_no_liabilities(self):
        problem = cbv.ClearingProblem.single_class(
            ("a", "b"), np.zeros((2, 2)), [5.0, 1.0]
        )
        outcome = cbv.clear(problem)
        np.testing.assert_array_equal(outcome.payments, np.zeros((1, 2)))
        np.testing.assert_array_equal(outcome.payout_ratios, np.ones((1, 2)))

    def test_two_node_closed_form(self):
        problem = cbv.ClearingProblem.single_class(
            ("n1", "n2"), [[0.0, 100.0], [0.0, 0.0]], [60.0, 0.0]
        )
        outcome = cbv.clear(problem)
        assert outcome.payments[0, 0] == 60.0
        assert outcome.payout_ratios[0, 0] == 0.6
        assert outcome.payout_ratios[0, 1] == 1.0

    def test_chain_against_lattice_oracle(self):
        problem = chain_problem()
        outcome = cbv.clear(problem, eps=1e-12)
        np.testing.assert_allclose(outcome.payments[0], [30.0, 10.0, 0.0], atol=1e-12)
        grids = [np.arange(0.0, 101.0, 2.5), np.arange(0.0, 51.0, 2.5), [0.0]]
        hits = brute_force_fixed_points(problem, grids, tol=1e-9)
        assert len(hits) == 1
        np.testing.assert_allclose(hits[0][0], outcome.payments[0], atol=1e-12)

    def test_ring_extremes_match_lattice_oracle(self):
        problem = ring_problem()
        greatest = cbv.clear(problem, selection="greatest")
        least = cbv.clear(problem, selection="least")
        grids = [np.arange(0.0, 101.0, 20.0)] * 3
        hits = brute_force_fixed_points(problem, grids, tol=1e-9)
        assert hits, "oracle found no fixed points"
        tops = np.max([h[0] for h in hits], axis=0)
        bottoms = np.min([h[0] for h in hits], axis=0)
        np.testing.assert_allclose(greatest.payments[0], tops, atol=1e-12)
        np.testing.assert_allclose(least.payments[0], bottoms, atol=1e-12)

    def test_bracketing(self, rng):
        for _ in range(10):
            n = 4
            liabilities = rng.uniform(0, 50, size=(n, n)) * (rng.random((n, n)) < 0.5)
            np.fill_diagonal(liabilities, 0.0)
            problem = cbv.ClearingProblem.single_class(
                tuple(f"n{k}" for k in range(n)), liabilities,
                rng.uniform(0, 40, size=n), gamma=rng.uniform(0, 1),
            )
            greatest = cbv.clear(problem, selection="greatest")
            least = cbv.clear(problem, selection="least")
            assert (least.payments <= greatest.payments + 1e-9).all()

    def test_monotone_iterates(self, rng):
        for _ in range(10):
            n = 4
            liabilities = rng.uniform(0, 50, size=(n, n)) * (rng.random((n, n)) < 0.6)
            np.fill_diagonal(liabilities, 0.0)
            problem = cbv.ClearingProblem.single_class(
                tuple(f"n{k}" for k in range(n)), liabilities,
                rng.uniform(0, 30, size=n), gamma=0.4,
            )
            dues = problem.gross_dues()
            down = dues.copy()
            for _ in range(50):
                nxt = iterate_once(problem, down)
                assert (nxt <= down + 1e-9).all()
                down = nxt
            up = np.zeros_like(dues)
            for _ in range(50):
                nxt = iterate_once(problem, up)
                assert (nxt >= up - 1e-9).all()
                up = nxt

    def test_conservation_without_default_costs(self, rng):
        for _ in range(10):
            n = 5
            liabilities = rng.uniform(0, 20, size=(n, n)) * (rng.random((n, n)) < 0.5)
            np.fill_diagonal(liabilities, 0.0)
            resources = rng.uniform(0, 25, size=n)
            problem = cbv.ClearingProblem.single_class(
                tuple(f"n{k}" for k in range(n)), liabilities, resources
            )
            outcome = cbv.clear(problem)
            theta = outcome.payout_ratios[0]
            received = theta @ liabilities
            paid = outcome.payments[0]
            final_cash = resources + received - paid
            assert (final_cash >= -1e-9).all()
            assert final_cash.sum() == pytest.approx(resources.sum(), rel=1e-9)

    def test_seniority_ordering(self):
        # one debtor, two classes: senior paid in full before junior gets cash
        liabilities_senior = np.array([[0.0, 60.0], [0.0, 0.0]])
        liabilities_junior = np.array([[0.0, 80.0], [0.0, 0.0]])
        problem = cbv.ClearingProblem(
            node_ids=("d", "c"),
            liabilities=(liabilities_senior, liabilities_junior),
            resources=np.array([100.0, 0.0]),
            default_costs=np.zeros((2, 2)),
        )
        outcome = cbv.clear(problem)
        assert outcome.payments[0, 0] == 60.0
        assert outcome.payments[1, 0] == pytest.approx(40.0, abs=1e-12)
        assert outcome.payout_ratios[1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_junior_shortfall_costs_do_not_hit_senior(self):
        liabilities_senior = np.array([[0.0, 50.0], [0.0, 0.0]])
        liabilities_junior = np.array([[0.0, 100.0], [0.0, 0.0]])
        problem = cbv.ClearingProblem(
            node_ids=("d", "c"),
            liabilities=(liabilities_senior, liabilities_junior),
            resources=np.array([50.0, 0.0]),
            default_costs=np.array([[0.0, 0.0], [1.0, 0.0]]),
        )
        outcome = cbv.clear(problem)
        # junior burns its whole shortfall, senior is still made whole
        assert outcome.payments[0, 0] == 50.0
        assert outcome.payments[1, 0] == 0.0

    def test_convergence_error_carries_iterate(self):
        problem = chain_problem()
        with pytest.raises(ConvergenceError) as err:
            cbv.clear(problem, eps=1e-15, max_iters=1)
        assert err.value.last_iterate is not None

    def test_invalid_inputs(self):
        nan, inf = float("nan"), float("inf")
        for liabilities, resources, gamma in (
            ([[-1.0]], [0.0], 0.0),
            ([[0.0]], [-1.0], 0.0),
            ([[0.0]], [0.0], 2.0),
            ([[nan]], [0.0], 0.0),
            ([[inf]], [0.0], 0.0),
            ([[0.0]], [nan], 0.0),
            ([[0.0]], [inf], 0.0),
            ([[0.0]], [0.0], nan),
            ([[0.0]], [0.0], inf),
        ):
            with pytest.raises(DomainError):
                cbv.ClearingProblem.single_class(("a",), liabilities, resources, gamma)

    def test_repeated_ids_are_refused(self):
        with pytest.raises(MembershipError, match="unique"):
            cbv.ClearingProblem.single_class(
                ("a", "a", "b"), np.ones((3, 3)) - np.eye(3), [1.0, 1.0, 1.0])


class TestNetBoundaryFlows:
    def test_full_payment_equals_gross(self):
        problem = cbv.ClearingProblem.single_class(
            ("p", "o"), [[0.0, 40.0], [10.0, 0.0]], [100.0, 100.0]
        )
        outcome = cbv.clear(problem)
        flows = cbv.net_boundary_flows(problem, outcome, cbv.Perimeter({"p"}))
        assert flows.x_po[0, 0] == 40.0
        assert flows.x_op[0, 0] == 10.0

    def test_partial_payment_scales_by_payer_ratio(self):
        problem = cbv.ClearingProblem.single_class(
            ("n1", "n2"), [[0.0, 100.0], [0.0, 0.0]], [60.0, 0.0]
        )
        outcome = cbv.clear(problem)
        flows = cbv.net_boundary_flows(problem, outcome, cbv.Perimeter({"n1"}))
        assert flows.x_po[0, 0] == pytest.approx(60.0, abs=1e-12)

    def test_pyramid_frontier_bond(self):
        # bond B -> outside of 5, fully paid: T_out contribution is 5
        liabilities = np.zeros((2, 2))
        liabilities[0, 1] = 5.0
        problem = cbv.ClearingProblem.single_class(
            ("B", "ext"), liabilities, [10.0, 0.0]
        )
        outcome = cbv.clear(problem)
        flows = cbv.net_boundary_flows(problem, outcome, cbv.Perimeter({"B"}))
        stats = cbv.CutStatistics.from_amounts(
            flows.p_ids, flows.o_ids, b_p=[10.0], x_po=flows.x_po, x_op=flows.x_op,
            clearing_tag="seniority",
        )
        result = cbv.evaluate_regime_a(stats)
        assert result.t_out == 5.0

    def test_internal_rewiring_preserving_nets_preserves_w(self):
        # p1 owes outside 100 and owes p2 internally; rewiring the internal
        # leg leaves the cleared boundary nets, and so W, unchanged
        def build(internal: float) -> cbv.ClearingProblem:
            liabilities = np.zeros((3, 3))
            liabilities[0, 2] = 100.0
            liabilities[0, 1] = internal
            return cbv.ClearingProblem.single_class(
                ("p1", "p2", "o"), liabilities, [200.0, 5.0, 0.0]
            )

        per = cbv.Perimeter({"p1", "p2"})
        flows = []
        values = []
        for internal in (20.0, 80.0):
            problem = build(internal)
            outcome = cbv.clear(problem)
            net = cbv.net_boundary_flows(problem, outcome, per)
            stats = cbv.CutStatistics.from_amounts(
                net.p_ids, net.o_ids, b_p=[50.0, 5.0],
                x_po=net.x_po, x_op=net.x_op, clearing_tag="seniority",
            )
            flows.append(net)
            values.append(cbv.evaluate_regime_a(stats).w)
        np.testing.assert_allclose(flows[0].x_po, flows[1].x_po, atol=1e-12)
        np.testing.assert_allclose(flows[0].x_op, flows[1].x_op, atol=1e-12)
        assert values[0] == values[1]

    def test_matches_tuple_index_lookup_on_shuffled_ids(self, rng):
        for n in (1, 5, 30):
            ids = tuple(f"n{k}" for k in rng.permutation(n))
            liabilities = rng.uniform(0.0, 10.0, size=(n, n)) * (rng.random((n, n)) < 0.4)
            problem = cbv.ClearingProblem.single_class(
                ids, liabilities, rng.uniform(0.0, 20.0, size=n))
            outcome = cbv.clear(problem)
            members = set(rng.choice(ids, size=rng.integers(1, n + 1), replace=False))
            flows = cbv.net_boundary_flows(problem, outcome, cbv.Perimeter(members))
            p_ids = tuple(sorted(members))
            o_ids = tuple(sorted(set(ids) - members))
            p_idx = [ids.index(k) for k in p_ids]
            o_idx = [ids.index(k) for k in o_ids]
            paid = outcome.payout_ratios[0][:, np.newaxis] * problem.liabilities[0]
            assert (flows.p_ids, flows.o_ids) == (p_ids, o_ids)
            np.testing.assert_array_equal(flows.x_po, paid[np.ix_(p_idx, o_idx)])
            np.testing.assert_array_equal(flows.x_op, paid[np.ix_(o_idx, p_idx)])

    def test_dimension_guard(self):
        problem = cbv.ClearingProblem.single_class(
            ("a", "b"), np.zeros((2, 2)), [0.0, 0.0]
        )
        outcome = cbv.clear(problem)
        with pytest.raises(DimensionError):
            cbv.net_boundary_flows(problem, outcome, cbv.Perimeter({"ghost"}))
