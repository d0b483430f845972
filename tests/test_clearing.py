import itertools

import numpy as np
import pytest

import cbv
from cbv.errors import ConvergenceError, DimensionError, DomainError, MembershipError

from conftest import iterate_once, picard_clear


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


def two_class_problem(n: int, gamma: float, zero_class, seed: int) -> cbv.ClearingProblem:
    """Seeded sparse two-class network in default: node n0 owes nothing and,
    when zero_class is 0 or 1, that class holds no liabilities at all."""
    rng = np.random.default_rng(seed)
    classes = []
    for k in range(2):
        mat = rng.lognormal(2.0, 0.5, size=(n, n)) * (rng.random((n, n)) < 0.08)
        np.fill_diagonal(mat, 0.0)
        mat[0] = 0.0
        classes.append(np.zeros((n, n)) if k == zero_class else mat)
    dues = sum(mat.sum(axis=1) for mat in classes)
    return cbv.ClearingProblem(
        node_ids=tuple(f"n{k}" for k in range(n)),
        liabilities=tuple(classes),
        resources=0.3 * dues * rng.uniform(0.5, 1.5, size=n),
        default_costs=np.full((2, n), gamma),
    )


def brute_force_fixed_points(problem, grids, tol):
    """Lattice search: every grid combination close to a fixed point."""
    dues = problem.gross_dues
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
            dues = problem.gross_dues
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

    @pytest.mark.parametrize("n", [60, 200])
    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    @pytest.mark.parametrize("zero_class", [None, 0, 1])
    def test_sparse_sweeps_match_dense_picard(self, n, gamma, zero_class):
        problem = two_class_problem(n, gamma, zero_class, seed=n + 7)
        dues = problem.gross_dues
        owes = dues > 0
        scale = float(dues.max())
        assert not owes[:, 0].any()
        outcomes = {}
        for selection in ("greatest", "least"):
            outcome = cbv.clear(problem, selection=selection)
            np.testing.assert_allclose(outcome.payments, picard_clear(problem, selection),
                                       rtol=1e-9, atol=1e-9 * scale)
            gap = np.abs(iterate_once(problem, outcome.payments) - outcome.payments).max()
            assert gap <= 1e-9 * scale
            # payout ratios are exactly p / dues, and 1 where nothing is owed
            np.testing.assert_array_equal(outcome.payout_ratios[owes],
                                          outcome.payments[owes] / dues[owes])
            assert (outcome.payout_ratios[~owes] == 1.0).all()
            outcomes[selection] = outcome
        assert (outcomes["least"].payments <= outcomes["greatest"].payments + 1e-9 * scale).all()
        assert (outcomes["greatest"].payout_ratios < 1.0).any(), "no node defaulted"

    def test_clears_reuse_the_problems_dues_and_operator(self, monkeypatch):
        # one scan of the liabilities per problem, whichever selections run;
        # each outcome is the one a fresh problem gives, bit for bit
        fresh = {selection: cbv.clear(two_class_problem(200, 0.1, None, seed=207), selection)
                 for selection in ("greatest", "least")}
        problem = two_class_problem(200, 0.1, None, seed=207)
        built = []
        inflow = cbv.clearing._inflow
        monkeypatch.setattr(cbv.clearing, "_inflow", lambda p: built.append(p) or inflow(p))
        for selection in ("greatest", "least", "greatest"):
            outcome = cbv.clear(problem, selection)
            for name in ("payments", "payout_ratios"):
                np.testing.assert_array_equal(getattr(outcome, name).view(np.uint64),
                                              getattr(fresh[selection], name).view(np.uint64))
            assert outcome.iterations == fresh[selection].iterations
        assert built == [problem]
        assert problem.gross_dues is problem.gross_dues
        assert not problem.gross_dues.flags.writeable

    def test_liabilities_are_read_only_copies(self):
        liabilities = np.zeros((3, 3))
        liabilities[0, 1], liabilities[1, 2] = 100.0, 50.0
        problem = cbv.ClearingProblem(("n1", "n2", "n3"), (liabilities,),
                                      np.array([30.0, 0.0, 0.0]), np.zeros((1, 3)))
        before = cbv.clear(problem).payments
        liabilities[0, 1] = 0.0  # the caller's later write reaches neither the problem nor its cache
        assert problem.liabilities[0][0, 1] == 100.0
        np.testing.assert_array_equal(cbv.clear(problem).payments, before)
        np.testing.assert_array_equal(problem.gross_dues, [[100.0, 50.0, 0.0]])
        with pytest.raises(ValueError):
            problem.liabilities[0][0, 1] = 1.0

    @pytest.mark.parametrize("kwargs", [
        {"eps": float("inf")}, {"eps": float("nan")}, {"eps": 0.0}, {"eps": -1e-12},
        {"max_iters": 0}, {"max_iters": 2.5}, {"max_iters": "10"}, {"selection": "middle"},
    ], ids=["eps-inf", "eps-nan", "eps-zero", "eps-negative", "iters-zero", "iters-float",
            "iters-str", "selection"])
    def test_refuses_bad_iteration_settings(self, kwargs):
        with pytest.raises(DomainError):
            cbv.clear(chain_problem(), **kwargs)

    @pytest.mark.parametrize("fields, error, message", [
        ({"node_ids": ("n1", "n1", "n3")}, MembershipError, "unique"),
        ({"liabilities": ()}, DomainError, "at least one liability class"),
        ({"liabilities": (np.zeros((3, 2)),)}, DimensionError, "class 1 liabilities must be 3x3"),
        ({"resources": [30.0, 0.0]}, DimensionError, "one entry per node"),
        ({"default_costs": [0.0, 0.5, 0.0]}, DimensionError, r"\(classes, nodes\)"),
    ], ids=["repeated-id", "no-class", "liability-shape", "resources-shape", "costs-shape"])
    def test_refuses_malformed_problems(self, fields, error, message):
        with pytest.raises(error, match=message):
            chain_problem().replace(**fields)

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
            classes = tuple(
                rng.uniform(0.0, 10.0, size=(n, n)) * (rng.random((n, n)) < 0.4)
                for _ in range(2))
            problem = cbv.ClearingProblem(
                node_ids=ids, liabilities=classes,
                resources=rng.uniform(0.0, 20.0, size=n), default_costs=np.zeros((2, n)))
            outcome = cbv.clear(problem)
            members = set(rng.choice(ids, size=rng.integers(1, n + 1), replace=False))
            flows = cbv.net_boundary_flows(problem, outcome, cbv.Perimeter(members))
            p_ids = tuple(sorted(members))
            o_ids = tuple(sorted(set(ids) - members))
            p_idx = [ids.index(k) for k in p_ids]
            o_idx = [ids.index(k) for k in o_ids]
            # scale each full class by its payer's ratios, then slice: bit for bit
            paid = [ratios[:, np.newaxis] * mat
                    for ratios, mat in zip(outcome.payout_ratios, classes)]
            assert (flows.p_ids, flows.o_ids) == (p_ids, o_ids)
            np.testing.assert_array_equal(
                flows.x_po, sum(m[np.ix_(p_idx, o_idx)] for m in paid))
            np.testing.assert_array_equal(
                flows.x_op, sum(m[np.ix_(o_idx, p_idx)] for m in paid))

    def test_dimension_guard(self):
        problem = cbv.ClearingProblem.single_class(
            ("a", "b"), np.zeros((2, 2)), [0.0, 0.0]
        )
        outcome = cbv.clear(problem)
        with pytest.raises(MembershipError, match=r"perimeter ids not cleared here: \['ghost'\]"):
            cbv.net_boundary_flows(problem, outcome, cbv.Perimeter({"a", "ghost"}))
        other = cbv.clear(cbv.ClearingProblem.single_class(("a", "c"), np.zeros((2, 2)), [0.0, 0.0]))
        with pytest.raises(DimensionError, match="different node sets"):
            cbv.net_boundary_flows(problem, other, cbv.Perimeter({"a"}))
