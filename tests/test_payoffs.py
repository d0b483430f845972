import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cbv
from cbv.errors import DimensionError, DomainError
from cbv.payoffs import cvar_gains

# All twenty cells of the granularity table: (eps, gamma) -> (delta, segments).
GRANULARITY_TABLE = {
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

CDS_STATES = (
    cbv.State("no_default", 0.95, value=-1.0),
    cbv.State("idiosyncratic_default", 0.04, value=59.0),
    cbv.State("systemic_default", 0.01, value=89.0),
)


class TestPwaFunction:
    def test_identity_segment(self):
        f = cbv.pwa_build([(0.0, 0.0), (1.0, 1.0)])
        assert f(0.3) == pytest.approx(0.3)
        assert f(0.0) == 0.0
        assert f(1.0) == 1.0

    def test_square_sampled_at_three_knots(self):
        f = cbv.pwa_build([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)])
        assert f(0.25) == pytest.approx(0.125)
        assert f(0.5) == 0.25

    def test_knot_at_kink_gives_zero_local_error(self):
        strike = 1.0
        knots = [0.0, 0.5, strike, 1.5, 2.0]
        f = cbv.pwa_build([(x, max(0.0, x - strike)) for x in knots])
        grid = np.linspace(0.0, 2.0, 2001)
        payoff = np.maximum(0.0, grid - strike)
        assert np.abs(f(grid) - payoff).max() == 0.0

    def test_out_of_range_is_error(self):
        f = cbv.pwa_build([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(DomainError):
            f(1.5)

    def test_unsorted_or_duplicate_knots(self):
        with pytest.raises(DomainError):
            cbv.pwa_build([(1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(DomainError):
            cbv.pwa_build([(0.0, 0.0), (0.0, 1.0)])


class TestErrorBound:
    def test_affine_is_exact(self):
        assert cbv.pwa_error_bound(0.0, 0.5) == 0.0

    def test_reference_cell(self):
        assert cbv.pwa_error_bound(1.0, 0.2828) == pytest.approx(0.01, abs=1e-4)

    def test_square_on_uniform_grid(self):
        # f = x^2 on [0, 1], 4 segments: worst chord error is h^2/4 = 1/64,
        # which attains the certified bound (gamma = 2) exactly
        knots = np.linspace(0.0, 1.0, 5)
        f = cbv.pwa_build([(x, x * x) for x in knots])
        grid = np.linspace(0.0, 1.0, 10001)
        measured = np.abs(f(grid) - grid * grid).max()
        assert measured == pytest.approx(1.0 / 64.0, rel=1e-6)
        assert measured <= cbv.pwa_error_bound(2.0, 0.25)

    def test_certification_on_curved_samples(self, rng):
        # any function with |f''| <= gamma: measured error under the bound
        for gamma, fn in ((2.0, lambda x: x * x), (1.0, lambda x: np.cos(x))):
            knots = np.sort(rng.uniform(0.0, 1.0, size=8))
            knots = np.unique(np.concatenate([[0.0], knots, [1.0]]))
            f = cbv.pwa_build([(x, fn(x)) for x in knots])
            grid = np.linspace(0.0, 1.0, 10001)
            measured = np.abs(f(grid) - fn(grid)).max()
            assert measured <= cbv.pwa_error_bound(gamma, f.max_step) + 1e-12

    @pytest.mark.parametrize("gamma,delta", [
        (float("nan"), 0.1), (float("inf"), 0.1), (-1.0, 0.1),
        (1.0, float("nan")), (1.0, float("inf")), (1.0, 0.0), (1.0, -0.1),
    ])
    def test_invalid_inputs(self, gamma, delta):
        # a NaN curvature gave a NaN bound
        with pytest.raises(DomainError):
            cbv.pwa_error_bound(gamma, delta)

    def test_convex_interpolant_overestimates(self):
        knots = np.linspace(0.0, 1.0, 6)
        f = cbv.pwa_build([(x, x * x) for x in knots])
        grid = np.linspace(0.0, 1.0, 501)
        assert (f(grid) - grid * grid >= -1e-12).all()


class TestGranularity:
    @pytest.mark.parametrize("cell", sorted(GRANULARITY_TABLE))
    def test_table_cell(self, cell):
        eps, gamma = cell
        expected_delta, expected_n = GRANULARITY_TABLE[cell]
        result = cbv.delta_max(eps, gamma)
        assert result.delta_max == pytest.approx(expected_delta, abs=1e-4)
        assert result.segments == expected_n

    def test_formula(self):
        result = cbv.delta_max(0.01, 1.0)
        assert result.delta_max == pytest.approx(math.sqrt(0.08), rel=1e-12)

    @pytest.mark.parametrize("eps,gamma", [
        (0.0, 1.0), (0.01, 0.0), (-0.01, 1.0), (0.01, -1.0),
        (float("nan"), 1.0), (0.01, float("nan")), (float("inf"), 1.0), (0.01, float("inf")),
        (1e-300, 1e300),  # the step underflows to 0
        (1e300, 1e-300),  # the step overflows to inf
    ])
    def test_invalid_inputs(self, eps, gamma):
        # an infinite eps gave zero segments, a NaN or a step of 0 a raw
        # ValueError or ZeroDivisionError
        with pytest.raises(DomainError):
            cbv.delta_max(eps, gamma)


class TestWaterfall:
    @pytest.mark.parametrize(
        "inflow,senior,junior",
        [(60.0, 60.0, 0.0), (90.0, 90.0, 0.0), (150.0, 100.0, 50.0), (0.0, 0.0, 0.0)],
    )
    def test_reference_rows(self, inflow, senior, junior):
        split = cbv.eval_waterfall(inflow, 100.0)
        assert split.senior == senior
        assert split.junior == junior

    def test_negative_inflow(self):
        with pytest.raises(DomainError):
            cbv.eval_waterfall(-1.0, 100.0)

    @given(st.floats(min_value=0.0, max_value=1e9),
           st.floats(min_value=0.0, max_value=1e9))
    def test_conservation(self, x, cap):
        split = cbv.eval_waterfall(x, cap)
        assert split.senior + split.junior == pytest.approx(x, rel=1e-12, abs=1e-12)
        assert 0.0 <= split.senior <= cap or cap == 0.0


class TestCvar:
    def test_cds_tail(self):
        values = [-1.0, 59.0, 89.0]
        weights = [0.95, 0.04, 0.01]
        assert cvar_gains(values, weights, 0.95) == -1.0

    def test_atom_splitting(self):
        # tail mass 0.25 takes all of the -10 atom (0.2) and 0.05 of the 0 atom
        values = [-10.0, 0.0, 10.0]
        weights = [0.2, 0.3, 0.5]
        expected = (0.2 * -10.0 + 0.05 * 0.0) / 0.25
        assert cvar_gains(values, weights, 0.75) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_tail_rejected(self):
        with pytest.raises(DomainError):
            cvar_gains([1.0], [1.0], 1.0)


class TestSclEvaluate:
    def test_cds_expectation(self):
        space = cbv.StateSpace(CDS_STATES)
        result = cbv.scl_evaluate(space, cbv.AggregatorPolicy("expectation_q"))
        assert result.aggregate == pytest.approx(2.30, abs=1e-12)
        assert result.per_state["idiosyncratic_default"] == 59.0

    def test_cds_cvar(self):
        space = cbv.StateSpace(CDS_STATES)
        result = cbv.scl_evaluate(space, cbv.AggregatorPolicy("cvar", alpha=0.95))
        assert result.aggregate == -1.0

    def test_single_state_every_policy(self):
        space = cbv.StateSpace((cbv.State("only", 1.0, value=7.5),))
        policies = [
            cbv.AggregatorPolicy("expectation_q"),
            cbv.AggregatorPolicy("cvar", alpha=0.5),
            cbv.AggregatorPolicy("worst_case", worst_states=("only",)),
            cbv.AggregatorPolicy("kusuoka_mix", levels=((0.5, 1.0),)),
            cbv.AggregatorPolicy("sdf_physical", sdf_weights={"only": 1.0}),
        ]
        for policy in policies:
            assert cbv.scl_evaluate(space, policy).aggregate == 7.5

    def test_states_carrying_cut_statistics(self, stats_a, stats_b):
        space = cbv.StateSpace((
            cbv.State("observed", 0.5, stats=stats_a),
            cbv.State("estimated", 0.5, stats=stats_b),
        ))
        result = cbv.scl_evaluate(space, cbv.AggregatorPolicy("expectation_q"))
        expected = 0.5 * cbv.evaluate_regime_a(stats_a).w \
            + 0.5 * cbv.evaluate_regime_b(stats_b).w
        assert result.aggregate == pytest.approx(expected, rel=1e-12)

    def test_sdf_physical_weighting(self):
        space = cbv.StateSpace((
            cbv.State("up", 0.5, value=10.0),
            cbv.State("down", 0.5, value=-10.0),
        ))
        policy = cbv.AggregatorPolicy("sdf_physical",
                                      sdf_weights={"up": 0.9, "down": 1.1})
        assert cbv.scl_evaluate(space, policy).aggregate == pytest.approx(
            0.5 * 0.9 * 10.0 + 0.5 * 1.1 * -10.0, rel=1e-12
        )

    def test_worst_case_subset(self):
        space = cbv.StateSpace(CDS_STATES)
        policy = cbv.AggregatorPolicy(
            "worst_case", worst_states=("no_default", "systemic_default")
        )
        assert cbv.scl_evaluate(space, policy).aggregate == -1.0
        with pytest.raises(DomainError):
            cbv.scl_evaluate(
                space, cbv.AggregatorPolicy("worst_case", worst_states=("ghost",))
            )

    def test_kusuoka_mix_is_cvar_mixture(self):
        space = cbv.StateSpace(CDS_STATES)
        values = [s.value for s in CDS_STATES]
        weights = [s.weight for s in CDS_STATES]
        policy = cbv.AggregatorPolicy(
            "kusuoka_mix", levels=((0.9, 0.4), (0.5, 0.6))
        )
        expected = 0.4 * cvar_gains(values, weights, 0.9) \
            + 0.6 * cvar_gains(values, weights, 0.5)
        assert cbv.scl_evaluate(space, policy).aggregate == pytest.approx(
            expected, rel=1e-12
        )


class TestAggregatorProperties:
    POLICIES = (
        cbv.AggregatorPolicy("expectation_q"),
        cbv.AggregatorPolicy("cvar", alpha=0.8),
        cbv.AggregatorPolicy("worst_case", worst_states=("s0", "s1", "s2")),
        cbv.AggregatorPolicy("kusuoka_mix", levels=((0.7, 0.5), (0.3, 0.5))),
        cbv.AggregatorPolicy("sdf_physical",
                             sdf_weights={"s0": 0.8, "s1": 1.0, "s2": 1.2}),
    )

    @staticmethod
    def space(values):
        return cbv.StateSpace(tuple(
            cbv.State(f"s{k}", w, value=v)
            for k, (w, v) in enumerate(zip((0.2, 0.5, 0.3), values))
        ))

    def test_monotone_in_every_state(self, rng):
        for policy in self.POLICIES:
            for _ in range(20):
                values = rng.uniform(-50, 50, size=3)
                raised = values.copy()
                bump_index = rng.integers(0, 3)
                raised[bump_index] += rng.uniform(0.1, 20.0)
                low = cbv.scl_evaluate(self.space(values), policy).aggregate
                high = cbv.scl_evaluate(self.space(raised), policy).aggregate
                assert high >= low - 1e-12

    def test_translation_invariance(self, rng):
        cash_additive = [p for p in self.POLICIES
                         if p.kind in ("expectation_q", "cvar", "worst_case")]
        for policy in cash_additive:
            values = rng.uniform(-50, 50, size=3)
            shift = 12.5
            base = cbv.scl_evaluate(self.space(values), policy).aggregate
            moved = cbv.scl_evaluate(self.space(values + shift), policy).aggregate
            assert moved == pytest.approx(base + shift, rel=1e-12, abs=1e-9)

    def test_lipschitz_transfer(self, rng):
        bounded = [p for p in self.POLICIES
                   if p.kind in ("expectation_q", "cvar", "worst_case")]
        for policy in bounded:
            for _ in range(10):
                values = rng.uniform(-50, 50, size=3)
                noise = rng.uniform(-1.0, 1.0, size=3)
                base = cbv.scl_evaluate(self.space(values), policy).aggregate
                moved = cbv.scl_evaluate(self.space(values + noise), policy).aggregate
                assert abs(moved - base) <= np.abs(noise).max() + 1e-12


class TestStateSpaceValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            cbv.StateSpace((cbv.State("a", 0.5, value=1.0),))

    def test_duplicate_labels(self):
        with pytest.raises(DomainError):
            cbv.StateSpace((
                cbv.State("a", 0.5, value=1.0), cbv.State("a", 0.5, value=2.0),
            ))

    def test_state_needs_value_or_stats(self):
        with pytest.raises(DomainError):
            cbv.State("a", 1.0)
