import numpy as np
import pytest
from hypothesis import given, strategies as st

import cbv
from cbv.errors import DomainError, ProtocolError, SignError
from cbv.fisher import component_sign_indices

from conftest import example_stats

# Prices/quantities for the two-country, two-good comparison.
P_HOME = (10.0, 5.0)
P_FOREIGN_CONVERTED = (6.667, 5.0)
Q_HOME = (1.0, 2.0)
Q_FOREIGN = (1.5, 1.5)
FX = 1.2


def observer(regime="A", kappa=1.0, date="2025-01-01"):
    fx = cbv.FxPppSpec(scale=kappa) if kappa != 1.0 else None
    return cbv.Observer(
        perimeter_ref="P", units="EUR", date=date, regime=regime,
        control_rule=cbv.ControlRuleSpec(), fx_ppp=fx,
    )


class TestCrossPricedQuad:
    def test_identical_observers_collapse(self, stats_a):
        obs = observer()
        quad = cbv.cross_priced_quad(stats_a, stats_a, obs, obs)
        assert quad.w_curr_prev_obs == quad.w_curr_curr_obs
        assert quad.w_prev_prev_obs == quad.w_prev_curr_obs

    def test_scaled_observer_scales_cells(self, stats_a):
        quad = cbv.cross_priced_quad(stats_a, stats_a, observer(), observer(kappa=1.3))
        assert quad.w_prev_curr_obs == pytest.approx(
            1.3 * quad.w_prev_prev_obs, rel=1e-12
        )
        assert quad.w_curr_curr_obs == pytest.approx(
            1.3 * quad.w_curr_prev_obs, rel=1e-12
        )

    def test_volume_only_change(self, stats_a):
        grown = cbv.CutStatistics(
            p_ids=stats_a.p_ids, o_ids=stats_a.o_ids,
            b_p=stats_a.b_p * 1.1, v_o=stats_a.v_o, v_p=stats_a.v_p,
            o_po=stats_a.o_po, o_op=stats_a.o_op, o_pp=stats_a.o_pp,
        )
        quad = cbv.cross_priced_quad(stats_a, grown, observer(), observer())
        indices = cbv.fisher_indices(quad)
        assert indices.ip_l == 1.0
        assert indices.ip_p == 1.0
        assert indices.ip_f == 1.0
        assert indices.iv_f > 1.0
        assert indices.g_f == indices.iv_f

    def test_regime_mismatch_rejected(self, stats_a):
        with pytest.raises(ProtocolError):
            cbv.cross_priced_quad(stats_a, stats_a, observer("A"), observer("B"))

    def test_clearing_mix_rejected(self, stats_a):
        post = cbv.CutStatistics.from_amounts(
            ("A",), ("X",), b_p=[1.0], x_po=[[2.0]], x_op=[[1.0]],
            clearing_tag="seniority",
        )
        with pytest.raises(ProtocolError):
            cbv.cross_priced_quad(stats_a, post, observer(), observer())

    def test_turnover_excluded_and_flagged(self, stats_a):
        wider = cbv.CutStatistics(
            p_ids=("A", "B", "C", "D"), o_ids=("X", "Y"),
            b_p=[25.0, 35.0, 30.0, 99.0], v_o=stats_a.v_o,
            v_p=[52.0, 48.0, 30.0, 11.0],
            o_po=np.vstack([stats_a.o_po, [0.0, 0.0]]),
            o_op=np.hstack([stats_a.o_op, [[0.0], [0.0]]]),
        )
        quad = cbv.cross_priced_quad(wider, stats_a, observer(), observer())
        assert quad.excluded_nodes == ("D",)
        assert quad.w_prev_prev_obs == quad.w_curr_curr_obs

    def test_regime_b_quad(self, stats_b):
        quad = cbv.cross_priced_quad(
            stats_b, stats_b, observer("B"), observer("B", kappa=2.0)
        )
        assert quad.w_prev_curr_obs == pytest.approx(
            2.0 * quad.w_prev_prev_obs, rel=1e-12
        )


class TestIndices:
    def test_all_equal_gives_unit_indices(self):
        quad = cbv.FisherQuad(50.0, 50.0, 50.0, 50.0)
        indices = cbv.fisher_indices(quad)
        assert indices.iv_l == indices.ip_l == indices.iv_p == indices.ip_p == 1.0
        assert indices.g_f == 1.0

    def test_direct_ratios(self):
        quad = cbv.FisherQuad(100.0, 110.0, 102.0, 112.2)
        indices = cbv.elementary_indices(quad)
        assert indices.iv_l == pytest.approx(1.10, rel=1e-12)
        assert indices.ip_l == pytest.approx(1.02, rel=1e-12)
        assert indices.iv_p == pytest.approx(112.2 / 102.0, rel=1e-12)
        assert indices.ip_p == pytest.approx(112.2 / 110.0, rel=1e-12)
        combined = cbv.fisher_combine(indices)
        assert combined.g_f == pytest.approx(1.122, rel=1e-12)

    def test_telescoping_identity(self, rng):
        for _ in range(20):
            cells = rng.uniform(10.0, 200.0, size=4)
            quad = cbv.FisherQuad(*cells)
            indices = cbv.fisher_indices(quad)
            assert indices.g_f == pytest.approx(
                quad.w_curr_curr_obs / quad.w_prev_prev_obs, rel=1e-12
            )
            assert indices.iv_l * indices.ip_p == pytest.approx(
                indices.iv_p * indices.ip_l, rel=1e-12
            )
            assert indices.iv_f ** 2 == pytest.approx(
                indices.iv_l * indices.iv_p, rel=1e-12
            )

    def test_time_reversal(self, rng):
        cells = rng.uniform(10.0, 200.0, size=4)
        fwd = cbv.FisherQuad(cells[0], cells[1], cells[2], cells[3])
        rev = cbv.FisherQuad(cells[3], cells[2], cells[1], cells[0])
        g_fwd = cbv.fisher_indices(fwd).g_f
        g_rev = cbv.fisher_indices(rev).g_f
        assert g_fwd * g_rev == pytest.approx(1.0, rel=1e-12)

    def test_nonpositive_cell_raises_with_diagnostics(self):
        quad = cbv.FisherQuad(100.0, -5.0, 102.0, 110.0)
        with pytest.raises(SignError) as err:
            cbv.elementary_indices(quad)
        assert err.value.diagnostics["w_curr_prev_obs"] == -5.0

    def test_component_fallback(self, stats_a):
        shrunk = cbv.CutStatistics(
            p_ids=stats_a.p_ids, o_ids=stats_a.o_ids,
            b_p=stats_a.b_p * 0.5, v_o=stats_a.v_o, v_p=stats_a.v_p,
            o_po=stats_a.o_po, o_op=stats_a.o_op,
        )
        quad = cbv.cross_priced_quad(stats_a, shrunk, observer(), observer())
        fallback = component_sign_indices(quad)
        assert fallback.base_multiplier == pytest.approx(0.5, rel=1e-12)
        assert fallback.t_out_multiplier == 1.0
        assert fallback.sign_prev == fallback.sign_curr == 1

    def test_component_fallback_on_zero_components(self, stats_a):
        # a component that is zero in both periods has multiplier 1; one that
        # appears from zero has no ratio
        no_out = stats_a.replace(o_po=np.zeros_like(stats_a.o_po))
        quad = cbv.cross_priced_quad(no_out, no_out, observer(), observer())
        assert component_sign_indices(quad).t_out_multiplier == 1.0
        quad = cbv.cross_priced_quad(no_out, stats_a, observer(), observer())
        with pytest.raises(SignError, match="zero previous component") as err:
            component_sign_indices(quad)
        assert err.value.diagnostics == {"prev": 0.0, "curr": quad.results[3].t_out}

    def test_component_fallback_needs_the_quads_results(self):
        with pytest.raises(DomainError, match="four results that cross_priced_quad keeps"):
            component_sign_indices(cbv.FisherQuad(100.0, 110.0, 102.0, 112.2))


class TestChainLink:
    def test_empty_series(self):
        assert cbv.chain_link([]) == [1.0]

    def test_two_periods(self):
        levels = cbv.chain_link([1.10, 1.122])
        assert levels == pytest.approx([1.0, 1.10, 1.2342], rel=1e-12)

    def test_constant_price_series_telescopes(self, stats_a):
        # three periods, volumes growing, observer unchanged: the chained
        # level equals W_T / W_0
        periods = [stats_a]
        for factor in (1.07, 1.12):
            prev = periods[-1]
            periods.append(cbv.CutStatistics(
                p_ids=prev.p_ids, o_ids=prev.o_ids, b_p=prev.b_p * factor,
                v_o=prev.v_o, v_p=prev.v_p, o_po=prev.o_po, o_op=prev.o_op,
            ))
        multipliers = []
        for prev, curr in zip(periods, periods[1:]):
            quad = cbv.cross_priced_quad(prev, curr, observer(), observer())
            multipliers.append(cbv.fisher_indices(quad).g_f)
        levels = cbv.chain_link(multipliers)
        w0 = cbv.evaluate_regime_a(periods[0]).w
        w2 = cbv.evaluate_regime_a(periods[-1]).w
        assert levels[-1] == pytest.approx(w2 / w0, rel=1e-12)

    @given(st.lists(st.floats(min_value=0.5, max_value=2.0), max_size=8))
    def test_levels_are_cumulative_products(self, multipliers):
        levels = cbv.chain_link(multipliers)
        assert len(levels) == len(multipliers) + 1
        for k, g in enumerate(multipliers):
            assert levels[k + 1] == pytest.approx(levels[k] * g, rel=1e-12)

    def test_nonpositive_multiplier(self):
        with pytest.raises(DomainError):
            cbv.chain_link([1.1, 0.0])


class TestBilateralGoods:
    def test_reference_values(self):
        result = cbv.bilateral_goods_index(
            P_HOME, P_FOREIGN_CONVERTED, Q_HOME, Q_FOREIGN
        )
        assert result.laspeyres == pytest.approx(0.833, abs=5e-4)
        assert result.paasche == pytest.approx(0.778, abs=5e-4)
        assert result.fisher == pytest.approx(0.805, abs=5e-4)

    def test_identity_when_prices_unchanged(self):
        result = cbv.bilateral_goods_index(P_HOME, P_HOME, Q_HOME, Q_FOREIGN)
        assert result.laspeyres == result.paasche == result.fisher == 1.0

    def test_currency_invariance(self):
        eur = cbv.bilateral_goods_index(P_HOME, P_FOREIGN_CONVERTED, Q_HOME, Q_FOREIGN)
        usd = cbv.bilateral_goods_index(
            tuple(FX * p for p in P_HOME),
            tuple(FX * p for p in P_FOREIGN_CONVERTED),
            Q_HOME, Q_FOREIGN,
        )
        assert usd.laspeyres == pytest.approx(eur.laspeyres, rel=1e-12)
        assert usd.paasche == pytest.approx(eur.paasche, rel=1e-12)
        assert usd.fisher == pytest.approx(eur.fisher, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(cbv.DimensionError):
            cbv.bilateral_goods_index((1.0,), (1.0, 2.0), (1.0,), (1.0,))
