from dataclasses import astuple

import numpy as np
import pytest

import cbv
from cbv.errors import DomainError

from conftest import (
    O_PO,
    example_stats,
    observed_regime_a_deltas,
    observed_regime_b_deltas,
    random_regime_stats,
    random_share_matrix,
    reference_induced_norm,
    reference_inverse_norm,
    reference_mixed_norm,
    reference_regime_b_bound,
    sample_perturbations,
    tiny_edge_stats,
    two_cycle_chain_stats,
)

NORMS = (1.0, 2.0, float("inf"))


def holding_stats(n: int = 101) -> cbv.CutStatistics:
    """The holding company p000 owns half of each of its n - 1 subsidiaries.

    rho(O_PP) = 0 and (I - O_PP)^-1 = I + O_PP, yet ||O_PP||_2 = 5 and
    ||O_PP||_inf = 50.  Two outside holders own part of every node.
    """
    o_pp = np.zeros((n, n))
    o_pp[0, 1:] = 0.5
    return cbv.CutStatistics(
        p_ids=tuple(f"p{k:03d}" for k in range(n)), o_ids=("x", "y"),
        b_p=np.linspace(1.0, 2.0, n), v_o=[40.0, 25.0],
        o_po=np.full((n, 2), 0.01), o_op=np.full((2, n), 0.2), o_pp=o_pp,
    )


def near_unit_loop(stats: cbv.CutStatistics) -> cbv.CutStatistics:
    """`stats` with a 2-cycle owned at 0.995 between its first two nodes."""
    o_pp = stats.o_pp.copy()
    o_pp[0, 1] = o_pp[1, 0] = 0.995
    return stats.replace(o_pp=o_pp)


def symmetric_stats(t: float) -> cbv.CutStatistics:
    return cbv.CutStatistics(
        p_ids=("p1", "p2"), o_ids=(), b_p=[100.0, 50.0],
        o_pp=[[0.0, t], [t, 0.0]],
    )


def reference_band(stats, noise, draws, seed, metric="consolidated", cfg=None,
                   entries=None):
    """Per-probe reference loop for `monte_carlo_band`.

    Each probe shifts its entries one at a time, is a fresh CutStatistics
    holding full copies of every block, and is valued by the public
    `evaluate_regime_b` (or `estimate_internal_values` for the internal
    total): (min, max, evaluated, excluded).
    """
    if entries is None:
        rows, cols = np.nonzero(stats.o_pp)
        entries = list(zip(rows.tolist(), cols.tolist()))

    def shifted(offsets):
        o_pp = stats.o_pp.copy()
        for (i, j), off in zip(entries, offsets):
            o_pp[i, j] += off
        return o_pp

    probes = [shifted([0.0] * len(entries))]
    if noise > 0.0 and entries:
        probes.append(shifted([noise] * len(entries)))
        probes.append(shifted([-noise] * len(entries)))
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        probes.append(shifted(rng.uniform(-noise, noise, size=len(entries))))

    values, excluded = [], 0
    for o_pp in probes:
        probe = cbv.CutStatistics(
            p_ids=stats.p_ids, o_ids=stats.o_ids, b_p=stats.b_p.copy(),
            v_o=stats.v_o.copy(), o_po=stats.o_po.copy(), o_op=stats.o_op.copy(),
            o_pp=o_pp,
        )
        try:
            if metric == "internal_total":
                values.append(float(cbv.estimate_internal_values(probe, cfg)[0].sum()))
            else:
                values.append(cbv.evaluate_regime_b(probe, cfg).w)
        except cbv.StabilityError:
            excluded += 1
    return min(values), max(values), len(values), excluded


class TestBoundaryBound:
    def test_zero_perturbation(self):
        spec = cbv.PerturbationSpec(p=2, eta=0.0, eps=0.0)
        assert cbv.boundary_bound(spec, np.array(O_PO), 3).bound == 0.0

    def test_inf_norm_worked_example(self):
        spec = cbv.PerturbationSpec(p="inf", eta=1.0, eps=1.0)
        report = cbv.boundary_bound(spec, np.array(O_PO), 3)
        # |P| * eta + (total edge weight) * eps
        assert report.bound == pytest.approx(3.0 + 0.14, abs=1e-12)

    def test_one_norm_worked_example(self):
        spec = cbv.PerturbationSpec(p=1, eta=0.0, eps=1.0)
        report = cbv.boundary_bound(spec, np.array(O_PO), 3)
        # max column sum of O_PO
        assert report.bound == pytest.approx(0.08, abs=1e-12)

    def test_two_norm_reports_loose_variant(self):
        spec = cbv.PerturbationSpec(p=2, eta=1.0, eps=1.0)
        report = cbv.boundary_bound(spec, np.array(O_PO), 3)
        assert report.loose_bound is not None
        assert report.bound <= report.loose_bound + 1e-12

    def test_bad_norm_selector(self):
        with pytest.raises(DomainError):
            cbv.PerturbationSpec(p=3)

    @pytest.mark.parametrize("size", ["eta", "eps"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_perturbation_size_refused(self, size, value):
        # eta = nan was accepted, and regime_b_bound then certified bound = nan
        with pytest.raises(DomainError, match="eta and eps must be finite and >= 0"):
            cbv.PerturbationSpec(p=1, **{size: value})

    @pytest.mark.parametrize("p", NORMS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_refused(self, p, value):
        # a NaN gave bound = nan at p = 1 and numpy's LinAlgError at p = 2
        o_po = np.array(O_PO)
        o_po[1, 0] = value
        q = cbv.PerturbationSpec(p=p).q
        for call in (lambda: cbv.boundary_bound(cbv.PerturbationSpec(p, 1.0, 1.0), o_po, 3),
                     lambda: reference_induced_norm(o_po, p),
                     lambda: reference_mixed_norm(o_po, q, p)):
            with pytest.raises(DomainError, match="not finite"):
                call()

    def test_corollary_ordering_on_instances(self, rng):
        # with equal eta/eps the p=1 corollary is the tightest of the three
        # on these share matrices (checked per instance, not asserted as a law)
        for _ in range(10):
            o_po = rng.uniform(0, 0.3, size=(4, 3))
            tight = cbv.boundary_bound(cbv.PerturbationSpec(1, 1.0, 1.0), o_po, 4)
            wide = cbv.boundary_bound(cbv.PerturbationSpec("inf", 1.0, 1.0), o_po, 4)
            assert tight.bound <= wide.bound + 1e-12


class TestRegimeBBound:
    def test_reduces_to_boundary_without_minorities(self, rng):
        stats = cbv.CutStatistics(
            p_ids=("a", "b"), o_ids=("x",), b_p=[1.0, 2.0], v_o=[10.0],
            o_po=[[0.1], [0.2]], o_op=[[0.0, 0.0]], o_pp=[[0.0, 0.1], [0.1, 0.0]],
        )
        spec = cbv.PerturbationSpec(p="inf", eta=1.0, eps=1.0)
        full = cbv.regime_b_bound(spec, stats)
        base = cbv.boundary_bound(spec, stats.o_po, 2)
        assert full.extension_term == 0.0
        assert full.bound == base.bound

    def test_symmetric_inverse_norm(self):
        # (I - [[0, t], [t, 0]])^-1 = [[1, t], [t, 1]] / (1 - t^2): row sums 1/(1 - t)
        assert reference_inverse_norm(np.array([[0.0, 0.8], [0.8, 0.0]]), float("inf")) == (
            pytest.approx(5.0, rel=1e-12)
        )

    @pytest.mark.parametrize("block", ["o_pp", "o_po", "o_op"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_refused(self, block, value):
        stats = example_stats()
        corrupted = np.array(getattr(stats, block))
        corrupted[0, 0] = value
        stats = stats.replace(**{block: corrupted})
        for p in NORMS:
            with pytest.raises(DomainError, match="not finite"):
                cbv.regime_b_bound(cbv.PerturbationSpec(p=p, eta=1.0, eps=1.0), stats)
            if block == "o_pp":
                with pytest.raises(DomainError, match="not finite"):
                    reference_inverse_norm(corrupted, p)

    def test_mixed_norm_cases(self):
        a = np.array([[0.5, 0.2], [0.1, 0.0]])
        assert reference_mixed_norm(a, float("inf"), 1.0) == 0.5
        assert reference_mixed_norm(a, 1.0, float("inf")) == pytest.approx(0.8)
        assert reference_mixed_norm(a, 2.0, 2.0) == pytest.approx(np.linalg.norm(a, 2))

    @pytest.mark.parametrize("p", NORMS)
    @pytest.mark.parametrize("instance", ["holding-101", "random-2-1", "random-5-4",
                                          "random-40-7", "random-120-30"])
    def test_held_edge_bound_matches_dense_reference(self, instance, p):
        # the bound priced from held edges is the dense one on share blocks:
        # one solve against the ones vector gives the inverse's exact norm
        kind, *sizes = instance.split("-")
        if kind == "holding":
            stats = holding_stats(int(sizes[0]))
        else:
            n_p, n_o = map(int, sizes)
            stats = random_regime_stats(np.random.default_rng(n_p), n_p=n_p, n_o=n_o)
        spec = cbv.PerturbationSpec(p=p, eta=0.8, eps=1.3)
        got, want = cbv.regime_b_bound(spec, stats), reference_regime_b_bound(spec, stats)
        for term in ("bound", "eta_term", "eps_term", "extension_term", "loose_bound"):
            if getattr(want, term) is None:
                assert getattr(got, term) is None, term
            else:
                assert getattr(got, term) == pytest.approx(getattr(want, term), rel=1e-12), term
        n_p = len(stats.p_ids)
        assert cbv.boundary_bound(spec, stats.held("o_po"), n_p) == cbv.boundary_bound(
            spec, stats.o_po, n_p)

    def test_two_norm_bound_takes_one_svd_of_o_po(self, monkeypatch):
        # the loose form and the extension term read the same ||O_PO||_2
        stats = random_regime_stats(np.random.default_rng(30), n_p=30, n_o=50)
        spec = cbv.PerturbationSpec(p=2.0, eta=0.8, eps=1.3)
        want = cbv.regime_b_bound(spec, stats)
        norm, shapes = np.linalg.norm, []

        def counting(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                shapes.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        got = cbv.regime_b_bound(spec, stats)
        assert shapes == [(30, 50)]
        assert astuple(got) == astuple(want) and got.loose_bound is not None

    @pytest.mark.parametrize("p", NORMS)
    def test_signed_block_gets_a_sound_upper_bound(self, p, rng):
        # a signed O_PP is bounded through (I - |O_PP|)^-1: never below the
        # exact signed norm, and exact at p = 2
        spec = cbv.PerturbationSpec(p=p, eta=0.8, eps=1.3)
        for _ in range(10):
            stats = random_regime_stats(rng, n_p=6, n_o=3)
            signs = np.where(rng.random((6, 6)) < 0.5, -1.0, 1.0)
            stats = stats.replace(o_pp=stats.o_pp * signs)
            bound = cbv.regime_b_bound(spec, stats).bound
            exact = reference_regime_b_bound(spec, stats).bound
            assert bound >= exact * (1.0 - 1e-12)
            if p == 2.0:
                assert bound == pytest.approx(exact, rel=1e-12)
            db = sample_perturbations(rng, 6, p, spec.eta, 200)
            dv = sample_perturbations(rng, 3, p, spec.eps, 200)
            assert np.abs(observed_regime_b_deltas(stats, db, dv)).max() <= bound + 1e-12


class TestSoundness:
    def test_closed_form_deltas_match_engine(self, rng):
        stats = random_regime_stats(rng, n_p=4, n_o=3)
        db = rng.uniform(-1, 1, size=(3, 4))
        dv = rng.uniform(-1, 1, size=(3, 3))
        predicted = observed_regime_b_deltas(stats, db, dv)
        w0 = cbv.evaluate_regime_b(stats).w
        for k in range(3):
            shifted = cbv.CutStatistics(
                p_ids=stats.p_ids, o_ids=stats.o_ids,
                b_p=stats.b_p + db[k], v_o=stats.v_o + dv[k],
                o_po=stats.o_po, o_op=stats.o_op, o_pp=stats.o_pp,
            )
            assert cbv.evaluate_regime_b(shifted).w - w0 == pytest.approx(
                predicted[k], rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize("p", NORMS)
    def test_monte_carlo_never_exceeds_bound(self, p, rng):
        # 1000 sampled perturbations on a random instance per norm
        stats = random_regime_stats(rng, n_p=5, n_o=4)
        spec = cbv.PerturbationSpec(p=p, eta=0.8, eps=1.3)
        db = sample_perturbations(rng, 5, p, spec.eta, 1000)
        dv = sample_perturbations(rng, 4, p, spec.eps, 1000)
        bound_a = cbv.boundary_bound(spec, stats.o_po, 5).bound
        observed_a = np.abs(observed_regime_a_deltas(stats, db, dv))
        assert observed_a.max() <= bound_a + 1e-12
        bound_b = cbv.regime_b_bound(spec, stats).bound
        observed_b = np.abs(observed_regime_b_deltas(stats, db, dv))
        assert observed_b.max() <= bound_b + 1e-12

    @pytest.mark.parametrize("p, exact", [(1.0, 1.5), (2.0, 5.19), (float("inf"), 51.0)])
    def test_holding_block_bound_is_exact_and_sound(self, p, exact, rng):
        # every norm of O_PP but the 1-norm is >= 1, and the gate certifies rho = 0
        stats = holding_stats()
        assert cbv.spectral_radius_bound(stats.o_pp).rho_upper < 1.0
        inv = reference_inverse_norm(stats.o_pp, p)
        assert inv == pytest.approx(exact, abs=5e-3)
        assert inv == pytest.approx(
            np.linalg.norm(np.eye(101) + stats.o_pp, ord=p), rel=1e-12)
        spec = cbv.PerturbationSpec(p=p, eta=0.8, eps=1.3)
        report = cbv.regime_b_bound(spec, stats)
        assert report.extension_term == pytest.approx(
            np.linalg.norm(stats.o_op.sum(axis=0), ord=spec.q) * inv
            * (spec.eta + reference_mixed_norm(stats.o_po, spec.q, p) * spec.eps), rel=1e-12)
        db = sample_perturbations(rng, 101, p, spec.eta, 1000)
        dv = sample_perturbations(rng, 2, p, spec.eps, 1000)
        observed = np.abs(observed_regime_b_deltas(stats, db, dv))
        assert observed.max() <= report.bound + 1e-12


class TestConditioning:
    def test_symmetric_family(self):
        assert cbv.condition_diagnostics(
            [[0.0, 0.8], [0.8, 0.0]]
        ).kappa2 == pytest.approx(9.0, abs=1e-9)
        assert cbv.condition_diagnostics(
            [[0.0, 0.99], [0.99, 0.0]]
        ).kappa2 == pytest.approx(199.0, abs=1e-6)

    def test_kappa_formula_across_t(self):
        for t in (0.1, 0.35, 0.62, 0.9):
            report = cbv.condition_diagnostics([[0.0, t], [t, 0.0]])
            assert report.kappa2 == pytest.approx((1 + t) / (1 - t), abs=1e-9)

    def test_zero_block(self):
        assert cbv.condition_diagnostics(np.zeros((2, 2))).kappa2 == pytest.approx(1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_refused(self, value):
        with pytest.raises(DomainError, match="not finite"):
            cbv.condition_diagnostics([[value, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("block", ["random-2", "random-65", "random-200", "holding-101"])
    def test_exact_at_every_size(self, block, scale):
        kind, n = block.split("-")
        n = int(n)
        if kind == "holding":
            # the holding company owns half of each of n - 1 subsidiaries
            o_pp = np.zeros((n, n))
            o_pp[0, 1:] = 0.5
        else:
            o_pp = random_share_matrix(np.random.default_rng(n), n)
        o_pp = scale * o_pp
        kappa2 = cbv.condition_diagnostics(o_pp).kappa2
        assert kappa2 == pytest.approx(np.linalg.cond(np.eye(n) - o_pp, 2), rel=1e-12)

    @pytest.mark.parametrize("method", cbv.engine.SOLVER_METHODS)
    def test_rho_bound_is_the_solves_certificate(self, method):
        # the report bounds the O_PP whose kappa_2 it gives, the operator a
        # regime-B solve gates, whatever its method
        stats = holding_stats()
        report = cbv.condition_diagnostics(stats.o_pp)
        _, log = cbv.estimate_internal_values(stats, cbv.SolverConfig(method=method))
        assert report.rho_bound == log.rho_bound


class TestMonteCarloBand:
    def test_zero_noise_degenerate(self):
        stats = symmetric_stats(0.8)
        band = cbv.monte_carlo_band(stats, noise=0.0, draws=5, seed=1,
                                    metric="internal_total")
        assert band.low == band.high == pytest.approx(750.0, abs=1e-9)

    def test_band_around_moderate_coupling(self):
        stats = symmetric_stats(0.8)
        band = cbv.monte_carlo_band(stats, noise=0.01, draws=500, seed=3,
                                    metric="internal_total")
        assert band.low == pytest.approx(714.2857, abs=1e-3)
        assert band.high == pytest.approx(789.4737, abs=1e-3)
        assert band.excluded == 0

    def test_band_near_unit_boundary_excludes_unstable_corner(self):
        stats = symmetric_stats(0.99)
        band = cbv.monte_carlo_band(stats, noise=0.01, draws=0, seed=3,
                                    metric="internal_total")
        assert band.low == pytest.approx(7500.0, abs=1e-3)
        assert band.high == pytest.approx(15000.0, abs=1e-3)
        assert band.excluded == 1

    def test_deterministic_for_fixed_seed(self, rng):
        stats = random_regime_stats(rng, n_p=3, n_o=2)
        one = cbv.monte_carlo_band(stats, noise=0.02, draws=50, seed=11)
        two = cbv.monte_carlo_band(stats, noise=0.02, draws=50, seed=11)
        assert one == two

    def test_entry_mask_restricts_noise(self):
        stats = symmetric_stats(0.8)
        band = cbv.monte_carlo_band(
            stats, noise=0.01, draws=50, seed=5,
            entries=[(0, 1)], metric="internal_total",
        )
        # only one off-diagonal entry moves, so the span is tighter
        assert band.low > 714.2857
        assert band.high < 789.4737

    def test_probes_are_priced_at_the_threshold_w_was(self):
        # tau = 1e-3 drops both boundary edges from W; a band priced at 0
        # kept them, and its zero-noise band missed W
        stats = tiny_edge_stats()
        w = cbv.evaluate_regime_b(stats, rounding_threshold=1e-3).w
        band = cbv.monte_carlo_band(stats, noise=0.0, rounding_threshold=1e-3)
        assert band.low == band.high == w == 7.0
        at_zero = cbv.monte_carlo_band(stats)
        assert at_zero.low == at_zero.high == cbv.evaluate_regime_b(stats).w != w

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_probe_reference(self, seed):
        # seed 3 adds a near-unit internal loop, so some probes lose stability
        stats = random_regime_stats(np.random.default_rng(seed), n_p=12, n_o=9)
        if seed == 3:
            stats = near_unit_loop(stats)
        for metric in ("consolidated", "internal_total"):
            band = cbv.monte_carlo_band(stats, noise=0.03, draws=40, seed=seed,
                                        metric=metric)
            assert astuple(band) == reference_band(stats, 0.03, 40, seed, metric)
        if seed == 3:
            assert band.excluded > 0

    @pytest.mark.parametrize("cfg", [
        cbv.SolverConfig(method="neumann"),
        cbv.SolverConfig(method="iterative_krylov", eps=1e-10),
        cbv.SolverConfig(method="direct"),
        cbv.SolverConfig(),
        cbv.SolverConfig(method="neumann", eps=1e-12),
        cbv.SolverConfig(method="iterative_krylov"),
    ])
    @pytest.mark.parametrize("unstable", [False, True])
    def test_every_solver_branch_matches_reference(self, cfg, unstable):
        # with the near-unit loop, every method excludes the probes the gate
        # refuses
        stats = random_regime_stats(np.random.default_rng(7), n_p=10, n_o=6)
        if unstable:
            stats = near_unit_loop(stats)
        for metric in ("consolidated", "internal_total"):
            band = cbv.monte_carlo_band(stats, cfg, noise=0.03, draws=15, seed=4,
                                        metric=metric)
            assert astuple(band) == reference_band(stats, 0.03, 15, 4, metric, cfg)

    def test_repeated_entries_shift_twice(self):
        stats = random_regime_stats(np.random.default_rng(8), n_p=6, n_o=4)
        entries = [(0, 1), (2, 3), (0, 1), (5, 5), (0, 1)]
        band = cbv.monte_carlo_band(stats, noise=0.02, draws=20, seed=9, entries=entries)
        assert astuple(band) == reference_band(stats, 0.02, 20, 9, entries=entries)
        once = cbv.monte_carlo_band(stats, noise=0.02, draws=0, entries=[(0, 1)])
        thrice = cbv.monte_carlo_band(stats, noise=0.02, draws=0, entries=[(0, 1)] * 3)
        assert (thrice.low, thrice.high) != (once.low, once.high)

    @pytest.mark.parametrize("cfg", [
        cbv.SolverConfig(),
        cbv.SolverConfig(method="neumann"),
        cbv.SolverConfig(method="iterative_krylov", eps=1e-10),
    ])
    @pytest.mark.parametrize("designated", ["held", "listed"])
    def test_corner_on_zero_matches_reference(self, cfg, designated):
        # shares equal to the noise land on 0.0 at the -noise corner, and the
        # listed entries add zero positions (diagonal ones included) and
        # repeats: the probes keep every designated position as held edges,
        # while the reference drops each 0.0 from a dense copy
        noise = 0.02
        stats = random_regime_stats(np.random.default_rng(5), n_p=8, n_o=4)
        o_pp = stats.o_pp.copy()
        o_pp[o_pp > 0.1] = noise
        stats = stats.replace(o_pp=o_pp)
        entries = None
        if designated == "listed":
            at_noise = list(zip(*np.nonzero(o_pp == noise)))
            zeros = list(zip(*np.nonzero(o_pp == 0.0)))
            assert at_noise and zeros
            listed = at_noise + zeros[:4] + zeros[:2] + [(3, 3)]
            entries = [(int(i), int(j)) for i, j in listed]
        for metric in ("consolidated", "internal_total"):
            band = cbv.monte_carlo_band(stats, cfg, noise=noise, draws=10, seed=2,
                                        entries=entries, metric=metric)
            assert astuple(band) == reference_band(stats, noise, 10, 2, metric, cfg, entries)

    @pytest.mark.parametrize("seed", [-1, 1.5, "seed"])
    def test_seed_that_cannot_seed_refused(self, seed):
        # numpy's own ValueError or TypeError came through, after the corners
        with pytest.raises(DomainError, match="seed"):
            cbv.monte_carlo_band(symmetric_stats(0.5), noise=0.01, draws=3, seed=seed)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_non_finite_noise_refused(self, noise):
        with pytest.raises(DomainError, match="noise"):
            cbv.monte_carlo_band(symmetric_stats(0.5), noise=noise, draws=3)

    @pytest.mark.parametrize("draws", [-1, 2.5, "3"])
    def test_draws_not_a_count_refused(self, draws):
        with pytest.raises(DomainError, match="draws"):
            cbv.monte_carlo_band(symmetric_stats(0.5), noise=0.01, draws=draws)

    def test_entry_outside_the_block_refused(self):
        stats = random_regime_stats(np.random.default_rng(1), n_p=3, n_o=2)
        with pytest.raises(DomainError, match="outside"):
            cbv.monte_carlo_band(stats, noise=0.01, entries=[(7, 0)])

    def test_negative_entry_refused(self):
        # a negative index would wrap round to the last row
        stats = random_regime_stats(np.random.default_rng(1), n_p=3, n_o=2)
        with pytest.raises(DomainError, match="outside"):
            cbv.monte_carlo_band(stats, noise=0.01, entries=[(-1, 0)])

    def test_singular_probe_is_excluded(self):
        # the nominal probe (singular) and the +0.5 corner are refused by the
        # gate; the -0.5 corner is the one probe evaluated
        band = cbv.monte_carlo_band(two_cycle_chain_stats(), noise=0.5, draws=0,
                                    entries=[(0, 1)])
        assert (band.evaluated, band.excluded) == (1, 2)
