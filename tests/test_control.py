import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cbv
from cbv.errors import DomainError, MembershipError, StabilityError

from conftest import (
    example_stats,
    herfindahl_index,
    random_share_matrix,
    reference_select_perimeter,
    sparse_ownership,
    truncated_attenuated_series,
    two_cycle_chain_stats,
)

IDS = ("a", "b", "c", "x")
NON_FINITE = (np.nan, np.inf, -np.inf)


def three_owner_shares() -> np.ndarray:
    shares = np.zeros((4, 4))
    shares[0, 3], shares[1, 3], shares[2, 3] = 0.6, 0.3, 0.1
    return shares


def with_entry(shares: np.ndarray, value: float) -> np.ndarray:
    out = shares.copy()
    out[1, 3] = value
    return out


def reference_threshold(shares, tau, depth=None, normalize=False) -> np.ndarray:
    """Option A as dense boolean powers of the whole n x n majority graph."""
    direct = shares >= tau
    reach = direct.copy()
    power = direct.copy()
    for _ in range(2, (depth or 1) + 1):
        power = (power.astype(int) @ direct.astype(int)) > 0
        reach |= power
    np.fill_diagonal(reach, False)
    omega = reach.astype(float)
    if normalize:
        sums = omega.sum(axis=0)
        omega[:, sums > 0] /= sums[sums > 0]
    return omega


def reference_herfindahl(shares, variant) -> np.ndarray:
    """Option B / B' one column at a time, H_j with its residual holder."""
    omega = np.zeros_like(shares)
    for j in range(shares.shape[1]):
        col = shares[:, j]
        h_j = herfindahl_index(col)
        omega[:, j] = col * h_j if variant == "B" else col * col / h_j
        if variant == "B_prime" and omega[:, j].sum() > 0:
            omega[:, j] /= omega[:, j].sum()
    return omega


@st.composite
def majority_graphs(draw):
    """Square share matrices with ties, self-loops and cycles, plus a tau."""
    n = draw(st.integers(1, 30))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # two decimals make ties between entries, and with tau, common
    shares = np.round(rng.uniform(0.01, 1.0, size=(n, n)), 2)
    shares *= rng.random((n, n)) < density
    entries = sorted(set(shares[shares > 0].tolist()))
    if entries and draw(st.booleans()):
        tau = draw(st.sampled_from(entries))
    else:
        tau = draw(st.floats(0.01, 1.0))
    return shares, tau


class TestOptionA:
    def test_majority_column(self):
        control = cbv.threshold_control(three_owner_shares(), 0.5, ids=IDS)
        np.testing.assert_array_equal(control.column("x"), [1.0, 0.0, 0.0, 0.0])

    def test_all_below_threshold(self):
        control = cbv.threshold_control(three_owner_shares(), 0.7, ids=IDS)
        np.testing.assert_array_equal(control.column("x"), np.zeros(4))

    def test_tie_at_threshold_included(self):
        control = cbv.threshold_control(three_owner_shares(), 0.6, ids=IDS)
        assert control.column("x")[0] == 1.0

    def test_chain_reachability(self):
        ids = ("a", "b", "c")
        shares = np.zeros((3, 3))
        shares[0, 1], shares[1, 2] = 0.6, 0.6
        shallow = cbv.threshold_control(shares, 0.5, ids=ids, depth=1)
        assert shallow.omega[0, 2] == 0.0
        deep = cbv.threshold_control(shares, 0.5, ids=ids, depth=2)
        assert deep.omega[0, 2] == 1.0

    def test_normalization_of_multiple_controllers(self):
        shares = np.zeros((3, 3))
        shares[0, 2], shares[1, 2] = 0.5, 0.5
        control = cbv.threshold_control(shares, 0.5, normalize=True)
        np.testing.assert_allclose(control.omega[:, 2], [0.5, 0.5, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(graph=majority_graphs(), depth=st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
           normalize=st.booleans())
    def test_matches_dense_boolean_powers(self, graph, depth, normalize):
        shares, tau = graph
        control = cbv.threshold_control(shares, tau, depth=depth, normalize=normalize)
        want = reference_threshold(shares, tau, depth, normalize)
        if normalize:
            np.testing.assert_allclose(control.omega, want, rtol=0, atol=1e-15)
        else:
            np.testing.assert_array_equal(control.omega, want)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_share_refused(self, value):
        with pytest.raises(DomainError):
            cbv.threshold_control(with_entry(three_owner_shares(), value), 0.5)

    def test_rescaling_values_is_irrelevant(self):
        # control weights read shares only, so any monetary rescaling outside
        # the share matrix cannot move them
        one = cbv.threshold_control(three_owner_shares(), 0.5, ids=IDS)
        two = cbv.threshold_control(three_owner_shares() * 1.0, 0.5, ids=IDS)
        np.testing.assert_array_equal(one.omega, two.omega)


class TestOptionB:
    def test_herfindahl_column(self):
        control = cbv.herfindahl_control(three_owner_shares(), "B", ids=IDS)
        assert herfindahl_index([0.6, 0.3, 0.1]) == pytest.approx(0.46, abs=1e-12)
        np.testing.assert_allclose(
            control.column("x")[:3], [0.276, 0.138, 0.046], atol=1e-12
        )

    def test_single_full_owner(self):
        shares = np.zeros((2, 2))
        shares[0, 1] = 1.0
        control = cbv.herfindahl_control(shares, "B")
        assert control.omega[0, 1] == pytest.approx(1.0)

    def test_b_prime_normalized(self):
        control = cbv.herfindahl_control(three_owner_shares(), "B_prime", ids=IDS)
        expected = np.array([0.36, 0.09, 0.01]) / 0.46
        np.testing.assert_allclose(control.column("x")[:3], expected, atol=1e-9)
        assert control.column("x").sum() == pytest.approx(1.0, abs=1e-9)

    def test_subunit_column_gets_dispersed_holder(self):
        shares = np.zeros((2, 2))
        shares[0, 1] = 0.4
        control = cbv.herfindahl_control(shares, "B")
        # H includes the 0.6 residual holder: 0.16 + 0.36
        assert control.omega[0, 1] == pytest.approx(0.4 * 0.52, abs=1e-12)

    @pytest.mark.parametrize("variant", ["B", "B_prime"])
    def test_matches_column_loop(self, rng, variant):
        for _ in range(10):
            shares = random_share_matrix(rng, 12, density=0.4, col_cap=1.3)
            shares[:, rng.random(12) < 0.3] = 0.0
            shares[:, 0] = 0.0
            control = cbv.herfindahl_control(shares, variant)
            np.testing.assert_allclose(
                control.omega, reference_herfindahl(shares, variant), rtol=0, atol=1e-12
            )
            np.testing.assert_array_equal(control.omega[:, 0], 0.0)

    @pytest.mark.parametrize("variant", ["B", "B_prime"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_share_refused(self, variant, value):
        with pytest.raises(DomainError):
            cbv.herfindahl_control(with_entry(three_owner_shares(), value), variant)


class TestOptionC:
    def test_no_cross_holdings_reduces_to_shares(self):
        shares = three_owner_shares()
        control = cbv.attenuated_control(shares, 0.5, ids=IDS)
        np.testing.assert_allclose(control.omega, shares, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 451])
    def test_zero_matrix(self, n):
        control = cbv.attenuated_control(np.zeros((n, n)), 0.5)
        np.testing.assert_array_equal(control.omega, np.zeros((n, n)))

    def test_normalized_columns(self):
        # each held column divided by its sum; the empty columns stay zero
        shares = three_owner_shares()
        raw = cbv.attenuated_control(shares, 0.5).omega
        sums = raw.sum(axis=0)
        control = cbv.attenuated_control(shares, 0.5, normalize=True)
        assert control.normalized
        np.testing.assert_array_equal(
            control.omega, np.divide(raw, sums, out=np.zeros_like(raw), where=sums > 0))

    def test_two_level_pyramid_reassigns_weight(self):
        shares = np.zeros((3, 3))
        shares[0, 1], shares[1, 2] = 1.0, 1.0
        control = cbv.attenuated_control(shares, 0.5)
        assert control.omega[0, 2] == pytest.approx(0.5, abs=1e-12)

    def test_chain_past_the_leaf_keeps_exact_weights(self):
        # each of 451 nodes wholly owns the next: Omega[i, j] = alpha^(j - i - 1)
        # above the diagonal, and at alpha = 1/2 every product of the block
        # elimination is exact
        n, alpha = 451, 0.5
        shares = np.diag(np.ones(n - 1), k=1)
        steps = np.subtract.outer(np.arange(n), np.arange(n))  # i - j
        want = np.where(steps < 0, alpha ** (-steps - 1.0), 0.0)
        np.testing.assert_array_equal(cbv.attenuated_control(shares, alpha).omega, want)

    @pytest.mark.parametrize("alpha", [0.6, 1e-6])
    def test_past_the_leaf_matches_the_lu(self, alpha):
        # 457 nodes, odd, recurse through block elimination on uneven halves;
        # at a small alpha, ((I - alpha S)^-1 - I) / alpha formed from the
        # inverse would lose six digits to cancellation
        shares = sparse_ownership(457, seed=29)[0].shares
        omega = cbv.attenuated_control(shares, alpha).omega
        scale = max(1.0, np.abs(omega).max())
        assert np.abs(omega - alpha * omega @ shares - shares).max() <= 1e-13 * scale
        want = np.linalg.solve(np.eye(len(shares)) - alpha * shares.T, shares.T).T
        assert np.abs(omega - want).max() <= 1e-12 * np.abs(want).max()

    def test_unstable_alpha_share_product(self):
        shares = np.zeros((2, 2))
        shares[0, 1] = shares[1, 0] = 1.0
        cbv.attenuated_control(shares, 0.5)  # rho = 0.5, fine
        for alpha in (0.5, np.float64(0.5)):  # a numpy scalar reads as a float
            with pytest.raises(StabilityError, match=r"rho\(\|0\.5\*S\|\) >= 1\.0"):
                # alpha*S has rho exactly 1 after scaling shares up
                cbv.attenuated_control(shares * 2.0, alpha)

    def test_solves_the_attenuation_identity(self, rng):
        alpha = 0.6
        for _ in range(5):
            shares = random_share_matrix(rng, 20)
            omega = cbv.attenuated_control(shares, alpha).omega
            np.testing.assert_allclose(
                omega - alpha * omega @ shares, shares, rtol=0, atol=1e-14
            )

    def test_singular_system_past_the_gate_is_stability_error(self):
        # alpha*S is the 2-cycle + 0.999 chain: I - alpha*S is singular, and
        # no certified bound puts its spectral radius below 1
        alpha = 0.5
        shares = np.asarray(two_cycle_chain_stats().o_pp) / alpha
        with pytest.raises(StabilityError):
            cbv.attenuated_control(shares, alpha)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_share_refused(self, value):
        with pytest.raises(DomainError):
            cbv.attenuated_control(with_entry(three_owner_shares(), value), 0.5)

    def test_truncated_series_within_geometric_tail(self, rng):
        alpha = 0.6
        for _ in range(5):
            shares = random_share_matrix(rng, 5)
            row_max = np.abs(shares).sum(axis=1).max()
            if alpha * row_max >= 0.9:
                shares = shares * (0.9 / (alpha * row_max))
            closed = cbv.attenuated_control(shares, alpha).omega
            for terms in (2, 4, 8):
                partial = truncated_attenuated_series(shares, alpha, terms)
                norm = np.abs(alpha * shares).sum(axis=1).max()
                tail = norm ** terms / (1.0 - norm)
                gap = np.abs(partial - closed).sum(axis=1).max()
                assert gap <= tail + 1e-12


class TestSelectPerimeter:
    def test_seed_without_controlled_nodes(self):
        control = cbv.threshold_control(np.zeros((3, 3)), 0.5, ids=("a", "b", "c"))
        per = cbv.select_perimeter(control, {"a"}, 0.5)
        assert per.members == frozenset({"a"})

    def test_majority_example(self):
        control = cbv.threshold_control(three_owner_shares(), 0.5, ids=IDS)
        per = cbv.select_perimeter(control, {"a"}, 0.5)
        assert per.members == frozenset({"a", "x"})

    def test_pyramid_direct_threshold(self):
        ids = ("B", "C", "H")
        shares = np.zeros((3, 3))
        shares[2, 0] = 0.6   # H -> B
        shares[2, 1] = 0.51  # H -> C
        control = cbv.threshold_control(shares, 0.5, ids=ids)
        per = cbv.select_perimeter(control, {"H"}, 0.5)
        assert per.members == frozenset({"H", "B", "C"})

    def test_fixed_point_iterates_through_chains(self):
        ids = ("a", "b", "c")
        shares = np.zeros((3, 3))
        shares[0, 1], shares[1, 2] = 0.8, 0.8
        control = cbv.threshold_control(shares, 0.5, ids=ids)
        per = cbv.select_perimeter(control, {"a"}, 0.5)
        # b joins, and then b's control pulls c in on the next pass
        assert per.members == frozenset({"a", "b", "c"})

    def test_monotone_in_seed(self, rng):
        for _ in range(10):
            shares = random_share_matrix(rng, 6)
            control = cbv.threshold_control(
                shares, 0.3, ids=tuple(f"n{k}" for k in range(6))
            )
            small = cbv.select_perimeter(control, {"n0"}, 0.4)
            large = cbv.select_perimeter(control, {"n0", "n3"}, 0.4)
            assert small.members <= large.members

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_one_candidate_at_a_time(self, data):
        # 0/1 or dyadic weights sum exactly in any order, so the one-pass
        # fixed point and the per-node loop must give the same perimeter,
        # ties at tau_p included
        n = data.draw(st.integers(0, 12), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        levels = data.draw(st.sampled_from([1, 8]), label="levels")  # 0/1 or k/8
        omega = rng.integers(0, levels + 1, (n, n)) / levels
        omega *= rng.random((n, n)) < data.draw(st.sampled_from([0.1, 0.3, 0.7]), label="density")
        ids = tuple(f"n{k}" for k in rng.permutation(n))
        control = cbv.ControlMatrix(ids, omega)
        seed = data.draw(st.sets(st.sampled_from(ids)) if ids else st.just(set()), label="seed ids")
        tau_p = data.draw(st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0]), label="tau_p")
        assert (cbv.select_perimeter(control, seed, tau_p).members
                == reference_select_perimeter(control, seed, tau_p).members)

    def test_bad_threshold(self):
        control = cbv.threshold_control(np.zeros((2, 2)), 0.5, ids=("a", "b"))
        with pytest.raises(DomainError):
            cbv.select_perimeter(control, {"a"}, 0.0)

    def test_bare_string_seed_is_domain_error(self):
        # "ab" was read as the seed {'a', 'b'}, which grows to {'a', 'b'},
        # while the seed ["ab"] grows to {'ab', 'a'}
        omega = np.array([[0.0, 0.6, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        control = cbv.ControlMatrix(("ab", "a", "b"), omega)
        assert cbv.select_perimeter(control, ["ab"], 0.5).members == {"ab", "a"}
        for seed in ("ab", b"ab"):
            with pytest.raises(DomainError, match="the seed must be a collection of ids"):
                cbv.select_perimeter(control, seed, 0.5)
        with pytest.raises(DomainError, match="node ids must be a collection of ids"):
            cbv.ControlMatrix("ab", np.zeros((2, 2)))

    def test_unknown_seed_is_membership_error(self):
        # as every other unknown id in cbv, ControlMatrix.column's included
        control = cbv.threshold_control(np.zeros((2, 2)), 0.5, ids=("a", "b"))
        with pytest.raises(MembershipError,
                           match=r"seed ids not in control matrix: \['yyy', 'zzz'\]"):
            cbv.select_perimeter(control, {"a", "zzz", "yyy"}, 0.5)


class TestSpecs:
    def test_option_aliases(self):
        assert cbv.ControlRuleSpec(option="A_threshold").option == "A"
        assert cbv.ControlRuleSpec(option="B_herfindahl").option == "B"
        assert cbv.ControlRuleSpec(option="C_attenuated").option == "C"

    def test_parameter_domains(self):
        with pytest.raises(DomainError):
            cbv.ControlRuleSpec(tau=0.0)
        with pytest.raises(DomainError):
            cbv.ControlRuleSpec(alpha=1.0)

    def test_build_control_dispatch(self):
        shares = three_owner_shares()
        omega_a = cbv.build_control(shares, cbv.ControlRuleSpec(option="A", tau=0.5))
        omega_b = cbv.build_control(shares, cbv.ControlRuleSpec(option="B"))
        omega_c = cbv.build_control(shares, cbv.ControlRuleSpec(option="C", alpha=0.5))
        assert omega_a.omega[0, 3] == 1.0
        assert omega_b.omega[0, 3] == pytest.approx(0.276)
        assert omega_c.omega[0, 3] == pytest.approx(0.6)

    def test_repeated_or_unknown_ids_are_membership_errors(self):
        shares = three_owner_shares()[:3, :3]
        with pytest.raises(MembershipError, match="node ids must be unique"):
            cbv.threshold_control(shares, 0.5, ids=("a", "a", "c"))
        control = cbv.threshold_control(shares, 0.5, ids=("a", "b", "c"))
        with pytest.raises(MembershipError, match="unknown node id 'zzz'"):
            control.column("zzz")

    def test_normalized_flag_validated(self):
        with pytest.raises(DomainError):
            cbv.ControlMatrix(("a", "b"), np.array([[0.0, 2.0], [0.0, 1.0]]),
                              normalized=True)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_weights_refused(self, value):
        with pytest.raises(DomainError):
            cbv.ControlMatrix(("a", "b"), np.array([[0.0, value], [0.0, 0.0]]))


def test_import_loads_no_scipy(tmp_path):
    # every CLI call pays for what `import cbv` loads; regime-B solves by LU or
    # by Neumann sweeps, in the library or through `cbv compute`, need no scipy
    n = 3000
    package = tmp_path / "pkg"
    cbv.write_package(package, example_stats(with_v_p=False), cbv.Observer(
        perimeter_ref="P", basis="fair_value", units="EUR", date="2025-06-30",
        regime="B", control_rule=cbv.ControlRuleSpec(option="A", tau=0.5)))
    src = Path(cbv.__file__).resolve().parents[1]
    cases = (
        "import cbv",
        # a sparse block far larger than any LU the sweeps would lose to
        "import cbv, numpy as np\n"
        f"o_pp = np.diag(np.full({n} - 1, 0.5), k=1)\n"
        f"ids = tuple(str(k) for k in range({n}))\n"
        f"stats = cbv.CutStatistics(p_ids=ids, o_ids=(), b_p=np.ones({n}), o_pp=o_pp)\n"
        "assert cbv.evaluate_regime_b(stats).solver_log.method == 'neumann'",
        "import cbv\n"
        "stats = cbv.CutStatistics(p_ids=('a', 'b'), o_ids=(), b_p=[1.0, 1.0],\n"
        "                          o_pp=[[0.0, 0.5], [0.5, 0.0]])\n"
        "log = cbv.evaluate_regime_b(stats, cbv.SolverConfig(method='neumann')).solver_log\n"
        "assert log.method == 'neumann' and log.iterations > 0",
        f"import cbv.cli\nassert cbv.cli.main(['compute', '--package', {str(package)!r}]) == 0",
        f"import cbv.cli\nassert cbv.cli.main(['compute', '--package', {str(package)!r},\n"
        "                            '--method', 'neumann']) == 0",
    )
    for case in cases:
        code = (f"import sys\n{case}\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        # from tmp_path, where `cbv compute` writes its cut summary
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
                             check=True).stdout
        assert out.strip().splitlines()[-1] == "[]", case
