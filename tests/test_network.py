import numpy as np
import pytest
from hypothesis import given, strategies as st

import cbv
from cbv.errors import DimensionError, DomainError, MembershipError

from conftest import O_OP, O_PO, O_PP, P_IDS, example_network, ix_blocks

# entries a held-edge scan must keep bit for bit: signed zeros, NaN, infinities
SPECIAL_SHARES = (-0.0, float("nan"), float("inf"), float("-inf"))


def identical_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and the same bit pattern in every entry."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestOwnershipNetwork:
    def test_canonical_ordering(self):
        net = cbv.OwnershipNetwork.from_edges(
            ["b", "a", "c"], [("b", "a", 0.2), ("a", "c", 0.5)]
        )
        assert net.nodes == ("a", "b", "c")
        assert net.shares[1, 0] == 0.2
        assert net.shares[0, 2] == 0.5

    def test_matrix_permuted_with_nodes(self):
        shares = np.array([[0.0, 0.3], [0.1, 0.0]])
        net = cbv.OwnershipNetwork(["z", "a"], shares)
        # row/column for "a" must follow the id, not the input position
        assert net.nodes == ("a", "z")
        assert net.shares[1, 0] == 0.3
        assert net.shares[0, 1] == 0.1

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_canonical_ids_do_not_share_the_callers_matrix(self, order):
        # the network keeps copies of the held entries, not the caller's
        # matrix, so a later write to that matrix moves nothing
        shares = np.array([[0.0, 0.3, 0.0], [0.1, 0.0, -0.0], [0.0, 0.2, 0.0]], order=order)
        net = cbv.OwnershipNetwork(["a", "b", "c"], shares)
        kept = net.shares.copy()
        assert identical_bits(net.shares, shares)
        shares[:] = 0.5
        assert identical_bits(net.shares, kept)
        held = net._held
        np.testing.assert_array_equal(held.rows * 3 + held.cols, [1, 3, 5, 7])
        assert identical_bits(held.vals, kept.ravel()[[1, 3, 5, 7]])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(MembershipError):
            cbv.OwnershipNetwork(["a", "a"], np.zeros((2, 2)))

    def test_empty_id_rejected(self):
        with pytest.raises(MembershipError):
            cbv.OwnershipNetwork(["a", ""], np.zeros((2, 2)))

    @pytest.mark.parametrize("nodes", ["ab", b"ab"])
    def test_bare_string_of_ids_is_domain_error(self, nodes):
        # it would be split into the nodes ('a', 'b')
        with pytest.raises(DomainError, match="node ids must be a collection of ids"):
            cbv.OwnershipNetwork(nodes, np.zeros((2, 2)))
        with pytest.raises(DomainError, match="node ids must be a collection of ids"):
            cbv.OwnershipNetwork.from_edges(nodes, [])

    @pytest.mark.parametrize("members", ["ab", b"ab"])
    def test_bare_string_perimeter_is_domain_error(self, members):
        # it would be the members {'a', 'b'}
        with pytest.raises(DomainError, match="perimeter members must be a collection of ids"):
            cbv.Perimeter(members)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cbv.OwnershipNetwork(["a", "b"], np.zeros((2, 3)))

    def test_unknown_edge_id(self):
        with pytest.raises(MembershipError):
            cbv.OwnershipNetwork.from_edges(["a"], [("a", "ghost", 0.1)])

    @pytest.mark.parametrize("edges, error, match", [
        ([("a", "b", 0.3), ("a", "b", 0.2)], DomainError, "'a', 'b'"),
        # the first pair repeated in input order is named, not the first in
        # canonical order
        ([("b", "a", 0.1), ("a", "b", 0.3), ("a", "b", 0.2), ("b", "a", 0.2)],
         DomainError, "'a', 'b'"),
        # whichever refusal comes first in input order is raised
        ([("a", "b", 0.3), ("a", "b", 0.2), ("a", "ghost", 0.1)], DomainError, "'a', 'b'"),
        ([("a", "ghost", 0.1), ("a", "b", 0.3), ("a", "b", 0.2)], MembershipError, "'ghost'"),
        ([("a", "b", 0.3), ("a", "b", 0.2), ("a", "b")], DomainError, "given twice"),
    ])
    def test_repeated_edge_rejected(self, edges, error, match):
        with pytest.raises(error, match=match):
            cbv.OwnershipNetwork.from_edges(["a", "b"], edges)

    def test_non_numeric_share_rejected(self):
        with pytest.raises(DomainError, match="not an array of numbers"):
            cbv.OwnershipNetwork(["a", "b"], [["x", 0], [0, 0]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(DomainError, match="not an array of numbers"):
            cbv.OwnershipNetwork(["a", "b"], [[0.0, 0.5], [0.2]])

    def test_non_numeric_edge_share_rejected(self):
        with pytest.raises(DomainError, match=r"share 'x' of edge \('a', 'b'\)"):
            cbv.OwnershipNetwork.from_edges(["a", "b"], [("a", "b", "x")])

    def test_edge_without_a_share_rejected(self):
        with pytest.raises(DomainError, match=r"not an \(owner, owned, share\) triple"):
            cbv.OwnershipNetwork.from_edges(["a", "b"], [("a", "b")])

    def test_from_edges_keeps_signed_zero(self):
        net = cbv.OwnershipNetwork.from_edges(["a", "b"], [("b", "a", -0.0), ("a", "b", 0.0)])
        blocks = cbv.partition(net, cbv.Perimeter({"a"}))
        assert np.signbit(blocks.o_op[0, 0]) and not np.signbit(blocks.o_po[0, 0])


class TestPartition:
    def test_worked_example_blocks(self):
        blocks = cbv.partition(example_network(), cbv.Perimeter(P_IDS))
        assert blocks.p_ids == ("A", "B", "C")
        assert blocks.o_ids == ("X", "Y")
        np.testing.assert_array_equal(blocks.o_pp, np.array(O_PP))
        np.testing.assert_array_equal(blocks.o_po, np.array(O_PO))
        np.testing.assert_array_equal(blocks.o_op, np.array(O_OP))

    def test_full_perimeter_empty_blocks(self):
        net = example_network()
        blocks = cbv.partition(net, cbv.Perimeter(net.nodes))
        assert blocks.o_po.shape == (5, 0)
        assert blocks.o_op.shape == (0, 5)

    def test_unknown_member(self):
        with pytest.raises(MembershipError):
            cbv.partition(example_network(), cbv.Perimeter({"A", "nope"}))

    @given(st.data())
    def test_blocks_match_entry_classification(self, data):
        # every block against its np.ix_ slice of the dense matrix, bit for
        # bit.  Ids come in a drawn order and are not zero-padded, so canonical
        # order puts n10 before n2; a fifth of the entries are -0.0, NaN or
        # infinite; the perimeter ranges over every subset, empty and full
        # included.
        n = data.draw(st.integers(0, 13), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shares = rng.uniform(0, 0.3, size=(n, n)) * (rng.random((n, n)) < 0.5)
        special = rng.random((n, n)) < 0.2
        shares[special] = rng.choice(SPECIAL_SHARES, size=int(special.sum()))
        ids = [f"n{k}" for k in range(n)]
        order = rng.permutation(n)
        net = cbv.OwnershipNetwork([ids[k] for k in order], shares[np.ix_(order, order)])
        canonical = [int(node[1:]) for node in net.nodes]
        assert identical_bits(net.shares, shares[np.ix_(canonical, canonical)])
        members = data.draw(st.sets(st.sampled_from(ids)) if ids else st.just(set()),
                            label="members")
        blocks = cbv.partition(net, cbv.Perimeter(members))
        assert blocks.p_ids == tuple(sorted(members))
        assert blocks.o_ids == tuple(sorted(set(ids) - members))
        for name, expected in ix_blocks(net, members).items():
            assert identical_bits(getattr(blocks, name), expected), name

    def test_reassembly_roundtrip(self, rng):
        # the three blocks, with O_OO sliced from the dense matrix, reassemble
        # the share matrix in canonical node order: partition loses nothing
        # across the cut and keeps p_ids and o_ids aligned with its blocks
        n = 7
        net = cbv.OwnershipNetwork([f"n{k}" for k in range(n)], rng.uniform(0, 0.2, size=(n, n)))
        blocks = cbv.partition(net, cbv.Perimeter({"n0", "n3", "n5"}))
        o_idx = [net.index_of(node) for node in blocks.o_ids]
        ids = blocks.p_ids + blocks.o_ids
        full = np.block([[blocks.o_pp, blocks.o_po],
                         [blocks.o_op, net.shares[np.ix_(o_idx, o_idx)]]])
        order = np.argsort(np.asarray(ids, dtype=object))
        assert tuple(ids[k] for k in order) == net.nodes
        np.testing.assert_array_equal(full[np.ix_(order, order)], net.shares)

    def test_o_op_sliced_on_first_read(self, rng):
        n = 9
        net = cbv.OwnershipNetwork([f"n{k}" for k in range(n)],
                                   rng.uniform(0, 0.2, size=(n, n)))
        blocks = cbv.partition(net, cbv.Perimeter({"n1", "n4", "n8"}))
        assert "array" not in vars(blocks.held("o_op"))
        o_idx = [net.index_of(node) for node in blocks.o_ids]
        p_idx = [net.index_of(node) for node in blocks.p_ids]
        np.testing.assert_array_equal(blocks.o_op, net.shares[np.ix_(o_idx, p_idx)])
        assert blocks.o_op is blocks.o_op


class TestValidateNetwork:
    def test_worked_example_clean(self):
        assert cbv.validate_network(example_network()).ok

    def test_empty_network_clean(self):
        net = cbv.OwnershipNetwork(["solo"], np.zeros((1, 1)))
        assert cbv.validate_network(net).ok

    def test_column_sum_violation_flagged(self):
        shares = np.array([
            [0.0, 0.0, 0.7],
            [0.0, 0.0, 0.7],
            [0.0, 0.0, 0.0],
        ])
        net = cbv.OwnershipNetwork(["a", "b", "c"], shares)
        report = cbv.validate_network(net)
        flagged = [f for f in report.findings if f.rule == "column-sum"]
        assert len(flagged) == 1
        assert flagged[0].location == "c"

    def test_entry_range_violation_flagged(self):
        shares = np.array([[0.0, 1.2], [-0.1, 0.0]])
        net = cbv.OwnershipNetwork(["a", "b"], shares)
        rules = {f.rule for f in cbv.validate_network(net).findings}
        assert "entry-range" in rules

    def test_nan_share_is_entry_range_error(self):
        net = cbv.OwnershipNetwork(["a", "b"], np.array([[0.0, np.nan], [0.2, 0.0]]))
        flagged = [(f.rule, f.severity, f.location) for f in cbv.validate_network(net).findings]
        assert flagged == [("entry-range", "error", "a->b")]

    def test_findings_print_plain_floats(self):
        shares = np.array([
            [0.0, 0.0, 0.7],
            [0.0, 0.0, 0.7],
            [1.5, 0.0, 0.0],
        ])
        report = cbv.validate_network(cbv.OwnershipNetwork(["a", "b", "c"], shares))
        assert [f.message for f in report.findings] == [
            "share 1.5 outside [0, 1]",
            "ownership of 'a' sums to 1.5 > 1",
            "ownership of 'c' sums to 1.4 > 1",
        ]

    def test_subunit_columns_are_legal(self):
        shares = np.array([[0.0, 0.4], [0.3, 0.0]])
        net = cbv.OwnershipNetwork(["a", "b"], shares)
        assert cbv.validate_network(net).ok


class TestHaircut:
    def test_liquidity_example(self):
        assert cbv.apply_haircut(cbv.HaircutSpec(h_liq=0.8, h_fx=1.0), 100e6) == 80e6

    def test_identity(self):
        assert cbv.apply_haircut(cbv.HaircutSpec(), 123.4) == 123.4

    def test_combined_factors(self):
        assert cbv.apply_haircut(cbv.HaircutSpec(0.9, 0.8), 100.0) == pytest.approx(72.0)

    def test_out_of_range_factor(self):
        with pytest.raises(DomainError):
            cbv.HaircutSpec(h_liq=1.2)

    def test_non_finite_value(self):
        with pytest.raises(DomainError):
            cbv.apply_haircut(cbv.HaircutSpec(), float("inf"))

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1e12),
    )
    def test_monotone_for_nonnegative_values(self, h_liq, h_fx, value):
        assert cbv.apply_haircut(cbv.HaircutSpec(h_liq, h_fx), value) <= value


class TestScaling:
    def test_dyadic_composition_is_exact(self, stats_a):
        once = cbv.scale_units(0.5, cbv.scale_units(4.0, stats_a))
        direct = cbv.scale_units(2.0, stats_a)
        np.testing.assert_array_equal(once.b_p, direct.b_p)
        np.testing.assert_array_equal(once.v_o, direct.v_o)
        np.testing.assert_array_equal(once.v_p, direct.v_p)

    def test_shares_untouched(self, stats_a):
        scaled = cbv.scale_units(3.0, stats_a)
        np.testing.assert_array_equal(scaled.o_po, stats_a.o_po)
        np.testing.assert_array_equal(scaled.o_pp, stats_a.o_pp)

    def test_identity(self, stats_a):
        scaled = cbv.scale_units(1.0, stats_a)
        np.testing.assert_array_equal(scaled.b_p, stats_a.b_p)

    def test_nonpositive_kappa(self, stats_a):
        with pytest.raises(DomainError):
            cbv.scale_units(0.0, stats_a)

    @pytest.mark.parametrize("kappa", [np.inf, np.nan])
    def test_non_finite_kappa(self, stats_a, kappa):
        with pytest.raises(DomainError, match="must be finite and > 0"):
            cbv.scale_units(kappa, stats_a)

    def test_currency_conversion_example(self):
        # converting (10, 5) at 1.2 EUR->USD gives (12, 6)
        stats = cbv.CutStatistics(
            p_ids=("it1", "it2"), o_ids=(), b_p=[10.0, 5.0]
        )
        scaled = cbv.scale_units(1.2, stats)
        np.testing.assert_allclose(scaled.b_p, [12.0, 6.0], rtol=0, atol=1e-15)


ARRAY_FIELDS = ("b_p", "v_o", "v_p", "o_po", "o_op", "o_pp", "x_po", "x_op")


@pytest.mark.parametrize("with_o_pp", [True, False])
@pytest.mark.parametrize("with_v_p", [True, False])
@pytest.mark.parametrize("form", ["share", "amount", "mixed"])
def test_restrict_and_scale_units_array_by_array(form, with_v_p, with_o_pp):
    # mixed: shares priced at v_O on the outgoing side, amounts on the incoming
    rng = np.random.default_rng(11)
    arrays = {"b_p": rng.uniform(-5.0, 5.0, 4)}
    if form != "amount":
        arrays["v_o"] = rng.uniform(1.0, 9.0, 3)
        arrays["o_po"] = rng.uniform(0.0, 0.2, (4, 3))
    else:
        arrays["x_po"] = rng.uniform(0.0, 9.0, (4, 3))
    if form == "share":
        arrays["o_op"] = rng.uniform(0.0, 0.2, (3, 4))
    else:
        arrays["x_op"] = rng.uniform(0.0, 9.0, (3, 4))
    if with_v_p:
        arrays["v_p"] = rng.uniform(1.0, 9.0, 4)
    if with_o_pp:
        arrays["o_pp"] = rng.uniform(0.0, 0.2, (4, 4))
    stats = cbv.CutStatistics(("a", "b", "c", "d"), ("w", "x", "y"),
                              clearing_tag="seniority", **arrays)

    # kept ids in any order, and an unknown one, give canonical b, d and w, y
    cut = stats.restrict(["d", "zz", "b"], ["y", "w"])
    pi, oi = [1, 3], [0, 2]
    reference = {
        "b_p": lambda a: a[pi],
        "v_o": lambda a: a[oi],
        "v_p": lambda a: a[pi],
        "o_po": lambda a: a[np.ix_(pi, oi)],
        "o_op": lambda a: a[np.ix_(oi, pi)],
        "o_pp": lambda a: a[np.ix_(pi, pi)],
        "x_po": lambda a: a[np.ix_(pi, oi)],
        "x_op": lambda a: a[np.ix_(oi, pi)],
    }
    assert (cut.p_ids, cut.o_ids, cut.clearing_tag) == (("b", "d"), ("w", "y"), "seniority")
    for name in ARRAY_FIELDS:
        if name not in arrays:
            assert getattr(cut, name) is None, name
        else:
            assert identical_bits(getattr(cut, name), reference[name](arrays[name])), name

    kappa = 1.7
    scaled = cbv.scale_units(kappa, stats)
    assert (scaled.p_ids, scaled.o_ids, scaled.clearing_tag) == (
        stats.p_ids, stats.o_ids, "seniority")
    for name in ARRAY_FIELDS:
        if name not in arrays:
            assert getattr(scaled, name) is None, name
        elif name in ("o_po", "o_op", "o_pp"):  # shares: the same block, unscaled
            assert getattr(scaled, name) is getattr(stats, name), name
        else:
            assert identical_bits(getattr(scaled, name), kappa * arrays[name]), name
