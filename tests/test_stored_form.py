"""Blocks and networks are stored as held edges: the dense views, the derived
statistics, the cut edges and W against dense numpy, every boundary total as
the sum of its priced cut edges, the network's edges against its old dense
gather, and the memory of building and valuing."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cbv
from cbv.engine import cut_edges
from cbv.network import _HeldEdges

from conftest import (
    P_IDS,
    dense_reference_w,
    example_network,
    example_stats,
    gathered_network_edges,
    reference_from_network,
    reference_partition,
    reference_validate_network,
    sparse_draws,
    sparse_ownership,
)

# entries a stored block must keep bit for bit: signed zeros, subnormals, NaN
FINITE_SPECIAL = (-0.0, 5e-324, -2.5e-310)
SPECIAL = FINITE_SPECIAL + (float("nan"),)
MATRICES = ("o_po", "o_op", "o_pp", "x_po", "x_op")
PACKAGE_V1_2 = Path(__file__).with_name("data") / "package_v1_2"


def identical_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and the same bit pattern in every entry."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def draw_block(data, rng, shape, label, specials) -> np.ndarray:
    """A sparse block of shares up to 0.3, a quarter of its entries drawn
    from `specials` and some rows and columns all zero."""
    block = rng.uniform(0.0, 0.3, shape) * (rng.random(shape) < 0.5)
    if block.size:
        mask = rng.random(shape) < 0.25
        block[mask] = rng.choice(specials, size=int(mask.sum()))
    for axis, size in enumerate(shape):
        for k in data.draw(st.sets(st.integers(0, size - 1)) if size else st.just(set()),
                           label=f"{label} zero axis {axis}"):
            block[(slice(None),) * axis + (k,)] = 0.0
    return block


def draw_stats(data, specials):
    """Drawn share-form and amount-form statistics with their dense inputs."""
    n_p = data.draw(st.integers(0, 7), label="n_p")
    n_o = data.draw(st.integers(0, 7), label="n_o")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shapes = {"o_po": (n_p, n_o), "o_op": (n_o, n_p), "o_pp": (n_p, n_p),
              "x_po": (n_p, n_o), "x_op": (n_o, n_p)}
    dense = {name: draw_block(data, rng, shape, name, specials) for name, shape in shapes.items()}
    dense["o_pp"] /= max(1.0, 2.0 * float(np.abs(np.nan_to_num(dense["o_pp"])).sum(axis=1).max(
        initial=0.0)))  # rho(O_PP) <= 1/2 where the block is finite
    dense["x_po"] *= 1000.0
    dense["x_op"] *= 1000.0
    ids = {"p_ids": tuple(f"p{k}" for k in range(n_p)), "o_ids": tuple(f"o{k}" for k in range(n_o))}
    vectors = {"b_p": rng.uniform(5.0, 50.0, n_p), "v_o": rng.uniform(10.0, 100.0, n_o),
               "v_p": rng.uniform(10.0, 100.0, n_p)}
    shares = cbv.CutStatistics(**ids, **vectors, o_po=dense["o_po"], o_op=dense["o_op"],
                               o_pp=dense["o_pp"])
    amounts = cbv.CutStatistics.from_amounts(ids["p_ids"], ids["o_ids"], vectors["b_p"],
                                             dense["x_po"], dense["x_op"])
    return shares, amounts, dense, vectors


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stored_blocks_read_back_and_derive_as_dense_blocks(data):
    shares, amounts, dense, vectors = draw_stats(data, SPECIAL)
    for stats in (shares, amounts):
        for name in MATRICES:
            if stats.held(name) is None:
                continue
            assert isinstance(stats.held(name), _HeldEdges)
            view = getattr(stats, name)
            assert identical_bits(view, dense[name]), name
            assert not view.flags.writeable and view is getattr(stats, name)
        # derived statistics: the parent's dense results, bit for bit
        p_keep = set(data.draw(st.lists(st.sampled_from(stats.p_ids)) if stats.p_ids
                               else st.just([]), label="p_keep"))
        o_keep = set(data.draw(st.lists(st.sampled_from(stats.o_ids)) if stats.o_ids
                               else st.just([]), label="o_keep"))
        sub = stats.restrict(p_keep, o_keep)
        at = {"p": [k for k, n in enumerate(stats.p_ids) if n in p_keep],
              "o": [k for k, n in enumerate(stats.o_ids) if n in o_keep]}
        for name in MATRICES:
            if stats.held(name) is not None:
                rows, cols = at[name[2]], at[name[3]]
                assert identical_bits(getattr(sub, name), dense[name][np.ix_(rows, cols)]), name
        kappa = data.draw(st.floats(1e-3, 1e3), label="kappa")
        scaled = cbv.scale_units(kappa, stats)
        for name in MATRICES:
            if stats.held(name) is not None:
                expected = kappa * dense[name] if name[0] == "x" else dense[name]
                assert identical_bits(getattr(scaled, name), expected), name
        assert identical_bits(scaled.b_p, kappa * vectors["b_p"])
        observed = stats.with_v_p(vectors["v_p"])
        for name in MATRICES:
            assert observed.held(name) is stats.held(name)
    # the cut edges: every entry != 0 (NaN included, -0.0 not), row-major,
    # from the stored block as from the dense one
    tau = data.draw(st.sampled_from([0.0, 1e-3]), label="tau")
    for name, values, stats in (("o_po", vectors["v_o"], shares), ("o_op", vectors["v_p"], shares),
                                ("x_po", None, amounts), ("x_op", None, amounts)):
        rows, cols = np.nonzero(dense[name] != 0)
        priced = dense[name][rows, cols] * (1.0 if values is None else values[cols])
        keep = ~(np.abs(priced) < tau)
        for block in (stats.held(name), dense[name]):
            got = (cut_edges(block, values, None, tau) if values is not None
                   else cut_edges(None, None, block, tau))
            np.testing.assert_array_equal(got[0], rows[keep])
            np.testing.assert_array_equal(got[1], cols[keep])
            assert identical_bits(got[2], priced[keep])
            assert got[3] == int((~keep).sum())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_w_agrees_with_dense_numpy(data):
    shares, amounts, dense, vectors = draw_stats(data, FINITE_SPECIAL)
    observed = shares.with_v_p(vectors["v_p"])
    cases = (
        (cbv.evaluate_regime_a(observed).w,
         dense_reference_w(vectors["b_p"], vectors["v_o"], dense["o_po"], dense["o_op"],
                           v_p=vectors["v_p"])),
        (cbv.evaluate_regime_b(shares, cbv.SolverConfig(method="direct")).w,
         dense_reference_w(vectors["b_p"], vectors["v_o"], dense["o_po"], dense["o_op"],
                           dense["o_pp"])),
        (cbv.evaluate_regime_a(amounts).w,
         dense_reference_w(vectors["b_p"], x_po=dense["x_po"], x_op=dense["x_op"])),
    )
    for w, (reference, scale) in cases:
        assert abs(w - reference) <= 1e-12 * scale


def same_bits(a, b) -> bool:
    """The same float bit for bit, any NaN equal to any NaN."""
    return (np.isnan(a) and np.isnan(b)) or identical_bits(a, b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_boundary_total_is_the_sum_of_its_priced_edges(data):
    # held -0.0 and NaN shares, and NaN values behind columns of zero shares
    shares, amounts, dense, vectors = draw_stats(data, SPECIAL)
    v_o, v_p = vectors["v_o"].copy(), vectors["v_p"].copy()
    if data.draw(st.booleans(), label="NaN values behind zero shares"):
        v_o[~(dense["o_po"] != 0).any(axis=0)] = np.nan
        v_p[~(dense["o_op"] != 0).any(axis=0)] = np.nan
    unobserved = shares.replace(v_o=v_o)
    observed = unobserved.with_v_p(v_p)
    for stats in (observed, amounts):
        held = stats.held
        sides = ((held("o_po"), stats.v_o, held("x_po")), (held("o_op"), stats.v_p, held("x_op")))
        edges = [cut_edges(*side, 0.0) for side in sides]
        # no caller can write through the edges into the stored blocks
        stored = [a for block in vars(stats).values() if isinstance(block, _HeldEdges)
                  for a in (block.rows, block.cols, block.vals)]
        assert not any(a.flags.writeable and np.shares_memory(a, b)
                       for side in edges for a in side[:3] for b in stored)
        priced = np.abs(np.concatenate([side[2] for side in edges]))
        # a threshold below every nonzero |priced edge| drops nothing
        tau = priced[priced > 0].min(initial=1.0)
        exact, below = cbv.evaluate_regime_a(stats, 0.0), cbv.evaluate_regime_a(stats, tau)
        assert below.solver_log.dropped_edges == 0
        for name in ("w", "t_out", "t_in"):
            assert same_bits(getattr(exact, name), getattr(below, name)), name
    # the meta-node leakage is regime B's T_in, the band's nominal probe its W
    try:
        result = cbv.evaluate_regime_b(unobserved)
    except cbv.StabilityError:  # a NaN share in O_PP
        with pytest.raises(cbv.StabilityError):
            cbv.effective_external_share(unobserved)
        return
    assert same_bits(cbv.effective_external_share(unobserved).e_ext, result.t_in)
    band = cbv.monte_carlo_band(unobserved)
    assert band.evaluated == 1
    assert same_bits(band.low, result.w) and same_bits(band.high, result.w)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_summary_lists_the_edges_its_result_priced(data):
    # held -0.0 and NaN shares, and NaN values behind columns of zero shares;
    # the summary is built under an observer of another threshold than the
    # result was priced at, and its edges add up, in listed order, to the
    # result's totals all the same
    shares, amounts, dense, vectors = draw_stats(data, SPECIAL)
    v_o, v_p = vectors["v_o"].copy(), vectors["v_p"].copy()
    if data.draw(st.booleans(), label="NaN values behind zero shares"):
        v_o[~(dense["o_po"] != 0).any(axis=0)] = np.nan
        v_p[~(dense["o_op"] != 0).any(axis=0)] = np.nan
    thresholds = st.sampled_from([0.0, 1.0, 5.0]) | st.floats(0.0, 50.0)
    tau, tau_observer = data.draw(st.lists(thresholds, min_size=2, max_size=2, unique=True),
                                  label="tau, tau'")
    observer = cbv.Observer("P", tolerances=cbv.Tolerances(rounding_threshold=tau_observer))
    for stats in (shares.replace(v_o=v_o, v_p=v_p), amounts):
        result = cbv.evaluate_regime_a(stats, tau)
        assert not any(a.flags.writeable for a in (*result.edges_out, *result.edges_in))
        doc = cbv.build_cut_summary(result, observer)
        assert same_bits(np.sum([e.amount for e in doc.edges_po]), result.t_out)
        assert same_bits(np.sum([e.amount for e in doc.edges_op]), result.t_in)


def test_an_empty_block_multiplies_and_sums_to_floats():
    empty = np.zeros(0, dtype=np.intp)
    block = _HeldEdges((2, 2), empty, empty, np.zeros(0))
    for out in (block @ np.ones(2), block.col_sums()):
        assert out.dtype == np.float64
        out += 0.5  # a float written in place
        assert out.tolist() == [0.5, 0.5]


def test_valuation_reads_no_dense_block():
    network, b, v = sparse_ownership(60, seed=3)
    perimeter = cbv.Perimeter(network.nodes[::3])
    observed = cbv.CutStatistics.from_network(network, perimeter, b, v)
    stats = cbv.CutStatistics.from_network(network, perimeter, b,
                                           {n: v[n] for n in observed.o_ids})
    observer = cbv.Observer(perimeter_ref="P", regime="B", control_rule=cbv.ControlRuleSpec(),
                            tolerances=cbv.Tolerances(rounding_threshold=1e-3))
    result = cbv.evaluate_for_observer(stats, observer)
    cbv.build_cut_summary(result, observer)
    cbv.evaluate_regime_a(observed, rounding_threshold=1e-3)
    cbv.evaluate_regime_b(cbv.scale_units(2.0, stats.restrict(stats.p_ids[1:], stats.o_ids)))
    cbv.effective_external_share(stats)
    cbv.hedge_vector(stats)
    cbv.monte_carlo_band(stats, noise=0.01, draws=3)
    for p in (1.0, float("inf")):
        spec = cbv.PerturbationSpec(p=p, eta=1.0, eps=1.0)
        cbv.regime_b_bound(spec, stats)
        cbv.boundary_bound(spec, stats.held("o_po"), len(stats.p_ids))
    for name in ("o_po", "o_op", "o_pp"):
        assert "array" not in vars(stats.held(name)), name
        assert "array" not in vars(observed.held(name)), name
    assert "array" not in vars(network._held)  # nor the network's dense matrix
    assert stats.o_pp is stats.with_v_p(result.stats.v_p).o_pp  # built once, then shared


def test_valuation_path_memory_is_o_nnz():
    # 3000 nodes, about 15,000 edges, half of them in P: one dense n_P x n_O
    # block is 18 MB.  Valuing from held edges stays below a tenth of it
    network, b, v = sparse_ownership(3000, seed=7)
    perimeter = cbv.Perimeter(network.nodes[::2])
    complement = {n: v[n] for n in network.nodes[1::2]}
    block_bytes = 1500 * 1500 * 8
    tracemalloc.start()
    try:
        regime_a = cbv.evaluate_regime_a(cbv.CutStatistics.from_network(network, perimeter, b, v))
        regime_b = cbv.evaluate_regime_b(
            cbv.CutStatistics.from_network(network, perimeter, b, complement))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block_bytes / 10, f"peak {peak} bytes"
    assert regime_b.solver_log.method == "neumann"
    assert regime_b.w == pytest.approx(regime_a.w, rel=1e-10)


def test_regime_b_bound_memory_is_one_lu():
    # 20,000 nodes, 2000 of them in P: the bound at p in {1, inf} is one LU of
    # order |P| (32 MB), where the dense O_PO view alone would be 288 MB
    network, b, v = sparse_ownership(20_000, seed=3)
    perimeter = cbv.Perimeter(network.nodes[::10])
    stats = cbv.CutStatistics.from_network(
        network, perimeter, b, {n: v[n] for n in network.nodes if n not in perimeter})
    tracemalloc.start()
    try:
        bounds = [cbv.regime_b_bound(cbv.PerturbationSpec(p=p, eta=1.0, eps=0.01), stats)
                  for p in (1.0, float("inf"))]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak} bytes"
    assert all(np.isfinite(report.bound) and report.bound > 0 for report in bounds)


def same_edges(a: _HeldEdges, b: _HeldEdges) -> bool:
    """The same shape, and the same positions and value bits in the same order."""
    return (a.shape == b.shape and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.cols, b.cols) and identical_bits(a.vals, b.vals))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_network_stores_the_held_edges_of_its_canonical_matrix(data):
    # built from a matrix, with ids in canonical or a drawn order, and from
    # its edges in a drawn order with explicit +0.0 edges: the held edges are
    # those of the old canonical gather, bit for bit (-0.0, NaN, subnormals
    # and out-of-range shares included), `shares` is its dense matrix, and
    # validate_network finds what the dense scan found, in the same order
    n = data.draw(st.integers(0, 13), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shares = rng.uniform(0.0, 0.4, (n, n)) * (rng.random((n, n)) < 0.5)
    special = rng.random((n, n)) < 0.25
    shares[special] = rng.choice(SPECIAL + (1.5, -0.1, float("inf")), size=int(special.sum()))
    ids = [f"n{k}" for k in range(n)]  # canonical order puts n10 before n2
    if data.draw(st.booleans(), label="permuted"):
        order = rng.permutation(n)
        ids, shares = [ids[k] for k in order], shares[np.ix_(order, order)]
    expected = gathered_network_edges(ids, shares)
    triples = [(ids[i], ids[j], shares[i, j]) for i, j in zip(*np.nonzero(shares.view(np.uint64)))]
    triples += [(ids[i], ids[j], 0.0) for i, j in zip(*np.nonzero(shares == 0.0))
                if not np.signbit(shares[i, j]) and rng.random() < 0.2]
    triples = [triples[k] for k in rng.permutation(len(triples))]
    for net in (cbv.OwnershipNetwork(ids, shares), cbv.OwnershipNetwork.from_edges(ids, triples)):
        assert net.nodes == tuple(sorted(ids))
        assert same_edges(net._held, expected)
        assert "array" not in vars(net._held)
        assert cbv.validate_network(net).findings == reference_validate_network(net).findings
        assert identical_bits(net.shares, expected.array)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_from_entries_sorts_entries_into_the_scan_of_their_block(data):
    # entries in a drawn order, -0.0, +0.0, NaN and repeated positions among
    # them: without a repeat they are, bit for bit and in order, the scan of
    # the block they scatter into; with one, the index returned is the first
    # entry whose position an earlier entry holds
    shape = (data.draw(st.integers(0, 5), label="rows"), data.draw(st.integers(0, 5), label="cols"))
    cells = shape[0] * shape[1]
    flat = data.draw(st.lists(st.integers(0, cells - 1), max_size=2 * cells) if cells
                     else st.just([]), label="positions")
    vals = data.draw(st.lists(st.sampled_from((-0.0, 0.0, float("nan"), 0.25)) | st.floats(),
                              min_size=len(flat), max_size=len(flat)), label="values")
    rows, cols = np.divmod(np.array(flat, dtype=np.intp), shape[1] or 1)
    held, first = _HeldEdges.from_entries(shape, rows, cols, vals)
    earlier, repeat = set(), None
    for k, at in enumerate(flat):
        if at in earlier:
            repeat = k
            break
        earlier.add(at)
    assert first == repeat
    if repeat is None:
        block = np.zeros(shape)
        block[rows, cols] = vals
        assert same_edges(held, _HeldEdges.of_bits(block))


# what a base or value may be given as besides a float: numbers float()
# accepts, and non-numbers it refuses
NUMBER_LIKE = ("1.5", "-0", "nan", True, 7, np.float32(0.1))
NOT_NUMBERS = ("x", "", None, [1.0], {})


def not_a_number(x) -> bool:
    try:
        float(x)
    except (TypeError, ValueError):
        return True
    return False


def draw_values(data, rng, ids, label) -> dict:
    """A float for each id, -0.0, NaN and infinities among them, a few given
    as number-like objects; in three draws of ten, one or two ids also given
    as non-numbers or dropped."""
    values = rng.uniform(-50.0, 50.0, len(ids))
    special = rng.random(len(ids)) < 0.2
    values[special] = rng.choice((-0.0, float("nan"), float("inf")), size=int(special.sum()))
    values = dict(zip(ids, values.tolist()))
    if not ids:
        return values
    some = st.sets(st.sampled_from(ids), min_size=1, max_size=2)
    for node in data.draw(some, label=f"{label} number-like"):
        values[node] = data.draw(st.sampled_from(NUMBER_LIKE), label=f"{label} {node}")
    flaw = data.draw(st.integers(0, 9), label=f"{label} flaw")
    for node in data.draw(some, label=f"{label} flawed") if flaw >= 7 else ():
        if flaw == 9:
            del values[node]
        else:
            values[node] = data.draw(st.sampled_from(NOT_NUMBERS), label=f"{label} {node}")
    return values


@pytest.mark.parametrize("owner", ["CutStatistics", "BlockPartition", "CutReportPackage"])
def test_non_numeric_block_is_domain_error(owner):
    # a block numpy cannot read as floats is refused as it is assigned; a
    # non-finite one is stored, so that a package's non-finite cell stays a
    # finding of `validate_package`
    build = {
        "CutStatistics": example_stats,
        "BlockPartition": lambda: cbv.partition(example_network(), cbv.Perimeter(P_IDS)),
        "CutReportPackage": lambda: cbv.load_package(PACKAGE_V1_2),
    }[owner]
    base = build()
    o_po = base.o_po.tolist()
    o_po[0][0] = "x"
    with pytest.raises(cbv.DomainError, match="^o_po: not a block of numbers: could not "
                                              "convert string to float: 'x'$"):
        base.replace(o_po=o_po)
    o_po[0][0] = float("nan")
    o_po[-1][-1] = float("inf")
    stored = base.replace(o_po=o_po).o_po
    assert np.isnan(stored[0, 0]) and stored[-1, -1] == float("inf")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_partition_and_from_network_match_the_reference(data):
    # ids in a drawn order and not zero-padded (canonical order puts n10
    # before n2), held -0.0, NaN and infinite shares, perimeters from empty to
    # full with an unknown id now and then, observed, unobserved and partly
    # observed v_P: the blocks, id tuples and vectors are the reference's bit
    # for bit, and each refusal is the reference's, but that a non-number is
    # a DomainError naming the first one where the reference let float()'s
    # error escape
    n = data.draw(st.integers(0, 12), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shares = rng.uniform(0.0, 0.3, (n, n)) * (rng.random((n, n)) < 0.5)
    special = rng.random((n, n)) < 0.2
    shares[special] = rng.choice((-0.0, float("nan"), float("inf")), size=int(special.sum()))
    ids = [f"n{k}" for k in range(n)]
    order = rng.permutation(n)
    net = cbv.OwnershipNetwork([ids[k] for k in order], shares[np.ix_(order, order)])
    members = data.draw(st.sets(st.sampled_from(ids)) if ids else st.just(set()), label="P")
    if data.draw(st.integers(0, 9), label="unknown") == 9:
        members.add(data.draw(st.sampled_from(["ghost", "n99"])))
    perimeter = cbv.Perimeter(members)
    b = draw_values(data, rng, ids, "b")
    v = draw_values(data, rng, ids, "v")
    if data.draw(st.booleans(), label="v_P unobserved"):
        v = {node: value for node, value in v.items() if node not in members}

    try:
        want_blocks = reference_partition(net, perimeter)
    except cbv.MembershipError as refusal:
        for build in (lambda: cbv.partition(net, perimeter),
                      lambda: cbv.CutStatistics.from_network(net, perimeter, b, v)):
            with pytest.raises(cbv.MembershipError) as got:
                build()
            assert str(got.value) == str(refusal)
        return
    blocks = cbv.partition(net, perimeter)
    assert (blocks.p_ids, blocks.o_ids) == (want_blocks.p_ids, want_blocks.o_ids)
    for name in ("o_pp", "o_po", "o_op"):
        assert same_edges(blocks.held(name), want_blocks.held(name)), name

    try:
        want = reference_from_network(net, perimeter, b, v)
    except cbv.MembershipError as refusal:
        with pytest.raises(cbv.MembershipError) as got:
            cbv.CutStatistics.from_network(net, perimeter, b, v)
        assert str(got.value) == str(refusal)
        return
    except (TypeError, ValueError):
        looked_up = [("base", b, blocks.p_ids), ("value", v, blocks.o_ids)]
        if all(node in v for node in blocks.p_ids):
            looked_up.append(("value", v, blocks.p_ids))
        noun, values, node = next((noun, values, node) for noun, values, nodes in looked_up
                                  for node in nodes if not_a_number(values[node]))
        with pytest.raises(cbv.DomainError) as got:
            cbv.CutStatistics.from_network(net, perimeter, b, v)
        assert str(got.value) == f"{noun} {values[node]!r} of node {node!r} is not a number"
        return
    stats = cbv.CutStatistics.from_network(net, perimeter, b, v)
    assert (stats.p_ids, stats.o_ids) == (want.p_ids, want.o_ids)
    for name in ("b_p", "v_o", "v_p"):
        if getattr(want, name) is None:
            assert getattr(stats, name) is None, name
        else:
            assert identical_bits(getattr(stats, name), getattr(want, name)), name
    for name in ("o_po", "o_op", "o_pp"):
        assert same_edges(stats.held(name), want.held(name)), name


def test_from_network_partitions_through_the_engine_module(monkeypatch):
    # the traced benchmark times `network.partition` by wrapping the name
    # `partition` in cbv.engine, so from_network must look it up there
    calls = []

    def counting(network, perimeter):
        calls.append(perimeter)
        return cbv.network.partition(network, perimeter)

    monkeypatch.setattr(cbv.engine, "partition", counting)
    network, b, v = sparse_ownership(40, seed=2)
    perimeter = cbv.Perimeter(network.nodes[::4])
    cbv.CutStatistics.from_network(network, perimeter, b, v)
    assert calls == [perimeter]


def test_network_shares_is_read_only_and_cached():
    net = cbv.OwnershipNetwork(["b", "a"], [[0.0, 0.3], [0.1, 0.0]])
    assert "array" not in vars(net._held)
    shares = net.shares
    assert shares is net.shares and shares is net._held.array
    assert not shares.flags.writeable
    with pytest.raises(ValueError):
        shares[0, 1] = 0.5
    with pytest.raises(AttributeError):
        net.shares = np.zeros((2, 2))
    np.testing.assert_array_equal(shares, [[0.0, 0.1], [0.3, 0.0]])


@pytest.mark.parametrize("permuted", [False, True])
def test_network_build_allocates_less_than_a_quarter_of_the_matrix(permuted):
    # the caller's matrix is scanned, not copied or gathered: the one n x n
    # temporary is the scan's bool mask, an eighth of the matrix
    n = 2000
    rng = np.random.default_rng(3)
    shares = np.zeros((n, n))
    shares[rng.integers(0, n, 5 * n), rng.integers(0, n, 5 * n)] = rng.uniform(0.0, 0.2, 5 * n)
    ids = [f"n{k:04d}" for k in (rng.permutation(n) if permuted else range(n))]
    tracemalloc.start()
    try:
        net = cbv.OwnershipNetwork(ids, shares)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < shares.nbytes / 4, f"peak {peak} bytes"
    assert same_edges(net._held, gathered_network_edges(ids, shares))


def test_sparse_ownership_builds_the_edges_of_its_dense_matrix():
    # from its summed edges, the test network holds what the dense matrix it
    # was built from before held, bit for bit
    n, seed = 1000, 11
    _, owner, owned, share = sparse_draws(n, seed)
    shares = np.zeros((n, n))
    np.add.at(shares, (owner, owned), share)
    network, _, _ = sparse_ownership(n, seed)
    assert same_edges(network._held, gathered_network_edges(network.nodes, shares))


def test_a_100k_node_network_is_valued_in_o_nnz():
    # 10^5 nodes and about 5 * 10^5 edges, whose dense matrix is 80 GB: built
    # from its edges, its bases implied from its values, and a 2 * 10^4-node
    # perimeter valued in both regimes, which agree
    tracemalloc.start()
    try:
        network, _, v = sparse_ownership(100_000, seed=5)
        b = cbv.implied_bases(network, v)
        perimeter = cbv.Perimeter(network.nodes[::5])
        complement = {n: v[n] for n in network.nodes if n not in perimeter}
        regime_a = cbv.evaluate_regime_a(cbv.CutStatistics.from_network(network, perimeter, b, v))
        regime_b = cbv.evaluate_regime_b(
            cbv.CutStatistics.from_network(network, perimeter, b, complement))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(network) == 100_000 and 490_000 <= network._held.vals.size <= 500_000
    assert peak < 256 * 2**20, f"peak {peak} bytes"
    assert regime_b.w == pytest.approx(regime_a.w, rel=1e-10)
    assert "array" not in vars(network._held)


def regime_b_package(tmp_path):
    """Statistics of a 60-node network's perimeter, and the package written from them."""
    network, b, v = sparse_ownership(60, seed=3)
    perimeter = cbv.Perimeter(network.nodes[::3])
    stats = cbv.CutStatistics.from_network(network, perimeter, b,
                                           {n: v[n] for n in network.nodes if n not in perimeter})
    observer = cbv.Observer(perimeter_ref="P", regime="B", control_rule=cbv.ControlRuleSpec(),
                            fx_ppp=cbv.FxPppSpec(scale=1.07),
                            tolerances=cbv.Tolerances(rounding_threshold=1e-3))
    cbv.write_package(tmp_path / "pkg", stats, observer)
    return stats, tmp_path / "pkg"


def test_package_path_reads_no_dense_block(tmp_path):
    _, directory = regime_b_package(tmp_path)
    pkg = cbv.load_package(directory)
    assert cbv.validate_package(pkg).ok
    stats = pkg.cut_statistics()
    result = cbv.evaluate_for_observer(stats, pkg.observer)
    cbv.build_cut_summary(result, pkg.observer)
    cbv.render_disclosure_sheet(pkg, result)
    for owner in (pkg, stats):
        for name in ("o_po", "o_op", "o_pp"):
            assert isinstance(owner.held(name), _HeldEdges), name
            assert "array" not in vars(owner.held(name)), name


def test_write_package_reads_no_dense_block(tmp_path):
    stats, _ = regime_b_package(tmp_path)
    for name in ("o_po", "o_op", "o_pp"):
        assert "array" not in vars(stats.held(name)), name


def test_replace_passes_held_edges_on(tmp_path):
    # the package, its statistics and a partition share one replace: the
    # blocks it does not change are the same held edges, and it builds no
    # dense view of them
    stats, directory = regime_b_package(tmp_path)
    pkg = cbv.load_package(directory)
    network = cbv.OwnershipNetwork(["a", "b", "c"], [[0, 0.5, 0], [0.2, 0, 0], [0, 0.3, 0]])
    blocks = cbv.partition(network, cbv.Perimeter(["a", "b"]))
    for owner, change, names in (
            (stats, {"b_p": 2 * stats.b_p}, ("o_po", "o_op", "o_pp")),
            (pkg, {"b_p": 2 * pkg.b_p}, ("o_po", "o_op", "o_pp")),
            (blocks, {"p_ids": ("x", "y")}, ("o_pp", "o_po", "o_op"))):
        copy = owner.replace(**change)
        for name in names:
            assert copy.held(name) is owner.held(name), name
            assert "array" not in vars(owner.held(name)), name


def test_clearing_problem_replace_keeps_its_liabilities():
    # a clearing problem sums its dues from the dense liabilities, so its
    # replace reads them dense, to the same bits
    problem = cbv.ClearingProblem.single_class(("a", "b"), [[-0.0, 2.0], [1.0, 0]], [1.0, 0.5])
    copy = problem.replace(resources=np.zeros(2))
    assert identical_bits(copy.liabilities[0], problem.liabilities[0])
    assert identical_bits(copy.gross_dues, problem.gross_dues)
    np.testing.assert_array_equal(copy.resources, np.zeros(2))
