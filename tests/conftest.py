"""Shared fixtures: the five-node example, Renault data, random generators,
and the oracles the tests check the library against."""

from __future__ import annotations

import math
import shutil
from itertools import compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, settings

import cbv
from cbv.report import sha256_of_file

# `python tests/mutants.py` runs its tests under this profile: the same draws
# on every run, no shrinking and no example database
settings.register_profile("mutants", derandomize=True, database=None,
                          phases=(Phase.explicit, Phase.generate))

# Five-node network: P = {A, B, C}, O = {X, Y}.  Internal cross-holdings,
# four outgoing and four incoming boundary edges.
P_IDS = ("A", "B", "C")
O_IDS = ("X", "Y")
B_P = (25.0, 35.0, 30.0)
V_O = (60.0, 80.0)
V_P_OBSERVED = (52.0, 48.0, 30.0)
O_PO = ((0.05, 0.02), (0.03, 0.00), (0.00, 0.04))
O_PP = ((0.00, 0.10, 0.00), (0.05, 0.00, 0.10), (0.00, 0.05, 0.00))
O_OP = ((0.10, 0.05, 0.00), (0.00, 0.08, 0.12))

# Frozen reference values for the example above.
EXAMPLE_BASE = 90.0
EXAMPLE_T_OUT = 9.6
EXAMPLE_T_IN_A = 15.04
EXAMPLE_W_A = 84.56
EXAMPLE_V_P_B = (33.8020, 42.0202, 35.3010)
EXAMPLE_W_B = 86.5211

# One row of a 12x12 nonnegative circulant a[i][j] = row[(j - i) % 12]
# whose exact sum is 1 + 2^-57, so rho = 1 + 2^-57 > 1; its row and column
# sums round to 1.0, and Collatz-Wielandt passes in floating point put
# rho at 0.9999999999999999.
NEAR_ONE_ROW = (
    0.04663224599917896, 0.09413412829802667, 0.08081419047640197, 0.1280409439276498,
    0.0772221951719936, 0.10763197338054907, 0.09887524288811636, 0.07402755430291491,
    0.08957477171499663, 0.08032190421507777, 0.06828056927140182, 0.05444428035369245,
)


def near_one_circulant() -> np.ndarray:
    n = len(NEAR_ONE_ROW)
    return np.array([[NEAR_ONE_ROW[(j - i) % n] for j in range(n)] for i in range(n)])


# Renault / Nissan snapshot (EUR).
V_RENAULT = 9.06e9
V_NISSAN = 7.044303429e9
SHARE_R_IN_N = 0.357
SHARE_N_IN_R = 0.15


def example_stats(with_v_p: bool = True, with_o_pp: bool = True) -> cbv.CutStatistics:
    return cbv.CutStatistics(
        p_ids=P_IDS,
        o_ids=O_IDS,
        b_p=B_P,
        v_o=V_O,
        v_p=V_P_OBSERVED if with_v_p else None,
        o_po=O_PO,
        o_op=O_OP,
        o_pp=O_PP if with_o_pp else None,
    )


def example_network() -> cbv.OwnershipNetwork:
    full = np.zeros((5, 5))
    ids = P_IDS + O_IDS
    full[:3, :3] = np.array(O_PP)
    full[:3, 3:] = np.array(O_PO)
    full[3:, :3] = np.array(O_OP)
    return cbv.OwnershipNetwork(ids, full)


def renault_stats() -> cbv.CutStatistics:
    b_r = V_RENAULT - SHARE_R_IN_N * V_NISSAN
    return cbv.CutStatistics(
        p_ids=("RENAULT",),
        o_ids=("NISSAN",),
        b_p=[b_r],
        v_o=[V_NISSAN],
        v_p=[V_RENAULT],
        o_po=[[SHARE_R_IN_N]],
        o_op=[[SHARE_N_IN_R]],
        o_pp=[[0.0]],
    )


# A package written by the cbv-cut-report@1.0 writer: example_stats(with_v_p=False)
# under the observer P-DEMO, fair_value, EUR, 2025-06-30, regime B, control
# option A at tau 0.5, with the note "demo data".  That writer listed no
# pov.json and no proof_stability.txt, and repeated the observer in the
# manifest; reloaded, that observer priced W at V1_0_W.
V1_0_PACKAGE = Path(__file__).with_name("data") / "package_v1_0"
V1_0_W = 86.5210505050505


def v1_0_package(tmp_path) -> Path:
    """A copy of the committed v1.0 package that a test may edit."""
    return Path(shutil.copytree(V1_0_PACKAGE, tmp_path / "v1_0"))


def rehash(package: Path, name: str) -> None:
    """Record the hash of the package's file `name`, as edited, in its manifest."""
    manifest = cbv.Manifest.from_yaml_bytes((package / "manifest.yaml").read_bytes())
    key = next(k for k, v in manifest.data["data_files"].items() if v == name)
    manifest.data["hashes"][key] = sha256_of_file(package / name)
    (package / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())


@pytest.fixture
def stats_a() -> cbv.CutStatistics:
    return example_stats()


@pytest.fixture
def stats_b() -> cbv.CutStatistics:
    return example_stats(with_v_p=False)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250808)


def random_share_matrix(rng, n: int, density: float = 0.5, col_cap: float = 0.9):
    """Nonnegative share matrix with zero diagonal and column sums <= col_cap."""
    mat = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(mat, 0.0)
    sums = mat.sum(axis=0)
    over = sums > 0
    caps = rng.uniform(0.3, col_cap, size=n)
    mat[:, over] = mat[:, over] * (caps[over] / sums[over])
    return mat


def sparse_draws(n: int, seed: int, owners: int = 5, col_cap: float = 0.9):
    """The draws behind `sparse_ownership`: the generator, then each drawn
    (owner, owned, share), about `owners` owners per node and the shares of
    each node summing to at most col_cap; an owner may be drawn twice."""
    rng = np.random.default_rng(seed)
    owned = np.repeat(np.arange(n), owners)
    owner = (owned + rng.integers(1, n, owned.size)) % n  # never the node itself
    share = rng.uniform(0.0, 1.0, owned.size)
    totals = np.bincount(owned, share, minlength=n)
    share *= rng.uniform(0.3, col_cap, n)[owned] / totals[owned]
    return rng, owner, owned, share


def sparse_ownership(n: int, seed: int, owners: int = 5, col_cap: float = 0.9):
    """A seeded n-node ownership network built from its edges (`sparse_draws`),
    plus bases b and the values v = b + O v they imply, as id -> amount maps.
    No dense n x n matrix is built."""
    rng, owner, owned, share = sparse_draws(n, seed, owners, col_cap)
    # an owner drawn twice holds the sum, added in draw order
    pairs, slot = np.unique(owner * n + owned, return_inverse=True)
    summed = np.bincount(slot, share)
    ids = [f"n{k:05d}" for k in range(n)]
    network = cbv.OwnershipNetwork.from_edges(
        ids, zip([ids[k] for k in pairs // n], [ids[k] for k in pairs % n], summed.tolist()))
    b = rng.uniform(5.0, 50.0, n)
    v = b.copy()
    for _ in range(1000):  # rho(O) <= col_cap, so the sweeps contract
        v, previous = b + np.bincount(owner, share * v[owned], minlength=n), v
        if np.abs(v - previous).max() < 1e-13 * np.abs(v).max():
            break
    return network, dict(zip(ids, b.tolist())), dict(zip(ids, v.tolist()))


def sparse_clearing_spec(n: int, seed: int, creditors: int = 8) -> dict:
    """A seeded two-class `cbv clearing` spec with no perimeter: each node
    owes `creditors` distinct other nodes in each class, and holds 0.15 to
    0.45 of its dues."""
    rng = np.random.default_rng(seed)
    nodes = [f"n{k}" for k in range(n)]
    stride = (n - 1) // creditors
    classes, dues = [], np.zeros(n)
    for gamma in (0.05, 0.1):
        offsets = 1 + stride * np.arange(creditors) + rng.integers(0, stride, (n, creditors))
        payees = ((np.arange(n)[:, None] + offsets) % n).tolist()
        amounts = rng.uniform(1.0, 10.0, (n, creditors))
        dues += amounts.sum(axis=1)
        classes.append({"liabilities": {nodes[i]: dict(zip(map(nodes.__getitem__, payees[i]), row))
                                        for i, row in enumerate(amounts.tolist())},
                        "default_cost": gamma})
    resources = 0.3 * dues * rng.uniform(0.5, 1.5, n)
    return {"nodes": nodes, "classes": classes, "resources": dict(zip(nodes, resources.tolist()))}


def dense_reference_w(b_p, v_o=None, o_po=None, o_op=None, o_pp=None, v_p=None,
                      x_po=None, x_op=None) -> tuple[float, float]:
    """W = 1'b_P + T_out - T_in from dense numpy products, the oracle for
    pricing from held edges, and the sum of its terms' magnitudes, the scale
    of its rounding.  Without v_P, it is solved from (I - O_PP) v_P =
    b_P + O_PO v_O by LAPACK."""
    b_p = np.asarray(b_p, dtype=float)
    if x_po is None:
        x_po = np.asarray(o_po) * np.asarray(v_o)
    if x_op is None:
        if v_p is None:
            rhs = b_p + np.asarray(o_po) @ v_o
            v_p = np.linalg.solve(np.eye(b_p.size) - np.asarray(o_pp), rhs)
        x_op = np.asarray(o_op) * v_p
    w = b_p.sum() + np.sum(x_po) - np.sum(x_op)
    return float(w), float(np.abs(b_p).sum() + np.abs(x_po).sum() + np.abs(x_op).sum())


def partition_identity(network: cbv.OwnershipNetwork, blocks, b, v) -> tuple[float, float]:
    """|sum_k W(P_k) - sum_i b_i| for perimeters P_k that partition the
    network's nodes, each valued in regime A from `from_network` with the
    values v of every node, and the bound m u M it must meet.  Each cross
    holding is priced once as T_out and once as T_in, to the same product,
    so the two sides differ only by the rounding of the sums: M sums |b_i|
    and every |priced edge| over the blocks, m counts those terms plus k,
    and u = 2^-53."""
    total, magnitude, terms = 0.0, 0.0, len(blocks)
    for members in blocks:
        stats = cbv.CutStatistics.from_network(network, cbv.Perimeter(members), b, v)
        total += cbv.evaluate_regime_a(stats).w
        parts = [stats.b_p] + [cbv.engine.cut_edges(stats.held(name), values, None, 0.0)[2]
                               for name, values in (("o_po", stats.v_o), ("o_op", stats.v_p))]
        magnitude += sum(float(np.abs(part).sum()) for part in parts)
        terms += sum(part.size for part in parts)
    return abs(total - math.fsum(b.values())), terms * 2.0**-53 * magnitude


def random_regime_stats(rng, n_p: int, n_o: int, observed: bool = False):
    """Random feasible boundary statistics (column sums over all owners <= 0.9)."""
    n = n_p + n_o
    full = random_share_matrix(rng, n)
    ids = tuple(f"p{k:02d}" for k in range(n_p)) + tuple(f"o{k:02d}" for k in range(n_o))
    b_p = rng.uniform(5.0, 50.0, size=n_p)
    v_o = rng.uniform(10.0, 100.0, size=n_o)
    stats = cbv.CutStatistics(
        p_ids=ids[:n_p],
        o_ids=ids[n_p:],
        b_p=b_p,
        v_o=v_o,
        o_po=full[:n_p, n_p:],
        o_op=full[n_p:, :n_p],
        o_pp=full[:n_p, :n_p],
    )
    if observed:
        v_p, _ = cbv.estimate_internal_values(stats)
        stats = stats.with_v_p(v_p)
    return stats


def tiny_edge_stats() -> cbv.CutStatistics:
    """A regime-B cut whose two boundary edges, one each way, price at about
    1e-6: a rounding threshold of 1e-3 drops both."""
    return cbv.CutStatistics(p_ids=("a", "b"), o_ids=("x",), b_p=[2.0, 5.0], v_o=[1.0],
                             o_po=[[1e-6], [0.0]], o_op=[[1e-6, 0.0]],
                             o_pp=[[0.0, 0.2], [0.0, 0.0]])


def two_cycle_chain_stats(n: int = 300, cycle: float = 1.0) -> cbv.CutStatistics:
    """A 2-cycle owned at `cycle` plus a 0.999 chain, and one unlinked outside node.

    rho(O_PP) is `cycle`, which both norm bounds read too.  The zero last row
    of the chain holds the Collatz-Wielandt lower bound at 0, so the passes
    run to their cap and the stability gate refuses the block with
    "no certified bound"; at the default cycle = 1, I - O_PP is singular.
    """
    o_pp = np.zeros((n, n))
    o_pp[0, 1] = o_pp[1, 0] = cycle
    for k in range(2, n - 1):
        o_pp[k, k + 1] = 0.999
    return cbv.CutStatistics(
        p_ids=tuple(f"p{k:03d}" for k in range(n)), o_ids=("x",), b_p=np.ones(n),
        v_o=[1.0], o_po=np.zeros((n, 1)), o_op=np.zeros((1, n)), o_pp=o_pp,
    )


def gauge_rewiring_family(rng, n_draws: int = 10):
    """A Regime-B instance plus rewired internal blocks with identical
    boundary operators.

    Structure: node p1 owns nothing (row of O_PP and O_PO zero) and node p2 is
    owned by nobody (column of O_PP and O_OP zero), so the (p2, p1) internal
    entry is free: changing it moves v_P but leaves T_PO, U_OP and therefore
    the consolidated value untouched.
    """
    o_pp = np.array([
        [0.00, 0.20, 0.0],
        [0.00, 0.00, 0.0],
        [0.15, 0.10, 0.0],
    ])
    o_po = np.array([
        [0.05, 0.02],
        [0.00, 0.00],
        [0.03, 0.06],
    ])
    o_op = np.array([
        [0.10, 0.05, 0.0],
        [0.04, 0.08, 0.0],
    ])
    base = cbv.CutStatistics(
        p_ids=("p0", "p1", "p2"),
        o_ids=("o0", "o1"),
        b_p=rng.uniform(10.0, 40.0, size=3),
        v_o=rng.uniform(20.0, 90.0, size=2),
        o_po=o_po,
        o_op=o_op,
        o_pp=o_pp,
    )
    rewired = []
    for eps in rng.uniform(0.01, 0.6, size=n_draws):
        variant = o_pp.copy()
        variant[2, 1] += eps
        rewired.append(cbv.CutStatistics(
            p_ids=base.p_ids,
            o_ids=base.o_ids,
            b_p=base.b_p,
            v_o=base.v_o,
            o_po=o_po,
            o_op=o_op,
            o_pp=variant,
        ))
    return base, rewired


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def iterate_once(problem: cbv.ClearingProblem, payments) -> np.ndarray:
    """One synchronous sweep of the seniority clearing map, written densely
    from its definition in cbv.clearing and sharing no code with it."""
    payments = np.asarray(payments, dtype=float)
    classes = problem.liabilities
    dues = np.stack([mat.sum(axis=1) for mat in classes])
    theta = np.ones_like(payments)
    owes = dues > 0
    theta[owes] = payments[owes] / dues[owes]
    inflows = problem.resources + sum(theta[k] @ mat for k, mat in enumerate(classes))
    costs = np.cumsum(problem.default_costs * (dues - payments), axis=0)
    senior = np.cumsum(dues, axis=0) - dues
    return np.clip(inflows - costs - senior, 0.0, dues)


def picard_clear(problem: cbv.ClearingProblem, selection: str, eps: float = 1e-12,
                 max_sweeps: int = 100000) -> np.ndarray:
    """Dense Picard iteration of iterate_once from full (greatest) or zero
    (least) payment until successive sweeps differ by less than eps."""
    dues = np.stack([mat.sum(axis=1) for mat in problem.liabilities])
    payments = dues.copy() if selection == "greatest" else np.zeros_like(dues)
    for _ in range(max_sweeps):
        updated = iterate_once(problem, payments)
        if np.abs(updated - payments).max() < eps:
            return updated
        payments = updated
    raise AssertionError(f"dense Picard oracle did not converge in {max_sweeps} sweeps")


def ix_blocks(network: cbv.OwnershipNetwork, members) -> dict[str, np.ndarray]:
    """O_PP, O_PO and O_OP sliced out of the dense share matrix with np.ix_,
    the oracle for `partition`, which scatters held edges instead."""
    in_p = np.array([node in members for node in network.nodes], dtype=bool)
    p, o = np.flatnonzero(in_p), np.flatnonzero(~in_p)
    shares = network.shares
    return {"o_pp": shares[np.ix_(p, p)], "o_po": shares[np.ix_(p, o)],
            "o_op": shares[np.ix_(o, p)]}


def gathered_network_edges(ids, shares):
    """The held edges a network built from (ids, shares) kept when it stored
    its dense matrix: the canonical gather shares[np.ix_(order, order)], then
    one scan of its bits.  The oracle for the network's stored form."""
    from cbv.network import _HeldEdges

    order = np.argsort(np.asarray([str(n) for n in ids], dtype=object))
    return _HeldEdges.of_bits(np.asarray(shares, dtype=float)[np.ix_(order, order)])


def reference_split(held, row_side: np.ndarray, col_side: np.ndarray):
    """`_HeldEdges.split` as it ran before it placed each side once and
    counted the blocks without `bincount`: the blocks [a][b] of the rows on
    side a and the columns on side b, by one stable argsort of the codes."""
    from cbv.network import _HeldEdges

    local, sizes = [], []  # each index's place within its side; each side's size
    for side in (row_side, col_side):
        at = [np.flatnonzero(side == s) for s in (0, 1)]
        local.append(np.empty(side.size, dtype=np.intp))
        for on_side in at:
            local[-1][on_side] = np.arange(on_side.size)
        sizes.append((at[0].size, at[1].size))
    code = (row_side[held.rows] << 1) | col_side[held.cols]  # block a, b is 2a + b
    order = np.argsort(code, kind="stable")
    starts = [0, *np.bincount(code, minlength=4).cumsum().tolist()]
    rows, cols = local[0][held.rows[order]], local[1][held.cols[order]]
    vals = held.vals[order]

    def piece(a: int, b: int):
        cut = slice(starts[2 * a + b], starts[2 * a + b + 1])
        return _HeldEdges((sizes[0][a], sizes[1][b]), rows[cut], cols[cut], vals[cut])

    return [[piece(a, b) for b in (0, 1)] for a in (0, 1)]


def reference_partition(network: cbv.OwnershipNetwork, perimeter: cbv.Perimeter):
    """`partition` as it ran before it looked the members up in C loops: a set
    difference refuses unknown members, a generator feeds the member
    positions, and `compress` takes the id tuples from the node tuple."""
    unknown = perimeter.members - network._index.keys()
    if unknown:
        raise cbv.MembershipError(f"perimeter ids not in network: {sorted(unknown)}")
    in_p = np.zeros(len(network.nodes), dtype=bool)
    in_p[np.fromiter((network._index[m] for m in perimeter.members), dtype=np.intp,
                     count=len(perimeter.members))] = True
    side = (~in_p).view(np.uint8)  # 0 for P, 1 for O
    (o_pp, o_po), (o_op, _) = reference_split(network._held, side, side)
    return cbv.BlockPartition(
        p_ids=tuple(compress(network.nodes, in_p.tolist())),
        o_ids=tuple(compress(network.nodes, (~in_p).tolist())),
        o_pp=o_pp, o_po=o_po, o_op=o_op,
    )


def reference_from_network(network: cbv.OwnershipNetwork, perimeter: cbv.Perimeter, b,
                           v=None) -> cbv.CutStatistics:
    """`CutStatistics.from_network` as it ran before it read the bases and
    values in C loops: missing ids listed by comprehension, then one float()
    per id in Python.  A value float() refuses escapes as its ValueError or
    TypeError."""
    b, v = dict(b), dict(v or {})
    blocks = reference_partition(network, perimeter)
    missing_b = [n for n in blocks.p_ids if n not in b]
    if missing_b:
        raise cbv.MembershipError(f"bases missing for perimeter nodes: {missing_b}")
    missing_v = [n for n in blocks.o_ids if n not in v]
    if missing_v:
        raise cbv.MembershipError(f"values missing for complement nodes: {missing_v}")
    b_p = np.array([float(b[n]) for n in blocks.p_ids])
    v_o = np.array([float(v[n]) for n in blocks.o_ids])
    v_p = None
    if all(n in v for n in blocks.p_ids):
        v_p = np.array([float(v[n]) for n in blocks.p_ids])
    return cbv.CutStatistics(
        p_ids=blocks.p_ids, o_ids=blocks.o_ids, b_p=b_p, v_o=v_o, v_p=v_p,
        o_po=blocks.held("o_po"), o_op=blocks.held("o_op"), o_pp=blocks.held("o_pp"),
    )


def reference_validate_network(network: cbv.OwnershipNetwork) -> cbv.ValidationReport:
    """`validate_network` on the dense share matrix, as it ran before it read
    the held edges: entries outside [0, 1] (NaN included) by np.argwhere, then
    column sums above 1 by sum(axis=0)."""
    from cbv.network import COLUMN_SUM_SLACK

    report = cbv.ValidationReport()
    shares = network.shares
    for i, j in np.argwhere(~((shares >= 0.0) & (shares <= 1.0))):
        report.add("entry-range", "error", f"share {float(shares[i, j])!r} outside [0, 1]",
                   location=f"{network.nodes[i]}->{network.nodes[j]}")
    col_sums = shares.sum(axis=0)
    for j in np.nonzero(col_sums > 1.0 + COLUMN_SUM_SLACK)[0]:
        report.add("column-sum", "error",
                   f"ownership of {network.nodes[j]!r} sums to {float(col_sums[j])!r} > 1",
                   location=network.nodes[j])
    return report


def dense_iterative_solve(o_pp, rhs, cfg):
    """The Neumann and GMRES solves on dense matvecs, as regime B ran them
    before it built a held-edge operator: the oracle for its iterative
    branch.  `cfg` is resolved and its method is neumann or iterative_krylov."""
    from cbv.engine import SolverLog, _stability_gate
    from cbv.errors import ConvergenceError

    m = o_pp
    log = SolverLog(method=cfg.method, rho_bound=_stability_gate(m))

    n = m.shape[0]
    if cfg.method == "neumann":
        nxt = rhs + m @ rhs
        for iteration in range(1, cfg.max_iters + 1):
            v_p = nxt
            nxt = rhs + m @ v_p
            # the residual of v_p, v_p - (rhs + A v_p), is the next update
            residual = float(np.abs(v_p - nxt).max()) if n else 0.0
            log.iterations = iteration
            if residual < cfg.eps:
                break
        else:
            raise ConvergenceError(
                f"Neumann iteration did not reach eps={cfg.eps!r} within "
                f"{cfg.max_iters} iterations (residual {residual!r})",
                last_iterate=v_p,
                residual=residual,
            )
        log.residual = residual
        return v_p, log

    from scipy.sparse.linalg import gmres

    norms = []  # one residual norm per iteration
    v_p, info = gmres(
        np.eye(n) - m, rhs, rtol=0.0, atol=cfg.eps, maxiter=cfg.max_iters,
        callback=norms.append, callback_type="pr_norm",
    )
    log.iterations = len(norms)
    # the residual the Neumann loop reports: v_p - (rhs + A v_p)
    log.residual = float(np.abs(v_p - (rhs + m @ v_p)).max()) if n else 0.0
    if info != 0:
        raise ConvergenceError(
            f"GMRES stopped with info={info} (residual {log.residual!r})",
            last_iterate=v_p,
            residual=log.residual,
        )
    return v_p, log


def reference_select_perimeter(control: cbv.ControlMatrix, seed, tau_p: float) -> cbv.Perimeter:
    """Perimeter selection one candidate at a time, as `select_perimeter` ran
    before it tested every node in one pass: each pass sums, for each node
    outside in id order, the weight the members at the start of the pass
    hold in it, until a pass adds none."""
    members = {str(s) for s in seed}
    index = {n: k for k, n in enumerate(control.ids)}
    changed = True
    while changed:
        changed = False
        inside = [index[n] for n in members]
        for node in control.ids:
            if node in members:
                continue
            weight = control.omega[inside, index[node]].sum() if inside else 0.0
            if weight >= tau_p:
                members.add(node)
                changed = True
    return cbv.Perimeter(members)


def herfindahl_index(column) -> float:
    """H_j for one ownership column, residual completed as a pseudo-holder."""
    col = np.asarray(column, dtype=float)
    residual = max(0.0, 1.0 - col.sum())
    return float(col @ col + residual * residual)


def reference_herfindahl(shares, variant) -> np.ndarray:
    """Option B / B' as dense array expressions over the whole matrix: B
    scales each share by its column's H_j, sum of squares plus the squared
    residual; B' divides each square by its column's sum of squares, where
    that sum is positive."""
    shares = np.asarray(shares, dtype=float)
    squares = shares * shares
    if variant == "B":
        residual = np.maximum(0.0, 1.0 - shares.sum(axis=0))
        return shares * (squares.sum(axis=0) + residual * residual)
    sums = squares.sum(axis=0)
    return np.divide(squares, sums, out=squares, where=sums > 0)


def reference_eliminate(a: np.ndarray) -> np.ndarray:
    """(I - a)^-1 - I by the 2x2 block elimination `engine._eliminate` runs,
    written with fresh blocks and np.block: the same products in the same
    order, so the in-place form must match it bit for bit."""
    n = a.shape[0]
    if n <= cbv.engine.INVERSE_LEAF:
        return np.linalg.inv(np.eye(n) - a) @ a
    k = n // 2
    a12, a21 = a[:k, k:], a[k:, :k]
    y11 = reference_eliminate(a[:k, :k])
    t = a21 + a21 @ y11
    u = a12 + y11 @ a12
    y22 = reference_eliminate(a[k:, k:] + t @ a12)
    x12 = u + u @ y22
    return np.block([[y11 + x12 @ t, x12], [t + y22 @ t, y22]])


def truncated_attenuated_series(shares, alpha: float, terms: int) -> np.ndarray:
    """Partial sum sum_{k<=terms} alpha^(k-1) S^k, the oracle for Option C."""
    shares = np.asarray(shares, dtype=float)
    total = np.zeros_like(shares)
    power = np.eye(shares.shape[0])
    for k in range(1, terms + 1):
        power = power @ shares
        total += alpha ** (k - 1) * power
    return total


def sample_perturbations(rng, size: int, p: float, radius: float, count: int) -> np.ndarray:
    """Matrix of `count` vectors with p-norm at most `radius` (rows)."""
    raw = rng.uniform(-1.0, 1.0, size=(count, size))
    norms = np.linalg.norm(raw, ord=p, axis=1)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.uniform(0.0, 1.0, size=count) ** (1.0 / max(size, 1))
    # half the draws sit exactly on the constraint surface
    radii[: count // 2] = radius
    return raw * (radii / norms)[:, np.newaxis]


def observed_regime_a_deltas(stats: cbv.CutStatistics, db: np.ndarray,
                             dv: np.ndarray) -> np.ndarray:
    """Exact dW for perturbation batches with internal values held fixed."""
    ones_o_po = stats.o_po.sum(axis=0)
    return db.sum(axis=1) + dv @ ones_o_po


def observed_regime_b_deltas(stats: cbv.CutStatistics, db: np.ndarray,
                             dv: np.ndarray) -> np.ndarray:
    """Exact dW when the estimated internal values respond to the shock."""
    n = stats.o_pp.shape[0]
    inv = np.linalg.inv(np.eye(n) - stats.o_pp)
    delta = stats.o_op.sum(axis=0)
    direct = observed_regime_a_deltas(stats, db, dv)
    dv_p = (db + dv @ stats.o_po.T) @ inv.T
    return direct - dv_p @ delta


# The dense norms the robustness bounds read before they were priced from held
# edges: exact (signed) values, the oracles of `regime_b_bound`.

def _finite(a, name: str) -> np.ndarray:
    """`a` as a float array; a NaN or infinite entry is a DomainError."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise cbv.DomainError(f"{name} is not finite")
    return a


def reference_induced_norm(a, p: float) -> float:
    """Operator p -> p norm: exact for p in {1, inf}, spectral for p = 2."""
    a = _finite(a, "matrix")
    if a.size == 0:
        return 0.0
    if p == 1.0:
        return float(np.abs(a).sum(axis=0).max())
    if p == float("inf"):
        return float(np.abs(a).sum(axis=1).max())
    return float(np.linalg.norm(a, 2))


def reference_mixed_norm(a, q: float, p: float) -> float:
    """||A||_{q<-p} for the dual pairings of the bounds: (inf, 1) the max
    absolute entry, (1, inf) the total absolute mass, (2, 2) the spectral norm."""
    a = _finite(a, "matrix")
    if a.size == 0:
        return 0.0
    if (q, p) == (float("inf"), 1.0):
        return float(np.abs(a).max())
    if (q, p) == (1.0, float("inf")):
        return float(np.abs(a).sum())
    if (q, p) == (2.0, 2.0):
        return float(np.linalg.norm(a, 2))
    raise cbv.DomainError(f"unsupported norm pairing ({q!r} <- {p!r})")


def reference_inverse_norm(o_pp, p: float) -> float:
    """||(I - O_PP)^-1||_{p->p}, exact and signed, from the whole inverse: one
    LU of I - O_PP against the identity, with no stability gate."""
    o_pp = _finite(o_pp, "O_PP")
    n = o_pp.shape[0]
    return reference_induced_norm(np.linalg.solve(np.eye(n) - o_pp, np.eye(n)), p)


def reference_boundary_operators(stats: cbv.CutStatistics) -> tuple[np.ndarray, np.ndarray]:
    """T_PO = (I - O_PP)^-1 O_PO and U_OP = O_OP (I - O_PP)^-1, how the
    perimeter looks from the frontier, by dense solves with no stability
    gate: purely internal rewirings that keep them fixed cannot move W."""
    system = np.eye(len(stats.p_ids)) - stats.o_pp
    return np.linalg.solve(system, stats.o_po), np.linalg.solve(system.T, stats.o_op.T).T


def reference_regime_b_bound(spec: cbv.PerturbationSpec,
                             stats: cbv.CutStatistics) -> cbv.robustness.BoundReport:
    """`regime_b_bound` from the dense blocks and the reference norms."""
    q, n_p = spec.q, len(stats.p_ids)
    eta_term = np.linalg.norm(np.ones(n_p), ord=q) * spec.eta
    eps_term = np.linalg.norm(stats.o_po.sum(axis=0), ord=q) * spec.eps
    extension = (np.linalg.norm(stats.o_op.sum(axis=0), ord=q)
                 * reference_inverse_norm(stats.o_pp, spec.p)
                 * (spec.eta + reference_mixed_norm(stats.o_po, q, spec.p) * spec.eps))
    loose = None
    if spec.p == 2.0:
        loose = np.sqrt(n_p) * (spec.eta + reference_induced_norm(stats.o_po, 2.0) * spec.eps)
    return cbv.robustness.BoundReport(
        bound=float(eta_term + eps_term + extension), eta_term=float(eta_term),
        eps_term=float(eps_term), extension_term=float(extension), loose_bound=loose)


# The PoV writer and reader as they stated every field and default by hand,
# before both read the observer's dataclasses: the oracles a rewrite of
# `report.build_pov` and `report._observer_from_pov` must match.

def reference_build_pov(observer: cbv.Observer) -> dict:
    """The PoV mapping of `observer`, field by field, in written order."""
    missing = [name for name, value in (
        ("perimeter_ref", observer.perimeter_ref),
        ("basis", observer.basis),
        ("units", observer.units),
        ("date", observer.date),
        ("information_regime", observer.regime),
        ("control_rule", observer.control_rule),
    ) if not value]
    if missing:
        raise cbv.EmissionError(
            f"perimeter-of-validity lacks required fields: {missing}", fields=missing
        )
    rule = observer.control_rule
    obs_block: dict = {
        "P": None if observer.perimeter_nodes is None else list(observer.perimeter_nodes),
        "P_ref": observer.perimeter_ref,
        "basis": observer.basis,
        "units": observer.units,
        "date": observer.date,
    }
    if observer.fx_ppp is not None:
        obs_block["fx_ppp"] = {
            "scale": observer.fx_ppp.scale,
            "fx_source": observer.fx_ppp.fx_source,
            "ppp_source": observer.fx_ppp.ppp_source,
            "deflator": observer.fx_ppp.deflator,
        }
    if observer.sdf is not None:
        obs_block["sdf"] = {
            "curve_source": observer.sdf.curve_source,
            "measure": observer.sdf.measure,
            "horizon": observer.sdf.horizon,
        }
        if observer.sdf.discount_weights is not None:
            obs_block["sdf"]["discount_weights"] = dict(observer.sdf.discount_weights)
        if observer.sdf.change_of_measure is not None:
            obs_block["sdf"]["change_of_measure"] = dict(observer.sdf.change_of_measure)
    obs_block["information_regime"] = observer.regime
    obs_block["control_rule"] = {"option": rule.option, "params": rule.params()}
    if rule.label:
        obs_block["control_rule"]["label"] = rule.label
    return {
        "observer": obs_block,
        "tolerances": {
            "rounding_threshold": observer.tolerances.rounding_threshold,
            "solver_eps": observer.tolerances.solver_eps,
            "max_iters": observer.tolerances.max_iters,
        },
        "notes": "",
    }


def reference_observer_from_pov(data: dict) -> cbv.Observer:
    """The observer a PoV mapping states, each field and default read by hand.

    Raises what the observer's checks raise (DomainError, TypeError,
    ValueError or AttributeError), which `parse_pov` reports as a PackageError.
    """
    obs = data.get("observer") or {}
    rule = obs.get("control_rule")
    if isinstance(rule, dict):
        params = rule.get("params") or {}
        rule = cbv.ControlRuleSpec(
            option=str(rule.get("option", "A")),
            tau=float(params.get("tau", 0.5)),
            alpha=float(params.get("alpha", 0.6)),
            normalize=bool(params.get("normalize", False)),
            reachability_depth=params.get("reachability_depth"),
            label=rule.get("label"),
        )
    tol, default = data.get("tolerances") or {}, cbv.Tolerances()
    fx_block = obs.get("fx_ppp")
    sdf_block = obs.get("sdf")
    nodes = obs.get("P")
    if nodes is not None:
        if not isinstance(nodes, list):
            raise TypeError(f"P must be a list of node ids or null, not {nodes!r}")
        nodes = tuple(str(n) for n in nodes)
    ref = str(obs.get("P_ref") or (nodes[0] if nodes and len(nodes) == 1 else "P"))
    return cbv.Observer(
        perimeter_ref=ref,
        basis=str(obs.get("basis", "fair_value")),
        units=str(obs.get("units", "EUR")),
        date=str(obs.get("date", "1970-01-01")),
        regime=str(obs.get("information_regime", "A")),
        control_rule=rule,
        tolerances=cbv.Tolerances(
            rounding_threshold=float(tol.get("rounding_threshold", default.rounding_threshold)),
            solver_eps=float(tol.get("solver_eps", default.solver_eps)),
            max_iters=tol.get("max_iters", default.max_iters),
        ),
        fx_ppp=(cbv.FxPppSpec(
            scale=float(fx_block.get("scale", 1.0)),
            fx_source=fx_block.get("fx_source"),
            ppp_source=fx_block.get("ppp_source"),
            deflator=fx_block.get("deflator"),
        ) if fx_block else None),
        sdf=(cbv.SdfSpec(
            measure=str(sdf_block.get("measure", "risk_neutral")),
            discount_weights=sdf_block.get("discount_weights"),
            change_of_measure=sdf_block.get("change_of_measure"),
            curve_source=sdf_block.get("curve_source"),
            horizon=sdf_block.get("horizon"),
        ) if sdf_block else None),
        perimeter_nodes=nodes,
    )
