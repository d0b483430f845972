"""Shared fixtures: the five-node example, Renault data, random generators,
and the oracles the tests check the library against."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

import cbv
from cbv.report import sha256_of_file

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
    """O_PP, O_PO, O_OP and O_OO sliced out of the dense share matrix with
    np.ix_, the oracle for `partition`, which scatters held edges instead."""
    in_p = np.array([node in members for node in network.nodes], dtype=bool)
    p, o = np.flatnonzero(in_p), np.flatnonzero(~in_p)
    shares = network.shares
    return {"o_pp": shares[np.ix_(p, p)], "o_po": shares[np.ix_(p, o)],
            "o_op": shares[np.ix_(o, p)], "o_oo": shares[np.ix_(o, o)]}


def dense_iterative_solve(o_pp, rhs, cfg):
    """The Neumann and GMRES solves on dense matvecs, as regime B ran them
    before it built a held-edge operator: the oracle for its iterative
    branch.  `cfg` is resolved and its method is neumann or iterative_krylov."""
    from cbv.engine import SolverLog, _stability_gate, spectral_radius_bound
    from cbv.errors import ConvergenceError, StabilityError

    m = o_pp
    log = SolverLog(
        method=cfg.method, damping=cfg.damping, regularization=cfg.regularization
    )
    if cfg.damping is not None:
        m = cfg.damping * m
    _stability_gate(m, cfg, log)

    n = m.shape[0]
    if cfg.regularization:
        m = m - cfg.regularization * np.eye(n)
        # the sweeps iterate O_PP - rI, so that is the block they need certified
        if cfg.method == "neumann" and not spectral_radius_bound(m).rho_upper < 1.0:
            raise StabilityError("O_PP - rI is not certified stable")

    if cfg.method == "neumann":
        nxt = rhs + m @ rhs
        for iteration in range(1, cfg.max_iters + 1):
            v_p = nxt
            nxt = rhs + m @ v_p
            # the residual of v_p, v_p - (rhs + O_PP v_p), is the next update
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
    # the residual the Neumann loop reports: v_p - (rhs + O_PP v_p)
    log.residual = float(np.abs(v_p - (rhs + m @ v_p)).max()) if n else 0.0
    if info != 0:
        raise ConvergenceError(
            f"GMRES stopped with info={info} (residual {log.residual!r})",
            last_iterate=v_p,
            residual=log.residual,
        )
    return v_p, log


def herfindahl_index(column) -> float:
    """H_j for one ownership column, residual completed as a pseudo-holder."""
    col = np.asarray(column, dtype=float)
    residual = max(0.0, 1.0 - col.sum())
    return float(col @ col + residual * residual)


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
