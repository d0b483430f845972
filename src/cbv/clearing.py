"""Seniority-class clearing fixed point and post-clearing boundary flows.

Liabilities are grouped into ordered classes (class 1 is the most senior).
For node i, class l and a candidate payment matrix p, the payment map is

    T_i(l) = a_i + sum_k sum_j L^k[j, i] * theta^k_j
                 - sum_{k <= l} gamma^k_i * (pbar^k_i - p^k_i)
    p'_i(l) = clip(T_i(l) - sum_{k < l} pbar^k_i, 0, pbar^l_i)

so a class is paid from resources plus inflows, net of the full dues of the
classes senior to it and of the default costs charged by every class at or
above it in priority.  The map is monotone on the complete lattice of payment
profiles, so iterating from full payment descends to the greatest fixed point
and iterating from zero ascends to the least.  Within a class all nodes update
synchronously; a node short of a class pays its creditors pro rata to the
liability row.

A problem stores each class of liabilities as a copy of its held edges
(`network._HeldEdges`) and sums each class's gross dues from them, the
column sums of their transpose, so no dense liability matrix is built.

Cost.  On its first `clear` a problem builds one inflow operator: the
classes' held edges laid side by side, each column divided by its payer's
due, as a scipy CSR matrix whose matvec is about three times faster than a
`bincount` over the same edges.  Its entry (i, k * n + j) is
L^k[j, i] / D^k_j, so it takes payments, not payout ratios, to inflows.
`clear` computes resources less senior dues and gamma * D once, so a sweep
is that one matvec, m - 1 in-place row adds for the classes' running sum of
default costs, and a clip in place: O(nnz) in the liabilities, not
O(classes * n^2), with no payout ratio and no array allocated but the
matvec's result.  On the benchmark's 800-node, two-class problem (51,200
edges) a sweep, its residual included, measured about 49 us on one x86-64
core, about 33 us of it the matvec.  Both selections reuse the operator,
and the net boundary flows are priced from the held edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError, MembershipError
from .network import NodeId, Perimeter, _BlockField, _HeldBlocks, _HeldEdges, _positions
from .observer import _check_solver_limits

DEFAULT_EPS = 1e-12
DEFAULT_MAX_SWEEPS = 100000


@dataclass(frozen=True)
class ClearingProblem(_HeldBlocks):
    """Per-class liability matrices, resources, and default-cost fractions.

    The liabilities are stored as a copy of each class's held edges (`held`),
    so a caller's later write reaches neither them nor the dues and inflow
    operator built from them; `liabilities` reads as read-only dense arrays,
    built on the first read.  `gross_dues` is the (classes, nodes) read-only
    array of total obligations per node and class.
    """

    node_ids: tuple[NodeId, ...]
    liabilities: tuple[np.ndarray, ...] = _BlockField(optional=False, many=True)
    resources: np.ndarray
    default_costs: np.ndarray
    gross_dues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.node_ids)
        if len(set(self.node_ids)) != n:
            raise MembershipError("node ids must be unique")
        if not self.held("liabilities"):
            raise DomainError("at least one liability class is required")
        held, dues = [], []
        for k, mat in enumerate(self.held("liabilities")):
            # held edges that `replace` passes on are checked and kept as they are
            if not isinstance(mat, _HeldEdges):
                mat = np.asarray(mat, dtype=float)
            if mat.shape != (n, n):
                raise DimensionError(f"class {k + 1} liabilities must be {n}x{n}")
            # every entry but +0.0, which is valid
            edges = mat if isinstance(mat, _HeldEdges) else _HeldEdges.of_bits(mat)
            if not ((edges.vals >= 0) & (edges.vals < np.inf)).all():  # NaN fails both
                raise DomainError("liabilities must be finite and nonnegative")
            held.append(edges)
            dues.append(edges.T.col_sums())
        object.__setattr__(self, "liabilities", tuple(held))
        dues = np.stack(dues)
        dues.setflags(write=False)
        object.__setattr__(self, "gross_dues", dues)
        resources = np.asarray(self.resources, dtype=float).reshape(-1)
        if resources.shape != (n,):
            raise DimensionError("resources must have one entry per node")
        if not ((resources >= 0) & (resources < np.inf)).all():
            raise DomainError("resources must be finite and nonnegative")
        object.__setattr__(self, "resources", resources)
        costs = np.asarray(self.default_costs, dtype=float)
        if costs.shape != (len(held), n):
            raise DimensionError("default_costs must be (classes, nodes)")
        if not ((costs >= 0) & (costs <= 1)).all():
            raise DomainError("default costs must lie in [0, 1]")
        object.__setattr__(self, "default_costs", costs)

    @classmethod
    def single_class(cls, node_ids, liabilities, resources, gamma=0.0):
        n = len(tuple(node_ids))
        return cls(
            node_ids=tuple(node_ids),
            liabilities=(np.asarray(liabilities, dtype=float),),
            resources=resources,
            default_costs=np.full((1, n), float(gamma)),
        )

    @property
    def n_classes(self) -> int:
        return len(self.held("liabilities"))

    @cached_property
    def _inflow_csr(self):
        """`_inflow` with column k * n + j divided by the due D^k_j, as the
        scipy CSR matrix the sweeps multiply payments by.  Every held edge's
        payer owes a positive due, so no column divides by 0, and a column
        whose payer owes nothing holds no entry."""
        from scipy.sparse import csr_array

        edges = _inflow(self)
        # in place: `_inflow`'s values are its own, so no second copy of them is held
        np.divide(edges.vals, self.gross_dues.ravel()[edges.cols], out=edges.vals)
        # int32 halves a sweep's index bytes wherever the shape and the entry count fit in it
        index = np.int32 if max(*edges.shape, edges.vals.size) <= np.iinfo(np.int32).max else np.intp
        return csr_array((edges.vals, (edges.rows.astype(index), edges.cols.astype(index))),
                         shape=edges.shape)


@dataclass(frozen=True)
class ClearingOutcome:
    """Payments and payout ratios at the fixed point."""

    node_ids: tuple[NodeId, ...]
    payments: np.ndarray
    payout_ratios: np.ndarray
    iterations: int
    residual: float
    selection: str


def _payout_ratios(payments: np.ndarray, dues: np.ndarray) -> np.ndarray:
    return np.divide(payments, dues, out=np.ones_like(payments), where=dues > 0.0)


def _inflow(problem: ClearingProblem) -> _HeldEdges:
    """The (n, classes * n) inflow operator whose entry (i, k * n + j) is
    L^k[j, i]: each class's held edges, transposed, side by side."""
    n = len(problem.node_ids)
    parts = [held.edges().T for held in problem.held("liabilities")]
    return _HeldEdges((n, len(parts) * n), np.concatenate([p.rows for p in parts]),
                      np.concatenate([p.cols + k * n for k, p in enumerate(parts)]),
                      np.concatenate([p.vals for p in parts]))


def _payment_map(
    inflow,
    payments: np.ndarray,
    headroom: np.ndarray,
    gamma: np.ndarray,
    charged: np.ndarray,
    dues: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """One synchronous sweep, written into `out`.  `inflow` is the problem's
    `_inflow_csr`, `headroom` the resources less the dues of the classes
    senior to each class, and `charged` gamma * dues."""
    np.multiply(gamma, payments, out=out)
    np.subtract(charged, out, out=out)  # each class's default cost, gamma * (D - p)
    for k in range(1, len(out)):
        out[k] += out[k - 1]  # and those of the classes senior to it
    np.subtract(headroom, out, out=out)
    # payments are pro rata: node j sends p^k_j * L^k[j, i] / D^k_j to creditor i
    out += inflow @ payments.ravel()
    return np.clip(out, 0.0, dues, out=out)


def clear(
    problem: ClearingProblem,
    selection: str = "greatest",
    eps: float = DEFAULT_EPS,
    max_iters: int = DEFAULT_MAX_SWEEPS,
) -> ClearingOutcome:
    """Iterate the payment map to the selected fixed point.

    `greatest` starts from full payment and descends; `least` starts from zero
    and ascends.  Convergence is declared when successive payment profiles
    differ by less than eps in the max norm; eps must be finite and positive
    and max_iters a positive integer.
    """
    if selection not in ("greatest", "least"):
        raise DomainError(f"selection must be greatest or least, got {selection!r}")
    _check_solver_limits(eps, max_iters)
    inflow, dues, gamma = problem._inflow_csr, problem.gross_dues, problem.default_costs
    headroom = problem.resources - (np.cumsum(dues, axis=0) - dues)
    charged = gamma * dues
    payments = dues.copy() if selection == "greatest" else np.zeros_like(dues)
    updated, change = np.empty_like(dues), np.empty_like(dues)
    residual = float("inf")
    for sweep in range(1, max_iters + 1):
        _payment_map(inflow, payments, headroom, gamma, charged, dues, out=updated)
        np.subtract(updated, payments, out=change)
        residual = float(np.abs(change, out=change).max()) if dues.size else 0.0
        payments, updated = updated, payments
        if residual < eps:
            return ClearingOutcome(
                node_ids=problem.node_ids,
                payments=payments,
                payout_ratios=_payout_ratios(payments, dues),
                iterations=sweep,
                residual=residual,
                selection=selection,
            )
    raise ConvergenceError(
        f"clearing did not converge within {max_iters} sweeps "
        f"(last residual {residual!r})",
        last_iterate=payments,
        residual=residual,
    )


@dataclass(frozen=True)
class NetBoundaryFlows:
    """Post-clearing net flows across a perimeter, as priced edge matrices."""

    p_ids: tuple[NodeId, ...]
    o_ids: tuple[NodeId, ...]
    x_po: np.ndarray
    x_op: np.ndarray


def net_boundary_flows(
    problem: ClearingProblem, outcome: ClearingOutcome, perimeter: Perimeter
) -> NetBoundaryFlows:
    """Scale boundary liabilities by the payer's payout ratios and split.

    The result is suitable as amount-form cut input downstream; internal
    rewirings that preserve these nets cannot move the consolidated value.
    A perimeter id the problem does not clear is a MembershipError.
    """
    if outcome.node_ids != problem.node_ids:
        raise DimensionError("outcome and problem refer to different node sets")
    index = {n: k for k, n in enumerate(problem.node_ids)}
    p_ids = tuple(sorted(perimeter.members))
    o_ids = tuple(sorted(index.keys() - perimeter.members))
    in_p = np.zeros(len(index), dtype=bool)
    place = np.empty(len(index), dtype=np.intp)  # each node's row in X_PO or in X_OP
    for side, ids in ((True, p_ids), (False, o_ids)):
        at = _positions(index, ids, "cleared here")
        in_p[at], place[at] = side, np.arange(len(at))
    x_po = np.zeros((len(p_ids), len(o_ids)))
    x_op = np.zeros((len(o_ids), len(p_ids)))
    for ratios, held in zip(outcome.payout_ratios, problem.held("liabilities")):
        rows, cols = held.rows, held.cols
        paid = ratios[rows] * held.vals  # payer j sends theta_j * L[j, i]
        for flows, payer_in_p in ((x_po, True), (x_op, False)):
            cut = (in_p[rows] == payer_in_p) & (in_p[cols] != payer_in_p)
            flows[place[rows[cut]], place[cols[cut]]] += paid[cut]
    return NetBoundaryFlows(p_ids=p_ids, o_ids=o_ids, x_po=x_po, x_op=x_op)
