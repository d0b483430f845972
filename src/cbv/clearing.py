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

`clear` stacks the classes into one sparse inflow operator per call, so a
sweep costs O(nnz) in the liabilities rather than O(classes * n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError, MembershipError
from .network import NodeId, Perimeter
from .observer import _check_solver_limits

DEFAULT_EPS = 1e-12
DEFAULT_MAX_SWEEPS = 100000


@dataclass(frozen=True)
class ClearingProblem:
    """Per-class liability matrices, resources, and default-cost fractions."""

    node_ids: tuple[NodeId, ...]
    liabilities: tuple[np.ndarray, ...]
    resources: np.ndarray
    default_costs: np.ndarray

    def __post_init__(self):
        n = len(self.node_ids)
        if len(set(self.node_ids)) != n:
            raise MembershipError("node ids must be unique")
        if not self.liabilities:
            raise DomainError("at least one liability class is required")
        mats = []
        for k, mat in enumerate(self.liabilities):
            mat = np.asarray(mat, dtype=float)
            if mat.shape != (n, n):
                raise DimensionError(f"class {k + 1} liabilities must be {n}x{n}")
            if not ((mat >= 0) & (mat < np.inf)).all():  # NaN fails both
                raise DomainError("liabilities must be finite and nonnegative")
            mats.append(mat)
        object.__setattr__(self, "liabilities", tuple(mats))
        resources = np.asarray(self.resources, dtype=float).reshape(-1)
        if resources.shape != (n,):
            raise DimensionError("resources must have one entry per node")
        if not ((resources >= 0) & (resources < np.inf)).all():
            raise DomainError("resources must be finite and nonnegative")
        object.__setattr__(self, "resources", resources)
        costs = np.asarray(self.default_costs, dtype=float)
        if costs.shape != (len(mats), n):
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
        return len(self.liabilities)

    def gross_dues(self) -> np.ndarray:
        """(classes, nodes) array of total obligations per node and class."""
        return np.stack([mat.sum(axis=1) for mat in self.liabilities])


@dataclass(frozen=True)
class ClearingOutcome:
    """Payments and payout ratios at the fixed point."""

    node_ids: tuple[NodeId, ...]
    payments: np.ndarray
    payout_ratios: np.ndarray
    iterations: int
    residual: float
    selection: str


def _payout_ratios(payments: np.ndarray, dues: np.ndarray, owes: np.ndarray) -> np.ndarray:
    return np.divide(payments, dues, out=np.ones_like(payments), where=owes)


def _payment_map(
    problem: ClearingProblem,
    inflow,
    payments: np.ndarray,
    dues: np.ndarray,
    owes: np.ndarray,
    senior_dues: np.ndarray,
) -> np.ndarray:
    """One synchronous sweep.  `inflow` is the (n, classes * n) operator whose
    entry (i, k * n + j) is L^k[j, i]; `owes` is dues > 0 and `senior_dues` the
    dues of the classes senior to each class."""
    theta = _payout_ratios(payments, dues, owes)
    # payments are pro rata: node j sends theta_j * L[j, i] to creditor i
    inflows = problem.resources + inflow @ theta.ravel()
    cumulative_costs = np.cumsum(problem.default_costs * (dues - payments), axis=0)
    return np.clip(inflows - cumulative_costs - senior_dues, 0.0, dues)


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
    from scipy.sparse import csr_array

    n = len(problem.node_ids)
    payees, columns, amounts = [], [], []
    for k, mat in enumerate(problem.liabilities):
        # a flat index is cheaper to find than a 2-D one, and divmod splits it
        payer, payee = np.divmod(np.flatnonzero(mat != 0), n)
        payees.append(payee)
        columns.append(payer + k * n)
        amounts.append(mat[payer, payee])
    inflow = csr_array(
        (np.concatenate(amounts), (np.concatenate(payees), np.concatenate(columns))),
        shape=(n, problem.n_classes * n),
    )
    dues = problem.gross_dues()
    owes = dues > 0.0
    senior_dues = np.cumsum(dues, axis=0) - dues
    payments = dues.copy() if selection == "greatest" else np.zeros_like(dues)
    residual = float("inf")
    for sweep in range(1, max_iters + 1):
        updated = _payment_map(problem, inflow, payments, dues, owes, senior_dues)
        residual = float(np.abs(updated - payments).max()) if dues.size else 0.0
        payments = updated
        if residual < eps:
            return ClearingOutcome(
                node_ids=problem.node_ids,
                payments=payments,
                payout_ratios=_payout_ratios(payments, dues, owes),
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
    """
    if outcome.node_ids != problem.node_ids:
        raise DimensionError("outcome and problem refer to different node sets")
    members = {str(m) for m in perimeter.members}
    index = {n: k for k, n in enumerate(problem.node_ids)}
    unknown = members - index.keys()
    if unknown:
        raise DimensionError(f"perimeter ids not cleared here: {sorted(unknown)}")
    p_ids = tuple(sorted(members))
    o_ids = tuple(sorted(index.keys() - members))
    p_idx = [index[n] for n in p_ids]
    o_idx = [index[n] for n in o_ids]
    x_po = np.zeros((len(p_ids), len(o_ids)))
    x_op = np.zeros((len(o_ids), len(p_ids)))
    for ratios, mat in zip(outcome.payout_ratios, problem.liabilities):
        x_po += ratios[p_idx, np.newaxis] * mat[np.ix_(p_idx, o_idx)]
        x_op += ratios[o_idx, np.newaxis] * mat[np.ix_(o_idx, p_idx)]
    return NetBoundaryFlows(p_ids=p_ids, o_ids=o_ids, x_po=x_po, x_op=x_op)
