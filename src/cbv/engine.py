"""Consolidated value of a perimeter from its boundary statistics.

The consolidated value of a perimeter P with complement O is

    W(P) = sum_{j in P} b_j
         + sum_{i in P, k in O} O_ik * v_k      (holdings across the cut)
         - sum_{i in O, j in P} O_ij * v_j      (external minorities)

and depends only on the internal bases and the edges crossing the cut.  Two
informational regimes are supported:

* Regime A: internal values v_P are observed and the internal block O_PP is
  never read.
* Regime B: v_P is estimated first by solving (I - O_PP) v_P = b_P + O_PO v_O,
  which is well posed when rho(O_PP) < 1, then the same cut formula applies.

Boundary statistics may also be given directly as priced flow matrices (one
amount per edge) instead of share blocks times values; post-clearing net flows
and the macro case studies use that form.  One table, `_FIELDS`, declares
each array `CutStatistics` may hold: the ids on its axes and whether it holds
money.  Its shape checks, `restrict` and `scale_units` read that table.

Cost.  `CutStatistics` stores every block in the stored form of held edges
that `network` states: `from_network` takes them from `partition`, which
splits the network's held edges by side in O(n + nnz), and looks up and
converts the bases and values in C loops (`_floats`), a dense block given is
scanned into that form as it is assigned, and statistics derived from others
(`replace`, `with_v_p`, `restrict`, `scale_units`) pass on the held edges
they do not change.  No valuation or bound reads a block dense: reading
`stats.o_pp` or another block builds its dense array once, for the dense
algebra of `condition_diagnostics` and the p = 2 spectral norm of O_PO in
the robustness bounds.  Regime B is two pieces: the right-hand side
b_P + O_PO v_O (`_boundary_rhs`, one held-edge matvec) and the gated solve on
O_PP (`_solve_internal`); a Monte Carlo band, whose probes move only O_PP,
computes the first once and runs only the second per probe.
Every method reads O_PP's held edges: each gate pass, sweep, Krylov step or
residual costs O(nnz + n_P), and the direct method's one dense LU builds
I - O_PP from them; the gate certifies O_PP, the operator every method runs.
Pricing the cut has one primitive, `cut_edges`, one amount per nonzero
boundary edge in row-major order: T_out, T_in, the meta-node leakage and each
band probe are sums of its amounts.  A `ValuationResult` keeps the edges its
totals sum and the statistics it priced, and a cut summary lists its edges.

The stability gate reads the held edges of whatever block it is given: one
pass of row and column sums when a norm of O_PP certifies rho < 1, and
otherwise at most POWER_ITERATIONS Collatz-Wielandt passes, one matvec each,
stopping at the first certified bound below 1 or once a certified lower bound
reaches 1; a bound certifies with a margin for its rounding.  The gate has
one verdict: an operator it cannot certify is a StabilityError for every
caller, whatever the solver config, and the refusal names that operator.
Every dense solve against I - A goes through `_solve_shifted`, which builds
I - A from held edges, and every caller gates A first: direct regime B and
the robustness bound, one solve of I - |O_PP| against the ones vector.
Control Option C needs all of
(I - A)^-1 - I, which `_inverse_minus_identity` computes by 2x2 block
elimination in matrix products, about twice as fast as the LU solve with n
right-hand sides; it pivots across no block, so only a gated A may reach it:
rho(|A|) < 1 keeps every block it inverts nonsingular.  In regime B, `auto`
sweeps the certified operator up to as many times as one LU costs,
n_P^3 // (LU_SWEEP_RATIO (nnz + n_P)) with LU_SWEEP_RATIO the measured price
of a sweep against an LU; sweeps that have not reached eps within that
budget take one LU, so a wasted budget costs at most one LU more.  The
Neumann solver does one matvec per iteration: the update it computes anyway
is the residual of the previous iterate.  Only GMRES loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    MembershipError,
    RegimeError,
    StabilityError,
)
from .network import (
    NodeId,
    OwnershipNetwork,
    Perimeter,
    _BlockField,
    _HeldBlocks,
    _HeldEdges,
    partition,
)
from .observer import Observer, Tolerances, _check_solver_limits

POWER_ITERATIONS = 100
SOLVER_METHODS = ("auto", "direct", "neumann", "iterative_krylov")
# The price of one Neumann sweep per (nnz + n) against one LU per n^3, so that
# n^3 // (LU_SWEEP_RATIO (nnz + n)) sweeps cost one LU: `auto`'s budget.
# Measured with one BLAS thread (OpenBLAS 0.3.31, x86-64, 2 vCPUs), best of
# 3-7 runs, on benchmark perimeter blocks, 0.999 rings and random blocks of
# about 5 entries a column, two runs each:
#     n          100      200      300      600      900     1200     1800     2400
#     benchmark  367-415  378-447  308-333  262-309  214-240  189-213  150-182  154-188
#     ring       225-263  257-314  243-266  222-251  235-244  194-206  164-258  172-221
#     random     82-107   128-129  139-163  162-163  178-187  173-178  149-184  157-186
# The top of the range is taken, so a budget that runs out costs at most one LU.
LU_SWEEP_RATIO = 450
# The order up to which `_inverse_minus_identity` inverts a block by one LAPACK
# call rather than by elimination.  Measured with one BLAS thread on gated
# share blocks of 150-1600 nodes, median of 7: 64 was 1-15% faster than 128,
# and leaves of 32-160 were within 5% of each other at 800 nodes.
INVERSE_LEAF = 64


def _stored(x, shape, name):
    """x as CutStatistics stores it, checked against `shape`.

    A block is held edges already (`_BlockField`).  A vector, which may come
    in any shape of its size, is a read-only float array: one that is
    read-only, 1-D and owns its data (every vector CutStatistics stores) is
    shared, so derived statistics reuse their parent's; anything else is
    copied.  Either way a caller who later writes to their array cannot move W.
    """
    if len(shape) == 1 and not (type(x) is np.ndarray and x.dtype == np.float64
                                and x.flags.owndata and not x.flags.writeable and x.ndim == 1):
        x = np.array(np.ravel(x), dtype=float)
        x.setflags(write=False)
    if x.shape != shape:
        raise DimensionError(f"{name} has shape {x.shape}, expected {shape}")
    return x


# Every array a CutStatistics holds: the ids that index its rows, those that
# index its columns (None for a vector), and whether it holds money, which
# `scale_units` scales; the others hold shares.
_FIELDS = {
    "b_p": ("p_ids", None, True),
    "v_o": ("o_ids", None, True),
    "v_p": ("p_ids", None, True),
    "o_po": ("p_ids", "o_ids", False),
    "o_op": ("o_ids", "p_ids", False),
    "o_pp": ("p_ids", "p_ids", False),
    "x_po": ("p_ids", "o_ids", True),
    "x_op": ("o_ids", "p_ids", True),
}


@dataclass(frozen=True)
class CutStatistics(_HeldBlocks):
    """Boundary data for one perimeter under one observer.

    Share form prices each cut edge as share * counterparty value; amount form
    (`x_po`, `x_op`) carries already-priced flows.  Either form may be used on
    each side of the cut.  `clearing_tag` marks post-clearing flows so that
    pre- and post-clearing data are never mixed downstream.  Each block is
    stored as held edges (`held`), which every valuation reads; reading
    `o_pp` and the other blocks gives a read-only dense array, built on the
    first read and shared with the statistics derived from these.
    """

    p_ids: tuple[NodeId, ...]
    o_ids: tuple[NodeId, ...]
    b_p: np.ndarray
    v_o: np.ndarray | None = None
    v_p: np.ndarray | None = None
    o_po: np.ndarray | None = _BlockField()
    o_op: np.ndarray | None = _BlockField()
    o_pp: np.ndarray | None = _BlockField()
    x_po: np.ndarray | None = _BlockField()
    x_op: np.ndarray | None = _BlockField()
    clearing_tag: str | None = None

    def __post_init__(self):
        if self.b_p is None:
            raise DimensionError("b_p is required: one base per perimeter node")
        for name, (rows, cols, _) in _FIELDS.items():
            value = self.held(name)
            if value is not None:
                shape = tuple(len(getattr(self, ids)) for ids in (rows, cols) if ids)
                object.__setattr__(self, name, _stored(value, shape, name))
        n_o = len(self.o_ids)
        if self.held("x_po") is None and self.held("o_po") is None and n_o:
            raise DimensionError("outgoing side needs o_po/v_o or x_po")
        if self.held("x_op") is None and self.held("o_op") is None and n_o:
            raise DimensionError("incoming side needs o_op or x_op")
        if self.held("o_po") is not None and self.v_o is None:
            raise DimensionError("o_po given without v_o")

    @classmethod
    def from_network(
        cls, network: OwnershipNetwork, perimeter: Perimeter, b, v=None
    ) -> "CutStatistics":
        """Assemble share-form statistics from a full network and value maps.

        `b` must cover every perimeter member; `v` must cover the complement
        and may cover perimeter members (then v_P is observed).
        """
        b, v = _plain(b), _plain(v or {})
        blocks = partition(network, perimeter)
        b_p, v_o = _floats((b, blocks.p_ids, "base", "perimeter"),
                           (v, blocks.o_ids, "value", "complement"))
        v_p = None
        if all(map(v.__contains__, blocks.p_ids)):
            (v_p,) = _floats((v, blocks.p_ids, "value", "perimeter"))
        return cls(
            p_ids=blocks.p_ids,
            o_ids=blocks.o_ids,
            b_p=b_p,
            v_o=v_o,
            v_p=v_p,
            o_po=blocks.held("o_po"),
            o_op=blocks.held("o_op"),
            o_pp=blocks.held("o_pp"),
        )

    @classmethod
    def from_amounts(
        cls, p_ids, o_ids, b_p, x_po, x_op, clearing_tag=None
    ) -> "CutStatistics":
        """Amount-form statistics: edges carry already-priced flows."""
        return cls(
            p_ids=tuple(p_ids),
            o_ids=tuple(o_ids),
            b_p=b_p,
            x_po=x_po,
            x_op=x_op,
            clearing_tag=clearing_tag,
        )

    def with_v_p(self, v_p) -> "CutStatistics":
        return self.replace(v_p=v_p)

    def restrict(self, p_keep, o_keep) -> "CutStatistics":
        """Sub-statistics over a subset of node ids (canonical order kept)."""
        keep = {"p_ids": set(p_keep), "o_ids": set(o_keep)}
        dropped = {ids: np.array([n not in keep[ids] for n in getattr(self, ids)], dtype=np.uint8)
                   for ids in keep}  # side 1 is cut away
        at = {ids: np.flatnonzero(side == 0) for ids, side in dropped.items()}
        cut = {}
        for name, (rows, cols, _) in _FIELDS.items():
            value = self.held(name)
            if value is not None:
                cut[name] = (value[at[rows]] if cols is None
                             else value.split(dropped[rows], dropped[cols])[0][0])
        return self.replace(p_ids=tuple(self.p_ids[k] for k in at["p_ids"]),
                            o_ids=tuple(self.o_ids[k] for k in at["o_ids"]), **cut)


def scale_units(kappa: float, stats: CutStatistics) -> CutStatistics:
    """Multiply every monetary quantity by kappa; shares are untouched."""
    if not 0 < kappa < np.inf:  # NaN fails both
        raise DomainError(f"kappa={kappa!r} must be finite and > 0")
    scaled = {}
    for name, (_, cols, money) in _FIELDS.items():
        value = stats.held(name)
        if money and value is not None:
            scaled[name] = kappa * value if cols is None else value.scaled(kappa)
    return stats.replace(**scaled)


@dataclass(frozen=True)
class SpectralBound:
    """Certified bounds on rho(|A|), whose upper ones also bound rho(A), for the
    gated A: O_PP or alpha S.

    `rho_upper` is the least of the two norms and the Collatz-Wielandt upper
    bounds of the `passes` passes run; `rho_lower` is the greatest of their
    lower bounds, min_i (|A| v)_i / v_i.  `certified` is rho_upper (1 + (n + 2) u)
    < 1, u the unit roundoff: a margin for the rounding of the sums and ratios.
    """

    rho_upper: float
    norm_1: float
    norm_inf: float
    passes: int
    rho_lower: float = 0.0
    certified: bool = False


def spectral_radius_bound(o_pp) -> SpectralBound:
    """Norm bounds on rho(O_PP), tightened by Collatz-Wielandt passes on |O_PP|.

    For any positive v, rho(|A|) <= max_i (|A| v)_i / v_i (Meyer, Matrix
    Analysis and Applied Linear Algebra, 8.3): a weighted row-sum norm, which
    v = 1 makes the infinity norm; likewise rho(|A|) >= min_i (|A| v)_i / v_i.
    When neither norm is below 1, the passes iterate v <- v + |A| v, power
    iteration on I + |A|: the shift keeps v positive on reducible blocks and
    makes periodic ones such as a 2-cycle converge.  They stop at the first
    upper bound below 1, once the lower bound reaches 1 (no later pass can
    certify rho < 1), or after POWER_ITERATIONS passes.

    `o_pp` is a square array or held edges; the sums and the passes run on
    its held edges, so each costs O(nnz + n).
    """
    held = _HeldEdges.of(o_pp)
    n = held.n
    if n == 0:
        return SpectralBound(0.0, 0.0, 0.0, 0, certified=True)
    margin = 1.0 + (n + 2) * float(np.finfo(float).eps) / 2  # 1 + (n + 2) u
    a = _HeldEdges(held.shape, held.rows, held.cols, np.abs(held.vals))
    row_sums = np.bincount(a.rows, a.vals, minlength=n)
    norm_1 = float(np.bincount(a.cols, a.vals, minlength=n).max())
    norm_inf = float(row_sums.max())
    rho, passes = min(norm_1, norm_inf), 0
    lower = float(row_sums.min())
    v = 1.0 + row_sums  # the pass from v = 1 gave norm_inf and `lower`
    while not rho * margin < 1.0 and rho < np.inf and lower < 1.0 and passes < POWER_ITERATIONS:
        w = a @ v
        passes += 1
        ratios = w / v
        rho = min(rho, float(ratios.max()))
        lower = max(lower, float(ratios.min()))
        v += w
        v /= v.max()
    return SpectralBound(rho, norm_1, norm_inf, passes, rho_lower=lower,
                         certified=rho * margin < 1.0)


@dataclass(frozen=True)
class SolverConfig:
    """How internal values are estimated in Regime B.

    `eps` and `max_iters` left unset take declared tolerances (`resolved`):
    the observer's in `evaluate_for_observer`, the library defaults elsewhere.
    """

    method: str = "auto"
    eps: float | None = None
    max_iters: int | None = None

    def __post_init__(self):
        if self.method not in SOLVER_METHODS:
            raise DomainError(f"unknown solver method {self.method!r}")
        _check_solver_limits(self.eps, self.max_iters)

    def resolved(self, tolerances: Tolerances = Tolerances()) -> SolverConfig:
        """This config with unset eps/max_iters taken from `tolerances`."""
        return replace(
            self,
            eps=tolerances.solver_eps if self.eps is None else self.eps,
            max_iters=tolerances.max_iters if self.max_iters is None else self.max_iters,
        )


@dataclass
class SolverLog:
    """What the estimation actually did, for disclosure."""

    method: str
    iterations: int = 0
    residual: float = 0.0
    rho_bound: SpectralBound | None = None
    warnings: list[str] = field(default_factory=list)
    dropped_edges: int = 0


@dataclass(frozen=True)
class ValuationResult:
    """W, its three boundary terms, and the cut they price: `stats`, the
    statistics priced (after the observer's scale, with the v_P the cut
    used), and each side's edges, (rows, cols, amounts) as `cut_edges` kept
    them at the rounding threshold, which T_out and T_in sum."""

    w: float
    base_total: float
    t_out: float
    t_in: float
    stats: CutStatistics
    edges_out: tuple[np.ndarray, np.ndarray, np.ndarray]
    edges_in: tuple[np.ndarray, np.ndarray, np.ndarray]
    solver_log: SolverLog


def cut_edges(share_block, values, amounts, tau):
    """The priced edges of one side of the cut: (rows, cols, amounts, dropped),
    the amounts every boundary total sums.

    An edge is a nonzero share, priced as share * value of its column, or a
    nonzero entry of an amount block (used when given); a block is a 2-D
    array or held edges, whose held -0.0 is not an edge.  Edges with
    |amount| < tau are dropped and counted; any other edge, a NaN-priced one
    included, is kept.  Edges come in row-major order, in read-only arrays
    (the block's own where they can be), and the cost follows the held
    entries, not the cells of the block.
    """
    if amounts is None and share_block is None:
        rows, cols, priced = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    else:
        edges = _HeldEdges.of(share_block if amounts is None else amounts).edges()
        rows, cols, priced = edges.rows, edges.cols, edges.vals
        if amounts is None:
            priced = priced * values[cols]
    dropped = 0
    if tau > 0.0:  # otherwise no amount is below it
        keep = ~(np.abs(priced) < tau)
        rows, cols, priced = rows[keep], cols[keep], priced[keep]
        dropped = int(keep.size - np.count_nonzero(keep))
    return (*map(_read_only, (rows, cols, priced)), dropped)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def evaluate_regime_a(
    stats: CutStatistics, rounding_threshold: float = 0.0
) -> ValuationResult:
    """Direct cut evaluation with observed internal values.

    Cost is one priced amount per boundary edge (`cut_edges`); the internal
    block is never read.  Edge amounts below the rounding threshold are
    dropped and counted in the log.  The result keeps the edges it summed.
    """
    held = stats.held
    if held("x_op") is None and held("o_op") is not None and stats.v_p is None:
        raise RegimeError("regime A needs observed v_P to price external minorities")
    *edges_out, dropped_out = cut_edges(held("o_po"), stats.v_o, held("x_po"), rounding_threshold)
    *edges_in, dropped_in = cut_edges(held("o_op"), stats.v_p, held("x_op"), rounding_threshold)
    t_out, t_in = float(edges_out[2].sum()), float(edges_in[2].sum())
    base_total = float(stats.b_p.sum())
    log = SolverLog(method="direct-cut", dropped_edges=dropped_out + dropped_in)
    return ValuationResult(
        w=base_total + t_out - t_in,
        base_total=base_total,
        t_out=t_out,
        t_in=t_in,
        stats=stats,
        edges_out=tuple(edges_out),
        edges_in=tuple(edges_in),
        solver_log=log,
    )


def _stability_gate(matrix, operator: str = "O_PP") -> SpectralBound:
    """The certificate of a block whose spectral radius a certified bound puts
    below 1; any other block is a StabilityError that names it as `operator`.

    `matrix` is a square array or held edges, read as held edges once.  Every
    caller gates the operator it runs, so no config changes the verdict.
    """
    held = _HeldEdges.of(matrix)
    bound = spectral_radius_bound(held)
    if bound.certified:
        return bound
    if bound.rho_lower >= 1.0:  # rho(A) = rho(|A|) when nothing is negative
        verdict = "is unstable" if (held.vals >= 0).all() else "cannot be certified stable"
        raise StabilityError(f"the block {verdict}: rho(|{operator}|) >= {bound.rho_lower!r}")
    near = ", within rounding of 1" if bound.rho_upper < 1.0 else ""
    raise StabilityError(f"no certified bound puts rho({operator}) below 1 (least bound "
                         f"{bound.rho_upper!r} after {bound.passes} Collatz-Wielandt passes{near})")


def _solve_shifted(held: _HeldEdges, rhs: np.ndarray) -> np.ndarray:
    """x with (I - A) x = rhs for held edges A, from one dense LU.  Every caller
    gates A first, so I - A is nonsingular; one singular in rounding is a
    StabilityError."""
    try:
        return np.linalg.solve(held.identity_minus(), rhs)
    except np.linalg.LinAlgError as exc:
        raise StabilityError(f"I - A is singular: {exc}") from exc


def _inverse_minus_identity(held: _HeldEdges) -> np.ndarray:
    """(I - A)^-1 - I = A (I - A)^-1 for held edges A that passed the stability
    gate, by recursive 2x2 block elimination: a block of order INVERSE_LEAF or
    less is one LAPACK inverse times A, every other step a matrix product.

    Only a gated A may come here, because no block is pivoted across: the gate
    certifies rho(|A|) < 1, so I - A is a nonsingular H-matrix, and so is each
    leading block and each Schur complement the recursion inverts
    (Fiedler-Ptak; Horn & Johnson, Topics in Matrix Analysis, 2.5).  Block LU
    is stable on such blocks (Demmel, Higham & Schreiber 1995).  A singular
    block is a StabilityError.
    """
    try:
        return _eliminate(held.array)
    except np.linalg.LinAlgError as exc:
        raise StabilityError(f"I - A is singular: {exc}") from exc


def _eliminate(a: np.ndarray) -> np.ndarray:
    """Y = (I - a)^-1 - I, eliminating the leading half of a.

    With (I - a11)^-1 = I + Y11, T = a21 (I + Y11) and U = (I + Y11) a12, the
    Schur complement is I - (a22 + T a12), its inverse I + Y22, and
        Y = [[Y11 + X12 T, X12], [(I + Y22) T, Y22]]  with  X12 = U (I + Y22).
    No step subtracts the identity, so Y is as accurate relative to A's
    powers as an LU solve, however small A is.
    """
    n = a.shape[0]
    if n <= INVERSE_LEAF:
        return np.linalg.inv(np.eye(n) - a) @ a
    k = n // 2
    a12, a21 = a[:k, k:], a[k:, :k]
    y11 = _eliminate(a[:k, :k])
    t = a21 + a21 @ y11
    u = a12 + y11 @ a12
    y22 = _eliminate(a[k:, k:] + t @ a12)
    x12 = u + u @ y22
    return np.block([[y11 + x12 @ t, x12], [t + y22 @ t, y22]])


def _boundary_rhs(stats: CutStatistics) -> np.ndarray:
    """b_P + O_PO v_O, the right-hand side of the regime-B system: one
    matvec over O_PO's edges, the entries `cut_edges` prices, so a value
    behind a held -0.0 share is not read."""
    o_po = stats.held("o_po")
    if o_po is None or stats.v_o is None:
        if len(stats.o_ids):
            raise RegimeError("regime B needs share-form o_po and v_o")
        return stats.b_p.copy()
    return stats.b_p + o_po.edges() @ stats.v_o


def _residual(held: _HeldEdges, rhs: np.ndarray, v_p: np.ndarray) -> float:
    """max|v_p - (rhs + A v_p)|, the residual every method reports."""
    return float(np.abs(v_p - (rhs + held @ v_p)).max()) if v_p.size else 0.0


def _neumann(held: _HeldEdges, rhs: np.ndarray, sweeps: int, eps: float,
             log: SolverLog) -> np.ndarray:
    """v <- rhs + A v from v = rhs until max|r| < eps, at most `sweeps` times."""
    nxt = rhs + held @ rhs
    for iteration in range(1, sweeps + 1):
        v_p = nxt
        nxt = rhs + held @ v_p
        # the residual of v_p, v_p - (rhs + O_PP v_p), is the next update
        residual = float(np.abs(v_p - nxt).max()) if held.n else 0.0
        log.iterations = iteration
        if residual < eps:
            break
    else:
        raise ConvergenceError(
            f"Neumann iteration did not reach eps={eps!r} within "
            f"{sweeps} iterations (residual {residual!r})",
            last_iterate=v_p,
            residual=residual,
        )
    log.residual = residual
    return v_p


def _gmres(held: _HeldEdges, rhs: np.ndarray, cfg: SolverConfig,
           log: SolverLog) -> np.ndarray:
    """GMRES on I - A, the one branch that loads scipy."""
    from scipy.sparse.linalg import LinearOperator, gmres

    norms = []  # one residual norm per iteration
    v_p, info = gmres(
        LinearOperator((held.n,) * 2, matvec=lambda x: np.ravel(x) - held @ np.ravel(x),
                       dtype=float),
        rhs, rtol=0.0, atol=cfg.eps, maxiter=cfg.max_iters,
        callback=norms.append, callback_type="pr_norm",
    )
    log.iterations = len(norms)
    log.residual = _residual(held, rhs, v_p)
    if info != 0:
        raise ConvergenceError(
            f"GMRES stopped with info={info} (residual {log.residual!r})",
            last_iterate=v_p,
            residual=log.residual,
        )
    return v_p


def _solve_internal(
    o_pp, rhs: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, SolverLog]:
    """Solve (I - O_PP) v_P = rhs under a resolved config, behind the gate
    (`o_pp` a square array or held edges).

    The gate runs once, on O_PP's held edges, which every method then reads:
    an O_PP it cannot certify is a StabilityError, and `SolverLog.rho_bound`
    is the certificate of the operator that runs.  `auto` sweeps at most as
    many times as one LU costs; `direct`, and `auto` when the sweeps have not
    reached eps, take one LU of I - O_PP.  The log names the method that ran.
    """
    held = _HeldEdges.of(o_pp)
    n = held.n
    log = SolverLog(method=cfg.method, rho_bound=_stability_gate(held))
    sweeps = cfg.max_iters
    if cfg.method == "auto":
        # as many sweeps as one LU costs; explicit zeros (a band's designated
        # entries) are not edges
        price = LU_SWEEP_RATIO * (np.count_nonzero(held.vals) + n)
        sweeps = int(min(cfg.max_iters, n**3 // max(price, 1)))
    v_p = None
    try:
        if cfg.method == "iterative_krylov":
            v_p = _gmres(held, rhs, cfg, log)
        elif cfg.method == "neumann" or (cfg.method == "auto" and sweeps):
            log.method = "neumann"
            v_p = _neumann(held, rhs, sweeps, cfg.eps, log)
    except ConvergenceError as exc:
        if cfg.method != "auto":
            raise
        log.warnings.append(
            f"Neumann sweeps did not reach eps={cfg.eps!r} within the budget of "
            f"{sweeps} sweeps, one LU's price (residual {exc.residual!r}); solved by LU")
        log.iterations = 0
    if v_p is None:
        log.method = "direct"
        v_p = _solve_shifted(held, rhs)
        log.residual = _residual(held, rhs, v_p)
    return v_p, log


def estimate_internal_values(
    stats: CutStatistics, cfg: SolverConfig | None = None
) -> tuple[np.ndarray, SolverLog]:
    """Solve (I - O_PP) v_P = b_P + O_PO v_O for the internal values.

    The stability gate requires a certified bound below 1 on the spectral
    radius of O_PP before any method runs (`_solve_internal`).
    """
    cfg = (cfg or SolverConfig()).resolved()
    if stats.held("o_pp") is None:
        raise RegimeError("regime B needs the internal block O_PP")
    return _solve_internal(stats.held("o_pp"), _boundary_rhs(stats), cfg)


def evaluate_regime_b(
    stats: CutStatistics,
    cfg: SolverConfig | None = None,
    rounding_threshold: float = 0.0,
) -> ValuationResult:
    """Estimate v_P, then evaluate the cut exactly as in Regime A."""
    v_p, log = estimate_internal_values(stats, cfg)
    result = evaluate_regime_a(stats.with_v_p(v_p), rounding_threshold)
    log.dropped_edges = result.solver_log.dropped_edges
    return replace(result, solver_log=log)


def evaluate_for_observer(
    stats: CutStatistics, observer: Observer, cfg: SolverConfig | None = None
) -> ValuationResult:
    """Re-price boundary statistics under an observer and evaluate its regime.

    Disclosure packages carry no v_P file; under regime A with share-form
    minorities and no observed v_P, the internal values are recovered from
    the structural identity v = b + O v (v_P = b_P + O_PO v_O when no
    internal block is given), which reproduces the observed-value calculation
    whenever the bases were implied from observed values in the first place.
    """
    scale = observer.pricing_scale
    priced = scale_units(scale, stats) if scale != 1.0 else stats
    tau = observer.tolerances.rounding_threshold
    cfg = (cfg or SolverConfig()).resolved(observer.tolerances)
    if observer.regime == "A":
        held = priced.held
        if priced.v_p is None and held("x_op") is None and held("o_op") is not None:
            if held("o_pp") is not None:
                return evaluate_regime_b(priced, cfg, tau)
            priced = priced.with_v_p(_boundary_rhs(priced))
        return evaluate_regime_a(priced, tau)
    return evaluate_regime_b(priced, cfg, tau)


@dataclass(frozen=True)
class EffectiveExternalShare:
    """Total value leaking to outside owners, and the meta-node share."""

    e_ext: float
    omega_eff: float
    v_p: np.ndarray


def effective_external_share(
    stats: CutStatistics, cfg: SolverConfig | None = None
) -> EffectiveExternalShare:
    """Compress the perimeter into a meta-node with one external share.

    The leakage E_ext = delta' (I - O_PP)^-1 (b_P + O_PO v_O), delta_j the
    direct outside ownership of each internal node, is the minorities term:
    it is taken as regime B's T_in, the sum of the priced edges of O_OP, so
    W(P) = 1'b_P + 1'O_PO v_O - E_ext is the Regime-B value bit for bit.
    """
    if stats.held("o_op") is None:
        raise RegimeError("effective external share needs the o_op block")
    result = evaluate_regime_b(stats, cfg)
    v_p = result.stats.v_p
    total = float(v_p.sum())
    omega_eff = result.t_in / total if total != 0.0 else 0.0
    return EffectiveExternalShare(e_ext=result.t_in, omega_eff=omega_eff, v_p=v_p)


def hedge_vector(stats: CutStatistics) -> dict[NodeId, float]:
    """Aggregate exposure of the perimeter to each outside node."""
    if stats.held("o_po") is None:
        return {node: 0.0 for node in stats.o_ids}
    sums = stats.held("o_po").col_sums()
    return {node: float(sums[k]) for k, node in enumerate(stats.o_ids)}


def cut_gap(gross: float, w: float) -> float:
    """(gross - W) / W, the double-counting diagnostic."""
    if w == 0.0:
        raise DomainError("cut gap undefined for W = 0")
    return (gross - w) / w


def implied_bases(network: OwnershipNetwork, v) -> dict[NodeId, float]:
    """Back out b = v - O v from observed values on a full network, in
    O(n + nnz): `v` must cover every node."""
    (values,) = _floats((_plain(v), network.nodes, "value", "network"))
    bases = values - network._held @ values
    return dict(zip(network.nodes, bases.tolist()))


def _plain(values) -> dict:
    """`values`, copied unless it is a plain dict: no `__missing__` answers for an id."""
    return values if type(values) is dict else dict(values)


def _floats(*wanted) -> list[np.ndarray]:
    """For each (values, ids, noun, side) in `wanted`, float(values[id]) for
    each id, looked up and converted in C loops.  A refusal is built only on
    failure: the first ids with some missing from their values are a
    MembershipError that lists those ids; otherwise the first value, in the
    order wanted, that float() refuses is a DomainError that names its node.
    """
    try:
        return [np.fromiter(map(float, map(values.__getitem__, ids)), float, len(ids))
                for values, ids, _, _ in wanted]
    except (KeyError, TypeError, ValueError, OverflowError):
        for values, ids, noun, side in wanted:
            missing = [n for n in ids if n not in values]
            if missing:
                raise MembershipError(f"{noun}s missing for {side} nodes: {missing}") from None
        for values, ids, noun, _ in wanted:
            for node in ids:
                try:
                    float(values[node])
                except (TypeError, ValueError, OverflowError):
                    raise DomainError(
                        f"{noun} {values[node]!r} of node {node!r} is not a number") from None
        raise
