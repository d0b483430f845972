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
and the macro case studies use that form.

Cost.  `CutStatistics.from_network` takes each block from `partition`, which
scatters the network's held edges into it, so a block costs its allocation
plus the edges it holds; statistics derived from others (`with_v_p`,
`scale_units`) share the blocks they do not change.  Regime B is two pieces:
the right-hand side b_P + O_PO v_O (`_boundary_rhs`) and the gated solve on
O_PP (`_solve_internal`); a Monte Carlo band, whose probes move only O_PP,
computes the first once and runs only the second per probe.  The direct
method is one dense LU of I - O_PP.  Every other method first scans the block
once for its held edges (`_HeldEdges`, O(n_P^2) until blocks are stored
sparse), and then costs O(nnz + n_P) per gate pass, sweep, Krylov step or
residual.  Pricing the cut is a reduction over the two boundary blocks: with
no rounding threshold, one pass of column sums per block and no n_P x n_O
temporary; with a threshold, one priced amount per nonzero edge (`cut_edges`,
which also lists the edges of a cut summary) so that each can be tested
against it.

The stability gate of regime B is one pass of row and column sums when a
norm of O_PP certifies rho < 1, and otherwise at most POWER_ITERATIONS
Collatz-Wielandt passes, one matvec each, stopping at the first certified
bound below 1 or once a certified lower bound reaches 1.  The direct method
gates the dense block and solves it densely; every dense solve against I - A
goes through `_solve_shifted`, the one place that decides what a singular
I - A means.  `auto` gates the held edges, and the gate's certificate picks
the method: when the 1- or infinity-norm bounds rho by rho_c < 1, the
Neumann residual after k sweeps is at most rho_c^k times the first update,
which predicts k, and `auto` sweeps when k (nnz + n_P) <= n_P^3 /
LU_SWEEP_RATIO, a measured price of a sweep against an LU.  A certificate
only the Collatz-Wielandt passes give, an adjustment that leaves no
certificate, a count past max_iters, or sweeps that rounding stalls short of
eps go to one LU.  The Neumann solver does one matvec per iteration: the
update it computes anyway is the residual of the previous iterate.  Only
GMRES loads scipy.
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
from .network import NodeId, OwnershipNetwork, Perimeter, partition
from .observer import Observer, Tolerances, _check_solver_limits

POWER_ITERATIONS = 100
# `auto` sweeps when the k sweeps a norm certificate predicts satisfy
# k (nnz + n) <= n^3 / LU_SWEEP_RATIO.  Measured with one BLAS thread on 75
# blocks (benchmark perimeters and band probes, rings and random sparse
# blocks, n = 50..2400), the total solve time is least for ratios of 45 to 60;
# the predicted k overstates the sweeps most ownership blocks need, which is
# why this sits below the raw price of a sweep per (nnz + n) against an LU per
# n^3 (140 to 450 on the same host).
LU_SWEEP_RATIO = 60


def _frozen(x) -> np.ndarray:
    """x as a read-only float array.

    A read-only float array that owns its data (every array CutStatistics
    stores) is shared, so derived statistics reuse their parent's blocks;
    anything else is copied, so a caller who later writes to their array
    cannot move W.
    """
    if (type(x) is np.ndarray and x.dtype == np.float64 and x.flags.owndata
            and not x.flags.writeable):
        return x
    arr = np.array(x, dtype=float)
    arr.setflags(write=False)
    return arr


def _vector(x, size, name) -> np.ndarray:
    arr = _frozen(x)
    if arr.ndim != 1:
        arr = _frozen(arr.reshape(-1))
    if arr.shape != (size,):
        raise DimensionError(f"{name} has length {arr.shape[0]}, expected {size}")
    return arr


def _matrix(x, shape, name) -> np.ndarray:
    arr = _frozen(x)
    if arr.shape != shape:
        raise DimensionError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


@dataclass(frozen=True)
class CutStatistics:
    """Boundary data for one perimeter under one observer.

    Share form prices each cut edge as share * counterparty value; amount form
    (`x_po`, `x_op`) carries already-priced flows.  Either form may be used on
    each side of the cut.  `clearing_tag` marks post-clearing flows so that
    pre- and post-clearing data are never mixed downstream.
    """

    p_ids: tuple[NodeId, ...]
    o_ids: tuple[NodeId, ...]
    b_p: np.ndarray
    v_o: np.ndarray | None = None
    v_p: np.ndarray | None = None
    o_po: np.ndarray | None = None
    o_op: np.ndarray | None = None
    o_pp: np.ndarray | None = None
    x_po: np.ndarray | None = None
    x_op: np.ndarray | None = None
    clearing_tag: str | None = None

    def __post_init__(self):
        n_p, n_o = len(self.p_ids), len(self.o_ids)
        object.__setattr__(self, "b_p", _vector(self.b_p, n_p, "b_P"))
        for name, value, shape in (
            ("v_o", self.v_o, (n_o,)),
            ("v_p", self.v_p, (n_p,)),
            ("o_po", self.o_po, (n_p, n_o)),
            ("o_op", self.o_op, (n_o, n_p)),
            ("o_pp", self.o_pp, (n_p, n_p)),
            ("x_po", self.x_po, (n_p, n_o)),
            ("x_op", self.x_op, (n_o, n_p)),
        ):
            if value is None:
                continue
            if len(shape) == 1:
                object.__setattr__(self, name, _vector(value, shape[0], name))
            else:
                object.__setattr__(self, name, _matrix(value, shape, name))
        if self.x_po is None and self.o_po is None and n_o:
            raise DimensionError("outgoing side needs o_po/v_o or x_po")
        if self.x_op is None and self.o_op is None and n_o:
            raise DimensionError("incoming side needs o_op or x_op")
        if self.o_po is not None and self.v_o is None:
            raise DimensionError("o_po given without v_o")

    @classmethod
    def from_network(
        cls, network: OwnershipNetwork, perimeter: Perimeter, b, v=None
    ) -> "CutStatistics":
        """Assemble share-form statistics from a full network and value maps.

        `b` must cover every perimeter member; `v` must cover the complement
        and may cover perimeter members (then v_P is observed).
        """
        b, v = dict(b), dict(v or {})
        blocks = partition(network, perimeter)
        for block in (blocks.o_pp, blocks.o_po, blocks.o_op):
            block.setflags(write=False)  # fresh copies: stored as they are, not copied again
        missing_b = [n for n in blocks.p_ids if n not in b]
        if missing_b:
            raise MembershipError(f"bases missing for perimeter nodes: {missing_b}")
        missing_v = [n for n in blocks.o_ids if n not in v]
        if missing_v:
            raise MembershipError(f"values missing for complement nodes: {missing_v}")
        b_p = np.array([float(b[n]) for n in blocks.p_ids])
        v_o = np.array([float(v[n]) for n in blocks.o_ids])
        v_p = None
        if all(n in v for n in blocks.p_ids):
            v_p = np.array([float(v[n]) for n in blocks.p_ids])
        return cls(
            p_ids=blocks.p_ids,
            o_ids=blocks.o_ids,
            b_p=b_p,
            v_o=v_o,
            v_p=v_p,
            o_po=blocks.o_po,
            o_op=blocks.o_op,
            o_pp=blocks.o_pp,
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
        return replace(self, v_p=_vector(v_p, len(self.p_ids), "v_P"))

    def restrict(self, p_keep, o_keep) -> "CutStatistics":
        """Sub-statistics over a subset of node ids (canonical order kept)."""
        p_keep, o_keep = set(p_keep), set(o_keep)
        pi = [k for k, n in enumerate(self.p_ids) if n in p_keep]
        oi = [k for k, n in enumerate(self.o_ids) if n in o_keep]

        def cut(value, rows, cols=None):
            if value is None:
                return None
            if cols is None:
                return value[rows]
            return value[np.ix_(rows, cols)]

        return CutStatistics(
            p_ids=tuple(self.p_ids[k] for k in pi),
            o_ids=tuple(self.o_ids[k] for k in oi),
            b_p=self.b_p[pi],
            v_o=cut(self.v_o, oi),
            v_p=cut(self.v_p, pi),
            o_po=cut(self.o_po, pi, oi),
            o_op=cut(self.o_op, oi, pi),
            o_pp=cut(self.o_pp, pi, pi),
            x_po=cut(self.x_po, pi, oi),
            x_op=cut(self.x_op, oi, pi),
            clearing_tag=self.clearing_tag,
        )


def scale_units(kappa: float, stats: CutStatistics) -> CutStatistics:
    """Multiply every monetary quantity by kappa; shares are untouched."""
    if not kappa > 0:
        raise DomainError(f"kappa={kappa!r} must be > 0")

    def scaled(value):
        return None if value is None else kappa * value

    return replace(
        stats,
        b_p=kappa * stats.b_p,
        v_o=scaled(stats.v_o),
        v_p=scaled(stats.v_p),
        x_po=scaled(stats.x_po),
        x_op=scaled(stats.x_op),
    )


@dataclass(frozen=True)
class SpectralBound:
    """Certified bounds on rho(|O_PP|), whose upper ones also bound rho(O_PP).

    `rho_upper` is the least of the two norms and the Collatz-Wielandt upper
    bounds of the `passes` passes run; `rho_lower` is the greatest of their
    lower bounds, min_i (|O_PP| v)_i / v_i.
    """

    rho_upper: float
    norm_1: float
    norm_inf: float
    passes: int
    rho_lower: float = 0.0


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

    `o_pp` may be a scipy sparse array or the engine's held-edge form: the same
    sums and matvecs then cost its nonzeros.
    """
    m = o_pp if hasattr(o_pp, "nnz") else np.asarray(o_pp, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError("o_pp must be square")
    if m.shape[0] == 0:
        return SpectralBound(0.0, 0.0, 0.0, 0)
    a = abs(m) if m.min() < 0.0 else m
    row_sums = a.sum(axis=1)
    norm_1 = float(a.sum(axis=0).max())
    norm_inf = float(row_sums.max())
    rho, passes = min(norm_1, norm_inf), 0
    lower = float(row_sums.min())
    v = 1.0 + row_sums  # the pass from v = 1 gave norm_inf and `lower`
    while 1.0 <= rho < np.inf and lower < 1.0 and passes < POWER_ITERATIONS:
        w = a @ v
        passes += 1
        ratios = w / v
        rho = min(rho, float(ratios.max()))
        lower = max(lower, float(ratios.min()))
        v += w
        v /= v.max()
    return SpectralBound(rho, norm_1, norm_inf, passes, rho_lower=lower)


@dataclass(frozen=True)
class SolverConfig:
    """How internal values are estimated in Regime B.

    `eps` and `max_iters` left unset take declared tolerances (`resolved`):
    the observer's in `evaluate_for_observer`, the library defaults elsewhere.
    """

    method: str = "auto"
    eps: float | None = None
    max_iters: int | None = None
    damping: float | None = None
    regularization: float | None = None

    def __post_init__(self):
        if self.method not in ("auto", "direct", "neumann", "iterative_krylov"):
            raise DomainError(f"unknown solver method {self.method!r}")
        _check_solver_limits(self.eps, self.max_iters)
        if self.damping is not None and not 0.0 < self.damping < 1.0:
            raise DomainError("damping must be in (0, 1)")
        if self.regularization is not None and self.regularization < 0:
            raise DomainError("regularization must be >= 0")

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
    damping: float | None = None
    regularization: float | None = None
    warnings: list[str] = field(default_factory=list)
    dropped_edges: int = 0


@dataclass(frozen=True)
class ValuationResult:
    """W plus the three boundary terms it decomposes into."""

    w: float
    base_total: float
    t_out: float
    t_in: float
    v_p_used: np.ndarray | None
    solver_log: SolverLog


def _held_entries(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of a block's nonzero entries, in row-major
    order, from one scan of its != 0 mask (np.nonzero on a float block costs
    several times more)."""
    flat = np.flatnonzero(block != 0)
    return (*np.divmod(flat, block.shape[1]), np.take(block, flat))


def cut_edges(share_block, values, amounts, tau):
    """The priced edges of one side of the cut: (rows, cols, amounts, dropped).

    An edge is a nonzero share, priced as share * value of its column, or a
    nonzero entry of an amount block (used when given).  Edges with
    |amount| < tau are dropped and counted; any other edge, a NaN-priced one
    included, is kept.  Edges come in row-major order, and the cost follows
    the nonzero entries, not the cells of the block.
    """
    if amounts is None and share_block is None:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, np.zeros(0), 0
    rows, cols, priced = _held_entries(share_block if amounts is None else amounts)
    if amounts is None:
        priced = priced * values[cols]
    keep = ~(np.abs(priced) < tau)
    return rows[keep], cols[keep], priced[keep], int(keep.size - np.count_nonzero(keep))


def _priced_edges(share_block, values, amounts, tau, col_sums=None):
    """Edge totals with sub-threshold amounts dropped, in canonical order.

    With no threshold nothing is dropped, and the total is a reduction over
    the block: an amount block is summed, a share block contributes its column
    sums (`col_sums` when the caller has them already) times the values.  With
    a threshold the total is over `cut_edges`.
    """
    if amounts is None and share_block is None:
        return 0.0, 0
    if not tau > 0.0:
        if amounts is not None:
            return float(amounts.sum()), 0
        if col_sums is None:
            col_sums = share_block.sum(axis=0)
        if not np.isfinite(values).all():
            # as on the per-edge path, a value counts only where its column
            # holds a share: a non-finite value behind zeros stays out of W
            held = share_block.any(axis=0)
            col_sums, values = col_sums[held], values[held]
        return float(col_sums @ values), 0
    _, _, priced, dropped = cut_edges(share_block, values, amounts, tau)
    return float(priced.sum()), dropped


def evaluate_regime_a(
    stats: CutStatistics, rounding_threshold: float = 0.0
) -> ValuationResult:
    """Direct cut evaluation with observed internal values.

    Cost is one reduction over each boundary block; the internal block is
    never read.  Edge amounts below the rounding threshold are dropped and
    counted in the log.
    """
    if stats.x_op is None and stats.o_op is not None and stats.v_p is None:
        raise RegimeError("regime A needs observed v_P to price external minorities")
    t_out, dropped_out = _priced_edges(
        stats.o_po, stats.v_o, stats.x_po, rounding_threshold
    )
    t_in, dropped_in = _priced_edges(
        stats.o_op, stats.v_p, stats.x_op, rounding_threshold
    )
    base_total = float(stats.b_p.sum())
    log = SolverLog(method="direct-cut", dropped_edges=dropped_out + dropped_in)
    return ValuationResult(
        w=base_total + t_out - t_in,
        base_total=base_total,
        t_out=t_out,
        t_in=t_in,
        v_p_used=stats.v_p,
        solver_log=log,
    )


def _stability_gate(
    matrix: np.ndarray, cfg: SolverConfig | None = None, log: SolverLog | None = None
) -> None:
    """Refuse a matrix whose spectral radius no certified bound puts below 1.

    Passes when `spectral_radius_bound` certifies rho < 1.  Otherwise raises
    StabilityError, unless `cfg` configures damping or regularization: then
    the warning goes to `log` and the caller proceeds on its adjustment.
    """
    bound = spectral_radius_bound(matrix)
    if log is not None:
        log.rho_bound = bound
    if bound.rho_upper < 1.0:
        return
    if cfg is None or (cfg.damping is None and cfg.regularization is None):
        if bound.rho_lower >= 1.0:  # rho(O_PP) = rho(|O_PP|) when nothing is negative
            verdict = "is unstable" if matrix.min() >= 0.0 else "cannot be certified stable"
            reason = f"the block {verdict}: rho(|O_PP|) >= {bound.rho_lower!r}"
        else:
            reason = (f"no certified bound puts the spectral radius below 1 (least bound "
                      f"{bound.rho_upper!r} after {bound.passes} Collatz-Wielandt passes)")
        raise StabilityError(
            reason + ("; configure damping or regularization explicitly" if cfg else "")
        )
    log.warnings.append("stability bounds >= 1; relying on configured adjustment")


def _solve_shifted(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with (I - a) x = rhs, from one dense solve; a singular I - a is a
    StabilityError.  The stability gate, where a caller needs one, runs first.
    """
    # I - a in a's memory order: a transposed system reaches LAPACK untransposed
    order = "F" if a.flags.f_contiguous else "C"
    try:
        return np.linalg.solve(np.eye(a.shape[0], order=order) - a, rhs)
    except np.linalg.LinAlgError as exc:
        raise StabilityError(f"I - A is singular: {exc}") from exc


def _boundary_rhs(stats: CutStatistics) -> np.ndarray:
    """b_P + O_PO v_O, the right-hand side of the regime-B system."""
    if stats.o_po is None or stats.v_o is None:
        if len(stats.o_ids):
            raise RegimeError("regime B needs share-form o_po and v_o")
        return stats.b_p.copy()
    return stats.b_p + stats.o_po @ stats.v_o


class _HeldEdges:
    """A square block as its held entries (`_held_entries`).

    It offers what the stability gate and the sweeps use of an array (shape,
    nnz, min, abs, row and column sums, scaling and the matvec), each at
    O(nnz + n) and with no scipy.  The matvec accumulates each row's products
    in column order, as a CSR product does, so the two agree bit for bit.
    """

    ndim = 2

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
        self.n, self.rows, self.cols, self.vals = n, rows, cols, vals
        self.shape = (n, n)
        self.nnz = vals.size

    @classmethod
    def of(cls, m: np.ndarray) -> "_HeldEdges":
        return cls(m.shape[0], *_held_entries(m))

    def min(self) -> float:
        """The least held entry, or 0 if that is less: the sign the gate reads."""
        return float(self.vals.min(initial=0.0))

    def __abs__(self) -> "_HeldEdges":
        return _HeldEdges(self.n, self.rows, self.cols, np.abs(self.vals))

    def __rmul__(self, scale: float) -> "_HeldEdges":
        return _HeldEdges(self.n, self.rows, self.cols, scale * self.vals)

    def sum(self, axis: int) -> np.ndarray:
        return np.bincount(self.cols if axis == 0 else self.rows, self.vals,
                           minlength=self.n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, self.vals * x[self.cols], minlength=self.n)

    def plus_diagonal(self, d: float) -> "_HeldEdges":
        """This block + d I, the diagonal merged into the held entries."""
        n = self.n
        flat, diag = self.rows * n + self.cols, np.arange(n) * (n + 1)
        merged = np.union1d(flat, diag)
        vals = np.zeros(merged.size)
        vals[np.searchsorted(merged, flat)] = self.vals
        vals[np.searchsorted(merged, diag)] += d
        return _HeldEdges(n, *np.divmod(merged, n), vals)


def _predicted_sweeps(bound: SpectralBound, first: np.ndarray, eps: float) -> float:
    """Sweeps after which the Neumann residual is below eps, from a norm
    certificate; inf when neither norm certifies rho < 1.

    The residual of sweep k is A^k y with y = A rhs, the first update, so
    max|r_k| <= rho_c^k ||y||_c for c the infinity norm or the 1-norm, and
    k = floor(log(eps / ||y||_c) / log rho_c) + 1 sweeps put it below eps in
    exact arithmetic; the fewer of the two counts is returned.
    """
    best = np.inf
    for rho, size in ((bound.norm_inf, np.abs(first).max(initial=0.0)),
                      (bound.norm_1, np.abs(first).sum())):
        if not rho < 1.0:
            continue
        if size < eps or rho == 0.0:
            return 1
        best = min(best, np.floor(np.log(eps / size) / np.log(rho)) + 1.0)
    return best


def _residual(m, rhs: np.ndarray, v_p: np.ndarray) -> float:
    """max|v_p - (rhs + m v_p)|, the residual every method reports."""
    return float(np.abs(v_p - (rhs + m @ v_p)).max()) if v_p.size else 0.0


def _solve_dense(m: np.ndarray, rhs: np.ndarray, cfg: SolverConfig,
                 log: SolverLog) -> tuple[np.ndarray, SolverLog]:
    """One LU of I - m (+ rI when regularized) through `_solve_shifted`."""
    if cfg.regularization:
        m = m - cfg.regularization * np.eye(m.shape[0])
    v_p = _solve_shifted(m, rhs)
    log.residual = _residual(m, rhs, v_p)
    return v_p, log


def _neumann(held: _HeldEdges, rhs: np.ndarray, first: np.ndarray, sweeps: int,
             eps: float, log: SolverLog) -> tuple[np.ndarray, SolverLog]:
    """v <- rhs + A v from v = rhs until max|r| < eps, at most `sweeps` times;
    `first` is A rhs."""
    nxt = rhs + first
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
    return v_p, log


def _gmres(held: _HeldEdges, rhs: np.ndarray, cfg: SolverConfig,
           log: SolverLog) -> tuple[np.ndarray, SolverLog]:
    """GMRES on I - A, the one branch that loads scipy."""
    from scipy.sparse.linalg import LinearOperator, gmres

    system = (-1.0 * held).plus_diagonal(1.0)  # I - A, its diagonal merged
    norms = []  # one residual norm per iteration
    v_p, info = gmres(
        LinearOperator(held.shape, matvec=lambda x: system @ np.ravel(x), dtype=float),
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
    return v_p, log


def _solve_internal(
    o_pp: np.ndarray, rhs: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, SolverLog]:
    """Solve (I - O_PP) v_P = rhs under a resolved config, behind the gate.

    The direct method gates and solves the dense block.  The others gate the
    block's held edges (`_HeldEdges`), on which Neumann and GMRES run every
    sweep or Krylov step and the residual.  `auto` sweeps when a norm
    certifies the operator it would iterate and the sweeps that certificate
    predicts cost at most 1 / LU_SWEEP_RATIO of an LU, k (nnz + n) <=
    n^3 / LU_SWEEP_RATIO; otherwise, or should rounding stall the sweeps
    short of eps, it solves by one LU.  The log names the method that ran.
    """
    n = o_pp.shape[0]
    log = SolverLog(
        method=cfg.method, damping=cfg.damping, regularization=cfg.regularization
    )
    if cfg.method == "direct":
        m = o_pp if cfg.damping is None else cfg.damping * o_pp
        _stability_gate(m, cfg, log)
        return _solve_dense(m, rhs, cfg, log)
    held = _HeldEdges.of(o_pp)
    if cfg.damping is not None:
        held = cfg.damping * held
    _stability_gate(held, cfg, log)
    bound = log.rho_bound
    if cfg.regularization:
        held = held.plus_diagonal(-cfg.regularization)
        if cfg.method != "iterative_krylov":  # the sweeps iterate O_PP - rI
            bound = spectral_radius_bound(held)
            if cfg.method == "neumann" and not bound.rho_upper < 1.0:
                raise StabilityError(
                    f"Neumann sweeps iterate O_PP - {cfg.regularization!r} I, and no "
                    f"certified bound puts its spectral radius below 1 (least bound "
                    f"{bound.rho_upper!r}); use method 'direct' or 'iterative_krylov'"
                )
    if cfg.method == "iterative_krylov":
        return _gmres(held, rhs, cfg, log)
    first = held @ rhs
    if cfg.method == "neumann":
        return _neumann(held, rhs, first, cfg.max_iters, cfg.eps, log)
    sweeps = _predicted_sweeps(bound, first, cfg.eps)
    if sweeps <= cfg.max_iters and sweeps * (held.nnz + n) <= n**3 / LU_SWEEP_RATIO:
        log.method = "neumann"
        try:
            return _neumann(held, rhs, first, min(cfg.max_iters, 2 * int(sweeps)),
                            cfg.eps, log)
        except ConvergenceError as exc:
            log.warnings.append(
                f"Neumann sweeps stalled at residual {exc.residual!r} after "
                f"{log.iterations} sweeps; solved by LU")
            log.iterations = 0
    log.method = "direct"
    m = o_pp if cfg.damping is None else cfg.damping * o_pp
    return _solve_dense(m, rhs, cfg, log)


def estimate_internal_values(
    stats: CutStatistics, cfg: SolverConfig | None = None
) -> tuple[np.ndarray, SolverLog]:
    """Solve (I - O_PP) v_P = b_P + O_PO v_O for the internal values.

    The stability gate requires a certified bound on rho(O_PP) to sit below 1
    unless damping or regularization is configured; damping rescales
    the internal block and both adjustments are recorded in the log.
    """
    cfg = (cfg or SolverConfig()).resolved()
    if stats.o_pp is None:
        raise RegimeError("regime B needs the internal block O_PP")
    return _solve_internal(stats.o_pp, _boundary_rhs(stats), cfg)


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
    the structural identity v = b + O v (with an empty internal block when
    none is given), which reproduces the observed-value calculation whenever
    the bases were implied from observed values in the first place.
    """
    scale = observer.pricing_scale
    priced = scale_units(scale, stats) if scale != 1.0 else stats
    tau = observer.tolerances.rounding_threshold
    cfg = (cfg or SolverConfig()).resolved(observer.tolerances)
    if observer.regime == "A":
        if priced.v_p is None and priced.x_op is None and priced.o_op is not None:
            if priced.o_pp is None:
                priced = replace(priced, o_pp=np.zeros((len(priced.p_ids),) * 2))
            return evaluate_regime_b(priced, cfg, tau)
        return evaluate_regime_a(priced, tau)
    return evaluate_regime_b(priced, cfg, tau)


@dataclass(frozen=True)
class SchurOperators:
    """Effective boundary operators after eliminating the internal block."""

    s_oo: np.ndarray
    t_po: np.ndarray
    u_op: np.ndarray


def schur_operators(blocks) -> SchurOperators:
    """S_OO, T_PO and U_OP for a block partition.

    T_PO = (I - O_PP)^-1 O_PO and U_OP = O_OP (I - O_PP)^-1 summarize how the
    perimeter looks from the frontier; purely internal rewirings that keep
    them fixed cannot move the consolidated value.
    """
    _stability_gate(blocks.o_pp)
    t_po = _solve_shifted(blocks.o_pp, blocks.o_po)
    u_op = _solve_shifted(blocks.o_pp.T, blocks.o_op.T).T
    s_oo = np.eye(blocks.o_oo.shape[0]) - blocks.o_oo - blocks.o_op @ t_po
    return SchurOperators(s_oo=s_oo, t_po=t_po, u_op=u_op)


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

    delta_j is the direct outside ownership of each internal node; the leakage
    E_ext = delta' (I - O_PP)^-1 (b_P + O_PO v_O) equals the minorities term,
    so W(P) = 1'b_P + 1'O_PO v_O - E_ext reproduces the Regime-B value.
    """
    if stats.o_op is None:
        raise RegimeError("effective external share needs the o_op block")
    v_p, _ = estimate_internal_values(stats, cfg)
    delta = stats.o_op.sum(axis=0)
    e_ext = float(delta @ v_p)
    total = float(v_p.sum())
    omega_eff = e_ext / total if total != 0.0 else 0.0
    return EffectiveExternalShare(e_ext=e_ext, omega_eff=omega_eff, v_p=v_p)


def hedge_vector(stats: CutStatistics) -> dict[NodeId, float]:
    """Aggregate exposure of the perimeter to each outside node."""
    if stats.o_po is None:
        return {node: 0.0 for node in stats.o_ids}
    sums = stats.o_po.sum(axis=0)
    return {node: float(sums[k]) for k, node in enumerate(stats.o_ids)}


def cut_gap(gross: float, w: float) -> float:
    """(gross - W) / W, the double-counting diagnostic."""
    if w == 0.0:
        raise DomainError("cut gap undefined for W = 0")
    return (gross - w) / w


def implied_bases(network: OwnershipNetwork, v) -> dict[NodeId, float]:
    """Back out b = v - O v from observed values on a full network."""
    values = np.array([float(v[n]) for n in network.nodes])
    bases = values - network.shares @ values
    return {node: float(bases[k]) for k, node in enumerate(network.nodes)}
