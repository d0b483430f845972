"""Error propagation bounds, conditioning diagnostics and uncertainty bands.

If the base vector moves by at most eta and the external values by at most
eps (both in p-norm), the consolidated value moves by at most

    |dW| <= ||1_P||_q * eta + ||1_P' O_PO||_q * eps        (q dual to p)

when internal values are held fixed; in Regime B the response of the
estimated v_P adds a term proportional to ||(I - O_PP)^-1||_p, priced behind
the stability gate: at p in {1, inf} from one solve of I - |O_PP| (or its
transpose) against the ones vector, exact for a share block and an upper
bound for a signed one; at p = 2 exactly, from one SVD.  The other terms are
reductions over held edges.  The condition number kappa_2(I - O_PP) is exact
at every size too, from one SVD.

A Monte Carlo band perturbs only O_PP, so it prices what the probes share
once (the right-hand side b_P + O_PO v_O, the base plus the outgoing term,
the held edges of O_PP with the designated entries merged in) and pays per
probe for a copy of the held values, the stability gate, the solve and the
priced edges of O_OP (`engine.cut_edges`, as regime B prices them); each
probe's value is the one `evaluate_regime_b` gives, bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .engine import (
    CutStatistics,
    SolverConfig,
    SpectralBound,
    _boundary_rhs,
    _solve_internal,
    _solve_shifted,
    _stability_gate,
    cut_edges,
    spectral_radius_bound,
)
from .errors import DomainError, StabilityError
from .network import _HeldEdges

_P_NORMS = (1.0, 2.0, float("inf"))


def _canonical_p(p) -> float:
    value = float("inf") if p in ("inf", "infinity") else float(p)
    if value not in _P_NORMS:
        raise DomainError(f"norm selector {p!r} not in {{1, 2, inf}}")
    return value


def _dual(p: float) -> float:
    if p == 1.0:
        return float("inf")
    if p == float("inf"):
        return 1.0
    return 2.0


def _vector_norm(x, p: float) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=float).reshape(-1), ord=p))


def _ones_norm(n: int, q: float) -> float:
    if q == 1.0:
        return float(n)
    if q == 2.0:
        return float(np.sqrt(n))
    return 1.0 if n else 0.0


def _coupling_norm(o_po: _HeldEdges, p: float) -> float:
    """||O_PO||_{q<-p} (q dual to p) from its held values: the largest
    |entry| at p = 1; the total |mass| at p = inf, exact for a nonnegative
    block and an upper bound otherwise; the spectral norm of the dense view
    at p = 2."""
    mass = np.abs(o_po.vals)
    if not mass.size:
        return 0.0
    if p == 1.0:
        return float(mass.max())
    if p == float("inf"):
        return float(mass.sum())
    return float(np.linalg.norm(o_po.array, 2))


@dataclass(frozen=True)
class PerturbationSpec:
    """Norm selector plus bounds on ||db_P||_p and ||dv_O||_p."""

    p: float
    eta: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", _canonical_p(self.p))
        if not (0 <= self.eta < np.inf and 0 <= self.eps < np.inf):  # NaN fails both
            raise DomainError("eta and eps must be finite and >= 0")

    @property
    def q(self) -> float:
        return _dual(self.p)


@dataclass(frozen=True)
class BoundReport:
    """A certified bound and the terms it decomposes into."""

    bound: float
    eta_term: float
    eps_term: float
    extension_term: float = 0.0
    loose_bound: float | None = None


def boundary_bound(spec: PerturbationSpec, o_po, n_p: int) -> BoundReport:
    """Regime-A bound: internal values fixed, only b_P and v_O move.

    `o_po` is an array or held edges, read as held edges.  For p = 2 the
    looser sqrt(|P|) (eta + ||O_PO||_2 eps) form is reported alongside the
    tight one.  A non-finite entry of O_PO is a DomainError.
    """
    o_po = _HeldEdges.of(o_po)
    if not np.isfinite(o_po.vals).all():
        raise DomainError("O_PO is not finite")
    return _boundary_bound(spec, o_po, n_p, _coupling_norm(o_po, spec.p))


def _boundary_bound(spec: PerturbationSpec, o_po: _HeldEdges, n_p: int,
                    coupling: float) -> BoundReport:
    """`boundary_bound` of finite held edges, given ||O_PO||_{q<-p}, which
    at p = 2 is the spectral norm the loose form reads."""
    q = spec.q
    eta_term = _ones_norm(n_p, q) * spec.eta
    col_weights = o_po.col_sums()
    eps_term = _vector_norm(col_weights, q) * spec.eps if col_weights.size else 0.0
    loose = None
    if spec.p == 2.0:
        loose = float(np.sqrt(n_p)) * (spec.eta + coupling * spec.eps)
    return BoundReport(
        bound=eta_term + eps_term,
        eta_term=eta_term,
        eps_term=eps_term,
        loose_bound=loose,
    )


def _resolvent_norm(o_pp: _HeldEdges, p: float) -> float:
    """||(I - O_PP)^-1||_{p->p} behind the stability gate.

    The gate reads |A|: it certifies rho(|A|) = rho(|A|^T) < 1, so
    (I - |A|)^-1 = sum_k |A|^k bounds |(I - A)^-1| entrywise.  At p = inf
    the norm is at most the largest entry of (I - |A|)^-1 1, at p = 1 of
    (I - |A|^T)^-1 1: one LU with one right-hand side, exact when A >= 0.
    At p = 2 it is exactly 1 / sigma_min(I - A), from the SVD
    `condition_diagnostics` runs.  An A the gate cannot certify is a
    StabilityError.
    """
    _stability_gate(o_pp)
    if p == 2.0:
        singular = np.linalg.svd(o_pp.identity_minus(), compute_uv=False)
        return float(1.0 / singular.min(initial=np.inf))
    magnitude = _HeldEdges(o_pp.shape, o_pp.rows, o_pp.cols, np.abs(o_pp.vals))
    if p == 1.0:
        magnitude = magnitude.T
    return float(_solve_shifted(magnitude, np.ones(o_pp.n)).max(initial=0.0))


def regime_b_bound(spec: PerturbationSpec, stats: CutStatistics) -> BoundReport:
    """Regime-B bound: adds the response of the estimated internal values.

    delta = O_OP' 1_O is the direct minority exposure; the extension term is
    ||delta||_q ||(I - O_PP)^-1||_{p->p} (eta + ||O_PO||_{q<-p} eps).  Every
    term is read from held edges but the spectral norms at p = 2.  An O_PP
    the stability gate cannot certify is a StabilityError.
    """
    held = [stats.held(name) for name in ("o_pp", "o_po", "o_op")]
    if any(block is None for block in held):
        raise DomainError("regime_b_bound needs share-form blocks")
    if not all(np.isfinite(block.vals).all() for block in held):
        raise DomainError("O_PP, O_PO or O_OP is not finite")
    o_pp, o_po, o_op = held
    coupling = _coupling_norm(o_po, spec.p)  # at p = 2 one SVD, for both terms
    base = _boundary_bound(spec, o_po, len(stats.p_ids), coupling)
    extension = _vector_norm(o_op.col_sums(), spec.q) * _resolvent_norm(o_pp, spec.p) * (
        spec.eta + coupling * spec.eps
    )
    return BoundReport(
        bound=base.bound + extension,
        eta_term=base.eta_term,
        eps_term=base.eps_term,
        extension_term=extension,
        loose_bound=base.loose_bound,
    )


@dataclass(frozen=True)
class ConditioningReport:
    """The stability gate's bounds on rho(O_PP) and the exact kappa_2 of
    I - O_PP, the operator regime B gates and factors."""

    rho_bound: SpectralBound
    kappa2: float


def condition_diagnostics(o_pp) -> ConditioningReport:
    """kappa_2(I - O_PP), exact at every size.

    `rho_bound` is the certificate a regime-B solve on O_PP logs, and one
    SVD of I - O_PP gives sigma_max / sigma_min, inf only when sigma_min
    is 0.  A non-finite entry is a DomainError.
    """
    o_pp = np.asarray(o_pp, dtype=float)
    if not np.isfinite(o_pp).all():
        raise DomainError("O_PP is not finite")
    held = _HeldEdges.of(o_pp)
    bound = spectral_radius_bound(held)
    if held.n == 0:
        return ConditioningReport(bound, 1.0)
    singular = np.linalg.svd(held.identity_minus(), compute_uv=False)
    kappa2 = float(singular.max() / singular.min()) if singular.min() > 0 else float("inf")
    return ConditioningReport(rho_bound=bound, kappa2=kappa2)


@dataclass(frozen=True)
class MonteCarloBand:
    """Min/max envelope over the perturbed recomputations."""

    low: float
    high: float
    evaluated: int
    excluded: int


def _entry_indices(entries, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the designated entries of an n x n block; anything
    that is not a pair of indices inside the block is a DomainError."""
    try:
        pairs = [(operator.index(i), operator.index(j)) for i, j in entries]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"entries must be (row, column) index pairs: {exc}") from None
    outside = [pair for pair in pairs if not (0 <= pair[0] < n and 0 <= pair[1] < n)]
    if outside:
        raise DomainError(f"entries {outside[:3]} lie outside the {n}x{n} block O_PP")
    rows_cols = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return rows_cols[:, 0], rows_cols[:, 1]


def monte_carlo_band(
    stats: CutStatistics,
    cfg: SolverConfig | None = None,
    noise: float = 0.0,
    draws: int = 0,
    seed: int = 0,
    entries: list[tuple[int, int]] | None = None,
    metric: str = "consolidated",
) -> MonteCarloBand:
    """Envelope of a Regime-B quantity under uniform noise on O_PP entries.

    The probe set always contains the nominal instance and the two
    deterministic corners (every designated entry shifted by +noise and by
    -noise together); `draws` additional instances perturb each entry
    independently and uniformly.  Probes that lose stability are excluded and
    counted, never silently dropped.  `metric` selects the consolidated value
    or the total of the estimated internal values, each exactly as
    `evaluate_regime_b` and `estimate_internal_values` give it on the probe.
    """
    if stats.held("o_pp") is None:
        raise DomainError("monte_carlo_band needs the internal block O_PP")
    if not isinstance(draws, (int, np.integer)) or draws < 0:
        raise DomainError(f"draws={draws!r} must be an integer >= 0")
    if not 0.0 <= noise < np.inf:
        raise DomainError(f"noise={noise!r} must be finite and >= 0")
    if metric not in ("consolidated", "internal_total"):
        raise DomainError(f"unknown metric {metric!r}")
    cfg = (cfg or SolverConfig()).resolved()
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"seed={seed!r} cannot seed the draws: {exc}") from None
    held = stats.held("o_pp")
    if entries is None:
        edges = held.edges()
        rows, cols = edges.rows, edges.cols
    else:
        rows, cols = _entry_indices(entries, held.n)
    held, at = held.merged(rows, cols)

    rhs = _boundary_rhs(stats)
    base_out = float(stats.b_p.sum()) + float(
        cut_edges(stats.held("o_po"), stats.v_o, stats.held("x_po"), 0.0)[2].sum())

    def offsets():
        yield np.zeros(at.size)
        if noise > 0.0 and at.size:
            yield np.full(at.size, noise)
            yield np.full(at.size, -noise)
        for _ in range(draws):
            yield rng.uniform(-noise, noise, size=at.size)

    values = []
    excluded = 0
    for shift in offsets():
        vals = held.vals.copy()
        np.add.at(vals, at, shift)  # in order, so a repeated entry adds twice
        try:
            v_p, _ = _solve_internal(_HeldEdges(held.shape, held.rows, held.cols, vals), rhs, cfg)
        except StabilityError:
            excluded += 1
            continue
        if metric == "internal_total":
            values.append(float(v_p.sum()))
        else:
            values.append(base_out - float(
                cut_edges(stats.held("o_op"), v_p, stats.held("x_op"), 0.0)[2].sum()))
    if not values:
        raise StabilityError("every Monte Carlo probe lost stability")
    return MonteCarloBand(
        low=min(values), high=max(values), evaluated=len(values), excluded=excluded
    )
