"""Error propagation bounds, conditioning diagnostics and uncertainty bands.

If the base vector moves by at most eta and the external values by at most
eps (both in p-norm), the consolidated value moves by at most

    |dW| <= ||1_P||_q * eta + ||1_P' O_PO||_q * eps        (q dual to p)

when internal values are held fixed; in Regime B the response of the
estimated v_P adds a term proportional to ||(I - O_PP)^-1||_p, which is exact
at every size, from one solve of I - O_PP against the identity.  The
condition number kappa_2(I - O_PP) is exact at every size too, from one SVD.

A Monte Carlo band perturbs only O_PP, so it prices what the probes share
once (the right-hand side b_P + O_PO v_O, the base plus the outgoing term,
the column sums of O_OP) and pays per probe for a copy of O_PP, the
stability gate, the solve and one dot product; each probe's value is the
one `evaluate_regime_b` gives, bit for bit.
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
    _priced_edges,
    _solve_internal,
    _solve_shifted,
    spectral_radius_bound,
)
from .errors import DomainError, StabilityError

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


def vector_norm(x, p: float) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=float).reshape(-1), ord=p))


def ones_norm(n: int, q: float) -> float:
    if q == 1.0:
        return float(n)
    if q == 2.0:
        return float(np.sqrt(n))
    return 1.0 if n else 0.0


def induced_norm(a, p: float) -> float:
    """Operator p -> p norm: exact for p in {1, inf}, spectral for p = 2."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    if p == 1.0:
        return float(np.abs(a).sum(axis=0).max())
    if p == float("inf"):
        return float(np.abs(a).sum(axis=1).max())
    return float(np.linalg.norm(a, 2))


def mixed_norm(a, q: float, p: float) -> float:
    """||A||_{q<-p} for the dual pairings used by the bounds.

    (inf, 1): max absolute entry.  (1, inf): total absolute mass, which is the
    exact value for nonnegative matrices and an upper bound otherwise.
    (2, 2): spectral norm.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    if (q, p) == (float("inf"), 1.0):
        return float(np.abs(a).max())
    if (q, p) == (1.0, float("inf")):
        return float(np.abs(a).sum())
    if (q, p) == (2.0, 2.0):
        return float(np.linalg.norm(a, 2))
    raise DomainError(f"unsupported norm pairing ({q!r} <- {p!r})")


@dataclass(frozen=True)
class PerturbationSpec:
    """Norm selector plus bounds on ||db_P||_p and ||dv_O||_p."""

    p: float
    eta: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", _canonical_p(self.p))
        if self.eta < 0 or self.eps < 0:
            raise DomainError("eta and eps must be >= 0")

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

    For p = 2 the looser sqrt(|P|) (eta + ||O_PO||_2 eps) form is reported
    alongside the tight one.
    """
    o_po = np.asarray(o_po, dtype=float)
    q = spec.q
    eta_term = ones_norm(n_p, q) * spec.eta
    col_weights = o_po.sum(axis=0) if o_po.size else np.zeros(0)
    eps_term = vector_norm(col_weights, q) * spec.eps if col_weights.size else 0.0
    loose = None
    if spec.p == 2.0:
        loose = float(np.sqrt(n_p)) * (spec.eta + induced_norm(o_po, 2.0) * spec.eps)
    return BoundReport(
        bound=eta_term + eps_term,
        eta_term=eta_term,
        eps_term=eps_term,
        loose_bound=loose,
    )


def inverse_norm(o_pp, p: float) -> float:
    """||(I - O_PP)^-1||_{p->p}, exact at every size from one solve.

    Not gated: a singular I - O_PP is a StabilityError, a non-finite entry
    a DomainError.
    """
    o_pp = np.asarray(o_pp, dtype=float)
    if not np.isfinite(o_pp).all():
        raise DomainError("O_PP is not finite")
    return induced_norm(_solve_shifted(o_pp, np.eye(o_pp.shape[0])), p)


def regime_b_bound(spec: PerturbationSpec, stats: CutStatistics) -> BoundReport:
    """Regime-B bound: adds the response of the estimated internal values.

    delta = O_OP' 1_O is the direct minority exposure; the extension term is
    ||delta||_q ||(I - O_PP)^-1||_{p->p} (eta + ||O_PO||_{q<-p} eps).
    """
    if stats.o_pp is None or stats.o_po is None or stats.o_op is None:
        raise DomainError("regime_b_bound needs share-form blocks")
    if not all(np.isfinite(block).all() for block in (stats.o_pp, stats.o_po, stats.o_op)):
        raise DomainError("O_PP, O_PO or O_OP is not finite")
    base = boundary_bound(spec, stats.o_po, len(stats.p_ids))
    q = spec.q
    delta = stats.o_op.sum(axis=0)
    inv = inverse_norm(stats.o_pp, spec.p)
    extension = vector_norm(delta, q) * inv * (
        spec.eta + mixed_norm(stats.o_po, q, spec.p) * spec.eps
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
    """The stability gate's bounds on rho(O_PP) and the exact kappa_2 of I - O_PP."""

    rho_bound: SpectralBound
    kappa2: float
    regularization_used: float | None = None


def condition_diagnostics(o_pp, regularization: float | None = None) -> ConditioningReport:
    """kappa_2(I - O_PP) (plus rI when regularized), exact at every size.

    One SVD gives sigma_max / sigma_min; the value is inf only when
    sigma_min is 0.  A non-finite entry or regularization is a DomainError.
    """
    o_pp = np.asarray(o_pp, dtype=float)
    if not (np.isfinite(o_pp).all() and np.isfinite(regularization or 0.0)):
        raise DomainError("O_PP or the regularization is not finite")
    bound = spectral_radius_bound(o_pp)
    n = o_pp.shape[0]
    if n == 0:
        return ConditioningReport(bound, 1.0, regularization_used=regularization)
    m = np.eye(n) - o_pp
    if regularization:
        m = m + regularization * np.eye(n)
    singular = np.linalg.svd(m, compute_uv=False)
    kappa2 = float(singular.max() / singular.min()) if singular.min() > 0 else float("inf")
    return ConditioningReport(
        rho_bound=bound,
        kappa2=kappa2,
        regularization_used=regularization,
    )


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
    if stats.o_pp is None:
        raise DomainError("monte_carlo_band needs the internal block O_PP")
    if not isinstance(draws, (int, np.integer)) or draws < 0:
        raise DomainError(f"draws={draws!r} must be an integer >= 0")
    if not 0.0 <= noise < np.inf:
        raise DomainError(f"noise={noise!r} must be finite and >= 0")
    if metric not in ("consolidated", "internal_total"):
        raise DomainError(f"unknown metric {metric!r}")
    cfg = (cfg or SolverConfig()).resolved()
    if entries is None:
        rows, cols = np.nonzero(stats.o_pp)
    else:
        rows, cols = _entry_indices(entries, stats.o_pp.shape[0])

    rhs = _boundary_rhs(stats)
    base_out = float(stats.b_p.sum()) + _priced_edges(
        stats.o_po, stats.v_o, stats.x_po, 0.0)[0]
    col_sums = None if stats.o_op is None else stats.o_op.sum(axis=0)

    def offsets():
        yield np.zeros(rows.size)
        if noise > 0.0 and rows.size:
            yield np.full(rows.size, noise)
            yield np.full(rows.size, -noise)
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            yield rng.uniform(-noise, noise, size=rows.size)

    values = []
    excluded = 0
    for shift in offsets():
        o_pp = stats.o_pp.copy()
        np.add.at(o_pp, (rows, cols), shift)  # in order, so a repeated entry adds twice
        try:
            v_p, _ = _solve_internal(o_pp, rhs, cfg)
        except StabilityError:
            excluded += 1
            continue
        if metric == "internal_total":
            values.append(float(v_p.sum()))
        else:
            values.append(base_out - _priced_edges(
                stats.o_op, v_p, stats.x_op, 0.0, col_sums)[0])
    if not values:
        raise StabilityError("every Monte Carlo probe lost stability")
    return MonteCarloBand(
        low=min(values), high=max(values), evaluated=len(values), excluded=excluded
    )
