"""Piecewise-affine payoffs, exact waterfall splits, and state aggregation.

Curved payoffs are replaced by the piecewise-linear interpolant on a knot
grid; if |f''| <= Gamma on the range and the largest step is Delta, the
sup-norm error is at most Gamma * Delta^2 / 8, so a target error eps needs
steps no wider than sqrt(8 eps / Gamma).  Contractual min/max structures
(caps, floors, two-tier waterfalls) are evaluated in closed form, exactly.

Scenario sets are valued state by state (each state is a plain linear cut
problem) and the observer's aggregation policy folds the per-state values
into one number: expectation, discounted physical expectation, CVaR on gains,
a discrete Kusuoka mixture of CVaRs, or a worst case over designated states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import CutStatistics, SolverConfig, evaluate_regime_a, evaluate_regime_b
from .errors import DimensionError, DomainError

WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class PwaFunction:
    """Piecewise-linear interpolant through strictly increasing knots."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        y = np.asarray(self.values, dtype=float).reshape(-1)
        if x.shape != y.shape:
            raise DimensionError("breakpoints and values must have equal length")
        if x.size < 2:
            raise DomainError("at least two knots are required")
        if not (np.diff(x) > 0).all():
            raise DomainError("knots must be strictly increasing")
        object.__setattr__(self, "breakpoints", x)
        object.__setattr__(self, "values", y)

    @property
    def max_step(self) -> float:
        return float(np.diff(self.breakpoints).max())

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        lo, hi = self.breakpoints[0], self.breakpoints[-1]
        if ((arr < lo) | (arr > hi)).any():
            raise DomainError(
                f"evaluation outside the knot range [{lo!r}, {hi!r}]; the error "
                "bound holds only inside it"
            )
        out = np.interp(arr, self.breakpoints, self.values)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def pwa_build(samples) -> PwaFunction:
    """Interpolant through (knot, value) pairs; knots must come sorted."""
    pairs = [(float(x), float(y)) for x, y in samples]
    xs = [x for x, _ in pairs]
    if sorted(set(xs)) != xs:
        raise DomainError("knots must be strictly increasing and free of duplicates")
    return PwaFunction(
        breakpoints=np.array(xs), values=np.array([y for _, y in pairs])
    )


def pwa_error_bound(gamma_max: float, delta: float) -> float:
    """Certified sup-norm error Gamma * Delta^2 / 8 of the interpolant."""
    if not 0.0 <= gamma_max < math.inf:
        raise DomainError(f"gamma_max={gamma_max!r} must be finite and >= 0")
    if not 0.0 < delta < math.inf:
        raise DomainError(f"delta={delta!r} must be finite and > 0")
    return gamma_max * delta * delta / 8.0


@dataclass(frozen=True)
class Granularity:
    """Widest admissible step and segment count on the unit interval."""

    delta_max: float
    segments: int


def delta_max(eps: float, gamma_max: float) -> Granularity:
    """Largest step achieving a target uniform error for curvature Gamma."""
    if not (0.0 < eps < math.inf and 0.0 < gamma_max < math.inf
            and 0.0 < 8.0 * eps / gamma_max < math.inf):
        raise DomainError(f"eps={eps!r} and gamma_max={gamma_max!r} must be finite and > 0 "
                          "and give a finite step above 0")
    step = math.sqrt(8.0 * eps / gamma_max)
    return Granularity(delta_max=step, segments=math.ceil(1.0 / step - 1e-9))


@dataclass(frozen=True)
class WaterfallSplit:
    senior: float
    junior: float


def eval_waterfall(x: float, cap: float) -> WaterfallSplit:
    """Two-tier waterfall: senior takes min(x, cap), junior the excess."""
    x, cap = float(x), float(cap)
    if x < 0:
        raise DomainError(f"inflow {x!r} must be >= 0")
    if cap < 0:
        raise DomainError(f"cap {cap!r} must be >= 0")
    senior = min(x, cap)
    return WaterfallSplit(senior=senior, junior=max(0.0, x - senior))


@dataclass(frozen=True)
class State:
    """One scenario: a probability weight and either a value or cut inputs."""

    label: str
    weight: float
    value: float | None = None
    stats: CutStatistics | None = None

    def __post_init__(self):
        if self.weight < 0:
            raise DomainError(f"state {self.label!r} has negative weight")
        if self.value is None and self.stats is None:
            raise DomainError(f"state {self.label!r} carries neither value nor stats")


@dataclass(frozen=True)
class StateSpace:
    states: tuple[State, ...]

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise DomainError("state space is empty")
        labels = [s.label for s in states]
        if len(set(labels)) != len(labels):
            raise DomainError("state labels must be unique")
        total = sum(s.weight for s in states)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise DomainError(f"state weights sum to {total!r}, expected 1")
        object.__setattr__(self, "states", states)


@dataclass(frozen=True)
class AggregatorPolicy:
    """How the observer folds per-state values into one number."""

    kind: str
    alpha: float | None = None
    levels: tuple[tuple[float, float], ...] | None = None
    sdf_weights: dict[str, float] | None = None
    worst_states: tuple[str, ...] | None = None

    def __post_init__(self):
        kinds = ("expectation_q", "sdf_physical", "cvar", "kusuoka_mix", "worst_case")
        if self.kind not in kinds:
            raise DomainError(f"aggregator kind {self.kind!r} not in {kinds}")
        if self.kind == "cvar":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise DomainError("cvar needs alpha in (0, 1)")
        if self.kind == "kusuoka_mix":
            if not self.levels:
                raise DomainError("kusuoka_mix needs (level, weight) pairs")
            weights = [w for _, w in self.levels]
            if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > WEIGHT_TOL:
                raise DomainError("kusuoka weights must be >= 0 and sum to 1")
            if any(not 0.0 < u < 1.0 for u, _ in self.levels):
                raise DomainError("kusuoka levels must lie in (0, 1)")
        if self.kind == "sdf_physical":
            if self.sdf_weights is None or any(m < 0 for m in self.sdf_weights.values()):
                raise DomainError("sdf_physical needs nonnegative per-state weights")
        if self.kind == "worst_case" and not self.worst_states:
            raise DomainError("worst_case needs a nonempty state subset")


def cvar_gains(values, weights, alpha: float) -> float:
    """Expectation over the worst (1 - alpha) probability mass of gains.

    Values are gains (larger is better), so the tail collects the lowest
    outcomes; an atom straddling the quantile boundary is split fractionally.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must be in (0, 1)")
    order = np.argsort(np.asarray(values, dtype=float), kind="stable")
    values = np.asarray(values, dtype=float)[order]
    weights = np.asarray(weights, dtype=float)[order]
    tail = 1.0 - alpha
    taken = 0.0
    acc = 0.0
    for value, weight in zip(values, weights):
        if taken >= tail:
            break
        piece = min(weight, tail - taken)
        acc += piece * value
        taken += piece
    if taken <= 0.0:
        raise DomainError("no probability mass in the tail")
    return acc / taken


@dataclass(frozen=True)
class SclResult:
    per_state: dict[str, float]
    aggregate: float


def _state_value(state: State, cfg: SolverConfig | None, tau: float) -> float:
    if state.value is not None:
        return float(state.value)
    stats = state.stats
    if stats.v_p is not None or stats.held("x_op") is not None:
        return evaluate_regime_a(stats, tau).w
    return evaluate_regime_b(stats, cfg, tau).w


def scl_evaluate(
    space: StateSpace,
    policy: AggregatorPolicy,
    cfg: SolverConfig | None = None,
    rounding_threshold: float = 0.0,
) -> SclResult:
    """Value each state with the linear cut machinery, then aggregate."""
    labels = [s.label for s in space.states]
    values = np.array(
        [_state_value(s, cfg, rounding_threshold) for s in space.states]
    )
    weights = np.array([s.weight for s in space.states])

    if policy.kind == "expectation_q":
        aggregate = float(weights @ values)
    elif policy.kind == "sdf_physical":
        missing = [l for l in labels if l not in policy.sdf_weights]
        if missing:
            raise DomainError(f"sdf_physical lacks weights for states {missing}")
        m = np.array([policy.sdf_weights[l] for l in labels])
        aggregate = float((weights * m) @ values)
    elif policy.kind == "cvar":
        aggregate = cvar_gains(values, weights, policy.alpha)
    elif policy.kind == "kusuoka_mix":
        aggregate = float(
            sum(w * cvar_gains(values, weights, u) for u, w in policy.levels)
        )
    else:
        unknown = set(policy.worst_states) - set(labels)
        if unknown:
            raise DomainError(f"worst_case states not in space: {sorted(unknown)}")
        picks = [values[labels.index(l)] for l in policy.worst_states]
        aggregate = float(min(picks))
    return SclResult(per_state=dict(zip(labels, values.tolist())), aggregate=aggregate)
