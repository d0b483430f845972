"""The observer configuration that every valuation is conditional on.

An observer fixes the perimeter reference, measurement basis, units and date,
an optional units/FX/PPP scale, an optional deterministic discount
specification, the informational regime, the control rule (`ControlRuleSpec`,
declared here; `control` builds the matrices) and the numerical tolerances.
Two valuations are only comparable after mapping one observer onto the other.
"""

from __future__ import annotations

import datetime as _dt
import math
import operator
import re
from dataclasses import dataclass, field

from .errors import DomainError
from .network import NodeId

BASES = ("fair_value", "historical_cost", "realizable")
REGIMES = ("A", "B")

_CURRENCY_RE = re.compile(r"^[A-Z]{3}$")
_RULE_LABEL_RE = re.compile(r"@\s*(\d+(?:\.\d+)?)\s*%?\s*$")

DEFAULT_ROUNDING_THRESHOLD = 1e-8
DEFAULT_SOLVER_EPS = 1e-10
DEFAULT_MAX_ITERS = 10000


def _check_solver_limits(eps=None, max_iters=None, eps_name: str = "eps") -> None:
    """The one check of an iterative solver's limits (`Tolerances`, `SolverConfig`,
    `clear`): eps finite and > 0, max_iters an integer >= 1; None is unchecked."""
    if eps is not None and not 0 < eps < math.inf:  # NaN fails both
        raise DomainError(f"{eps_name} must be finite and > 0, got {eps!r}")
    if max_iters is not None:
        try:
            operator.index(max_iters)
        except TypeError:
            raise DomainError(f"max_iters must be an integer, got {max_iters!r}") from None
        if max_iters < 1:
            raise DomainError("max_iters must be >= 1")


@dataclass(frozen=True)
class Tolerances:
    """Rounding threshold, solver tolerance and iteration cap."""

    rounding_threshold: float = DEFAULT_ROUNDING_THRESHOLD
    solver_eps: float = DEFAULT_SOLVER_EPS
    max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self):
        if not 0 <= self.rounding_threshold < math.inf:
            raise DomainError(
                f"rounding_threshold must be finite and >= 0, got {self.rounding_threshold!r}")
        _check_solver_limits(self.solver_eps, self.max_iters, eps_name="solver_eps")


@dataclass(frozen=True)
class FxPppSpec:
    """Finite positive units/FX/PPP scale plus its source metadata."""

    scale: float = 1.0
    fx_source: str | None = None
    ppp_source: str | None = None
    deflator: str | None = None

    def __post_init__(self):
        if not 0 < self.scale < math.inf:  # NaN fails both
            raise DomainError(f"fx/ppp scale {self.scale!r} must be finite and > 0")


@dataclass(frozen=True)
class SdfSpec:
    """Deterministic one-period discount specification.

    `discount_weights` holds per-state probability-weighted discount factors m
    and `change_of_measure` the per-state reweighting Lambda (default 1).  For
    a payoff that is constant across states the pricing factor reduces to
    sum_s m_s * Lambda_s, which is how boundary statistics are re-discounted.
    """

    measure: str = "risk_neutral"
    discount_weights: dict[str, float] | None = None
    change_of_measure: dict[str, float] | None = None
    curve_source: str | None = None
    horizon: str | None = None

    def __post_init__(self):
        for name, weights in (
            ("discount_weights", self.discount_weights),
            ("change_of_measure", self.change_of_measure),
        ):
            if weights is not None and not all(0 <= w < math.inf for w in weights.values()):
                raise DomainError(f"{name} must be finite and nonnegative")

    def factor(self) -> float:
        if self.discount_weights is None:
            return 1.0
        lam = self.change_of_measure or {}
        return float(
            sum(m * lam.get(state, 1.0) for state, m in self.discount_weights.items())
        )


OPTION_ALIASES = {
    "A": "A",
    "A_threshold": "A",
    "B": "B",
    "B_herfindahl": "B",
    "B_prime": "B_prime",
    "B'": "B_prime",
    "C": "C",
    "C_attenuated": "C",
}


@dataclass(frozen=True)
class ControlRuleSpec:
    """Declared control rule: option plus its disclosed parameters."""

    option: str = "A"
    tau: float = 0.5
    alpha: float = 0.6
    normalize: bool = False
    reachability_depth: int | None = None
    label: str | None = None

    def __post_init__(self):
        try:
            canonical = OPTION_ALIASES[self.option]
        except KeyError:
            raise DomainError(f"unknown control option {self.option!r}") from None
        object.__setattr__(self, "option", canonical)
        if not 0.0 < self.tau <= 1.0:
            raise DomainError(f"tau={self.tau!r} outside (0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha={self.alpha!r} outside (0, 1)")
        if self.reachability_depth is not None and self.reachability_depth < 1:
            raise DomainError("reachability_depth must be >= 1")

    def params(self) -> dict:
        out: dict = {"tau": self.tau, "alpha": self.alpha, "normalize": self.normalize}
        if self.reachability_depth is not None:
            out["reachability_depth"] = self.reachability_depth
        return out


def parse_control_label(label: str) -> ControlRuleSpec:
    """Lenient mapping from manifest-style labels like 'IFRS10-control@50'."""
    match = _RULE_LABEL_RE.search(label)
    tau = float(match.group(1)) / 100.0 if match else 0.5
    if not 0.0 < tau <= 1.0:
        tau = 0.5
    return ControlRuleSpec(option="A", tau=tau, label=label)


@dataclass(frozen=True)
class Observer:
    """The full measurement configuration a valuation is relative to."""

    perimeter_ref: str
    basis: str = "fair_value"
    units: str = "EUR"
    date: str = "1970-01-01"
    regime: str = "A"
    control_rule: ControlRuleSpec | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    fx_ppp: FxPppSpec | None = None
    sdf: SdfSpec | None = None
    perimeter_nodes: tuple[NodeId, ...] | None = None

    def __post_init__(self):
        if self.basis not in BASES:
            raise DomainError(f"basis {self.basis!r} not in {BASES}")
        if self.regime not in REGIMES:
            raise DomainError(f"regime {self.regime!r} not in {REGIMES}")
        if not _CURRENCY_RE.match(self.units):
            raise DomainError(f"units {self.units!r} is not an ISO-4217 code")
        try:
            _dt.date.fromisoformat(self.date)
        except ValueError:
            raise DomainError(f"date {self.date!r} is not ISO-8601") from None
        if isinstance(self.control_rule, str):
            object.__setattr__(self, "control_rule", parse_control_label(self.control_rule))
        elif self.control_rule is not None and not isinstance(self.control_rule, ControlRuleSpec):
            raise DomainError(
                f"control_rule {self.control_rule!r} is neither a label nor a ControlRuleSpec"
            )

    @property
    def pricing_scale(self) -> float:
        """Scalar applied to monetary boundary statistics under this observer."""
        scale = self.fx_ppp.scale if self.fx_ppp is not None else FxPppSpec.scale
        if self.sdf is not None:
            scale *= self.sdf.factor()
        return scale
