"""Cross-priced valuations, Fisher indices and chain-linking.

For a fixed perimeter and two periods, four valuations are computed: each
period's boundary statistics under each period's observer.  Ratios of these
give elementary Laspeyres/Paasche volume and price indices; their geometric
means combine into the Fisher indices and the growth multiplier

    G_F = IV_F * IP_F = W_curr@curr / W_prev@prev,

whose cumulative product chains a level series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .engine import CutStatistics, SolverConfig, ValuationResult, evaluate_for_observer
from .errors import DimensionError, DomainError, ProtocolError, SignError
from .observer import Observer


@dataclass(frozen=True)
class FisherQuad:
    """The four cross-priced consolidated values.

    Field names read W_<period>_<observer>: w_curr_prev_obs is the current
    period priced under the previous observer.  Nodes present in only one
    period are excluded from both sides and recorded, never imputed.
    `cross_priced_quad` keeps the four `ValuationResult`s in `results`, in
    field order.
    """

    w_prev_prev_obs: float
    w_curr_prev_obs: float
    w_prev_curr_obs: float
    w_curr_curr_obs: float
    excluded_nodes: tuple[str, ...] = ()
    results: tuple[ValuationResult, ...] | None = None

    def __post_init__(self):
        cells = (
            self.w_prev_prev_obs,
            self.w_curr_prev_obs,
            self.w_prev_curr_obs,
            self.w_curr_curr_obs,
        )
        if not all(math.isfinite(v) for v in cells):
            raise DomainError("all four cross-priced values must be finite")


@dataclass(frozen=True)
class FisherIndices:
    """Elementary Laspeyres/Paasche ratios plus the Fisher combination."""

    iv_l: float
    ip_l: float
    iv_p: float
    ip_p: float
    iv_f: float | None = None
    ip_f: float | None = None
    g_f: float | None = None


def cross_priced_quad(
    stats_prev: CutStatistics,
    stats_curr: CutStatistics,
    obs_prev: Observer,
    obs_curr: Observer,
    cfg: SolverConfig | None = None,
) -> FisherQuad:
    """Evaluate both periods under both observers.

    Both periods must share the informational regime and the clearing status;
    re-pricing applies each observer's units/FX scale and discount factor to
    the period's boundary statistics, and each cell takes the eps/max_iters
    that `cfg` leaves unset from its own observer's declared tolerances.
    """
    if obs_prev.regime != obs_curr.regime:
        raise ProtocolError(
            f"regime mismatch across periods: {obs_prev.regime} vs {obs_curr.regime}"
        )
    if stats_prev.clearing_tag != stats_curr.clearing_tag:
        raise ProtocolError(
            "pre- and post-clearing flows cannot be mixed in one comparison "
            f"({stats_prev.clearing_tag!r} vs {stats_curr.clearing_tag!r})"
        )
    common_p = set(stats_prev.p_ids) & set(stats_curr.p_ids)
    common_o = set(stats_prev.o_ids) & set(stats_curr.o_ids)
    excluded = (set(stats_prev.p_ids) | set(stats_curr.p_ids) | set(stats_prev.o_ids)
                | set(stats_curr.o_ids)) - common_p - common_o
    prev = stats_prev.restrict(common_p, common_o) if excluded else stats_prev
    curr = stats_curr.restrict(common_p, common_o) if excluded else stats_curr
    if not prev.p_ids:
        raise DimensionError("no perimeter nodes are common to both periods")

    cells = [
        evaluate_for_observer(prev, obs_prev, cfg),
        evaluate_for_observer(curr, obs_prev, cfg),
        evaluate_for_observer(prev, obs_curr, cfg),
        evaluate_for_observer(curr, obs_curr, cfg),
    ]
    return FisherQuad(
        w_prev_prev_obs=cells[0].w,
        w_curr_prev_obs=cells[1].w,
        w_prev_curr_obs=cells[2].w,
        w_curr_curr_obs=cells[3].w,
        excluded_nodes=tuple(sorted(excluded)),
        results=tuple(cells),
    )


def elementary_indices(quad: FisherQuad) -> FisherIndices:
    """The four elementary ratios; nonpositive denominators are refused."""
    cells = {
        "w_prev_prev_obs": quad.w_prev_prev_obs,
        "w_curr_prev_obs": quad.w_curr_prev_obs,
        "w_prev_curr_obs": quad.w_prev_curr_obs,
        "w_curr_curr_obs": quad.w_curr_curr_obs,
    }
    bad = {name: value for name, value in cells.items() if value <= 0.0}
    if bad:
        raise SignError(
            "nonpositive consolidated value in index computation; use the "
            "absolute-component fallback or fix the inputs",
            diagnostics=cells,
        )
    return FisherIndices(
        iv_l=quad.w_curr_prev_obs / quad.w_prev_prev_obs,
        ip_l=quad.w_prev_curr_obs / quad.w_prev_prev_obs,
        iv_p=quad.w_curr_curr_obs / quad.w_prev_curr_obs,
        ip_p=quad.w_curr_curr_obs / quad.w_curr_prev_obs,
    )


def fisher_combine(indices: FisherIndices) -> FisherIndices:
    """Geometric means and the growth multiplier G_F = IV_F * IP_F."""
    for name in ("iv_l", "ip_l", "iv_p", "ip_p"):
        if getattr(indices, name) <= 0.0:
            raise DomainError(f"elementary index {name} must be > 0")
    iv_f = math.sqrt(indices.iv_l * indices.iv_p)
    ip_f = math.sqrt(indices.ip_l * indices.ip_p)
    return replace(indices, iv_f=iv_f, ip_f=ip_f, g_f=iv_f * ip_f)


def fisher_indices(quad: FisherQuad) -> FisherIndices:
    """Elementary ratios and Fisher combination in one step."""
    return fisher_combine(elementary_indices(quad))


@dataclass(frozen=True)
class ComponentSignIndices:
    """Absolute-value fallback when W can change sign.

    Each boundary component (base, outgoing, incoming) is indexed separately
    on absolute values; the overall signs are reported alongside instead of
    being silently folded into a ratio.
    """

    base_multiplier: float
    t_out_multiplier: float
    t_in_multiplier: float
    sign_prev: int
    sign_curr: int


def component_sign_indices(quad: FisherQuad) -> ComponentSignIndices:
    """Component multipliers from the four results `cross_priced_quad` keeps."""
    if quad.results is None:
        raise DomainError("the component fallback needs the four results that "
                          "cross_priced_quad keeps; this quad has none")
    prev, _, _, curr = quad.results

    def ratio(curr_value: float, prev_value: float) -> float:
        if prev_value == 0.0 and curr_value == 0.0:
            return 1.0
        if prev_value == 0.0:
            raise SignError(
                "component fallback undefined: zero previous component",
                diagnostics={"prev": prev_value, "curr": curr_value},
            )
        return abs(curr_value) / abs(prev_value)

    return ComponentSignIndices(
        base_multiplier=ratio(curr.base_total, prev.base_total),
        t_out_multiplier=ratio(curr.t_out, prev.t_out),
        t_in_multiplier=ratio(curr.t_in, prev.t_in),
        sign_prev=int(math.copysign(1.0, prev.w)) if prev.w != 0 else 0,
        sign_curr=int(math.copysign(1.0, curr.w)) if curr.w != 0 else 0,
    )


def chain_link(multipliers) -> list[float]:
    """Chained levels: level_0 = 1, level_t = level_{t-1} * G_F(t)."""
    levels = [1.0]
    for k, g in enumerate(multipliers):
        if not g > 0.0:
            raise DomainError(f"multiplier #{k} is {g!r}, must be > 0")
        levels.append(levels[-1] * g)
    return levels


@dataclass(frozen=True)
class GoodsIndexResult:
    laspeyres: float
    paasche: float
    fisher: float


def bilateral_goods_index(p0, p1, q0, q1) -> GoodsIndexResult:
    """Classic bilateral price indices on price/quantity vectors.

    L = p1.q0 / p0.q0, P = p1.q1 / p0.q1, F = sqrt(L * P).  Rescaling both
    price vectors by a common currency factor leaves all three unchanged.
    """
    vectors = [list(map(float, v)) for v in (p0, p1, q0, q1)]
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise DimensionError("price and quantity vectors must share one length")
    p0v, p1v, q0v, q1v = vectors

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    denom_l, denom_p = dot(p0v, q0v), dot(p0v, q1v)
    if denom_l <= 0.0 or denom_p <= 0.0:
        raise DomainError("base-price denominators must be > 0")
    laspeyres = dot(p1v, q0v) / denom_l
    paasche = dot(p1v, q1v) / denom_p
    return GoodsIndexResult(
        laspeyres=laspeyres,
        paasche=paasche,
        fisher=math.sqrt(laspeyres * paasche),
    )
