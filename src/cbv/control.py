"""Control matrices from share matrices, and perimeter selection.

Three rule families are supported:

* Option A: threshold/majority indicator, optionally closed over ownership
  chains up to a reachability depth.  Past the O(n^2) threshold test, each
  chain step is one float product over the nodes that hold a majority edge:
  O(|R| |C|^2) for R owners and C owned nodes, so a sparse control graph
  costs what its edges cost, not O(n^3).
* Option B: Herfindahl look-through (and the squared variant B'), which
  dilutes control when ownership of a node is dispersed.  O(n^2) array
  expressions.
* Option C: attenuated paths, crediting indirect chains with geometric decay
  through S(I - alpha*S)^-1 = ((I - alpha*S)^-1 - I) / alpha: alpha S's held
  edges pass the engine's stability gate, which names a refused operator
  "alpha*S", then (I - alpha*S)^-1 - I comes from 2x2 block elimination,
  O(n^3) in matrix products.  The elimination pivots across no block, which
  only the gate makes safe: it certifies rho(|alpha*S|) < 1, so every block
  and Schur complement the elimination inverts is nonsingular.

Share matrices follow the network convention: S[i, j] is the share of j owned
by i.  Control weights are dimensionless and column j describes who controls
node j.  Non-finite shares or weights are refused with DomainError.  The
declared rule, `ControlRuleSpec`, belongs to the observer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .engine import _inverse_minus_identity, _stability_gate
from .errors import DimensionError, DomainError, MembershipError
from .network import NodeId, Perimeter, _HeldEdges, _id_collection, _node_ids
from .observer import OPTION_ALIASES, ControlRuleSpec

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class ControlMatrix:
    """Control weights with the node ids the axes refer to: non-empty, unique
    strings, as a network's are."""

    ids: tuple[NodeId, ...]
    omega: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(_node_ids(self.ids)))
        omega = np.asarray(self.omega, dtype=float)
        n = len(self.ids)
        if omega.shape != (n, n):
            raise DimensionError(f"omega shape {omega.shape} does not match {n} ids")
        if not np.isfinite(omega).all():
            raise DomainError("control weights must be finite")
        if (omega < 0).any():
            raise DomainError("control weights must be nonnegative")
        if self.normalized:
            sums = omega.sum(axis=0)
            off = np.abs(sums[sums > 0] - 1.0)
            if off.size and off.max() > NORMALIZATION_TOL:
                raise DomainError("normalized columns must sum to 1")
        object.__setattr__(self, "omega", omega)

    def column(self, node: NodeId) -> np.ndarray:
        try:
            return self.omega[:, self.ids.index(node)]
        except ValueError:
            raise MembershipError(f"unknown node id {node!r}") from None


def _normalize_columns(omega: np.ndarray) -> np.ndarray:
    sums = omega.sum(axis=0)
    return np.divide(omega, sums, out=omega, where=sums > 0)


def _as_matrix(shares) -> np.ndarray:
    shares = np.asarray(shares, dtype=float)
    if shares.ndim != 2 or shares.shape[0] != shares.shape[1]:
        raise DimensionError("share matrix must be square")
    if not np.isfinite(shares).all():
        raise DomainError("share matrix holds a non-finite entry")
    return shares


def threshold_control(
    shares,
    tau: float,
    ids: tuple[NodeId, ...] | None = None,
    depth: int | None = None,
    normalize: bool = False,
) -> ControlMatrix:
    """Option A: indicator of shares at or above tau, with optional chain closure.

    Ties at the threshold count as control.  With depth > 1, boolean
    reachability over majority edges marks ultimate control along chains.

    Every power of the majority graph lives on R x C, the rows and columns
    holding a majority edge, so each chain step is one product with its C x C
    block.  The product runs in float so that it goes to BLAS; its entries
    are sums of 0/1 terms, positive exactly when some path exists.
    """
    shares = _as_matrix(shares)
    if not 0.0 < tau <= 1.0:
        raise DomainError(f"tau={tau!r} outside (0, 1]")
    n = shares.shape[0]
    direct = shares >= tau
    rows = np.flatnonzero(direct.any(axis=1))
    cols = np.flatnonzero(direct.any(axis=0))
    step = direct[np.ix_(cols, cols)].astype(np.float32)
    power = direct[np.ix_(rows, cols)]
    reach = power.copy()
    for _ in range(2, (depth or 1) + 1):
        power = (power.astype(np.float32) @ step) > 0
        reach |= power
    omega = np.zeros((n, n))
    omega[np.ix_(rows, cols)] = reach
    np.fill_diagonal(omega, 0.0)
    if normalize:
        omega = _normalize_columns(omega)
    ids = ids or tuple(f"n{k}" for k in range(n))
    return ControlMatrix(ids, omega, normalized=normalize)


def herfindahl_control(
    shares,
    variant: str = "B",
    ids: tuple[NodeId, ...] | None = None,
) -> ControlMatrix:
    """Option B / B': Herfindahl look-through weights.

    Each column is completed with a synthetic dispersed holder carrying the
    sub-unit residual before computing H_j; the pseudo-holder never appears in
    the output.
    """
    shares = _as_matrix(shares)
    variant = OPTION_ALIASES.get(variant, variant)
    if variant not in ("B", "B_prime"):
        raise DomainError(f"unknown Herfindahl variant {variant!r}")
    squares = shares * shares
    if variant == "B":
        residual = np.maximum(0.0, 1.0 - shares.sum(axis=0))
        omega = shares * (squares.sum(axis=0) + residual * residual)
    else:
        # s^2 / H_j normalized per column, where H_j cancels
        omega = _normalize_columns(squares)
    ids = ids or tuple(f"n{k}" for k in range(shares.shape[0]))
    return ControlMatrix(ids, omega, normalized=(variant == "B_prime"))


def attenuated_control(
    shares,
    alpha: float,
    ids: tuple[NodeId, ...] | None = None,
    normalize: bool = False,
) -> ControlMatrix:
    """Option C: attenuated-path weights S(I - alpha*S)^-1."""
    shares = _as_matrix(shares)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha!r} outside (0, 1)")
    held = _HeldEdges.of(shares).scaled(alpha)
    _stability_gate(held, f"{float(alpha)!r}*S")
    # alpha S (I - alpha S)^-1 = (I - alpha S)^-1 - I, so Omega is that over alpha
    omega = _inverse_minus_identity(held)
    omega /= alpha
    if normalize:
        omega = _normalize_columns(omega)
    ids = ids or tuple(f"n{k}" for k in range(shares.shape[0]))
    return ControlMatrix(ids, np.maximum(omega, 0.0, out=omega), normalized=normalize)


def build_control(shares, spec: ControlRuleSpec, ids=None) -> ControlMatrix:
    """Dispatch on the declared rule."""
    if spec.option == "A":
        return threshold_control(
            shares, spec.tau, ids=ids, depth=spec.reachability_depth,
            normalize=spec.normalize,
        )
    if spec.option in ("B", "B_prime"):
        return herfindahl_control(shares, spec.option, ids=ids)
    return attenuated_control(shares, spec.alpha, ids=ids, normalize=spec.normalize)


def select_perimeter(control: ControlMatrix, seed, tau_p: float) -> Perimeter:
    """Grow a perimeter to the least fixed point of the in-perimeter control test.

    A node joins once the control weight its current members hold in it,
    `omega[members].sum(axis=0)`, reaches tau_p; each pass adds every node
    that does, until a pass adds none.  Weights are nonnegative, so a join
    never undoes another and the result does not depend on evaluation order.
    Tie rule: a weight is summed over the members in the order of
    `control.ids`, and a sum that reaches tau_p exactly joins.
    """
    if not 0.0 < tau_p <= 1.0:
        raise DomainError(f"tau_p={tau_p!r} outside (0, 1]")
    members = {str(s) for s in _id_collection(seed, "the seed")}
    unknown = members - set(control.ids)
    if unknown:
        raise MembershipError(f"seed ids not in control matrix: {sorted(unknown)}")
    inside = np.array([node in members for node in control.ids], dtype=bool)
    while True:
        joins = ~inside & (control.omega[inside].sum(axis=0) >= tau_p)
        if not joins.any():
            return Perimeter(compress(control.ids, inside.tolist()))
        inside |= joins
