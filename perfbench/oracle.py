"""Reference answers computed without the library, and the gates that use them.

Every gate raises `WrongAnswer` when the library's output disagrees with the
reference; the benchmark counts that as a failed operation.  The references
are written from the formulas directly (numpy and scipy.sparse), never by
calling `cbv`, so a fast wrong answer cannot pass as a speed-up.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

RTOL = 1e-9
CLEARING_TOL = 1e-9  # relative to the largest due


class WrongAnswer(AssertionError):
    """The library returned an answer that disagrees with the reference."""


def check_close(name: str, got: float, want: float):
    """|got - want| <= RTOL * |want|, and got is finite."""
    got, want = float(got), float(want)
    if not np.isfinite(got) or abs(got - want) > RTOL * abs(want):
        raise WrongAnswer(f"{name}: got {got!r}, reference {want!r} (rtol {RTOL})")


def check(condition: bool, message: str):
    if not condition:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# Cut valuation
# ---------------------------------------------------------------------------

def reference_cut(shares: sp.csr_matrix, b: np.ndarray, v: np.ndarray,
                  in_p: np.ndarray) -> tuple[float, float, float]:
    """(W, T_out, T_in) from the cut formula with true values.

    W = sum_P b + sum_{i in P, k in O} O_ik v_k - sum_{i in O, j in P} O_ij v_j
    """
    in_o = ~in_p
    p = in_p.astype(float)
    o = in_o.astype(float)
    t_out = float(p @ (shares @ (v * o)))
    t_in = float(o @ (shares @ (v * p)))
    return float(b[in_p].sum()) + t_out - t_in, t_out, t_in


def check_valuation(name: str, result_w: float, reference_w: float):
    check_close(f"{name} W", result_w, reference_w)


def check_cut_summary(path: Path, t_out: float, t_in: float, fx_scale: float = 1.0) -> bool:
    """Cut-summary edges must add up to the totals, and the totals to the reference.

    Known defect of `cbv compute`: when the observer's FX scale is not 1, it
    writes the P->O edges from the unscaled O-node values, in package units,
    while T_out, T_in and the O->P edges are priced (`cli._cmd_compute`
    hands the unscaled statistics to `build_cut_summary`).  Such P->O edges,
    times the scale, must then add up to T_out to the same tolerance, and the
    function returns True so that the run reports the defect.  Edges in any
    other units fail.  Returns False when the edges are priced, as they
    should be.
    """
    doc = json.loads(Path(path).read_bytes())
    out_sum = sum(e["amount"] for e in doc["edges_PO"])
    in_sum = sum(e["amount"] for e in doc["edges_OP"])
    totals = doc["totals"]
    check_close("cut summary T_out", totals["T_out"], t_out)
    check_close("cut summary T_in", totals["T_in"], t_in)
    check_close("cut summary edges_OP sum", in_sum, totals["T_in"])
    unpriced = fx_scale != 1.0 and abs(out_sum - totals["T_out"]) > RTOL * abs(totals["T_out"])
    if unpriced:
        check_close("cut summary edges_PO sum x FX scale", out_sum * fx_scale, totals["T_out"])
    else:
        check_close("cut summary edges_PO sum", out_sum, totals["T_out"])
    return unpriced


def reference_g_f(w_prev: float, w_curr: float, k_prev: float, k_curr: float) -> float:
    """Fisher growth multiplier when period t priced by observer s is k_s * W_t.

    The Laspeyres and Paasche value indices are both W_curr / W_prev and the
    price indices both k_curr / k_prev, so G_F is their product.
    """
    return (w_curr / w_prev) * (k_curr / k_prev)


def check_tamper_exits(validate_code: int, compute_code: int):
    """A package with one changed digit: validate reports findings, compute fails."""
    check(validate_code == 1, f"cbv validate on a tampered package exited {validate_code}, want 1")
    check(compute_code == 2, f"cbv compute on a tampered package exited {compute_code}, want 2")


def tamper(directory: Path):
    """Change the last digit of the first nonzero share in a data file.

    The file still parses to a valid, slightly different package, so only
    the hash check can tell.
    """
    path = Path(directory) / "O_PO.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    for k, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        for j, field in enumerate(fields[1:], start=1):
            if field not in ("0.0", "") and field[-1].isdigit():
                fields[j] = field[:-1] + ("7" if field[-1] != "7" else "3")
                lines[k] = ",".join(fields)
                path.write_text("\n".join(lines), encoding="utf-8")
                return
    raise ValueError(f"{path} has no nonzero share to change")


def check_raises(name: str, call, exc_type):
    """`call()` must raise `exc_type`; returning normally is a wrong answer."""
    try:
        call()
    except exc_type:
        return
    raise WrongAnswer(f"{name}: expected {exc_type.__name__}, call returned normally")


# ---------------------------------------------------------------------------
# Control
# ---------------------------------------------------------------------------

def reference_threshold(shares: np.ndarray, tau: float, depth: int) -> np.ndarray:
    """Boolean reachability over majority edges, up to `depth` steps."""
    direct = sp.csr_matrix(shares >= tau, dtype=np.int64)
    reach = direct.copy()
    power = direct.copy()
    for _ in range(depth - 1):
        power = ((power @ direct) > 0).astype(np.int64)
        reach = reach + power
    out = reach.toarray() > 0
    np.fill_diagonal(out, False)
    return out


def check_threshold(omega: np.ndarray, reference: np.ndarray):
    got = omega > 0
    diff = int((got != reference).sum())
    check(diff == 0, f"threshold control differs from reachability in {diff} entries")
    check(bool(np.all((omega == 0) | (omega == 1))), "threshold control is not 0/1")


def check_herfindahl(shares: np.ndarray, omega: np.ndarray, variant: str):
    residual = np.maximum(0.0, 1.0 - shares.sum(axis=0))
    h = (shares * shares).sum(axis=0) + residual * residual
    if variant == "B":
        want = shares * h
    else:
        sq = shares * shares
        sums = sq.sum(axis=0)
        want = np.divide(sq, sums, out=np.zeros_like(sq), where=sums > 0)
    err = float(np.abs(omega - want).max())
    check(err <= RTOL, f"Herfindahl {variant} differs from the formula by {err!r}")


def check_attenuated(shares: np.ndarray, omega: np.ndarray, alpha: float):
    """Omega = S (I - alpha S)^-1 satisfies Omega - alpha Omega S = S."""
    err = float(np.abs(omega - alpha * (omega @ shares) - shares).max())
    check(err <= RTOL * max(1.0, float(np.abs(omega).max())),
          f"attenuated control violates Omega - alpha Omega S = S by {err!r}")


def check_selection(omega: np.ndarray, ids, members, roots, tau_p: float):
    """The selected perimeter is the least fixed point grown from the roots."""
    index = {n: k for k, n in enumerate(ids)}
    inside = np.zeros(len(ids), dtype=bool)
    inside[[index[n] for n in members]] = True
    check(all(inside[index[r]] for r in roots), "selected perimeter lost a seed node")
    weight = omega[inside].sum(axis=0)
    outside_ok = bool(np.all(weight[~inside] < tau_p))
    check(outside_ok, "a node outside the perimeter passes the control test")
    # growing from the roots alone must reach every member
    grown = np.zeros_like(inside)
    grown[[index[r] for r in roots]] = True
    while True:
        more = ~grown & (omega[grown].sum(axis=0) >= tau_p)
        if not more.any():
            break
        grown |= more
    check(bool(np.array_equal(grown, inside)),
          "selected perimeter is not the fixed point grown from the seed")


# ---------------------------------------------------------------------------
# Clearing
# ---------------------------------------------------------------------------

def payment_map(classes, resources, gamma, payments):
    """One synchronous sweep of the seniority clearing map (see cbv.clearing)."""
    dues = np.stack([mat.sum(axis=1) for mat in classes])
    theta = np.ones_like(payments)
    pos = dues > 0
    theta[pos] = payments[pos] / dues[pos]
    inflows = resources + sum(theta[k] @ mat for k, mat in enumerate(classes))
    costs = np.cumsum(gamma * (dues - payments), axis=0)
    senior = np.cumsum(dues, axis=0) - dues
    return np.clip(inflows[np.newaxis, :] - costs - senior, 0.0, dues)


def check_clearing(classes, resources, gamma, payments):
    dues = np.stack([mat.sum(axis=1) for mat in classes])
    slack = CLEARING_TOL * float(dues.max())
    check(bool(np.all(payments >= -slack)), "clearing paid a negative amount")
    check(bool(np.all(payments <= dues + slack)), "clearing paid more than the dues")
    gap = float(np.abs(payment_map(classes, resources, gamma, payments) - payments).max())
    check(gap <= slack, f"clearing payments are not a fixed point (gap {gap!r})")


def check_ordering(greatest, least):
    slack = CLEARING_TOL * max(1.0, float(np.abs(greatest).max()))
    check(bool(np.all(greatest >= least - slack)),
          "greatest clearing selection pays less than the least one")


def reference_net_flows(classes, dues, payments, in_p):
    """Paid boundary flows: payer i sends (p_i / due_i) * L[i, j] to j."""
    x = np.zeros_like(classes[0])
    for k, mat in enumerate(classes):
        theta = np.ones(mat.shape[0])
        pos = dues[k] > 0
        theta[pos] = payments[k][pos] / dues[k][pos]
        x += theta[:, np.newaxis] * mat
    return x[np.ix_(in_p, ~in_p)], x[np.ix_(~in_p, in_p)]


def check_matrix(name: str, got, want):
    err = float(np.abs(np.asarray(got) - want).max()) if np.size(want) else 0.0
    check(err <= RTOL * max(1.0, float(np.abs(want).max()) if np.size(want) else 1.0),
          f"{name} differs from the reference by {err!r}")
