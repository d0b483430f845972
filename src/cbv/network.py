"""Ownership networks, perimeters, block partitioning and held edges.

The share matrix O is stored dense, with O[i, j] = fraction of node j's
equity owned by node i (dimensionless, in [0, 1]).  Column sums may stay below 1: the
residual belongs to dispersed holders that are not modelled as nodes.  Node
ordering is canonical (lexicographic by id) so that block matrices and any
serialized artifact derived from them are deterministic.  Every sparse read
of a block goes through `_HeldEdges`, a (rows, cols) block as its held
entries: the engine's gate and solves, the priced cut edges, robustness and
control Option C; clearing builds its scipy CSR inflow from one.

Cost.  The network keeps the row-major positions of its held entries (every
entry whose bit pattern is not +0.0, so -0.0 and NaN are held), found in one
scan when it is built.  `partition` splits those edges by side and scatters
each block's into zeros, so a perimeter costs the blocks' allocation plus
O(nnz), not a pass over the n x n cells; the O/O block, which valuation never reads, is built on demand,
the first time `BlockPartition.o_oo` is read (by `schur_operators`).  On a
fully dense matrix the edge lists are n^2 positions (8 bytes each) and the
scatter is slower than slicing would be.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import DimensionError, DomainError, MembershipError
from .validation import ValidationReport

# Column sums above 1 + COLUMN_SUM_SLACK are violations; anything below is a
# legal dispersed-holder residual.
COLUMN_SUM_SLACK = 1e-9

NodeId = str


class _HeldEdges:
    """A (rows, cols) block as the row, column and value of each held entry,
    in the order of the flat positions it is built from (`at`): a network's
    held bit patterns, or the != 0 entries (`of`).  The matvec sums each
    row's products in edge order, so where a row's edges come in column order
    it agrees bit for bit with a CSR product; it costs O(nnz + rows), no scipy.
    """

    def __init__(self, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray):
        self.shape, self.rows, self.cols, self.vals = shape, rows, cols, vals

    @classmethod
    def at(cls, block: np.ndarray, flat: np.ndarray) -> "_HeldEdges":
        """The entries of a 2-D block at its row-major positions `flat`."""
        return cls(block.shape, *np.divmod(flat, block.shape[1]), np.take(block, flat))

    @classmethod
    def of(cls, m) -> "_HeldEdges":
        """The != 0 entries of a 2-D array, from one scan of that mask (np.nonzero
        on a float block costs several times more); held edges come back unchanged."""
        if isinstance(m, cls):
            return m
        m = np.asarray(m, dtype=float)
        if m.ndim != 2:
            raise DimensionError(f"a block must be 2-D, got shape {m.shape}")
        return cls.at(m, np.flatnonzero(m != 0))

    @property
    def n(self) -> int:
        """The order of a square block; any other shape is a DimensionError."""
        if self.shape[0] != self.shape[1]:
            raise DimensionError(f"a {self.shape[0]}x{self.shape[1]} block is not square")
        return self.shape[0]

    def scaled(self, scale: float) -> "_HeldEdges":
        return _HeldEdges(self.shape, self.rows, self.cols, scale * self.vals)

    T = property(lambda self: _HeldEdges(self.shape[::-1], self.cols, self.rows, self.vals))

    def toarray(self) -> np.ndarray:
        """The block: its held edges scattered into zeros."""
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out

    def identity_minus(self) -> np.ndarray:
        """I - A, the held edges scattered into one identity: bit for bit dense I - A."""
        system = np.eye(self.n)
        system[self.rows, self.cols] -= self.vals
        return system

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, self.vals * x[self.cols], minlength=self.shape[0])

    def merged(self, rows: np.ndarray, cols: np.ndarray) -> tuple["_HeldEdges", np.ndarray]:
        """This square block with the positions (rows, cols) held too, a new one
        holding 0.0, and where in its values each of those positions sits."""
        n = self.n
        flat, extra = self.rows * n + self.cols, rows * n + cols
        union = np.union1d(flat, extra)
        vals = np.zeros(union.size)
        vals[np.searchsorted(union, flat)] = self.vals
        return _HeldEdges((n, n), *np.divmod(union, n), vals), np.searchsorted(union, extra)


class OwnershipNetwork:
    """Immutable node set plus share matrix, canonically ordered."""

    def __init__(self, nodes, shares):
        ids = [str(n) for n in nodes]
        if any(not n for n in ids):
            raise MembershipError("node ids must be non-empty strings")
        if len(set(ids)) != len(ids):
            raise MembershipError("node ids must be unique")
        shares = np.asarray(shares, dtype=float)
        n = len(ids)
        if shares.shape != (n, n):
            raise DimensionError(
                f"share matrix shape {shares.shape} does not match {n} nodes"
            )
        order = np.argsort(np.asarray(ids, dtype=object))
        self.nodes: tuple[NodeId, ...] = tuple(ids[k] for k in order)
        self._index = {node: k for k, node in enumerate(self.nodes)}
        # a fresh array either way, so the caller's matrix is not shared; ids
        # that come in canonical order need only a copy, not a gather
        in_order = np.array_equal(order, np.arange(n))
        self.shares: np.ndarray = shares.copy() if in_order else shares[np.ix_(order, order)]
        self.shares.setflags(write=False)
        # row-major positions of the held entries, whose bits are not +0.0, the
        # stored form of the edges `partition` splits (nonzero on a bool mask
        # is about three times faster than on uint64)
        self._held = np.flatnonzero(self.shares.view(np.uint64) != 0)
        self._held.setflags(write=False)

    @classmethod
    def from_edges(cls, nodes, edges) -> "OwnershipNetwork":
        """Build from (owner, owned, share) triples; absent edges are zero.

        A pair given twice is a DomainError, not a silent overwrite.
        """
        ids = sorted(str(n) for n in nodes)
        index = {n: k for k, n in enumerate(ids)}
        shares = np.zeros((len(ids), len(ids)))
        seen = set()
        for owner, owned, share in edges:
            try:
                cell = index[str(owner)], index[str(owned)]
            except KeyError as exc:
                raise MembershipError(f"unknown node id {exc.args[0]!r}") from exc
            if cell in seen:
                raise DomainError(f"edge ({str(owner)!r}, {str(owned)!r}) is given twice")
            seen.add(cell)
            shares[cell] = float(share)
        return cls(ids, shares)

    def index_of(self, node: NodeId) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise MembershipError(f"unknown node id {node!r}") from None

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"OwnershipNetwork({len(self.nodes)} nodes)"


@dataclass(frozen=True)
class Perimeter:
    """Subset of nodes being consolidated; the complement is derived."""

    members: frozenset[NodeId]

    def __init__(self, members):
        object.__setattr__(self, "members", frozenset(str(m) for m in members))

    def __contains__(self, node: NodeId) -> bool:
        return node in self.members


@dataclass(frozen=True)
class BlockPartition:
    """The four share blocks induced by a perimeter, with their id maps.

    The O/O block is given as a function that builds it, called the first
    time `o_oo` is read.
    """

    p_ids: tuple[NodeId, ...]
    o_ids: tuple[NodeId, ...]
    o_pp: np.ndarray
    o_po: np.ndarray
    o_op: np.ndarray
    o_oo_source: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def o_oo(self) -> np.ndarray:
        return self.o_oo_source()


def partition(network: OwnershipNetwork, perimeter: Perimeter) -> BlockPartition:
    """Split the share matrix into the P/O blocks for a perimeter.

    One membership mask over the canonical node order yields both id tuples,
    already in canonical order, and each node's index within its side.  The
    network's held edges are split by side, and each block is its edges
    scattered into zeros: O_PP, O_PO and O_OP here, O_OO, which valuation
    never reads, on first read.  Every entry keeps its bits, -0.0 and NaN
    included.
    """
    unknown = perimeter.members - network._index.keys()
    if unknown:
        raise MembershipError(f"perimeter ids not in network: {sorted(unknown)}")
    n = len(network.nodes)
    in_p = np.zeros(n, dtype=bool)
    in_p[np.fromiter((network._index[m] for m in perimeter.members), dtype=np.intp,
                     count=len(perimeter.members))] = True
    n_p = len(perimeter.members)
    sizes = {True: n_p, False: n - n_p}
    local = np.empty(n, dtype=np.intp)  # each node's index within P or within O
    local[in_p] = np.arange(n_p)
    local[~in_p] = np.arange(n - n_p)
    edges = _HeldEdges.at(network.shares, network._held)
    owner_in_p, owned_in_p = in_p[edges.rows], in_p[edges.cols]

    def block(owner_side: bool, owned_side: bool) -> np.ndarray:
        keep = (owner_in_p == owner_side) & (owned_in_p == owned_side)
        return _HeldEdges((sizes[owner_side], sizes[owned_side]), local[edges.rows[keep]],
                          local[edges.cols[keep]], edges.vals[keep]).toarray()

    return BlockPartition(
        p_ids=tuple(compress(network.nodes, in_p.tolist())),
        o_ids=tuple(compress(network.nodes, (~in_p).tolist())),
        o_pp=block(True, True),
        o_po=block(True, False),
        o_op=block(False, True),
        o_oo_source=lambda: block(False, False),
    )


def validate_network(network: OwnershipNetwork) -> ValidationReport:
    """Report share entries outside [0, 1], NaN included, and column sums above 1."""
    report = ValidationReport()
    shares = network.shares
    bad = np.argwhere(~((shares >= 0.0) & (shares <= 1.0)))  # NaN included
    for i, j in bad:
        report.add(
            "entry-range",
            "error",
            f"share {float(shares[i, j])!r} outside [0, 1]",
            location=f"{network.nodes[i]}->{network.nodes[j]}",
        )
    col_sums = shares.sum(axis=0)
    for j in np.nonzero(col_sums > 1.0 + COLUMN_SUM_SLACK)[0]:
        report.add(
            "column-sum",
            "error",
            f"ownership of {network.nodes[j]!r} sums to {float(col_sums[j])!r} > 1",
            location=network.nodes[j],
        )
    return report


@dataclass(frozen=True)
class HaircutSpec:
    """Multiplicative liquidity and currency haircuts, both in [0, 1]."""

    h_liq: float = 1.0
    h_fx: float = 1.0

    def __post_init__(self):
        for name, value in (("h_liq", self.h_liq), ("h_fx", self.h_fx)):
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name}={value!r} outside [0, 1]")

    @property
    def combined(self) -> float:
        return self.h_liq * self.h_fx


def apply_haircut(spec: HaircutSpec, value: float) -> float:
    """Effective value after liquidity and currency haircuts."""
    value = float(value)
    if not np.isfinite(value):
        raise DomainError(f"value {value!r} is not finite")
    return spec.combined * value
