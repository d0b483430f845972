"""Ownership networks, perimeters, block partitioning and held edges.

The share matrix O, with O[i, j] = fraction of node j's equity owned by
node i (dimensionless, in [0, 1]), is stored as its held edges, never as a
dense n x n array.  Column sums may stay below 1: the
residual belongs to dispersed holders that are not modelled as nodes.  Node
ordering is canonical (lexicographic by id) so that block matrices and any
serialized artifact derived from them are deterministic.

The stored form.  The network and every block are stored as held edges
(`_HeldEdges`): every entry whose bit pattern is not +0.0, so -0.0 and NaN
are held, in row-major order, no position twice.  `_HeldEdges.of_bits` scans
a dense block into it and `_HeldEdges.from_entries` sorts entries given in
any order into it; no other code does either.  Every sparse read of a block
goes through `_HeldEdges`: the engine's gate, solves and pricing, the priced
cut edges, robustness, control Option C and clearing, which builds its scipy
CSR inflow from them.  A block field of `BlockPartition`,
`engine.CutStatistics`, `clearing.ClearingProblem` or
`report.CutReportPackage` (`_BlockField`) is stored in that form and reads
as the dense block, built on the first read.

Cost.  The network's held edges are found by one scan of a caller's matrix,
which is not copied, or sorted from edge triples in O(nnz log nnz)
(`from_edges`).  `partition` splits those
edges by side and keeps the three blocks that touch P, so a perimeter costs
O(n + nnz), not a pass over the n x n cells, and no block is dense until it
is read; `validate_network` and `engine.implied_bases` read the edges too.
A perimeter's per-id work runs in C loops: its members are looked up by one
`np.fromiter` and its id tuples taken from the network's array of ids (|P| =
1500 of 3000 nodes and 15,000 edges: about 0.33 ms, x86-64, 2 vCPUs).
On a fully dense matrix the edge lists are n^2 entries (24 bytes each).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import CbvError, DimensionError, DomainError, MembershipError, _id_list
from .validation import ValidationReport

# Column sums above 1 + COLUMN_SUM_SLACK are violations; anything below is a
# legal dispersed-holder residual.
COLUMN_SUM_SLACK = 1e-9

NodeId = str


class _HeldEdges:
    """A (rows, cols) block as the row, column and value of each held entry,
    in the order of the flat positions it is built from (`at`).  The stored
    form is every entry whose bit pattern is not +0.0, so -0.0 and NaN are
    held, in row-major order, no position twice: `of_bits` scans a dense
    block into it and `from_entries` sorts entries into it.  `of` gives the
    edges, the != 0 entries.
    The matvec and the column sums add each row's or column's values in edge
    order, so where the edges come in row-major order they agree bit for bit
    with a CSR product and with a dense block's sum(axis=0); each costs
    O(nnz + rows), no scipy.  Both give float64, also for a block with no
    edges, where bincount gives int64 zeros.
    """

    def __init__(self, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray):
        self.shape, self.rows, self.cols, self.vals = shape, rows, cols, vals

    @classmethod
    def at(cls, block: np.ndarray, flat: np.ndarray) -> "_HeldEdges":
        """The entries of a 2-D block at its row-major positions `flat`."""
        return cls(block.shape, *np.divmod(flat, block.shape[1]), np.take(block, flat))

    @classmethod
    def from_entries(cls, shape: tuple[int, int], rows, cols,
                     vals) -> tuple["_HeldEdges", int | None]:
        """Entries (rows[k], cols[k], vals[k]), in any order, in the stored
        form, and the index k of the first entry that repeats an earlier
        position (None when none does): O(nnz log nnz), by one stable sort
        of their row-major positions."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=float)
        flat = rows * shape[1] + cols
        at = np.argsort(flat, kind="stable")  # a repeated position keeps its input order
        repeats = at[1:][flat[at[1:]] == flat[at[:-1]]]
        at = at[vals[at].view(np.uint64) != 0]  # every bit pattern but +0.0
        first = int(repeats.min()) if repeats.size else None
        return cls(shape, rows[at], cols[at], vals[at]), first

    @classmethod
    def of(cls, m) -> "_HeldEdges":
        """The edges (`edges`) of a 2-D array; held edges come back unchanged."""
        return m if isinstance(m, cls) else cls.of_bits(m).edges()

    @classmethod
    def of_bits(cls, m) -> "_HeldEdges":
        """A 2-D array in the stored form: the one scan of a dense block
        (nonzero on the bool mask is about three times faster than on the
        uint64 view, and several times faster than np.nonzero on the float
        block)."""
        m = np.ascontiguousarray(m, dtype=float)
        if m.ndim != 2:
            raise DimensionError(f"a block must be 2-D, got shape {m.shape}")
        return cls.at(m, np.flatnonzero(m.view(np.uint64) != 0))

    @property
    def n(self) -> int:
        """The order of a square block; any other shape is a DimensionError."""
        if self.shape[0] != self.shape[1]:
            raise DimensionError(f"a {self.shape[0]}x{self.shape[1]} block is not square")
        return self.shape[0]

    def scaled(self, scale: float) -> "_HeldEdges":
        return _HeldEdges(self.shape, self.rows, self.cols, scale * self.vals)

    T = property(lambda self: _HeldEdges(self.shape[::-1], self.cols, self.rows, self.vals))

    def edges(self) -> "_HeldEdges":
        """The held entries that are edges: those != 0, NaN included; a held
        -0.0 is not one."""
        keep = self.vals != 0
        if keep.all():
            return self
        return _HeldEdges(self.shape, self.rows[keep], self.cols[keep], self.vals[keep])

    def split(self, row_side: np.ndarray, col_side: np.ndarray) -> list[list["_HeldEdges"]]:
        """The blocks [a][b] of the rows on side a and the columns on side b,
        for a side label (uint8, 0 or 1) of each row and column: bit for bit
        the held edges of block[np.ix_(rows on a, columns on b)], each in this
        block's order.  One stable counting sort of the edges, O(nnz + n);
        a side labelling given for both rows and columns is placed once.
        """
        row_place, row_sizes = _places(row_side)
        col_place, col_sizes = ((row_place, row_sizes) if col_side is row_side
                                else _places(col_side))
        code = (row_side << 1)[self.rows] | col_side[self.cols]  # block a, b is 2a + b
        order = np.argsort(code, kind="stable")
        starts = [0, *accumulate(np.count_nonzero(code == c) for c in range(4))]
        rows, cols = row_place[self.rows[order]], col_place[self.cols[order]]
        vals = self.vals[order]

        def piece(a: int, b: int) -> _HeldEdges:
            cut = slice(starts[2 * a + b], starts[2 * a + b + 1])
            return _HeldEdges((row_sizes[a], col_sizes[b]), rows[cut], cols[cut], vals[cut])

        return [[piece(a, b) for b in (0, 1)] for a in (0, 1)]

    @cached_property
    def array(self) -> np.ndarray:
        """The block, read-only, built once: its held edges scattered into zeros."""
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        out.setflags(write=False)
        return out

    def col_sums(self) -> np.ndarray:
        """Each column's values summed in edge order."""
        return np.bincount(self.cols, self.vals, minlength=self.shape[1]).astype(float, copy=False)

    def identity_minus(self) -> np.ndarray:
        """I - A, the held edges scattered into one identity: bit for bit dense I - A."""
        system = np.eye(self.n)
        system[self.rows, self.cols] -= self.vals
        return system

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, self.vals * x[self.cols],
                           minlength=self.shape[0]).astype(float, copy=False)

    def merged(self, rows: np.ndarray, cols: np.ndarray) -> tuple["_HeldEdges", np.ndarray]:
        """This square block with the positions (rows, cols) held too, a new one
        holding 0.0, and where in its values each of those positions sits."""
        n = self.n
        flat, extra = self.rows * n + self.cols, rows * n + cols
        union = np.union1d(flat, extra)
        vals = np.zeros(union.size)
        vals[np.searchsorted(union, flat)] = self.vals
        return _HeldEdges((n, n), *np.divmod(union, n), vals), np.searchsorted(union, extra)


def _places(side: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """For a side label (0 or 1) of each index, each index's place within its
    side, and each side's size."""
    at = [np.flatnonzero(side == s) for s in (0, 1)]
    place = np.empty(side.size, dtype=np.intp)
    for on_side in at:
        place[on_side] = np.arange(on_side.size)
    return place, (at[0].size, at[1].size)


class _BlockField:
    """A dataclass field that stores a block as held edges, a dense one
    scanned (`_HeldEdges.of_bits`) as it is assigned, and reads as the dense
    block: a read-only array built on the first read and cached on the held
    edges, so whatever shares them shares it.  `_HeldBlocks.held` gives what
    is stored.  A tuple of blocks (`many`) is stored as given, and its
    owner's __post_init__ converts it.  An optional field defaults to None.
    """

    def __init__(self, optional: bool = True, many: bool = False):
        self.optional, self.many = optional, many

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            if self.optional:
                return None  # the field's default
            raise AttributeError(self.name)  # no default
        held = obj.__dict__[self.name]
        if self.many:
            return tuple(block.array for block in held)
        return held if held is None else held.array

    def __set__(self, obj, value):
        if not (self.many or value is None or isinstance(value, _HeldEdges)):
            try:
                value = _HeldEdges.of_bits(value)
            except DimensionError as exc:
                raise DimensionError(f"{self.name}: {exc}") from None
            except (TypeError, ValueError, OverflowError) as exc:  # NaN and inf pass
                raise DomainError(f"{self.name}: not a block of numbers: {exc}") from None
        obj.__dict__[self.name] = value


class _HeldBlocks:
    """Base of the dataclasses whose block fields are `_BlockField`s."""

    def held(self, name: str):
        """What field `name` stores: a block field's held edges (a tuple of
        them for a tuple of blocks), or None when it is not given; any other
        field's value."""
        return self.__dict__[name]

    def replace(self, **changes):
        """A copy with the fields in `changes` replaced.

        Each block it does not change is passed on as the held edges it is
        stored as, so the cost follows the changes.  `dataclasses.replace`
        gives the same object, but reads every block dense, which builds and
        caches its dense view, and scans it again.
        """
        kept = {f.name: self.held(f.name) for f in fields(self) if f.init}
        return replace(self, **{**kept, **changes})


class OwnershipNetwork:
    """An immutable node set, canonically ordered, and its share matrix kept
    in the stored form (`_HeldEdges`) of the canonical matrix.  No dense
    n x n copy is kept; `shares` builds the dense matrix on its first read.
    """

    def __init__(self, nodes, shares):
        ids = _node_ids(nodes)
        try:
            shares = np.asarray(shares, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"share matrix is not an array of numbers: {exc}") from None
        n = len(ids)
        if shares.shape != (n, n):
            raise DimensionError(
                f"share matrix shape {shares.shape} does not match {n} nodes"
            )
        order = np.argsort(np.asarray(ids, dtype=object))
        # one scan of the caller's matrix, not a copy of it (unless it is not
        # C-contiguous float, which asarray or the scan converts first)
        held = _HeldEdges.of_bits(shares)
        if not np.array_equal(order, np.arange(n)):
            # renumbered into canonical positions: the held edges of the
            # gathered matrix shares[np.ix_(order, order)]
            rank = np.argsort(order)
            held, _ = _HeldEdges.from_entries((n, n), rank[held.rows], rank[held.cols], held.vals)
        self._store(tuple(ids[k] for k in order), held)

    @classmethod
    def from_edges(cls, nodes, edges) -> "OwnershipNetwork":
        """Build from (owner, owned, share) triples; absent edges are zero.

        Costs O(nnz log nnz) (`_HeldEdges.from_entries`) and builds no dense
        matrix.  An explicit -0.0 is held, an explicit +0.0 is not.  A pair
        given twice is a DomainError that names the first repeat in input
        order, not a silent overwrite.
        """
        ids = sorted(_node_ids(nodes))
        index = {node: k for k, node in enumerate(ids)}
        n = len(ids)
        rows, cols, vals = [], [], []
        refused = None  # a malformed edge, raised once the edges before it are checked
        for edge in edges:
            try:
                row, col, share = _edge(edge, index)
            except CbvError as exc:
                refused = exc
                break
            rows.append(row)
            cols.append(col)
            vals.append(share)
        held, repeat = _HeldEdges.from_entries((n, n), rows, cols, vals)
        if repeat is not None:
            raise DomainError(f"edge ({ids[rows[repeat]]!r}, {ids[cols[repeat]]!r}) is given twice")
        if refused is not None:
            raise refused
        network = cls.__new__(cls)
        network._store(tuple(ids), held)
        return network

    def _store(self, nodes: tuple[NodeId, ...], held: _HeldEdges):
        self.nodes = nodes
        self._index = {node: k for k, node in enumerate(nodes)}
        self._ids = np.array(nodes, dtype=object)  # `partition` takes id tuples from it
        self._held = held  # the edges `partition` splits

    @property
    def shares(self) -> np.ndarray:
        """The dense share matrix in canonical order, read-only: built from the
        held edges on the first read and cached on them.  No library path
        reads it."""
        return self._held.array

    def index_of(self, node: NodeId) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise MembershipError(f"unknown node id {node!r}") from None

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"OwnershipNetwork({len(self.nodes)} nodes)"


def _id_collection(ids, what: str):
    """`ids`; a str or bytes, which iterates as one-character ids, is a DomainError."""
    if isinstance(ids, (str, bytes)):
        raise DomainError(f"{what} must be a collection of ids, not {ids!r}")
    return ids


def _node_ids(nodes) -> list[NodeId]:
    """The node ids as strings; a bare string is a DomainError, an empty or
    repeated id a MembershipError."""
    ids = [str(n) for n in _id_collection(nodes, "node ids")]
    if any(not n for n in ids):
        raise MembershipError("node ids must be non-empty strings")
    if len(set(ids)) != len(ids):
        raise MembershipError("node ids must be unique")
    return ids


def _edge(edge, index: dict[NodeId, int]) -> tuple[int, int, float]:
    """The row, column and share of one (owner, owned, share) triple."""
    try:
        owner, owned, share = edge
    except (TypeError, ValueError):
        raise DomainError(f"edge {edge!r} is not an (owner, owned, share) triple") from None
    try:
        row, col = index[str(owner)], index[str(owned)]
    except KeyError as exc:
        raise MembershipError(f"unknown node id {exc.args[0]!r}") from None
    try:
        return row, col, float(share)
    except (TypeError, ValueError):
        raise DomainError(
            f"share {share!r} of edge ({str(owner)!r}, {str(owned)!r}) is not a number"
        ) from None


@dataclass(frozen=True)
class Perimeter:
    """Subset of nodes being consolidated; the complement is derived."""

    members: frozenset[NodeId]

    def __init__(self, members):
        members = _id_collection(members, "perimeter members")
        object.__setattr__(self, "members", frozenset(str(m) for m in members))

    def __contains__(self, node: NodeId) -> bool:
        return node in self.members


@dataclass(frozen=True)
class BlockPartition(_HeldBlocks):
    """The three share blocks induced by a perimeter, with their id maps.

    Each block is stored as held edges (`held`) and reads as a read-only
    dense array, built on the first read.
    """

    p_ids: tuple[NodeId, ...]
    o_ids: tuple[NodeId, ...]
    o_pp: np.ndarray = _BlockField()
    o_po: np.ndarray = _BlockField()
    o_op: np.ndarray = _BlockField()


def partition(network: OwnershipNetwork, perimeter: Perimeter) -> BlockPartition:
    """Split the share matrix into the P/O blocks for a perimeter.

    The members are looked up in the network's index in one C loop, and one
    membership mask over the canonical node order yields both id tuples,
    already in canonical order, from the network's id array.  The network's
    held edges are split by side into each block's held edges, in O(n + nnz):
    every entry keeps its bits, -0.0 and NaN included.
    """
    in_p = np.zeros(len(network.nodes), dtype=bool)
    in_p[_positions(network._index, perimeter.members, "in network")] = True
    side = (~in_p).view(np.uint8)  # 0 for P, 1 for O
    (o_pp, o_po), (o_op, _) = network._held.split(side, side)
    return BlockPartition(
        p_ids=tuple(network._ids[in_p].tolist()),
        o_ids=tuple(network._ids[~in_p].tolist()),
        o_pp=o_pp, o_po=o_po, o_op=o_op,
    )


def _positions(index: dict[NodeId, int], ids, where: str) -> np.ndarray:
    """index[id] for each of the perimeter ids `ids`, looked up in one C loop.
    Ids not in `index` are a MembershipError that lists them, "perimeter ids
    not {where}", built only on failure."""
    try:
        return np.fromiter(map(index.__getitem__, ids), np.intp, len(ids))
    except KeyError:
        unknown = sorted(set(ids) - index.keys())
        raise MembershipError(f"perimeter ids not {where}: {_id_list(unknown)}") from None


def validate_network(network: OwnershipNetwork) -> ValidationReport:
    """Report share entries outside [0, 1], NaN included, and column sums above 1.

    Reads the held edges, in O(n + nnz): entries in row-major order, then
    columns in order, as a scan of the dense matrix finds them.
    """
    report = ValidationReport()
    held = network._held
    for k in np.flatnonzero(~((held.vals >= 0.0) & (held.vals <= 1.0))):  # NaN included
        report.add(
            "entry-range",
            "error",
            f"share {float(held.vals[k])!r} outside [0, 1]",
            location=f"{network.nodes[held.rows[k]]}->{network.nodes[held.cols[k]]}",
        )
    col_sums = held.col_sums()
    for j in np.nonzero(col_sums > 1.0 + COLUMN_SUM_SLACK)[0]:
        report.add(
            "column-sum",
            "error",
            f"ownership of {network.nodes[j]!r} sums to {float(col_sums[j])!r} > 1",
            location=network.nodes[j],
        )
    return report
