"""Seeded synthetic inputs for the benchmark.

Every generator takes a `numpy.random.Generator` or a seed and is a pure
function of it: the same seed gives bit-identical arrays, and packages
written from them are byte-identical.

Ownership networks are sparse the way real ownership data is (Vitali,
Glattfelder & Battiston 2011): each node has about five owners, share
columns sum to at most 0.9 (the rest is held by dispersed holders that are
not modelled), and shares within a column are skewed, so a fair fraction of
nodes have a majority owner.  True values solve v = b + O v exactly with a
sparse LU factorisation, so they are known independently of the library.

Liability networks follow Eisenberg & Noe (2001) with two seniority classes.
Resources are about 5% of dues and defaults cost 10% of the shortfall,
which puts about 40% of nodes in default and makes the Picard iteration of
the clearing map take 120-200 sweeps at 800 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

OWNERS_PER_NODE = 5
MAX_COLUMN_SUM = 0.9
GROWTH_RANGE = (0.95, 1.15)  # next period's base, as a multiple of this one's
CREDITORS_PER_CLASS = 32
RESOURCE_SHARE = 0.05  # resources as a share of dues
DEFAULT_COST = 0.1  # gamma: share of the shortfall lost on default


def node_ids(n: int) -> tuple[str, ...]:
    """Zero-padded ids, so lexicographic (canonical) order is index order."""
    width = len(str(n - 1))
    return tuple(f"n{k:0{width}d}" for k in range(n))


@dataclass(frozen=True)
class Ownership:
    """A share matrix S (S[i, j] = share of j held by i) with its values."""

    ids: tuple[str, ...]
    shares: sp.csr_matrix
    b: np.ndarray
    v: np.ndarray

    @property
    def n(self) -> int:
        return len(self.ids)

    def dense(self) -> np.ndarray:
        return self.shares.toarray()


def _share_columns(rng, n: int):
    rows, cols, vals = [], [], []
    for j in range(n):
        k = min(n - 1, 1 + int(rng.poisson(OWNERS_PER_NODE - 1)))
        picked = rng.choice(n - 1, size=k, replace=False)
        picked[picked >= j] += 1  # skip the diagonal
        total = rng.uniform(0.3, MAX_COLUMN_SUM)
        split = rng.dirichlet(np.full(k, 0.5)) * total
        rows.append(picked)
        cols.append(np.full(k, j))
        vals.append(split)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def ownership(n: int, rng) -> Ownership:
    """Sparse ownership network with true values v = (I - O)^-1 b."""
    rows, cols, vals = _share_columns(rng, n)
    shares = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    shares.sum_duplicates()
    b = rng.lognormal(mean=3.0, sigma=1.0, size=n)
    v = spsolve(sp.identity(n, format="csc") - shares.tocsc(), b)
    return Ownership(ids=node_ids(n), shares=shares, b=b, v=np.asarray(v))


def regrown(net: Ownership, rng) -> Ownership:
    """The next period: same shares, bases grown node by node."""
    b = net.b * rng.uniform(*GROWTH_RANGE, size=net.n)
    v = spsolve(sp.identity(net.n, format="csc") - net.shares.tocsc(), b)
    return Ownership(ids=net.ids, shares=net.shares, b=b, v=np.asarray(v))


def perimeter_mask(n: int, size: int, rng) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=size, replace=False)] = True
    return mask


@dataclass(frozen=True)
class Liabilities:
    """Two seniority classes of nominal liabilities L[k][i, j] (i owes j)."""

    ids: tuple[str, ...]
    classes: tuple[np.ndarray, ...]
    resources: np.ndarray
    gamma: float

    @property
    def dues(self) -> np.ndarray:
        return np.stack([mat.sum(axis=1) for mat in self.classes])


def liabilities(n: int, rng) -> Liabilities:
    """Two-class liability network in the default-cascade regime.

    Each node owes a lognormal total to CREDITORS_PER_CLASS random
    counterparties in each class.  Many creditors per node keep the inflows
    of different nodes alike, so the number of clearing sweeps varies little
    from seed to seed.
    """
    classes = []
    for _ in range(2):
        mat = np.zeros((n, n))
        totals = rng.lognormal(mean=2.0, sigma=0.3, size=n) * CREDITORS_PER_CLASS
        for i in range(n):
            picked = rng.choice(n - 1, size=min(CREDITORS_PER_CLASS, n - 1), replace=False)
            picked[picked >= i] += 1
            weights = rng.lognormal(mean=0.0, sigma=0.3, size=picked.size)
            mat[i, picked] = totals[i] * weights / weights.sum()
        classes.append(mat)
    dues = sum(mat.sum(axis=1) for mat in classes)
    resources = RESOURCE_SHARE * dues * rng.uniform(0.5, 1.5, size=n)
    return Liabilities(ids=node_ids(n), classes=tuple(classes),
                       resources=resources, gamma=DEFAULT_COST)
