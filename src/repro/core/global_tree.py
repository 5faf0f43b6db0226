"""The global kd-tree: spatial partitioning of the dataset across ranks.

The top ``log2(P)`` levels of PANDA's distributed kd-tree assign each rank a
non-overlapping axis-aligned region of the domain.  Every rank keeps a copy
of this (small) tree so that, during querying, it can

* find the *owner* rank of any query point (step 1 of the protocol), and
* identify which other ranks' regions intersect the ball of radius r'
  around a query (step 3), which bounds where remote neighbours can live.

Both lookups are vectorised over query batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

#: Sentinel marking a leaf of the global tree.
LEAF = -1


@dataclass
class GlobalTreeNode:
    """One node of the global kd-tree (used during construction only)."""

    split_dim: int = LEAF
    split_val: float = np.nan
    left: int = LEAF
    right: int = LEAF
    rank: int = LEAF


@dataclass
class GlobalTree:
    """Flattened global kd-tree shared (conceptually) by every rank.

    Attributes
    ----------
    split_dim, split_val, left, right, rank:
        Flat node arrays; ``rank`` is the owning rank at leaf nodes and -1
        elsewhere.
    box_lo, box_hi:
        ``(P, dims)`` per-rank domain bounding boxes (half-open in the tree
        sense; unbounded sides are +-inf).
    dims:
        Dimensionality of the domain.
    """

    split_dim: np.ndarray
    split_val: np.ndarray
    left: np.ndarray
    right: np.ndarray
    rank: np.ndarray
    box_lo: np.ndarray
    box_hi: np.ndarray
    dims: int
    depth_of_rank: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_nodes(nodes: List[GlobalTreeNode], n_ranks: int, dims: int) -> "GlobalTree":
        """Flatten a node list (root at index 0) into array form."""
        split_dim = np.array([n.split_dim for n in nodes], dtype=np.int32)
        split_val = np.array([n.split_val for n in nodes], dtype=np.float64)
        left = np.array([n.left for n in nodes], dtype=np.int32)
        right = np.array([n.right for n in nodes], dtype=np.int32)
        rank = np.array([n.rank for n in nodes], dtype=np.int32)

        box_lo = np.full((n_ranks, dims), -np.inf, dtype=np.float64)
        box_hi = np.full((n_ranks, dims), np.inf, dtype=np.float64)
        depth_of_rank = np.zeros(n_ranks, dtype=np.int64)
        # Walk the tree accumulating half-space constraints per rank region.
        stack: List[Tuple[int, np.ndarray, np.ndarray, int]] = [
            (0, np.full(dims, -np.inf), np.full(dims, np.inf), 0)
        ]
        while stack:
            node, lo, hi, depth = stack.pop()
            if split_dim[node] == LEAF:
                owner = int(rank[node])
                box_lo[owner] = lo
                box_hi[owner] = hi
                depth_of_rank[owner] = depth
                continue
            dim = int(split_dim[node])
            val = float(split_val[node])
            lo_left, hi_left = lo.copy(), hi.copy()
            hi_left[dim] = min(hi_left[dim], val)
            lo_right, hi_right = lo.copy(), hi.copy()
            lo_right[dim] = max(lo_right[dim], val)
            stack.append((int(left[node]), lo_left, hi_left, depth + 1))
            stack.append((int(right[node]), lo_right, hi_right, depth + 1))
        return GlobalTree(
            split_dim=split_dim,
            split_val=split_val,
            left=left,
            right=right,
            rank=rank,
            box_lo=box_lo,
            box_hi=box_hi,
            dims=dims,
            depth_of_rank=depth_of_rank,
        )

    @staticmethod
    def single_rank(dims: int) -> "GlobalTree":
        """Degenerate global tree for a single-rank cluster."""
        return GlobalTree.from_nodes([GlobalTreeNode(rank=0)], n_ranks=1, dims=dims)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        """Number of rank regions (leaves)."""
        return int(self.box_lo.shape[0])

    @property
    def n_nodes(self) -> int:
        """Total nodes in the global tree."""
        return int(self.split_dim.shape[0])

    def depth(self) -> int:
        """Maximum leaf depth (log2(P) for a power-of-two rank count)."""
        return int(self.depth_of_rank.max()) if self.depth_of_rank.size else 0

    def nbytes(self) -> int:
        """Memory footprint of the structure every rank replicates."""
        arrays = (self.split_dim, self.split_val, self.left, self.right, self.rank,
                  self.box_lo, self.box_hi)
        return int(sum(a.nbytes for a in arrays))

    # ------------------------------------------------------------------
    # Lookups (vectorised over query batches)
    # ------------------------------------------------------------------
    def owner_of(self, queries: np.ndarray) -> np.ndarray:
        """Rank owning the region containing each query point.

        ``queries`` is ``(n, dims)``; returns an ``(n,)`` int array.  Points
        exactly on a splitting plane go left, matching the construction's
        ``<=`` rule.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n = queries.shape[0]
        nodes = np.zeros(n, dtype=np.int64)
        while True:
            dims = self.split_dim[nodes]
            active = dims != LEAF
            if not np.any(active):
                break
            idx = np.flatnonzero(active)
            active_nodes = nodes[idx]
            d = self.split_dim[active_nodes].astype(np.int64)
            vals = self.split_val[active_nodes]
            coords = queries[idx, d]
            go_left = coords <= vals
            nxt = np.where(go_left, self.left[active_nodes], self.right[active_nodes])
            nodes[idx] = nxt
        return self.rank[nodes].astype(np.int64)

    def box_distance_sq(self, query: np.ndarray) -> np.ndarray:
        """Squared distance from ``query`` to every rank's bounding box."""
        query = np.asarray(query, dtype=np.float64).ravel()
        below = np.clip(self.box_lo - query[None, :], 0.0, None)
        above = np.clip(query[None, :] - self.box_hi, 0.0, None)
        delta = np.where(below > 0.0, below, above)
        delta = np.where(np.isfinite(delta), delta, 0.0)
        return np.einsum("ij,ij->i", delta, delta)

    def ranks_within(self, query: np.ndarray, radius: float, exclude: int | None = None) -> np.ndarray:
        """Ranks whose region intersects the ball of ``radius`` around ``query``.

        This implements step 3 of the query protocol: only these ranks can
        possibly own a neighbour closer than the current r' bound.
        ``exclude`` removes the owner rank from the result.
        """
        if not np.isfinite(radius):
            ranks = np.arange(self.n_ranks, dtype=np.int64)
        else:
            dist_sq = self.box_distance_sq(query)
            ranks = np.flatnonzero(dist_sq <= radius * radius).astype(np.int64)
        if exclude is not None:
            ranks = ranks[ranks != exclude]
        return ranks

    def _ranks_within_mask(
        self, queries: np.ndarray, radii: np.ndarray, owners: np.ndarray
    ) -> np.ndarray:
        """``(n, P)`` boolean mask of ranks whose box intersects each query's
        r' ball, with the owner rank zeroed out."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        radii = np.asarray(radii, dtype=np.float64).ravel()
        owners = np.asarray(owners, dtype=np.int64).ravel()
        n = queries.shape[0]
        if radii.shape[0] != n or owners.shape[0] != n:
            raise ValueError("queries, radii and owners must have matching lengths")
        # Distance from every query to every rank box: (n, P).
        below = np.clip(self.box_lo[None, :, :] - queries[:, None, :], 0.0, None)
        above = np.clip(queries[:, None, :] - self.box_hi[None, :, :], 0.0, None)
        delta = np.where(below > 0.0, below, above)
        delta = np.where(np.isfinite(delta), delta, 0.0)
        dist_sq = np.einsum("npd,npd->np", delta, delta)
        radius_sq = np.where(np.isfinite(radii), radii * radii, np.inf)
        mask = dist_sq <= radius_sq[:, None]
        mask[np.arange(n), owners] = False
        return mask

    def ranks_within_flat(
        self, queries: np.ndarray, radii: np.ndarray, owners: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`ranks_within`: flat ``(rows, ranks)`` pairs.

        Every pair of a query row and a rank (owner excluded) whose box
        intersects the row's r' ball; infinite radii (owner found fewer
        than k local neighbours) intersect every rank.  Both arrays are
        row-major (row ascending, rank ascending within a row), so callers
        group by rank with one stable argsort and no per-row Python work.
        """
        mask = self._ranks_within_mask(queries, radii, owners)
        rows, ranks = np.nonzero(mask)
        return rows.astype(np.int64), ranks.astype(np.int64)
