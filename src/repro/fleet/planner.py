"""Shard planning: cut a dataset into shard regions.

The paper's global kd-tree exists so each query touches only the ranks
whose regions can hold a neighbour; :class:`ShardPlanner` lifts the same
idea one level up, to a fleet of serving shards.  Three strategies:

* ``"tree"`` (default) — recursive median splits over the widest-variance
  dimension, exactly the shape of the top ``log2(n_shards)`` levels of the
  global kd-tree.  The resulting partition is expressed as a
  :class:`~repro.core.global_tree.GlobalTree` (one leaf per shard), which
  hands the router region boxes, the vectorised owner lookup and the exact
  box-distance pruning for free.
* ``"hash"`` — shard = ``id mod n_shards``.  Spreads load uniformly but
  carries no geometry, so the router cannot prune: every query fans out to
  every shard.
* ``"round_robin"`` — the i-th point ever assigned goes to shard
  ``i mod n_shards``.  Same non-spatial trade-off as ``"hash"``.

The non-spatial strategies are deliberate fallbacks (adversarial id
distributions, datasets with no usable geometry); the benchmark measures
the fan-out gap between them and the tree plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.global_tree import LEAF, GlobalTree, GlobalTreeNode

STRATEGIES = ("tree", "hash", "round_robin")


@dataclass
class ShardPlan:
    """A fixed assignment of points to shards, plus optional geometry.

    Attributes
    ----------
    n_shards:
        Number of shards.
    strategy:
        The :class:`ShardPlanner` strategy that produced the plan.
    assignment:
        ``(n,)`` shard index of every input point.
    region_tree:
        A :class:`~repro.core.global_tree.GlobalTree` with one leaf per
        shard (``"tree"`` strategy), or ``None`` when the plan has no
        geometry.
    """

    n_shards: int
    strategy: str
    assignment: np.ndarray
    region_tree: GlobalTree | None

    @property
    def supports_pruning(self) -> bool:
        """True when shard regions are boxes the router can prune against."""
        return self.region_tree is not None

    def owner_of(self, queries: np.ndarray) -> np.ndarray:
        """Shard whose region contains each query row (spatial plans only)."""
        if self.region_tree is None:
            raise ValueError(f"{self.strategy!r} plan has no regions; owner is undefined")
        return self.region_tree.owner_of(queries)

    def scatter_targets(
        self, queries: np.ndarray, radii: np.ndarray, owners: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat ``(rows, shards)`` scatter set of the second phase.

        Per query row, the non-owner shards whose region box intersects its
        radius ball (infinite radii intersect every shard), by the exact
        box-distance test the distributed query protocol uses for rank
        pruning.  Returned as two parallel row-major arrays (row ascending,
        shard ascending within a row) so the router can group rows by shard
        with one vectorised sort instead of a per-row Python loop.
        """
        if self.region_tree is None:
            raise ValueError(f"{self.strategy!r} plan has no regions; cannot prune")
        return self.region_tree.ranks_within_flat(queries, radii, owners)

    def assign(self, points: np.ndarray, ids: np.ndarray, n_assigned_before: int) -> np.ndarray:
        """Shard index for freshly inserted points.

        ``n_assigned_before`` is the total number of points the fleet ever
        assigned, which drives the ``"round_robin"`` cycle; the other
        strategies ignore it.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        ids = np.asarray(ids, dtype=np.int64)
        if self.strategy == "tree":
            return self.region_tree.owner_of(points)
        if self.strategy == "hash":
            return ids % self.n_shards
        return (n_assigned_before + np.arange(points.shape[0], dtype=np.int64)) % self.n_shards

    def shard_sizes(self) -> np.ndarray:
        """Points initially assigned to each shard."""
        return np.bincount(self.assignment, minlength=self.n_shards)


class ShardPlanner:
    """Cuts a dataset into ``n_shards`` shard regions.

    Parameters
    ----------
    n_shards:
        Number of shards to plan for (each must receive at least one point).
    strategy:
        ``"tree"``, ``"hash"`` or ``"round_robin"`` (see module docstring).
    """

    def __init__(self, n_shards: int, strategy: str = "tree") -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        self.n_shards = n_shards
        self.strategy = strategy

    def plan(self, points: np.ndarray, ids: np.ndarray | None = None) -> ShardPlan:
        """Assign every point to a shard; returns the immutable plan."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n = points.shape[0]
        if n < self.n_shards:
            raise ValueError(f"cannot cut {n} points into {self.n_shards} shards")
        ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
        if ids.shape[0] != n:
            raise ValueError("ids length must match number of points")
        if self.strategy == "hash":
            return ShardPlan(self.n_shards, "hash", ids % self.n_shards, None)
        if self.strategy == "round_robin":
            assignment = np.arange(n, dtype=np.int64) % self.n_shards
            return ShardPlan(self.n_shards, "round_robin", assignment, None)
        assignment, tree = self._plan_tree(points)
        return ShardPlan(self.n_shards, "tree", assignment, tree)

    # ------------------------------------------------------------------
    # Tree strategy
    # ------------------------------------------------------------------
    def _plan_tree(self, points: np.ndarray) -> Tuple[np.ndarray, GlobalTree]:
        """Recursive median cuts, flattened into a one-leaf-per-shard tree."""
        n, dims = points.shape
        if self.n_shards == 1:
            return np.zeros(n, dtype=np.int64), GlobalTree.single_rank(dims)
        assignment = np.zeros(n, dtype=np.int64)
        nodes: List[GlobalTreeNode] = [GlobalTreeNode()]
        # Work queue of (shard group, node index, point indices).
        groups: List[Tuple[List[int], int, np.ndarray]] = [
            (list(range(self.n_shards)), 0, np.arange(n))
        ]
        while groups:
            shard_group, node_idx, idx = groups.pop()
            if len(shard_group) == 1:
                nodes[node_idx].rank = shard_group[0]
                nodes[node_idx].split_dim = LEAF
                assignment[idx] = shard_group[0]
                continue
            if idx.size < len(shard_group):
                # Duplicate-heavy cuts can starve a subgroup before any
                # single region is degenerate; diagnose it accurately.
                raise ValueError(
                    "degenerate point distribution left a shard empty; "
                    "use fewer shards or a non-spatial strategy"
                )
            n_left = (len(shard_group) + 1) // 2
            target = n_left / len(shard_group)
            dim, split_val, left_mask = self._split(points[idx], target)
            left_idx = len(nodes)
            nodes.append(GlobalTreeNode())
            right_idx = len(nodes)
            nodes.append(GlobalTreeNode())
            nodes[node_idx].split_dim = dim
            nodes[node_idx].split_val = split_val
            nodes[node_idx].left = left_idx
            nodes[node_idx].right = right_idx
            groups.append((shard_group[:n_left], left_idx, idx[left_mask]))
            groups.append((shard_group[n_left:], right_idx, idx[~left_mask]))
        tree = GlobalTree.from_nodes(nodes, n_ranks=self.n_shards, dims=dims)
        if np.bincount(assignment, minlength=self.n_shards).min() == 0:
            raise ValueError(
                "degenerate point distribution left a shard empty; "
                "use fewer shards or a non-spatial strategy"
            )
        return assignment, tree

    @staticmethod
    def _split(sub: np.ndarray, target: float) -> Tuple[int, float, np.ndarray]:
        """One median cut: widest-variance dimension, ``target`` mass left.

        Points exactly on the split value go left — the same ``<=`` rule as
        :meth:`GlobalTree.owner_of`, so assignment and lookup agree.  Falls
        back through dimensions by descending variance when duplicates make
        a dimension uncuttable (both sides must stay non-empty).
        """
        m = sub.shape[0]
        order_by_var = np.argsort(-sub.var(axis=0), kind="stable")
        for dim in order_by_var:
            coords = sub[:, dim]
            uniq = np.unique(coords)
            if uniq.size < 2:
                continue
            pos = int(np.clip(round(target * m), 1, m - 1))
            split_val = float(np.partition(coords, pos - 1)[pos - 1])
            if split_val >= uniq[-1]:
                # Every point would go left; cut below the maximum instead.
                split_val = float(uniq[-2])
            left_mask = coords <= split_val
            return int(dim), split_val, left_mask
        raise ValueError("all points in this region identical along every dimension; cannot cut it")
