"""Ablations of the design choices Section III-A1 motivates.

The paper quantifies several choices in prose; each gets its own ablation:

* **Split dimension** — using the max-variance dimension costs up to 18 %
  extra construction but improves query time by up to 43 % versus a simple
  max-range rule (``run_split_dimension_ablation``).
* **Bucket size** — larger buckets speed up construction but slow down
  querying; 32 is the paper's empirical sweet spot
  (``run_bucket_size_ablation``).
* **Histogram binning** — the 32-stride sub-interval SIMD scan beats a
  binary search by up to 42 % during local construction
  (``run_binning_ablation``).
* **Distribution strategy** — one global kd-tree versus independent local
  trees: local-only construction is cheaper but every query must visit all
  ranks and ``P*k`` candidates cross the network
  (``run_strategy_ablation``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

import numpy as np

from repro.baselines.local_only import LocalTreesKNN
from repro.cluster.cost_model import CostModel
from repro.cluster.machine import MachineSpec
from repro.cluster.metrics import MetricsRegistry
from repro.core.config import PandaConfig
from repro.core.panda import PandaKNN
from repro.datasets.registry import load_dataset
from repro.experiments.common import scaled_machine
from repro.kdtree.build import build_kdtree
from repro.kdtree.median import searchsorted_binning, subinterval_binning
from repro.kdtree.query import batch_knn
from repro.kdtree.tree import KDTreeConfig
from repro.perf.report import format_table


def _model_single_node(tree, qstats, machine: MachineSpec, threads: int) -> tuple[float, float]:
    """Modeled (construction, query) seconds for a single-node tree run."""
    registry = MetricsRegistry(1)
    for name, counters in tree.stats.phase_counters.items():
        with registry.phase(name):
            pass
        registry.rank(0).phase(name).merge(counters)
    with registry.phase("query"):
        qstats.charge(registry.for_phase(0), tree.dims)
    model = CostModel(machine=machine, threads_per_rank=threads)
    construction_phases = [p for p in registry.phase_order if p != "query"]
    construction = model.evaluate(registry, phases=construction_phases, threads=threads).total_s
    query = model.evaluate(registry, phases=["query"], threads=threads).total_s
    return construction, query


# ---------------------------------------------------------------------------
# Split-dimension choice
# ---------------------------------------------------------------------------
@dataclass
class SplitDimensionAblation:
    """Construction/query cost of variance vs max-extent split dimension."""

    per_dataset: Dict[str, Dict[str, Dict[str, float]]]

    @property
    def text(self) -> str:
        """Formatted comparison."""
        rows = []
        for name, strategies in self.per_dataset.items():
            for strategy, values in strategies.items():
                rows.append([name, strategy, values["construction"], values["query"],
                             values["nodes_per_query"]])
        return format_table(
            ["dataset", "split-dim rule", "construction (s)", "query (s)", "nodes/query"],
            rows,
            title="Ablation: split-dimension rule (Section III-A1)",
        )

    def construction_overhead(self, dataset: str) -> float:
        """Extra construction cost of the variance rule vs max-extent."""
        d = self.per_dataset[dataset]
        return d["variance"]["construction"] / d["max_extent"]["construction"] - 1.0

    def query_improvement(self, dataset: str) -> float:
        """Query-time improvement of the variance rule vs max-extent."""
        d = self.per_dataset[dataset]
        return 1.0 - d["variance"]["query"] / d["max_extent"]["query"]


def run_split_dimension_ablation(
    datasets: Sequence[str] = ("cosmo_thin", "dayabay_thin"),
    scale: float = 1.0,
    k: int = 5,
    seed: int = 0,
    machine: MachineSpec | None = None,
) -> SplitDimensionAblation:
    """Compare the variance split-dimension rule against max-extent."""
    machine = machine or MachineSpec.edison()
    per_dataset: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in datasets:
        spec = load_dataset(name)
        n_points = max(2_000, int(round(spec.n_points * scale)))
        points = spec.points(seed=seed, n_points=n_points)
        queries = spec.queries(points, seed=seed)
        per_dataset[name] = {}
        for strategy in ("variance", "max_extent"):
            config = KDTreeConfig(bucket_size=32, split_dim_strategy=strategy)
            tree = build_kdtree(points, config=config, threads=machine.cores_per_node)
            _, _, qstats = batch_knn(tree, queries, k)
            construction, query = _model_single_node(tree, qstats, machine, machine.cores_per_node)
            per_dataset[name][strategy] = {
                "construction": construction,
                "query": query,
                "nodes_per_query": qstats.nodes_visited / max(qstats.queries, 1),
                "depth": float(tree.depth()),
            }
    return SplitDimensionAblation(per_dataset=per_dataset)


# ---------------------------------------------------------------------------
# Bucket size
# ---------------------------------------------------------------------------
@dataclass
class BucketSizeAblation:
    """Construction/query cost as a function of the leaf bucket size."""

    bucket_sizes: List[int]
    construction: List[float]
    query: List[float]
    combined: List[float]

    @property
    def best_bucket_size(self) -> int:
        """Bucket size minimising construction + query time."""
        return self.bucket_sizes[int(np.argmin(self.combined))]

    @property
    def text(self) -> str:
        """Formatted sweep."""
        rows = [
            [b, c, q, t]
            for b, c, q, t in zip(self.bucket_sizes, self.construction, self.query, self.combined)
        ]
        return format_table(
            ["bucket_size", "construction (s)", "query (s)", "combined (s)"],
            rows,
            title="Ablation: leaf bucket size",
        )


def run_bucket_size_ablation(
    dataset: str = "cosmo_thin",
    bucket_sizes: Sequence[int] = (8, 16, 32, 64, 128, 256),
    scale: float = 1.0,
    k: int = 5,
    seed: int = 0,
    machine: MachineSpec | None = None,
) -> BucketSizeAblation:
    """Sweep the leaf bucket size (the paper finds 32 to be best)."""
    machine = machine or MachineSpec.edison()
    spec = load_dataset(dataset)
    n_points = max(2_000, int(round(spec.n_points * scale)))
    points = spec.points(seed=seed, n_points=n_points)
    queries = spec.queries(points, seed=seed)
    construction_times: List[float] = []
    query_times: List[float] = []
    for bucket in bucket_sizes:
        config = KDTreeConfig(bucket_size=bucket)
        tree = build_kdtree(points, config=config, threads=machine.cores_per_node)
        _, _, qstats = batch_knn(tree, queries, k)
        construction, query = _model_single_node(tree, qstats, machine, machine.cores_per_node)
        construction_times.append(construction)
        query_times.append(query)
    combined = [c + q for c, q in zip(construction_times, query_times)]
    return BucketSizeAblation(
        bucket_sizes=list(bucket_sizes),
        construction=construction_times,
        query=query_times,
        combined=combined,
    )


# ---------------------------------------------------------------------------
# Histogram binning
# ---------------------------------------------------------------------------
@dataclass
class BinningAblation:
    """Modeled binning cost: sub-interval scan vs binary search."""

    n_values: int
    n_intervals: int
    subinterval_ops: int
    searchsorted_ops: int
    subinterval_seconds: float
    searchsorted_seconds: float
    counts_identical: bool

    @property
    def improvement(self) -> float:
        """Fractional improvement of the sub-interval scan."""
        if self.searchsorted_seconds <= 0:
            return 0.0
        return 1.0 - self.subinterval_seconds / self.searchsorted_seconds

    @property
    def text(self) -> str:
        """Formatted comparison."""
        rows = [
            ["sub-interval (SIMD scan)", self.subinterval_ops, self.subinterval_seconds],
            ["binary search", self.searchsorted_ops, self.searchsorted_seconds],
        ]
        return format_table(
            ["binning", "modeled ops", "modeled seconds"],
            rows,
            title=f"Ablation: histogram binning ({self.n_values} values, "
                  f"{self.n_intervals} interval points)",
        )


def run_binning_ablation(
    dataset: str = "cosmo_thin",
    n_intervals: int = 1024,
    scale: float = 1.0,
    seed: int = 0,
    machine: MachineSpec | None = None,
) -> BinningAblation:
    """Compare the sub-interval histogram binning against binary search."""
    machine = machine or MachineSpec.edison()
    spec = load_dataset(dataset)
    n_points = max(2_000, int(round(spec.n_points * scale)))
    points = spec.points(seed=seed, n_points=n_points)
    values = points[:, 0]
    rng = np.random.default_rng(seed)
    intervals = np.unique(rng.choice(values, size=min(n_intervals, values.size), replace=False))

    counts_sub, ops_sub = subinterval_binning(values, intervals)
    counts_bin, ops_bin = searchsorted_binning(values, intervals)

    # Model: the binary search pays a branch-misprediction penalty per
    # comparison; the sub-interval scan is branch-free and SIMD-amortised.
    scan_rate = machine.scalar_rate(machine.cores_per_node) * machine.simd_width_doubles / 2.0
    branchy_rate = machine.scalar_rate(machine.cores_per_node) / 4.0
    sub_seconds = ops_sub / scan_rate
    bin_seconds = ops_bin / branchy_rate
    return BinningAblation(
        n_values=int(values.size),
        n_intervals=int(intervals.size),
        subinterval_ops=int(ops_sub),
        searchsorted_ops=int(ops_bin),
        subinterval_seconds=float(sub_seconds),
        searchsorted_seconds=float(bin_seconds),
        counts_identical=bool(np.array_equal(counts_sub, counts_bin)),
    )


# ---------------------------------------------------------------------------
# Distribution strategy
# ---------------------------------------------------------------------------
@dataclass
class StrategyAblation:
    """Global-tree PANDA versus independent per-rank trees."""

    panda_construction: float
    panda_query: float
    panda_query_bytes: int
    local_only_construction: float
    local_only_query: float
    local_only_query_bytes: int
    n_ranks: int
    k: int
    n_queries: int

    @property
    def query_traffic_ratio(self) -> float:
        """Local-only query traffic divided by PANDA's."""
        return self.local_only_query_bytes / max(self.panda_query_bytes, 1)

    @property
    def text(self) -> str:
        """Formatted comparison."""
        rows = [
            ["panda (global tree)", self.panda_construction, self.panda_query, self.panda_query_bytes],
            ["independent local trees", self.local_only_construction, self.local_only_query,
             self.local_only_query_bytes],
        ]
        return format_table(
            ["strategy", "construction (s)", "query (s)", "query traffic (bytes)"],
            rows,
            title=f"Ablation: distribution strategy (P={self.n_ranks}, k={self.k}, "
                  f"{self.n_queries} queries)",
        )


def run_strategy_ablation(
    dataset: str = "cosmo_small",
    n_ranks: int = 8,
    scale: float = 0.5,
    k: int = 5,
    seed: int = 0,
    machine: MachineSpec | None = None,
) -> StrategyAblation:
    """Compare the global-tree strategy against independent local trees."""
    machine = scaled_machine(machine)
    spec = load_dataset(dataset)
    n_points = max(4_000, int(round(spec.n_points * scale)))
    points = spec.points(seed=seed, n_points=n_points)
    queries = spec.queries(points, seed=seed)

    # PANDA with the global tree.
    config = PandaConfig.paper_defaults()
    index = PandaKNN(n_ranks=n_ranks, machine=machine, config=config).fit(points)
    index.query(queries, k=k)
    panda_construction = index.construction_time().total_s
    panda_query = index.query_time().total_s
    panda_bytes = sum(
        index.cluster.metrics.rank(r).phase(p).bytes_sent
        for r in range(n_ranks)
        for p in index.cluster.metrics.rank(r).phases
        if p.startswith("query_")
    )

    # Independent local trees (strategy 1).
    local = LocalTreesKNN(n_ranks=n_ranks, machine=machine, tree_config=config.local).fit(points)
    local.query(queries, k=k)
    model = CostModel(machine=machine, threads_per_rank=local.cluster.threads_per_rank)
    lo_construction = model.evaluate(local.cluster.metrics, phases=["lo_local_build"]).total_s
    lo_query = model.evaluate(
        local.cluster.metrics,
        phases=["lo_broadcast_queries", "lo_search_all_ranks", "lo_topk_reduce"],
    ).total_s
    lo_bytes = sum(
        local.cluster.metrics.rank(r).phase(p).bytes_sent
        for r in range(n_ranks)
        for p in local.cluster.metrics.rank(r).phases
        if p.startswith("lo_") and p != "lo_local_build"
    )
    return StrategyAblation(
        panda_construction=panda_construction,
        panda_query=panda_query,
        panda_query_bytes=int(panda_bytes),
        local_only_construction=lo_construction,
        local_only_query=lo_query,
        local_only_query_bytes=int(lo_bytes),
        n_ranks=n_ranks,
        k=k,
        n_queries=queries.shape[0],
    )
