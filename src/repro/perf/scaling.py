"""Strong-, weak- and thread-scaling runners over the PANDA index.

Each runner executes the full PANDA pipeline (global tree + redistribution +
local trees + distributed queries) for every resource count in a sweep and
reports, per point:

* the modeled construction and query times from the cost model (these are
  what reproduce the paper's cluster-scale figures), and
* the measured wall-clock of the simulation itself (useful as a sanity
  check; it does not correspond to the paper's hardware).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.cluster.machine import MachineSpec
from repro.core.breakdown import CONSTRUCTION_PHASES, default_cost_model
from repro.core.config import PandaConfig
from repro.core.panda import PandaKNN
from repro.core.query_engine import QUERY_PHASES
from repro.kdtree.build import build_kdtree
from repro.kdtree.query import batch_knn
from repro.perf.speedup import speedup_series
from repro.perf.timers import WallTimer


@dataclass
class ScalingPoint:
    """One point of a scaling sweep."""

    resources: int
    construction_time: float
    query_time: float
    wall_seconds: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class ScalingResult:
    """A full scaling sweep with convenience accessors."""

    label: str
    points: List[ScalingPoint] = field(default_factory=list)

    def resources(self) -> List[int]:
        """Resource counts (ranks, cores or threads) in sweep order."""
        return [p.resources for p in self.points]

    def construction_times(self) -> List[float]:
        """Modeled construction time per sweep point."""
        return [p.construction_time for p in self.points]

    def query_times(self) -> List[float]:
        """Modeled query time per sweep point."""
        return [p.query_time for p in self.points]

    def construction_speedup(self) -> np.ndarray:
        """Construction speedup relative to the first sweep point."""
        return speedup_series(self.construction_times())

    def query_speedup(self) -> np.ndarray:
        """Query speedup relative to the first sweep point."""
        return speedup_series(self.query_times())


def run_strong_scaling(
    points: np.ndarray,
    queries: np.ndarray,
    rank_counts: Sequence[int],
    k: int = 5,
    machine: MachineSpec | None = None,
    threads_per_rank: int | None = None,
    config: PandaConfig | None = None,
    label: str = "strong",
) -> ScalingResult:
    """Fixed problem size, increasing rank counts (paper Fig. 4 / Fig. 8c)."""
    if not rank_counts:
        raise ValueError("rank_counts must not be empty")
    machine = machine or MachineSpec.edison()
    result = ScalingResult(label=label)
    for n_ranks in rank_counts:
        config_p = config or PandaConfig.paper_defaults()
        with WallTimer() as timer:
            index = PandaKNN(
                n_ranks=n_ranks, machine=machine, threads_per_rank=threads_per_rank, config=config_p
            ).fit(points)
            report = index.query(queries, k=k)
        construction = index.construction_time().total_s
        query = index.query_time().total_s
        result.points.append(
            ScalingPoint(
                resources=n_ranks,
                construction_time=construction,
                query_time=query,
                wall_seconds=timer.elapsed,
                extra={
                    "load_imbalance": index.load_imbalance(),
                    "mean_remote_fanout": report.mean_remote_fanout,
                    "fraction_sent_remote": report.fraction_sent_remote,
                },
            )
        )
    return result


def run_weak_scaling(
    generator: Callable[[int, int], np.ndarray],
    points_per_rank: int,
    rank_counts: Sequence[int],
    query_fraction: float = 0.10,
    k: int = 5,
    machine: MachineSpec | None = None,
    threads_per_rank: int | None = None,
    config: PandaConfig | None = None,
    seed: int = 0,
    label: str = "weak",
) -> ScalingResult:
    """Constant points per rank, increasing rank counts (paper Fig. 5a).

    ``generator(n, seed)`` must return an ``(n, dims)`` array; the paper
    uses the cosmology family because it preserves density characteristics
    as it grows.
    """
    if points_per_rank <= 0:
        raise ValueError(f"points_per_rank must be positive, got {points_per_rank}")
    machine = machine or MachineSpec.edison()
    result = ScalingResult(label=label)
    rng = np.random.default_rng(seed)
    for n_ranks in rank_counts:
        n_points = points_per_rank * n_ranks
        points = np.asarray(generator(n_points, seed))
        n_queries = max(1, int(round(n_points * query_fraction)))
        q_idx = rng.choice(points.shape[0], size=min(n_queries, points.shape[0]), replace=False)
        queries = points[q_idx]
        config_p = config or PandaConfig.paper_defaults()
        with WallTimer() as timer:
            index = PandaKNN(
                n_ranks=n_ranks, machine=machine, threads_per_rank=threads_per_rank, config=config_p
            ).fit(points)
            index.query(queries, k=k)
        result.points.append(
            ScalingPoint(
                resources=n_ranks,
                construction_time=index.construction_time().total_s,
                query_time=index.query_time().total_s,
                wall_seconds=timer.elapsed,
                extra={"n_points": float(n_points), "n_queries": float(queries.shape[0])},
            )
        )
    return result


def run_thread_scaling(
    points: np.ndarray,
    queries: np.ndarray,
    thread_counts: Sequence[int],
    k: int = 5,
    machine: MachineSpec | None = None,
    tree_config=None,
    label: str = "threads",
) -> ScalingResult:
    """Single-node thread sweep over construction and querying (paper Fig. 6).

    The kd-tree kernels execute once per thread count (their phase split
    depends on the thread count) and the cost model converts the recorded
    work into modeled time at that thread count, including the SMT regime
    beyond the physical core count.
    """
    if not thread_counts:
        raise ValueError("thread_counts must not be empty")
    machine = machine or MachineSpec.edison()
    from repro.cluster.metrics import MetricsRegistry
    from repro.cluster.cost_model import CostModel
    from repro.kdtree.tree import KDTreeConfig

    tree_config = tree_config or KDTreeConfig.panda()
    result = ScalingResult(label=label)
    for threads in thread_counts:
        registry = MetricsRegistry(1)
        with WallTimer() as timer:
            tree = build_kdtree(points, config=tree_config, threads=threads)
            for name, counters in tree.stats.phase_counters.items():
                with registry.phase(name):
                    pass
                registry.rank(0).phase(name).merge(counters)
            with registry.phase("query_local_knn"):
                _, _, qstats = batch_knn(tree, queries, k)
                qstats.charge(registry.for_phase(0), tree.dims)
        model = CostModel(machine=machine, threads_per_rank=threads)
        construction = model.evaluate(
            registry, phases=[p for p in registry.phase_order if p != "query_local_knn"], threads=threads
        ).total_s
        query = model.evaluate(registry, phases=["query_local_knn"], threads=threads).total_s
        result.points.append(
            ScalingPoint(
                resources=threads,
                construction_time=construction,
                query_time=query,
                wall_seconds=timer.elapsed,
                extra={"tree_depth": float(tree.depth())},
            )
        )
    return result


def modeled_group_times(index: PandaKNN) -> Dict[str, float]:
    """Convenience: modeled construction vs query totals for a fitted index."""
    model = default_cost_model(index.cluster)
    groups = {
        "construction": list(CONSTRUCTION_PHASES),
        "query": list(QUERY_PHASES),
    }
    return model.evaluate_phase_groups(index.cluster.metrics, groups)
