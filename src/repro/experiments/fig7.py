"""Figure 7 reproduction: single-node comparison with FLANN and ANN.

The paper compares kd-tree construction ("training") and querying
("classification") against FLANN and ANN on the ``*_thin`` datasets:

* construction: PANDA is 2.2x / 2.6x faster than FLANN / ANN on one core and
  more than an order of magnitude (39x / 59x) faster on 24 cores, because
  neither library parallelises construction;
* querying: PANDA is up to 48x faster than FLANN and 3x faster than ANN on
  one core (FLANN traverses ~7x more nodes than ANN and ~2x more than PANDA
  on cosmo_thin; ANN's tree is much deeper), and up to 22x faster than FLANN
  on 24 threads.  ANN is not parallelised at all.

The reproduction builds all three trees with their respective split rules
(implemented on the shared kd-tree kernel), measures the *structural*
quantities the paper explains the gap with (tree depth, node traversals,
distance computations), and models wall-clock with two machine profiles:
PANDA with the vectorised node model, FLANN/ANN with a scalar
(non-SIMD) model reflecting the reference library implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from repro.baselines.ann_like import AnnLikeKNN
from repro.baselines.flann_like import FlannLikeKNN
from repro.cluster.cost_model import CostModel
from repro.cluster.machine import MachineSpec
from repro.cluster.metrics import MetricsRegistry
from repro.datasets.registry import load_dataset
from repro.kdtree.build import build_kdtree
from repro.kdtree.query import QueryStats, batch_knn
from repro.kdtree.tree import KDTree, KDTreeConfig
from repro.perf.report import format_table

THIN_DATASETS = ("cosmo_thin", "plasma_thin", "dayabay_thin")


@dataclass
class LibraryResult:
    """Modeled times and structural statistics for one library on one dataset."""

    library: str
    construction_1t: float
    construction_24t: float | None
    query_1t: float
    query_24t: float | None
    tree_depth: int
    nodes_visited_per_query: float
    distance_computations_per_query: float


@dataclass
class Fig7Result:
    """Comparison results per dataset."""

    per_dataset: Dict[str, List[LibraryResult]]

    @property
    def text(self) -> str:
        """Formatted comparison tables (one per dataset)."""
        blocks = []
        for name, rows in self.per_dataset.items():
            table_rows = [
                [
                    r.library,
                    r.construction_1t,
                    r.construction_24t if r.construction_24t is not None else "-",
                    r.query_1t,
                    r.query_24t if r.query_24t is not None else "-",
                    r.tree_depth,
                    r.nodes_visited_per_query,
                ]
                for r in rows
            ]
            blocks.append(
                format_table(
                    ["library", "train 1t (s)", "train 24t (s)", "query 1t (s)", "query 24t (s)",
                     "depth", "nodes/query"],
                    table_rows,
                    title=f"Fig. 7 comparison — {name}",
                )
            )
        return "\n\n".join(blocks)

    def speedup_vs(self, dataset: str, other: str, phase: str = "query_1t") -> float:
        """PANDA speedup over ``other`` for the given phase on ``dataset``."""
        rows = {r.library: r for r in self.per_dataset[dataset]}
        panda = getattr(rows["panda"], phase)
        base = getattr(rows[other], phase)
        if panda <= 0:
            return float("inf")
        return base / panda


#: Per-node overhead (cycles worth of scalar work) charged to the reference
#: libraries for allocating and initialising pointer-based tree nodes.
REFERENCE_NODE_OVERHEAD_OPS = 220

#: Branch-misprediction penalty multiplier on the reference libraries'
#: traversal bookkeeping (the paper attributes part of PANDA's advantage to
#: "reduced branch misprediction and vectorization in binary search").
REFERENCE_BRANCH_PENALTY_OPS_PER_NODE = 24


def _reference_machine(machine: MachineSpec) -> MachineSpec:
    """Machine profile for the reference C++ libraries (FLANN / ANN).

    They run scalar distance loops (no explicit SIMD packing of leaves) and
    perform no software prefetching, so dependent node accesses pay the full
    memory latency with no SMT hiding.
    """
    return replace(
        machine,
        simd_width_doubles=1,
        memory_latency_s=machine.memory_latency_s * 2.0,
        smt_latency_hiding=0.0,
    )


def _model_times(
    tree: KDTree,
    qstats: QueryStats,
    machine: MachineSpec,
    threads_construction: int,
    threads_query: int,
    reference_profile: bool = False,
) -> tuple[float, float]:
    """Convert build + query counters into modeled seconds.

    When ``reference_profile`` is set the counters are augmented with the
    implementation characteristics of the reference libraries the paper
    describes: points (not just indices) are reorganised at every tree
    level, each tree node is individually allocated, and the traversal pays
    a branch-misprediction penalty.  These substitutions are documented in
    EXPERIMENTS.md; the structural quantities (depth, traversals, distance
    computations) are measured, not modeled.
    """
    registry = MetricsRegistry(1)
    for name, counters in tree.stats.phase_counters.items():
        with registry.phase(name):
            pass
        registry.rank(0).phase(name).merge(counters)
    if reference_profile:
        machine = _reference_machine(machine)
        build_counters = registry.rank(0).phase("reference_overheads")
        with registry.phase("reference_overheads"):
            pass
        depth = max(tree.depth(), 1)
        # Reorganise the full point array (read + write) at every level
        # instead of PANDA's index-only shuffle + single packing pass.
        build_counters.bytes_streamed += int(tree.points.nbytes) * 2 * depth
        build_counters.scalar_ops += tree.n_nodes * REFERENCE_NODE_OVERHEAD_OPS
        query_counters = registry.rank(0).phase("query")
        query_counters.scalar_ops += qstats.nodes_visited * REFERENCE_BRANCH_PENALTY_OPS_PER_NODE
    with registry.phase("query"):
        qstats.charge(registry.for_phase(0), tree.dims)
    model = CostModel(machine=machine, threads_per_rank=threads_construction)
    construction_phases = [p for p in registry.phase_order if p != "query"]
    construction = model.evaluate(registry, phases=construction_phases, threads=threads_construction).total_s
    query = model.evaluate(registry, phases=["query"], threads=threads_query).total_s
    return construction, query


def run_fig7(
    datasets: Sequence[str] = THIN_DATASETS,
    scale: float = 1.0,
    k: int = 5,
    seed: int = 0,
    machine: MachineSpec | None = None,
) -> Fig7Result:
    """Compare PANDA, FLANN-like and ANN-like trees on the thin datasets."""
    machine = machine or MachineSpec.edison()
    per_dataset: Dict[str, List[LibraryResult]] = {}
    for name in datasets:
        spec = load_dataset(name)
        n_points = max(2_000, int(round(spec.n_points * scale)))
        points = spec.points(seed=seed, n_points=n_points)
        queries = spec.queries(points, seed=seed)
        rows: List[LibraryResult] = []

        # PANDA local tree.
        panda_tree = build_kdtree(points, config=KDTreeConfig.panda(), threads=machine.cores_per_node)
        _, _, panda_stats = batch_knn(panda_tree, queries, k)
        c1, q1 = _model_times(panda_tree, panda_stats, machine, 1, 1)
        c24, q24 = _model_times(panda_tree, panda_stats, machine, machine.cores_per_node,
                                machine.cores_per_node)
        rows.append(
            LibraryResult(
                library="panda",
                construction_1t=c1,
                construction_24t=c24,
                query_1t=q1,
                query_24t=q24,
                tree_depth=panda_tree.depth(),
                nodes_visited_per_query=panda_stats.nodes_visited / max(panda_stats.queries, 1),
                distance_computations_per_query=panda_stats.distance_computations / max(panda_stats.queries, 1),
            )
        )

        # FLANN-like: construction is sequential; queries parallelise over
        # the same outer loop the paper uses.
        flann = FlannLikeKNN().fit(points)
        _, _, flann_stats = flann.query(queries, k)
        fc1, fq1 = _model_times(flann.tree, flann_stats, machine, 1, 1, reference_profile=True)
        _, fq24 = _model_times(flann.tree, flann_stats, machine, 1, machine.cores_per_node,
                               reference_profile=True)
        rows.append(
            LibraryResult(
                library="flann",
                construction_1t=fc1,
                construction_24t=fc1,  # construction cannot run in parallel
                query_1t=fq1,
                query_24t=fq24,
                tree_depth=flann.depth,
                nodes_visited_per_query=flann_stats.nodes_visited / max(flann_stats.queries, 1),
                distance_computations_per_query=flann_stats.distance_computations / max(flann_stats.queries, 1),
            )
        )

        # ANN-like: sequential construction and sequential querying.
        ann = AnnLikeKNN().fit(points)
        _, _, ann_stats = ann.query(queries, k)
        ac1, aq1 = _model_times(ann.tree, ann_stats, machine, 1, 1, reference_profile=True)
        rows.append(
            LibraryResult(
                library="ann",
                construction_1t=ac1,
                construction_24t=None,
                query_1t=aq1,
                query_24t=None,
                tree_depth=ann.depth,
                nodes_visited_per_query=ann_stats.nodes_visited / max(ann_stats.queries, 1),
                distance_computations_per_query=ann_stats.distance_computations / max(ann_stats.queries, 1),
            )
        )
        per_dataset[name] = rows
    return Fig7Result(per_dataset=per_dataset)
