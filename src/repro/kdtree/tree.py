"""Flat array representation of a kd-tree with packed leaf buckets.

The tree is stored structure-of-arrays style (split dimension, split value,
child indices, leaf slice descriptors) with all points permuted into leaf
order, mirroring the memory layout the paper engineers for SIMD-friendly
leaf scans and low-latency traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.metrics import PhaseCounters
from repro.kdtree.bucket import BucketStore

#: Sentinel child / split-dimension value marking a leaf node.
LEAF = -1


@dataclass(frozen=True)
class KDTreeConfig:
    """Construction parameters of a (local) kd-tree.

    Attributes
    ----------
    bucket_size:
        Maximum points per leaf bucket.  ``None`` (the default) sizes
        leaves by dimensionality when a tree is built: 32 up to 3-D, 128
        from 4-D on; the built tree's ``config`` holds the resolved int.
        The paper's 32 assumes a compiled leaf scan.  Here a 10-D search
        pays per visited node and leaf more than per distance, so bigger
        leaves win there.  ``PandaKNN(n_ranks=4).kneighbors`` queries/s at
        k = 8 (best of 2, 2-core AMD EPYC; "mixture" is the Gaussian
        mixture of ``benchmarks/e2e``, the others are registry datasets):

        ==================================  ======  ======  ======  ======
        data (points, queries)                  32      64     128     256
        ==================================  ======  ======  ======  ======
        mixture 3-D (500k, 30k)             114.8k  112.0k   87.6k   58.1k
        mixture 4-D (500k, 30k)              52.3k   58.3k   49.9k   35.4k
        mixture 4-D (100k, 2k)               24.1k   30.1k   34.9k   35.7k
        mixture 6-D (100k, 2k)                8.8k   12.6k   16.1k   17.7k
        mixture 10-D (100k, 2k)               3.3k    4.4k    6.8k    7.7k
        ``dayabay_large`` 10-D (60k, 300)     1.1k    1.7k    2.5k    3.4k
        ``all_mag`` 15-D (60k, 2k)           13.4k   16.5k   17.2k   15.1k
        mixture 15-D (100k, 2k)               1.3k    2.1k    2.9k    3.5k
        ==================================  ======  ======  ======  ======

        From 4-D on, 128 beats 32 on every row but the 30k-query 4-D one
        (5% slower, where 64 is best), and 256 loses on ``all_mag`` and
        that 4-D batch.  At 3-D, 32 wins.  An explicit int always wins
        over the rule.
    split_dim_strategy:
        One of ``repro.kdtree.splitters.SPLIT_DIM_STRATEGIES``.
    split_value_strategy:
        One of ``repro.kdtree.splitters.SPLIT_VALUE_STRATEGIES``.
    variance_sample_size:
        Points sampled to estimate per-dimension variance.
    median_samples:
        Interval points sampled for the histogram median (1024 locally).
    binning:
        Histogram binning variant (``"subinterval"`` or ``"searchsorted"``).
    data_parallel_factor:
        The breadth-first ("data parallel") phase continues until the
        frontier has ``threads * data_parallel_factor`` branches (the paper
        uses approximately 10 x the thread count).
    seed:
        Seed of the deterministic RNG used by the sampling rules.
    """

    bucket_size: Optional[int] = None
    split_dim_strategy: str = "variance"
    split_value_strategy: str = "histogram_median"
    variance_sample_size: int = 1024
    median_samples: int = 1024
    binning: str = "subinterval"
    data_parallel_factor: int = 10
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.bucket_size is not None and self.bucket_size <= 0:
            raise ValueError(f"bucket_size must be positive, got {self.bucket_size}")
        if self.variance_sample_size <= 0:
            raise ValueError(f"variance_sample_size must be positive, got {self.variance_sample_size}")
        if self.median_samples <= 0:
            raise ValueError(f"median_samples must be positive, got {self.median_samples}")
        if self.data_parallel_factor <= 0:
            raise ValueError(f"data_parallel_factor must be positive, got {self.data_parallel_factor}")

    @staticmethod
    def panda() -> "KDTreeConfig":
        """PANDA's local-tree configuration (Section III-A1), leaf size 32."""
        return KDTreeConfig(bucket_size=32)

    @staticmethod
    def flann_like() -> "KDTreeConfig":
        """FLANN-style configuration: variance dim, mean of first 100 points."""
        return KDTreeConfig(
            split_dim_strategy="variance",
            split_value_strategy="mean_first_100",
            variance_sample_size=100,
        )

    @staticmethod
    def ann_like() -> "KDTreeConfig":
        """ANN-style configuration: max-extent dim, midpoint split."""
        return KDTreeConfig(
            split_dim_strategy="max_extent",
            split_value_strategy="midpoint",
        )


@dataclass
class TreeBuildStats:
    """Statistics and phase counters produced while building one tree
    (or re-packing one, see :func:`repro.kdtree.repack.repack_kdtree`)."""

    n_points: int = 0
    n_nodes: int = 0
    n_leaves: int = 0
    max_depth: int = 0
    data_parallel_levels: int = 0
    thread_parallel_subtrees: int = 0
    forced_leaves: int = 0
    #: Structural edits of the re-pack that produced the tree (0 for a
    #: fresh build): leaves rebuilt as subtrees, nodes replaced by a child.
    grafted_leaves: int = 0
    collapsed_nodes: int = 0
    phase_counters: Dict[str, PhaseCounters] = field(default_factory=dict)

    def phase(self, name: str) -> PhaseCounters:
        """Counters for phase ``name`` (created on first use)."""
        if name not in self.phase_counters:
            self.phase_counters[name] = PhaseCounters()
        return self.phase_counters[name]

    def merge_into(self, sink: Dict[str, PhaseCounters]) -> None:
        """Accumulate this build's counters into an external phase map."""
        for name, counters in self.phase_counters.items():
            if name not in sink:
                sink[name] = PhaseCounters()
            sink[name].merge(counters)


class KDTree:
    """kd-tree over a fixed point set, ready for k-nearest-neighbour queries.

    Instances are produced by :func:`repro.kdtree.build.build_kdtree`; the
    constructor only wires together already-built arrays.
    """

    def __init__(
        self,
        points: np.ndarray,
        ids: np.ndarray,
        split_dim: np.ndarray,
        split_val: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        start: np.ndarray,
        count: np.ndarray,
        config: KDTreeConfig,
        stats: TreeBuildStats,
    ) -> None:
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.split_dim = np.asarray(split_dim, dtype=np.int32)
        self.split_val = np.asarray(split_val, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.start = np.asarray(start, dtype=np.int64)
        self.count = np.asarray(count, dtype=np.int64)
        self.config = config
        self.stats = stats
        if self.points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {self.points.shape}")
        if self.ids.shape[0] != self.points.shape[0]:
            raise ValueError("ids length must match number of points")
        n_nodes = self.split_dim.shape[0]
        for name, arr in (
            ("split_val", self.split_val),
            ("left", self.left),
            ("right", self.right),
            ("start", self.start),
            ("count", self.count),
        ):
            if arr.shape[0] != n_nodes:
                raise ValueError(f"{name} has {arr.shape[0]} entries, expected {n_nodes}")
        self._columns: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return int(self.points.shape[0])

    @property
    def dims(self) -> int:
        """Point dimensionality."""
        return int(self.points.shape[1]) if self.points.size else 0

    @property
    def n_nodes(self) -> int:
        """Total nodes (internal + leaves)."""
        return int(self.split_dim.shape[0])

    @property
    def n_leaves(self) -> int:
        """Number of leaf buckets."""
        return int(np.count_nonzero(self.split_dim == LEAF))

    @property
    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box of the indexed points (min, max)."""
        if not self.points.size:
            return np.empty(0), np.empty(0)
        # Reduced over the column layout: a row-major axis-0 reduction of a
        # narrow array costs ~80x more.
        return self.columns.min(axis=1), self.columns.max(axis=1)

    @property
    def columns(self) -> np.ndarray:
        """``(dims, n_points)`` C-contiguous transpose of the leaf-ordered points.

        The structure-of-arrays layout the leaf-scan kernels stream
        (:mod:`repro.kdtree.leafblocks`); derived on first query and cached.
        """
        if self._columns is None:
            self._columns = np.ascontiguousarray(self.points.T)
        return self._columns

    def is_leaf(self, node: int) -> bool:
        """True when ``node`` is a leaf bucket."""
        return self.split_dim[node] == LEAF

    def leaf_nodes(self) -> np.ndarray:
        """Indices of all leaf nodes."""
        return np.flatnonzero(self.split_dim == LEAF)

    def depth(self) -> int:
        """Maximum root-to-leaf depth (root at depth 0)."""
        if self.n_nodes == 0:
            return 0
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        stack: List[int] = [0]
        max_depth = 0
        while stack:
            node = stack.pop()
            d = int(depths[node])
            max_depth = max(max_depth, d)
            if not self.is_leaf(node):
                for child in (int(self.left[node]), int(self.right[node])):
                    depths[child] = d + 1
                    stack.append(child)
        return max_depth

    def leaf_sizes(self) -> np.ndarray:
        """Bucket sizes of every leaf."""
        leaves = self.leaf_nodes()
        return self.count[leaves].copy()

    def bucket_store(self) -> BucketStore:
        """View the packed leaf storage as a :class:`BucketStore`."""
        leaves = self.leaf_nodes()
        return BucketStore(self.points, self.ids, self.start[leaves], self.count[leaves])

    def leaf_points(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Packed (points, ids) views of leaf ``node``."""
        if not self.is_leaf(node):
            raise ValueError(f"node {node} is not a leaf")
        s = int(self.start[node])
        c = int(self.count[node])
        return self.points[s : s + c], self.ids[s : s + c]

    # ------------------------------------------------------------------
    # Snapshot persistence
    # ------------------------------------------------------------------
    def save(self, path):
        """Write this tree to ``path``; see :func:`repro.kdtree.serialize.save_kdtree`.

        Returns the path actually written (a ``.npz`` suffix is appended
        when missing).  The snapshot round-trips the node arrays
        byte-identically, so a loaded tree answers every query batch
        exactly as this one does.
        """
        from repro.kdtree.serialize import save_kdtree

        return save_kdtree(self, path)

    @staticmethod
    def load(path) -> "KDTree":
        """Load a tree snapshot written by :meth:`save`."""
        from repro.kdtree.serialize import load_kdtree

        return load_kdtree(path)

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the tree structure and points."""
        arrays = (
            self.points,
            self.ids,
            self.split_dim,
            self.split_val,
            self.left,
            self.right,
            self.start,
            self.count,
        )
        total = int(sum(a.nbytes for a in arrays))
        if self._columns is not None:
            total += self._columns.nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KDTree(n_points={self.n_points}, dims={self.dims}, n_nodes={self.n_nodes}, "
            f"n_leaves={self.n_leaves}, depth={self.depth()})"
        )
