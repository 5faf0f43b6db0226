"""Snapshot persistence for built kd-trees.

A built :class:`~repro.kdtree.tree.KDTree` is eight flat arrays plus its
construction config and stats, so a snapshot is one ``.npz`` file holding
those arrays together with a JSON metadata blob.  The round trip is exact:
loaded arrays are byte-identical to the saved ones, config and stats
compare equal.

Byte-identity matters: the vectorised query engine is deterministic over the
tree arrays, so a restored tree answers every query batch byte-identically
to the original — which is what makes warm-starting a service from a
snapshot indistinguishable from rebuilding.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Tuple

import numpy as np

from repro.cluster.metrics import PhaseCounters
from repro.kdtree.tree import KDTree, KDTreeConfig, TreeBuildStats

#: Snapshot format version (bump on incompatible layout changes).
#: Version 3 is the version-1 array set.  Version 2 additionally carried
#: float32 copies of the point columns (``blocks_coords32*``) and a
#: ``precision`` config key for a since-retired query tier; the loader
#: reads arrays by name, so those extras are simply never opened.
SNAPSHOT_VERSION = 3

#: Versions this build can read.
_COMPATIBLE_VERSIONS = (1, 2, 3)

#: Row-aligned arrays (one entry per point, in leaf-packed order).
_POINT_ARRAYS = ("ids",)
#: Node-aligned arrays (one entry per tree node).
_NODE_ARRAYS = ("split_dim", "split_val", "left", "right", "start", "count")


# ----------------------------------------------------------------------
# Config / stats <-> JSON
# ----------------------------------------------------------------------
def config_to_dict(config: KDTreeConfig) -> dict:
    """Plain-JSON representation of a :class:`KDTreeConfig`."""
    return asdict(config)


def config_from_dict(data: dict) -> KDTreeConfig:
    """Inverse of :func:`config_to_dict` (drops a v2 snapshot's ``precision`` key)."""
    return KDTreeConfig(**{key: value for key, value in data.items() if key != "precision"})


def stats_to_dict(stats: TreeBuildStats) -> dict:
    """Plain-JSON representation of a :class:`TreeBuildStats`."""
    return {
        "n_points": stats.n_points,
        "n_nodes": stats.n_nodes,
        "n_leaves": stats.n_leaves,
        "max_depth": stats.max_depth,
        "data_parallel_levels": stats.data_parallel_levels,
        "thread_parallel_subtrees": stats.thread_parallel_subtrees,
        "forced_leaves": stats.forced_leaves,
        "grafted_leaves": stats.grafted_leaves,
        "collapsed_nodes": stats.collapsed_nodes,
        "phase_counters": {
            name: counters.as_dict() for name, counters in stats.phase_counters.items()
        },
    }


def stats_from_dict(data: dict) -> TreeBuildStats:
    """Inverse of :func:`stats_to_dict`."""
    data = dict(data)
    phases = data.pop("phase_counters", {})
    stats = TreeBuildStats(**data)
    for name, counters in phases.items():
        stats.phase_counters[name] = PhaseCounters(**counters)
    return stats


def _tree_meta(tree: KDTree) -> dict:
    return {
        "version": SNAPSHOT_VERSION,
        "config": config_to_dict(tree.config),
        "stats": stats_to_dict(tree.stats),
    }


def _check_version(meta: dict, source: str) -> None:
    version = meta.get("version")
    if version not in _COMPATIBLE_VERSIONS:
        raise ValueError(
            f"snapshot {source} has version {version!r}; this build reads versions "
            f"{_COMPATIBLE_VERSIONS}"
        )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def save_kdtree(tree: KDTree, path: str | Path) -> Path:
    """Write ``tree`` to the ``.npz`` file ``path`` (the suffix is appended
    when missing); returns the path actually written."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(_tree_meta(tree)).encode(), dtype=np.uint8),
        points=tree.points,
        ids=tree.ids,
        split_dim=tree.split_dim,
        split_val=tree.split_val,
        left=tree.left,
        right=tree.right,
        start=tree.start,
        count=tree.count,
    )
    return path


def load_kdtree(path: str | Path) -> KDTree:
    """Load a kd-tree snapshot written by :func:`save_kdtree`."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no kd-tree snapshot file at {path}")
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        _check_version(meta, str(path))
        arrays = {name: data[name] for name in ("points",) + _POINT_ARRAYS + _NODE_ARRAYS}
    return KDTree(
        config=config_from_dict(meta["config"]),
        stats=stats_from_dict(meta["stats"]),
        **arrays,
    )


def snapshot_nbytes(path: str | Path) -> int:
    """Bytes of a snapshot file on disk."""
    return Path(path).stat().st_size


def arrays_byte_identical(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two arrays match in dtype, shape and raw bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def tree_arrays(tree: KDTree) -> Tuple[str, ...]:
    """Names of the arrays that define a tree snapshot."""
    return ("points",) + _POINT_ARRAYS + _NODE_ARRAYS
