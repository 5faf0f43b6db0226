"""Snapshot persistence for built kd-trees.

A built :class:`~repro.kdtree.tree.KDTree` is eight flat arrays plus its
construction config and stats, so a snapshot is simply those arrays written
to disk together with a JSON metadata blob.  Two interchangeable backends
implement the same round-trip contract (loaded arrays are byte-identical to
the saved ones, config and stats compare equal):

* ``"npz"`` — a single ``.npz`` file, the compact default;
* ``"columns"`` — a directory of two :class:`~repro.io.column_store.ColumnStore`
  datasets (``points`` for the row-aligned point data, ``nodes`` for the
  node-aligned structure arrays), matching the chunked one-array-per-property
  layout the paper uses for its science datasets.  This backend lets very
  large snapshots be read slab-wise by rank.

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
#: ``precision`` config key for a since-retired query tier; both loaders
#: read arrays by name, so those extras are simply never opened.
SNAPSHOT_VERSION = 3

#: Versions this build can read.
_COMPATIBLE_VERSIONS = (1, 2, 3)

#: Row-aligned arrays (one entry per point, in leaf-packed order).
_POINT_ARRAYS = ("ids",)
#: Node-aligned arrays (one entry per tree node).
_NODE_ARRAYS = ("split_dim", "split_val", "left", "right", "start", "count")

_META_FILE = "tree_meta.json"


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
        "dims": tree.dims if tree.n_points else int(tree.points.shape[1]),
        "n_points": tree.n_points,
        "n_nodes": tree.n_nodes,
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
# npz backend
# ----------------------------------------------------------------------
def _save_npz(tree: KDTree, path: Path) -> None:
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


def _load_npz(path: Path) -> KDTree:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        _check_version(meta, str(path))
        arrays = {name: data[name] for name in ("points",) + _POINT_ARRAYS + _NODE_ARRAYS}
    return KDTree(
        config=config_from_dict(meta["config"]),
        stats=stats_from_dict(meta["stats"]),
        **arrays,
    )


# ----------------------------------------------------------------------
# ColumnStore backend
# ----------------------------------------------------------------------
def _save_columns(tree: KDTree, root: Path, chunk_size: int) -> None:
    from repro.io.column_store import ColumnStore

    root.mkdir(parents=True, exist_ok=True)
    dims = int(tree.points.shape[1])
    point_cols = {f"dim{d}": tree.points[:, d] for d in range(dims)}
    point_cols["ids"] = tree.ids
    ColumnStore(root / "points", chunk_size=chunk_size).write(point_cols)
    ColumnStore(root / "nodes", chunk_size=chunk_size).write(
        {name: getattr(tree, name) for name in _NODE_ARRAYS}
    )
    (root / _META_FILE).write_text(json.dumps(_tree_meta(tree), indent=2))


def _load_columns(root: Path) -> KDTree:
    from repro.io.column_store import ColumnStore

    meta = json.loads((root / _META_FILE).read_text())
    _check_version(meta, str(root))
    dims = int(meta["dims"])
    points_store = ColumnStore(root / "points")
    if dims:
        points = points_store.read_points([f"dim{d}" for d in range(dims)])
    else:
        points = np.empty((int(meta["n_points"]), 0))
    ids = points_store.read_column("ids")
    nodes_store = ColumnStore(root / "nodes")
    node_arrays = {name: nodes_store.read_column(name) for name in _NODE_ARRAYS}
    return KDTree(
        points=points,
        ids=ids,
        config=config_from_dict(meta["config"]),
        stats=stats_from_dict(meta["stats"]),
        **node_arrays,
    )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def save_kdtree(tree: KDTree, path: str | Path, backend: str = "npz", chunk_size: int = 65536) -> Path:
    """Write ``tree`` to ``path``; returns the path actually written.

    Parameters
    ----------
    tree:
        A built kd-tree.
    path:
        Target file (``npz`` backend; a ``.npz`` suffix is appended when
        missing) or directory (``columns`` backend).
    backend:
        ``"npz"`` (single file) or ``"columns"`` (ColumnStore directory).
    chunk_size:
        Rows per chunk file for the ``columns`` backend.
    """
    path = Path(path)
    if backend == "npz":
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        _save_npz(tree, path)
        return path
    if backend == "columns":
        _save_columns(tree, path, chunk_size)
        return path
    raise ValueError(f"unknown snapshot backend {backend!r}; expected 'npz' or 'columns'")


def load_kdtree(path: str | Path) -> KDTree:
    """Load a kd-tree snapshot written by :func:`save_kdtree` (either backend)."""
    path = Path(path)
    if path.is_dir():
        if not (path / _META_FILE).exists():
            raise FileNotFoundError(f"no kd-tree snapshot at {path} (missing {_META_FILE})")
        return _load_columns(path)
    if not path.exists():
        raise FileNotFoundError(f"no kd-tree snapshot at {path}")
    return _load_npz(path)


def snapshot_nbytes(path: str | Path) -> int:
    """Total bytes of a snapshot on disk (file or directory tree)."""
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


def arrays_byte_identical(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two arrays match in dtype, shape and raw bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def tree_arrays(tree: KDTree) -> Tuple[str, ...]:
    """Names of the arrays that define a tree snapshot."""
    return ("points",) + _POINT_ARRAYS + _NODE_ARRAYS
