"""Snapshot persistence of a fitted distributed PANDA index.

A fitted :class:`~repro.core.panda.PandaKNN` is fully described by its
configuration, the cluster shape (rank count, modeled machine and thread
count), the global kd-tree arrays and one local kd-tree per rank — the
redistributed per-rank point sets are exactly the local trees' packed
points.  A snapshot is therefore a directory::

    snapshot/
        panda_meta.json        # version, config, cluster shape, machine
        global_tree.npz        # flat GlobalTree arrays
        local_tree_0000.npz    # per-rank KDTree snapshots (npz backend)
        local_tree_0001.npz
        ...

Restoring rebuilds the in-memory index without re-running construction:
local trees and the global tree load byte-identically, so a restored index
answers every query batch byte-identically to the original.  Construction
phase counters are *not* persisted — a restored index starts with fresh
metrics (query counters accumulate normally; the modeled construction time
of a warm start is zero, which is the point of warm-starting).

Two layouts exist for the per-rank local trees:

* ``"files"`` (default, shown above) — one ``.npz`` per rank;
* ``"slabs"`` — every rank's tree packed into two shared
  :class:`~repro.io.column_store.ColumnStore` datasets (``local_points``
  for the row-aligned point data, ``local_nodes`` for the node-aligned
  structure arrays) with per-rank ``[start, end)`` bounds recorded in the
  meta file.  Each rank's tree is then a contiguous slab read through
  :meth:`~repro.io.column_store.ColumnStore.read_rank_slab`, which is what
  makes ``lazy=True`` restores cheap: a rank materialises only its own
  slab, on first touch.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro.cluster.machine import InterconnectSpec, MachineSpec
from repro.core.config import PandaConfig
from repro.core.global_tree import GlobalTree
from repro.core.local_phase import LOCAL_TREE_KEY, LazyLocalTree, local_tree_of
from repro.kdtree.serialize import (
    config_from_dict,
    config_to_dict,
    load_kdtree,
    save_kdtree,
    stats_from_dict,
    stats_to_dict,
)
from repro.kdtree.tree import KDTree

_META_FILE = "panda_meta.json"
_GLOBAL_FILE = "global_tree.npz"
_POINTS_STORE = "local_points"
_NODES_STORE = "local_nodes"

#: Version written by ``layout="files"`` snapshots.  The *directory* layout
#: is what this number versions — per-rank tree files carry their own
#: :data:`repro.kdtree.serialize.SNAPSHOT_VERSION` inside, so kd-tree format
#: bumps do not move it.
FILES_SNAPSHOT_VERSION = 1

#: Version written by ``layout="slabs"`` snapshots.  Distinct from
#: :data:`FILES_SNAPSHOT_VERSION` so readers that predate the slab layout
#: reject it with the designed version error instead of crashing on missing
#: ``local_tree_NNNN.npz`` files.
SLAB_SNAPSHOT_VERSION = 2

_GLOBAL_ARRAYS = ("split_dim", "split_val", "left", "right", "rank", "box_lo", "box_hi", "depth_of_rank")

#: Node-aligned kd-tree arrays packed into the ``slabs`` nodes store.
_NODE_COLUMNS = ("split_dim", "split_val", "left", "right", "start", "count")


def _local_tree_file(rank: int) -> str:
    return f"local_tree_{rank:04d}.npz"


# ----------------------------------------------------------------------
# Config / machine <-> JSON
# ----------------------------------------------------------------------
def panda_config_to_dict(config: PandaConfig) -> dict:
    """Plain-JSON representation of a :class:`PandaConfig`."""
    data = asdict(config)
    data["local"] = config_to_dict(config.local)
    return data


def panda_config_from_dict(data: dict) -> PandaConfig:
    """Inverse of :func:`panda_config_to_dict`."""
    data = dict(data)
    local = config_from_dict(data.pop("local"))
    return PandaConfig(local=local, **data)


def machine_to_dict(machine: MachineSpec) -> dict:
    """Plain-JSON representation of a :class:`MachineSpec`."""
    return asdict(machine)


def machine_from_dict(data: dict) -> MachineSpec:
    """Inverse of :func:`machine_to_dict`."""
    data = dict(data)
    interconnect = InterconnectSpec(**data.pop("interconnect"))
    return MachineSpec(interconnect=interconnect, **data)


# ----------------------------------------------------------------------
# GlobalTree <-> npz
# ----------------------------------------------------------------------
def save_global_tree(tree: GlobalTree, path: str | Path) -> None:
    """Write the flat global-tree arrays to an ``.npz`` file."""
    arrays = {name: getattr(tree, name) for name in _GLOBAL_ARRAYS}
    np.savez(Path(path), dims=np.int64(tree.dims), **arrays)


def load_global_tree(path: str | Path) -> GlobalTree:
    """Load a global tree written by :func:`save_global_tree`."""
    with np.load(Path(path)) as data:
        arrays = {name: data[name] for name in _GLOBAL_ARRAYS}
        dims = int(data["dims"])
    return GlobalTree(dims=dims, **arrays)


# ----------------------------------------------------------------------
# PandaKNN snapshot directory
# ----------------------------------------------------------------------
def write_snapshot(index, path: str | Path, layout: str = "files") -> Path:
    """Write a fitted :class:`~repro.core.panda.PandaKNN` to directory ``path``.

    ``layout="files"`` stores one ``.npz`` per rank; ``layout="slabs"``
    packs every rank's tree into two shared column stores read slab-wise on
    restore (see module docstring).
    """
    if not index.is_fitted:
        raise RuntimeError("cannot snapshot an unfitted index; call fit(points) first")
    if layout not in ("files", "slabs"):
        raise ValueError(f"unknown snapshot layout {layout!r}; expected 'files' or 'slabs'")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    meta = {
        "version": SLAB_SNAPSHOT_VERSION if layout == "slabs" else FILES_SNAPSHOT_VERSION,
        "layout": layout,
        "n_ranks": index.n_ranks,
        "threads_per_rank": index.cluster.threads_per_rank,
        "machine": machine_to_dict(index.cluster.machine),
        "config": panda_config_to_dict(index.config),
    }
    trees = [local_tree_of(index.cluster, rank.rank) for rank in index.cluster.ranks]
    if layout == "slabs":
        meta["ranks"] = _write_tree_slabs(trees, root)
    else:
        for rank, tree in zip(index.cluster.ranks, trees):
            save_kdtree(tree, root / _local_tree_file(rank.rank))
    (root / _META_FILE).write_text(json.dumps(meta, indent=2))
    save_global_tree(index.global_tree, root / _GLOBAL_FILE)
    return root


def _write_tree_slabs(trees, root: Path) -> list:
    """Pack per-rank trees into shared point/node column stores.

    Returns the per-rank meta entries (slab bounds, config, stats).
    """
    from repro.io.column_store import ColumnStore

    dims = max((t.points.shape[1] for t in trees), default=0)
    row_bounds = []
    node_bounds = []
    lo_rows = lo_nodes = 0
    for tree in trees:
        row_bounds.append((lo_rows, lo_rows + tree.n_points))
        node_bounds.append((lo_nodes, lo_nodes + tree.n_nodes))
        lo_rows += tree.n_points
        lo_nodes += tree.n_nodes
    point_cols = {
        f"dim{d}": np.concatenate([t.points[:, d] for t in trees] or [np.empty(0)])
        for d in range(dims)
    }
    point_cols["ids"] = np.concatenate([t.ids for t in trees] or [np.empty(0, dtype=np.int64)])
    ColumnStore(root / _POINTS_STORE).write(point_cols)
    ColumnStore(root / _NODES_STORE).write(
        {
            name: np.concatenate([getattr(t, name) for t in trees])
            for name in _NODE_COLUMNS
        }
    )
    return [
        {
            "rows": list(row_bounds[r]),
            "nodes": list(node_bounds[r]),
            "dims": int(trees[r].points.shape[1]),
            "config": config_to_dict(trees[r].config),
            "stats": stats_to_dict(trees[r].stats),
        }
        for r in range(len(trees))
    ]


def _slab_tree_loader(
    points_store, nodes_store, rank: int, n_ranks: int, meta: dict, row_bounds, node_bounds
):
    """Loader materialising rank ``rank``'s tree from the packed slabs.

    The stores and per-rank slab bounds are shared across all loaders,
    created once by the caller: the store caches its parsed manifest, so a
    restore over R ranks parses the two manifests once, not O(R) times.
    """
    entry = meta["ranks"][rank]

    def load() -> KDTree:
        dims = int(entry["dims"])
        n_rows = entry["rows"][1] - entry["rows"][0]
        if dims:
            points = points_store.read_rank_slab(
                [f"dim{d}" for d in range(dims)], rank, n_ranks, bounds=row_bounds
            )
        else:
            points = np.empty((n_rows, 0))
        # ids are read separately (column_stack would promote them to float).
        ids = points_store.read_column("ids", *row_bounds[rank]).astype(np.int64)
        node_arrays = {
            name: nodes_store.read_column(name, *node_bounds[rank]) for name in _NODE_COLUMNS
        }
        return KDTree(
            points=points,
            ids=ids,
            config=config_from_dict(entry["config"]),
            stats=stats_from_dict(entry["stats"]),
            **node_arrays,
        )

    return load


def read_snapshot(
    path: str | Path,
    machine: MachineSpec | None = None,
    lazy: bool = False,
    executor=None,
):
    """Restore a :class:`~repro.core.panda.PandaKNN` from a snapshot directory.

    ``machine`` overrides the persisted machine description (e.g. to model
    the same index on different hardware); the algorithmic state is loaded
    unchanged either way.  With ``lazy=True`` each rank's local tree is
    materialised on first touch instead of up front (see
    :meth:`repro.core.panda.PandaKNN.restore`).
    """
    from repro.cluster.simulator import Cluster
    from repro.core.panda import PandaKNN
    from repro.core.query_engine import DistributedQueryEngine

    root = Path(path)
    meta_path = root / _META_FILE
    if not meta_path.exists():
        raise FileNotFoundError(f"no PANDA snapshot at {root} (missing {_META_FILE})")
    meta = json.loads(meta_path.read_text())
    if meta.get("version") not in (FILES_SNAPSHOT_VERSION, SLAB_SNAPSHOT_VERSION):
        raise ValueError(
            f"snapshot {root} has version {meta.get('version')!r}; "
            f"this build reads versions {FILES_SNAPSHOT_VERSION} and {SLAB_SNAPSHOT_VERSION}"
        )
    layout = meta.get("layout", "files")

    index = PandaKNN.__new__(PandaKNN)
    index.config = panda_config_from_dict(meta["config"])
    n_ranks = int(meta["n_ranks"])
    index.cluster = Cluster(
        n_ranks=n_ranks,
        machine=machine or machine_from_dict(meta["machine"]),
        threads_per_rank=int(meta["threads_per_rank"]),
        executor=executor,
    )
    index.global_tree = load_global_tree(root / _GLOBAL_FILE)
    if layout == "slabs":
        from repro.io.column_store import ColumnStore

        row_bounds = [tuple(e["rows"]) for e in meta["ranks"]]
        node_bounds = [tuple(e["nodes"]) for e in meta["ranks"]]
        points_store = ColumnStore(root / _POINTS_STORE)
        nodes_store = ColumnStore(root / _NODES_STORE)
    for rank in index.cluster.ranks:
        if layout == "slabs":
            loader = _slab_tree_loader(
                points_store, nodes_store, rank.rank, n_ranks, meta, row_bounds, node_bounds
            )
        else:
            loader = _file_tree_loader(root, rank.rank)
        rank.store[LOCAL_TREE_KEY] = LazyLocalTree(loader)
        if not lazy:
            # Materialising also restores the rank's point set (the
            # redistributed points are exactly the tree's packed points) for
            # introspection helpers like load_imbalance and gather_points.
            local_tree_of(index.cluster, rank.rank)
    index._engine = DistributedQueryEngine(index.cluster, index.global_tree, index.config)
    index._fitted = True
    return index


def _file_tree_loader(root: Path, rank: int):
    """Loader materialising rank ``rank``'s tree from its ``.npz`` file."""

    def load() -> KDTree:
        return load_kdtree(root / _local_tree_file(rank))

    return load


# ----------------------------------------------------------------------
# Versioned snapshot directories (one per service rebuild)
# ----------------------------------------------------------------------
#: File naming the currently promoted version inside a versioned root.
CURRENT_POINTER = "CURRENT"

_VERSION_PREFIX = "v"
_VERSION_DIGITS = 4


def list_snapshot_versions(root: str | Path) -> List[Tuple[int, Path]]:
    """Every ``vNNNN`` version directory under ``root``, ascending.

    Returns ``(version_number, path)`` pairs; a missing or empty root yields
    an empty list.  Non-version entries (including the ``CURRENT`` pointer)
    are ignored.
    """
    root = Path(root)
    if not root.is_dir():
        return []
    versions: List[Tuple[int, Path]] = []
    for entry in root.iterdir():
        name = entry.name
        if entry.is_dir() and name.startswith(_VERSION_PREFIX) and name[1:].isdigit():
            versions.append((int(name[1:]), entry))
    return sorted(versions)


def allocate_version_dir(root: str | Path) -> Path:
    """Create and return the next ``vNNNN`` directory under ``root``.

    Version numbers grow one past the largest version currently on disk, so
    a *promoted* version is never shadowed by a later build of the same
    name while it exists.  A directory removed before promotion (never
    pointed at by ``CURRENT``, never observable through
    :func:`current_version_dir`) may have its number reused.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    versions = list_snapshot_versions(root)
    next_version = versions[-1][0] + 1 if versions else 1
    path = root / f"{_VERSION_PREFIX}{next_version:0{_VERSION_DIGITS}d}"
    path.mkdir()
    return path


def promote_version(root: str | Path, version_dir: str | Path) -> Path:
    """Atomically point ``root/CURRENT`` at ``version_dir``.

    The pointer is written to a temporary file and renamed over the old one
    (atomic on POSIX), so a reader never observes a half-written pointer:
    it sees either the previous version or the new one.
    """
    root = Path(root)
    version_dir = Path(version_dir)
    if version_dir.parent != root:
        raise ValueError(f"{version_dir} is not a version directory under {root}")
    if not version_dir.is_dir():
        raise FileNotFoundError(f"version directory {version_dir} does not exist")
    tmp = root / f".{CURRENT_POINTER}.tmp"
    tmp.write_text(version_dir.name + "\n")
    tmp.replace(root / CURRENT_POINTER)
    return version_dir


def current_version_dir(root: str | Path) -> Path | None:
    """The promoted version directory, or ``None`` when nothing is promoted."""
    root = Path(root)
    pointer = root / CURRENT_POINTER
    if not pointer.exists():
        return None
    name = pointer.read_text().strip()
    path = root / name
    if not path.is_dir():
        raise FileNotFoundError(f"{pointer} points at missing version {name!r}")
    return path
