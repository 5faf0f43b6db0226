"""Snapshot persistence of a fitted distributed PANDA index.

A fitted :class:`~repro.core.panda.PandaKNN` is fully described by its
configuration, the cluster shape (rank count, modeled machine and thread
count), the global kd-tree arrays and one local kd-tree per rank — the
redistributed per-rank point sets are exactly the local trees' packed
points.  A snapshot is therefore a directory with one ``.npz`` per tree::

    snapshot/
        panda_meta.json        # version, config, cluster shape, machine
        global_tree.npz        # flat GlobalTree arrays
        local_tree_0000.npz    # per-rank KDTree snapshots (repro.kdtree.serialize)
        local_tree_0001.npz
        ...

Restoring rebuilds the in-memory index without re-running construction:
local trees and the global tree load byte-identically, so a restored index
answers every query batch byte-identically to the original.  Construction
phase counters are *not* persisted — a restored index starts with fresh
metrics (query counters accumulate normally; the modeled construction time
of a warm start is zero, which is the point of warm-starting).

The meta file is written last, and an overwrite removes the old one first:
a write cut short leaves a directory that :func:`read_snapshot` refuses
rather than one mixing trees of two indexes.
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
from repro.core.local_phase import LOCAL_TREE_KEY, local_tree_of
from repro.kdtree.serialize import config_from_dict, config_to_dict, load_kdtree, save_kdtree

_META_FILE = "panda_meta.json"
_GLOBAL_FILE = "global_tree.npz"

#: Version of the directory layout.  Per-rank tree files carry their own
#: :data:`repro.kdtree.serialize.SNAPSHOT_VERSION` inside, so kd-tree format
#: bumps do not move it.  Never reuse 2: older builds wrote it for a layout
#: packing every rank's tree into shared column stores.
SNAPSHOT_VERSION = 1

_GLOBAL_ARRAYS = ("split_dim", "split_val", "left", "right", "rank", "box_lo", "box_hi", "depth_of_rank")


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
def write_snapshot(index, path: str | Path) -> Path:
    """Write a fitted :class:`~repro.core.panda.PandaKNN` to directory ``path``."""
    if not index.is_fitted:
        raise RuntimeError("cannot snapshot an unfitted index; call fit(points) first")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    meta_path = root / _META_FILE
    meta_path.unlink(missing_ok=True)
    for rank in index.cluster.ranks:
        save_kdtree(local_tree_of(index.cluster, rank.rank), root / _local_tree_file(rank.rank))
    save_global_tree(index.global_tree, root / _GLOBAL_FILE)
    meta = {
        "version": SNAPSHOT_VERSION,
        "n_ranks": index.n_ranks,
        "threads_per_rank": index.cluster.threads_per_rank,
        "machine": machine_to_dict(index.cluster.machine),
        "config": panda_config_to_dict(index.config),
    }
    meta_path.write_text(json.dumps(meta, indent=2))
    return root


def read_snapshot(path: str | Path, machine: MachineSpec | None = None, executor=None):
    """Restore a :class:`~repro.core.panda.PandaKNN` from a snapshot directory.

    ``machine`` overrides the persisted machine description (e.g. to model
    the same index on different hardware); the algorithmic state is loaded
    unchanged either way.
    """
    from repro.cluster.simulator import Cluster
    from repro.core.panda import PandaKNN
    from repro.core.query_engine import DistributedQueryEngine

    root = Path(path)
    meta_path = root / _META_FILE
    if not meta_path.exists():
        raise FileNotFoundError(f"no PANDA snapshot at {root} (missing {_META_FILE})")
    meta = json.loads(meta_path.read_text())
    if meta.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot {root} has version {meta.get('version')!r}; "
            f"this build reads version {SNAPSHOT_VERSION}"
        )

    index = PandaKNN.__new__(PandaKNN)
    index.config = panda_config_from_dict(meta["config"])
    index.cluster = Cluster(
        n_ranks=int(meta["n_ranks"]),
        machine=machine or machine_from_dict(meta["machine"]),
        threads_per_rank=int(meta["threads_per_rank"]),
        executor=executor,
    )
    index.global_tree = load_global_tree(root / _GLOBAL_FILE)
    for rank in index.cluster.ranks:
        tree = load_kdtree(root / _local_tree_file(rank.rank))
        rank.store[LOCAL_TREE_KEY] = tree
        # The redistributed points are exactly the tree's packed points; the
        # rank holds them for introspection (load_imbalance, gather_points).
        rank.set_points(tree.points, tree.ids)
    index._engine = DistributedQueryEngine(index.cluster, index.global_tree, index.config)
    index._fitted = True
    return index


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
