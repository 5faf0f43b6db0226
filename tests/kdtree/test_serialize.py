"""Tests for kd-tree snapshot persistence (save/load round trips)."""

import json

import numpy as np
import pytest

from repro.io.column_store import ColumnStore
from repro.kdtree.build import build_kdtree
from repro.kdtree.query import batch_knn
from repro.kdtree.serialize import SNAPSHOT_VERSION, load_kdtree, save_kdtree, snapshot_nbytes
from repro.kdtree.tree import KDTree, KDTreeConfig
from repro.kdtree.validate import TreeInvariantError, check_snapshot_roundtrip

BACKENDS = ["npz", "columns"]


@pytest.fixture(scope="module")
def tree(small_points):
    return build_kdtree(small_points, config=KDTreeConfig(bucket_size=16))


class TestRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_byte_identical_arrays(self, tree, tmp_path, backend):
        path = save_kdtree(tree, tmp_path / "snap", backend=backend)
        restored = load_kdtree(path)
        check_snapshot_roundtrip(tree, restored)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_byte_identical_query_answers(self, tree, small_points, tmp_path, backend):
        rng = np.random.default_rng(3)
        queries = small_points[rng.choice(small_points.shape[0], 200, replace=False)]
        path = save_kdtree(tree, tmp_path / "snap", backend=backend)
        restored = load_kdtree(path)
        d0, i0, s0 = batch_knn(tree, queries, 7)
        d1, i1, s1 = batch_knn(restored, queries, 7)
        assert d0.tobytes() == d1.tobytes()
        assert i0.tobytes() == i1.tobytes()
        assert s0 == s1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_config_and_stats_survive(self, tmp_path, backend):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(500, 4))
        config = KDTreeConfig(bucket_size=8, split_value_strategy="exact_median", seed=99)
        original = build_kdtree(points, config=config, threads=4)
        restored = load_kdtree(save_kdtree(original, tmp_path / "s", backend=backend))
        assert restored.config == config
        assert restored.stats.max_depth == original.stats.max_depth
        assert restored.stats.forced_leaves == original.stats.forced_leaves
        for name, counters in original.stats.phase_counters.items():
            assert restored.stats.phase_counters[name].as_dict() == counters.as_dict()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_custom_ids_survive(self, tmp_path, backend):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(300, 2))
        ids = rng.permutation(10_000)[:300].astype(np.int64)
        original = build_kdtree(points, ids=ids)
        restored = load_kdtree(save_kdtree(original, tmp_path / "s", backend=backend))
        check_snapshot_roundtrip(original, restored)
        assert set(restored.ids) == set(ids)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_heavy_tree(self, tmp_path, backend):
        # Forced leaves (identical points) must survive the round trip.
        points = np.tile(np.array([[1.0, 2.0]]), (100, 1))
        original = build_kdtree(points, config=KDTreeConfig(bucket_size=4))
        restored = load_kdtree(save_kdtree(original, tmp_path / "s", backend=backend))
        check_snapshot_roundtrip(original, restored)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_tree(self, tmp_path, backend):
        original = build_kdtree(np.empty((0, 3)))
        restored = load_kdtree(save_kdtree(original, tmp_path / "s", backend=backend))
        check_snapshot_roundtrip(original, restored)
        assert restored.points.shape == (0, 3)

    def test_columns_backend_chunking(self, tree, tmp_path):
        # Small chunks: many chunk files, same bytes back.
        path = save_kdtree(tree, tmp_path / "chunked", backend="columns", chunk_size=64)
        restored = load_kdtree(path)
        check_snapshot_roundtrip(tree, restored)
        assert snapshot_nbytes(path) > 0


def _rewrite_as_version(path, version):
    """Rewrite a fresh snapshot into the shape an earlier build wrote.

    Version 1 is today's array set.  Version 2 also stored float32 copies
    of the point columns and a ``precision`` config key.
    """

    def old_meta(meta):
        assert meta["version"] == SNAPSHOT_VERSION == 3
        meta["version"] = version
        if version == 2:
            meta["config"]["precision"] = "float32"
        return meta

    if path.is_dir():
        meta_file = path / "tree_meta.json"
        meta_file.write_text(json.dumps(old_meta(json.loads(meta_file.read_text()))))
        if version == 2:
            store = ColumnStore(path / "points")
            columns = {name: store.read_column(name) for name in store.column_names()}
            for name in [name for name in columns if name.startswith("dim")]:
                columns[f"blocks_coords32_{name}"] = columns[name].astype(np.float32)
            store.write(columns)
    else:
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = old_meta(json.loads(bytes(arrays["meta"]).decode()))
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        if version == 2:
            arrays["blocks_coords32"] = np.ascontiguousarray(arrays["points"].T, dtype=np.float32)
        np.savez(path, **arrays)


class TestOlderVersions:
    """Snapshots written by earlier builds still load and answer identically."""

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_loads_and_answers_byte_identically(
        self, tree, small_points, tmp_path, backend, version
    ):
        path = save_kdtree(tree, tmp_path / "snap", backend=backend)
        _rewrite_as_version(path, version)
        restored = load_kdtree(path)
        check_snapshot_roundtrip(tree, restored)
        d0, i0, s0 = batch_knn(tree, small_points[:200], 7)
        d1, i1, s1 = batch_knn(restored, small_points[:200], 7)
        assert d0.tobytes() == d1.tobytes()
        assert i0.tobytes() == i1.tobytes()
        assert s0 == s1


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_kdtree(tmp_path / "absent.npz")

    def test_missing_directory_meta(self, tmp_path):
        (tmp_path / "notatree").mkdir()
        with pytest.raises(FileNotFoundError):
            load_kdtree(tmp_path / "notatree")

    def test_unknown_backend(self, tree, tmp_path):
        with pytest.raises(ValueError):
            save_kdtree(tree, tmp_path / "s", backend="hdf5")

    def test_version_mismatch_rejected(self, tree, tmp_path):
        path = save_kdtree(tree, tmp_path / "s", backend="columns")
        meta_file = path / "tree_meta.json"
        meta = json.loads(meta_file.read_text())
        meta["version"] = 999
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="version"):
            load_kdtree(path)


class TestRoundtripChecker:
    def test_detects_array_corruption(self, tree, tmp_path):
        path = save_kdtree(tree, tmp_path / "snap")
        restored = load_kdtree(path)
        restored.split_val[0] += 1e-9
        with pytest.raises(TreeInvariantError, match="split_val"):
            check_snapshot_roundtrip(tree, restored)

    def test_detects_dtype_drift(self, tree, tmp_path):
        restored = load_kdtree(save_kdtree(tree, tmp_path / "snap"))
        restored.ids = restored.ids.astype(np.int32)
        with pytest.raises(TreeInvariantError, match="ids"):
            check_snapshot_roundtrip(tree, restored)

    def test_detects_config_drift(self, tree, tmp_path):
        restored = load_kdtree(save_kdtree(tree, tmp_path / "snap"))
        restored.config = KDTreeConfig(bucket_size=tree.config.bucket_size + 1)
        with pytest.raises(TreeInvariantError, match="config"):
            check_snapshot_roundtrip(tree, restored)
