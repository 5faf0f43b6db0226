"""Tests for kd-tree snapshot persistence (save/load round trips)."""

import json

import numpy as np
import pytest

from repro.kdtree.build import build_kdtree
from repro.kdtree.query import batch_knn
from repro.kdtree.serialize import SNAPSHOT_VERSION, load_kdtree, save_kdtree
from repro.kdtree.tree import KDTree, KDTreeConfig
from repro.kdtree.validate import TreeInvariantError, check_snapshot_roundtrip


@pytest.fixture(scope="module")
def tree(small_points):
    return build_kdtree(small_points, config=KDTreeConfig(bucket_size=16))


class TestRoundTrip:
    def test_byte_identical_arrays(self, tree, tmp_path):
        path = save_kdtree(tree, tmp_path / "snap")
        restored = load_kdtree(path)
        check_snapshot_roundtrip(tree, restored)

    def test_byte_identical_query_answers(self, tree, small_points, tmp_path):
        rng = np.random.default_rng(3)
        queries = small_points[rng.choice(small_points.shape[0], 200, replace=False)]
        path = save_kdtree(tree, tmp_path / "snap")
        restored = load_kdtree(path)
        d0, i0, s0 = batch_knn(tree, queries, 7)
        d1, i1, s1 = batch_knn(restored, queries, 7)
        assert d0.tobytes() == d1.tobytes()
        assert i0.tobytes() == i1.tobytes()
        assert s0 == s1

    def test_config_and_stats_survive(self, tmp_path):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(500, 4))
        config = KDTreeConfig(bucket_size=8, split_value_strategy="exact_median", seed=99)
        original = build_kdtree(points, config=config, threads=4)
        restored = load_kdtree(save_kdtree(original, tmp_path / "s"))
        assert restored.config == config
        assert restored.stats.max_depth == original.stats.max_depth
        assert restored.stats.forced_leaves == original.stats.forced_leaves
        for name, counters in original.stats.phase_counters.items():
            assert restored.stats.phase_counters[name].as_dict() == counters.as_dict()

    def test_custom_ids_survive(self, tmp_path):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(300, 2))
        ids = rng.permutation(10_000)[:300].astype(np.int64)
        original = build_kdtree(points, ids=ids)
        restored = load_kdtree(save_kdtree(original, tmp_path / "s"))
        check_snapshot_roundtrip(original, restored)
        assert set(restored.ids) == set(ids)

    def test_duplicate_heavy_tree(self, tmp_path):
        # Forced leaves (identical points) must survive the round trip.
        points = np.tile(np.array([[1.0, 2.0]]), (100, 1))
        original = build_kdtree(points, config=KDTreeConfig(bucket_size=4))
        restored = load_kdtree(save_kdtree(original, tmp_path / "s"))
        check_snapshot_roundtrip(original, restored)

    def test_empty_tree(self, tmp_path):
        original = build_kdtree(np.empty((0, 3)))
        restored = load_kdtree(save_kdtree(original, tmp_path / "s"))
        check_snapshot_roundtrip(original, restored)
        assert restored.points.shape == (0, 3)

    @pytest.mark.parametrize("dims", [1, 2, 3, 5, 10])
    def test_every_dimensionality_round_trips(self, dims, tmp_path):
        # The default leaf size is resolved from the dimensionality at
        # build time; the restored tree keeps it rather than re-resolving.
        rng = np.random.default_rng(dims)
        points = rng.normal(size=(1_500, dims))
        original = build_kdtree(points)
        restored = load_kdtree(save_kdtree(original, tmp_path / "s"))
        check_snapshot_roundtrip(original, restored)
        assert restored.config == original.config
        assert restored.config.bucket_size == original.config.bucket_size is not None
        queries = rng.normal(size=(100, dims))
        d0, i0, s0 = batch_knn(original, queries, 5)
        d1, i1, s1 = batch_knn(restored, queries, 5)
        assert d0.tobytes() == d1.tobytes()
        assert i0.tobytes() == i1.tobytes()
        assert s0 == s1

    @pytest.mark.parametrize(
        "name, written", [("snap", "snap.npz"), ("snap.npz", "snap.npz"), ("snap.v1", "snap.v1.npz")]
    )
    def test_save_writes_one_npz_file(self, tree, tmp_path, name, written):
        path = save_kdtree(tree, tmp_path / "nested" / name)
        assert path == tmp_path / "nested" / written
        assert [p.name for p in (tmp_path / "nested").iterdir()] == [written]
        check_snapshot_roundtrip(tree, load_kdtree(path))


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
    def test_loads_and_answers_byte_identically(
        self, tree, small_points, tmp_path, version
    ):
        path = save_kdtree(tree, tmp_path / "snap")
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

    def test_version_mismatch_rejected(self, tree, tmp_path):
        path = save_kdtree(tree, tmp_path / "s")
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["version"] = 999
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_kdtree(path)

    def test_directory_from_an_older_build_rejected(self, tmp_path):
        # Older builds could write a tree as a directory of column files.
        old = tmp_path / "columns_snapshot"
        old.mkdir()
        (old / "tree_meta.json").write_text(json.dumps({"version": 3}))
        with pytest.raises(FileNotFoundError, match="columns_snapshot"):
            load_kdtree(old)


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
