"""Tests for PandaKNN snapshot/restore and service warm starts."""

import numpy as np
import pytest

from repro.core.config import PandaConfig
from repro.core.panda import PandaKNN
from repro.core.snapshot import (
    allocate_version_dir,
    current_version_dir,
    list_snapshot_versions,
    promote_version,
)
from repro.kdtree.tree import KDTreeConfig
from repro.kdtree.validate import check_snapshot_roundtrip
from repro.service import KNNService, LocalTreeBackend


@pytest.fixture(scope="module")
def fitted(small_points):
    return PandaKNN(n_ranks=4, config=PandaConfig(k=5)).fit(small_points)


class TestPandaSnapshot:
    def test_restored_answers_byte_identical(self, fitted, small_points, tmp_path):
        rng = np.random.default_rng(2)
        queries = small_points[rng.choice(small_points.shape[0], 150, replace=False)]
        fitted.snapshot(tmp_path / "panda")
        restored = PandaKNN.restore(tmp_path / "panda")
        original = fitted.query(queries, k=5)
        warm = restored.query(queries, k=5)
        assert original.distances.tobytes() == warm.distances.tobytes()
        assert original.ids.tobytes() == warm.ids.tobytes()
        assert np.array_equal(original.owners, warm.owners)
        assert np.array_equal(original.remote_fanout, warm.remote_fanout)

    def test_local_trees_roundtrip_byte_identical(self, fitted, tmp_path):
        fitted.snapshot(tmp_path / "panda")
        restored = PandaKNN.restore(tmp_path / "panda")
        for tree, warm_tree in zip(fitted.local_trees(), restored.local_trees()):
            check_snapshot_roundtrip(tree, warm_tree)

    def test_cluster_shape_and_config_survive(self, fitted, tmp_path):
        fitted.snapshot(tmp_path / "panda")
        restored = PandaKNN.restore(tmp_path / "panda")
        assert restored.n_ranks == fitted.n_ranks
        assert restored.config == fitted.config
        assert restored.cluster.threads_per_rank == fitted.cluster.threads_per_rank
        assert restored.cluster.machine == fitted.cluster.machine
        assert restored.is_fitted
        assert restored.cluster.total_points() == fitted.cluster.total_points()

    def test_restore_does_not_charge_construction(self, fitted, tmp_path):
        fitted.snapshot(tmp_path / "panda")
        restored = PandaKNN.restore(tmp_path / "panda")
        assert restored.construction_time().total_s == 0.0
        # Query-time modeling still accumulates on the restored index.
        restored.query(np.zeros((8, 3)), k=3)
        assert restored.query_time().total_s > 0.0

    def test_unfitted_snapshot_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            PandaKNN(n_ranks=2).snapshot(tmp_path / "nope")

    def test_missing_snapshot_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PandaKNN.restore(tmp_path / "absent")

    def test_version_mismatch_rejected(self, fitted, tmp_path):
        import json

        fitted.snapshot(tmp_path / "panda")
        meta_file = tmp_path / "panda" / "panda_meta.json"
        meta = json.loads(meta_file.read_text())
        meta["version"] = 999
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="version"):
            PandaKNN.restore(tmp_path / "panda")


class TestServiceWarmStart:
    def test_local_backend_warm_start(self, small_points, tmp_path):
        cold = LocalTreeBackend.fit(small_points, config=KDTreeConfig(bucket_size=16))
        path = cold.save(tmp_path / "tree")
        warm = LocalTreeBackend.load(path)
        check_snapshot_roundtrip(cold.tree, warm.tree)
        service = KNNService(warm, k=4)
        d, i = service.query(small_points[17])
        assert i[0] == 17 and d[0] == 0.0

    def test_warm_service_accepts_streaming_updates(self, small_points, tmp_path):
        LocalTreeBackend.fit(small_points).save(tmp_path / "tree")
        service = KNNService(LocalTreeBackend.load(tmp_path / "tree.npz"), k=3)
        far = small_points.max(axis=0) + 10.0
        (new_id,) = service.insert(far[None, :])
        d, i = service.query(far)
        assert i[0] == new_id and d[0] == 0.0


class TestVersionedSnapshots:
    """A service with a ``snapshot_root`` writes one version per rebuild
    and promotes ``CURRENT`` to it as it goes live."""

    def test_versions_accumulate_and_current_promotes(self, small_points, tmp_path):
        root = tmp_path / "snaps"
        service = KNNService(
            LocalTreeBackend.fit(small_points), k=3, cache_capacity=0, snapshot_root=root
        )
        assert list_snapshot_versions(root) == []
        service.rebuild(at=0.0)
        assert [v for v, _ in list_snapshot_versions(root)] == [1]
        assert current_version_dir(root).name == "v0001"
        service.delete([0], at=1.0)
        service.rebuild(at=2.0)
        assert [v for v, _ in list_snapshot_versions(root)] == [1, 2]
        assert current_version_dir(root).name == "v0002"
        assert service.version == service.rebuilds == 2

    def test_current_snapshot_answers_identically(self, small_points, tmp_path):
        root = tmp_path / "snaps"
        service = KNNService(
            LocalTreeBackend.fit(small_points), k=3, cache_capacity=0, snapshot_root=root
        )
        service.insert(np.random.default_rng(3).normal(size=(5, 3)), at=0.0)
        service.delete([1, 2], at=0.5)
        service.rebuild(at=1.0)
        restored = LocalTreeBackend.load(current_version_dir(root) / "index.npz")
        queries = small_points[:20]
        d_live, i_live = service.backend.kneighbors(queries, 3)
        d_snap, i_snap = restored.kneighbors(queries, 3)
        assert np.array_equal(d_live, d_snap)
        assert np.array_equal(i_live, i_snap)

    def test_version_allocation_and_promotion_primitives(self, tmp_path):
        root = tmp_path / "vroot"
        assert list_snapshot_versions(root) == []
        assert current_version_dir(root) is None
        v1 = allocate_version_dir(root)
        v2 = allocate_version_dir(root)
        assert (v1.name, v2.name) == ("v0001", "v0002")
        promote_version(root, v2)
        assert current_version_dir(root) == v2
        with pytest.raises(FileNotFoundError):
            promote_version(root, root / "v0099")
        with pytest.raises(ValueError):
            promote_version(root, tmp_path / "elsewhere")


class TestLazyAndSlabRestore:
    @pytest.mark.parametrize("layout", ["files", "slabs"])
    def test_lazy_restore_materialises_on_first_touch(self, fitted, small_points, layout, tmp_path):
        from repro.core.local_phase import LOCAL_TREE_KEY, LazyLocalTree

        fitted.snapshot(tmp_path / "panda", layout=layout)
        lazy = PandaKNN.restore(tmp_path / "panda", lazy=True)
        assert all(
            isinstance(r.store[LOCAL_TREE_KEY], LazyLocalTree) for r in lazy.cluster.ranks
        )
        assert lazy.cluster.total_points() == 0  # nothing materialised yet
        rng = np.random.default_rng(4)
        queries = small_points[rng.choice(small_points.shape[0], 20, replace=False)]
        cold = fitted.query(queries, k=5)
        warm = lazy.query(queries, k=5)
        assert np.array_equal(cold.distances, warm.distances)
        assert np.array_equal(cold.ids, warm.ids)
        # The query touched every owner rank it needed; the rest load via
        # local_trees(), after which the full point set is back.
        lazy.local_trees()
        assert lazy.cluster.total_points() == fitted.cluster.total_points()

    @pytest.mark.parametrize("layout", ["files", "slabs"])
    def test_restored_trees_byte_identical(self, fitted, layout, tmp_path):
        fitted.snapshot(tmp_path / "panda", layout=layout)
        restored = PandaKNN.restore(tmp_path / "panda", lazy=True)
        for cold, warm in zip(fitted.local_trees(), restored.local_trees()):
            check_snapshot_roundtrip(cold, warm)

    @pytest.mark.parametrize("layout", ["files", "slabs"])
    def test_retired_precision_key_is_dropped(self, fitted, small_points, layout, tmp_path):
        # Snapshots written while KDTreeConfig still had a ``precision``
        # field carry it in every serialised local-tree config.
        import json

        fitted.snapshot(tmp_path / "panda", layout=layout)
        meta_file = tmp_path / "panda" / "panda_meta.json"
        meta = json.loads(meta_file.read_text())
        meta["config"]["local"]["precision"] = "float32"
        for entry in meta.get("ranks", []):
            entry["config"]["precision"] = "float32"
        meta_file.write_text(json.dumps(meta))
        restored = PandaKNN.restore(tmp_path / "panda")
        assert restored.config == fitted.config
        d0, i0 = fitted.kneighbors(small_points[:50], k=5)
        d1, i1 = restored.kneighbors(small_points[:50], k=5)
        assert d0.tobytes() == d1.tobytes()
        assert i0.tobytes() == i1.tobytes()

    def test_lazy_restored_index_can_resnapshot(self, fitted, tmp_path):
        fitted.snapshot(tmp_path / "a", layout="slabs")
        lazy = PandaKNN.restore(tmp_path / "a", lazy=True)
        lazy.snapshot(tmp_path / "b", layout="files")  # materialises via local_tree_of
        again = PandaKNN.restore(tmp_path / "b")
        for cold, warm in zip(fitted.local_trees(), again.local_trees()):
            check_snapshot_roundtrip(cold, warm)

    def test_unknown_layout_rejected(self, fitted, tmp_path):
        with pytest.raises(ValueError, match="layout"):
            fitted.snapshot(tmp_path / "panda", layout="parquet")

    def test_slab_snapshot_writes_distinct_version(self, fitted, tmp_path):
        import json

        from repro.core.snapshot import SLAB_SNAPSHOT_VERSION

        fitted.snapshot(tmp_path / "slabs", layout="slabs")
        fitted.snapshot(tmp_path / "files", layout="files")
        slabs_meta = json.loads((tmp_path / "slabs" / "panda_meta.json").read_text())
        files_meta = json.loads((tmp_path / "files" / "panda_meta.json").read_text())
        assert slabs_meta["version"] == SLAB_SNAPSHOT_VERSION
        assert files_meta["version"] != SLAB_SNAPSHOT_VERSION
