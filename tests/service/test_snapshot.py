"""Tests for PandaKNN snapshot/restore and service warm starts."""

import numpy as np
import pytest

from repro.cluster.machine import MachineSpec
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

    @pytest.mark.parametrize("version", [2, 999])
    def test_version_mismatch_rejected(self, fitted, tmp_path, version):
        import json

        fitted.snapshot(tmp_path / "panda")
        meta_file = tmp_path / "panda" / "panda_meta.json"
        meta = json.loads(meta_file.read_text())
        meta["version"] = version
        if version == 2:
            # The retired slab layout: trees packed into shared column
            # stores, no per-rank files.
            meta["layout"] = "slabs"
            for tree_file in (tmp_path / "panda").glob("local_tree_*.npz"):
                tree_file.unlink()
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"version {version}"):
            PandaKNN.restore(tmp_path / "panda")

    def test_retired_precision_key_is_dropped(self, fitted, small_points, tmp_path):
        # Snapshots written while KDTreeConfig still had a ``precision``
        # field carry it in the serialised local-tree config.
        import json

        fitted.snapshot(tmp_path / "panda")
        meta_file = tmp_path / "panda" / "panda_meta.json"
        meta = json.loads(meta_file.read_text())
        meta["config"]["local"]["precision"] = "float32"
        meta_file.write_text(json.dumps(meta))
        restored = PandaKNN.restore(tmp_path / "panda")
        assert restored.config == fitted.config
        d0, i0 = fitted.kneighbors(small_points[:50], k=5)
        d1, i1 = restored.kneighbors(small_points[:50], k=5)
        assert d0.tobytes() == d1.tobytes()
        assert i0.tobytes() == i1.tobytes()

    def test_interrupted_overwrite_is_refused(self, fitted, tmp_path, monkeypatch):
        # Index B written over index A's snapshot dies before its global
        # tree: B's local trees now sit beside A's global tree, a mix that
        # must not restore.
        import repro.core.snapshot as snapshot

        fitted.snapshot(tmp_path / "panda")
        other = PandaKNN(n_ranks=4, config=PandaConfig(k=5)).fit(
            np.random.default_rng(5).uniform(-3.0, 3.0, size=(1_000, 3))
        )

        def dies(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(snapshot, "save_global_tree", dies)
        with pytest.raises(OSError, match="disk full"):
            other.snapshot(tmp_path / "panda")
        with pytest.raises(FileNotFoundError):
            PandaKNN.restore(tmp_path / "panda")


class TestInterruptedWrites:
    """A snapshot write cut short at any file never restores: the meta file
    goes first and comes back last, so a reader finds either a complete
    snapshot or none."""

    @staticmethod
    def _dies_on_call(n, original):
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(1)
            if len(calls) == n:
                raise OSError("disk full")
            return original(*args, **kwargs)

        return wrapped

    @pytest.mark.parametrize("stage", ["first_local_tree", "last_local_tree", "global_tree", "meta"])
    @pytest.mark.parametrize("target", ["fresh", "overwrite"])
    def test_write_cut_short_is_refused(self, fitted, tmp_path, monkeypatch, target, stage):
        import repro.core.snapshot as snapshot

        path = tmp_path / "panda"
        if target == "overwrite":
            fitted.snapshot(path)
        if stage == "first_local_tree":
            monkeypatch.setattr(snapshot, "save_kdtree", self._dies_on_call(1, snapshot.save_kdtree))
        elif stage == "last_local_tree":
            monkeypatch.setattr(
                snapshot, "save_kdtree", self._dies_on_call(fitted.n_ranks, snapshot.save_kdtree)
            )
        elif stage == "global_tree":
            monkeypatch.setattr(snapshot, "save_global_tree", self._dies_on_call(1, None))
        else:
            monkeypatch.setattr(snapshot, "panda_config_to_dict", self._dies_on_call(1, None))
        with pytest.raises(OSError, match="disk full"):
            fitted.snapshot(path)
        with pytest.raises(FileNotFoundError, match="panda_meta.json"):
            PandaKNN.restore(path)
        monkeypatch.undo()
        # Writing again over the debris gives a snapshot that restores.
        fitted.snapshot(path)
        restored = PandaKNN.restore(path)
        d0, i0 = fitted.kneighbors(np.zeros((4, 3)), k=5)
        d1, i1 = restored.kneighbors(np.zeros((4, 3)), k=5)
        assert d0.tobytes() == d1.tobytes() and i0.tobytes() == i1.tobytes()

    def test_overwrite_with_fewer_ranks_answers_as_the_new_index(self, fitted, tmp_path):
        # Index A's extra per-rank files stay on disk; the restore reads only
        # the ranks the new meta names.
        fitted.snapshot(tmp_path / "panda")
        points = np.random.default_rng(9).uniform(-3.0, 3.0, size=(800, 3))
        other = PandaKNN(n_ranks=2, config=PandaConfig(k=5)).fit(points)
        other.snapshot(tmp_path / "panda")
        restored = PandaKNN.restore(tmp_path / "panda")
        assert restored.n_ranks == 2 and restored.cluster.total_points() == 800
        queries = points[:60] + 0.01
        a, b = other.query(queries, k=5), restored.query(queries, k=5)
        assert a.distances.tobytes() == b.distances.tobytes()
        assert a.ids.tobytes() == b.ids.tobytes()
        assert np.array_equal(a.owners, b.owners)

    def test_restored_index_snapshots_again_byte_identically(self, fitted, small_points, tmp_path):
        fitted.snapshot(tmp_path / "first")
        PandaKNN.restore(tmp_path / "first").snapshot(tmp_path / "second")
        again = PandaKNN.restore(tmp_path / "second")
        for tree, warm_tree in zip(fitted.local_trees(), again.local_trees()):
            check_snapshot_roundtrip(tree, warm_tree)
        d0, i0 = fitted.kneighbors(small_points[:80], k=5)
        d1, i1 = again.kneighbors(small_points[:80], k=5)
        assert d0.tobytes() == d1.tobytes() and i0.tobytes() == i1.tobytes()


class TestRestoreOptions:
    """``restore(executor=, machine=)`` change how and where the index is
    modeled, never what it answers."""

    @pytest.fixture(scope="class")
    def index_10d(self, tmp_path_factory):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(3_000, 10))
        ids = rng.permutation(50_000)[:3_000] * 3 + 7
        index = PandaKNN(n_ranks=3, config=PandaConfig(k=6)).fit(points, ids=ids)
        path = tmp_path_factory.mktemp("panda10d") / "snap"
        index.snapshot(path)
        queries = points[rng.choice(points.shape[0], 120, replace=False)] + rng.normal(
            scale=0.05, size=(120, 10)
        )
        yield index, path, queries
        index.close()

    @staticmethod
    def _assert_same_answers(a, b):
        assert a.distances.tobytes() == b.distances.tobytes()
        assert a.ids.tobytes() == b.ids.tobytes()
        assert np.array_equal(a.owners, b.owners)
        assert np.array_equal(a.remote_fanout, b.remote_fanout)

    @pytest.mark.parametrize("executor", ["inline", "thread", "process"])
    def test_every_executor_answers_byte_identically(self, index_10d, executor):
        index, path, queries = index_10d
        with PandaKNN.restore(path, executor=executor) as restored:
            self._assert_same_answers(index.query(queries), restored.query(queries))
            assert restored.config.local.bucket_size is None
            assert [t.config.bucket_size for t in restored.local_trees()] == [128] * 3

    def test_machine_override(self, index_10d):
        index, path, queries = index_10d
        with PandaKNN.restore(path, machine=MachineSpec.knl()) as restored:
            assert restored.cluster.machine == MachineSpec.knl()
            assert index.cluster.machine != MachineSpec.knl()
            self._assert_same_answers(index.query(queries), restored.query(queries))


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
