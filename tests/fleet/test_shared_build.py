"""A shard is one service: its replicas serve one live set.

Each shard of a fleet is one ``KNNService``; its replicas carry only
liveness and load.  A write is applied once, the write (or read) that
trips the shard's rebuild policy folds once (a re-pack, never a build
over the whole shard), into one snapshot directory, and every live
replica answers byte for byte alike, ids included — after a heal and
right after a staleness fold too.
"""

from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.snapshot import current_version_dir, list_snapshot_versions
from repro.fleet import KNNFleet
from repro.kdtree import repack
from repro.kdtree.build import build_kdtree
from repro.kdtree.query import brute_force_knn
from repro.kdtree.validate import check_tree_invariants
from repro.obs import ManualClock, parse_prometheus_text
from repro.service import KNNService, LocalTreeBackend, RebuildPolicy, backends

DIMS = 3
BUILD_S = 3.5e-3  # a rebuild keeps a replica busy for three ops


def _draw(rng, n):
    # A coarse grid, so duplicates and exact ties are common.
    return rng.integers(0, 4, size=(n, DIMS)).astype(np.float64)


def _assert_alike(group, queries, k):
    """Every replica serves the shard's one service, and the live ones
    answer byte for byte alike, ids included."""
    assert all(r.service is group.service for r in group.replicas)
    live = [r for r in group.replicas if r.alive]
    d0, i0 = live[0].answer(queries, k, None)
    for replica in live[1:]:
        d, i = replica.answer(queries, k, None)
        assert np.array_equal(d, d0) and np.array_equal(i, i0)


OPS = st.lists(
    st.tuples(
        # Writes twice as likely as the rest, so builds trip within a run.
        st.sampled_from(["insert", "insert", "delete", "delete", "query", "kill", "heal"]),
        st.integers(0, 2**16),
    ),
    min_size=20,
    max_size=60,
)


@settings(max_examples=40, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2**16))
# Kill a replica, heal it, then trip the shard's next fold.
@example(
    ops=[("delete", 3), ("delete", 7), ("delete", 11), ("kill", 1), ("heal", 0)]
    + [("delete", 5)] * 4
    + [("query", 2)],
    seed=1,
)
def test_every_answer_exact_and_shared_builds_answer_alike(ops, seed):
    rng = np.random.default_rng(seed)
    initial = _draw(rng, 60)
    model = dict(enumerate(initial))
    fleet = KNNFleet.build(
        initial,
        n_shards=2,
        n_replicas=2,
        k=3,
        rebuild_policy=RebuildPolicy(max_inserts=16, max_tombstones=8),
        service_time=lambda n: BUILD_S,
        clock=ManualClock(),
    )

    def check(queries, k):
        ids = np.fromiter(model, dtype=np.int64, count=len(model))
        live = np.stack([model[j] for j in ids]) if model else np.empty((0, DIMS))
        ref_d, _ = brute_force_knn(live, ids, queries, k)
        for row, query in enumerate(queries):
            d, i = fleet.query(query, k=k, at=t)
            assert np.array_equal(d, ref_d[row])
            found = i[i >= 0]
            assert found.size == np.isfinite(ref_d[row]).sum() == np.unique(found).size
            mine = np.array([np.sqrt(((model[j] - query) ** 2).sum()) for j in found])
            assert np.allclose(mine, d[: found.size], rtol=1e-12)
        for group in fleet.groups:
            _assert_alike(group, queries, k)

    t = 0.0
    for kind, arg in ops:
        t += 1e-3
        rng = np.random.default_rng(arg)
        k = 1 + arg % 5
        if kind == "insert":
            fresh = _draw(rng, 1 + arg % 8)
            model.update(zip(fleet.insert(fresh, at=t).tolist(), fresh))
        elif kind == "delete" and model:
            doomed = rng.choice(list(model), size=min(len(model), 1 + arg % 6), replace=False)
            fleet.delete(doomed, at=t)
            for point_id in doomed.tolist():
                del model[point_id]
        elif kind == "query":
            check(_draw(rng, 1 + arg % 4) + 0.5 * (arg % 2), k)
        elif kind == "kill":
            group = fleet.groups[arg % 2]
            if group.n_alive > 1:
                fleet.kill_replica(group.shard_id, arg // 2 % 2)
        elif kind == "heal":
            fleet.heal(at=t)
            # From its first answer on, a healed replica answers like its
            # peers, ids included.
            for group in fleet.groups:
                _assert_alike(group, _draw(rng, 6) + 0.5, k)
    t += 1e-3
    check(_draw(np.random.default_rng(seed), 8), 3)
    assert fleet.n_live == len(model)
    fleet.close()


def test_one_fold_and_one_version_per_shard_per_round(small_points, tmp_path, monkeypatch):
    folds, builds = [], []
    fold = LocalTreeBackend.fold

    def fold_spy(self, dead_ids, points, ids):
        folds.append(next(g.shard_id for g in fleet.groups if g.service.backend is self))
        return fold(self, dead_ids, points, ids)

    def build_spy(points, *args, **kwargs):
        builds.append(len(points))
        return build_kdtree(points, *args, **kwargs)

    fleet = KNNFleet.build(
        small_points,
        n_shards=2,
        n_replicas=2,
        k=4,
        rebuild_policy=RebuildPolicy(max_tombstones=8),
        snapshot_root=tmp_path,
        service_time=lambda n: 1.0,
        clock=ManualClock(),
    )
    bucket = fleet.groups[0].service.backend.tree.config.bucket_size
    monkeypatch.setattr(LocalTreeBackend, "fold", fold_spy)
    monkeypatch.setattr(repack, "build_kdtree", build_spy)
    monkeypatch.setattr(backends, "build_kdtree", build_spy)
    shard_of = dict(zip(range(small_points.shape[0]), fleet.plan.assignment.tolist()))
    victims = {s: [i for i, owner in shard_of.items() if owner == s] for s in (0, 1)}
    queries = small_points[:20] + 0.01
    rng = np.random.default_rng(3)
    for round_ in range(1, 4):
        del folds[:], builds[:]
        at = 10.0 * round_
        # Inserts buffer on both shards; then eight deletes per shard trip
        # both shards' policy in one write.
        fleet.insert(rng.normal(size=(60, 3)) * np.array([3.0, 1.0, 0.5]), at=at)
        doomed = [victims[s].pop() for s in (0, 1) for _ in range(8)]
        fleet.delete(np.array(doomed), at=at + 1e-3)
        # One fold per shard...
        assert Counter(folds) == {0: 1, 1: 1}
        # ...never a rebuild of the whole shard, only of overflowed leaves.
        assert all(n < 4 * bucket for n in builds)
        for group in fleet.groups:
            check_tree_invariants(group.service.backend.tree)
            # ...one version directory...
            root = tmp_path / f"shard{group.shard_id:02d}"
            assert [v for v, _ in list_snapshot_versions(root)] == list(range(1, round_ + 1))
            assert current_version_dir(root).name == f"v{round_:04d}"
            # ...and one service, served by both replicas.
            assert group.service.version == round_ and group.service.delta.n_updates == 0
            _assert_alike(group, queries, 4)
    shards = fleet.stats()["shards"]
    assert [row["rebuilds"] for row in shards] == [3, 3]
    fleet.close()


def test_heal_answers_like_its_peers_ids_included():
    # Duplicate points, buffered inserts that duplicate tree points and
    # tombstones: which of several exactly tied points an answer keeps
    # depends on the index, so only one shared index answers alike.
    rng = np.random.default_rng(0)
    initial = _draw(rng, 48)
    fleet = KNNFleet.build(
        initial,
        n_shards=1,
        n_replicas=2,
        k=3,
        rebuild_policy=RebuildPolicy(max_inserts=1000, max_tombstones=1000),
        clock=ManualClock(),
    )
    fleet.kill_replica(0, 1)
    fleet.insert(initial[:24].copy(), at=1.0)
    fleet.delete(np.arange(24, 30), at=2.0)
    assert fleet.heal(at=3.0) == 1
    group = fleet.groups[0]
    queries = np.concatenate([initial, _draw(rng, 32) + 0.5])
    for k in (1, 3, 8):
        _assert_alike(group, queries, k)
    assert group.n_live == 48 + 24 - 6 and group.rebuilds == 0
    fleet.close()


def test_a_staleness_fold_at_a_read_is_served_by_every_replica():
    # A read's ``at`` fires the staleness fold; every live replica serves
    # the folded index at once, not only the one that answered the read.
    rng = np.random.default_rng(1)
    initial = _draw(rng, 48)
    fleet = KNNFleet.build(
        initial,
        n_shards=1,
        n_replicas=2,
        k=3,
        rebuild_policy=RebuildPolicy(max_staleness_s=1.0),
        clock=ManualClock(),
    )
    fleet.insert(_draw(rng, 5), at=0.0)
    fleet.delete(np.arange(6), at=0.5)
    queries = _draw(rng, 20) + 0.5
    fleet.query(queries[0], at=2.0)  # stale: the shard folds while answering
    group = fleet.groups[0]
    assert [r.service.version for r in group.replicas] == [1, 1]
    assert group.rebuilds == 1 and group.service.delta.n_updates == 0
    for k in (1, 3, 8):
        _assert_alike(group, queries, k)
    fleet.close()


def test_one_service_per_shard_however_many_replicas(monkeypatch):
    built = []
    init = KNNService.__init__

    def init_spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(KNNService, "__init__", init_spy)
    fleet = KNNFleet.build(_draw(np.random.default_rng(2), 80), n_shards=3, n_replicas=4)
    assert len(built) == 3
    assert [g.service for g in fleet.groups] == built
    assert all(r.service is g.service for g in fleet.groups for r in g.replicas)
    fleet.close()


def test_scraped_rebuilds_equal_the_shard_rows(tmp_path):
    # One row per shard, labelled {shard}: a fold shared by three replicas
    # is scraped once, as the stats row counts it.
    fleet = KNNFleet.build(
        _draw(np.random.default_rng(3), 90),
        n_shards=2,
        n_replicas=3,
        rebuild_policy=RebuildPolicy(max_inserts=4),
        snapshot_root=tmp_path,
        service_time=lambda n: 1.0,
        clock=ManualClock(),
    )
    rng = np.random.default_rng(4)
    for step in range(4):
        fleet.insert(_draw(rng, 9), at=10.0 * step)
    fleet.kill_replica(0, 0)
    fleet.heal(at=50.0)
    family = parse_prometheus_text(fleet.metrics_text())["repro_service_rebuilds_total"]
    assert [dict(labels) for _, labels in family.samples] == [{"shard": "0"}, {"shard": "1"}]
    rows = fleet.stats()["shards"]
    assert sum(family.samples.values()) == sum(row["rebuilds"] for row in rows) >= 4
    fleet.close()
