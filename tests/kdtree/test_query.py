"""Tests for Algorithm 1: local k-nearest-neighbour search."""

import functools
import re

import numpy as np
import pytest

from repro.kdtree import query as query_module
from repro.kdtree.build import build_kdtree
from repro.kdtree.leafblocks import scan_columns_sq
from repro.kdtree.query import (
    KNNResult,
    QueryStats,
    _batch_knn_lockstep,
    _row_by_row_max,
    batch_knn,
    batch_knn_scalar,
    brute_force_knn,
    knn_search,
)
from repro.kdtree.tree import KDTreeConfig


def _near_tie_large_magnitude():
    # Coordinates ~1000 with ~1e-3 spreads: squared distances agree to more
    # digits than float32 carries, so any reduced-precision shortcut in the
    # leaf kernel reorders the k-th pick on this input.
    rng = np.random.default_rng(0)
    base = np.full(3, 1000.0)
    points = base + rng.normal(scale=1e-3, size=(400, 3))
    return points, base + rng.normal(scale=1e-3, size=(24, 3)), 4, np.inf


def _large_magnitude_random():
    rng = np.random.default_rng(20)
    return rng.normal(size=(2000, 3)) * 1e4, rng.normal(size=(150, 3)) * 1e4, 16, np.inf


def _subnormal_coordinates():
    # Squares of the smallest coordinates underflow to exactly 0.0, so
    # several distinct points tie at distance zero.
    points = np.array([[0.0], [2.5059e-133], [1e-40], [3e-45]])
    return points, points, 4, np.inf


def _mixed_scale_coordinates():
    rng = np.random.default_rng(29)
    scales = 10.0 ** rng.uniform(-140, 3, size=(300, 1))
    points = rng.normal(size=(300, 3)) * scales
    return points, np.vstack([points[:20], np.zeros((1, 3))]), 5, np.inf


def _repeated_points():
    rng = np.random.default_rng(23)
    base = rng.normal(size=(60, 3))
    return np.repeat(base, 4, axis=0), base[:25] + rng.normal(scale=0.01, size=(25, 3)), 6, np.inf


def _all_duplicate_points():
    return np.full((70, 3), 2.5), np.array([[2.5, 2.5, 2.5], [0.0, 1.0, 2.0]]), 6, np.inf


def _k_larger_than_points():
    rng = np.random.default_rng(22)
    return rng.normal(size=(7, 3)), rng.normal(size=(30, 3)), 20, np.inf


def _empty_tree():
    return np.empty((0, 3)), np.zeros((3, 3)), 4, np.inf


def _bounded_radii():
    rng = np.random.default_rng(21)
    points = rng.normal(size=(1500, 3))
    return points, rng.normal(size=(80, 3)), 5, rng.uniform(0.05, 0.8, size=80)


#: Inputs at the numeric and structural edges, each a factory of
#: ``(points, queries, k, radii)``.  Every engine must agree on them bit for bit.
HARD_INPUTS = [
    _near_tie_large_magnitude,
    _large_magnitude_random,
    _subnormal_coordinates,
    _mixed_scale_coordinates,
    _repeated_points,
    _all_duplicate_points,
    _k_larger_than_points,
    _empty_tree,
    _bounded_radii,
]


@pytest.fixture(scope="module")
def tree_and_points():
    rng = np.random.default_rng(42)
    points = rng.normal(size=(3000, 3)) * np.array([2.0, 1.0, 0.5])
    tree = build_kdtree(points)
    return tree, points


class TestKnnSearch:
    def test_matches_brute_force(self, tree_and_points):
        tree, points = tree_and_points
        rng = np.random.default_rng(1)
        queries = rng.normal(size=(100, 3))
        d, i, _ = batch_knn(tree, queries, 5)
        bd, bi = brute_force_knn(points, np.arange(points.shape[0]), queries, 5)
        assert np.allclose(d, bd)

    def test_nearest_of_indexed_point_is_itself(self, tree_and_points):
        tree, points = tree_and_points
        result = knn_search(tree, points[17], 1)
        assert result.distances[0] == pytest.approx(0.0)
        assert result.ids[0] == 17

    def test_k_larger_than_points(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(10, 3))
        tree = build_kdtree(points)
        result = knn_search(tree, points[0], 50)
        assert result.k_found == 10

    def test_invalid_k_rejected(self, tree_and_points):
        tree, _ = tree_and_points
        with pytest.raises(ValueError):
            knn_search(tree, np.zeros(3), 0)

    def test_wrong_query_dims_rejected(self, tree_and_points):
        tree, _ = tree_and_points
        with pytest.raises(ValueError):
            knn_search(tree, np.zeros(5), 3)

    def test_empty_tree_returns_nothing(self):
        tree = build_kdtree(np.empty((0, 3)))
        result = knn_search(tree, np.zeros(3), 4)
        assert result.k_found == 0

    def test_distances_sorted_ascending(self, tree_and_points):
        tree, _ = tree_and_points
        result = knn_search(tree, np.array([0.3, -0.2, 0.1]), 10)
        assert np.all(np.diff(result.distances) >= 0)

    def test_stats_counted(self, tree_and_points):
        tree, _ = tree_and_points
        result = knn_search(tree, np.zeros(3), 5)
        assert result.stats.nodes_visited > 0
        assert result.stats.distance_computations > 0
        assert result.stats.leaves_scanned >= 1

    def test_pruning_visits_fraction_of_tree(self, tree_and_points):
        tree, _ = tree_and_points
        result = knn_search(tree, np.zeros(3), 5)
        assert result.stats.nodes_visited < tree.n_nodes / 2

    def test_external_stats_accumulate(self, tree_and_points):
        tree, _ = tree_and_points
        agg = QueryStats()
        knn_search(tree, np.zeros(3), 3, stats=agg)
        knn_search(tree, np.ones(3), 3, stats=agg)
        assert agg.queries == 2

    def test_result_type(self, tree_and_points):
        tree, _ = tree_and_points
        result = knn_search(tree, np.zeros(3), 3)
        assert isinstance(result, KNNResult)
        assert result.distances.shape == result.ids.shape


class TestRadiusBoundedSearch:
    def test_radius_limits_results(self, tree_and_points):
        tree, points = tree_and_points
        query = points[5]
        unbounded = knn_search(tree, query, 10)
        radius = float(unbounded.distances[4])
        bounded = knn_search(tree, query, 10, radius=radius)
        assert bounded.k_found <= 10
        assert np.all(bounded.distances <= radius + 1e-12)

    def test_zero_radius_returns_only_exact_matches(self, tree_and_points):
        tree, points = tree_and_points
        bounded = knn_search(tree, points[3] + 100.0, 5, radius=1e-9)
        assert bounded.k_found == 0

    def test_bounded_matches_filtered_brute_force(self, tree_and_points):
        tree, points = tree_and_points
        rng = np.random.default_rng(3)
        queries = rng.normal(size=(30, 3))
        radius = 0.3
        bd, bi = brute_force_knn(points, np.arange(points.shape[0]), queries, 5)
        for qi in range(queries.shape[0]):
            result = knn_search(tree, queries[qi], 5, radius=radius)
            expected_mask = bd[qi] <= radius
            expected = bd[qi][expected_mask & np.isfinite(bd[qi])]
            assert np.allclose(np.sort(result.distances), np.sort(expected))

    def test_bounded_search_does_less_work(self, tree_and_points):
        tree, _ = tree_and_points
        query = np.array([0.1, 0.2, 0.3])
        full = knn_search(tree, query, 5)
        bounded = knn_search(tree, query, 5, radius=float(full.distances[-1]) * 0.5)
        assert bounded.stats.nodes_visited <= full.stats.nodes_visited


class TestRadiusValidation:
    """A negative radius used to act as ``|r|`` and a NaN one as unbounded."""

    @pytest.mark.parametrize("radius", [-0.1, -np.inf, np.nan])
    def test_single_query_rejects(self, tree_and_points, radius):
        tree, points = tree_and_points
        with pytest.raises(ValueError, match="radius"):
            knn_search(tree, points[0], 3, radius=radius)

    @pytest.mark.parametrize("engine", [batch_knn, batch_knn_scalar, _batch_knn_lockstep])
    @pytest.mark.parametrize("radii", [-0.1, np.nan, [0.5, -0.5], [np.nan, 1.0]])
    def test_batch_rejects(self, tree_and_points, engine, radii):
        tree, points = tree_and_points
        with pytest.raises(ValueError, match="radius"):
            engine(tree, points[:2], 3, radii=radii)

    def test_rejected_on_an_empty_tree_too(self):
        tree = build_kdtree(np.empty((0, 3)))
        with pytest.raises(ValueError, match="radius"):
            knn_search(tree, np.zeros(3), 3, radius=-1.0)
        with pytest.raises(ValueError, match="radius"):
            batch_knn(tree, np.zeros((2, 3)), 3, radii=-1.0)

    def test_zero_and_infinite_radii_stay_valid(self, tree_and_points):
        tree, points = tree_and_points
        assert knn_search(tree, points[0], 3, radius=0.0).k_found == 1
        d, _, _ = batch_knn(tree, points[:2], 3, radii=[0.0, np.inf])
        assert np.isfinite(d).sum(axis=1).tolist() == [1, 3]


class TestNonFiniteQueries:
    """A NaN query row used to come back all ``inf`` / ``-1``, and an
    infinite single query empty, as if the tree held no point."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_single_query_rejects(self, tree_and_points, bad):
        tree, _ = tree_and_points
        with pytest.raises(ValueError, match="finite"):
            knn_search(tree, [bad, 0.0, 0.0], 3)

    @pytest.mark.parametrize("engine", [batch_knn, batch_knn_scalar, _batch_knn_lockstep])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_batch_rejects(self, tree_and_points, engine, bad):
        tree, points = tree_and_points
        queries = points[:3].copy()
        queries[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            engine(tree, queries, 3)


class TestBatchKnn:
    def test_shapes_and_padding(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(8, 3))
        tree = build_kdtree(points)
        d, i, _ = batch_knn(tree, rng.normal(size=(5, 3)), 20)
        assert d.shape == (5, 20)
        assert i.shape == (5, 20)
        assert np.all(np.isinf(d[:, 8:]))
        assert np.all(i[:, 8:] == -1)

    def test_per_query_radii(self, tree_and_points):
        tree, points = tree_and_points
        queries = points[:4]
        radii = np.array([np.inf, 1e-9, np.inf, 1e-9])
        d, i, _ = batch_knn(tree, queries, 3, radii=radii)
        assert np.isfinite(d[0]).all()
        assert np.isfinite(d[1, 1:]).sum() == 0

    def test_stats_aggregate(self, tree_and_points):
        tree, _ = tree_and_points
        stats = QueryStats()
        batch_knn(tree, np.zeros((7, 3)), 2, stats=stats)
        assert stats.queries == 7

    def test_single_query_vector(self, tree_and_points):
        tree, _ = tree_and_points
        d, i, _ = batch_knn(tree, np.zeros(3), 4)
        assert d.shape == (1, 4)

    @pytest.mark.parametrize("engine", [batch_knn, batch_knn_scalar, _batch_knn_lockstep])
    @pytest.mark.parametrize("shape", [(2, 2, 3), (1, 1, 1, 3), ()])
    def test_queries_neither_1d_nor_2d_name_their_shape(self, tree_and_points, engine, shape):
        tree, _ = tree_and_points
        with pytest.raises(ValueError, match=f"1-D or 2-D, got shape {re.escape(str(shape))}"):
            engine(tree, np.zeros(shape), 3)


class TestBruteForce:
    def test_empty_points(self):
        d, i = brute_force_knn(np.empty((0, 3)), np.empty(0, dtype=np.int64), np.zeros((2, 3)), 3)
        assert np.all(np.isinf(d))
        assert np.all(i == -1)

    def test_self_query(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(50, 4))
        d, i = brute_force_knn(points, np.arange(50), points, 1)
        assert np.allclose(d[:, 0], 0.0)
        assert np.array_equal(i[:, 0], np.arange(50))

    def test_respects_custom_ids(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        ids = np.array([42, 77])
        d, i = brute_force_knn(points, ids, np.array([[0.1, 0.0]]), 2)
        assert list(i[0]) == [42, 77]


class TestVectorizedMatchesScalar:
    """A/B: the lockstep traversal must replicate the row-by-row loop.

    Both sides are pinned (``_batch_knn_lockstep`` against
    ``batch_knn_scalar``), never ``batch_knn``: below its crossover that
    would compare the row-by-row engine with itself.
    """

    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_random_data_identical(self, tree_and_points, k):
        tree, _ = tree_and_points
        rng = np.random.default_rng(8)
        queries = rng.normal(size=(120, 3))
        # Every batch size down to one row, across the crossover.
        crossover = _row_by_row_max(k)
        for n in (1, 2, crossover - 1, crossover, crossover + 1, 120):
            d_vec, i_vec, s_vec = _batch_knn_lockstep(tree, queries[:n], k)
            d_ref, i_ref, s_ref = batch_knn_scalar(tree, queries[:n], k)
            assert np.array_equal(d_vec, d_ref)
            assert np.array_equal(i_vec, i_ref)
            assert s_vec == s_ref

    def test_clustered_data_identical(self, cosmo_points):
        tree = build_kdtree(cosmo_points)
        rng = np.random.default_rng(9)
        queries = cosmo_points[rng.choice(cosmo_points.shape[0], 150, replace=False)]
        d_vec, i_vec, s_vec = _batch_knn_lockstep(tree, queries, 8)
        d_ref, i_ref, s_ref = batch_knn_scalar(tree, queries, 8)
        assert np.array_equal(d_vec, d_ref)
        assert np.array_equal(i_vec, i_ref)
        assert s_vec == s_ref

    def test_stats_counters_preserved(self, tree_and_points):
        """nodes/leaves/distances/heap counters match the scalar DFS exactly."""
        tree, _ = tree_and_points
        rng = np.random.default_rng(10)
        queries = rng.normal(size=(60, 3))
        _, _, s_vec = _batch_knn_lockstep(tree, queries, 6)
        _, _, s_ref = batch_knn_scalar(tree, queries, 6)
        assert s_vec.queries == s_ref.queries == 60
        assert s_vec == s_ref

    def test_bounded_radii_identical(self, tree_and_points):
        tree, points = tree_and_points
        rng = np.random.default_rng(11)
        queries = rng.normal(size=(50, 3))
        radii = rng.uniform(0.05, 0.8, size=50)
        d_vec, i_vec, s_vec = _batch_knn_lockstep(tree, queries, 5, radii=radii)
        d_ref, i_ref, s_ref = batch_knn_scalar(tree, queries, 5, radii=radii)
        assert np.array_equal(d_vec, d_ref)
        assert np.array_equal(i_vec, i_ref)
        assert s_vec == s_ref

    def test_duplicate_points_same_neighbor_sets(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(60, 3))
        points = np.repeat(base, 4, axis=0)  # every coordinate 4 times
        tree = build_kdtree(points)
        queries = base[:25] + rng.normal(scale=0.01, size=(25, 3))
        d_vec, i_vec, s_vec = _batch_knn_lockstep(tree, queries, 6)
        d_ref, i_ref, s_ref = batch_knn_scalar(tree, queries, 6)
        # Four copies tie at every distance and k = 6 cuts through a group
        # of them; the tie rule is shared, so the id arrays are equal, not
        # merely the id sets.
        assert np.array_equal(d_vec, d_ref)
        assert np.array_equal(i_vec, i_ref)
        assert s_vec == s_ref
        for row in range(queries.shape[0]):
            ids_row = i_vec[row]
            assert len(set(ids_row.tolist())) == ids_row.shape[0]
            true_d = np.linalg.norm(points[ids_row] - queries[row], axis=1)
            assert np.allclose(true_d, d_vec[row], atol=1e-12)

    def test_fewer_points_than_k_identical(self):
        rng = np.random.default_rng(13)
        points = rng.normal(size=(7, 3))
        tree = build_kdtree(points)
        queries = rng.normal(size=(30, 3))
        d_vec, i_vec, s_vec = _batch_knn_lockstep(tree, queries, 20)
        d_ref, i_ref, s_ref = batch_knn_scalar(tree, queries, 20)
        assert np.array_equal(d_vec, d_ref)
        assert np.array_equal(i_vec, i_ref)
        assert s_vec == s_ref
        assert np.all(np.isinf(d_vec[:, 7:]))
        assert np.all(i_vec[:, 7:] == -1)

    @pytest.mark.parametrize("make_input", HARD_INPUTS, ids=lambda f: f.__name__.lstrip("_"))
    def test_hard_inputs_match_scalar_and_brute_force(self, make_input):
        points, queries, k, radii = make_input()
        tree = build_kdtree(points)
        d_vec, i_vec, s_vec = _batch_knn_lockstep(tree, queries, k, radii=radii)
        d_ref, i_ref, s_ref = batch_knn_scalar(tree, queries, k, radii=radii)
        assert np.array_equal(d_vec, d_ref)
        assert np.array_equal(i_vec, i_ref)
        assert s_vec == s_ref
        # Brute force runs the same per-dimension accumulation, so within
        # the radius it agrees to the bit, not merely to a tolerance.
        bd, _ = brute_force_knn(points, np.arange(points.shape[0]), queries, k)
        radii_col = np.broadcast_to(radii, (queries.shape[0],))[:, None]
        assert np.array_equal(d_vec, np.where(bd <= radii_col, bd, np.inf))
        # Brute force breaks ties its own way, so against it ids are
        # checked for validity, not identity: each is distinct and really
        # lies at the distance reported for it.
        for row in range(queries.shape[0]):
            ids_row = i_vec[row][i_vec[row] >= 0]
            assert np.array_equal(np.isfinite(d_vec[row]), i_vec[row] >= 0)
            assert len(set(ids_row.tolist())) == ids_row.shape[0]
            cols = np.ascontiguousarray(points[ids_row].T)
            true_d = np.sqrt(scan_columns_sq(cols, 0, ids_row.shape[0], queries[row]))
            assert np.array_equal(true_d, d_vec[row][: ids_row.shape[0]])

    def test_matches_brute_force_exactly(self, tree_and_points):
        tree, points = tree_and_points
        rng = np.random.default_rng(14)
        queries = rng.normal(size=(80, 3))
        d, i, _ = batch_knn(tree, queries, 8)
        bd, bi = brute_force_knn(points, np.arange(points.shape[0]), queries, 8)
        assert np.allclose(d, bd)
        assert np.array_equal(i, bi)

    def test_empty_tree_batch(self):
        tree = build_kdtree(np.empty((0, 3)))
        d, i, stats = batch_knn(tree, np.zeros((4, 3)), 3)
        assert np.all(np.isinf(d))
        assert np.all(i == -1)
        assert stats.queries == 4
        assert stats.nodes_visited == 0

    def test_mismatched_query_dims_rejected(self, tree_and_points):
        tree, _ = tree_and_points
        with pytest.raises(ValueError):
            batch_knn(tree, np.zeros((3, 5)), 2)


@functools.lru_cache(maxsize=None)
def _tie_case(kind: str, dims: int):
    """``(tree, 128 queries)`` over data where every distance is tied."""
    rng = np.random.default_rng(31 + dims)
    if kind == "lattice":
        side, levels = (12, 23) if dims == 3 else (2, 3)
        axes = [np.arange(side, dtype=np.float64)] * dims
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dims)
        points = np.vstack([points, points[::3]])  # every third point twice
        queries = rng.integers(0, levels, size=(128, dims)) / 2.0  # points and midpoints
    elif kind == "duplicated":
        base = rng.normal(size=(60, dims))
        points = np.repeat(base, 4, axis=0)
        queries = base[rng.integers(0, 60, size=128)]
        queries[::2] += rng.normal(scale=0.01, size=(64, dims))
    else:
        points = np.full((70, dims), 2.5)
        queries = np.where(rng.random((128, 1)) < 0.5, 2.5, rng.normal(size=(128, dims)))
    return build_kdtree(points), queries


class TestTieRule:
    """One answer per query, whichever engine and batch it went through.

    Among candidates tied at a distance the one met first in the query's
    own DFS scan order is kept, in both engines, so a row's distances, ids
    and work counters are the same asked alone (``knn_search`` or a one-row
    batch) and inside batches on either side of ``batch_knn``'s crossover.
    """

    @pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
    @pytest.mark.parametrize("k", [1, 8, 40])
    @pytest.mark.parametrize("dims", [3, 10])
    @pytest.mark.parametrize("kind", ["lattice", "duplicated", "identical"])
    def test_answer_independent_of_batch_size(self, kind, dims, k, bounded):
        tree, queries = _tie_case(kind, dims)
        crossover = _row_by_row_max(k)
        queries = queries[: 4 * crossover]
        radii = np.full(queries.shape[0], np.inf)
        if bounded:
            # Per-row radii below, exactly at (inclusive) and above the
            # row's own k-th distance, as a remote rank is bounded.
            kth = batch_knn(tree, queries, k)[0][:, -1]
            radii = kth * np.resize([0.5, 1.0, 1.5], kth.shape)
        alone = [batch_knn(tree, q, k, radii=r) for q, r in zip(queries, radii)]
        for (d, i, s), q, r in zip(alone, queries, radii):
            single = knn_search(tree, q, k, radius=r)
            found = single.k_found
            assert np.array_equal(single.distances, d[0, :found])
            assert np.array_equal(single.ids, i[0, :found])
            assert np.all(i[0, found:] == -1)
            assert single.stats == s
        for n in (crossover - 1, crossover, crossover + 1, 4 * crossover):
            d, i, s = batch_knn(tree, queries[:n], k, radii=radii[:n])
            assert np.array_equal(d, np.concatenate([a[0] for a in alone[:n]]))
            assert np.array_equal(i, np.concatenate([a[1] for a in alone[:n]]))
            summed = QueryStats()
            for a in alone[:n]:
                summed.merge(a[2])
            assert s == summed

    def test_engine_is_chosen_from_batch_size_and_k(self, monkeypatch):
        used = []
        for name in ("_rows_engine", "_lockstep_engine"):
            real = getattr(query_module, name)
            monkeypatch.setattr(
                query_module, name, lambda *args, _n=name, _r=real: used.append(_n) or _r(*args)
            )
        tree, queries = _tie_case("lattice", 3)
        for k in (8, 136):
            crossover = _row_by_row_max(k)
            batch_knn(tree, queries[:crossover], k)
            batch_knn(tree, queries[: crossover + 1], k)
        assert used == ["_rows_engine", "_lockstep_engine"] * 2


class TestBoundFilter:
    """The lockstep engine offers the top-k only candidates below its bound.

    On a duplicated 10-D integer lattice at leaf 128 nearly every candidate
    ties with the k-th distance, so the strict bound, the inclusive radius
    and the scan-order tie rule all decide which ids survive.
    """

    @pytest.fixture(scope="class")
    def lattice(self):
        axes = [np.arange(2, dtype=np.float64)] * 10
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 10)
        points = np.vstack([points, points])  # every point twice
        rng = np.random.default_rng(41)
        queries = np.vstack(
            [
                rng.integers(0, 2, size=(192, 10)).astype(np.float64),  # lattice points
                rng.integers(0, 3, size=(64, 10)) / 2.0,  # and midpoints
            ]
        )
        return build_kdtree(points, config=KDTreeConfig(bucket_size=128)), queries

    @pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "radius_at_kth"])
    @pytest.mark.parametrize("k", [1, 8, 22, 40])
    def test_lockstep_matches_row_by_row(self, lattice, k, bounded):
        tree, queries = lattice
        unbounded = batch_knn_scalar(tree, queries, k)[0]
        radii = unbounded[:, -1] if bounded else np.inf  # each row's k-th distance
        d0, i0, s0 = batch_knn_scalar(tree, queries, k, radii=radii)
        d1, i1, s1 = _batch_knn_lockstep(tree, queries, k, radii=radii)
        assert np.array_equal(d0, d1)
        assert np.array_equal(i0, i1)
        assert s0 == s1
        if bounded:
            # Squared distances here are multiples of 1/4.  Where the radius
            # squares back to the k-th one exactly (always for a lattice
            # query at k <= 22, whose k-th squared distance is 0 or 1), the
            # inclusive radius keeps the whole row.
            at_kth = radii * radii == np.round(4 * radii * radii) / 4
            if k <= 22:
                assert at_kth[:192].all()
            assert np.array_equal(d1[at_kth], unbounded[at_kth])


class TestInclusiveRadius:
    """A point exactly at the search radius must be returned (step 4)."""

    @pytest.fixture(scope="class")
    def grid_tree(self):
        xs = np.arange(20, dtype=np.float64)
        points = np.stack([xs, np.zeros(20), np.zeros(20)], axis=1)
        return build_kdtree(points), points

    def test_boundary_point_kept_scalar(self, grid_tree):
        tree, _ = grid_tree
        result = knn_search(tree, np.zeros(3), 5, radius=2.0)
        assert 2 in result.ids.tolist()
        assert result.distances[result.ids.tolist().index(2)] == pytest.approx(2.0)

    def test_boundary_point_kept_batch(self, grid_tree):
        tree, _ = grid_tree
        d, i, _ = batch_knn(tree, np.zeros((1, 3)), 5, radii=2.0)
        assert 2 in i[0].tolist()

    def test_radius_equal_to_kth_distance_keeps_k(self, grid_tree):
        """Re-querying with r = the k-th distance returns the same k points,
        mirroring a remote rank bounded by the owner's k-th distance r'."""
        tree, _ = grid_tree
        unbounded = knn_search(tree, np.zeros(3), 4)
        r_prime = float(unbounded.distances[-1])
        bounded = knn_search(tree, np.zeros(3), 4, radius=r_prime)
        assert bounded.k_found == 4
        assert np.array_equal(bounded.ids, unbounded.ids)
        d, i, _ = batch_knn(tree, np.zeros((1, 3)), 4, radii=r_prime)
        assert np.array_equal(i[0], unbounded.ids)

    def test_zero_radius_keeps_exact_match(self, grid_tree):
        tree, points = grid_tree
        result = knn_search(tree, points[7], 3, radius=0.0)
        assert result.k_found == 1
        assert result.ids[0] == 7


class TestResultStatsAreLocalOnly:
    """result.stats holds only this query's work in every branch (bugfix)."""

    def test_nonempty_tree(self, tree_and_points):
        tree, _ = tree_and_points
        agg = QueryStats()
        first = knn_search(tree, np.zeros(3), 3, stats=agg)
        second = knn_search(tree, np.ones(3), 3, stats=agg)
        assert first.stats.queries == 1
        assert second.stats.queries == 1
        assert agg.queries == 2
        assert agg.nodes_visited == first.stats.nodes_visited + second.stats.nodes_visited

    def test_empty_tree(self):
        tree = build_kdtree(np.empty((0, 3)))
        agg = QueryStats()
        first = knn_search(tree, np.zeros(3), 3, stats=agg)
        second = knn_search(tree, np.zeros(3), 3, stats=agg)
        assert first.stats.queries == 1
        assert second.stats.queries == 1
        assert first.stats is not agg and second.stats is not agg
        assert agg.queries == 2

    def test_merging_result_stats_does_not_double_count(self):
        tree = build_kdtree(np.empty((0, 3)))
        agg = QueryStats()
        result = knn_search(tree, np.zeros(3), 3, stats=agg)
        # A caller that merges result.stats into its own accumulator must see
        # exactly one query's worth of work.
        own = QueryStats()
        own.merge(result.stats)
        assert own.queries == 1

    def test_batch_stats_external_accumulator(self, tree_and_points):
        tree, _ = tree_and_points
        agg = QueryStats()
        _, _, returned = batch_knn(tree, np.zeros((5, 3)), 2, stats=agg)
        assert agg == returned
        assert agg is not returned


class TestQueryAcrossConfigurations:
    @pytest.mark.parametrize("config", [
        KDTreeConfig.flann_like(),
        KDTreeConfig.ann_like(),
        KDTreeConfig(bucket_size=8),
        KDTreeConfig(bucket_size=256),
        KDTreeConfig(split_dim_strategy="round_robin", split_value_strategy="exact_median"),
    ])
    def test_all_tree_variants_are_exact(self, config):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(1500, 3))
        queries = rng.normal(size=(50, 3))
        tree = build_kdtree(points, config=config)
        d, _, _ = batch_knn(tree, queries, 4)
        bd, _ = brute_force_knn(points, np.arange(points.shape[0]), queries, 4)
        assert np.allclose(d, bd)

    def test_high_dimensional_queries(self, dayabay_data):
        points, _ = dayabay_data
        rng = np.random.default_rng(7)
        queries = points[rng.choice(points.shape[0], size=40, replace=False)]
        tree = build_kdtree(points)
        d, _, _ = batch_knn(tree, queries, 5)
        bd, _ = brute_force_knn(points, np.arange(points.shape[0]), queries, 5)
        assert np.allclose(d, bd)


class TestRepeatedSplitDimensionBound:
    """Regression tests for the traversal lower bound on repeated split dims.

    The bound of a farther child must *replace* the crossed dimension's
    previous offset (exact box distance), not add another plane distance on
    top of it: summing overestimates the bound whenever an ancestor already
    split on the same dimension and wrongly prunes subtrees holding true
    neighbours.  One-dimensional data splits on the same dimension at every
    level, which makes it the sharpest trigger.
    """

    @pytest.mark.parametrize("seed,k", [(1, 3), (2, 5), (3, 3), (4, 4), (5, 5)])
    def test_1d_deep_trees_match_brute_force(self, seed, k):
        # Deep single-dimension trees queried from outside the domain: every
        # far-side descent crosses a plane on the already-crossed dimension,
        # so a summed bound overshoots by the previous offset squared.  Each
        # of these (seed, k) pairs returned a wrong neighbour set under the
        # old accumulation rule.
        rng = np.random.default_rng(seed)
        n = 24
        points = np.sort(rng.uniform(0, 100, size=n))[:, None]
        tree = build_kdtree(
            points, config=KDTreeConfig(bucket_size=1, split_value_strategy="exact_median")
        )
        queries = rng.uniform(-20, 120, size=(16, 1))
        ref_d, _ = brute_force_knn(points, np.arange(n), queries, k)
        d_vec, _, _ = batch_knn(tree, queries, k)
        assert np.allclose(d_vec, ref_d)
        for qi in range(queries.shape[0]):
            res = knn_search(tree, queries[qi], k)
            assert np.allclose(res.distances, ref_d[qi, : res.k_found])

    def test_clustered_3d_matches_brute_force(self):
        from repro.datasets.cosmology import cosmology_particles

        points = cosmology_particles(4000, seed=11)
        rng = np.random.default_rng(3)
        queries = points[rng.choice(4000, size=300, replace=False)] + rng.normal(
            scale=0.05, size=(300, 3)
        )
        tree = build_kdtree(points)
        ref_d, _ = brute_force_knn(points, np.arange(4000), queries, 8)
        d_vec, _, _ = batch_knn(tree, queries, 8)
        assert np.allclose(d_vec, ref_d)

    def test_bound_is_exact_box_distance_under_radius(self):
        # With the exact bound, a radius search must return every in-range
        # point even when the radius ball straddles repeated splits.
        rng = np.random.default_rng(9)
        points = np.sort(rng.uniform(0, 1, size=256))[:, None]
        tree = build_kdtree(points, config=KDTreeConfig(bucket_size=2))
        query = np.array([0.5])
        radius = 0.25
        in_range = np.flatnonzero(np.abs(points[:, 0] - query[0]) <= radius)
        res = knn_search(tree, query, k=in_range.size, radius=radius)
        assert res.k_found == in_range.size
