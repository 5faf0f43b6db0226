"""Answer checking against a chunked NumPy brute force.

The oracle works on the benchmark's own model of the live set (the arrays it
generated, minus what it deleted, plus what it inserted) and shares no code
with the program.  An answer row is right when its distances equal the brute
force's within 1e-9 relative and every returned id really lies at the
distance reported for it; which of several points tied exactly at the k-th
distance is returned is free, as everywhere in this repository.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
#: Cells of one distance block: 8 MB, small enough to stay in cache.
_CHUNK_CELLS = 1_000_000


def brute_force(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Sorted distances to the ``k`` nearest of ``points`` per query row."""
    n_queries = queries.shape[0]
    k = min(k, points.shape[0])
    best = np.full((n_queries, k), np.inf)
    chunk = max(_CHUNK_CELLS // max(n_queries, 1), k)
    for lo in range(0, points.shape[0], chunk):
        block = points[lo : lo + chunk]
        d2 = np.zeros((n_queries, block.shape[0]))
        for dim in range(points.shape[1]):
            diff = queries[:, dim, None] - block[None, :, dim]
            d2 += diff * diff
        keep = min(k, block.shape[0])
        nearest = np.partition(d2, keep - 1, axis=1)[:, :keep]
        best = np.partition(np.concatenate([best, nearest], axis=1), k - 1, axis=1)[:, :k]
    return np.sqrt(np.sort(best, axis=1))


def wrong_rows(
    points: np.ndarray,
    ids: np.ndarray,
    queries: np.ndarray,
    got_d: np.ndarray,
    got_i: np.ndarray,
    k: int,
    want: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean mask of the answer rows that fail the check.

    ``points``/``ids`` are the live set; ``got_d``/``got_i`` the program's
    ``(n, k)`` answers for ``queries``; ``want`` a ``brute_force`` result
    computed earlier for the same arguments.
    """
    got_d = np.asarray(got_d, dtype=np.float64)
    got_i = np.asarray(got_i, dtype=np.int64)
    if want is None:
        want = brute_force(points, queries, k)
    k_live = want.shape[1]
    bad = ~np.isclose(np.sort(got_d, axis=1)[:, :k_live], want, rtol=RTOL, atol=ATOL).all(axis=1)

    order = np.argsort(ids, kind="stable")
    pos = np.clip(np.searchsorted(ids[order], got_i[:, :k_live]), 0, ids.size - 1)
    rows = order[pos]
    bad |= (ids[rows] != got_i[:, :k_live]).any(axis=1)
    bad |= (np.diff(np.sort(got_i[:, :k_live], axis=1), axis=1) == 0).any(axis=1)
    diff = points[rows] - queries[:, None, :]
    true_d = np.sqrt(np.einsum("qkd,qkd->qk", diff, diff))
    bad |= ~np.isclose(true_d, got_d[:, :k_live], rtol=RTOL, atol=ATOL).all(axis=1)
    return bad
