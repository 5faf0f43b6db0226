"""Structure-of-arrays leaf-scan kernels.

The kd-tree finaliser permutes points into leaf order, so every leaf owns a
contiguous ``[start, start+count)`` slice of the point array.
:attr:`repro.kdtree.tree.KDTree.columns` holds the *transposed* layout —
one contiguous float64 column per dimension — so a leaf scan streams
``count`` consecutive values per dimension (cache-line-aligned runs) and
the lockstep engine gathers flat 1-D columns instead of ``(count, dims)``
row blocks.

Two scan kernels live here, one for each query engine:

- :func:`scan_columns_sq` — row-by-row engine: contiguous column slices.
- :func:`gather_columns_sq` — lockstep engine: fancy-indexed column gathers.

Both accumulate ``sum_d (x_d - q_d)**2`` with *identical* per-dimension
ordering (dim 0, then 1, ...), so they are IEEE bit-identical per element.
That shared ordering is what keeps the vectorized-vs-scalar byte-equality
tests exact: the two engines no longer merely agree mathematically, they
execute the same floating-point op sequence per candidate.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.annotations import exactness_path

__all__ = ["gather_columns_sq", "scan_columns_sq"]


@exactness_path
def scan_columns_sq(coords: np.ndarray, start: int, count: int, query: np.ndarray) -> np.ndarray:
    """Squared distances from ``query`` to one leaf's contiguous columns.

    ``coords`` is a ``(dims, n)`` column block, ``query`` a ``(dims,)``
    vector.  Accumulates per dimension in index order — the canonical op
    sequence shared with :func:`gather_columns_sq`.
    """
    end = start + count
    acc = np.zeros(count, dtype=coords.dtype)
    for d in range(coords.shape[0]):
        diff = coords[d, start:end] - query[d]
        acc += diff * diff
    return acc


@exactness_path
def gather_columns_sq(coords: np.ndarray, idx: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Squared distances for a batch of gathered leaf candidates.

    ``idx`` is an ``(m, cmax)`` int array of point indices (padded entries
    may repeat index 0 — callers mask them out), ``queries`` an
    ``(m, dims)`` array.  Element ``(i, j)`` executes exactly the op
    sequence of :func:`scan_columns_sq` on point ``idx[i, j]`` and query
    ``i``, so the two engines match bit-for-bit.
    """
    acc = np.zeros(idx.shape, dtype=coords.dtype)
    for d in range(coords.shape[0]):
        diff = coords[d][idx] - queries[:, d, None]
        acc += diff * diff
    return acc
