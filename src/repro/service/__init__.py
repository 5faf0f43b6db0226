"""Online KNN serving on top of the PANDA index.

The batch pipeline of the paper builds an index once and answers one big
query set; this package turns it into a *service*:

* :mod:`~repro.service.backends` — the index the service fronts: one
  local kd-tree that folds updates by re-packing under its split planes;
* :mod:`~repro.service.queue` — adaptive size-or-deadline micro-batching
  with per-request latency accounting, the one queue model of both doors;
* :mod:`~repro.service.service` — :class:`~repro.service.service.KNNService`
  itself: micro-batches through the vectorised batch query path, an LRU
  result cache with incremental invalidation, and streaming
  inserts/deletes with a policy-driven foreground fold and versioned
  on-disk snapshots;
* :mod:`~repro.service.delta` — the brute-force delta buffer and tombstone
  set that make streaming updates exact between rebuilds;
* :mod:`~repro.service.cache` — the LRU result cache;
* :mod:`~repro.service.trace` — open-loop arrival traces (uniform, bursty,
  hot-key) for the throughput benchmark and the exactness tests.

A kd-tree snapshot (:meth:`repro.kdtree.tree.KDTree.save`) warm-starts
the backend, so a service can come up without rebuilding its index.
"""

from repro.service.backends import LocalTreeBackend
from repro.service.cache import CacheStats, LRUCache
from repro.service.delta import DeltaBuffer
from repro.service.queue import MicroBatchPolicy, RecordRing, RequestRecord
from repro.service.service import KNNService, RebuildPolicy
from repro.service.trace import bursty_trace, hotkey_trace, uniform_trace

__all__ = [
    "KNNService",
    "MicroBatchPolicy",
    "RebuildPolicy",
    "RecordRing",
    "RequestRecord",
    "LocalTreeBackend",
    "DeltaBuffer",
    "LRUCache",
    "CacheStats",
    "uniform_trace",
    "bursty_trace",
    "hotkey_trace",
]
