"""Sharded serving fleet: region-routed scatter-gather over replicated shards.

The paper's thesis — KNN at extreme scale through space partitioning, so
each query touches only the ranks whose regions can hold a neighbour —
applied one level up, to a fleet of online services:

* :mod:`~repro.fleet.planner` — :class:`ShardPlanner` cuts the dataset into
  shard regions with the same recursive median splits as the global
  kd-tree's top levels (hash / round-robin fallbacks for geometry-free
  data);
* :mod:`~repro.fleet.replica` — :class:`ReplicaGroup` serves each shard
  from identical replicas: least-loaded reads, failure injection, retry on
  a replica dying mid-query;
* :mod:`~repro.fleet.router` — :class:`Router` answers by pruned
  scatter-gather: owner shard first, then only the shards whose region box
  intersects the k-th-distance ball, merged exactly;
* :mod:`~repro.fleet.admission` — bounded pending queue with shed/reject
  accounting;
* :mod:`~repro.fleet.dispatch` — the dispatch plane: every shard call is
  a :class:`ShardCall` the :class:`SerialDispatcher` runs synchronously,
  counts and (on a traced batch) records as a span;
* :mod:`~repro.fleet.fleet` — :class:`KNNFleet`, the front door tying the
  above together with micro-batching, one foreground fold per shard
  shared by its replicas, and fleet-wide aggregated statistics.

Fleet answers are exact: identical distances to one unsharded
:class:`~repro.service.service.KNNService` over the same live set.  Among
candidates tied at a distance each tree keeps the one met first in the
query's own DFS scan order and the router's merge keeps the owner's, then
the lower shard's, so which tied point is returned depends on the index
layout, never on how requests were batched.
"""

from repro.fleet.admission import AdmissionController, AdmissionPolicy, AdmissionStats
from repro.fleet.dispatch import (
    DispatchStats,
    SerialDispatcher,
    ShardCall,
)
from repro.fleet.fleet import KNNFleet, RequestRejectedError
from repro.fleet.planner import ShardPlan, ShardPlanner
from repro.fleet.replica import (
    Replica,
    ReplicaDeadError,
    ReplicaGroup,
    ShardUnavailableError,
)
from repro.fleet.router import Router, RouterStats

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionStats",
    "DispatchStats",
    "KNNFleet",
    "RequestRejectedError",
    "SerialDispatcher",
    "ShardCall",
    "ShardPlan",
    "ShardPlanner",
    "Replica",
    "ReplicaDeadError",
    "ReplicaGroup",
    "ShardUnavailableError",
    "Router",
    "RouterStats",
]
