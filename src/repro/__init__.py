"""repro — reproduction of PANDA: extreme-scale parallel KNN on distributed architectures.

The package re-implements, in Python, the system described in

    Patwary et al., "PANDA: Extreme Scale Parallel K-Nearest Neighbor on
    Distributed Architectures", IPDPS 2016 (arXiv:1607.08220)

together with every substrate it depends on: a simulated distributed-memory
cluster with full communication accounting and an analytic cost model
(:mod:`repro.cluster`), the kd-tree construction/query kernels
(:mod:`repro.kdtree`), the distributed construction and query protocol that
is the paper's contribution (:mod:`repro.core`), the baselines it compares
against (:mod:`repro.baselines`), synthetic analogues of its science
datasets (:mod:`repro.datasets`), and the experiment drivers regenerating
every table and figure of the evaluation (:mod:`repro.experiments`, driven
by the ``benchmarks/`` harness).

Quick start
-----------
>>> import numpy as np
>>> from repro import PandaKNN
>>> points = np.random.default_rng(0).normal(size=(5000, 3))
>>> index = PandaKNN(n_ranks=4).fit(points)
>>> distances, ids = index.kneighbors(points[:10], k=5)
>>> distances.shape
(10, 5)
"""

from repro.cluster import Cluster, CostModel, MachineSpec
from repro.core import (
    KNNClassifier,
    KNNRegressor,
    PandaConfig,
    PandaKNN,
    ReplicatedKNN,
)
from repro.fleet import AdmissionPolicy, KNNFleet, ShardPlanner
from repro.kdtree import KDTree, KDTreeConfig, batch_knn, brute_force_knn, build_kdtree, knn_search
from repro.service import KNNService, LocalTreeBackend, MicroBatchPolicy, RebuildPolicy

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Cluster",
    "CostModel",
    "MachineSpec",
    "PandaKNN",
    "ReplicatedKNN",
    "PandaConfig",
    "KNNClassifier",
    "KNNRegressor",
    "KDTree",
    "KDTreeConfig",
    "build_kdtree",
    "knn_search",
    "batch_knn",
    "brute_force_knn",
    "KNNService",
    "MicroBatchPolicy",
    "RebuildPolicy",
    "LocalTreeBackend",
    "KNNFleet",
    "ShardPlanner",
    "AdmissionPolicy",
]
