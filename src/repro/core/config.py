"""Configuration of the distributed PANDA index."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.kdtree.tree import KDTreeConfig


@dataclass(frozen=True)
class PandaConfig:
    """Parameters of distributed construction and querying.

    Attributes
    ----------
    local:
        Configuration of the per-rank local kd-tree (variance split
        dimension, sampled-histogram median by default).  Its leaf size
        follows the dimensionality rule of
        :class:`~repro.kdtree.tree.KDTreeConfig`: 32 up to 3-D, 128 from
        4-D on; :meth:`paper_defaults` pins the paper's 32.
    global_samples_per_rank:
        Points each rank samples when estimating the global split point
        (m = 256 in the paper).
    global_variance_samples:
        Points each rank samples for the global split-dimension variance
        estimate.
    query_batch_size:
        Queries processed per batch in the distributed query engine; the
        paper batches queries "to ensure load balance among nodes and better
        throughput overall".  Each batch costs every owner rank one
        lockstep local search, whose fixed per-iteration cost a small call
        cannot amortise.  On one rank's 125k-point share of a clustered 3-D
        set (one AMD EPYC core), that search took 18.6 us per query in
        1k-row calls, 12.3 us in 4k-row calls and 12.7 us in one 7.5k-row
        call.  32768 keeps each rank's call at thousands of rows: 30k
        queries over 500k points on 4 ranks run as one batch, not eight.
    k:
        Default number of neighbours returned by queries.
    binning:
        Histogram binning variant used by the global split ("subinterval"
        or "searchsorted").
    seed:
        Seed of the deterministic RNG used for all sampling.
    """

    local: KDTreeConfig = field(default_factory=KDTreeConfig)
    global_samples_per_rank: int = 256
    global_variance_samples: int = 1024
    query_batch_size: int = 32768
    k: int = 5
    binning: str = "subinterval"
    seed: int = 20160527

    def __post_init__(self) -> None:
        if self.global_samples_per_rank <= 0:
            raise ValueError(
                f"global_samples_per_rank must be positive, got {self.global_samples_per_rank}"
            )
        if self.global_variance_samples <= 0:
            raise ValueError(
                f"global_variance_samples must be positive, got {self.global_variance_samples}"
            )
        if self.query_batch_size <= 0:
            raise ValueError(f"query_batch_size must be positive, got {self.query_batch_size}")
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.binning not in ("subinterval", "searchsorted"):
            raise ValueError(f"unknown binning {self.binning!r}")

    def with_k(self, k: int) -> "PandaConfig":
        """Copy of this config with a different default ``k``."""
        return replace(self, k=k)

    def with_local(self, local: KDTreeConfig) -> "PandaConfig":
        """Copy of this config with a different local-tree configuration."""
        return replace(self, local=local)

    @staticmethod
    def paper_defaults() -> "PandaConfig":
        """The configuration described in Section III of the paper (leaf size 32)."""
        return PandaConfig(local=KDTreeConfig.panda())
