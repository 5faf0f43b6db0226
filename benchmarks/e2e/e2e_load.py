"""The benchmark's own load: points, queries, schedules and op scripts.

Everything is drawn with ``numpy.random.default_rng`` from ``--seed``; the
program under test only ever receives arrays.  The *shape* of the data (where
the clusters sit, how wide and how heavy they are) is part of each workload's
definition and fixed, so that two seeds give two samples of one workload and
not two workloads: seeding the shape too moved the 3-D query time by 13%
between seeds, against 5% with the shape fixed.
"""

from __future__ import annotations

import numpy as np

N_CENTRES = 64
BACKGROUND_SHARE = 0.10
_SHAPE_SEED = 20160527

# Independent random streams of one seed, so that shrinking one input (a
# smoke run) leaves the others as they were.
POINTS, QUERIES, SCHEDULE, OPS, SAMPLE, LEDGER = range(6)


def stream(seed: int, which: int, repeat: int = 0) -> np.random.Generator:
    """The ``which``-th independent generator of ``seed``.

    Traffic takes a generator of its own per ``repeat``: a p99 over 1,000
    queries moves 13% with the sample alone, so a run looks at as many
    samples as it makes repeats.
    """
    return np.random.default_rng([repeat, which, seed])


def shape_stream(*key: int) -> np.random.Generator:
    """A generator for what is part of a workload's definition and the same
    for every seed."""
    return np.random.default_rng([*key, _SHAPE_SEED])


class Mixture:
    """Gaussian mixture in the unit cube with a uniform background.

    64 centres, per-cluster sigma in [0.01, 0.03], Dirichlet(0.5) weights,
    plus 10% uniform background: clustered like the paper's cosmology data,
    with enough empty space that tree pruning matters.
    """

    def __init__(self, dims: int) -> None:
        shape = shape_stream(dims)
        self.dims = dims
        self.centres = shape.random((N_CENTRES, dims))
        self.sigmas = shape.uniform(0.01, 0.03, N_CENTRES)
        self.weights = shape.dirichlet(np.full(N_CENTRES, 0.5))

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` fresh points, shuffled so that no block is one cluster."""
        n_background = int(n * BACKGROUND_SHARE)
        labels = rng.choice(N_CENTRES, size=n - n_background, p=self.weights)
        clustered = self.centres[labels] + (
            rng.normal(size=(n - n_background, self.dims)) * self.sigmas[labels, None]
        )
        points = np.concatenate([clustered, rng.random((n_background, self.dims))])
        return points[rng.permutation(n)]


def jittered(rng: np.random.Generator, points: np.ndarray, n: int, scale: float) -> np.ndarray:
    """``n`` never-repeating queries: a random indexed point plus N(0, scale)."""
    rows = rng.integers(0, points.shape[0], size=n)
    return points[rows] + rng.normal(scale=scale, size=(n, points.shape[1]))


def zipf_rows(rng: np.random.Generator, n: int, universe: int, s: float) -> np.ndarray:
    """``n`` indices into a query universe, rank ``r`` drawn with weight r^-s."""
    weights = np.arange(1, universe + 1, dtype=np.float64) ** -s
    return rng.choice(universe, size=n, p=weights / weights.sum())


def poisson_due(rng: np.random.Generator, n: int, rate: float, start: float) -> np.ndarray:
    """Due times of ``n`` Poisson arrivals at ``rate`` per second after ``start``."""
    return start + np.cumsum(rng.exponential(1.0 / rate, size=n))


READ, INSERT, DELETE = range(3)


def op_kinds(n: int, mix: tuple) -> np.ndarray:
    """``n`` op kinds with exactly the (read, insert, delete) shares of
    ``mix``, in an order that is part of the workload and the same for every
    seed.  How the writes fall between the reads decides how many rebuilds a
    stream triggers and how many reads meet nearly full buffers; with the
    order seeded too, one script's ``read_p99_ms`` moved 31% between seeds
    and its ``write_mean_ms`` 17% on de-noised timings."""
    n_insert, n_delete = round(n * mix[1]), round(n * mix[2])
    kinds = np.repeat([READ, INSERT, DELETE], [n - n_insert - n_delete, n_insert, n_delete])
    return shape_stream(n).permutation(kinds)
