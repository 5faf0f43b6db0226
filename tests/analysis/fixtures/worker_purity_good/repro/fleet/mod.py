"""A pure worker payload: compute unlocked, mutate only under a lock."""

import threading


class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def step(self, batch):
        total = sum(batch)
        with self._lock:
            self.total = total  # locked region: guarded-by territory, legal
        return total


def submit(executor, worker, batch):
    return executor.submit(RankTask(0, worker.step, (batch,)))  # noqa: F821
