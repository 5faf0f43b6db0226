"""A worker payload that mutates serving-stack state outside any lock."""


class Worker:
    def __init__(self):
        self.progress = 0

    def step(self, batch):
        self.progress = len(batch)  # BAD: unlocked store in a worker fn
        return sum(batch)


def submit(executor, worker, batch):
    return executor.submit(RankTask(0, worker.step, (batch,)))  # noqa: F821
