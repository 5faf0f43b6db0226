"""Legal payload handling: mutate before publishing, rebind after."""


def publish(executor, queries, scratch):
    queries[0] = 0.0  # fine: the payload is still private
    scratch.fill(0.0)  # fine: not yet published
    fut = executor.submit(RankTask(0, compute, (queries, scratch)))  # noqa: F821
    queries = queries + 1.0  # fine: rebinding, workers keep the old object
    return fut, queries
