"""In-place mutation of arrays already handed to workers."""

import numpy as np


def publish(executor, queries, scratch):
    fut = executor.submit(RankTask(0, compute, (queries, scratch)))  # noqa: F821
    queries[0] = 0.0  # BAD: slice-assign after publish
    scratch += 1  # BAD: aug-assign after publish
    np.add(queries, 1.0, out=queries)  # BAD: out= into a published array
    scratch.fill(0.0)  # BAD: in-place method on a published array
    return fut
