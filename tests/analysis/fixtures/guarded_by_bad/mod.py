"""Guarded-by violations: unlocked access and unlocked cross-object store."""

import threading


class Counter:
    GUARDED_BY = {"count": "_lock"}

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        self.count += 1  # BAD: guarded field touched without the lock


def poke(counter):
    counter.count = 9  # BAD: cross-object store to a guarded field name
