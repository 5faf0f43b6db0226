"""Clean guarded-by discipline: every touch under the declared lock."""

import threading


class Counter:
    GUARDED_BY = {"count": "_lock"}

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1


def poke(counter):
    with counter._lock:
        counter.count = 9
