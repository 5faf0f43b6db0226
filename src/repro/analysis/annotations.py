"""Source-level concurrency annotations the static analyzer understands.

These are deliberately *runtime no-ops*: they exist so the invariants that
used to live in commit messages ("workers only compute, merges happen in
the submitting thread", "this field is guarded by ``self._lock``") are
written next to the code they constrain and machine-checked by
``python -m repro.analysis``.

Two kinds of annotation:

``GUARDED_BY``
    A class-level dict mapping field name to the attribute name of the lock
    that guards it, e.g. ``GUARDED_BY = {"queue_depth": "_lock"}``.  The
    *guarded-by* rule then requires every access of ``self.queue_depth``
    inside the declaring class to sit lexically inside ``with self._lock:``,
    and every store to a field of that name anywhere else in the codebase
    to sit inside *some* with-lock scope.  ``__init__`` is exempt — the
    object is not shared yet.

:func:`exactness_path`
    Marks a function on the byte-exactness critical path (top-k merges,
    harvest/fold sections).  The *determinism* rule forbids wall-clock
    reads (``time.time``), randomness, and set-iteration-order dependence
    inside these functions: anything that could make two runs fold answers
    differently.
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


def exactness_path(fn: F) -> F:
    """Mark a function as part of the byte-exactness merge/fold path.

    Runtime no-op; consumed by the determinism rule.
    """
    fn.__exactness_path__ = True  # type: ignore[attr-defined]
    return fn
