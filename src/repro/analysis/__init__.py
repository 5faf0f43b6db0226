"""Concurrency correctness toolkit: a static analyzer for the stack.

``python -m repro.analysis`` runs five repo-specific AST rules —
guarded-by, worker-purity, lock-order, determinism, published-mutation —
over ``src/`` with an annotated suppression file and a non-zero exit on
unsuppressed findings.  The rules read two kinds of declaration written
next to the code: class-level ``GUARDED_BY`` dicts and
``@exactness_path``.
"""

from .annotations import exactness_path
from .engine import CodeIndex, Finding, run_rules
from .suppressions import SuppressionError, apply_suppressions, load_suppressions

__all__ = [
    "CodeIndex",
    "Finding",
    "SuppressionError",
    "apply_suppressions",
    "exactness_path",
    "load_suppressions",
    "run_rules",
]
