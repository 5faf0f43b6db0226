"""Worker-purity rule: functions shipped to workers only compute.

The exactness contract of the rank executors: *workers only compute; all
merges and all state mutation happen in the submitting thread, in
submission order*.  This rule enforces the mutation half mechanically:

1. every ``RankTask(...)`` construction site is found and its ``step``
   argument resolved to concrete functions — the *worker roots* (a
   ``ShardCall`` is not one: it runs in the caller's thread);
2. from each root, calls are followed transitively, but only through
   *unlocked* code — a call made while lexically holding a lock leads into
   a serialized region that the guarded-by rule already polices;
3. inside that unlocked reachable set, any attribute store on ``self`` of
   a serving-stack class (``repro/fleet``, ``repro/service``, or any class
   declaring ``GUARDED_BY``), or to a field name registered in some
   ``GUARDED_BY``, is a violation.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from ..engine import (
    CodeIndex,
    Finding,
    FunctionInfo,
    iter_with_held,
    stored_attributes,
)

RULE = "worker-purity"
_TASK_CTORS = {"RankTask"}
_SERVING_PREFIXES = ("repro/fleet/", "repro/service/")


def _ctor_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _worker_fn_expr(call: ast.Call) -> ast.AST:
    for kw in call.keywords:
        if kw.arg == "step":
            return kw.value
    if len(call.args) >= 2:
        return call.args[1]
    return ast.Constant(value=None)


def find_worker_roots(index: CodeIndex) -> Set[Tuple[str, str]]:
    """(relpath, qualname) of every function passed as a RankTask payload
    anywhere in the codebase."""
    roots: Set[Tuple[str, str]] = set()
    for func in index.all_functions:
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call) and _ctor_name(node) in _TASK_CTORS:
                for resolved in index.resolve_callable(_worker_fn_expr(node), func):
                    roots.add((resolved.relpath, resolved.qualname))
    return roots


def _lookup(index: CodeIndex, key: Tuple[str, str]) -> Iterable[FunctionInfo]:
    for func in index.all_functions:
        if (func.relpath, func.qualname) == key:
            yield func


def _is_serving_self_store(index: CodeIndex, func: FunctionInfo) -> bool:
    if func.class_name is None:
        return False
    if func.relpath.startswith(_SERVING_PREFIXES):
        return True
    cls = index.class_named(func.class_name)
    return bool(cls is not None and cls.guarded_by)


def worker_purity_rule(index: CodeIndex) -> List[Finding]:
    findings: List[Finding] = []
    queue = sorted(find_worker_roots(index))
    visited: Set[Tuple[str, str]] = set()

    while queue:
        key = queue.pop()
        if key in visited:
            continue
        visited.add(key)
        for func in _lookup(index, key):
            if func.name == "__init__":
                continue  # constructing a fresh object is pure w.r.t. shared state
            for node, held in iter_with_held(func):
                if held:
                    continue  # locked region: serialized, guarded-by rule territory
                for target in stored_attributes(node):
                    is_self = (
                        isinstance(target.value, ast.Name) and target.value.id == "self"
                    )
                    flagged = (is_self and _is_serving_self_store(index, func)) or (
                        target.attr in index.guarded_fields
                    )
                    if flagged:
                        findings.append(
                            Finding(
                                rule=RULE,
                                path=func.relpath,
                                line=target.lineno,
                                symbol=func.qualname,
                                message=(
                                    f"worker-reachable function assigns "
                                    f"'{ast.unparse(target)}' outside any lock — "
                                    f"workers only compute; mutate state in the "
                                    f"submitting thread"
                                ),
                                token=f"store:{target.attr}",
                            )
                        )
                if isinstance(node, ast.Call):
                    for callee in index.resolve_callable(node.func, func):
                        queue.append((callee.relpath, callee.qualname))

    return findings
