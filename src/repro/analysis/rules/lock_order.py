"""Lock-order rule: the static acquisition graph must be acyclic.

Nodes are class-scoped lock names (``KNNFleet._lock``; locks
acquired through a non-``self`` receiver collapse into a ``*.<attr>``
node).  An edge ``A -> B`` means some code path acquires B while lexically
holding A — either a nested ``with``, or a call made under A to a function
whose transitive *may-acquire* set contains B (computed to a fixpoint over
the conservative call resolution).

Reported findings:

* a **cycle** anywhere in the graph — a potential deadlock ordering;
* a **self-edge on a non-reentrant lock** — re-acquiring a plain
  ``threading.Lock`` already held is a guaranteed deadlock (RLock
  self-edges are dropped: re-entry is their point).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..engine import (
    CodeIndex,
    Finding,
    FunctionInfo,
    iter_with_held,
    with_acquired_locks,
)

RULE = "lock-order"

LockId = str  # "ClassName.attr" or "*.attr"
Site = Tuple[str, int, str]  # (path, line, symbol)


def _lock_id(name: str, func: FunctionInfo) -> LockId:
    scope, attr = name.split(".", 1)
    if scope == "self" and func.class_name is not None:
        return f"{func.class_name}.{attr}"
    if scope == "self":
        return f"{func.relpath}.{attr}"
    return f"*.{attr}"


def _direct_acquires(func: FunctionInfo) -> Set[LockId]:
    out: Set[LockId] = set()
    for node in ast.walk(func.node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for name in with_acquired_locks(node):
                out.add(_lock_id(name, func))
    return out


def _may_acquire(index: CodeIndex) -> Dict[Tuple[str, str], FrozenSet[LockId]]:
    """Fixpoint: locks possibly acquired during a call to each function."""
    may: Dict[Tuple[str, str], Set[LockId]] = {}
    calls: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
    for func in index.all_functions:
        key = (func.relpath, func.qualname)
        may[key] = _direct_acquires(func)
        callees: Set[Tuple[str, str]] = set()
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call):
                for callee in index.resolve_callable(node.func, func):
                    callees.add((callee.relpath, callee.qualname))
        calls[key] = callees
    changed = True
    while changed:
        changed = False
        for key, callees in calls.items():
            acc = may[key]
            before = len(acc)
            for callee_key in callees:
                acc |= may.get(callee_key, set())
            if len(acc) != before:
                changed = True
    return {key: frozenset(ids) for key, ids in may.items()}


def _is_reentrant(index: CodeIndex, lock_id: LockId) -> bool:
    scope, attr = lock_id.split(".", 1)
    return index.lock_kind(None if scope == "*" else scope, attr) == "rlock"


def lock_order_rule(index: CodeIndex) -> List[Finding]:
    may = _may_acquire(index)
    edges: Dict[Tuple[LockId, LockId], Site] = {}
    findings: List[Finding] = []

    def add_edge(held_id: LockId, acq_id: LockId, site: Site) -> None:
        if held_id == acq_id:
            if _is_reentrant(index, acq_id):
                return
            path, line, symbol = site
            findings.append(
                Finding(
                    rule=RULE,
                    path=path,
                    line=line,
                    symbol=symbol,
                    message=(
                        f"re-acquisition of non-reentrant lock '{acq_id}' while "
                        f"already held — guaranteed self-deadlock"
                    ),
                    token=f"self:{acq_id}",
                )
            )
            return
        edges.setdefault((held_id, acq_id), site)

    for func in index.all_functions:
        for node, held in iter_with_held(func):
            if not held:
                continue
            held_ids = {_lock_id(h, func) for h in held}
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for name in with_acquired_locks(node):
                    acq = _lock_id(name, func)
                    site = (func.relpath, node.lineno, func.qualname)
                    for held_id in held_ids:
                        add_edge(held_id, acq, site)
            elif isinstance(node, ast.Call):
                for callee in index.resolve_callable(node.func, func):
                    for acq in may.get((callee.relpath, callee.qualname), ()):
                        site = (func.relpath, node.lineno, func.qualname)
                        for held_id in held_ids:
                            add_edge(held_id, acq, site)

    findings.extend(_cycle_findings(edges))
    return findings


def _cycle_findings(edges: Dict[Tuple[LockId, LockId], Site]) -> List[Finding]:
    graph: Dict[LockId, Set[LockId]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())

    found: List[List[LockId]] = []
    color: Dict[LockId, int] = {}
    path: List[LockId] = []

    def visit(node: LockId) -> None:
        color[node] = 1
        path.append(node)
        for nxt in sorted(graph[node]):
            state = color.get(nxt, 0)
            if state == 0:
                visit(nxt)
            elif state == 1:
                found.append(path[path.index(nxt):])
        path.pop()
        color[node] = 2

    for node in sorted(graph):
        if color.get(node, 0) == 0:
            visit(node)

    findings: List[Finding] = []
    seen: Set[str] = set()
    for cycle in found:
        # Normalize rotation so the same cycle always yields the same token.
        pivot = cycle.index(min(cycle))
        ordered = cycle[pivot:] + cycle[:pivot]
        token = "->".join(ordered)
        if token in seen:
            continue
        seen.add(token)
        first_edge = (ordered[0], ordered[1 % len(ordered)])
        site = edges.get(first_edge)
        if site is None:  # pragma: no cover - defensive
            site = ("<graph>", 0, "<graph>")
        path_, line, symbol = site
        findings.append(
            Finding(
                rule=RULE,
                path=path_,
                line=line,
                symbol=symbol,
                message=(
                    "lock acquisition cycle (potential deadlock): "
                    + " -> ".join(ordered + [ordered[0]])
                ),
                token=f"cycle:{token}",
            )
        )
    return findings
