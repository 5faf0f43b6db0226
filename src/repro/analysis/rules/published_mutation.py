"""Published-array mutation rule: never write in place to what workers read.

When a function hands arrays to workers — the ``args`` of a
``RankTask(...)`` — those arrays are *published*:
thread workers alias the submitting thread's memory, and the
shared-memory process executor snapshots it on a schedule the submitter
must not race.  From the first publication site onward, this rule flags
in-place mutation of any published name within the same function:

* slice/element assignment (``arr[rows] = ...``),
* augmented assignment (``arr += ...``, ``arr[rows] += ...``),
* ``out=<published>`` keyword arguments to numpy calls,
* in-place method calls (``arr.fill(...)``, ``arr.sort()``, ...).

Mutations *before* the first publish are legal (building the payload);
rebinding the name (``arr = arr + 1``) is legal (the workers keep the old
object).  Names are collected from the whole ``args`` expression, so
tuple payloads like ``(queries, k, at)`` track every element.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from ..engine import CodeIndex, Finding

RULE = "published-mutation"
_TASK_CTORS = {"RankTask"}
_INPLACE_METHODS = {"fill", "sort", "partition", "put", "itemset", "resize", "byteswap", "setflags"}


def _ctor_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _args_expr(call: ast.Call):
    for kw in call.keywords:
        if kw.arg == "args":
            yield kw.value
            return
    if len(call.args) >= 3:
        yield call.args[2]


def _published_names(expr: ast.AST) -> Set[str]:
    """Names and ``self.<attr>`` references inside a payload expression."""
    out: Set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                out.add(f"self.{node.attr}")
    return out


def _base_name(expr: ast.AST) -> str:
    """Published-name key of a mutation target's base, or ''."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
            and expr.value.id == "self":
        return f"self.{expr.attr}"
    if isinstance(expr, ast.Subscript):
        return _base_name(expr.value)
    return ""


def published_mutation_rule(index: CodeIndex) -> List[Finding]:
    findings: List[Finding] = []
    for func in index.all_functions:
        published: Dict[str, int] = {}  # name -> first publish line
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call) and _ctor_name(node) in _TASK_CTORS:
                for expr in _args_expr(node):
                    for name in _published_names(expr):
                        line = published.get(name, node.lineno)
                        published[name] = min(line, node.lineno)
        if not published:
            continue

        def check(target: ast.AST, node: ast.AST, how: str) -> None:
            name = _base_name(target)
            first = published.get(name)
            if first is not None and node.lineno >= first:
                findings.append(
                    Finding(
                        rule=RULE,
                        path=func.relpath,
                        line=node.lineno,
                        symbol=func.qualname,
                        message=(
                            f"in-place mutation ({how}) of '{name}' after it was "
                            f"published to workers at line {first}; copy before "
                            f"mutating or mutate before publishing"
                        ),
                        token=f"{how}:{name}",
                    )
                )

        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        check(target, node, "slice-assign")
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Subscript):
                    check(node.target, node, "aug-assign")
                elif isinstance(node.target, (ast.Name, ast.Attribute)):
                    check(node.target, node, "aug-assign")
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "out":
                        check(kw.value, node, "out=")
                f = node.func
                if isinstance(f, ast.Attribute) and f.attr in _INPLACE_METHODS:
                    check(f.value, node, f".{f.attr}()")
    return findings
