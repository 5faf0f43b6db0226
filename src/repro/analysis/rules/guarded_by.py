"""Guarded-by rule: ``GUARDED_BY`` fields are only touched under their lock.

Two checks, both driven by the class-level ``GUARDED_BY`` declarations:

* **within the declaring class** — every load/store of ``self.<field>`` in a
  method must sit lexically inside ``with self.<lock>:``;
* **everywhere else** — a *store* to an attribute whose name is guarded by
  some class must sit inside *some* with-lock scope (cross-object writes
  like ``fleet._closed = True`` must take the object's lock; loads are
  left to the declaring class's own API discipline).

``__init__`` bodies are exempt: the object is not shared yet.
"""

from __future__ import annotations

import ast
from typing import List

from ..engine import CodeIndex, Finding, iter_with_held, stored_attributes

RULE = "guarded-by"
_EXEMPT_METHODS = {"__init__", "__post_init__", "__del__"}


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def guarded_by_rule(index: CodeIndex) -> List[Finding]:
    findings: List[Finding] = []

    for func in index.all_functions:
        if func.name in _EXEMPT_METHODS:
            continue
        own_guarded = {}
        if func.class_name is not None:
            cls = index.class_named(func.class_name)
            if cls is not None:
                own_guarded = cls.guarded_by

        for node, held in iter_with_held(func):
            # -- accesses of self.<field> in the declaring class ---------
            if _is_self_attr(node) and node.attr in own_guarded:
                lock_attr = own_guarded[node.attr]
                if f"self.{lock_attr}" not in held:
                    findings.append(
                        Finding(
                            rule=RULE,
                            path=func.relpath,
                            line=node.lineno,
                            symbol=func.qualname,
                            message=(
                                f"access of guarded field 'self.{node.attr}' outside "
                                f"'with self.{lock_attr}:' (declared in "
                                f"{func.class_name}.GUARDED_BY)"
                            ),
                            token=node.attr,
                        )
                    )
            # -- cross-object stores to any guarded field name -----------
            for target in stored_attributes(node):
                if _is_self_attr(target):
                    continue  # covered above (or the class author's own field)
                entries = index.guarded_fields.get(target.attr)
                if entries and not held:
                    owners = ", ".join(sorted({cls.name for cls, _ in entries}))
                    findings.append(
                        Finding(
                            rule=RULE,
                            path=func.relpath,
                            line=target.lineno,
                            symbol=func.qualname,
                            message=(
                                f"store to '{ast.unparse(target)}' outside any "
                                f"with-lock scope; '{target.attr}' is guarded "
                                f"(GUARDED_BY of {owners})"
                            ),
                            token=f"store:{target.attr}",
                        )
                    )

    return findings
