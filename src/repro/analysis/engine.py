"""AST lint engine: a repo-specific index the concurrency rules run over.

This is not a general-purpose analyzer — it is grounded in this codebase's
conventions and is allowed to exploit them:

* locks are attributes whose name contains ``lock`` (``_lock``) created
  in ``__init__`` (or a dataclass field) from ``threading.Lock/RLock``;
* guarded state is declared in class-level ``GUARDED_BY`` dicts;
* receiver types are recovered from naming (``replica.answer`` resolves
  into class ``Replica``; ``self._dispatcher.close`` into the
  ``*Dispatcher`` family) — a deliberate heuristic, kept honest by capping
  how many candidates a bare method name may fan out to
  (:data:`MAX_FALLBACK_CANDIDATES`) so ubiquitous names resolve to nothing
  rather than to everything.

The :class:`CodeIndex` parses every ``*.py`` under a root once and exposes
classes, functions, ``GUARDED_BY`` registries, lock kinds and set-typed
attributes; :func:`iter_with_held` walks a function body tracking which
locks are lexically held at every node.  Rules are callables
``rule(index) -> list[Finding]`` registered in
:mod:`repro.analysis.rules`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: An attribute-call fallback (no receiver hint matched) resolving to more
#: than this many same-named functions is treated as unresolvable: edges
#: from ubiquitous names like ``submit``/``get`` would otherwise connect
#: everything to everything.
MAX_FALLBACK_CANDIDATES = 3

#: Method names never resolved through the name-based fallback: they are
#: overwhelmingly stdlib/container calls (futures, deques, dicts, arrays).
FALLBACK_DENYLIST = frozenset(
    {
        "get", "put", "pop", "popleft", "append", "appendleft", "add", "discard",
        "remove", "update", "clear", "copy", "extend", "insert", "index", "count",
        "items", "keys", "values", "sort", "reverse", "join", "split", "strip",
        "result", "cancel", "exception", "done", "cancelled", "add_done_callback",
        "set_result", "set_exception", "acquire", "release", "wait", "notify",
        "start", "terminate", "is_alive", "map", "mean", "max", "min", "sum",
        "astype", "ravel", "reshape", "tolist", "tobytes", "fill", "format",
    }
)


@dataclass(frozen=True)
class Finding:
    """One rule hit, with a line-number-independent suppression key."""

    rule: str
    path: str
    line: int
    symbol: str
    message: str
    token: str

    @property
    def key(self) -> str:
        """Stable identity: rule + file + enclosing symbol + rule token.

        Deliberately excludes the line number so suppressions survive
        unrelated edits to the same file.
        """
        return f"{self.rule}:{self.path}:{self.symbol}:{self.token}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class FunctionInfo:
    """One function or method, with its concurrency annotations."""

    relpath: str
    class_name: Optional[str]
    name: str
    node: ast.AST
    exactness: bool = False

    @property
    def qualname(self) -> str:
        return f"{self.class_name}.{self.name}" if self.class_name else self.name


@dataclass
class ClassInfo:
    """One class: its methods, ``GUARDED_BY`` registry and lock kinds."""

    relpath: str
    name: str
    node: ast.ClassDef
    guarded_by: Dict[str, str] = field(default_factory=dict)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: lock attribute -> "lock" | "rlock", recovered from construction sites.
    lock_kinds: Dict[str, str] = field(default_factory=dict)


def _decorator_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _decorator_name(node.func)
    return None


def _parse_function(node, relpath: str, class_name: Optional[str]) -> FunctionInfo:
    exactness = any(_decorator_name(dec) == "exactness_path" for dec in node.decorator_list)
    return FunctionInfo(
        relpath=relpath,
        class_name=class_name,
        name=node.name,
        node=node,
        exactness=exactness,
    )


def _parse_guarded_by(cls_node: ast.ClassDef) -> Dict[str, str]:
    for stmt in cls_node.body:
        target = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        else:
            continue
        if not (isinstance(target, ast.Name) and target.id == "GUARDED_BY"):
            continue
        if not isinstance(value, ast.Dict):
            continue
        guarded: Dict[str, str] = {}
        for key, val in zip(value.keys, value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(val, ast.Constant)
                and isinstance(val.value, str)
            ):
                guarded[key.value] = val.value
        return guarded
    return {}


_LOCK_FACTORIES = {"Lock": "lock", "RLock": "rlock"}


def _parse_lock_kinds(cls_node: ast.ClassDef) -> Dict[str, str]:
    """Map lock-ish attributes to lock/rlock from their construction sites.

    Covers ``self._lock = threading.RLock()`` in any method and dataclass
    fields like ``_lock: threading.Lock = field(default_factory=threading.Lock)``.
    """
    kinds: Dict[str, str] = {}
    for stmt in ast.walk(cls_node):
        attr = None
        value = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                attr = target.attr
            elif isinstance(target, ast.Name):
                attr = target.id
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Attribute):
                attr = stmt.target.attr
            elif isinstance(stmt.target, ast.Name):
                attr = stmt.target.id
            value = stmt.value
        if attr is None or "lock" not in attr or value is None:
            continue
        for call in ast.walk(value):
            if isinstance(call, ast.Call):
                name = _decorator_name(call.func)
                if name in _LOCK_FACTORIES:
                    kinds[attr] = _LOCK_FACTORIES[name]
    return kinds


def _is_setish(value: ast.AST) -> bool:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = _decorator_name(value.func)
        return name in ("set", "frozenset")
    return False


class CodeIndex:
    """Parsed view of every module under a root directory."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.modules: Dict[str, ast.Module] = {}
        self.classes: List[ClassInfo] = []
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self.module_functions: Dict[Tuple[str, str], FunctionInfo] = {}
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}
        self.all_functions: List[FunctionInfo] = []
        #: field name -> [(class, lock attr)] across every GUARDED_BY.
        self.guarded_fields: Dict[str, List[Tuple[ClassInfo, str]]] = {}
        #: attribute names ever assigned a set/frozenset (determinism rule).
        self.set_attrs: Set[str] = set()
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for path in sorted(self.root.rglob("*.py")):
            relpath = path.relative_to(self.root).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            self.modules[relpath] = tree
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = _parse_function(node, relpath, None)
                    self.module_functions[(relpath, info.name)] = info
                    self._register(info)
                elif isinstance(node, ast.ClassDef):
                    cls = ClassInfo(
                        relpath=relpath,
                        name=node.name,
                        node=node,
                        guarded_by=_parse_guarded_by(node),
                        lock_kinds=_parse_lock_kinds(node),
                    )
                    for sub in node.body:
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            info = _parse_function(sub, relpath, node.name)
                            cls.methods[info.name] = info
                            self._register(info)
                    self.classes.append(cls)
                    self.classes_by_name.setdefault(cls.name, []).append(cls)
                    for fname, lockattr in cls.guarded_by.items():
                        self.guarded_fields.setdefault(fname, []).append((cls, lockattr))
            for node in ast.walk(tree):
                target = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    target, value = node.target, node.value
                else:
                    continue
                if isinstance(target, ast.Attribute) and _is_setish(value):
                    self.set_attrs.add(target.attr)

    def _register(self, info: FunctionInfo) -> None:
        self.all_functions.append(info)
        self.functions_by_name.setdefault(info.name, []).append(info)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def class_named(self, name: str) -> Optional[ClassInfo]:
        matches = self.classes_by_name.get(name)
        return matches[0] if matches else None

    def lock_kind(self, class_name: Optional[str], lock_attr: str) -> str:
        """``lock`` / ``rlock`` for a class's lock attribute (lock if unknown)."""
        if class_name:
            for cls in self.classes_by_name.get(class_name, []):
                kind = cls.lock_kinds.get(lock_attr)
                if kind:
                    return kind
        return "lock"

    # ------------------------------------------------------------------
    # Receiver-hint call resolution
    # ------------------------------------------------------------------
    @staticmethod
    def _receiver_hint(expr: ast.AST) -> Optional[str]:
        """Trailing identifier of a receiver expression, lowercased.

        ``self.groups[shard]`` -> ``groups``; ``self._dispatcher`` ->
        ``dispatcher``; ``replica`` -> ``replica``.
        """
        if isinstance(expr, ast.Name):
            ident = expr.id
        elif isinstance(expr, ast.Attribute):
            ident = expr.attr
        elif isinstance(expr, (ast.Subscript, ast.Starred)):
            return CodeIndex._receiver_hint(expr.value)
        elif isinstance(expr, ast.Call):
            return CodeIndex._receiver_hint(expr.func)
        else:
            return None
        return ident.strip("_").split("_")[-1].lower()

    def _classes_for_hint(self, hint: str) -> List[ClassInfo]:
        out: List[ClassInfo] = []
        candidates = [hint]
        if hint.endswith("s"):
            candidates.append(hint[:-1])
        for cls in self.classes:
            lowered = cls.name.lower()
            if any(lowered == c or lowered.endswith(c) for c in candidates if c):
                out.append(cls)
        return out

    def resolve_callable(
        self, expr: ast.AST, current: Optional[FunctionInfo]
    ) -> List[FunctionInfo]:
        """Resolve a callable-valued expression to candidate functions.

        Used both for call sites and for function references passed as data
        (``RankTask(r, _local_knn_step, ...)``).  Unresolvable
        expressions (stdlib, numpy, too-ambiguous names) yield ``[]``.
        """
        if isinstance(expr, ast.Name):
            if current is not None:
                local = self.module_functions.get((current.relpath, expr.id))
                if local is not None:
                    return [local]
            matches = [
                f for f in self.functions_by_name.get(expr.id, []) if f.class_name is None
            ]
            return matches if 0 < len(matches) <= MAX_FALLBACK_CANDIDATES else []
        if isinstance(expr, ast.Attribute):
            attr = expr.attr
            base = expr.value
            if isinstance(base, ast.Name) and base.id == "self" and current is not None \
                    and current.class_name is not None:
                own = self.class_named(current.class_name)
                if own is not None and attr in own.methods:
                    return [own.methods[attr]]
            hint = self._receiver_hint(base)
            if hint:
                hinted = [
                    cls.methods[attr]
                    for cls in self._classes_for_hint(hint)
                    if attr in cls.methods
                ]
                if hinted:
                    return hinted
            if attr in FALLBACK_DENYLIST:
                return []
            matches = self.functions_by_name.get(attr, [])
            return list(matches) if 0 < len(matches) <= MAX_FALLBACK_CANDIDATES else []
        return []


# ----------------------------------------------------------------------
# Lexical lock tracking
# ----------------------------------------------------------------------
def lock_name_of(expr: ast.AST) -> Optional[str]:
    """Normalized lock name of a with-item: ``self.X`` -> ``"self.X"``,
    any other ``<base>.X`` -> ``"*.X"`` — for attributes containing "lock"."""
    if isinstance(expr, ast.Attribute) and "lock" in expr.attr:
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            return f"self.{expr.attr}"
        return f"*.{expr.attr}"
    return None


def iter_with_held(
    func: FunctionInfo,
) -> Iterator[Tuple[ast.AST, frozenset]]:
    """Yield ``(node, held_locks)`` over a function body.

    ``held_locks`` is a frozenset of normalized lock names (``"self._lock"``
    or ``"*._lock"``) lexically held at the node: the enclosing ``with``
    statements on lock-ish attributes.  Nested function/class definitions
    are not descended into — a closure body runs later, under whatever
    locks its eventual caller holds.
    """

    def walk(node: ast.AST, held: frozenset) -> Iterator[Tuple[ast.AST, frozenset]]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set()
            for item in node.items:
                yield item.context_expr, held
                yield from walk(item.context_expr, held)
                name = lock_name_of(item.context_expr)
                if name is not None:
                    acquired.add(name)
            inner = held | acquired
            for stmt in node.body:
                yield stmt, inner
                yield from walk(stmt, inner)
            return
        for child in ast.iter_child_nodes(node):
            yield child, held
            yield from walk(child, held)

    root = func.node
    for stmt in root.body:  # type: ignore[attr-defined]
        yield stmt, frozenset()
        yield from walk(stmt, frozenset())


def with_acquired_locks(node: ast.With) -> List[str]:
    """Normalized lock names acquired by one ``with`` statement."""
    out = []
    for item in node.items:
        name = lock_name_of(item.context_expr)
        if name is not None:
            out.append(name)
    return out


def stored_attributes(node: ast.AST) -> List[ast.Attribute]:
    """Attribute nodes written by an Assign/AugAssign/AnnAssign statement."""
    targets: List[ast.AST] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    out: List[ast.Attribute] = []
    for target in targets:
        if isinstance(target, ast.Attribute):
            out.append(target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            out.extend(t for t in target.elts if isinstance(t, ast.Attribute))
    return out


def run_rules(index: CodeIndex, rules: Sequence) -> List[Finding]:
    """Run every rule over the index; findings sorted by file and line."""
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule(index))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.token))
