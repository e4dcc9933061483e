"""R4 — shared mutable state: module-level containers must be race-safe.

Queue workers can be threads in one process, and the serving layer runs
micro-batcher flusher threads and an executor pool — any module-level
dict/list/set that functions mutate is shared across all of them.  The rule requires every *mutated* module-level container to be

* a ``threading.local`` (or an instance of a ``threading.local`` subclass
  defined in the same module), or
* lock-guarded: every mutation site sits inside a ``with <lock>:`` block
  over a module-level ``threading.Lock``/``RLock``, or
* explicitly annotated with ``# repro-lint: allow[R4] <why>``.

Containers that are never mutated in their module (lookup tables like
``PAPER_DEVICES``) pass: they are constants in all but type.  Instance
attributes are out of scope — per-object state is the owning class's
concern (e.g. ``EndpointStats`` guards its own lock).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ...registry import LINT_RULES
from ..base import LintFinding, LintRule
from ..walker import SourceModule, SourceTree, call_name, iter_parents

__all__ = ["SharedStateRule"]

_CONTAINER_CALLS = {
    "dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter",
    "collections.defaultdict", "collections.OrderedDict", "collections.deque",
    "collections.Counter",
}

_MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "appendleft", "extendleft",
}

_LOCK_CALLS = {"threading.Lock", "threading.RLock", "Lock", "RLock"}
_LOCAL_CALLS = {"threading.local", "local"}


def _local_subclasses(module: SourceModule) -> Set[str]:
    """Names of classes in ``module`` inheriting from ``threading.local``."""
    names: Set[str] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for base in node.bases:
            base_name = (
                base.attr if isinstance(base, ast.Attribute)
                else base.id if isinstance(base, ast.Name)
                else ""
            )
            if base_name == "local":
                names.add(node.name)
    return names


def _module_globals(
    module: SourceModule,
) -> Tuple[Dict[str, int], Set[str]]:
    """(mutable container globals -> lineno, lock names) at module level."""
    containers: Dict[str, int] = {}
    locks: Set[str] = set()
    local_classes = _local_subclasses(module)
    for node in module.tree.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        name = target.id
        if name.startswith("__") and name.endswith("__"):
            continue  # __all__ and friends are import-time constants
        if isinstance(value, ast.Call):
            constructor = call_name(value)
            if constructor in _LOCK_CALLS:
                locks.add(name)
                continue
            if constructor in _LOCAL_CALLS or constructor in local_classes:
                continue  # thread-local: safe by construction
            if constructor in _CONTAINER_CALLS:
                containers[name] = node.lineno
        elif isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                ast.ListComp, ast.SetComp)):
            containers[name] = node.lineno
    return containers, locks


def _binding_names(target: ast.AST) -> Set[str]:
    """Names *rebound* by an assignment target.

    ``x = ...`` and ``x, y = ...`` bind; ``x[k] = ...`` and ``x.a = ...``
    mutate the existing object and bind nothing.
    """
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: Set[str] = set()
        for element in target.elts:
            names |= _binding_names(element)
        return names
    if isinstance(target, ast.Starred):
        return _binding_names(target.value)
    return set()


def _shadowed_in(func: ast.AST, name: str) -> bool:
    """Whether ``name`` is rebound as a local inside ``func`` (no ``global``)."""
    has_global = any(
        isinstance(node, ast.Global) and name in node.names
        for node in ast.walk(func)
    )
    if has_global:
        return False
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, (ast.For, ast.comprehension)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if name in _binding_names(target):
                return True
    return False


def _enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    for parent in iter_parents(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return parent
    return None


def _mutation_sites(module: SourceModule, name: str) -> List[ast.AST]:
    """AST nodes that mutate the module-level container ``name``."""
    sites: List[ast.AST] = []
    for node in ast.walk(module.tree):
        matched: Optional[ast.AST] = None
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == name
                ):
                    matched = node
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == name
                ):
                    matched = node
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Name)
                and func.value.id == name
            ):
                matched = node
        if matched is None:
            continue
        enclosing = _enclosing_function(matched)
        if enclosing is not None and _shadowed_in(enclosing, name):
            continue  # a same-named local, not the module global
        sites.append(matched)
    return sites


def _lock_guarded(node: ast.AST, locks: Set[str]) -> bool:
    for parent in iter_parents(node):
        if isinstance(parent, ast.With):
            for item in parent.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id in locks:
                    return True
    return False


@LINT_RULES.register("R4", tags=("thread-safety",), aliases=("shared-state",))
class SharedStateRule(LintRule):
    """Mutated module-level containers must be thread-local or lock-guarded."""

    rule_id = "R4"
    title = "shared state: mutated module globals need a lock or threading.local"

    def check(self, tree: SourceTree) -> List[LintFinding]:
        findings: List[LintFinding] = []
        for module in tree.modules:
            containers, locks = _module_globals(module)
            for name in sorted(containers):
                for site in _mutation_sites(module, name):
                    if _lock_guarded(site, locks):
                        continue
                    findings.append(
                        self.finding(
                            module,
                            site.lineno,
                            f"module-level container `{name}` is mutated without "
                            "holding a module-level lock — make it "
                            "threading.local, guard every mutation with one "
                            "lock, or annotate the deliberate exception",
                        )
                    )
        return findings
