"""Source-tree walker for ``repro lint``: parsing, pragmas, AST helpers.

The walker turns a Python package directory into a :class:`SourceTree` of
parsed :class:`SourceModule` objects that every lint rule shares: one parse
per file, parent links annotated on every AST node, suppression pragmas
extracted, and a tree-wide index of dataclass definitions (which the
cache-key completeness rule uses for lightweight type inference).

Suppression pragmas
-------------------
A finding can be sanctioned in place with a justification comment::

    temp.write_text(payload)  # repro-lint: allow[R3] lease claim publishes via os.link

The pragma applies to findings of the listed rules on its own line, or — when
the comment stands alone on a line — to the line directly below it.  Several
rules may be listed (``allow[R1,R4]``).  Unlike the baseline file, a pragma
travels with the code it annotates, so refactors cannot orphan it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SourceModule",
    "SourceTree",
    "call_name",
    "annotation_base",
    "iter_parents",
]

#: ``# repro-lint: allow[R1,R3] optional justification text``
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*allow\[([A-Za-z0-9_,\s]+)\]:?\s*(.*?)\s*$"
)


def annotate_parents(tree: ast.AST) -> None:
    """Set a ``.parent`` attribute on every node of ``tree``."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]


def iter_parents(node: ast.AST) -> Iterator[ast.AST]:
    """Yield the ancestors of ``node``, innermost first (needs parent links)."""
    current = getattr(node, "parent", None)
    while current is not None:
        yield current
        current = getattr(current, "parent", None)


def call_name(node: ast.Call) -> str:
    """Dotted name of a call as written (``np.random.seed``, ``path.open``).

    Non-name constructs in the chain (subscripts, nested calls) truncate it;
    ``""`` is returned when the call target carries no usable name at all.
    """
    parts: List[str] = []
    target = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
    elif parts:
        # Chain rooted in a non-name (call/subscript): keep the attribute
        # path and mark the unknown root, e.g. ``?.open`` for Path(x).open.
        parts.append("?")
    return ".".join(reversed(parts))


def annotation_base(node: Optional[ast.AST]) -> Optional[str]:
    """Base class name of a type annotation (``Optional[DefenseSpec]`` → that).

    Unwraps ``Optional``/``Union`` to the first non-``None`` argument and
    string annotations to their text; generic containers resolve to the
    container name (``Tuple[...]`` → ``"Tuple"``), which monitored-type
    checks simply ignore.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        container = annotation_base(node.value)
        if container in ("Optional", "Union"):
            inner = node.slice
            elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            for element in elements:
                base = annotation_base(element)
                if base not in (None, "None"):
                    return base
            return None
        return container
    return None


@dataclass
class SourceModule:
    """One parsed source file of the linted tree."""

    path: Path  #: absolute file path
    relpath: str  #: posix path relative to the tree root's parent (``repro/...``)
    module: str  #: dotted module name (``repro.eval.engine``)
    tree: ast.Module
    lines: List[str]
    #: line number -> {rule id -> justification} from ``repro-lint`` pragmas
    suppressions: Dict[int, Dict[str, str]] = field(default_factory=dict)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def suppression(self, rule: str, lineno: int) -> Optional[str]:
        """Justification if ``rule`` is pragma-allowed at ``lineno``, else ``None``."""
        rules = self.suppressions.get(lineno)
        if rules is None:
            return None
        return rules.get(rule, rules.get("*"))


def _extract_suppressions(lines: List[str]) -> Dict[int, Dict[str, str]]:
    suppressions: Dict[int, Dict[str, str]] = {}
    for index, line in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(line)
        if not match:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        justification = match.group(2) or "suppressed in source"
        # A stand-alone comment sanctions the statement below it (skipping
        # the rest of its comment block); an end-of-line pragma sanctions
        # its own line.
        target = index
        if line.lstrip().startswith("#"):
            target = index + 1
            while target <= len(lines) and (
                not lines[target - 1].strip()
                or lines[target - 1].lstrip().startswith("#")
            ):
                target += 1
        bucket = suppressions.setdefault(target, {})
        for rule in rules:
            bucket[rule] = justification
    return suppressions


@dataclass
class SourceTree:
    """Every parsed module of one package directory, plus shared indices."""

    root: Path
    package: str
    modules: List[SourceModule]
    _by_relpath: Dict[str, SourceModule] = field(default_factory=dict)

    @classmethod
    def load(cls, root: Path, package: Optional[str] = None) -> "SourceTree":
        """Parse every ``*.py`` under ``root`` (a package directory)."""
        root = Path(root).resolve()
        if not root.is_dir():
            raise FileNotFoundError(f"lint root '{root}' is not a directory")
        package = package or root.name
        modules: List[SourceModule] = []
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
            annotate_parents(tree)
            lines = source.splitlines()
            relative = path.relative_to(root)
            relpath = (Path(package) / relative).as_posix()
            dotted = ".".join((package, *relative.with_suffix("").parts))
            if dotted.endswith(".__init__"):
                dotted = dotted[: -len(".__init__")]
            modules.append(
                SourceModule(
                    path=path,
                    relpath=relpath,
                    module=dotted,
                    tree=tree,
                    lines=lines,
                    suppressions=_extract_suppressions(lines),
                )
            )
        tree_obj = cls(root=root, package=package, modules=modules)
        tree_obj._by_relpath = {module.relpath: module for module in modules}
        return tree_obj

    def module_for(self, relpath: str) -> Optional[SourceModule]:
        return self._by_relpath.get(relpath)

    # -- shared indices -------------------------------------------------
    def dataclass_fields(self) -> Dict[str, Dict[str, Optional[str]]]:
        """``{class name: {field name: annotation base}}`` for every dataclass.

        A class counts as a dataclass when decorated with ``dataclass`` /
        ``dataclasses.dataclass`` (bare or called), or when it subclasses one
        (a base named by its simple name).  Mirroring
        :func:`dataclasses.fields`, a class has its dataclass bases' fields
        and then, when decorated, its own annotated class-body assignments;
        ``ClassVar`` annotations are skipped.
        """
        #: name -> (base names, own fields; None when not decorated).
        classes: Dict[str, Tuple[List[Optional[str]], Optional[Dict[str, Optional[str]]]]] = {}
        for module in self.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                own: Optional[Dict[str, Optional[str]]] = None
                if any(
                    _decorator_name(decorator) in ("dataclass", "dataclasses.dataclass")
                    for decorator in node.decorator_list
                ):
                    own = {}
                    for statement in node.body:
                        if not isinstance(statement, ast.AnnAssign):
                            continue
                        if not isinstance(statement.target, ast.Name):
                            continue
                        if annotation_base(statement.annotation) == "ClassVar":
                            continue
                        own[statement.target.id] = annotation_base(statement.annotation)
                # The first decorated definition of a name wins.
                previous = classes.get(node.name)
                if previous is None or (previous[1] is None and own is not None):
                    classes[node.name] = ([annotation_base(b) for b in node.bases], own)

        resolved: Dict[str, Optional[Dict[str, Optional[str]]]] = {}

        def fields_of(name: Optional[str], visiting: Tuple[str, ...]):
            if name in resolved:
                return resolved[name]
            if name is None or name not in classes or name in visiting:
                return None
            bases, own = classes[name]
            inherited = [fields_of(base, visiting + (name,)) for base in reversed(bases)]
            fields: Optional[Dict[str, Optional[str]]] = None
            if own is not None or any(f is not None for f in inherited):
                fields = {}
                for base_fields in inherited:
                    fields.update(base_fields or {})
                fields.update(own or {})
            resolved[name] = fields
            return fields

        index: Dict[str, Dict[str, Optional[str]]] = {}
        for name in classes:
            fields = fields_of(name, ())
            if fields is not None:
                index[name] = fields
        return index


def _decorator_name(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def module_imports(tree: ast.Module) -> Dict[str, str]:
    """Top-level import bindings: local name -> imported dotted origin."""
    bindings: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bindings[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            prefix = node.module or ""
            for alias in node.names:
                bindings[alias.asname or alias.name] = f"{prefix}.{alias.name}"
    return bindings
