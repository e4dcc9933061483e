"""R3 — atomic-write discipline in durable-state modules.

Everything readers may observe concurrently or survive a crash through —
cache artefacts, queue-ledger manifests and unit states, store manifests,
exported result CSVs — must be written via :func:`repro.atomic.write_atomic`
(temp file + ``os.replace``).  A bare ``open(path, "w")`` in one of these
modules is a torn-file bug waiting for a SIGKILL.

The rule flags every write-capable call (``open``/``.open`` with a
``w``/``a``/``x`` mode, ``json.dump``, ``pickle.dump``, ``np.save*``,
``.write_text``/``.write_bytes``) inside the durable-state modules, unless
the call happens

* inside :func:`write_atomic` / :func:`write_text_atomic` themselves, or
* inside a writer function (or lambda) that is passed to
  ``write_atomic``/``write_text_atomic`` in the same module — the canonical
  ``def writer(temp_path): ...`` pattern.

Deliberate non-atomic writes (the queue's lease-claim temp file that is
published via ``os.link``, the store's advisory-lock file) carry
``# repro-lint: allow[R3]`` pragmas with their justification.
"""

from __future__ import annotations

import ast
from typing import List, Set

from ...registry import LINT_RULES
from ..base import LintFinding, LintRule
from ..walker import SourceModule, SourceTree, call_name, iter_parents

__all__ = ["AtomicWriteRule"]

#: Modules whose files are shared durable state (prefix or exact match).
_SCOPES = (
    "repro/atomic.py",
    "repro/queue/",
    "repro/serve/store.py",
    "repro/serve/aio/",
    "repro/eval/engine.py",
    "repro/data/io.py",
    "repro/eval/reporting.py",
    "repro/obs/",
)

#: The sanctioned atomic-write entry points.
_ATOMIC_FUNCS = {"write_atomic", "write_text_atomic"}

#: Calls that serialise straight to a path/handle.
_DIRECT_WRITERS = {
    "json.dump", "pickle.dump", "np.save", "np.savez", "np.savez_compressed",
    "numpy.save", "numpy.savez", "numpy.savez_compressed",
}

_WRITE_MODES = ("w", "a", "x")


def _open_mode(node: ast.Call, name: str) -> str:
    """The mode string of an ``open``/``.open`` call; ``"r"`` when absent."""
    mode_arg: ast.AST | None = None
    position = 1 if name == "open" else 0  # builtin open(path, mode) vs Path.open(mode)
    if len(node.args) > position:
        mode_arg = node.args[position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_arg = keyword.value
    if isinstance(mode_arg, ast.Constant) and isinstance(mode_arg.value, str):
        return mode_arg.value
    return "r" if mode_arg is None else "?"


def _sanctioned_writers(module: SourceModule) -> Set[ast.AST]:
    """Function/lambda nodes whose writes are covered by ``write_atomic``.

    Covers the atomic entry points themselves plus every local function or
    lambda passed as an argument to one of them.
    """
    sanctioned_names: Set[str] = set()
    sanctioned_nodes: Set[ast.AST] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in _ATOMIC_FUNCS:
                sanctioned_nodes.add(node)
        elif isinstance(node, ast.Call):
            if call_name(node).rsplit(".", 1)[-1] not in _ATOMIC_FUNCS:
                continue
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                if isinstance(arg, ast.Name):
                    sanctioned_names.add(arg.id)
                elif isinstance(arg, ast.Lambda):
                    sanctioned_nodes.add(arg)
    for node in ast.walk(module.tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in sanctioned_names
        ):
            sanctioned_nodes.add(node)
    return sanctioned_nodes


@LINT_RULES.register("R3", tags=("durability",), aliases=("atomic-writes",))
class AtomicWriteRule(LintRule):
    """Durable-state writes must route through ``write_atomic``."""

    rule_id = "R3"
    title = "atomic writes: durable state goes through write_atomic"

    def check(self, tree: SourceTree) -> List[LintFinding]:
        findings: List[LintFinding] = []
        for module in tree.modules:
            if not module.relpath.startswith(_SCOPES):
                continue
            sanctioned = _sanctioned_writers(module)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                description = self._write_description(node, name)
                if description is None:
                    continue
                if any(parent in sanctioned for parent in iter_parents(node)):
                    continue
                findings.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"{description} outside write_atomic — a killed writer "
                        "leaves a torn file for concurrent readers; route it "
                        "through repro.atomic.write_atomic",
                    )
                )
        return findings

    @staticmethod
    def _write_description(node: ast.Call, name: str) -> str | None:
        if not name:
            return None
        tail = name.rsplit(".", 1)[-1]
        if tail == "open":
            mode = _open_mode(node, name)
            if mode == "?":
                # Non-constant mode: flag only the builtin — a bare `open`
                # always opens a file, whereas `.open` may be an unrelated
                # method (``RunLedger.open(cache, run_id)``).
                return f"write-mode `{name}(..., {mode!r})`" if name == "open" else None
            if mode.startswith(_WRITE_MODES):
                return f"write-mode `{name}(..., {mode!r})`"
            return None
        if name in _DIRECT_WRITERS:
            return f"direct serialisation `{name}(...)`"
        if tail in ("write_text", "write_bytes"):
            return f"path write `{name}(...)`"
        return None
