"""R5 — registry hygiene: literal, unique, catalog-safe component names.

Every registered name (``@LOCALIZERS.register("KNN")`` and its siblings on
the other registries) is part of the public contract: it appears in
``ExperimentSpec`` JSON files, queue-ledger manifests, store manifests and
the machine-readable catalogs served over HTTP.  The rule therefore
requires, for every registration call across the tree:

* the name (and every alias) is a **string literal** — a computed name can't
  be grepped, diffs silently, and may differ between processes;
* names/aliases are **unique per registry** (case-insensitive, matching the
  registries' casefolded lookup) across the whole tree — a duplicate would
  raise only at first lookup, in whatever process imports second;
* each name **round-trips through JSON** unchanged and carries no control
  characters or surrounding whitespace, so catalog documents, spec files and
  ledger manifests can embed it verbatim.
"""

from __future__ import annotations

import ast
import json
from typing import Dict, List, Optional, Tuple

from ...registry import LINT_RULES
from ..base import LintFinding, LintRule
from ..walker import SourceModule, SourceTree, call_name

__all__ = ["RegistryHygieneRule"]

#: Registration entry points -> the registry namespace they populate.
_REGISTER_FUNCS = {
    "LOCALIZERS.register": "localizer",
    "ATTACKS.register": "attack",
    "SCENARIOS.register": "scenario",
    "DEFENSES.register": "defense",
    "LINT_RULES.register": "lint rule",
}


def _literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _name_problem(name: str) -> Optional[str]:
    if name != name.strip():
        return "has surrounding whitespace"
    if not name:
        return "is empty"
    if any(ch in name for ch in "\n\r\t"):
        return "contains control characters"
    if json.loads(json.dumps(name)) != name:  # pragma: no cover - paranoia
        return "does not round-trip through JSON"
    return None


@LINT_RULES.register("R5", tags=("registry",), aliases=("registry-hygiene",))
class RegistryHygieneRule(LintRule):
    """Registered names must be literal, unique and JSON-catalog-safe."""

    rule_id = "R5"
    title = "registry hygiene: literal, unique, JSON-safe component names"

    def check(self, tree: SourceTree) -> List[LintFinding]:
        findings: List[LintFinding] = []
        #: (registry, casefolded name) -> first registration location
        seen: Dict[Tuple[str, str], str] = {}
        for module in tree.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                registry = _REGISTER_FUNCS.get(call_name(node))
                if registry is None:
                    continue
                findings.extend(self._check_call(module, node, registry, seen))
        return findings

    def _check_call(
        self,
        module: SourceModule,
        node: ast.Call,
        registry: str,
        seen: Dict[Tuple[str, str], str],
    ) -> List[LintFinding]:
        findings: List[LintFinding] = []
        if not node.args:
            return [
                self.finding(
                    module, node.lineno,
                    f"{registry} registration without a name argument",
                )
            ]
        name = _literal_str(node.args[0])
        if name is None:
            return [
                self.finding(
                    module, node.lineno,
                    f"{registry} name must be a string literal, not "
                    f"`{ast.unparse(node.args[0])}` — computed names can't be "
                    "grepped and may differ between processes",
                )
            ]
        labels: List[Tuple[str, str]] = [(name, "name")]
        for keyword in node.keywords:
            if keyword.arg != "aliases":
                continue
            if isinstance(keyword.value, (ast.Tuple, ast.List)):
                for element in keyword.value.elts:
                    alias = _literal_str(element)
                    if alias is None:
                        findings.append(
                            self.finding(
                                module, node.lineno,
                                f"{registry} '{name}': aliases must be string "
                                "literals",
                            )
                        )
                    else:
                        labels.append((alias, "alias"))
            else:
                findings.append(
                    self.finding(
                        module, node.lineno,
                        f"{registry} '{name}': aliases must be a literal "
                        "tuple/list of strings",
                    )
                )
        for label, role in labels:
            problem = _name_problem(label)
            if problem is not None:
                findings.append(
                    self.finding(
                        module, node.lineno,
                        f"{registry} {role} {label!r} {problem} — it must embed "
                        "verbatim in JSON catalogs and spec files",
                    )
                )
                continue
            key = (registry, label.casefold())
            location = f"{module.relpath}:{node.lineno}"
            first = seen.get(key)
            if first is None:
                seen[key] = location
            elif first != location:
                findings.append(
                    self.finding(
                        module, node.lineno,
                        f"{registry} {role} {label!r} is already registered at "
                        f"{first} — duplicate names raise only at first lookup, "
                        "in whichever process imports second",
                    )
                )
        return findings
