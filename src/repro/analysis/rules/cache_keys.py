"""R2 — cache-key completeness: every spec field reaches the digest.

The engine's artefact cache and the queue ledger address everything by
``cache_key`` digests over payload dictionaries.  The recurring bug class
(it forced version bumps in three past releases) is adding a field to a spec
dataclass — ``ModelSpec``, ``ScenarioSpec``, ``DefenseSpec``, an engine task
— without threading it into the payload expression, so two semantically
different configurations silently alias one cached artefact.

The check
---------
For every *digest-feeding function* — one that calls ``cache_key`` /
``unit_digest``, or whose name ends in ``_payload`` — the rule infers the
types of annotated parameters and one-level attribute chains (``unit.task``,
``unit.spec``) from the tree-wide dataclass index, then requires for each
monitored spec type used in the function that either

* an instance is embedded **whole** (used as a value, passed on to another
  payload builder, or serialised via ``.to_dict()``/``.as_dict()`` — the
  engine's ``_canonical`` expands every dataclass field), or
* every field of the type is individually accessed (aliases such as
  ``ModelTask.param_dict`` covering ``params`` count), except fields
  declared digest-irrelevant below.

Deleting ``payload["defense"] = task.defense`` from the engine — or adding a
new ``ModelTask`` field without touching ``_model_payload`` — makes this
rule fail (proven by fixture tests on a scratch copy of the tree).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from ...registry import LINT_RULES
from ..base import LintFinding, LintRule
from ..walker import SourceModule, SourceTree, annotation_base, call_name

__all__ = ["CacheKeyCompletenessRule"]

#: Spec/task dataclasses whose every field must reach the digests they feed.
_MONITORED = {
    "ModelSpec", "ScenarioSpec", "DefenseSpec", "ModelTask",
    "ExperimentSpec", "AttackScenario",
}

#: Property/method accesses that stand in for a field of the same object.
_FIELD_ALIASES: Dict[str, Dict[str, str]] = {
    "ModelTask": {"param_dict": "params"},
}

#: Fields deliberately excluded from digests, with the reason why.
_DIGEST_IRRELEVANT: Dict[str, Dict[str, str]] = {
    "ModelTask": {
        "label": "display-only: relabelled tasks share artefacts bit for bit"
    },
    "ModelSpec": {
        "label": "display-only: relabelled specs share artefacts bit for bit"
    },
    "ScenarioSpec": {
        "label": "display-only: relabelled specs share artefacts bit for bit"
    },
    "DefenseSpec": {
        "label": "display-only: relabelled specs share artefacts bit for bit"
    },
}

#: Method calls that serialise an object completely (field-complete embeds).
_WHOLE_SERIALIZERS = {"to_dict", "as_dict"}

#: Calls that mark a function as digest-feeding.
_DIGEST_CALLS = {"cache_key", "unit_digest"}


def _function_defs(module: SourceModule) -> List[ast.FunctionDef]:
    return [
        node
        for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _is_digest_feeder(node: ast.FunctionDef) -> bool:
    if node.name.endswith("_payload"):
        return True
    for inner in ast.walk(node):
        if isinstance(inner, ast.Call):
            name = call_name(inner)
            if name.rsplit(".", 1)[-1] in _DIGEST_CALLS:
                return True
    return False


def _is_value_embed(node: ast.AST, parent: Optional[ast.AST]) -> bool:
    """Whether using ``node`` under ``parent`` embeds the object as a value.

    ``spec is None`` checks, truthiness tests and ``not spec`` guards merely
    *inspect* the object — they must not count as field-complete embeds.
    """
    if isinstance(parent, ast.Compare):
        others = [parent.left, *parent.comparators]
        return not all(
            other is node
            or (isinstance(other, ast.Constant) and other.value is None)
            for other in others
        )
    if isinstance(parent, (ast.BoolOp, ast.UnaryOp)):
        return False
    if isinstance(parent, (ast.If, ast.While)) and parent.test is node:
        return False
    if isinstance(parent, ast.IfExp) and parent.test is node:
        return False
    return True


class _TypeEnv:
    """Types of names and one-level attribute chains inside one function."""

    def __init__(self, func: ast.FunctionDef, fields: Dict[str, Dict[str, Optional[str]]]):
        self.fields = fields
        self.names: Dict[str, str] = {}
        args = list(func.args.posonlyargs) + list(func.args.args) + list(func.args.kwonlyargs)
        for arg in args:
            base = annotation_base(arg.annotation)
            if base:
                self.names[arg.arg] = base
        # ``x = MonitoredClass(...)`` constructor assignments.
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                constructor = call_name(node.value).rsplit(".", 1)[-1]
                if constructor in fields:
                    self.names[node.targets[0].id] = constructor

    def type_of(self, node: ast.AST) -> Optional[str]:
        """Type of a ``Name`` or one-level ``Name.attr`` expression."""
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = self.names.get(node.value.id)
            if owner and owner in self.fields:
                return self.fields[owner].get(node.attr) or None
        return None


@LINT_RULES.register("R2", tags=("cache",), aliases=("cache-keys",))
class CacheKeyCompletenessRule(LintRule):
    """Cross-check spec dataclass fields against digest payload expressions."""

    rule_id = "R2"
    title = "cache-key completeness: every spec field reaches its digest"

    def check(self, tree: SourceTree) -> List[LintFinding]:
        fields_index = tree.dataclass_fields()
        findings: List[LintFinding] = []
        for module in tree.modules:
            for func in _function_defs(module):
                if not _is_digest_feeder(func):
                    continue
                findings.extend(self._check_function(module, func, fields_index))
        return findings

    def _check_function(
        self,
        module: SourceModule,
        func: ast.FunctionDef,
        fields_index: Dict[str, Dict[str, Optional[str]]],
    ) -> List[LintFinding]:
        env = _TypeEnv(func, fields_index)
        whole: Set[str] = set()
        accessed: Dict[str, Set[str]] = {}

        for node in ast.walk(func):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            typed = env.type_of(node)
            if typed not in _MONITORED or typed not in fields_index:
                continue
            parent = getattr(node, "parent", None)
            if isinstance(parent, ast.Attribute) and parent.value is node:
                # ``expr.attr`` — a field access, a whole-serialising call, or
                # a behavioural use (method/property).  Only accesses to
                # *declared fields* claim the object is serialised piecemeal;
                # ``task.defense.hardens_training`` or ``.build()`` must not
                # put the class on the hook in functions that merely branch
                # on it and delegate the embedding elsewhere.
                if parent.attr in _WHOLE_SERIALIZERS:
                    whole.add(typed)
                else:
                    alias = _FIELD_ALIASES.get(typed, {}).get(parent.attr, parent.attr)
                    if alias in fields_index[typed]:
                        accessed.setdefault(typed, set()).add(alias)
            elif _is_value_embed(node, parent):
                # Used as a value: dict entry, call argument, return, tuple —
                # the object is embedded (or handed on) whole.
                whole.add(typed)

        findings: List[LintFinding] = []
        for class_name in sorted(set(accessed) - whole):
            declared = set(fields_index[class_name])
            excluded = set(_DIGEST_IRRELEVANT.get(class_name, ()))
            missing = declared - accessed.get(class_name, set()) - excluded
            for field_name in sorted(missing):
                findings.append(
                    self.finding(
                        module,
                        func.lineno,
                        f"{class_name}.{field_name} is not threaded into the "
                        f"digest payload built by `{func.name}` — a spec "
                        "differing only in that field would alias the same "
                        "cached artefact",
                    )
                )
        return findings
