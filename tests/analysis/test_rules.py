"""Fixture-driven tests of the five ``repro lint`` rules.

Each rule gets a *bad* scratch snippet it must flag and a *good* one it must
pass, written into a throwaway package tree shaped like ``repro/`` so the
rules' module scoping applies exactly as it does on the live tree.
"""

from __future__ import annotations

import textwrap
from typing import Dict, Optional, Sequence

import pytest

from repro.analysis import run_lint
from repro.registry import available_lint_rules


def lint_tree(tmp_path, files: Dict[str, str], rules: Optional[Sequence[str]] = None):
    """Write ``files`` (relative path -> source) under a scratch ``repro/`` tree."""
    root = tmp_path / "repro"
    for relative, source in files.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return run_lint(root=root, rules=rules)


def test_all_five_rules_registered():
    assert available_lint_rules() == ["R1", "R2", "R3", "R4", "R5"]


# -- R1: determinism -----------------------------------------------------


def test_r1_flags_legacy_rng_stdlib_random_and_wallclock(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "nn/bad.py": """\
            import random
            import time

            import numpy as np

            def jitter(x):
                random.random()
                np.random.normal(0.0, 1.0)
                return x + time.time()
            """
        },
        rules=["R1"],
    )
    messages = [f.message for f in report.findings]
    assert len(messages) == 3
    assert any("random.random" in m for m in messages)
    assert any("np.random.normal" in m for m in messages)
    assert any("time.time" in m for m in messages)


def test_r1_passes_seeded_generators_and_out_of_scope_modules(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "nn/good.py": """\
            import numpy as np

            def jitter(rng: np.random.Generator, x):
                return x + rng.normal(0.0, 1.0)
            """,
            # The serving layer measures latency: wall-clock is in scope there.
            "serve/metrics.py": """\
            import time

            def stamp():
                return time.time()
            """,
            # The queue's lease TTLs are wall-clock by design.
            "queue/lease.py": """\
            import time

            def now():
                return time.time()
            """,
        },
        rules=["R1"],
    )
    assert report.findings == []


# -- R2: cache-key completeness ------------------------------------------

_R2_COMMON = """\
    from dataclasses import dataclass
    from typing import Optional

    @dataclass(frozen=True)
    class ModelTask:
        label: str
        name: str
        params: dict
        defense: Optional[str] = None

"""


def test_r2_flags_spec_field_missing_from_payload(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "eval/keys.py": _R2_COMMON
            + """\
    def _model_payload(task: ModelTask) -> dict:
        return {"model": task.name, "params": task.params}
    """
        },
        rules=["R2"],
    )
    assert len(report.findings) == 1
    assert "ModelTask.defense" in report.findings[0].message
    # `label` is declared digest-irrelevant and must not be demanded.
    assert not any("label" in f.message for f in report.findings)


def test_r2_passes_complete_field_access_and_whole_embeds(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "eval/keys.py": _R2_COMMON
            + """\
    def _model_payload(task: ModelTask) -> dict:
        return {"model": task.name, "params": task.params, "defense": task.defense}

    def _whole_payload(task: ModelTask) -> dict:
        return {"task": task}

    def _serialized_payload(task: ModelTask) -> dict:
        return {"task": task.to_dict()}
    """
        },
        rules=["R2"],
    )
    assert report.findings == []


def test_r2_ignores_behavioural_uses_and_none_guards(tmp_path):
    # Branching on the spec and calling its methods is not piecemeal
    # serialisation: the embed can legitimately happen in a helper.
    report = lint_tree(
        tmp_path,
        {
            "eval/keys.py": _R2_COMMON
            + """\
    def _model_payload(task: ModelTask) -> dict:
        return {"task": task}

    def train(task: ModelTask, cache_key):
        if task is not None:
            cache_key("model", _model_payload(task))
    """
        },
        rules=["R2"],
    )
    assert report.findings == []


def test_r2_checks_the_fields_a_spec_inherits(tmp_path):
    # ScenarioSpec and DefenseSpec declare no fields of their own: they
    # inherit them from one dataclass base, with the registry a ClassVar.
    report = lint_tree(
        tmp_path,
        {
            "eval/keys.py": """\
    from dataclasses import dataclass
    from typing import ClassVar

    @dataclass(frozen=True)
    class ComponentSpec:
        registry: ClassVar[object]
        name: str
        seed: int = 0

    class ScenarioSpec(ComponentSpec):
        registry = None

    def _scenario_payload(spec: ScenarioSpec) -> dict:
        return {"name": spec.name}
    """
        },
        rules=["R2"],
    )
    assert [f.message.split(" ")[0] for f in report.findings] == ["ScenarioSpec.seed"]


def test_r2_ignores_functions_that_never_feed_a_digest(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "eval/keys.py": _R2_COMMON
            + """\
    def describe(task: ModelTask) -> str:
        return task.name
    """
        },
        rules=["R2"],
    )
    assert report.findings == []


# -- R3: atomic writes ---------------------------------------------------


def test_r3_flags_bare_writes_in_durable_modules(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "queue/bad.py": """\
            import json

            def save(path, payload):
                with open(path, "w") as handle:
                    json.dump(payload, handle)

            def stamp(path, text):
                path.write_text(text)
            """
        },
        rules=["R3"],
    )
    assert len(report.findings) == 3  # open-w, json.dump, write_text


def test_r3_passes_writer_functions_routed_through_write_atomic(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "queue/good.py": """\
            from repro.atomic import write_atomic

            def save(path, text):
                def writer(temp_path):
                    with temp_path.open("w") as handle:
                        handle.write(text)

                write_atomic(path, writer)

            def read(path):
                with open(path) as handle:
                    return handle.read()
            """
        },
        rules=["R3"],
    )
    assert report.findings == []


def test_r3_out_of_scope_module_is_ignored(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "nn/scratch.py": """\
            def dump(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """
        },
        rules=["R3"],
    )
    assert report.findings == []


def test_r3_pragma_suppresses_with_justification(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "queue/lock.py": """\
            def claim(temp, text):
                temp.write_text(text)  # repro-lint: allow[R3] published via os.link
            """
        },
        rules=["R3"],
    )
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0]["justification"] == "published via os.link"


# -- R4: shared mutable state --------------------------------------------


def test_r4_flags_unguarded_module_container_mutation(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "core/bad.py": """\
            _CACHE = {}

            def put(key, value):
                _CACHE[key] = value

            def drop(key):
                _CACHE.pop(key, None)
            """
        },
        rules=["R4"],
    )
    assert len(report.findings) == 2
    assert all("_CACHE" in f.message for f in report.findings)


def test_r4_passes_locks_thread_locals_and_local_shadows(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "core/good.py": """\
            import threading

            _CACHE = {}
            _LOCK = threading.Lock()
            _TABLE = {"a": 1}  # read-only lookup table: never mutated

            class _Memo(threading.local):
                def __init__(self):
                    self.seen = {}

            _MEMO = _Memo()

            def put(key, value):
                with _LOCK:
                    _CACHE[key] = value

            def local_work():
                _SCRATCH = {}
                _SCRATCH["x"] = 1  # a local, not the module global
                return _SCRATCH
            """
        },
        rules=["R4"],
    )
    assert report.findings == []


def test_r4_subscript_assignment_is_not_mistaken_for_rebinding(tmp_path):
    # `_CACHE[k] = v` mutates the global; it must not be treated as a
    # shadowing local binding of `_CACHE`.
    report = lint_tree(
        tmp_path,
        {
            "core/subtle.py": """\
            _CACHE = {}

            def put(key, value):
                _CACHE[key] = value
                return _CACHE
            """
        },
        rules=["R4"],
    )
    assert len(report.findings) == 1


# -- R5: registry hygiene ------------------------------------------------


def test_r5_flags_computed_names_whitespace_and_duplicates(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "defenses/bad.py": """\
            from repro.registry import register_defense

            NAME = "computed"

            @register_defense(NAME)
            class A:
                pass

            @register_defense(" padded ")
            class B:
                pass

            @register_defense("twin")
            class C:
                pass
            """,
            "defenses/other.py": """\
            from repro.registry import register_defense

            @register_defense("TWIN")
            class D:
                pass
            """,
        },
        rules=["R5"],
    )
    messages = [f.message for f in report.findings]
    assert len(messages) == 3
    assert any("string literal" in m for m in messages)
    assert any("whitespace" in m for m in messages)
    assert any("already registered" in m for m in messages)


def test_r5_passes_literal_unique_names_and_aliases(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "defenses/good.py": """\
            from repro.registry import register_defense, register_scenario

            @register_defense("curriculum", aliases=("cal",))
            class A:
                pass

            @register_scenario("curriculum")  # other registry: no clash
            class B:
                pass
            """
        },
        rules=["R5"],
    )
    assert report.findings == []


# -- rule selection ------------------------------------------------------


def test_unknown_rule_name_raises(tmp_path):
    with pytest.raises(KeyError):
        lint_tree(tmp_path, {"nn/empty.py": ""}, rules=["R9"])
