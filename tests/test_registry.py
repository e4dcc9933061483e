"""Tests for the plugin-style component registries (``repro.registry``)."""

from __future__ import annotations

import pytest

from repro.attacks import ThreatModel
from repro.attacks.fgsm import FGSMAttack
from repro.attacks.mitm import SignalManipulationAttack, SignalSpoofingAttack
from repro.baselines import KNNLocalizer
from repro.core import CALLOC
from repro.registry import ATTACKS, LOCALIZERS, Registry, RegistryError


class TestGlobalRegistries:
    def test_every_paper_model_is_registered(self):
        names = LOCALIZERS.names()
        assert "CALLOC" in names
        for baseline in (
            "KNN", "NaiveBayes", "GPC", "DNN", "CNN",
            "AdvLoc", "ANVIL", "SANGRIA", "WiDeep",
        ):
            assert baseline in names

    def test_every_attack_is_registered(self):
        names = ATTACKS.names()
        assert set(names) >= {"FGSM", "PGD", "MIM", "MITM-manipulation", "MITM-spoofing"}

    def test_tags_partition_localizers(self):
        assert LOCALIZERS.names(tag="framework") == ["CALLOC"]
        assert "CALLOC" not in LOCALIZERS.names(tag="baseline")
        assert "KNN" in LOCALIZERS.names(tag="baseline")

    def test_make_localizer_passes_kwargs(self):
        model = LOCALIZERS.create("KNN", k=3)
        assert isinstance(model, KNNLocalizer)
        assert model.k == 3

    def test_lookup_is_case_insensitive(self):
        assert isinstance(LOCALIZERS.create("calloc", epochs_per_lesson=1), CALLOC)
        assert isinstance(ATTACKS.create("fgsm", ThreatModel()), FGSMAttack)

    def test_attack_aliases(self):
        attack = ATTACKS.create("spoofing", ThreatModel())
        assert isinstance(attack, SignalSpoofingAttack)
        attack = ATTACKS.create("manipulation", ThreatModel())
        assert isinstance(attack, SignalManipulationAttack)

    def test_unknown_name_raises_keyerror_with_suggestion(self):
        with pytest.raises(KeyError) as excinfo:
            LOCALIZERS.create("KNNN")
        message = str(excinfo.value)
        assert "unknown localizer 'KNNN'" in message
        assert "KNN" in message
        with pytest.raises(RegistryError):
            ATTACKS.create("CW", ThreatModel())

    def test_entries_carry_docstring_summaries(self):
        entry = LOCALIZERS.entry("CALLOC")
        assert entry.name == "CALLOC"
        assert entry.summary  # first docstring line
        assert all(e.summary for e in ATTACKS.entries())

    def test_containment_and_iteration(self):
        assert "KNN" in LOCALIZERS
        assert "knn" in LOCALIZERS
        assert "ResNet" not in LOCALIZERS
        assert list(LOCALIZERS) == LOCALIZERS.names()
        assert len(LOCALIZERS) == len(LOCALIZERS.names())

    def test_register_is_global(self):
        sentinel = object()
        try:
            LOCALIZERS.register("___test-model___", lambda: sentinel)
            assert LOCALIZERS.create("___test-model___") is sentinel
        finally:
            LOCALIZERS._entries.pop("___test-model___", None)
            LOCALIZERS._lookup.pop("___test-model___", None)


class TestRegistryMechanics:
    """Mutation tests run on a private Registry to keep the globals clean."""

    def test_decorator_registration_and_create(self):
        registry = Registry("widget")

        @registry.register("Alpha", tags=("x",), aliases=("a",))
        class Alpha:
            """An alpha widget."""

            def __init__(self, value=0):
                self.value = value

        assert registry.names() == ["Alpha"]
        assert registry.create("alpha", value=3).value == 3
        assert registry.create("a").value == 0
        assert registry.entry("Alpha").summary == "An alpha widget."

    def test_duplicate_registration_conflicts(self):
        registry = Registry("widget")
        registry.register("Alpha", lambda: "first")
        # Re-registering the same factory is a harmless no-op.
        factory = registry.get("Alpha")
        registry.register("Alpha", factory)
        with pytest.raises(RegistryError):
            registry.register("Alpha", lambda: "second")
        assert registry.create("Alpha") == "first"
