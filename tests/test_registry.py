"""Tests for the plugin-style component registries (``repro.registry``)."""

from __future__ import annotations

import pytest

from repro.attacks import ThreatModel
from repro.attacks.fgsm import FGSMAttack
from repro.attacks.mitm import SignalManipulationAttack, SignalSpoofingAttack
from repro.baselines import KNNLocalizer
from repro.core import CALLOC
from repro.registry import (
    ATTACKS,
    LOCALIZERS,
    Registry,
    RegistryError,
    available_attacks,
    available_localizers,
    make_attack,
    make_localizer,
    register_localizer,
)


class TestGlobalRegistries:
    def test_every_paper_model_is_registered(self):
        names = available_localizers()
        assert "CALLOC" in names
        for baseline in (
            "KNN", "NaiveBayes", "GPC", "DNN", "CNN",
            "AdvLoc", "ANVIL", "SANGRIA", "WiDeep",
        ):
            assert baseline in names

    def test_every_attack_is_registered(self):
        names = available_attacks()
        assert set(names) >= {"FGSM", "PGD", "MIM", "MITM-manipulation", "MITM-spoofing"}

    def test_tags_partition_localizers(self):
        assert available_localizers(tag="framework") == ["CALLOC"]
        assert "CALLOC" not in available_localizers(tag="baseline")
        assert "KNN" in available_localizers(tag="baseline")

    def test_make_localizer_passes_kwargs(self):
        model = make_localizer("KNN", k=3)
        assert isinstance(model, KNNLocalizer)
        assert model.k == 3

    def test_lookup_is_case_insensitive(self):
        assert isinstance(make_localizer("calloc", epochs_per_lesson=1), CALLOC)
        assert isinstance(make_attack("fgsm", ThreatModel()), FGSMAttack)

    def test_attack_aliases(self):
        attack = make_attack("spoofing", ThreatModel())
        assert isinstance(attack, SignalSpoofingAttack)
        attack = make_attack("manipulation", ThreatModel())
        assert isinstance(attack, SignalManipulationAttack)

    def test_unknown_name_raises_keyerror_with_suggestion(self):
        with pytest.raises(KeyError) as excinfo:
            make_localizer("KNNN")
        message = str(excinfo.value)
        assert "unknown localizer 'KNNN'" in message
        assert "KNN" in message
        with pytest.raises(RegistryError):
            make_attack("CW", ThreatModel())

    def test_entries_carry_docstring_summaries(self):
        entry = LOCALIZERS.entry("CALLOC")
        assert entry.name == "CALLOC"
        assert entry.summary  # first docstring line
        assert all(e.summary for e in ATTACKS.entries())

    def test_containment_and_iteration(self):
        assert "KNN" in LOCALIZERS
        assert "knn" in LOCALIZERS
        assert "ResNet" not in LOCALIZERS
        assert list(LOCALIZERS) == available_localizers()
        assert len(LOCALIZERS) == len(available_localizers())


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
        registry.register("Alpha", lambda: "second", override=True)
        assert registry.create("Alpha") == "second"

    def test_as_dict_filters_by_tag(self):
        registry = Registry("widget")
        registry.register("A", lambda: "a", tags=("one",))
        registry.register("B", lambda: "b", tags=("two",))
        assert set(registry.as_dict()) == {"A", "B"}
        assert set(registry.as_dict(tag="one")) == {"A"}


class TestLegacyShims:
    def test_make_localizer_builds_registered_baselines(self):
        model = make_localizer("KNN", k=7)
        assert isinstance(model, KNNLocalizer)
        assert model.k == 7
        with pytest.raises(KeyError):
            make_localizer("ResNet")

    def test_register_localizer_decorator_is_global(self):
        sentinel = object()
        try:
            register_localizer("___test-model___", lambda: sentinel)
            assert make_localizer("___test-model___") is sentinel
        finally:
            LOCALIZERS._entries.pop("___test-model___", None)
            LOCALIZERS._lookup.pop("___test-model___", None)
