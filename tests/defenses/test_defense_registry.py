"""Tests for the defense registry, DefenseSpec, and spec-time validation."""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec
from repro.defenses import (
    CurriculumAdversarialDefense,
    DefenseSpec,
    FingerprintDetectorDefense,
    InputNoiseDefense,
    NoDefense,
    PGDAdversarialTrainingDefense,
)
from repro.registry import DEFENSES, RegistryError


class TestDefenseRegistry:
    def test_all_families_registered(self):
        assert set(DEFENSES.names()) >= {
            "none",
            "curriculum",
            "pgd-adversarial",
            "input-noise",
            "detector",
        }

    def test_make_defense_builds_instances(self):
        assert isinstance(DEFENSES.create("curriculum"), CurriculumAdversarialDefense)
        assert isinstance(DEFENSES.create("pgd-adversarial"), PGDAdversarialTrainingDefense)
        assert isinstance(DEFENSES.create("input-noise"), InputNoiseDefense)
        assert isinstance(DEFENSES.create("detector"), FingerprintDetectorDefense)
        assert isinstance(DEFENSES.create("none"), NoDefense)

    def test_aliases_and_case_insensitivity(self):
        assert isinstance(
            DEFENSES.create("curriculum-adversarial"), CurriculumAdversarialDefense
        )
        assert isinstance(DEFENSES.create("randomized-smoothing"), InputNoiseDefense)
        assert isinstance(DEFENSES.create("ADVERSARIAL-TRAINING"), PGDAdversarialTrainingDefense)
        assert isinstance(DEFENSES.create("undefended"), NoDefense)

    def test_unknown_defense_raises_with_suggestion(self):
        with pytest.raises(RegistryError) as excinfo:
            DEFENSES.create("curiculum")
        assert "unknown defense" in str(excinfo.value)
        assert "curriculum" in str(excinfo.value)

    def test_tags_partition_families(self):
        training = DEFENSES.names(tag="training")
        assert "curriculum" in training and "detector" not in training
        assert DEFENSES.names(tag="inference") == ["detector"]

    def test_catalog_entries(self):
        catalog = DEFENSES.catalog()
        names = {entry["name"] for entry in catalog}
        assert "curriculum" in names
        assert all(entry["summary"] for entry in catalog)

    def test_hook_flags(self):
        assert DEFENSES.create("curriculum").hardens_training
        assert not DEFENSES.create("curriculum").guards_inference
        detector = DEFENSES.create("detector")
        assert detector.guards_inference and not detector.hardens_training
        none = DEFENSES.create("none")
        assert not none.hardens_training and not none.guards_inference


class TestDefenseSpec:
    def test_round_trip_through_dict(self):
        spec = DefenseSpec.create(
            "curriculum", params={"num_lessons": 4}, seed=3, label="cur4"
        )
        restored = DefenseSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.display_name == "cur4"

    def test_from_bare_name_resolves_aliases(self):
        spec = DefenseSpec.from_dict("smoothing")
        assert spec.name == "input-noise"

    def test_build_applies_params_and_seed(self):
        defense = DefenseSpec.create(
            "detector", params={"target_fpr": 0.05, "action": "reject"}, seed=9
        ).build()
        assert isinstance(defense, FingerprintDetectorDefense)
        assert defense.target_fpr == 0.05
        assert defense.rejects
        assert defense.seed == 9

    def test_spec_is_hashable(self):
        assert len({DefenseSpec.create("none"), DefenseSpec.create("none")}) == 1

    def test_from_dict_revalidates_existing_specs(self):
        """Hand-built specs are re-resolved, not passed through unchecked."""
        with pytest.raises(KeyError, match="unknown defense"):
            DefenseSpec.from_dict(DefenseSpec(name="curiculum"))
        canonical = DefenseSpec.from_dict(DefenseSpec(name="undefended"))
        assert canonical.name == "none"

    def test_instance_spec_round_trips_config(self):
        defense = FingerprintDetectorDefense(target_fpr=0.02, action="reject", seed=5)
        rebuilt = defense.spec().build()
        assert rebuilt.target_fpr == 0.02
        assert rebuilt.action == "reject"
        assert rebuilt.seed == 5


class TestSpecConstructionValidation:
    """Satellite: unknown component names fail at spec construction time."""

    def test_unknown_model_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown localizer 'ResNet'"):
            ExperimentSpec(models=("ResNet",))

    def test_unknown_attack_method_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown attack 'CW'"):
            ExperimentSpec(models=("KNN",), attack_methods=("CW",))

    def test_unknown_scenario_method_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown attack"):
            ExperimentSpec(
                models=("KNN",),
                scenarios=({"method": "DeepFool", "epsilon": 0.1, "phi_percent": 10.0},),
            )

    def test_unknown_robustness_scenario_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            ExperimentSpec(models=("KNN",), robustness=("earthquake",))

    def test_unknown_defense_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown defense"):
            ExperimentSpec(models=("KNN",), defenses=("armor",))

    def test_valid_spec_round_trips_defenses_through_json(self):
        spec = ExperimentSpec(
            models=("DNN",),
            defenses=("none", {"name": "curriculum", "params": {"num_lessons": 3}}),
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert [d.name for d in restored.defenses] == ["none", "curriculum"]

    def test_duplicate_model_defense_pairs_rejected(self):
        spec = ExperimentSpec(models=("DNN",), defenses=("curriculum", "curriculum"))
        with pytest.raises(ValueError, match="duplicate model label"):
            spec.resolve_model_tasks(spec.config())

    def test_none_defense_maps_to_undefended_task(self):
        spec = ExperimentSpec(models=("DNN",), defenses=("none", "curriculum"))
        tasks = spec.resolve_model_tasks(spec.config())
        assert [t.defense_label for t in tasks] == ["none", "curriculum"]
        assert tasks[0].defense is None
        assert tasks[1].defense is not None
