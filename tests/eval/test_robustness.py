"""Tests for the robustness-scenario subsystem.

Covers the scenario registry and declarative :class:`ScenarioSpec`, the
per-family transform invariants and seed determinism, the engine integration
(jobs=1 ≡ jobs=N, cold ≡ warm cache for scenario work units), the
unseen-device training split, and the MITM-spoofing replay-baseline fix
(spoofing results independent of engine batch sharding).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExperimentSpec, run_experiment
from repro.attacks import SignalSpoofingAttack, ThreatModel, replay_survey
from repro.data import RSS_FLOOR_DBM
from repro.defenses import DefenseSpec
from repro.eval.engine import _canonical
from repro.eval.robustness import (
    DEFAULT_SCENARIOS,
    APOutageScenario,
    RogueAPScenario,
    ScenarioSpec,
    TemporalDriftScenario,
    UnseenDeviceScenario,
    stable_seed,
)
from repro.registry import SCENARIOS, available_scenarios, make_scenario


class TestRegistry:
    def test_at_least_five_scenario_families(self):
        names = available_scenarios()
        assert len(names) >= 5
        assert set(DEFAULT_SCENARIOS) <= set(names)

    def test_lookup_is_case_insensitive_and_alias_aware(self):
        assert isinstance(make_scenario("Drift"), TemporalDriftScenario)
        assert isinstance(make_scenario("outage"), APOutageScenario)
        assert isinstance(make_scenario("lodo"), UnseenDeviceScenario)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            make_scenario("earthquake")

    def test_entries_carry_tags(self):
        assert "environment" in SCENARIOS.entry("drift").tags
        assert "generalization" in SCENARIOS.entry("unseen-device").tags


class TestScenarioSpec:
    def test_create_resolves_and_canonicalises(self):
        spec = ScenarioSpec.create("OUTAGE", params={"num_down": 2}, seed=3)
        assert spec.name == "ap-outage"
        assert spec.param_dict == {"num_down": 2}
        assert spec.build().num_down == 2

    def test_dict_round_trip(self):
        spec = ScenarioSpec.create("drift", params={"shadow_drift_db": 1.5}, seed=7)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_bare_name(self):
        assert ScenarioSpec.from_dict("clean").name == "clean"

    def test_list_valued_params_stay_hashable(self):
        # JSON spec files deliver lists; the spec must stay usable as a dict
        # key (the engine memoises per spec) and round-trip through dicts.
        spec = ScenarioSpec.create("ap-outage", params={"knob": [1, 2]})
        assert hash(spec) is not None
        assert spec.param_dict == {"knob": (1, 2)}
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_revalidates_existing_specs(self):
        """Hand-built specs are re-resolved, not passed through unchecked."""
        with pytest.raises(KeyError, match="unknown scenario"):
            ScenarioSpec.from_dict(ScenarioSpec(name="drfit"))
        assert ScenarioSpec.from_dict(ScenarioSpec(name="OUTAGE")).name == "ap-outage"

    def test_digest_form_is_the_four_reference_fields(self):
        # The registry is a class attribute, so cache keys see only the
        # fields a scenario (or defense) reference has always had.
        spec = ScenarioSpec.create("drift", params={"shadow_drift_db": 1.5}, seed=7)
        assert _canonical(spec) == {
            "name": "drift",
            "params": [["shadow_drift_db", 1.5]],
            "seed": 7,
            "label": None,
        }
        assert _canonical(DefenseSpec.create("curriculum", seed=2)) == {
            "name": "curriculum", "params": [], "seed": 2, "label": None,
        }

    def test_display_name_defaults_to_family(self):
        assert ScenarioSpec.create("drift").display_name == "drift"
        assert ScenarioSpec.create("drift", label="drift-hard").display_name == "drift-hard"

    def test_experiment_spec_round_trips_robustness(self):
        spec = ExperimentSpec(
            models=("KNN",),
            scenarios=(),
            robustness=("drift", {"name": "ap-outage", "seed": 5}),
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored.robustness == spec.robustness
        assert restored.robustness[1].seed == 5


class TestStableSeed:
    def test_deterministic_and_part_sensitive(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert stable_seed("a", 1) != stable_seed("b", 1)


class TestTransforms:
    def test_drift_is_deterministic_per_seed(self, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        a = TemporalDriftScenario(seed=1).transform_test(test, tiny_campaign, "S7")
        b = TemporalDriftScenario(seed=1).transform_test(test, tiny_campaign, "S7")
        c = TemporalDriftScenario(seed=2).transform_test(test, tiny_campaign, "S7")
        np.testing.assert_array_equal(a.rss_dbm, b.rss_dbm)
        assert not np.array_equal(a.rss_dbm, c.rss_dbm)

    def test_drift_preserves_undetected_aps_and_range(self, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        drifted = TemporalDriftScenario(seed=0).transform_test(
            test, tiny_campaign, "S7"
        )
        undetected = test.rss_dbm <= RSS_FLOOR_DBM
        assert (drifted.rss_dbm[undetected] == RSS_FLOOR_DBM).all()
        assert drifted.rss_dbm.min() >= RSS_FLOOR_DBM
        assert drifted.rss_dbm.max() <= 0.0
        threshold = tiny_campaign.config.propagation.detection_threshold_dbm
        observed = drifted.rss_dbm
        assert ((observed == RSS_FLOOR_DBM) | (observed >= threshold)).all()

    def test_drift_is_shared_across_devices(self, tiny_campaign):
        # Drift models the *building* changing: the channel shift applied to a
        # reference point must not depend on which device scans it.
        scenario = TemporalDriftScenario(seed=3)
        s7 = scenario.transform_test(
            tiny_campaign.test_for("S7"), tiny_campaign, "S7"
        )
        op3 = scenario.transform_test(
            tiny_campaign.test_for("OP3"), tiny_campaign, "OP3"
        )
        assert not np.array_equal(s7.rss_dbm, op3.rss_dbm)  # different scans...
        # ...but both derived from one field: identical per-building draw, so
        # re-running either transform reproduces it bit-for-bit.
        again = scenario.transform_test(
            tiny_campaign.test_for("OP3"), tiny_campaign, "OP3"
        )
        np.testing.assert_array_equal(op3.rss_dbm, again.rss_dbm)

    def test_outage_darkens_exactly_k_aps(self, tiny_campaign):
        test = tiny_campaign.test_for("MOTO")
        scenario = APOutageScenario(seed=4, num_down=3)
        out = scenario.transform_test(test, tiny_campaign, "MOTO")
        dark = scenario.dark_aps(test.num_aps, tiny_campaign.building_name)
        assert dark.shape == (3,)
        assert (out.rss_dbm[:, dark] == RSS_FLOOR_DBM).all()
        untouched = np.setdiff1d(np.arange(test.num_aps), dark)
        np.testing.assert_array_equal(
            out.rss_dbm[:, untouched], test.rss_dbm[:, untouched]
        )

    def test_outage_fraction_targets_at_least_one_ap(self, tiny_campaign):
        scenario = APOutageScenario(seed=0, outage_fraction=0.01)
        dark = scenario.dark_aps(8, tiny_campaign.building_name)
        assert dark.shape == (1,)

    def test_zero_outage_fraction_darkens_nothing(self, tiny_campaign):
        test = tiny_campaign.test_for("OP3")
        scenario = APOutageScenario(seed=0, outage_fraction=0.0)
        assert scenario.dark_aps(test.num_aps, tiny_campaign.building_name).size == 0
        out = scenario.transform_test(test, tiny_campaign, "OP3")
        np.testing.assert_array_equal(out.rss_dbm, test.rss_dbm)

    def test_rogue_only_strengthens_cloned_aps(self, tiny_campaign):
        test = tiny_campaign.test_for("LG")
        out = RogueAPScenario(seed=5, num_rogues=2).transform_test(
            test, tiny_campaign, "LG"
        )
        # max(genuine, rogue) can never weaken a beacon...
        assert (out.rss_dbm >= test.rss_dbm - 1e-12).all()
        # ...and exactly the cloned identities may change.
        changed = np.unique(np.nonzero(out.rss_dbm != test.rss_dbm)[1])
        assert 0 < changed.size <= 2

    def test_unseen_device_split_excludes_holdout(self, tiny_campaign):
        lodo = tiny_campaign.leave_one_device_out("S7")
        assert set(np.unique(lodo.train.devices)) == {
            "BLU", "HTC", "LG", "MOTO", "OP3",
        }
        assert list(lodo.test_by_device) == ["S7"]
        scenario = UnseenDeviceScenario()
        assert not scenario.trains_standard_model
        train = scenario.train_dataset(tiny_campaign, "S7")
        assert "S7" not in set(np.unique(train.devices))

    def test_unseen_device_unknown_holdout_raises(self, tiny_campaign):
        with pytest.raises(KeyError):
            tiny_campaign.leave_one_device_out("PIXEL")


@pytest.fixture(scope="module")
def scenario_spec() -> ExperimentSpec:
    """Scenario-only quick-grid spec: drift + AP outage on two models."""
    return ExperimentSpec(
        models=("KNN", "DNN"),
        profile="quick",
        devices=("OP3", "S7"),
        scenarios=(),
        robustness=("drift", "ap-outage"),
    )


@pytest.fixture(scope="module")
def scenario_serial_records(scenario_spec):
    return run_experiment(scenario_spec).to_records()


class TestEngineIntegration:
    def test_records_tag_condition_and_order(self, scenario_spec, scenario_serial_records):
        assert len(scenario_serial_records) == 2 * 2 * 2  # models x devices x specs
        assert [r["scenario"] for r in scenario_serial_records[:2]] == [
            "drift",
            "ap-outage",
        ]
        assert all(r["attack"] == "clean" for r in scenario_serial_records)

    def test_parallel_matches_serial_bit_for_bit(
        self, scenario_spec, scenario_serial_records
    ):
        parallel = run_experiment(scenario_spec, jobs=3)
        assert parallel.to_records() == scenario_serial_records

    def test_warm_cache_is_bit_identical_to_cold(
        self, scenario_spec, scenario_serial_records, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        cold = run_experiment(scenario_spec, cache=cache_dir)
        warm = run_experiment(scenario_spec, jobs=2, cache=cache_dir)
        assert cold.to_records() == scenario_serial_records
        assert warm.to_records() == scenario_serial_records

    def test_self_training_scenario_runs_at_any_job_count(self):
        spec = ExperimentSpec(
            models=("KNN",),
            profile="quick",
            devices=("OP3", "S7"),
            scenarios=(),
            robustness=("unseen-device", "adaptive-blackbox"),
        )
        serial = run_experiment(spec)
        parallel = run_experiment(spec, jobs=2)
        assert parallel.to_records() == serial.to_records()
        attacked = serial.filter(scenario="adaptive-blackbox")
        assert all(r.scenario.method == "FGSM" for r in attacked.records)
        # The unseen-device cell trains a different model than the standard
        # split, so its errors must differ from the clean standard run.
        lodo = serial.filter(scenario="unseen-device")
        assert len(lodo) == 2

    def test_scenario_only_spec_emits_no_attack_grid(self, scenario_serial_records):
        assert all(r["epsilon"] == 0.0 for r in scenario_serial_records)

    def test_scenario_only_plan_builds_no_eval_units(self):
        from repro.eval.engine import ModelTask, build_plan

        plan = build_plan(
            [ModelTask.create("KNN", "KNN", {})],
            (),
            ("Building 1",),
            ("OP3",),
            (ScenarioSpec.create("drift"),),
        )
        assert plan.eval_units == ()
        assert len(plan.scenario_units) == 1
        assert "1 scenario" in plan.describe()

    def test_identity_scenarios_do_not_populate_the_batch_cache(self, tmp_path):
        from repro.eval.engine import ArtifactCache

        spec = ExperimentSpec(
            models=("KNN",),
            profile="quick",
            devices=("OP3",),
            scenarios=(),
            robustness=("clean", "drift"),
        )
        cache = ArtifactCache(tmp_path / "cache")
        run_experiment(spec, cache=cache)
        batches = list((tmp_path / "cache" / "scenario-batch").rglob("*.npz"))
        assert len(batches) == 1  # drift cached, clean served directly


class TestSpoofingBaseline:
    """Regression tests for the shard-dependent MITM-spoofing baseline."""

    def test_replay_from_offline_survey_is_shard_independent(self, tiny_campaign, trained_dnn):
        test = tiny_campaign.test_for("S7")
        features = test.features
        labels = test.labels
        threat = ThreatModel(epsilon=0.3, phi_percent=50.0, seed=11)
        replay = replay_survey(tiny_campaign.train)
        attack = SignalSpoofingAttack(threat, method="FGSM", replay_features=replay)
        whole = attack.perturb(features, labels, trained_dnn)
        half = features.shape[0] // 2
        sharded = np.concatenate(
            [
                attack.perturb(features[:half], labels[:half], trained_dnn),
                attack.perturb(features[half:], labels[half:], trained_dnn),
            ]
        )
        np.testing.assert_array_equal(whole, sharded)

    def test_batch_mean_fallback_depends_on_sharding(self, tiny_campaign, trained_dnn):
        # The legacy behaviour this PR fixes: without the survey baseline the
        # replay value is the per-call batch mean, so shard composition leaks
        # into the perturbation.  Kept as a characterisation of why the
        # engine must always thread replay_features.
        test = tiny_campaign.test_for("S7")
        features = test.features
        labels = test.labels
        threat = ThreatModel(epsilon=0.3, phi_percent=50.0, seed=11)
        attack = SignalSpoofingAttack(threat, method="FGSM")
        whole = attack.perturb(features, labels, trained_dnn)
        half = features.shape[0] // 2
        sharded = np.concatenate(
            [
                attack.perturb(features[:half], labels[:half], trained_dnn),
                attack.perturb(features[half:], labels[half:], trained_dnn),
            ]
        )
        assert not np.array_equal(whole, sharded)

    def test_spoofing_results_identical_across_job_counts(self, tmp_path):
        spec = ExperimentSpec(
            models=("DNN",),
            profile="quick",
            devices=("OP3", "S7"),
            attack_methods=("MITM-spoofing",),
            epsilons=(0.3,),
            phi_percents=(50.0,),
        )
        serial = run_experiment(spec).to_records()
        parallel = run_experiment(spec, jobs=3).to_records()
        assert parallel == serial
        cold = run_experiment(spec, cache=tmp_path / "cache").to_records()
        warm = run_experiment(spec, cache=tmp_path / "cache").to_records()
        assert cold == serial
        assert warm == serial
