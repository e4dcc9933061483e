"""Metric names against what the report builders emit; compare verdicts."""

import json
import re

import pytest

from bench import report
from bench.__main__ import main
from bench.compare import load_runs, verdict
from bench.metrics import MEASURED, METRICS, PRIMARY, end_to_end
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def declared():
    return report.load_benchmark()


def test_names_are_well_formed_and_unique(declared):
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += list(METRICS)
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert set(MEASURED) == set(PRIMARY) == set(WORKLOADS)


def test_every_declared_metric_is_emitted(declared):
    e2e = [m["name"] for m in declared["end_to_end"]]
    units = report.declared_metrics(declared)
    for workload, measured_names in MEASURED.items():
        assert set(measured_names) <= set(units), workload
        measured = {name: 1.0 + index for index, name in enumerate(measured_names)}
        values = end_to_end(workload, measured)
        assert list(values) == e2e and all(values.values())
        assert report.with_units(values, declared["end_to_end"])["setup_s"] == {
            "value": measured["setup_s"], "unit": "s"
        }
    # Every end-to-end metric of the issue is measured by some workload.
    assert set(METRICS) <= {name for names in MEASURED.values() for name in names}
    layers = report.layer_metrics([], {}, windows=[(0.0, 1.0)])
    assert {m["name"] for m in declared["per_layer"]} == set(layers)
    with pytest.raises(KeyError):
        report.with_units({}, declared["end_to_end"])


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [100.2, 100.8, 99.9], "lower", 0.05) == "within"
    assert verdict(base, [110.0, 111.0, 112.0], "lower", 0.05) == "worse"
    assert verdict(base, [90.0, 91.0, 89.0], "lower", 0.05) == "better"
    assert verdict(base, [90.0, 91.0, 89.0], "higher", 0.05) == "worse"
    noisy = [50.0, 100.0, 150.0, 80.0]
    assert verdict(noisy, [100.0, 101.0, 99.0], "lower", 0.05) == "unresolved"
    assert verdict(noisy, [10.0, 11.0, 12.0], "lower", 0.05) == "better"
    # error_rate: from none to some is worse whatever the bound.
    assert verdict([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "lower", 0.0) == "within"
    assert verdict([0.0, 0.0, 0.0], [0.1, 0.2, 0.1], "lower", 0.0) == "worse"


def _report(path, seconds, value):
    document = {"seconds": seconds, "workloads": {"queue_sweep": {
        "metrics": {"primary_ms": {"value": value, "unit": "ms"}},
        "measured": {"drain_s": {"value": value / 1000.0, "unit": "s"}},
    }}}
    path.write_text(json.dumps(document) + "\n")
    return path


def test_compare_refuses_runs_of_different_length(tmp_path, capsys):
    base = _report(tmp_path / "base.jsonl", 12.0, 3000.0)
    values, seconds = load_runs(base)
    assert values[("queue_sweep", "drain_s")] == [3.0] and seconds == {12.0}
    assert main(["compare", str(base), str(_report(tmp_path / "same.jsonl", 12.0, 3010.0))]) == 0
    assert "drain_s" in capsys.readouterr().out
    assert main(["compare", str(base), str(_report(tmp_path / "long.jsonl", 30.0, 3000.0))]) == 2
