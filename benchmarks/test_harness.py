"""The shared benchmark harness: paired runner, replay driver, envelope, gates.

None of these tests trains a model: the scripts' workloads are replaced by
fakes, so they check the machinery every ``bench_*.py`` script relies on.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest

import bench_core
import bench_defenses
import bench_engine
import bench_obs
import bench_queue
import bench_serving
import harness
import repro


def test_paired_alternates_the_in_pair_order_and_returns_one_ratio_per_pair():
    calls = []

    def arm(name, sample):
        def run():
            calls.append(name)
            return sample

        return run

    run = harness.paired({"A": arm("A", 3.0), "B": arm("B", 2.0)}, 5, ratio=("A", "B"))
    assert "".join(calls) == "ABBAABBAAB"
    assert run["samples"] == {"A": [3.0] * 5, "B": [2.0] * 5}
    assert run["ratios"] == [1.5] * 5


def test_paired_reverses_every_arm_on_odd_reps():
    calls = []
    arms = {name: (lambda name=name: calls.append(name) or 1.0) for name in "XYZ"}
    run = harness.paired(arms, 2, ratio=("Z", "X"))
    assert "".join(calls) == "XYZZYX"
    assert len(run["ratios"]) == 2


def test_replay_sends_every_query_once_and_keeps_each_label_in_order():
    queries = np.arange(50, dtype=np.float64).reshape(50, 1)
    sent = []
    connections = []

    def localize(row):
        sent.append(int(row[0]))
        return SimpleNamespace(labels=np.array([int(row[0]) * 10]))

    def connect():
        connections.append(1)
        return nullcontext(localize)

    result = harness.replay(connect, queries, threads=4)
    assert sorted(sent) == list(range(50))
    assert result["labels"] == [index * 10 for index in range(50)]
    assert result["requests"] == 50
    assert len(connections) == 4
    assert set(result["latency_ms"]) == {"mean", "p50", "p99", "max"}


def _fake_benchmark(tmp_path, passed):
    def measure(args):
        return {"section": {"value": 1}}

    def gate(args, report, gates):
        gates.identity({"same": True}, "diverged")
        gates.at_least("min_ratio", 0.5, 0.9 if not passed else 0.1, "ratio")
        gates.at_most("max_cost", 2.0, 1.0, "cost", enabled=False)

    output = tmp_path / "BENCH_fake.json"
    code = harness.main(
        "fake", harness.parser("fake", "Fake."), measure, gate, ["--output", str(output)]
    )
    return code, json.loads(output.read_text())


def test_envelope_carries_version_machine_and_gate_verdicts(tmp_path):
    code, report = _fake_benchmark(tmp_path, passed=True)
    assert code == 0
    assert report["benchmark"] == "fake"
    assert report["version"] == repro.__version__
    assert set(report["machine"]) == {"python", "platform", "cpu_count"}
    assert isinstance(report["created_unix"], float)
    assert report["gates"] == {
        "identity": {"statistic": 0, "threshold": 0, "verdict": "pass"},
        "min_ratio": {"statistic": 0.5, "threshold": 0.1, "verdict": "pass"},
        "max_cost": {"statistic": 2.0, "threshold": 1.0, "verdict": "off"},
    }
    assert report["section"] == {"value": 1}


def test_a_failed_gate_is_recorded_and_exits_1(tmp_path):
    code, report = _fake_benchmark(tmp_path, passed=False)
    assert code == 1
    assert report["gates"]["min_ratio"]["verdict"] == "fail"


def test_gate_reporter_prints_every_failure_and_returns_1(capsys):
    gates = harness.Gates()
    gates.identity({"a": True, "b": False}, "diverged in")
    gates.at_least("min_speedup", 1.5, 2.0, "speedup")
    gates.at_most("max_overhead", 1.07, 1.0, "paired ratio")
    gates.check("resume", 9, 9, True, "never shown")
    assert gates.report() == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "FAIL: identity: diverged in: ['b']",
        "FAIL: min_speedup: speedup 1.5 < 2.0",
        "FAIL: max_overhead: paired ratio 1.07 > 1.0",
    ]


def test_gate_reporter_returns_0_when_nothing_failed(capsys):
    gates = harness.Gates()
    gates.identity({"a": True}, "diverged in")
    gates.at_least("min_speedup", 2.5, 2.0, "speedup")
    gates.at_least("min_parallel", 0.5, 1.0, "parallel", enabled=False)
    assert gates.report() == 0
    assert capsys.readouterr().err == ""


OPS = {
    "linear_fwd_bwd": {"elements_per_s": 100.0},
    "gbdt_fit": {"elements_per_s": 10.0},
}


@pytest.fixture
def fake_core(monkeypatch):
    """bench_core with its kernels replaced by fixed identity flags and ops."""
    monkeypatch.setattr(bench_core, "run_identity_checks", lambda rng: {"conv1d": True})
    monkeypatch.setattr(bench_core, "run_throughput", lambda rng: dict(OPS))

    def run(tmp_path, baseline):
        path = tmp_path / "baseline.json"
        if baseline is not None:
            path.write_text(json.dumps(baseline))
        output = tmp_path / "out.json"
        code = bench_core.main(["--output", str(output), "--check-against", str(path)])
        return code, json.loads(output.read_text())["gates"]["tolerance"]

    return run


@pytest.mark.parametrize(
    "baseline",
    [
        None,  # no such file
        {"benchmark": "core"},  # no ops map
        {"ops": {"renamed_op": {"elements_per_s": 1.0}}},  # no op in common
    ],
    ids=["missing-file", "no-ops-map", "no-common-op"],
)
def test_check_against_fails_closed(fake_core, tmp_path, capsys, baseline):
    code, gate = fake_core(tmp_path, baseline)
    assert code == 1
    assert gate["verdict"] == "fail"
    assert "FAIL: tolerance:" in capsys.readouterr().err


def test_check_against_gates_common_ops_and_lists_new_ones(fake_core, tmp_path, capsys):
    baseline = {"ops": {"linear_fwd_bwd": {"elements_per_s": 200.0}}}
    code, gate = fake_core(tmp_path, baseline)
    assert code == 0
    assert gate == {"statistic": 0.5, "threshold": 0.4, "verdict": "pass"}
    assert "not gated: ['gbdt_fit']" in capsys.readouterr().out

    baseline = {"ops": {"linear_fwd_bwd": {"elements_per_s": 300.0}}}
    code, gate = fake_core(tmp_path, baseline)
    assert code == 1
    assert "linear_fwd_bwd" in capsys.readouterr().err


@pytest.mark.parametrize(
    "script, defaults",
    [
        (bench_core, {"tolerance": 0.4}),
        (bench_engine, {"min_speedup": 2.0, "min_parallel": 1.5}),
        (bench_queue, {"max_overhead": 1.0}),
        (
            bench_serving,
            {"min_speedup": 2.0, "min_worker_speedup": 2.0, "workers": 2},
        ),
        (bench_obs, {"min_serving_ratio": 0.97, "min_engine_ratio": 0.98}),
        (bench_defenses, {"max_guard_overhead": 0.10}),
    ],
    ids=["core", "engine", "queue", "serving", "obs", "defenses"],
)
def test_each_script_keeps_its_gate_flag_defaults(script, defaults):
    args = vars(script.build_parser().parse_args([]))
    assert {name: args[name] for name in defaults} == defaults
    benchmark = script.__name__.removeprefix("bench_")
    assert args["output"] == harness.REPO_ROOT / f"BENCH_{benchmark}.json"
