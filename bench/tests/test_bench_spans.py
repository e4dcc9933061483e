"""Self time, busy time and unattributed time over a synthetic span forest."""

import pytest

from bench.report import layer_metrics
from bench.spans import covered, layer_self_times, outermost, self_times, union_length


def _span(span_id, name, start, dur, parent=None, **attrs):
    return {"name": name, "span_id": span_id, "parent_id": parent, "start": start,
            "dur": dur, "attrs": attrs}


# A 10 s window: an artefact [0, 8] holding a fit [1, 4] (itself holding a
# cache put [3, 4]) and two overlapping cache reads [5, 6.5] and [6, 7];
# a worker [8.5, 9.5] commits at [9, 9.4], and the commit reads state [9.1, 9.2].
FOREST = [
    _span("a", "eval.artefact", 0.0, 8.0),
    _span("f", "baselines.fit", 1.0, 3.0, "a", model="KNN"),
    _span("p", "eval.cache.put", 3.0, 1.0, "f", bytes=100),
    _span("g1", "eval.cache.get", 5.0, 1.5, "a", hit=True),
    _span("g2", "eval.cache.get", 6.0, 1.0, "a", hit=False),
    _span("w", "queue.worker", 8.5, 1.0),
    _span("c", "queue.commit", 9.0, 0.4, "w", done=True),
    _span("s", "queue.claim", 9.1, 0.1, "c"),
]


def test_self_time_subtracts_child_coverage_once():
    own = self_times(FOREST)
    assert own["a"] == pytest.approx(8.0 - 3.0 - 2.0)  # reads overlap: [5, 7] is 2 s
    assert own["f"] == pytest.approx(2.0)
    assert own["c"] == pytest.approx(0.3)
    layers = layer_self_times(FOREST)
    assert layers["eval"] == pytest.approx(3.0 + 1.0 + 1.5 + 1.0)
    assert layers["queue"] == pytest.approx(0.6 + 0.3 + 0.1)


def test_unattributed_is_wall_time_no_span_covers():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert covered(FOREST, [(0.0, 10.0)]) == pytest.approx(9.0)
    m = layer_metrics(FOREST, {}, windows=[(0.0, 10.0)])
    assert m["unattributed_s"] == pytest.approx(1.0)
    assert m["attributed_ratio"] == pytest.approx(0.9)


def test_busy_time_counts_nested_peers_once():
    assert [s["span_id"] for s in outermost(FOREST, "queue.claim")] == ["s"]
    assert outermost(FOREST, "queue.claim", peers=("queue.commit",)) == []
    m = layer_metrics(FOREST, {}, windows=[(0.0, 10.0)])
    assert m["queue.claim.calls"] == 0
    assert m["queue.commit.busy_s"] == pytest.approx(0.4)
    assert m["queue.idle_s"] == pytest.approx(0.6)
    assert m["queue.units.done"] == 1
    assert m["baselines.fit.busy_s.KNN"] == pytest.approx(3.0)
    assert (m["eval.cache.hits"], m["eval.cache.misses"]) == (1, 1)
    assert m["eval.cache.bytes_written"] == 100
