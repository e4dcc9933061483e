"""Span correctness: nesting, hand-offs, and engine-unit attribution.

The headline invariants from the telemetry contract:

* spans nest correctly through nested ``with`` blocks, asyncio tasks, and
  explicit thread hand-offs (the MicroBatcher flusher);
* exactly one ``engine.unit`` span is recorded per *executed* unit, and its
  ``cache_hits``/``cache_misses`` attribution matches the ArtifactCache's
  own accounting;
* with telemetry disabled, no spans exist at all.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.obs import trace
from repro.obs.metrics import REGISTRY


@pytest.fixture()
def collected():
    spans = []
    trace.add_exporter(spans.append)
    yield spans
    trace.remove_exporter(spans.append)


class TestNesting:
    def test_parent_child_linkage(self, collected):
        with trace.span("outer") as outer:
            with trace.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id == outer.span_id
        assert [span.name for span in collected] == ["inner", "outer"]

    def test_current_tracks_innermost(self):
        assert trace.current() is None
        with trace.span("a") as outer:
            assert trace.current() is outer
            with trace.span("b") as inner:
                assert trace.current() is inner
            assert trace.current() is outer
        assert trace.current() is None

    def test_exception_marks_error_status(self, collected):
        with pytest.raises(RuntimeError):
            with trace.span("boom"):
                raise RuntimeError("no")
        (span,) = collected
        assert span.status == "error"
        assert span.attrs["error"] == "RuntimeError"

    def test_set_updates_attrs(self, collected):
        with trace.span("attrs", static=1) as span:
            span.set(dynamic=2)
        assert collected[0].attrs == {"static": 1, "dynamic": 2}

    def test_disabled_spans_are_free_and_absent(self, collected):
        trace.set_enabled(False)
        context = trace.span("ghost")
        assert context is trace.span("ghost2")  # shared null context
        with context as span:
            span.set(ignored=True)
        assert trace.current() is None
        assert collected == []

    def test_finished_spans_feed_registry_metrics(self):
        counter = REGISTRY.counter(
            "repro_spans_total", "Finished spans by name", ("name", "status")
        )
        before = counter.labels(name="metric.probe", status="ok").value
        with trace.span("metric.probe"):
            pass
        assert counter.labels(name="metric.probe", status="ok").value == before + 1


class TestHandOffs:
    def test_attach_carries_parent_across_threads(self, collected):
        def worker(parent):
            with trace.attach(parent):
                with trace.span("child.thread"):
                    pass

        with trace.span("parent.main") as parent:
            thread = threading.Thread(target=worker, args=(trace.current(),))
            thread.start()
            thread.join()
        child = next(s for s in collected if s.name == "child.thread")
        assert child.parent_id == parent.span_id
        assert child.trace_id == parent.trace_id

    def test_asyncio_tasks_inherit_the_ambient_span(self, collected):
        async def task_body():
            with trace.span("child.task"):
                await asyncio.sleep(0)

        async def main():
            with trace.span("parent.async") as parent:
                await asyncio.gather(task_body(), task_body())
                return parent

        parent = asyncio.run(main())
        children = [s for s in collected if s.name == "child.task"]
        assert len(children) == 2
        assert {s.parent_id for s in children} == {parent.span_id}

    def test_microbatcher_flush_span_parents_to_submitter(self, collected):
        from repro.serve.batching import MicroBatcher

        def localize(features):
            from repro.api import LocalizationResult

            n = features.shape[0]
            return LocalizationResult(
                labels=np.zeros(n, dtype=np.int64),
                coordinates=np.zeros((n, 2)),
                error_estimate=np.zeros(n),
            )

        with trace.span("request.side") as request_span:
            with MicroBatcher(localize, max_batch=4) as batcher:
                batcher.submit(np.zeros(3)).result(timeout=5)
        flush = next(s for s in collected if s.name == "serve.batch.flush")
        assert flush.parent_id == request_span.span_id
        assert flush.trace_id == request_span.trace_id
        assert flush.attrs["requests"] == 1
        assert flush.attrs["batch_size"] == 1


class TestEngineUnitAttribution:
    @pytest.fixture(scope="class")
    def spec(self):
        from repro.api import ExperimentSpec

        return ExperimentSpec(
            models=("KNN",),
            profile="quick",
            devices=("OP3",),
            attack_methods=("FGSM",),
            epsilons=(0.1,),
            phi_percents=(10.0,),
        )

    def test_one_span_per_executed_unit_with_cache_attribution(
        self, spec, tmp_path, collected
    ):
        from repro.api import run_experiment
        from repro.eval.engine import ArtifactCache

        cache_dir = tmp_path / "cache"

        cold_cache = ArtifactCache(cache_dir)
        run_experiment(spec, cache=cold_cache)
        cold = [s for s in collected if s.name == "engine.unit"]
        collected.clear()

        warm_cache = ArtifactCache(cache_dir)
        run_experiment(spec, cache=warm_cache)
        warm = [s for s in collected if s.name == "engine.unit"]

        # Exactly one span per executed unit: unit ids are unique within a
        # run and the two runs execute the identical plan.
        cold_ids = [s.attrs["unit_id"] for s in cold]
        warm_ids = [s.attrs["unit_id"] for s in warm]
        assert len(cold_ids) == len(set(cold_ids))
        assert sorted(cold_ids) == sorted(warm_ids)
        assert all(s.status == "ok" for s in cold + warm)
        assert {s.attrs["kind"] for s in cold} >= {"campaign", "train", "eval"}

        # Attribution matches the cache's own books exactly.
        assert sum(s.attrs["cache_hits"] for s in cold) == cold_cache.stats.hits
        assert sum(s.attrs["cache_misses"] for s in cold) == cold_cache.stats.misses
        assert sum(s.attrs["cache_hits"] for s in warm) == warm_cache.stats.hits
        assert sum(s.attrs["cache_misses"] for s in warm) == warm_cache.stats.misses
        assert cold_cache.stats.misses > 0
        # The warm run recomputes nothing.
        assert warm_cache.stats.misses == 0
        assert all(s.attrs["cache_misses"] == 0 for s in warm)

    def test_disabled_telemetry_yields_no_engine_spans(self, spec, collected):
        from repro.api import run_experiment

        trace.set_enabled(False)
        results = run_experiment(spec, cache=False)
        trace.set_enabled(None)
        assert len(results.to_records()) > 0
        assert [s for s in collected if s.name == "engine.unit"] == []
