"""Tests for the :class:`repro.serve.MicroBatcher` micro-batching executor."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import LocalizationService
from repro.serve import MicroBatcher


@pytest.fixture()
def service(tiny_campaign) -> LocalizationService:
    return LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)


class TestBitIdentity:
    def test_single_fingerprint_requests_match_direct_batch(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        direct = service.localize(test.features)
        with MicroBatcher(service.localize, max_batch=4) as batcher:
            futures = [batcher.submit(row) for row in test.features]
            results = [future.result(timeout=10) for future in futures]
        np.testing.assert_array_equal(
            np.concatenate([r.labels for r in results]), direct.labels
        )
        np.testing.assert_array_equal(
            np.concatenate([r.coordinates for r in results]), direct.coordinates
        )
        np.testing.assert_array_equal(
            np.concatenate([r.error_estimate for r in results]), direct.error_estimate
        )
        np.testing.assert_array_equal(
            np.concatenate([r.probabilities for r in results]), direct.probabilities
        )

    def test_multi_row_requests_keep_their_slices(self, service, tiny_campaign):
        test = tiny_campaign.test_for("BLU")
        with MicroBatcher(service.localize, max_batch=64) as batcher:
            first = batcher.submit(test.features[:4])
            second = batcher.submit(test.features[4:7])
            a, b = first.result(timeout=10), second.result(timeout=10)
        assert len(a) == 4 and len(b) == 3
        direct = service.localize(test.features[:7])
        np.testing.assert_array_equal(np.concatenate([a.labels, b.labels]), direct.labels)

    def test_concurrent_callers(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        direct = service.localize(test.features)
        results = [None] * test.features.shape[0]
        with MicroBatcher(service.localize, max_batch=8) as batcher:
            def worker(index: int) -> None:
                results[index] = batcher.localize(test.features[index])

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(test.features.shape[0])
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        for index, result in enumerate(results):
            assert result is not None
            assert result.labels[0] == direct.labels[index]


class TestFlushPolicy:
    def test_max_batch_triggers_immediate_flush(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        with MicroBatcher(service.localize, max_batch=4) as batcher:
            futures = [batcher.submit(row) for row in test.features[:8]]
            for future in futures:
                future.result(timeout=10)
            assert batcher.stats.batches >= 2
            assert batcher.stats.requests == 8
            assert batcher.stats.max_batch_size <= 4

    def test_partial_batch_flushes_without_waiting(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        with MicroBatcher(service.localize, max_batch=1_000) as batcher:
            start = time.perf_counter()
            result = batcher.localize(test.features[0])
            elapsed = time.perf_counter() - start
            assert batcher.stats.batches == 1
            assert batcher.stats.max_batch_size == 1
        assert result.labels.shape == (1,)
        assert elapsed < 10.0  # an idle flusher takes a lone request at once

    def test_requests_queued_during_a_flush_leave_together(self, service, tiny_campaign):
        """Whatever queues while a flush runs forms the next batches: in
        arrival order, each stopping once ``max_batch`` rows are taken,
        never splitting a request (so one larger than ``max_batch`` at the
        head of the queue flushes alone)."""
        rows = np.concatenate(
            [tiny_campaign.test_for(device).features for device in ("S7", "BLU")]
        )
        entered, release = threading.Event(), threading.Event()
        flushed = []

        def gated_localize(features):
            flushed.append(features.copy())
            entered.set()
            release.wait(10)
            return service.localize(features)

        requests = [
            rows[1], rows[2], rows[3], rows[4], rows[5:11], rows[11:14], rows[14:17], rows[17]
        ]
        with MicroBatcher(gated_localize, max_batch=4) as batcher:
            first = batcher.submit(rows[0])
            assert entered.wait(10)  # the flusher is now blocked on the first batch
            futures = [batcher.submit(request) for request in requests]
            release.set()
            results = [future.result(timeout=10) for future in [first, *futures]]
        # 4 singles fill a batch; the 6-row request flushes alone; 3 + 3 rows
        # stop past max_batch; the last single goes on its own.
        expected = [rows[0:1], rows[1:5], rows[5:11], rows[11:17], rows[17:18]]
        assert [batch.shape[0] for batch in flushed] == [1, 4, 6, 6, 1]
        for batch, rows_expected in zip(flushed, expected):
            np.testing.assert_array_equal(batch, rows_expected)
        direct = service.localize(rows[:18])
        np.testing.assert_array_equal(
            np.concatenate([result.labels for result in results]), direct.labels
        )

    def test_oversized_request_is_not_split(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        with MicroBatcher(service.localize, max_batch=2) as batcher:
            result = batcher.localize(test.features)
        assert len(result) == test.features.shape[0]

    def test_stats_document(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        with MicroBatcher(service.localize, max_batch=4) as batcher:
            for row in test.features[:4]:
                batcher.localize(row)
            stats = batcher.stats.as_dict()
        assert stats["requests"] == 4
        assert stats["fingerprints"] == 4
        assert stats["batches"] >= 1
        assert stats["mean_batch_size"] >= 1


class TestLifecycleAndErrors:
    def test_exception_propagates_to_all_callers(self):
        def failing(features):
            raise RuntimeError("model exploded")

        with MicroBatcher(failing, max_batch=8) as batcher:
            futures = [batcher.submit(np.zeros(4)) for _ in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="model exploded"):
                    future.result(timeout=10)

    def test_lone_failed_request_runs_the_model_once(self):
        """A request that flushed alone gets the error it raised; it is not
        run again on its own."""
        calls = []

        def failing(features):
            calls.append(features.shape[0])
            raise RuntimeError("model exploded")

        with MicroBatcher(failing, max_batch=64) as batcher:
            with pytest.raises(RuntimeError, match="model exploded"):
                batcher.localize(np.zeros((20, 4)))
        assert calls == [20]

    def test_bad_request_neither_kills_flusher_nor_fails_batchmates(
        self, service, tiny_campaign
    ):
        """Regression: a mismatched fingerprint width co-batched with valid
        requests must fail only its own caller — the flusher survives and
        innocent batch-mates still get their results."""
        test = tiny_campaign.test_for("S7")
        entered, release = threading.Event(), threading.Event()
        calls = []

        def localize(features):
            calls.append(features.shape)
            if len(calls) == 1:  # hold the first flush
                entered.set()
                release.wait(10)
            return service.localize(features)

        with MicroBatcher(localize, max_batch=8) as batcher:
            opener = batcher.submit(test.features[0])
            assert entered.wait(10)  # the flusher is blocked on the first batch
            good = batcher.submit(test.features[1])
            bad = batcher.submit(np.zeros(3))  # wrong AP count
            also_good = batcher.submit(test.features[2])
            release.set()
            results = [opener.result(timeout=10), good.result(timeout=10)]
            with pytest.raises(ValueError, match="APs|concatenat"):
                bad.result(timeout=10)
            results.append(also_good.result(timeout=10))
            assert [result.labels.shape for result in results] == [(1,)] * 3
            direct = service.localize(test.features[:3]).labels
            np.testing.assert_array_equal(
                np.concatenate([result.labels for result in results]), direct
            )
            # The opener flushed alone.  The three queued behind it failed
            # to concatenate, so nothing was called for them together, and
            # each was retried on its own, in arrival order.
            width = test.features.shape[1]
            assert calls == [(1, width), (1, width), (1, 3), (1, width)]
            # The flusher is still alive and serving.
            later = batcher.localize(test.features[3])
            assert later.labels.shape == (1,)

    def test_cancelled_future_neither_kills_flusher_nor_starves_batchmates(
        self, service, tiny_campaign
    ):
        """Regression: delivering into a cancelled future raised
        InvalidStateError and killed the flusher thread for good."""
        test = tiny_campaign.test_for("S7")
        release = threading.Event()

        def gated_localize(features):
            release.wait(10)
            return service.localize(features)

        with MicroBatcher(gated_localize, max_batch=8) as batcher:
            first = batcher.submit(test.features[0])
            time.sleep(0.05)  # flusher is now blocked inside gated_localize
            doomed = batcher.submit(test.features[1])
            survivor = batcher.submit(test.features[2])
            assert doomed.cancel()  # still queued behind the blocked flush
            release.set()
            assert first.result(timeout=10).labels.shape == (1,)
            assert survivor.result(timeout=10).labels.shape == (1,)
            # Flusher is still alive and the endpoint still serves.
            assert batcher.localize(test.features[0]).labels.shape == (1,)

    def test_submit_after_close_raises(self, service):
        batcher = MicroBatcher(service.localize, max_batch=4)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(np.zeros(4))

    def test_close_drains_queue(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        batcher = MicroBatcher(service.localize, max_batch=1_000)
        futures = [batcher.submit(row) for row in test.features[:3]]
        batcher.close(timeout=10)
        for future in futures:
            assert future.result(timeout=1) is not None

    def test_invalid_knobs_rejected(self, service):
        with pytest.raises(ValueError):
            MicroBatcher(service.localize, max_batch=0)
