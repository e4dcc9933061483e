"""Installing and restoring the layer wrappers."""

import importlib

from bench.spans import Collector
from bench.wrappers import SITES, install


def _current(site):
    module = importlib.import_module(site.module)
    owner = getattr(module, site.owner) if site.owner else module
    return owner.__dict__[site.attr]


def test_restore_leaves_every_wrapped_function_identical():
    originals = [_current(site) for site in SITES]
    installed = install(Collector())
    try:
        assert all(_current(site) is not original for site, original in zip(SITES, originals))
    finally:
        installed.restore()
    assert all(_current(site) is original for site, original in zip(SITES, originals))


def test_wrapped_call_records_its_span_and_passes_the_result_through():
    from repro.obs import trace
    from repro.serve.aio import protocol

    document = {"model": "knn", "fingerprint": [1.0, 2.0]}
    expected = protocol.encode_body(document, protocol.CONTENT_JSON)
    collector = Collector()
    trace.set_enabled(True)
    trace.add_exporter(collector)
    try:
        with install(collector):
            assert protocol.encode_body(document, protocol.CONTENT_JSON) == expected
    finally:
        trace.remove_exporter(collector)
        trace.set_enabled(None)
    assert [span["name"] for span in collector.spans] == ["serve.protocol.encode"]
