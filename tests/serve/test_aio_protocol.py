"""Tests for the wire codecs shared by both serving front ends."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.serve.aio.protocol import (
    CONTENT_JSON,
    CONTENT_MSGPACK,
    CONTENT_NDARRAY,
    NDARRAY_MAGIC,
    ProtocolError,
    UnsupportedContentType,
    decode_body,
    encode_body,
    msgpack_available,
    normalize_content_type,
    pack_arrays,
    parse_localize_payload,
    supported_content_types,
    unpack_arrays,
)


class TestNdarrayFraming:
    def test_roundtrip_mixed_dtypes_and_shapes(self):
        arrays = {
            "features": np.arange(12, dtype=np.float64).reshape(3, 4),
            "labels": np.array([7, 1, 2], dtype=np.int64),
            "empty": np.empty((0, 5), dtype=np.float64),
            "scalarish": np.array(3.5),
        }
        meta, back = unpack_arrays(pack_arrays({"model": "knn"}, arrays))
        assert meta == {"model": "knn"}
        assert set(back) == set(arrays)
        for name, array in arrays.items():
            assert back[name].dtype == array.dtype
            np.testing.assert_array_equal(back[name], array)

    def test_float_payloads_are_bit_exact(self):
        tricky = np.array([[np.pi, np.e, 1e-300, -0.0]])
        _, back = unpack_arrays(pack_arrays({}, {"x": tricky}))
        assert back["x"].tobytes() == tricky.tobytes()

    def test_rejects_non_numeric_dtype_on_pack(self):
        with pytest.raises(ProtocolError, match="non-numeric"):
            pack_arrays({}, {"bad": np.array(["a", "b"])})

    def test_rejects_bad_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            unpack_arrays(b"NOPE" + b"\x00" * 16)

    def test_rejects_truncated_header_and_payload(self):
        body = pack_arrays({}, {"x": np.ones((2, 2))})
        with pytest.raises(ProtocolError, match="truncated"):
            unpack_arrays(body[:10])
        with pytest.raises(ProtocolError, match="truncated"):
            unpack_arrays(body[:-8])

    def test_rejects_trailing_bytes(self):
        body = pack_arrays({}, {"x": np.ones(3)})
        with pytest.raises(ProtocolError, match="trailing"):
            unpack_arrays(body + b"\x00")

    def _forged(self, descriptor, payload=b""):
        header = json.dumps({"meta": {}, "arrays": [descriptor]}).encode()
        return NDARRAY_MAGIC + struct.pack("<I", len(header)) + header + payload

    def test_rejects_forbidden_dtype_descriptor(self):
        body = self._forged({"name": "x", "dtype": "<O8", "shape": [1]}, b"\x00" * 8)
        with pytest.raises(ProtocolError, match="forbidden dtype"):
            unpack_arrays(body)

    def test_rejects_negative_shape(self):
        body = self._forged({"name": "x", "dtype": "<f8", "shape": [-1, 8]})
        with pytest.raises(ProtocolError, match="negative shape"):
            unpack_arrays(body)

    def test_rejects_oversized_declared_array(self):
        # Declares 2**40 floats but ships none: must reject, never allocate.
        body = self._forged({"name": "x", "dtype": "<f8", "shape": [2**40]})
        with pytest.raises(ProtocolError, match="truncated"):
            unpack_arrays(body)


class TestContentNegotiation:
    def test_missing_header_is_json(self):
        assert normalize_content_type(None) == CONTENT_JSON
        assert normalize_content_type("") == CONTENT_JSON

    def test_parameters_are_stripped(self):
        assert normalize_content_type("application/json; charset=utf-8") == CONTENT_JSON

    def test_ndarray_and_msgpack_alias(self):
        assert normalize_content_type(CONTENT_NDARRAY) == CONTENT_NDARRAY
        if msgpack_available():
            assert normalize_content_type("application/x-msgpack") == CONTENT_MSGPACK
        else:
            with pytest.raises(UnsupportedContentType):
                normalize_content_type(CONTENT_MSGPACK)

    def test_unknown_type_rejected_with_supported_list(self):
        with pytest.raises(UnsupportedContentType) as excinfo:
            normalize_content_type("text/csv")
        assert CONTENT_JSON in str(excinfo.value)

    def test_supported_content_types_reflect_msgpack(self):
        types = supported_content_types()
        assert CONTENT_JSON in types and CONTENT_NDARRAY in types
        assert (CONTENT_MSGPACK in types) == msgpack_available()


class TestBodyCodecs:
    PAYLOAD = {"model": "knn@prod", "fingerprints": [[-40.0, -60.0], [-45.0, -61.0]]}

    def test_json_roundtrip(self):
        body = encode_body(self.PAYLOAD, CONTENT_JSON)
        assert decode_body(body, CONTENT_JSON)["model"] == "knn@prod"

    def test_ndarray_roundtrip_preserves_payload_semantics(self):
        payload = dict(self.PAYLOAD, fingerprints=np.asarray(self.PAYLOAD["fingerprints"]))
        decoded = decode_body(encode_body(payload, CONTENT_NDARRAY), CONTENT_NDARRAY)
        endpoint, features, proba = parse_localize_payload(decoded)
        assert endpoint == "knn@prod"
        np.testing.assert_array_equal(features, self.PAYLOAD["fingerprints"])
        assert proba is False

    def test_ndarray_labels_stay_integers(self):
        document = {"model": "knn", "ref": "knn@v1", "labels": [3, 1, 4]}
        decoded = decode_body(encode_body(document, CONTENT_NDARRAY), CONTENT_NDARRAY)
        # Arrays come back zero-copy; labels must stay integral, not float64.
        assert np.asarray(decoded["labels"]).dtype == np.int64
        np.testing.assert_array_equal(decoded["labels"], [3, 1, 4])

    def test_ndarray_null_error_estimates_survive(self):
        # JSON null (no probability model) rides the binary wire as NaN —
        # the direct service's native representation.
        document = {"model": "knn", "ref": "knn@v1", "error_estimate": [1.5, None]}
        decoded = decode_body(encode_body(document, CONTENT_NDARRAY), CONTENT_NDARRAY)
        assert decoded["error_estimate"][0] == 1.5
        assert np.isnan(decoded["error_estimate"][1])

    @pytest.mark.skipif(not msgpack_available(), reason="msgpack not installed")
    def test_msgpack_roundtrip(self):
        body = encode_body(self.PAYLOAD, CONTENT_MSGPACK)
        decoded = decode_body(body, CONTENT_MSGPACK)
        endpoint, features, _ = parse_localize_payload(decoded)
        assert endpoint == "knn@prod"
        np.testing.assert_array_equal(features, self.PAYLOAD["fingerprints"])

    def test_msgpack_gated_when_absent(self):
        if msgpack_available():
            pytest.skip("msgpack installed in this environment")
        with pytest.raises(UnsupportedContentType):
            encode_body(self.PAYLOAD, CONTENT_MSGPACK)


class TestParseLocalizePayload:
    def test_flat_list_is_batch_of_one(self):
        _, features, _ = parse_localize_payload(
            {"model": "knn", "fingerprints": [1.0, 2.0]}
        )
        assert features.shape == (1, 2)

    def test_empty_list_is_empty_batch(self):
        _, features, _ = parse_localize_payload({"model": "knn", "fingerprints": []})
        assert features.shape == (0, 0)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"model": "knn"},
            {"fingerprints": [[0.0]]},
            {"model": "knn", "fingerprints": [[[1.0]]]},
        ],
    )
    def test_invalid_payloads_raise_value_error(self, payload):
        with pytest.raises(ValueError):
            parse_localize_payload(payload)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected_like_the_service(self, tiny_campaign, bad):
        from repro.api import LocalizationService

        features = tiny_campaign.test_for("S7").features[:5].copy()
        features[1, 0] = bad
        features[3, -1] = bad
        with pytest.raises(ValueError, match=r"2 fingerprint\(s\).*rows \[1, 3\]") as edge:
            parse_localize_payload({"model": "knn", "fingerprints": features})
        service = LocalizationService("KNN").fit(tiny_campaign.train)
        with pytest.raises(ValueError) as direct:
            service.localize(features)
        assert str(edge.value) == str(direct.value)
