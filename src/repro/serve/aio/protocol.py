"""Wire codecs + shared request/response logic for the serving tier.

Three request/response body encodings, negotiated per request via
``Content-Type`` (responses mirror the request encoding):

``application/json``
    The PR-4 wire format, unchanged — every existing client keeps working.
``application/x-repro-ndarray``
    A self-contained raw-array framing that skips per-float JSON text
    entirely: magic ``RNA1`` | u32-LE header length | UTF-8 JSON header
    (scalar fields + array descriptors ``{name, dtype, shape}``) | the
    arrays' raw C-order bytes, concatenated in descriptor order.  Floats
    travel as their exact 8 bytes, so bit-identity is structural rather
    than a property of float repr round-tripping.
``application/msgpack``
    Same document shape as JSON, msgpack-framed.  Available only when the
    optional :mod:`msgpack` package is importable (it is not a hard
    dependency); servers advertise it in ``/healthz`` and reject it with
    415 otherwise.

The module also hosts the *semantic* half of ``POST /v1/localize`` —
:func:`parse_localize_payload` and :func:`build_localize_document` — which
:class:`~repro.serve.http.ServingApp` applies to every request body.
"""

from __future__ import annotations

import json
import re
import struct
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ...data.fingerprint import require_finite

try:  # Optional accelerated encoding; the wire protocol works without it.
    import msgpack  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - exercised where msgpack is absent
    msgpack = None  # type: ignore[assignment]

__all__ = [
    "CONTENT_JSON",
    "CONTENT_NDARRAY",
    "CONTENT_MSGPACK",
    "ProtocolError",
    "UnsupportedContentType",
    "msgpack_available",
    "supported_content_types",
    "normalize_content_type",
    "pack_arrays",
    "unpack_arrays",
    "encode_body",
    "decode_body",
    "parse_localize_payload",
    "build_localize_document",
]

CONTENT_JSON = "application/json"
CONTENT_NDARRAY = "application/x-repro-ndarray"
CONTENT_MSGPACK = "application/msgpack"

#: Wire-format magic of the raw-ndarray framing (version 1).
NDARRAY_MAGIC = b"RNA1"

#: Numeric dtypes allowed on the wire: bool/int/uint/float, 1-8 bytes.  Object
#: or void dtypes must never be constructible from an untrusted body.
_DTYPE_RE = re.compile(r"^[<>|]?[biuf][1248]$")

#: Keys of a localize document whose values are arrays on the binary wire.
_DOCUMENT_ARRAYS = ("labels", "coordinates", "error_estimate", "probabilities")


class ProtocolError(ValueError):
    """Malformed request/response body (maps to HTTP 400)."""


class UnsupportedContentType(ValueError):
    """Content type the server cannot decode (maps to HTTP 415)."""


def msgpack_available() -> bool:
    """Whether the optional msgpack codec can be used in this process."""
    return msgpack is not None


def supported_content_types() -> List[str]:
    """Content types this process can serve, preference order first."""
    types = [CONTENT_JSON, CONTENT_NDARRAY]
    if msgpack_available():
        types.append(CONTENT_MSGPACK)
    return types


def normalize_content_type(header: Optional[str]) -> str:
    """Map a ``Content-Type`` header to a supported codec name.

    A missing header defaults to JSON (matching the PR-4 server, which never
    looked at the header).  Parameters (``; charset=...``) are ignored.
    """
    if not header:
        return CONTENT_JSON
    base = header.split(";", 1)[0].strip().lower()
    if base in ("", CONTENT_JSON, "text/json"):
        return CONTENT_JSON
    if base == CONTENT_NDARRAY:
        return CONTENT_NDARRAY
    if base in (CONTENT_MSGPACK, "application/x-msgpack"):
        if not msgpack_available():
            raise UnsupportedContentType(
                "msgpack requested but the 'msgpack' package is not installed "
                f"(supported: {', '.join(supported_content_types())})"
            )
        return CONTENT_MSGPACK
    raise UnsupportedContentType(
        f"unsupported content type '{header}' "
        f"(supported: {', '.join(supported_content_types())})"
    )


# ----------------------------------------------------------------------
# Raw-ndarray framing
# ----------------------------------------------------------------------
def pack_arrays(meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]) -> bytes:
    """Frame scalar fields + named arrays as one ``RNA1`` message."""
    descriptors = []
    chunks = []
    for name, value in arrays.items():
        array = np.ascontiguousarray(np.asarray(value))
        if not _DTYPE_RE.match(array.dtype.str):
            raise ProtocolError(
                f"array '{name}' has non-numeric dtype {array.dtype} — "
                "only bool/int/uint/float arrays travel on the wire"
            )
        descriptors.append(
            {"name": str(name), "dtype": array.dtype.str, "shape": list(array.shape)}
        )
        chunks.append(array.tobytes())
    header = json.dumps(
        {"meta": dict(meta), "arrays": descriptors}, separators=(",", ":")
    ).encode("utf-8")
    return b"".join(
        [NDARRAY_MAGIC, struct.pack("<I", len(header)), header, *chunks]
    )


def unpack_arrays(body: bytes) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Parse one ``RNA1`` message back into ``(meta, arrays)``.

    Every framing violation raises :class:`ProtocolError` — an adversarial
    body can at worst be rejected, never allocate past its own length.
    """
    if len(body) < 8 or body[:4] != NDARRAY_MAGIC:
        raise ProtocolError("not a repro-ndarray body (bad magic)")
    (header_length,) = struct.unpack("<I", body[4:8])
    if 8 + header_length > len(body):
        raise ProtocolError("truncated repro-ndarray header")
    try:
        header = json.loads(body[8 : 8 + header_length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed repro-ndarray header: {error}") from error
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise ProtocolError("repro-ndarray header must carry 'meta' and 'arrays'")
    meta = header.get("meta")
    if not isinstance(meta, dict):
        raise ProtocolError("repro-ndarray 'meta' must be an object")
    arrays: Dict[str, np.ndarray] = {}
    offset = 8 + header_length
    for descriptor in header["arrays"]:
        try:
            name = str(descriptor["name"])
            dtype_str = str(descriptor["dtype"])
            shape = tuple(int(n) for n in descriptor["shape"])
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"bad array descriptor {descriptor!r}") from error
        if not _DTYPE_RE.match(dtype_str):
            raise ProtocolError(f"array '{name}' has forbidden dtype '{dtype_str}'")
        if any(n < 0 for n in shape):
            raise ProtocolError(f"array '{name}' has negative shape {shape}")
        dtype = np.dtype(dtype_str)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(body):
            raise ProtocolError(f"truncated payload for array '{name}'")
        arrays[name] = np.frombuffer(
            body, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
        offset += nbytes
    if offset != len(body):
        raise ProtocolError(f"{len(body) - offset} trailing byte(s) after arrays")
    return meta, arrays


# ----------------------------------------------------------------------
# Content-type dispatch
# ----------------------------------------------------------------------
def encode_body(document: Mapping[str, Any], content_type: str) -> bytes:
    """Serialize a request payload or response document for the wire."""
    if content_type == CONTENT_JSON:
        return json.dumps(_delistify(document)).encode("utf-8")
    if content_type == CONTENT_MSGPACK:
        if not msgpack_available():  # pragma: no cover - guarded by negotiate
            raise UnsupportedContentType("msgpack is not installed")
        return msgpack.packb(_delistify(document), use_single_float=False)
    if content_type == CONTENT_NDARRAY:
        meta: Dict[str, Any] = {}
        arrays: Dict[str, np.ndarray] = {}
        for key, value in document.items():
            if isinstance(value, np.ndarray):
                arrays[key] = value
            elif key in ("fingerprints", "fingerprint", *_DOCUMENT_ARRAYS) and (
                value is not None
            ):
                # None entries (NaN on the JSON wire) coerce back to NaN here.
                dtype = np.int64 if key == "labels" else np.float64
                arrays[key] = np.asarray(value, dtype=dtype)
            else:
                meta[key] = value
        return pack_arrays(meta, arrays)
    raise UnsupportedContentType(f"unsupported content type '{content_type}'")


def decode_body(body: bytes, content_type: str) -> Dict[str, Any]:
    """Parse a wire body into a payload/document mapping.

    Binary bodies keep their arrays as :class:`numpy.ndarray`; JSON/msgpack
    bodies keep lists.  :func:`parse_localize_payload` accepts both.
    """
    if content_type == CONTENT_JSON:
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"malformed JSON body: {error}") from error
    elif content_type == CONTENT_MSGPACK:
        if not msgpack_available():  # pragma: no cover - guarded by negotiate
            raise UnsupportedContentType("msgpack is not installed")
        try:
            document = msgpack.unpackb(body, raw=False, strict_map_key=False)
        except Exception as error:
            raise ProtocolError(f"malformed msgpack body: {error}") from error
    elif content_type == CONTENT_NDARRAY:
        meta, arrays = unpack_arrays(body)
        document = {**meta, **arrays}
    else:
        raise UnsupportedContentType(f"unsupported content type '{content_type}'")
    if not isinstance(document, dict):
        raise ProtocolError("request body must decode to an object")
    return document


def _delistify(document: Mapping[str, Any]) -> Dict[str, Any]:
    """Arrays -> nested lists, so one document dict feeds every codec."""
    out: Dict[str, Any] = {}
    for key, value in document.items():
        out[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


# ----------------------------------------------------------------------
# Localize request/response semantics (shared by both front ends)
# ----------------------------------------------------------------------
def parse_localize_payload(
    payload: Mapping[str, Any],
) -> Tuple[str, np.ndarray, bool]:
    """Validate a ``POST /v1/localize`` payload -> ``(endpoint, features, proba)``.

    A flat fingerprint list is promoted to a batch of one, the empty list is
    an empty batch; anything non-2-D, or a fingerprint with a NaN or
    infinite reading, is a :class:`ValueError` (HTTP 400) raised before the
    request reaches a batch.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("request body must be a JSON object")
    endpoint = payload.get("model")
    if not endpoint or not isinstance(endpoint, str):
        raise ValueError("request must name a 'model' (endpoint or store ref)")
    fingerprints = payload.get("fingerprints", payload.get("fingerprint"))
    if fingerprints is None:
        raise ValueError("request must carry 'fingerprints' (or 'fingerprint')")
    features = np.asarray(fingerprints, dtype=np.float64)
    if features.ndim == 1:
        # A flat list is one fingerprint; the empty list is an empty batch.
        features = features.reshape(0, 0) if features.size == 0 else features[None, :]
    if features.ndim != 2:
        raise ValueError(
            f"fingerprints must be a (n, num_aps) matrix, got shape {features.shape}"
        )
    require_finite(features)
    return endpoint, features, bool(payload.get("probabilities"))


def build_localize_document(
    endpoint: str,
    ref: str,
    result: Any,
    probabilities: bool = False,
) -> Dict[str, Any]:
    """The ``POST /v1/localize`` response document for one result."""
    document: Dict[str, Any] = {
        "model": endpoint,
        "ref": ref,
        "count": len(result),
        "labels": [int(v) for v in result.labels],
        "coordinates": [[float(x), float(y)] for x, y in result.coordinates],
        "error_estimate": jsonable_floats(result.error_estimate),
    }
    if probabilities and result.probabilities is not None:
        document["probabilities"] = [
            [float(v) for v in row] for row in result.probabilities
        ]
    if result.guard_flags is not None:
        # Monitor-mode guard verdicts: indices the detector flagged
        # (enforce mode rejects the whole request with 403 instead).
        document["guard_flagged"] = [int(i) for i in np.flatnonzero(result.guard_flags)]
    return document


def jsonable_floats(values: np.ndarray) -> List[Optional[float]]:
    """Float array -> JSON list; NaN (no probability model) becomes ``null``."""
    return [
        None if np.isnan(v) else float(v)
        for v in np.asarray(values, dtype=np.float64)
    ]
