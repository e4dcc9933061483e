"""Versioned, content-addressed registry of fitted service artifacts.

:class:`ModelStore` turns fitted :class:`~repro.api.LocalizationService`
instances into *named, versioned deployment artifacts*.  Storage is layered on
the engine's :class:`~repro.eval.engine.ArtifactCache`: every published
service is serialized through :meth:`LocalizationService.state_arrays` and
stored content-addressed (kind ``"service"``) under a SHA-256 digest of its
arrays, while a small JSON manifest per model name records the version
history and the tag → version mapping.

Publishing the byte-identical artifact twice therefore never duplicates
storage — the existing version is returned (and re-tagged).  References are
resolved with a ``name[@selector]`` grammar:

``"calloc"``
    the latest published version of ``calloc``;
``"calloc@prod"``
    the version the ``prod`` tag points at;
``"calloc@v2"`` (or ``"calloc@2"``)
    version 2 exactly.

Typical flow::

    store = ModelStore("./store")
    version = store.publish(service, "calloc", tags=("prod",))
    service = store.resolve("calloc@prod")            # lazy, bit-identical
    store.promote("calloc@v1", "prod")                # roll back a tag
    store.export("calloc@prod", "calloc.npz")         # standalone archive
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..atomic import write_atomic
from ..eval.engine import ArtifactCache, default_cache_dir

try:  # POSIX advisory locking for concurrent publishers; absent on Windows.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api uses the store lazily)
    from ..api import LocalizationService
    from ..eval.scenarios import EvaluationConfig

__all__ = [
    "StoreError",
    "ModelVersion",
    "ModelStore",
    "default_store_dir",
    "arrays_digest",
]

PathLike = Union[str, Path]

#: Artefact kind under which service archives live in the backing cache.
SERVICE_KIND = "service"

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")


def default_store_dir() -> Path:
    """Default store root: ``<cache root>/store`` (honours ``REPRO_CACHE_DIR``)."""
    return default_cache_dir() / "store"


class StoreError(KeyError):
    """Unknown model name / reference, or an invalid publish request."""

    def __str__(self) -> str:  # KeyError repr()s its message; show it verbatim.
        return self.args[0] if self.args else ""


def arrays_digest(arrays: Mapping[str, np.ndarray]) -> str:
    """Content digest of a named-array archive: SHA-256 over names + bytes.

    Unlike :func:`repro.eval.engine.cache_key` (which canonicalises values
    through JSON), this hashes the raw array bytes — exact for floats and
    fast for model-sized payloads.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(np.asarray(arrays[name]))
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ModelVersion:
    """One immutable published version of a named model."""

    name: str
    version: int
    digest: str
    model: str
    params: Tuple[Tuple[str, Any], ...]
    created_unix: float
    tags: Tuple[str, ...] = ()
    #: Defense provenance: the hardening strategy the artifact was trained
    #: under ("none" for plain fits; see :mod:`repro.defenses`).
    defense: str = "none"

    @property
    def ref(self) -> str:
        """Canonical reference (``"calloc@v2"``) selecting exactly this version."""
        return f"{self.name}@v{self.version}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "version": self.version,
            "ref": self.ref,
            "digest": self.digest,
            "model": self.model,
            "params": dict(self.params),
            "tags": list(self.tags),
            "created_unix": self.created_unix,
            "defense": self.defense,
        }


class ModelStore:
    """Versioned, content-addressed store of fitted localization services.

    Parameters
    ----------
    root:
        Store directory (created on first write).  Defaults to
        ``<cache root>/store`` so experiment cache and deployment store live
        side by side.

    Layout::

        <root>/artifacts/service/<xx>/<digest>.npz   # ArtifactCache payloads
        <root>/manifests/<name>.json                 # version + tag history
    """

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self.root = Path(root).expanduser() if root is not None else default_store_dir()
        #: Backing content-addressed artifact storage (the engine's cache
        #: machinery: atomic writes, sharded digest paths, hit/miss stats).
        self.artifacts = ArtifactCache(self.root / "artifacts")

    # -- manifests ------------------------------------------------------
    def _manifest_path(self, name: str) -> Path:
        return self.root / "manifests" / f"{name}.json"

    @contextmanager
    def _manifest_lock(self, name: str):
        """Exclusive advisory lock serialising manifest read-modify-writes.

        Two concurrent ``publish``/``promote`` calls for the same name would
        otherwise both read version N and overwrite each other's entry.
        """
        lock_path = self.root / "manifests" / f".{name}.lock"
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        # repro-lint: allow[R3] zero-byte fcntl advisory-lock file: the open
        # must target the shared inode itself — an os.replace would detach
        # every concurrently-held flock and void the mutual exclusion.
        with lock_path.open("a") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def manifest_signature(self, name: str) -> Optional[Tuple[int, int]]:
        """Cheap change signal of one model's manifest: ``(st_mtime_ns, st_size)``.

        Manifests are only ever swapped whole via ``os.replace`` (see
        :meth:`_write_manifest`), so any publish/promote/rollback lands as a
        new inode with a new mtime — a gateway can poll this with one
        ``stat`` per request instead of re-reading JSON, and reload exactly
        when the signature changes.  ``None`` means no manifest exists.
        """
        try:
            stat = self._manifest_path(name).stat()
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _read_manifest(self, name: str) -> Optional[Dict[str, Any]]:
        path = self._manifest_path(name)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def _write_manifest(self, name: str, manifest: Dict[str, Any]) -> None:
        path = self._manifest_path(name)

        def writer(temp_path: Path) -> None:
            temp_path.write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            )

        write_atomic(path, writer)

    def _version_from_entry(
        self, name: str, entry: Mapping[str, Any], tags: Mapping[str, int]
    ) -> ModelVersion:
        number = int(entry["version"])
        return ModelVersion(
            name=name,
            version=number,
            digest=entry["digest"],
            model=entry["model"],
            params=tuple(sorted(dict(entry.get("params", {})).items())),
            created_unix=float(entry.get("created_unix", 0.0)),
            tags=tuple(sorted(tag for tag, v in tags.items() if v == number)),
            defense=str(entry.get("defense", "none")),  # pre-1.4 manifests
        )

    # -- publishing -----------------------------------------------------
    def publish(
        self,
        service: "LocalizationService",
        name: str,
        tags: Sequence[str] = (),
    ) -> ModelVersion:
        """Publish a fitted service as the next version of ``name``.

        The service must be fitted and its localizer must implement the
        state-array protocol.  Re-publishing a byte-identical artifact is a
        no-op that returns (and re-tags) the existing version.  ``tags``
        are moved to point at the published version.
        """
        if not _NAME_RE.match(name):
            raise StoreError(
                f"invalid model name '{name}': use lowercase letters, digits, "
                "'.', '_' or '-' (start with a letter or digit)"
            )
        for tag in tags:
            if "@" in tag or not tag:
                raise StoreError(f"invalid tag '{tag}'")
            if re.fullmatch(r"v?\d+", tag):
                raise StoreError(
                    f"invalid tag '{tag}': numeric tags would shadow version selectors"
                )
        arrays = service.state_arrays()  # raises for unfitted/unsupported services
        digest = arrays_digest(arrays)
        with self._manifest_lock(name):
            manifest = self._read_manifest(name) or {
                "name": name, "versions": [], "tags": {},
            }
            existing = next(
                (e for e in manifest["versions"] if e["digest"] == digest), None
            )
            # Store the artifact whenever it is missing — also for an already
            # manifested digest, so republishing heals a store whose artifact
            # files were lost while its manifests survived.
            if not self.artifacts.path_for(SERVICE_KIND, digest, "npz").exists():
                self.artifacts.put_arrays(SERVICE_KIND, digest, arrays)
            if existing is None:
                entry = {
                    "version": len(manifest["versions"]) + 1,
                    "digest": digest,
                    "model": service.model_name,
                    "params": dict(service.params),
                    "created_unix": time.time(),
                    "defense": getattr(service, "defense_name", "none"),
                }
                manifest["versions"].append(entry)
            else:
                entry = existing
            for tag in tags:
                manifest["tags"][tag] = entry["version"]
            self._write_manifest(name, manifest)
        return self._version_from_entry(name, entry, manifest["tags"])

    def publish_trained(
        self,
        building: str,
        model: str = "CALLOC",
        name: Optional[str] = None,
        params: Optional[Mapping[str, Any]] = None,
        profile: str = "quick",
        config: Optional["EvaluationConfig"] = None,
        cache: object = True,
        tags: Sequence[str] = (),
        defense: object = None,
    ) -> ModelVersion:
        """Train-and-publish in one step via the engine's cached work units.

        Campaign simulation and model training run through
        :meth:`LocalizationService.trained_on`, so a building an experiment
        already visited publishes from the warm cache without retraining.
        ``name`` defaults to the lowercased registry name.  ``defense``
        hardens the published service (training-time defenses run in the
        cached training unit; inference guards travel with the artifact) and
        is recorded as provenance in the version manifest.
        """
        from ..api import LocalizationService

        service = LocalizationService.trained_on(
            building, model=model, params=params, profile=profile,
            config=config, cache=cache, defense=defense,
        )
        return self.publish(service, name or service.model_name.lower(), tags=tags)

    # -- reference resolution -------------------------------------------
    def _parse_ref(self, ref: str) -> Tuple[str, Optional[str]]:
        name, _, selector = str(ref).partition("@")
        return name, (selector or None)

    def lookup(self, ref: str) -> ModelVersion:
        """Metadata of the version ``ref`` selects (no artifact I/O)."""
        name, selector = self._parse_ref(ref)
        manifest = self._read_manifest(name)
        if manifest is None or not manifest["versions"]:
            known = ", ".join(self.list_models()) or "<empty store>"
            raise StoreError(f"unknown model '{name}' in store {self.root} ({known})")
        tags: Dict[str, int] = {k: int(v) for k, v in manifest["tags"].items()}
        if selector is None or selector == "latest":
            number = int(manifest["versions"][-1]["version"])
        elif selector in tags:
            number = tags[selector]
        elif re.fullmatch(r"v?\d+", selector):
            number = int(selector.lstrip("v"))
        else:
            raise StoreError(
                f"unknown tag or version '{selector}' for model '{name}' "
                f"(tags: {sorted(tags) or '[]'}, versions: 1..{len(manifest['versions'])})"
            )
        entry = next(
            (e for e in manifest["versions"] if int(e["version"]) == number), None
        )
        if entry is None:
            raise StoreError(
                f"model '{name}' has no version {number} "
                f"(versions: 1..{len(manifest['versions'])})"
            )
        return self._version_from_entry(name, entry, tags)

    def resolve(self, ref: str) -> "LocalizationService":
        """Load the fitted service that ``ref`` selects (bit-identical)."""
        from ..api import LocalizationService

        version = self.lookup(ref)
        arrays = self.artifacts.get_arrays(SERVICE_KIND, version.digest)
        if arrays is None:
            raise StoreError(
                f"artifact {version.digest[:12]}… for '{ref}' is missing from "
                f"{self.artifacts.root} (store corrupted?)"
            )
        return LocalizationService.from_state_arrays(arrays)

    # -- management -----------------------------------------------------
    def promote(self, ref: str, tag: str) -> ModelVersion:
        """Point ``tag`` at the version ``ref`` selects (e.g. roll ``prod``)."""
        version = self.lookup(ref)
        if "@" in tag or not tag or re.fullmatch(r"v?\d+", tag):
            raise StoreError(f"invalid tag '{tag}'")
        with self._manifest_lock(version.name):
            manifest = self._read_manifest(version.name)
            assert manifest is not None  # lookup above proved it exists
            manifest["tags"][tag] = version.version
            self._write_manifest(version.name, manifest)
        return self.lookup(f"{version.name}@{tag}")

    def export(self, ref: str, destination: PathLike) -> Path:
        """Copy the artifact ``ref`` selects out of the store as one ``.npz``.

        The exported file is a standalone :meth:`LocalizationService.save`
        archive — ``LocalizationService.load`` restores it without the store.
        """
        version = self.lookup(ref)
        return self.artifacts.export(SERVICE_KIND, version.digest, destination)

    def list_models(self) -> List[str]:
        """Sorted names of every published model."""
        manifest_dir = self.root / "manifests"
        if not manifest_dir.exists():
            return []
        return sorted(path.stem for path in manifest_dir.glob("*.json"))

    def versions(self, name: str) -> List[ModelVersion]:
        """Every published version of ``name``, oldest first."""
        manifest = self._read_manifest(name)
        if manifest is None:
            raise StoreError(f"unknown model '{name}' in store {self.root}")
        tags = {k: int(v) for k, v in manifest["tags"].items()}
        return [
            self._version_from_entry(name, entry, tags)
            for entry in manifest["versions"]
        ]

    def inspect(self, ref: str) -> Dict[str, Any]:
        """JSON-ready description of one reference (metadata + artifact path)."""
        version = self.lookup(ref)
        path = self.artifacts.path_for(SERVICE_KIND, version.digest, "npz")
        data = version.as_dict()
        data["artifact_path"] = str(path)
        data["artifact_bytes"] = path.stat().st_size if path.exists() else None
        return data

    def catalog(self) -> List[Dict[str, Any]]:
        """Machine-readable store catalog (shared with ``GET /v1/models``).

        One entry per published model name, in the same ``name``/``tags``/
        ``summary`` shape as the registry catalogs emitted by
        ``repro list-models --json``.
        """
        entries: List[Dict[str, Any]] = []
        for name in self.list_models():
            versions = self.versions(name)
            latest = versions[-1]
            tags = sorted({tag for version in versions for tag in version.tags})
            entries.append(
                {
                    "name": name,
                    "tags": tags,
                    "summary": f"{latest.model} (v{latest.version}, "
                    f"{len(versions)} version{'s' if len(versions) != 1 else ''})",
                    "latest": latest.as_dict(),
                }
            )
        return entries

    def __contains__(self, ref: object) -> bool:
        try:
            self.lookup(str(ref))
            return True
        except StoreError:
            return False

    def __repr__(self) -> str:
        return f"ModelStore(root={str(self.root)!r})"
