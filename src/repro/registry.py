"""Plugin-style component registries: the single extension point of the library.

Every localization model (CALLOC and each baseline) and every attack (the
white-box crafting methods and the channel-side MITM wrappers) registers
itself here under the name the paper uses for it.  New components drop in with
one decorator and immediately become available to the declarative
:class:`repro.api.ExperimentSpec`, the :class:`repro.api.LocalizationService`
facade and the ``python -m repro`` CLI — no factory dict in three different
modules to keep in sync.

Registering a localizer::

    from repro.registry import register_localizer

    @register_localizer("MyModel", tags=("baseline",))
    class MyLocalizer(Localizer):
        ...

Using it::

    from repro.registry import make_localizer, available_localizers

    model = make_localizer("MyModel", epochs=40)
    assert "MyModel" in available_localizers()

Attacks follow the same pattern through :func:`register_attack` /
:func:`make_attack`; an attack factory is always called with the
:class:`~repro.attacks.base.ThreatModel` as its first argument.

Robustness scenarios — deployment conditions such as temporal drift, AP
outages or unseen-device generalization (see :mod:`repro.eval.robustness`) —
register through :func:`register_scenario` / :func:`make_scenario` and become
declarable in :class:`repro.api.ExperimentSpec` and runnable via
``repro run --scenario``.

Defenses — hardening strategies with training-time and/or inference-time
hooks (curriculum adversarial training, PGD adversarial training, input-noise
smoothing, the online adversarial-fingerprint detector — see
:mod:`repro.defenses`) — register through :func:`register_defense` /
:func:`make_defense` and are declarable via
:class:`repro.defenses.DefenseSpec` in experiment specs
(``repro run --defense curriculum``) and as serving guards.

Lint rules — the AST-based invariant checks ``repro lint`` runs over the
source tree (determinism, cache-key completeness, atomic-write discipline,
shared-state thread-safety, registry hygiene — see :mod:`repro.analysis`) —
register through :func:`register_lint_rule` / :func:`make_lint_rule` and are
selectable via ``repro lint --rules``.

Router policies — how the serving tier treats the deterministic canary
fraction of a shadowed route (mirror to the candidate in the background, or
split real traffic onto it — see :mod:`repro.serve.aio.routing`) — register
through :func:`register_router_policy` / :func:`make_router_policy` and are
selectable in the ``--route ...,policy=NAME`` serving grammar.

Lookups are case-insensitive (``make_localizer("knn")`` works) and unknown
names raise :class:`RegistryError` (a :class:`KeyError`) naming the closest
registered spellings.  The registries populate themselves lazily: the first
lookup imports the packages whose modules carry the ``@register_*``
decorators, so importing :mod:`repro.registry` stays cheap and free of
circular imports.
"""

from __future__ import annotations

import difflib
import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Iterable, List, Mapping, Optional, Tuple, Union

__all__ = [
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "ComponentSpec",
    "catalog_document",
    "LOCALIZERS",
    "ATTACKS",
    "SCENARIOS",
    "DEFENSES",
    "LINT_RULES",
    "ROUTER_POLICIES",
    "register_localizer",
    "register_attack",
    "register_scenario",
    "register_defense",
    "register_lint_rule",
    "register_router_policy",
    "make_localizer",
    "make_attack",
    "make_scenario",
    "make_defense",
    "make_lint_rule",
    "make_router_policy",
    "available_localizers",
    "available_attacks",
    "available_scenarios",
    "available_defenses",
    "available_lint_rules",
    "available_router_policies",
]


def catalog_document(kind: str, entries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Envelope of every machine-readable catalog the library emits.

    ``repro list-models/--attacks/--scenarios --json``, the model store's
    catalog and the serving gateway's ``GET /v1/models`` all wrap their
    entries in this one format: ``{"kind", "count", "entries"}``.
    """
    return {"kind": kind, "count": len(entries), "entries": entries}


class RegistryError(KeyError):
    """Unknown or conflicting component name.

    Subclasses :class:`KeyError`, so callers that catch ``KeyError`` around
    a registry lookup keep working unchanged.
    """

    def __str__(self) -> str:  # KeyError repr()s its message; show it verbatim.
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component."""

    name: str
    factory: Callable[..., Any]
    tags: Tuple[str, ...] = ()
    aliases: Tuple[str, ...] = ()

    @property
    def summary(self) -> str:
        """First line of the factory's docstring (for ``list-*`` CLI output)."""
        doc = getattr(self.factory, "__doc__", None) or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready description (one catalog entry)."""
        return {
            "name": self.name,
            "tags": list(self.tags),
            "summary": self.summary,
            "aliases": list(self.aliases),
        }


@dataclass
class Registry:
    """A named-component registry with decorator registration and lazy population.

    Parameters
    ----------
    kind:
        Human-readable component kind (``"localizer"``/``"attack"``), used in
        error messages.
    lazy_modules:
        Modules imported on first access; importing them runs the
        ``@register_*`` decorators that populate the registry.
    """

    kind: str
    lazy_modules: Tuple[str, ...] = ()
    _entries: Dict[str, RegistryEntry] = field(default_factory=dict)
    _lookup: Dict[str, str] = field(default_factory=dict)  # casefolded -> canonical
    _populated: bool = False

    # -- registration ---------------------------------------------------
    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        tags: Iterable[str] = (),
        aliases: Iterable[str] = (),
        override: bool = False,
    ):
        """Register ``factory`` under ``name``; usable as a decorator.

        Re-registering the same factory under the same name is a no-op (so
        modules can be re-imported safely); registering a *different* factory
        under a taken name raises :class:`RegistryError` unless
        ``override=True``.
        """

        def _register(obj: Callable[..., Any]) -> Callable[..., Any]:
            entry = RegistryEntry(
                name=name, factory=obj, tags=tuple(tags), aliases=tuple(aliases)
            )
            existing = self._entries.get(name)
            if existing is not None and not override:
                if existing.factory is obj:
                    return obj
                raise RegistryError(
                    f"{self.kind} '{name}' is already registered "
                    f"(to {existing.factory!r}); pass override=True to replace it"
                )
            self._entries[name] = entry
            for key in (name, *entry.aliases):
                self._lookup[key.casefold()] = name
            return obj

        if factory is not None:
            return _register(factory)
        return _register

    # -- lookup ---------------------------------------------------------
    def _populate(self) -> None:
        if self._populated:
            return
        # Mark populated only after every import succeeds, so a failed import
        # surfaces again on the next lookup instead of leaving the registry
        # silently partial.  (Re-entrant lookups during the imports are safe:
        # import_module returns in-progress modules from sys.modules.)
        for module in self.lazy_modules:
            importlib.import_module(module)
        self._populated = True

    def resolve(self, name: str) -> str:
        """Canonical name for ``name`` (case-insensitive, alias-aware)."""
        self._populate()
        canonical = self._lookup.get(str(name).casefold())
        if canonical is None:
            close = difflib.get_close_matches(
                str(name).casefold(), sorted(self._lookup), n=3
            )
            suggestions = sorted({self._lookup[key] for key in close})
            hint = f" (did you mean {', '.join(suggestions)}?)" if suggestions else ""
            raise RegistryError(
                f"unknown {self.kind} '{name}'; expected one of {self.names()}{hint}"
            )
        return canonical

    def entry(self, name: str) -> RegistryEntry:
        """Full :class:`RegistryEntry` for ``name``."""
        return self._entries[self.resolve(name)]

    def get(self, name: str) -> Callable[..., Any]:
        """The registered factory for ``name``."""
        return self.entry(name).factory

    def create(self, name: str, *args, **kwargs) -> Any:
        """Instantiate the component registered under ``name``."""
        return self.get(name)(*args, **kwargs)

    def names(self, tag: Optional[str] = None) -> List[str]:
        """Sorted canonical names, optionally restricted to one tag."""
        self._populate()
        return sorted(
            name for name, e in self._entries.items() if tag is None or tag in e.tags
        )

    def entries(self, tag: Optional[str] = None) -> List[RegistryEntry]:
        """Sorted entries, optionally restricted to one tag."""
        return [self._entries[name] for name in self.names(tag)]

    def as_dict(self, tag: Optional[str] = None) -> Dict[str, Callable[..., Any]]:
        """``{name: factory}`` snapshot (what the legacy dicts used to be)."""
        return {name: self._entries[name].factory for name in self.names(tag)}

    def catalog(self, tag: Optional[str] = None) -> List[Dict[str, Any]]:
        """JSON-ready entry list — the machine-readable component catalog.

        The same ``name``/``tags``/``summary`` entry shape is emitted by
        ``repro list-models --json`` (and siblings) and by the serving
        gateway's ``GET /v1/models``, so external tooling parses one format.
        """
        return [entry.as_dict() for entry in self.entries(tag)]

    def __contains__(self, name: object) -> bool:
        self._populate()
        return str(name).casefold() in self._lookup

    def __len__(self) -> int:
        self._populate()
        return len(self._entries)

    def __iter__(self):
        return iter(self.names())


#: All localization models: CALLOC (tag ``"framework"``) and the paper's
#: baselines (tag ``"baseline"``).
LOCALIZERS = Registry("localizer", lazy_modules=("repro.baselines", "repro.core"))

#: All attacks: white-box crafting methods (tag ``"crafting"``) and the
#: channel-side MITM wrappers (tag ``"mitm"``).
ATTACKS = Registry("attack", lazy_modules=("repro.attacks",))

#: All robustness scenarios: deployment conditions beyond the crafted-attack
#: grid (environment drift, infrastructure failures, generalization splits).
SCENARIOS = Registry("scenario", lazy_modules=("repro.eval.robustness",))

#: All defenses: training-time hardening strategies (curriculum/PGD
#: adversarial training, noise smoothing) and inference-time guards (the
#: adversarial-fingerprint detector), plus the undefended baseline.
DEFENSES = Registry("defense", lazy_modules=("repro.defenses",))

#: All static-analysis lint rules ``repro lint`` runs over the source tree:
#: determinism (R1), cache-key completeness (R2), atomic-write discipline
#: (R3), shared-mutable-state thread-safety (R4) and registry hygiene (R5).
LINT_RULES = Registry("lint rule", lazy_modules=("repro.analysis.rules",))

#: All serving router policies: what happens to the deterministic canary
#: fraction of a shadowed route — ``mirror`` (score in the background,
#: compare on /metrics) or ``split`` (serve real traffic from the candidate).
ROUTER_POLICIES = Registry("router policy", lazy_modules=("repro.serve.aio.routing",))


@dataclass(frozen=True)
class ComponentSpec:
    """Serializable, hashable reference to a family in one registry.

    ``params`` override the family's constructor defaults, ``seed`` feeds
    its deterministic draws, and ``label`` is the name used in result
    records (defaults to the registry name), letting one family appear twice
    under different knobs in the same experiment.  A subclass names the
    registry its names resolve against
    (:class:`repro.eval.robustness.ScenarioSpec`,
    :class:`repro.defenses.DefenseSpec`).
    """

    #: The registry :meth:`create` resolves names against and :meth:`build`
    #: instantiates from (a class attribute, never a field or a digest input).
    registry: ClassVar[Registry]

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    label: Optional[str] = None

    @classmethod
    def create(
        cls,
        name: str,
        params: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        label: Optional[str] = None,
    ) -> "ComponentSpec":
        """Build a spec with the name resolved against :attr:`registry`."""
        return cls(
            name=cls.registry.resolve(name),
            # List-valued knobs (e.g. from a JSON spec file) become tuples so
            # the spec stays hashable, as the engine's memos rely on.
            params=tuple(
                (key, tuple(value) if isinstance(value, list) else value)
                for key, value in sorted((params or {}).items())
            ),
            seed=int(seed),
            label=label,
        )

    @classmethod
    def from_dict(
        cls, data: Union[str, Mapping[str, Any], "ComponentSpec"]
    ) -> "ComponentSpec":
        """Build from a mapping, a bare registry name, or an existing spec.

        Existing specs are re-resolved rather than passed through, so a
        hand-constructed spec with a misspelt name still fails fast with a
        did-you-mean error, and an alias (the defense ``"undefended"``)
        canonicalises to its registry name (``"none"``).
        """
        if isinstance(data, str):
            return cls.create(data)
        if isinstance(data, cls):
            return cls.create(
                name=data.name, params=dict(data.params), seed=data.seed, label=data.label
            )
        return cls.create(
            name=data["name"],
            params=dict(data.get("params", {})),
            seed=data.get("seed", 0),
            label=data.get("label"),
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name}
        if self.params:
            data["params"] = dict(self.params)
        if self.seed:
            data["seed"] = self.seed
        if self.label:
            data["label"] = self.label
        return data

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def display_name(self) -> str:
        return self.label or self.name

    def build(self) -> Any:
        """Instantiate the referenced family."""
        return self.registry.create(self.name, seed=self.seed, **self.param_dict)


def register_localizer(
    name: str,
    factory: Optional[Callable[..., Any]] = None,
    *,
    tags: Iterable[str] = (),
    aliases: Iterable[str] = (),
    override: bool = False,
):
    """Register a localizer class/factory under ``name`` (decorator-friendly)."""
    return LOCALIZERS.register(
        name, factory, tags=tags, aliases=aliases, override=override
    )


def register_attack(
    name: str,
    factory: Optional[Callable[..., Any]] = None,
    *,
    tags: Iterable[str] = (),
    aliases: Iterable[str] = (),
    override: bool = False,
):
    """Register an attack class/factory under ``name`` (decorator-friendly)."""
    return ATTACKS.register(name, factory, tags=tags, aliases=aliases, override=override)


def register_scenario(
    name: str,
    factory: Optional[Callable[..., Any]] = None,
    *,
    tags: Iterable[str] = (),
    aliases: Iterable[str] = (),
    override: bool = False,
):
    """Register a robustness-scenario class/factory under ``name``."""
    return SCENARIOS.register(
        name, factory, tags=tags, aliases=aliases, override=override
    )


def register_defense(
    name: str,
    factory: Optional[Callable[..., Any]] = None,
    *,
    tags: Iterable[str] = (),
    aliases: Iterable[str] = (),
    override: bool = False,
):
    """Register a defense class/factory under ``name`` (decorator-friendly)."""
    return DEFENSES.register(
        name, factory, tags=tags, aliases=aliases, override=override
    )


def register_lint_rule(
    name: str,
    factory: Optional[Callable[..., Any]] = None,
    *,
    tags: Iterable[str] = (),
    aliases: Iterable[str] = (),
    override: bool = False,
):
    """Register a lint rule class/factory under ``name`` (decorator-friendly)."""
    return LINT_RULES.register(
        name, factory, tags=tags, aliases=aliases, override=override
    )


def register_router_policy(
    name: str,
    factory: Optional[Callable[..., Any]] = None,
    *,
    tags: Iterable[str] = (),
    aliases: Iterable[str] = (),
    override: bool = False,
):
    """Register a serving router policy under ``name`` (decorator-friendly)."""
    return ROUTER_POLICIES.register(
        name, factory, tags=tags, aliases=aliases, override=override
    )


def make_localizer(name: str, **kwargs) -> Any:
    """Instantiate a registered localizer by name (``make_localizer("KNN", k=3)``)."""
    return LOCALIZERS.create(name, **kwargs)


def make_attack(name: str, threat_model: Any, **kwargs) -> Any:
    """Instantiate a registered attack by name against a threat model."""
    return ATTACKS.create(name, threat_model, **kwargs)


def make_scenario(name: str, **kwargs) -> Any:
    """Instantiate a registered robustness scenario by name."""
    return SCENARIOS.create(name, **kwargs)


def make_defense(name: str, **kwargs) -> Any:
    """Instantiate a registered defense by name (``make_defense("detector")``)."""
    return DEFENSES.create(name, **kwargs)


def make_lint_rule(name: str, **kwargs) -> Any:
    """Instantiate a registered lint rule by name (``make_lint_rule("R1")``)."""
    return LINT_RULES.create(name, **kwargs)


def make_router_policy(name: str, **kwargs) -> Any:
    """Instantiate a registered router policy by name (``make_router_policy("mirror")``)."""
    return ROUTER_POLICIES.create(name, **kwargs)


def available_localizers(tag: Optional[str] = None) -> List[str]:
    """Names of every registered localizer (optionally one tag)."""
    return LOCALIZERS.names(tag)


def available_attacks(tag: Optional[str] = None) -> List[str]:
    """Names of every registered attack (optionally one tag)."""
    return ATTACKS.names(tag)


def available_scenarios(tag: Optional[str] = None) -> List[str]:
    """Names of every registered robustness scenario (optionally one tag)."""
    return SCENARIOS.names(tag)


def available_defenses(tag: Optional[str] = None) -> List[str]:
    """Names of every registered defense (optionally one tag)."""
    return DEFENSES.names(tag)


def available_lint_rules(tag: Optional[str] = None) -> List[str]:
    """Names of every registered lint rule (optionally one tag)."""
    return LINT_RULES.names(tag)


def available_router_policies(tag: Optional[str] = None) -> List[str]:
    """Names of every registered serving router policy (optionally one tag)."""
    return ROUTER_POLICIES.names(tag)
