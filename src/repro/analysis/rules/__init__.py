"""The built-in invariant rules of ``repro lint``.

Importing this package runs the ``@LINT_RULES.register`` decorators that
populate :data:`repro.registry.LINT_RULES` (it is the registry's lazy
module):

* **R1** :mod:`~repro.analysis.rules.determinism` — seeded Generators only,
  no wall-clock reads in determinism-critical modules;
* **R2** :mod:`~repro.analysis.rules.cache_keys` — every spec dataclass
  field reaches the digest payloads it determines;
* **R3** :mod:`~repro.analysis.rules.atomic_writes` — durable-state writes
  route through :func:`repro.atomic.write_atomic`;
* **R4** :mod:`~repro.analysis.rules.shared_state` — mutated module-level
  containers are thread-local or lock-guarded;
* **R5** :mod:`~repro.analysis.rules.registry_hygiene` — registered names
  are literal, unique and JSON-catalog-safe.
"""

from . import atomic_writes, cache_keys, determinism, registry_hygiene, shared_state

__all__ = [
    "determinism",
    "cache_keys",
    "atomic_writes",
    "shared_state",
    "registry_hygiene",
]
