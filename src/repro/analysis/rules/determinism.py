"""R1 — determinism: no unseeded randomness or wall-clock in hot paths.

Every reproducibility guarantee the engine stakes its results on (jobs=1 ==
jobs=N queue workers == a resumed drain, warm cache == cold) holds because
all randomness flows from seeded :class:`numpy.random.Generator` instances
derived via ``default_rng``/``stable_seed``.  One bare ``np.random.normal``
or ``random.random()`` on a hot path silently breaks bit-identity; one
``time.time()`` feeding a result or a cache key breaks it across runs.

Scope
-----
* RNG checks apply to the numeric/compute packages (``nn``, ``attacks``,
  ``defenses``, ``core``, ``data``, ``eval``, ``baselines``) **and** the
  queue (a worker drawing ad-hoc randomness would shard-dependently diverge).
* Wall-clock checks apply to the same set **minus** the queue: lease TTLs,
  heartbeats and backoff timestamps are wall-clock by design and never feed
  unit payloads or results.  The serving layer (uptime, latency metrics) is
  likewise out of scope.

Sanctioned exceptions carry a ``# repro-lint: allow[R1]`` pragma or a
justified entry in ``lint-baseline.json`` (e.g. ``nn.utils.seed_everything``,
whose documented purpose *is* seeding the process-global RNGs).
"""

from __future__ import annotations

import ast
from typing import List

from ...registry import register_lint_rule
from ..base import LintFinding, LintRule
from ..walker import SourceTree, call_name, module_imports

__all__ = ["DeterminismRule"]

#: Legacy global-state samplers of :mod:`numpy.random`; ``default_rng`` and
#: ``Generator`` methods are the sanctioned replacements.
_LEGACY_NUMPY = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "normal", "uniform", "choice", "shuffle", "permutation",
    "standard_normal", "binomial", "poisson", "beta", "gamma", "exponential",
    "get_state", "set_state",
}

#: Global-state samplers of the stdlib :mod:`random` module.
_STDLIB_RANDOM = {
    "seed", "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "getrandbits", "triangular", "vonmisesvariate", "expovariate",
}

#: Wall-clock reads that would make results or keys time-dependent.
_WALLCLOCK = {
    "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "date.today", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
}

_RNG_SCOPES = (
    "repro/nn/", "repro/attacks/", "repro/defenses/", "repro/core/",
    "repro/data/", "repro/eval/", "repro/baselines/", "repro/queue/",
    "repro/serve/aio/", "repro/obs/",
)
_WALLCLOCK_SCOPES = (
    "repro/nn/", "repro/attacks/", "repro/defenses/", "repro/core/",
    "repro/data/", "repro/eval/", "repro/baselines/",
    "repro/serve/aio/", "repro/obs/",
)


@register_lint_rule("R1", tags=("determinism",), aliases=("determinism",))
class DeterminismRule(LintRule):
    """Flag unseeded global RNG use and wall-clock reads in hot paths."""

    rule_id = "R1"
    title = "determinism: seeded Generators only, no wall-clock in hot paths"

    def check(self, tree: SourceTree) -> List[LintFinding]:
        findings: List[LintFinding] = []
        for module in tree.modules:
            rng_scope = module.relpath.startswith(_RNG_SCOPES)
            clock_scope = module.relpath.startswith(_WALLCLOCK_SCOPES)
            if not rng_scope and not clock_scope:
                continue
            imports = module_imports(module.tree)
            has_stdlib_random = imports.get("random") == "random"
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if not name:
                    continue
                if rng_scope:
                    if (
                        name.startswith(("np.random.", "numpy.random."))
                        and name.rsplit(".", 1)[1] in _LEGACY_NUMPY
                    ):
                        findings.append(
                            self.finding(
                                module,
                                node.lineno,
                                f"legacy global-state sampler `{name}` — derive "
                                "randomness from a seeded np.random.default_rng "
                                "(e.g. via stable_seed) instead",
                            )
                        )
                        continue
                    if (
                        has_stdlib_random
                        and name.startswith("random.")
                        and name.split(".", 1)[1] in _STDLIB_RANDOM
                    ):
                        findings.append(
                            self.finding(
                                module,
                                node.lineno,
                                f"stdlib global RNG call `{name}` — thread a seeded "
                                "Generator through instead of mutating process "
                                "state",
                            )
                        )
                        continue
                if clock_scope and name in _WALLCLOCK:
                    findings.append(
                        self.finding(
                            module,
                            node.lineno,
                            f"wall-clock read `{name}` in a determinism-critical "
                            "module — results and cache keys must not depend on "
                            "when they were computed",
                        )
                    )
        return findings
