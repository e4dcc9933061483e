"""``repro.analysis`` — the static-analysis subsystem behind ``repro lint``.

An AST-based invariant linter for the reproduction's own guarantees: the
things runtime tests only catch *after* a violation ships.  It parses the
whole ``repro`` source tree once (:mod:`~repro.analysis.walker`) and runs a
pluggable registry of rules (:data:`repro.registry.LINT_RULES`,
``@LINT_RULES.register`` / ``LINT_RULES.names()``):

=====  ==============================================================
 R1    determinism — seeded ``default_rng``/``stable_seed`` only; no
       legacy ``np.random.*`` / stdlib ``random.*`` / wall-clock reads
       in hot paths
 R2    cache-key completeness — every spec dataclass field reaches the
       ``cache_key`` payloads it determines
 R3    atomic-write discipline — durable state goes through
       :func:`repro.atomic.write_atomic`
 R4    shared mutable state — mutated module globals are thread-local
       or lock-guarded
 R5    registry hygiene — literal, unique, JSON-safe component names
=====  ==============================================================

Findings carry rule id, ``file:line``, message and a content-derived
fingerprint; the committed ``lint-baseline.json``
(:mod:`~repro.analysis.baseline`) suppresses explicitly-justified
exceptions so CI gates on **zero new findings**::

    repro lint                   # human table, exit 1 on new findings
    repro lint --json            # machine-readable report (CI artifact)
    repro lint --update-baseline # accept current findings (justify them!)

In-source sanctioning uses ``# repro-lint: allow[R3] <why>`` pragmas.
"""

from .base import LintFinding, LintRule, fingerprint_findings
from .baseline import Baseline, BaselineEntry
from .reporting import (
    LintReport,
    default_baseline_path,
    default_root,
    render_report,
    report_document,
    run_lint,
)
from .walker import SourceModule, SourceTree

__all__ = [
    "LintFinding",
    "LintRule",
    "fingerprint_findings",
    "Baseline",
    "BaselineEntry",
    "LintReport",
    "run_lint",
    "default_root",
    "default_baseline_path",
    "render_report",
    "report_document",
    "SourceModule",
    "SourceTree",
]
