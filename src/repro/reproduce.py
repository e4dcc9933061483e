"""Command-line entry point: artefact regeneration plus the declarative API.

Subcommands
-----------
``list-models``
    Enumerate every registered localizer (CALLOC and all baselines).
``list-attacks``
    Enumerate every registered attack (crafting methods and MITM variants).
``list-scenarios``
    Enumerate every registered robustness scenario family (drift, AP outage,
    rogue APs, unseen-device generalization, adaptive black-box, ...).
``list-defenses``
    Enumerate every registered defense (curriculum / PGD adversarial
    training, input-noise smoothing, the adversarial-fingerprint detector,
    and the undefended baseline).
    All four ``list-*`` commands accept ``--json`` for the machine-readable
    catalog format shared with the serving gateway's ``GET /v1/models``.
``store``
    Manage the versioned model store: ``publish`` (train via the cached
    engine and publish), ``list``, ``inspect``, ``promote``, ``export``.
``serve``
    Run the production serving API (``POST /v1/localize``, ``GET
    /v1/models``, ``/healthz``, ``/metrics``) over a model store, with
    per-endpoint micro-batching.
``artefact NAME [NAME ...]``
    Regenerate specific tables/figures of the paper (or ``all``); the
    ``robustness`` artefact renders the model × scenario matrix and, with
    ``--output-dir``, exports it as CSV.
``run``
    Execute a declarative :class:`~repro.api.ExperimentSpec` — either loaded
    from a JSON file (``--spec``) or assembled from ``--models`` /
    ``--buildings`` / ``--devices`` / ``--scenario`` flags — and print a
    result summary.  ``--dry-run`` prints the resolved execution plan (unit
    counts per stage) without executing anything.
``queue``
    The distributed campaign queue (:mod:`repro.queue`): ``submit`` a spec
    as a durable run ledger, ``work`` it with any number of leasing worker
    processes (crash-safe, resumable, multi-host over a shared cache
    directory), ``status``/``watch`` progress, ``result`` to merge unit
    outcomes into the canonical result set, ``list`` known runs.
``lint``
    Run the AST-based invariant linter (:mod:`repro.analysis`) over the
    ``repro`` source tree: determinism (R1), cache-key completeness (R2),
    atomic writes (R3), shared-state thread-safety (R4) and registry
    hygiene (R5).  Exits 1 on findings outside ``lint-baseline.json``;
    ``--json`` emits the machine-readable report, ``--update-baseline``
    rewrites the baseline to accept the current findings.

Examples
--------
Regenerate Fig. 6 on the quick profile and print the comparison table::

    python -m repro artefact fig6 --profile quick

Run a declarative experiment::

    python -m repro run --models CALLOC KNN --profile quick
    python -m repro run --spec experiment.json --output-dir results

Evaluate robustness scenarios instead of the crafted-attack grid::

    python -m repro run --models KNN DNN --scenario drift ap-outage

Compare defended against undefended training on the attack grid::

    python -m repro run --models DNN --defense none curriculum

Publish a quick-profile model and serve it::

    python -m repro store publish --building "Building 1" --model KNN --tag prod
    python -m repro serve --port 8080
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from .api import PROFILES as _PROFILES
from .eval import (
    EvaluationConfig,
    ablation_adaptive,
    ascii_table,
    fig1_attack_impact,
    fig4_heatmaps,
    fig5_curriculum,
    fig6_sota,
    fig7_phi_sweep,
    results_to_csv,
    robustness_matrix,
    table1_devices,
    table2_buildings,
    table3_model_budget,
)
from .spawn import limit_blas_threads

__all__ = ["main", "build_parser", "run_artefact", "ARTEFACTS"]

#: Artefact name -> callable(config, cache=...) -> result dict with a "text"
#: rendering.  The static tables ignore the cache.
ARTEFACTS: Dict[str, Callable] = {
    "table1": lambda config, cache=None: table1_devices(),
    "table2": lambda config, cache=None: table2_buildings(
        rp_granularity_m=config.rp_granularity_m
    ),
    "table3": lambda config, cache=None: table3_model_budget(),
    "fig1": fig1_attack_impact,
    "fig4": fig4_heatmaps,
    "fig5": fig5_curriculum,
    "fig6": fig6_sota,
    "fig7": fig7_phi_sweep,
    "ablation": ablation_adaptive,
    "robustness": robustness_matrix,
}

def _add_common_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """``--profile`` / ``--output-dir``, shared by the root parser and subcommands.

    Subcommands use ``SUPPRESS`` defaults so a value parsed before the
    subcommand (``python -m repro --profile full artefact fig6``) survives.
    """
    parser.add_argument(
        "--profile",
        choices=sorted(_PROFILES),
        default=argparse.SUPPRESS if suppress else "quick",
        help="evaluation grid size (quick: minutes, full: the paper's grid)",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=argparse.SUPPRESS if suppress else None,
        help="optional directory to write rendered artefacts / CSV results to",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=argparse.SUPPRESS if suppress else None,
        help="on-disk artefact cache root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="disable the on-disk artefact cache for this invocation",
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="disable spans, metrics export and the durable event log for "
        "this invocation (same as REPRO_TELEMETRY=0)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the reproduction CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "CALLOC reproduction: regenerate the paper's evaluation artefacts, "
            "inspect the model/attack registries, or run declarative experiments."
        ),
    )
    _add_common_options(parser, suppress=False)

    subparsers = parser.add_subparsers(dest="command", required=True)

    list_models = subparsers.add_parser(
        "list-models", help="enumerate every registered localizer"
    )
    list_models.add_argument(
        "--tag", default=None, help="restrict to one tag (e.g. baseline, framework)"
    )

    list_attacks = subparsers.add_parser(
        "list-attacks", help="enumerate every registered attack"
    )
    list_attacks.add_argument(
        "--tag", default=None, help="restrict to one tag (e.g. crafting, mitm)"
    )

    list_scenarios = subparsers.add_parser(
        "list-scenarios",
        help="enumerate every registered robustness scenario family",
    )
    list_scenarios.add_argument(
        "--tag",
        default=None,
        help="restrict to one tag (e.g. environment, infrastructure, adversarial)",
    )

    list_defenses = subparsers.add_parser(
        "list-defenses", help="enumerate every registered defense"
    )
    list_defenses.add_argument(
        "--tag",
        default=None,
        help="restrict to one tag (e.g. training, inference, adversarial)",
    )
    for list_parser in (list_models, list_attacks, list_scenarios, list_defenses):
        list_parser.add_argument(
            "--json",
            action="store_true",
            help="emit the machine-readable catalog (same format as GET /v1/models)",
        )

    artefact = subparsers.add_parser(
        "artefact", help="regenerate specific tables/figures of the paper"
    )
    artefact.add_argument(
        "names",
        nargs="+",
        choices=sorted(ARTEFACTS) + ["all"],
        help="artefacts to regenerate",
    )
    _add_common_options(artefact, suppress=True)

    run = subparsers.add_parser(
        "run", help="execute a declarative experiment spec (JSON or flags)"
    )
    run.add_argument(
        "--spec",
        type=Path,
        default=None,
        help=(
            "path to an ExperimentSpec JSON file; the file is the complete "
            "experiment (profile and grid included), so it cannot be combined "
            "with the flags below or --profile"
        ),
    )
    run.add_argument(
        "--models", nargs="+", default=None, help="registry names of models to evaluate"
    )
    run.add_argument("--buildings", nargs="+", default=None)
    run.add_argument("--devices", nargs="+", default=None)
    run.add_argument(
        "--methods", nargs="+", default=None, help="attack crafting methods to sweep"
    )
    run.add_argument("--epsilons", nargs="+", type=float, default=None)
    run.add_argument("--phis", nargs="+", type=float, default=None)
    run.add_argument(
        "--scenario",
        nargs="+",
        default=None,
        metavar="NAME",
        help=(
            "robustness scenario families to evaluate (see list-scenarios); "
            "when given without attack flags, the crafted-attack sweep is "
            "skipped and only the scenarios run"
        ),
    )
    run.add_argument(
        "--defense",
        nargs="+",
        default=None,
        metavar="NAME",
        help=(
            "defenses to train every model under (see list-defenses); each "
            "model is evaluated once per defense and results carry a "
            "'defense' column — include 'none' for the undefended baseline row"
        ),
    )
    run.add_argument(
        "--dry-run",
        action="store_true",
        help="resolve and print the execution plan (unit counts per stage) "
        "without executing anything",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="1 runs the plan in-process; N > 1 drains it with N spawned "
        "queue workers (results are bit-identical at any job count)",
    )
    _add_common_options(run, suppress=True)

    queue = subparsers.add_parser(
        "queue",
        help="distributed campaign queue: submit specs, run leasing workers, "
        "watch progress, collect results",
    )
    queue_actions = queue.add_subparsers(dest="queue_action", required=True)

    def _queue_cache_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--cache-dir",
            type=Path,
            default=None,
            help="shared artefact-cache root the run ledger lives under "
            "(default: $REPRO_CACHE_DIR or ~/.cache/repro); every worker of "
            "a run must point at the same directory",
        )
        sub.add_argument(
            "--no-telemetry",
            action="store_true",
            help="disable spans, metrics export and the durable event log "
            "(same as REPRO_TELEMETRY=0)",
        )

    queue_submit = queue_actions.add_parser(
        "submit", help="persist a spec's execution plan as a durable run ledger"
    )
    queue_submit.add_argument("spec", type=Path, help="ExperimentSpec JSON file")
    queue_submit.add_argument(
        "--run-id",
        default=None,
        help="explicit run id (default: content digest of the spec, so "
        "resubmitting the identical spec targets the identical run)",
    )
    _queue_cache_flags(queue_submit)

    queue_work = queue_actions.add_parser(
        "work", help="lease and execute ready units of a run until it drains"
    )
    queue_work.add_argument("run_id")
    queue_work.add_argument(
        "--workers", type=int, default=1, help="local worker processes to run"
    )
    queue_work.add_argument(
        "--ttl", type=float, default=30.0,
        help="lease lifetime in seconds; a worker silent this long is presumed "
        "dead and its unit is retried",
    )
    queue_work.add_argument(
        "--poll", type=float, default=0.2,
        help="seconds between scheduling scans when no unit is ready",
    )
    queue_work.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts (including broken leases) before a unit is parked as "
        "failed and its dependents skipped",
    )
    queue_work.add_argument(
        "--backoff", type=float, default=0.5,
        help="base retry delay in seconds (doubles per attempt)",
    )
    queue_work.add_argument(
        "--max-units", type=int, default=None,
        help="stop after executing this many units (for draining in slices)",
    )
    _queue_cache_flags(queue_work)

    queue_status = queue_actions.add_parser(
        "status", help="one snapshot of a run's progress"
    )
    queue_status.add_argument("run_id")
    queue_status.add_argument(
        "--json", action="store_true", help="emit the machine-readable snapshot"
    )
    _queue_cache_flags(queue_status)

    queue_watch = queue_actions.add_parser(
        "watch", help="poll and print run status until the run is terminal"
    )
    queue_watch.add_argument("run_id")
    queue_watch.add_argument("--interval", type=float, default=2.0)
    queue_watch.add_argument(
        "--timeout", type=float, default=None,
        help="give up (exit 1) after this many seconds",
    )
    _queue_cache_flags(queue_watch)

    queue_result = queue_actions.add_parser(
        "result", help="merge unit outcomes into the canonical result set"
    )
    queue_result.add_argument("run_id")
    queue_result.add_argument(
        "--output-dir", type=Path, default=None,
        help="write results.csv and spec.json here (same layout as `repro run`)",
    )
    queue_result.add_argument(
        "--allow-partial", action="store_true",
        help="omit units without results instead of erroring (degraded view "
        "of a run with parked failures)",
    )
    _queue_cache_flags(queue_result)

    queue_list = queue_actions.add_parser(
        "list", help="list run ledgers under the cache directory"
    )
    _queue_cache_flags(queue_list)

    lint = subparsers.add_parser(
        "lint",
        help="run the AST invariant linter over the repro source tree "
        "(determinism, cache keys, atomic writes, thread safety, registries)",
    )
    lint.add_argument(
        "--root",
        type=Path,
        default=None,
        help="package directory to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file of accepted findings (default: ./lint-baseline.json "
        "or <repo root>/lint-baseline.json)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to accept exactly the current findings "
        "(keeps existing justification strings) instead of gating",
    )
    lint.add_argument(
        "--rules",
        nargs="+",
        default=None,
        metavar="RULE",
        help="run only these rules (ids or aliases, see `repro lint --list-rules`)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered lint rules and exit",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable lint report (CI artifact format)",
    )

    store = subparsers.add_parser(
        "store", help="manage the versioned model store (publish/list/inspect/...)"
    )
    store.add_argument(
        "--store",
        dest="store_dir",
        type=Path,
        default=None,
        help="store root (default: <cache root>/store)",
    )
    store_actions = store.add_subparsers(dest="store_action", required=True)
    store_list = store_actions.add_parser("list", help="list published models")
    store_list.add_argument("--json", action="store_true")
    store_inspect = store_actions.add_parser(
        "inspect", help="show one reference (NAME, NAME@tag or NAME@vN)"
    )
    store_inspect.add_argument("ref")
    store_publish = store_actions.add_parser(
        "publish", help="train via the cached engine and publish a named version"
    )
    store_publish.add_argument("--building", required=True)
    store_publish.add_argument("--model", default="CALLOC")
    store_publish.add_argument(
        "--name", default=None, help="store name (default: lowercased model name)"
    )
    store_publish.add_argument(
        "--tag", action="append", default=[], help="tag(s) to point at the new version"
    )
    store_publish.add_argument("--profile", choices=sorted(_PROFILES), default="quick")
    store_publish.add_argument(
        "--defense",
        default=None,
        metavar="NAME",
        help="harden the published model with a registered defense (see "
        "list-defenses); inference guards like 'detector' travel with the "
        "artifact and screen requests at serving time",
    )
    store_publish.add_argument("--no-cache", action="store_true")
    store_promote = store_actions.add_parser(
        "promote", help="point a tag at the version a reference selects"
    )
    store_promote.add_argument("ref")
    store_promote.add_argument("tag")
    store_promote.add_argument(
        "--if-canary-ok",
        action="store_true",
        help="gate the promote on a live /metrics shadow comparison: refuse "
        "unless the canary arm matches the primary (see serve --route shadow=)",
    )
    store_promote.add_argument(
        "--metrics-url",
        default="http://127.0.0.1:8080",
        help="base URL of the running server whose /metrics to judge",
    )
    store_promote.add_argument(
        "--endpoint",
        default=None,
        help="shadowed endpoint to judge (default: the only shadowed endpoint)",
    )
    store_promote.add_argument("--min-requests", type=int, default=50)
    store_promote.add_argument("--max-flagged-delta", type=float, default=0.0)
    store_promote.add_argument("--max-p99-ratio", type=float, default=1.5)
    store_export = store_actions.add_parser(
        "export", help="export a reference as a standalone .npz service archive"
    )
    store_export.add_argument("ref")
    store_export.add_argument("destination", type=Path)

    serve = subparsers.add_parser(
        "serve", help="run the JSON serving API over a model store"
    )
    serve.add_argument(
        "--store",
        dest="store_dir",
        type=Path,
        default=None,
        help="store root (default: <cache root>/store)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--route",
        action="append",
        default=[],
        metavar="ENDPOINT=REF[,shadow=REF,...]",
        help="map a tenant endpoint to a store ref (repeatable), "
        "e.g. --route building-1/calloc=calloc@prod; also accepts "
        "ENDPOINT=REF[,shadow=REF][,fraction=P][,policy=mirror|split]"
        "[,seed=N] for deterministic canary routing",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="micro-batching: the flusher stops taking queued requests once this "
        "many fingerprints are taken (a batch may exceed it; a request is never split); "
        "1 makes every request its own model call",
    )
    serve.add_argument(
        "--max-loaded",
        type=int,
        default=8,
        help="LRU capacity: how many loaded services the gateway keeps in memory",
    )
    serve.add_argument(
        "--publish",
        nargs=2,
        metavar=("BUILDING", "MODEL"),
        default=None,
        help="train a quick-profile model through the cached engine and publish "
        "it (as <model lowercased>) before serving — handy for smoke tests",
    )
    # The asyncio front end is the only one; --aio still parses so existing
    # scripts that pass it keep working.
    serve.add_argument("--aio", action="store_true", help=argparse.SUPPRESS)
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="number of SO_REUSEPORT acceptor processes sharing the port "
        "(> 1 starts a restart supervisor)",
    )
    serve.add_argument(
        "--watch-interval",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="how often to re-check the store manifest for "
        "promotions (0 = stat on every request)",
    )
    serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable spans, metrics export and the durable event log "
        "(same as REPRO_TELEMETRY=0)",
    )

    obs = subparsers.add_parser(
        "obs",
        help="inspect recorded telemetry: event-log summary, live tail, "
        "and span trees",
    )
    obs_actions = obs.add_subparsers(dest="obs_action", required=True)

    def _obs_dir_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--cache-dir",
            type=Path,
            default=None,
            help="artefact-cache root whose telemetry/ directory to read "
            "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
        )
        sub.add_argument(
            "--telemetry-dir",
            type=Path,
            default=None,
            help="read this event-log directory directly instead of "
            "<cache root>/telemetry",
        )

    obs_summary = obs_actions.add_parser(
        "summary",
        help="aggregate the durable event log: event kinds, span counts, "
        "durations and error rates",
    )
    obs_summary.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    _obs_dir_flags(obs_summary)

    obs_tail = obs_actions.add_parser(
        "tail", help="print event-log records as JSON lines"
    )
    obs_tail.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="keep the log open and stream new records until interrupted",
    )
    obs_tail.add_argument(
        "--kind", default=None, help="only show events of this kind"
    )
    obs_tail.add_argument(
        "--limit",
        type=int,
        default=None,
        help="stop after this many records (applied after --kind filtering)",
    )
    _obs_dir_flags(obs_tail)

    obs_spans = obs_actions.add_parser(
        "spans", help="reconstruct span trees from the durable event log"
    )
    obs_spans.add_argument(
        "--run-id",
        default=None,
        help="only traces that touch this queue run id",
    )
    obs_spans.add_argument(
        "--json", action="store_true", help="emit the span forest as JSON"
    )
    _obs_dir_flags(obs_spans)

    return parser


def _cache_option(args: argparse.Namespace) -> object:
    """The ``cache`` argument of the run/artefact commands from CLI flags.

    Caching defaults to **on** for the CLI (at ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro``); ``--no-cache`` disables it, ``--cache-dir`` moves it.
    """
    if getattr(args, "no_cache", False):
        return False
    cache_dir = getattr(args, "cache_dir", None)
    return cache_dir if cache_dir is not None else True


def _setup_telemetry(args: argparse.Namespace) -> bool:
    """Apply ``--no-telemetry`` and install the durable event sink.

    Work-performing commands (run/artefact/queue/serve) get their spans and
    events persisted under ``<cache root>/telemetry``; read-only commands
    leave the sink unconfigured so they never write to the cache.  Returns
    whether a sink was installed.
    """
    from .obs import events, trace

    if getattr(args, "no_telemetry", False):
        trace.set_enabled(False)
        return False
    if not trace.telemetry_enabled():
        return False
    from .eval.engine import default_cache_dir

    cache_dir = getattr(args, "cache_dir", None)
    root = Path(cache_dir).expanduser() if cache_dir is not None else default_cache_dir()
    events.configure_sink(root / "telemetry")
    return True


def _telemetry_dir(args: argparse.Namespace) -> Path:
    """Event-log directory for ``repro obs`` (explicit dir beats cache root)."""
    from .obs import events

    if getattr(args, "telemetry_dir", None) is not None:
        return Path(args.telemetry_dir).expanduser()
    if getattr(args, "cache_dir", None) is not None:
        return Path(args.cache_dir).expanduser() / "telemetry"
    return events.default_telemetry_dir()


def run_artefact(
    name: str,
    config: EvaluationConfig,
    output_dir: Optional[Path],
    cache: object = None,
) -> str:
    """Run one artefact and optionally persist its rendering.

    Artefacts exposing per-record rows under a ``"csv_rows"`` key (the
    robustness matrix does) are additionally exported as ``<name>.csv``.
    """
    result = ARTEFACTS[name](config, cache=cache)
    text = result["text"]
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
        (output_dir / f"{name}.txt").write_text(text + "\n")
        csv_rows = result.get("csv_rows")
        if csv_rows:
            results_to_csv(csv_rows, output_dir / f"{name}.csv")
    return text


def _cmd_list_registry(kind: str, registry, args: argparse.Namespace) -> int:
    """Shared body of the three ``list-*`` commands (table or ``--json``)."""
    from .registry import catalog_document

    if getattr(args, "json", False):
        print(json.dumps(catalog_document(kind, registry.catalog(args.tag)), indent=2))
        return 0
    rows = [
        [entry.name, "/".join(entry.tags), entry.summary]
        for entry in registry.entries(args.tag)
    ]
    print(ascii_table(rows, headers=[kind, "tags", "description"]))
    return 0


def _cmd_list_models(args: argparse.Namespace) -> int:
    from .registry import LOCALIZERS

    return _cmd_list_registry("model", LOCALIZERS, args)


def _cmd_list_attacks(args: argparse.Namespace) -> int:
    from .registry import ATTACKS

    return _cmd_list_registry("attack", ATTACKS, args)


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    from .registry import SCENARIOS

    return _cmd_list_registry("scenario", SCENARIOS, args)


def _cmd_list_defenses(args: argparse.Namespace) -> int:
    from .registry import DEFENSES

    return _cmd_list_registry("defense", DEFENSES, args)


def _cmd_store(args: argparse.Namespace) -> int:
    from .registry import catalog_document
    from .serve import ModelStore

    store = ModelStore(args.store_dir)
    action = args.store_action
    if action == "list":
        if args.json:
            print(json.dumps(catalog_document("served-model", store.catalog()), indent=2))
            return 0
        rows = []
        for entry in store.catalog():
            latest = entry["latest"]
            rows.append(
                [
                    entry["name"],
                    "/".join(entry["tags"]),
                    f"v{latest['version']}",
                    entry["summary"],
                ]
            )
        print(ascii_table(rows, headers=["name", "tags", "latest", "description"]))
    elif action == "inspect":
        print(json.dumps(store.inspect(args.ref), indent=2))
    elif action == "publish":
        version = store.publish_trained(
            args.building,
            model=args.model,
            name=args.name,
            profile=args.profile,
            cache=not args.no_cache,
            tags=args.tag,
            defense=args.defense,
        )
        print(f"published {version.ref} (digest {version.digest[:12]}, "
              f"tags: {', '.join(version.tags) or '-'}, "
              f"defense: {version.defense})")
    elif action == "promote":
        if args.if_canary_ok:
            verdict = _judge_canary(args)
            if verdict != 0:
                return verdict
        version = store.promote(args.ref, args.tag)
        print(f"tag '{args.tag}' -> {version.ref}")
    elif action == "export":
        path = store.export(args.ref, args.destination)
        print(f"exported {args.ref} to {path}")
    return 0


def _judge_canary(args: argparse.Namespace) -> int:
    """``store promote --if-canary-ok``: judge a live shadow comparison.

    Returns 0 when the canary passes, 1 (with reasons on stderr) otherwise.
    """
    from .serve.aio.routing import canary_ok
    from .serve.http import ServiceClient

    with ServiceClient(args.metrics_url) as client:
        metrics = client.metrics()
    shadow = metrics.get("shadow", {})
    endpoint = args.endpoint
    if endpoint is None:
        if len(shadow) != 1:
            print(
                "error: --if-canary-ok needs --endpoint when the server has "
                f"{len(shadow)} shadowed endpoints (found: {sorted(shadow) or '-'})",
                file=sys.stderr,
            )
            return 1
        endpoint = next(iter(shadow))
    document = shadow.get(endpoint)
    if document is None:
        print(
            f"error: endpoint '{endpoint}' has no shadow comparison at "
            f"{args.metrics_url}/metrics (shadowed: {sorted(shadow) or '-'})",
            file=sys.stderr,
        )
        return 1
    ok, reasons = canary_ok(
        document,
        min_requests=args.min_requests,
        max_flagged_delta=args.max_flagged_delta,
        max_p99_ratio=args.max_p99_ratio,
    )
    if not ok:
        print(f"canary check failed for '{endpoint}':", file=sys.stderr)
        for reason in reasons:
            print(f"  - {reason}", file=sys.stderr)
        return 1
    print(f"canary ok for '{endpoint}'")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ModelStore
    from .serve.aio.routing import parse_route

    store = ModelStore(args.store_dir)
    if args.publish is not None:
        building, model = args.publish
        version = store.publish_trained(building, model=model, profile="quick")
        print(f"published {version.ref} for serving")
    if args.workers < 1:
        raise SystemExit("error: --workers must be >= 1")
    routes = {}
    for item in args.route:
        try:
            endpoint, spec = parse_route(item)
        except ValueError as error:
            raise SystemExit(f"error: {error}") from error
        routes[endpoint] = spec
    if args.workers > 1:
        from .serve.aio.supervisor import serve_workers

        serve_workers(
            store.root,
            host=args.host,
            port=args.port,
            workers=args.workers,
            routes=routes,
            max_batch=args.max_batch,
            max_loaded=args.max_loaded,
            watch_interval_s=args.watch_interval,
        )
    else:
        from .serve.aio.server import serve_aio

        serve_aio(
            store,
            host=args.host,
            port=args.port,
            routes=routes,
            max_batch=args.max_batch,
            max_loaded=args.max_loaded,
            watch_interval_s=args.watch_interval,
        )
    return 0


def _artefact_names(requested: List[str]) -> List[str]:
    return sorted(ARTEFACTS) if "all" in requested else list(dict.fromkeys(requested))


def _cmd_artefacts(
    names: List[str],
    profile: str,
    output_dir: Optional[Path],
    cache: object = None,
) -> int:
    config = _PROFILES[profile]()
    for name in names:
        print(f"=== {name} ({profile} profile) ===")
        print(run_artefact(name, config, output_dir, cache=cache))
        print()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .api import ExperimentSpec, run_experiment

    profile = getattr(args, "profile", "quick")
    output_dir: Optional[Path] = getattr(args, "output_dir", None)
    if args.spec is not None:
        conflicting = [
            flag
            for flag, value in (
                ("--models", args.models),
                ("--buildings", args.buildings),
                ("--devices", args.devices),
                ("--methods", args.methods),
                ("--epsilons", args.epsilons),
                ("--phis", args.phis),
                ("--scenario", args.scenario),
                ("--defense", args.defense),
            )
            if value
        ]
        if conflicting:
            raise SystemExit(
                f"pass either --spec or {'/'.join(conflicting)}, not both "
                "(a spec file already carries the full experiment)"
            )
        spec = ExperimentSpec.load(args.spec)
    elif args.models:
        # A scenario-only run skips the crafted-attack sweep: `--scenario
        # drift` means "evaluate under drift", not "drift plus the full ε/ø
        # grid".  Any explicit attack flag keeps the sweep alongside.
        attack_flags = bool(args.methods or args.epsilons or args.phis)
        spec = ExperimentSpec(
            models=tuple(args.models),
            profile=profile,
            buildings=tuple(args.buildings) if args.buildings else None,
            devices=tuple(args.devices) if args.devices else None,
            scenarios=() if (args.scenario and not attack_flags) else None,
            attack_methods=tuple(args.methods) if args.methods else None,
            epsilons=tuple(args.epsilons) if args.epsilons else None,
            phi_percents=tuple(args.phis) if args.phis else None,
            robustness=tuple(args.scenario) if args.scenario else None,
            defenses=tuple(args.defense) if args.defense else None,
        )
    else:
        raise SystemExit("run requires --spec FILE or --models NAME [NAME ...]")

    label = f" '{spec.name}'" if spec.name else ""
    if getattr(args, "dry_run", False):
        config = spec.config()
        plan = spec.resolve_plan(config)
        print(f"dry run{label}: profile={spec.profile} — {plan.describe()}")
        rows = [[stage, count] for stage, count in plan.stage_counts().items()]
        rows.append(["total", sum(plan.stage_counts().values())])
        print(ascii_table(rows, headers=["stage", "units"]))
        return 0

    print(
        f"running spec{label}: profile={spec.profile}, "
        f"{len(spec.models)} model(s), jobs={args.jobs}"
    )
    results = run_experiment(spec, jobs=args.jobs, cache=_cache_option(args))
    rows = []
    defense_cells = sorted({record.defense for record in results.records})
    for model_name in results.models():
        for defense in defense_cells:
            cell = results.filter(model=model_name, defense=defense)
            if not len(cell):
                continue
            summary = cell.error_summary()
            rows.append(
                [model_name, defense, summary.mean, summary.worst_case, summary.count]
            )
    print(
        ascii_table(
            rows,
            headers=["model", "defense", "mean err (m)", "worst err (m)", "samples"],
        )
    )
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
        csv_path = results_to_csv(results.to_rows(), output_dir / "results.csv")
        (output_dir / "spec.json").write_text(spec.to_json() + "\n")
        print(f"wrote {csv_path} and {output_dir / 'spec.json'}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        Baseline,
        default_baseline_path,
        default_root,
        render_report,
        report_document,
        run_lint,
    )
    from .registry import LINT_RULES, catalog_document

    if args.list_rules:
        if args.json:
            print(json.dumps(catalog_document("lint-rule", LINT_RULES.catalog()), indent=2))
            return 0
        rows = [
            [entry.name, "/".join(entry.tags), entry.summary]
            for entry in LINT_RULES.entries()
        ]
        print(ascii_table(rows, headers=["rule", "tags", "description"]))
        return 0

    root = args.root if args.root is not None else default_root()
    baseline_path = (
        args.baseline if args.baseline is not None else default_baseline_path(root)
    )
    report = run_lint(root=root, rules=args.rules)
    baseline = Baseline.load(baseline_path)

    if args.update_baseline:
        baseline.updated(report.findings).save(baseline_path)
        print(
            f"wrote {baseline_path} with {len(report.findings)} accepted "
            "finding(s) — add a justification string to every entry"
        )
        return 0

    new, baselined, stale = baseline.split(report.findings)
    if args.rules:
        # A subset run can't judge baseline entries of unselected rules.
        selected = set(report.rules)
        stale = [entry for entry in stale if entry.rule in selected]
    if args.json:
        print(json.dumps(report_document(report, new, baselined, stale), indent=2))
    else:
        print(render_report(report, new, baselined, stale))
    return 1 if new else 0


def _queue_cache(args: argparse.Namespace):
    from .eval.engine import ArtifactCache

    return ArtifactCache(args.cache_dir)


def _cmd_queue(args: argparse.Namespace) -> int:
    from .api import ExperimentSpec
    from .queue import (
        RunLedger,
        WorkerOptions,
        collect_results,
        render_status,
        run_status,
        watch,
        work,
    )

    cache = _queue_cache(args)
    action = args.queue_action
    if action == "submit":
        spec = ExperimentSpec.load(args.spec)
        ledger = RunLedger.submit(spec, cache, run_id=args.run_id)
        # The bare run id goes first so scripts can `head -n1` it.
        print(ledger.run_id)
        stages = ledger.manifest["stages"]
        print(
            f"submitted {sum(stages.values())} units "
            f"({', '.join(f'{v} {k}' for k, v in stages.items() if v)}) "
            f"under {ledger.root}"
        )
        print(f"next: repro queue work {ledger.run_id} --workers N")
        return 0
    if action == "work":
        options = WorkerOptions(
            ttl_s=args.ttl,
            poll_s=args.poll,
            max_attempts=args.max_attempts,
            backoff_s=args.backoff,
            max_units=args.max_units,
        )
        succeeded = work(cache, args.run_id, workers=args.workers, options=options)
        ledger = RunLedger.open(cache, args.run_id)
        print(render_status(run_status(ledger)))
        return 0 if succeeded else 1
    if action == "status":
        ledger = RunLedger.open(cache, args.run_id)
        status = run_status(ledger)
        print(json.dumps(status, indent=2) if args.json else render_status(status))
        return 0
    if action == "watch":
        ledger = RunLedger.open(cache, args.run_id)
        try:
            status = watch(ledger, interval_s=args.interval, timeout_s=args.timeout)
        except TimeoutError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        return 0 if status["succeeded"] else 1
    if action == "result":
        ledger = RunLedger.open(cache, args.run_id)
        results = collect_results(ledger, allow_partial=args.allow_partial)
        print(f"{len(results)} record(s) from run {ledger.run_id}")
        if args.output_dir is not None:
            args.output_dir.mkdir(parents=True, exist_ok=True)
            csv_path = results_to_csv(
                results.to_rows(), args.output_dir / "results.csv"
            )
            (args.output_dir / "spec.json").write_text(
                ledger.spec.to_json() + "\n"
            )
            print(f"wrote {csv_path} and {args.output_dir / 'spec.json'}")
        return 0
    if action == "list":
        runs = RunLedger.list_runs(cache)
        if not runs:
            print(f"no runs under {cache.root / 'queue'}")
            return 0
        rows = []
        for run_id in runs:
            ledger = RunLedger.open(cache, run_id)
            status = run_status(ledger)
            rows.append(
                [
                    run_id,
                    f"{status['units_done']}/{status['units_total']}",
                    "complete" if status["complete"] else "in progress",
                    len(status["failed_units"]),
                ]
            )
        print(ascii_table(rows, headers=["run", "done", "state", "failed/skipped"]))
        return 0
    raise SystemExit(f"unknown queue action '{action}'")  # pragma: no cover


def _span_forest(spans: list) -> list:
    """Nest span records (``children`` lists) by parent linkage.

    Spans whose parent is missing from the log (e.g. the parent process was
    killed before its span finished) surface as roots rather than vanishing.
    """
    by_id = {}
    for span in spans:
        node = dict(span)
        node["children"] = []
        by_id[node["span_id"]] = node
    roots = []
    for node in by_id.values():
        parent = by_id.get(node.get("parent_id"))
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)

    def order(nodes: list) -> None:
        nodes.sort(key=lambda n: (n.get("start_unix", 0.0), n["span_id"]))
        for child in nodes:
            order(child["children"])

    order(roots)
    return roots


def _render_span_tree(node: dict, depth: int = 0) -> Iterator[str]:
    attrs = node.get("attrs", {})
    detail = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
    duration_ms = 1000.0 * float(node.get("duration_s") or 0.0)
    status = node.get("status", "ok")
    line = f"{'  ' * depth}{node['name']}  {duration_ms:.2f}ms  [{status}]"
    yield line + (f"  {detail}" if detail else "")
    for child in node["children"]:
        yield from _render_span_tree(child, depth + 1)


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs import events

    root = _telemetry_dir(args)
    action = args.obs_action
    if action == "tail":
        shown = 0
        try:
            for record in events.tail(root, follow=args.follow):
                if args.kind is not None and record.get("kind") != args.kind:
                    continue
                print(json.dumps(record, sort_keys=True), flush=args.follow)
                shown += 1
                if args.limit is not None and shown >= args.limit:
                    break
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        return 0
    if action == "summary":
        kinds: Dict[str, int] = {}
        spans: Dict[str, Dict[str, float]] = {}
        total = 0
        for record in events.read_events(root):
            total += 1
            kind = str(record.get("kind", "?"))
            kinds[kind] = kinds.get(kind, 0) + 1
            if kind != "span":
                continue
            stats = spans.setdefault(
                str(record.get("name", "?")),
                {"count": 0, "errors": 0, "total_s": 0.0, "max_s": 0.0},
            )
            stats["count"] += 1
            if record.get("status") != "ok":
                stats["errors"] += 1
            duration = float(record.get("duration_s") or 0.0)
            stats["total_s"] += duration
            stats["max_s"] = max(stats["max_s"], duration)
        document = {
            "telemetry_dir": str(root),
            "segments": len(events.segment_paths(root)),
            "events": total,
            "kinds": dict(sorted(kinds.items())),
            "spans": {
                name: {
                    "count": int(stats["count"]),
                    "errors": int(stats["errors"]),
                    "mean_ms": round(1000.0 * stats["total_s"] / stats["count"], 3),
                    "max_ms": round(1000.0 * stats["max_s"], 3),
                }
                for name, stats in sorted(spans.items())
            },
        }
        if args.json:
            print(json.dumps(document, indent=2))
            return 0
        print(f"telemetry dir : {root}")
        print(f"segments      : {document['segments']}")
        print(f"events        : {total}")
        if kinds:
            rows = [[kind, count] for kind, count in sorted(kinds.items())]
            print(ascii_table(rows, headers=["kind", "events"]))
        if document["spans"]:
            rows = [
                [name, s["count"], s["errors"], s["mean_ms"], s["max_ms"]]
                for name, s in document["spans"].items()
            ]
            print(
                ascii_table(
                    rows, headers=["span", "count", "errors", "mean ms", "max ms"]
                )
            )
        return 0
    if action == "spans":
        records = list(events.read_events(root, kind="span"))
        if args.run_id is not None:
            matching_traces = {
                record.get("trace_id")
                for record in records
                if record.get("attrs", {}).get("run_id") == args.run_id
            }
            records = [
                record
                for record in records
                if record.get("trace_id") in matching_traces
            ]
        forest = _span_forest(records)
        if args.json:
            print(json.dumps(forest, indent=2))
            return 0
        if not forest:
            print(f"no spans under {root}")
            return 0
        for tree_root in forest:
            for line in _render_span_tree(tree_root):
                print(line)
        return 0
    raise SystemExit(f"unknown obs action '{action}'")  # pragma: no cover


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns a process exit code.

    The process first gets the one-thread BLAS pool its spawned workers get
    (:func:`repro.spawn.limit_blas_threads`): a second OpenBLAS thread per
    core doubled the CPU time of ``artefact all`` and saved no wall time.
    A work command's event sink is closed when the command ends: the sink
    appends what it queued every 50 ms, and closing it appends the rest
    before the process exits.
    """
    limit_blas_threads()
    args = build_parser().parse_args(argv)
    command = getattr(args, "command", None)
    if command in ("artefact", "run", "queue", "serve") and _setup_telemetry(args):
        from .obs import events

        try:
            return _run_command(args)
        finally:
            events.configure_sink(None)
    return _run_command(args)


def _run_command(args: argparse.Namespace) -> int:
    """Dispatch the parsed subcommand; returns its exit code."""
    command = getattr(args, "command", None)
    if command == "obs":
        try:
            return _cmd_obs(args)
        except (KeyError, ValueError, OSError) as error:
            raise SystemExit(f"error: {error}")
    if command == "list-models":
        return _cmd_list_models(args)
    if command == "list-attacks":
        return _cmd_list_attacks(args)
    if command == "list-scenarios":
        return _cmd_list_scenarios(args)
    if command == "list-defenses":
        return _cmd_list_defenses(args)
    if command == "lint":
        try:
            return _cmd_lint(args)
        except (KeyError, ValueError, OSError) as error:
            raise SystemExit(f"error: {error}")
    if command == "store":
        try:
            return _cmd_store(args)
        except (KeyError, ValueError, OSError) as error:
            raise SystemExit(f"error: {error}")
    if command == "serve":
        try:
            return _cmd_serve(args)
        except (KeyError, ValueError, OSError) as error:
            raise SystemExit(f"error: {error}")
    if command == "queue":
        from .queue import LedgerError

        try:
            return _cmd_queue(args)
        except BrokenPipeError:
            # Downstream closed early (`repro queue submit | head -n1` is the
            # documented way to capture the run id) — not an error.  Redirect
            # stdout to devnull so the interpreter's exit-time flush of the
            # closed pipe cannot raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        except (LedgerError, KeyError, ValueError, OSError) as error:
            raise SystemExit(f"error: {error}")
    if command == "run":
        try:
            return _cmd_run(args)
        except (KeyError, ValueError, OSError) as error:
            # User errors (unknown model, malformed spec, missing file) get a
            # clean message instead of a traceback.
            raise SystemExit(f"error: {error}")
    # The remaining subcommand: artefact.
    return _cmd_artefacts(
        _artefact_names(args.names),
        args.profile,
        args.output_dir,
        cache=_cache_option(args),
    )


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
