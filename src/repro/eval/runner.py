"""Evaluation records and the queryable result set every experiment returns.

One :class:`EvaluationRecord` is one measured operating point — a
(model, building, device, scenario) cell and its localization-error
statistics; a :class:`ResultSet` collects them in canonical plan order.
:func:`repro.api.run_experiment` and the campaign queue
(:func:`repro.queue.collect_results`) both decode unit outcomes into these
through :func:`repro.eval.engine.plan_records`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..interfaces import ErrorSummary
from .metrics import ErrorStats
from .scenarios import AttackScenario

__all__ = ["EvaluationRecord", "ResultSet"]


def _criterion_matches(actual: object, expected: object) -> bool:
    """Equality that tolerates float rounding for ε/ø-style criteria."""
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        return math.isclose(float(actual), expected, rel_tol=1e-9, abs_tol=1e-12)
    return actual == expected


@dataclass(frozen=True)
class EvaluationRecord:
    """One measured operating point.

    ``condition`` names the robustness scenario the cell was evaluated under
    (``"standard"`` for the plain attack grid; e.g. ``"drift"`` or
    ``"ap-outage"`` for cells produced by scenario work units).  ``defense``
    names the hardening strategy the model was trained under (``"none"`` for
    the undefended path), making every result set a defense × attack ×
    scenario matrix.
    """

    model: str
    building: str
    device: str
    scenario: AttackScenario
    stats: ErrorStats
    condition: str = "standard"
    defense: str = "none"

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary (for CSV export and report tables).

        Clean rows (ε = 0 or ø = 0) report ``attack="clean"`` **and** zero in
        both the ε and ø columns: a scenario like ``(ε=0.3, ø=0)`` carries no
        perturbation, so exporting its nominal ε would show a phantom attack
        strength in CSV exports.
        """
        clean = self.scenario.is_clean
        row: Dict[str, object] = {
            "model": self.model,
            "building": self.building,
            "device": self.device,
            "scenario": self.condition,
            "defense": self.defense,
            "attack": "clean" if clean else self.scenario.method,
            "epsilon": 0.0 if clean else self.scenario.epsilon,
            "phi": 0.0 if clean else self.scenario.phi_percent,
        }
        row.update(self.stats.as_dict())
        return row


@dataclass
class ResultSet:
    """A queryable collection of evaluation records."""

    records: List[EvaluationRecord] = field(default_factory=list)

    def add(self, record: EvaluationRecord) -> None:
        self.records.append(record)

    def extend(self, records: Sequence[EvaluationRecord]) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    def filter(self, **criteria) -> "ResultSet":
        """Filter by model / building / device / scenario / defense / attack / epsilon / phi.

        Float-valued criteria (``epsilon``/``phi``) are compared with
        :func:`math.isclose`, so grid values that went through JSON or
        arithmetic round-trips still match.
        """
        selected = []
        for record in self.records:
            row = record.as_dict()
            if all(
                _criterion_matches(row.get(key), value)
                for key, value in criteria.items()
            ):
                selected.append(record)
        return ResultSet(selected)

    def mean_error(self) -> float:
        """Sample-weighted mean localization error over all records."""
        if not self.records:
            raise ValueError("result set is empty")
        weights = np.array([r.stats.count for r in self.records], dtype=np.float64)
        means = np.array([r.stats.mean for r in self.records])
        return float((weights * means).sum() / weights.sum())

    def worst_case_error(self) -> float:
        """Maximum localization error over all records."""
        if not self.records:
            raise ValueError("result set is empty")
        return float(max(r.stats.worst_case for r in self.records))

    def error_summary(self) -> ErrorSummary:
        """Weighted mean, worst case and sample count in a single pass."""
        if not self.records:
            raise ValueError("result set is empty")
        total = 0
        weighted_mean = 0.0
        worst = 0.0
        for record in self.records:
            total += record.stats.count
            weighted_mean += record.stats.mean * record.stats.count
            worst = max(worst, record.stats.worst_case)
        return ErrorSummary(
            mean=weighted_mean / total, worst_case=worst, count=total
        )

    def models(self) -> List[str]:
        """Distinct model names present in the results."""
        return sorted({r.model for r in self.records})

    def to_rows(self) -> List[Dict[str, object]]:
        """All records as flat dictionaries."""
        return [record.as_dict() for record in self.records]

    def to_records(self) -> List[Dict[str, object]]:
        """Alias of :meth:`to_rows`; canonical form for equality comparisons.

        Two runs of the same experiment are bit-identical exactly when their
        ``to_records()`` lists compare equal (order included).
        """
        return self.to_rows()
