"""Audit-log export and offline analysis.

The PEP keeps its audit log in memory; sites need it on disk for
accounting disputes and security review.  The audit file is the
decision record itself — one :meth:`DecisionContext.to_json` line per
decision — so reloading it yields the same contexts the PEP kept, and
the denial analysis runs offline: an administrator can answer "who
was denied what last week, and why" without the resource running.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.core.pep import EnforcementPoint
from repro.core.pipeline import DecisionContext


def export_audit_log(pep: EnforcementPoint, path: str) -> int:
    """Write the PEP's audit log as JSON lines; returns entries written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for context in pep.audit_log:
            handle.write(context.to_json() + "\n")
            count += 1
    return count


def load_audit_log(path: str) -> Tuple[DecisionContext, ...]:
    """Read a JSON-lines audit file back into decision contexts."""
    records: List[DecisionContext] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(DecisionContext.from_dict(json.loads(line)))
    return tuple(records)


@dataclass(frozen=True)
class OfflineSummary:
    """Aggregates over a loaded audit log."""

    total: int
    permits: int
    denials: int
    failures: int
    by_requester: Tuple[Tuple[str, int], ...]
    top_denial_reasons: Tuple[Tuple[str, int], ...]

    def __str__(self) -> str:
        lines = [
            f"{self.total} decisions: {self.permits} permits, "
            f"{self.denials} denials, {self.failures} failures"
        ]
        for requester, count in self.by_requester[:5]:
            lines.append(f"  {requester}: {count} request(s)")
        for reason, count in self.top_denial_reasons[:5]:
            lines.append(f"  deny x{count}: {reason}")
        return "\n".join(lines)


def summarize(records: Iterable[DecisionContext]) -> OfflineSummary:
    """Compute the offline report an administrator reads first."""
    total = permits = denials = failures = 0
    requesters: Dict[str, int] = {}
    reasons: Dict[str, int] = {}
    for record in records:
        total += 1
        requesters[record.requester] = requesters.get(record.requester, 0) + 1
        outcome = record.outcome
        if outcome == "permit":
            permits += 1
        elif outcome == "deny":
            denials += 1
            for reason in record.reasons[:1]:
                reasons[reason] = reasons.get(reason, 0) + 1
        else:
            failures += 1
    return OfflineSummary(
        total=total,
        permits=permits,
        denials=denials,
        failures=failures,
        by_requester=tuple(
            sorted(requesters.items(), key=lambda kv: (-kv[1], kv[0]))
        ),
        top_denial_reasons=tuple(
            sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))
        ),
    )
