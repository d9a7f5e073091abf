"""Audit-log export, reload and offline analysis."""

import json

import pytest

from repro.core.builtin_callouts import broken_callout
from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.parser import parse_policy
from repro.core.decision import Effect
from repro.core.pipeline import DecisionContext
from repro.gram.audit import (
    export_audit_log,
    load_audit_log,
    summarize,
)
from repro.gram.client import GramClient
from repro.gram.service import GramService, ServiceConfig

ALICE = "/O=Grid/OU=audit/CN=Alice"
POLICY = f"""
{ALICE}:
    &(action=start)(executable=sim)(count<4)
    &(action=cancel)(jobowner=self)
"""


@pytest.fixture
def busy_service():
    service = GramService(ServiceConfig(policies=(parse_policy(POLICY, name="vo"),)))
    alice = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
    ok = alice.submit("&(executable=sim)(count=2)(runtime=50)")
    alice.submit("&(executable=sim)(count=8)")       # denied (count)
    alice.submit("&(executable=rogue)(count=1)")     # denied (executable)
    alice.cancel(ok.contact)                          # permit
    return service


class TestExportAndReload:
    def test_round_trip(self, busy_service, tmp_path):
        path = tmp_path / "audit.jsonl"
        written = export_audit_log(busy_service.pep, str(path))
        assert written == 4
        entries = load_audit_log(str(path))
        assert len(entries) == 4
        outcomes = [entry.outcome for entry in entries]
        assert outcomes == ["permit", "deny", "deny", "permit"]

    def test_entries_carry_request_context(self, busy_service, tmp_path):
        path = tmp_path / "audit.jsonl"
        export_audit_log(busy_service.pep, str(path))
        entries = load_audit_log(str(path))
        denial = entries[1]
        assert denial.requester == ALICE
        assert denial.action == "start"
        assert denial.reasons
        cancel = entries[3]
        assert cancel.action == "cancel"
        assert cancel.jobowner == ALICE

    def test_failures_exported_distinctly(self, busy_service, tmp_path):
        busy_service.registry.clear(GRAM_AUTHZ_CALLOUT)
        busy_service.registry.register(GRAM_AUTHZ_CALLOUT, broken_callout)
        alice = GramClient(
            busy_service.ca.issue(ALICE + " Second", now=0.0),
            busy_service.gatekeeper,
        )
        busy_service.gridmap.add(ALICE + " Second", "alice")
        alice.submit("&(executable=sim)(count=1)")
        path = tmp_path / "audit.jsonl"
        export_audit_log(busy_service.pep, str(path))
        entries = load_audit_log(str(path))
        assert entries[-1].outcome == "failure"
        assert entries[-1].failure
        assert entries[-1].failure_kind == "error"

    def test_json_round_trip_of_single_entry(self):
        entry = DecisionContext(
            request_id="dec-1",
            requester=ALICE,
            action="start",
            job_id="7",
            jobowner=ALICE,
            effect=Effect.DENY,
            reasons=("r1", "r2"),
        )
        entry.add_source("vo", Effect.DENY)
        assert DecisionContext.from_dict(json.loads(entry.to_json())) == entry


class TestOfflineSummary:
    def test_summary_counts(self, busy_service, tmp_path):
        path = tmp_path / "audit.jsonl"
        export_audit_log(busy_service.pep, str(path))
        summary = summarize(load_audit_log(str(path)))
        assert summary.total == 4
        assert summary.permits == 2
        assert summary.denials == 2
        assert summary.failures == 0
        assert summary.by_requester[0][0] == ALICE
        assert summary.top_denial_reasons

    def test_summary_renders(self, busy_service, tmp_path):
        path = tmp_path / "audit.jsonl"
        export_audit_log(busy_service.pep, str(path))
        text = str(summarize(load_audit_log(str(path))))
        assert "4 decisions" in text
        assert ALICE in text

    def test_empty_log(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_text("")
        summary = summarize(load_audit_log(str(path)))
        assert summary.total == 0
