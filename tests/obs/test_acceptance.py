"""The PR's acceptance scenario, end to end.

One request pair — Bo submits a tagged job, Kate (authorized by the
Figure 3 ``jobtag`` grant, not ownership) cancels it while the policy
source times out once — must produce:

* a trace export whose cancel tree nests Gatekeeper → JobManager →
  PEP → callout → policy-source, with retry, timeout and breaker
  events attached where they happened;
* a registry snapshot with per-source labeled latency histograms and
  the resilience counters;
* byte-for-byte identical exports when the whole scenario runs twice
  under the simulated clock.
"""

import itertools
import json

from repro.core.parser import parse_policy
from repro.core.resilience import ResilienceConfig, RetryPolicy
from repro.gram import protocol
from repro.gram.client import GramClient
from repro.gram.service import GramService, ServiceConfig
from repro.obs import render_trace_tree, source_latency_report
from repro.testing import FaultSchedule, LatencyFault, inject
from repro.workloads.scenarios import FIGURE3_POLICY_TEXT

from tests.conftest import BO, KATE

LOCAL_POLICY = """
/O=Grid/O=Globus/OU=mcs.anl.gov:
    &(action=start)(count<=32)
    &(action=cancel)
    &(action=information)
"""

BO_START = (
    "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=2)(runtime=100)"
)

#: Simulated seconds the faulted source takes (above the 1s budget).
SOURCE_LATENCY = 2.0


def run_scenario():
    """Build a fresh resource, run submit + faulted cancel, export."""
    # A fresh process would start its job-contact counter at 1; reset
    # it so two in-process runs are comparable byte for byte.
    protocol._contact_counter = itertools.count(1)

    service = GramService(
        ServiceConfig(
            policies=(
                parse_policy(FIGURE3_POLICY_TEXT, name="vo"),
                parse_policy(LOCAL_POLICY, name="local"),
            ),
        )
    )
    bo = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
    kate = GramClient(service.add_user(KATE, "keahey"), service.gatekeeper)

    # One slow spell: the source times out for exactly two calls
    # (Kate's first two cancel attempts), then recovers.  Injected
    # before hardening so the resilience wrapper sits outside it.
    fault = FaultSchedule(
        [(1, None), (2, LatencyFault(service.clock, SOURCE_LATENCY))]
    )
    inject(service.registry, "gram.authz", fault)
    service.harden(
        ResilienceConfig(
            timeout=1.0,
            retry=RetryPolicy(
                max_attempts=3, base_delay=4.0, multiplier=2.0, jitter=0.0
            ),
            failure_threshold=2,
            reset_timeout=6.0,
        )
    )

    submitted = bo.submit(BO_START)
    assert submitted.ok, submitted.message
    cancelled = kate.cancel(submitted.contact)
    assert cancelled.ok, cancelled.message
    assert kate.identity != bo.identity  # peer, not owner

    telemetry = service.telemetry
    spans_jsonl = telemetry.tracer.to_jsonl()
    spans = [json.loads(line) for line in spans_jsonl.splitlines()]
    return {
        "spans_jsonl": spans_jsonl,
        "cancel_tree": render_trace_tree(spans, trace_id="req-000002"),
        "prometheus": telemetry.registry.to_prometheus(),
        "metrics_jsonl": telemetry.registry.to_jsonl(),
        "latency_report": source_latency_report(telemetry.registry.snapshot()),
        "trace_ids": telemetry.tracer.trace_ids(),
        "registry": telemetry.registry,
    }


class TestAcceptanceScenario:
    def test_cancel_trace_nests_all_layers(self):
        result = run_scenario()
        tree = result["cancel_tree"]
        lines = tree.splitlines()
        # Structural nesting: each layer indents under the previous.
        for outer, inner in [
            ("gatekeeper.manage", "jobmanager.manage"),
            ("jobmanager.manage", "pep.authorize"),
            ("pep.authorize", "callout:"),
            ("callout:", "source:vo"),
        ]:
            outer_line = next(l for l in lines if l.lstrip().startswith(outer))
            inner_line = next(l for l in lines if l.lstrip().startswith(inner))
            outer_indent = len(outer_line) - len(outer_line.lstrip())
            inner_indent = len(inner_line) - len(inner_line.lstrip())
            assert inner_indent > outer_indent, tree

    def test_retry_timeout_and_breaker_events_recorded(self):
        result = run_scenario()
        tree = result["cancel_tree"]
        assert tree.count("timeout") >= 2
        assert tree.count("retry") >= 2
        assert "closed->open" in tree
        assert "open->half-open" in tree
        assert "half-open->closed" in tree

    def test_registry_snapshot_has_labeled_histograms(self):
        result = run_scenario()
        registry = result["registry"]
        family = registry.get("authz_source_latency_seconds")
        by_source = {labels["source"]: h for labels, h in family.series()}
        assert set(by_source) == {"vo", "local"}
        # submit (1) + three cancel attempts = 4 observations per source.
        assert by_source["vo"].count == 4
        label = next(iter(registry.get("resilience_timeouts_total").series()))[0]
        source = label["source"]
        assert registry.value("resilience_timeouts_total", source=source) == 2
        assert registry.value("resilience_retries_total", source=source) == 2
        assert registry.value(
            "breaker_transitions_total", source=source, to="open"
        ) == 1
        assert registry.value(
            "breaker_transitions_total", source=source, to="half-open"
        ) == 1
        assert registry.value(
            "breaker_transitions_total", source=source, to="closed"
        ) == 1
        assert registry.value("breaker_state", source=source) == 0  # closed
        assert "vo:" in result["latency_report"]

    def test_exports_are_byte_identical_across_runs(self):
        first, second = run_scenario(), run_scenario()
        for key in (
            "spans_jsonl",
            "cancel_tree",
            "prometheus",
            "metrics_jsonl",
            "latency_report",
            "trace_ids",
        ):
            assert first[key] == second[key], f"{key} differs between runs"

    def test_trace_per_request(self):
        result = run_scenario()
        assert result["trace_ids"] == ("req-000001", "req-000002")
