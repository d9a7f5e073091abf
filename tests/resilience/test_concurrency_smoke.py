"""Concurrency smoke test: one PEP hammered from many threads.

A policy source flapping while N threads authorize through the same
EnforcementPoint must produce no deadlock, a consistent breaker
transition log, correctly-summing metrics and a bounded audit log.
Faults here are exception-based only — the simulated clock is
single-threaded by design, so latency faults stay out of this test.
"""

import threading

from repro.core.builtin_callouts import permit_all
from repro.core.callout import GRAM_AUTHZ_CALLOUT, default_registry
from repro.core.errors import AuthorizationSystemFailure
from repro.core.pep import EnforcementPoint
from repro.core.request import AuthorizationRequest
from repro.core.resilience import DegradationMode, ResilienceConfig
from repro.rsl.parser import parse_specification
from repro.testing import ExceptionFault, FlapFault, inject

from tests.conftest import BO

THREADS = 8
CALLS_PER_THREAD = 60
AUDIT_LIMIT = 100


class _EpochStub:
    def __init__(self):
        self.policy_epoch = 0


def build():
    registry = default_registry()
    registry.register(GRAM_AUTHZ_CALLOUT, permit_all, label="flappy")
    fault = FlapFault(ExceptionFault(), period=5, failures=2)
    inject(registry, GRAM_AUTHZ_CALLOUT, fault)
    epochs = _EpochStub()
    config = ResilienceConfig(
        failure_threshold=3, mode=DegradationMode.FAIL_CLOSED
    )
    registry.wrap(
        GRAM_AUTHZ_CALLOUT,
        lambda label, callout: config.wrap(
            callout, name=label, epoch_source=epochs
        ),
    )
    pep = EnforcementPoint(
        registry=registry,
        resilience=config.middleware([epochs]),
        audit_limit=AUDIT_LIMIT,
    )
    return pep, config, fault, epochs


class TestConcurrencySmoke:
    def test_no_deadlock_consistent_breakers_bounded_audit(self):
        pep, config, fault, epochs = build()
        outcomes = [0] * THREADS
        errors = []

        def worker(slot):
            request = AuthorizationRequest.start(
                BO, parse_specification(f"&(executable=sim{slot})(count=1)")
            )
            for call in range(CALLS_PER_THREAD):
                try:
                    pep.decide(request)
                except AuthorizationSystemFailure:
                    pass
                except Exception as exc:  # pragma: no cover - reported below
                    errors.append(exc)
                    return
                outcomes[slot] += 1
                if call % 20 == 19:
                    # A concurrent policy update: re-arms any open
                    # breaker without needing the (single-threaded)
                    # simulated clock.
                    epochs.policy_epoch += 1

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)

        assert not any(thread.is_alive() for thread in threads), "deadlock"
        assert not errors, errors
        total = sum(outcomes)
        assert total == THREADS * CALLS_PER_THREAD

        # Breaker transition logs all form unbroken chains.
        for breaker in config.breakers.values():
            assert breaker.is_consistent(), breaker.transitions

        # The audit log stayed bounded despite hundreds of decisions,
        # and no concurrent decision was lost from the counters.
        assert len(pep.audit_log) <= AUDIT_LIMIT
        assert pep.decisions_made == total
        assert pep.dropped == total - len(pep.audit_log)

        # The fault saw every underlying (non-fast-failed) invocation.
        assert fault.calls <= total
        assert fault.calls == total - config.metrics.fast_fails

    def test_metrics_counters_are_race_free(self):
        pep, config, fault, _ = build()
        request = AuthorizationRequest.start(
            BO, parse_specification("&(executable=sim)(count=1)")
        )

        def worker():
            for _ in range(40):
                try:
                    pep.decide(request)
                except AuthorizationSystemFailure:
                    pass

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)

        snapshot = config.metrics.snapshot()
        # Failures observed by the wrapper equal the fault activations
        # (every activation raised; none were lost to races).
        assert snapshot["failures"] == fault.activations
        assert snapshot["fast_fails"] == sum(
            breaker.fast_fails for breaker in config.breakers.values()
        )
