"""The Policy Enforcement Point (paper §5.2).

The PEP "controls all external access to a resource via GRAM; an
action is authorized depending on the decision yielded by the PEP".
The prototype places it in the Job Manager — the component that parses
job descriptions and can therefore evaluate request-dependent policy —
but §6.2 discusses the alternative Gatekeeper placement, so the
placement is explicit here and both are exercised by the benchmarks.

The PEP fronts the callout registry through the decision pipeline
(:mod:`repro.core.pipeline`): every call to
:meth:`EnforcementPoint.authorize` builds a
:class:`~repro.core.pipeline.DecisionContext`, runs the middleware
stack (resilience, capability and the policy-epoch decision cache when
configured) around the callout chain, counts the outcome, keeps the
finished context in its audit ring, and either returns the PERMIT
decision (context attached) or raises :class:`AuthorizationDenied` /
:class:`AuthorizationSystemFailure` (context attached to the
exception).
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from typing import Any, Deque, Optional, Sequence, Tuple

from repro.core.callout import (
    GRAM_AUTHZ_CALLOUT,
    CalloutRegistry,
    default_registry,
)
from repro.core.decision import Decision
from repro.core.errors import AuthorizationDenied, AuthorizationSystemFailure
from repro.core.pipeline import (
    DecisionCache,
    DecisionContext,
    DecisionMiddleware,
    NextHandler,
    activate,
    compose,
)
from repro.core.request import AuthorizationRequest
from repro.obs.spans import current_span, span as obs_span


class PEPPlacement(enum.Enum):
    """Which GRAM component hosts the enforcement point."""

    JOB_MANAGER = "job-manager"
    GATEKEEPER = "gatekeeper"


class EnforcementPoint:
    """A PEP bound to a callout registry, a placement and a middleware stack.

    The stack runs outermost-first: any extra middlewares, resilience,
    capability, then the decision cache (each when configured) sitting
    directly in front of the callout chain, so a hit skips policy
    evaluation entirely.  :meth:`authorize` counts every outcome and
    keeps the finished contexts in a bounded ring (:attr:`audit_log`).
    """

    def __init__(
        self,
        registry: Optional[CalloutRegistry] = None,
        callout_type: str = GRAM_AUTHZ_CALLOUT,
        placement: PEPPlacement = PEPPlacement.JOB_MANAGER,
        audit_limit: int = 10_000,
        middlewares: Sequence[DecisionMiddleware] = (),
        resilience: Optional[DecisionMiddleware] = None,
        capability: Optional[DecisionMiddleware] = None,
        cache: Optional[DecisionCache] = None,
        telemetry=None,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self.callout_type = callout_type
        self.placement = placement
        self.telemetry = telemetry
        self.resilience = resilience
        self.capability = capability
        self.cache = cache
        self._extra_middlewares = list(middlewares)
        self._chain: Optional[NextHandler] = None
        self._audit_limit = audit_limit
        self._audit: Deque[DecisionContext] = deque(maxlen=audit_limit)
        # Guards the counters and the ring: one PEP may serve several
        # threads, and ``+=`` is not atomic.
        self._lock = threading.Lock()
        #: Contexts evicted from the audit ring by its bound.
        self.dropped = 0
        self.permits = 0
        self.denials = 0
        self.failures = 0
        # Labeled-family handles, resolved on the first decision so the
        # per-decision path skips the registry's name resolution:
        # (decisions, cache, latency, {(action, outcome): (counter,
        # histogram)}, {cache status: counter}).
        self._families: Optional[Tuple[Any, ...]] = None

    # -- middleware stack -----------------------------------------------------

    @property
    def middlewares(self) -> Tuple[DecisionMiddleware, ...]:
        stack = list(self._extra_middlewares)
        if self.resilience is not None:
            # Outside the cache: a cache hit never needs degradation,
            # and a failing callout chain is caught before it is counted.
            stack.append(self.resilience)
        if self.capability is not None:
            # In front of the decision cache: a validated capability
            # answers without consulting policy epochs per lookup, and
            # a miss still benefits from the cache underneath.
            stack.append(self.capability)
        if self.cache is not None:
            stack.append(self.cache)
        return tuple(stack)

    def add_middleware(self, middleware: DecisionMiddleware) -> None:
        """Insert *middleware* outside resilience and the decision cache."""
        self._extra_middlewares.append(middleware)
        self._chain = None

    def use_resilience(self, middleware: DecisionMiddleware) -> DecisionMiddleware:
        """Enable (or replace) the resilience/degradation middleware.

        Typically a :class:`~repro.core.resilience.ResilienceMiddleware`;
        it sits between the extra middlewares and the decision cache.
        """
        self.resilience = middleware
        self._chain = None
        return middleware

    def use_capability(self, middleware: DecisionMiddleware) -> DecisionMiddleware:
        """Enable (or replace) the capability validate-first fast path.

        Typically a :class:`~repro.core.capability.CapabilityMiddleware`;
        it sits between resilience and the decision cache.
        """
        self.capability = middleware
        self._chain = None
        return middleware

    def use_cache(self, cache: Optional[DecisionCache] = None) -> DecisionCache:
        """Enable (or replace) the policy-epoch decision cache."""
        self.cache = cache if cache is not None else DecisionCache()
        self._chain = None
        return self.cache

    def _handler(self) -> NextHandler:
        if self._chain is None:
            def terminal(
                request: AuthorizationRequest, context: DecisionContext
            ) -> Decision:
                return self.registry.invoke(
                    self.callout_type, request, context=context
                )

            self._chain = compose(self.middlewares, terminal)
        return self._chain

    # -- decisions ---------------------------------------------------------------

    def authorize(
        self,
        request: AuthorizationRequest,
        context: Optional[DecisionContext] = None,
    ) -> Decision:
        """Authorize *request* or raise.

        Returns the PERMIT decision (with its
        :class:`~repro.core.pipeline.DecisionContext` attached) on
        success.  Raises :class:`AuthorizationDenied` carrying the
        policy reasons and context on denial, and
        :class:`AuthorizationSystemFailure` when no decision could be
        made (fails closed).
        """
        if context is None:
            context = DecisionContext.from_request(
                request, placement=self.placement.value
            )
        handler = self._handler()
        if self.telemetry is not None:
            pep_span = self.telemetry.span(
                "pep.authorize",
                action=context.action,
                placement=self.placement.value,
            )
        else:
            pep_span = obs_span(
                "pep.authorize",
                action=context.action,
                placement=self.placement.value,
            )
        with activate(context), pep_span as span:
            if span is None:
                span = current_span()
            if span is not None:
                context.correlation_id = span.trace_id
            clock = self.telemetry.clock if self.telemetry is not None else None
            started_sim = clock.now if clock is not None else 0.0
            try:
                with context.stage("pep", detail=self.placement.value):
                    decision = handler(request, context)
            except AuthorizationSystemFailure as exc:
                context.finish_failure(exc)
                exc.context = context
                if span is not None:
                    span.set_attr("decision", "failure")
                    span.set_attr("failure_source", exc.source or "")
                    span.set_attr("failure_kind", exc.kind)
                self._record(context, clock, started_sim)
                raise
            if span is not None:
                span.set_attr("decision", decision.effect.value)
        context.finish(decision)
        decision = decision.with_context(context)
        self._record(context, clock, started_sim)
        if decision.is_permit:
            return decision
        raise AuthorizationDenied(
            f"{request} denied" + (f" by {decision.source}" if decision.source else ""),
            reasons=decision.reasons,
            context=context,
        )

    def decide(
        self,
        request: AuthorizationRequest,
        context: Optional[DecisionContext] = None,
    ) -> Decision:
        """Like :meth:`authorize` but never raises on denial.

        System failures are still raised — callers must not confuse a
        broken authorization system with a policy denial.
        """
        try:
            return self.authorize(request, context=context)
        except AuthorizationDenied as exc:
            return Decision.deny(
                reasons=exc.reasons, source="pep"
            ).with_context(exc.context)

    # -- counters ------------------------------------------------------------

    @property
    def decisions_made(self) -> int:
        return self.permits + self.denials + self.failures

    # -- audit ------------------------------------------------------------

    @property
    def audit_limit(self) -> int:
        return self._audit_limit

    @audit_limit.setter
    def audit_limit(self, limit: int) -> None:
        with self._lock:
            self._audit_limit = limit
            self.dropped += max(0, len(self._audit) - limit)
            self._audit = deque(self._audit, maxlen=limit)

    def _record(
        self, context: DecisionContext, clock: Any, started_sim: float
    ) -> None:
        """Emit the finished *context*: count it, keep it in the ring,
        and feed the labeled ``authz_*`` families.

        The labeled latency is simulated seconds since *started_sim*,
        so registry snapshots are deterministic run to run.
        """
        outcome = context.outcome
        with self._lock:
            if outcome == "permit":
                self.permits += 1
            elif outcome == "deny":
                self.denials += 1
            else:
                self.failures += 1
            if len(self._audit) == self._audit_limit:
                self.dropped += 1
            self._audit.append(context)
        if self.telemetry is None:
            return
        families = self._families
        if families is None:
            registry = self.telemetry.registry
            families = self._families = (
                registry.counter(
                    "authz_decisions_total",
                    help="Authorization decisions by final outcome",
                    labelnames=("action", "decision"),
                ),
                registry.counter(
                    "authz_cache_total",
                    help="Decision-cache lookups by status",
                    labelnames=("status",),
                ),
                registry.histogram(
                    "authz_latency_seconds",
                    help="End-to-end decision latency (simulated)",
                    labelnames=("action", "decision"),
                ),
                {},
                {},
            )
        decisions, cache, latency, by_outcome, by_status = families
        key = (context.action, outcome)
        series = by_outcome.get(key)
        if series is None:
            series = by_outcome[key] = (
                decisions.labels(action=context.action, decision=outcome),
                latency.labels(action=context.action, decision=outcome),
            )
        series[0].inc()
        status_counter = by_status.get(context.cache_status)
        if status_counter is None:
            status_counter = by_status[context.cache_status] = cache.labels(
                status=context.cache_status
            )
        status_counter.inc()
        if context.degraded:
            self.telemetry.registry.count(
                "authz_degraded_total",
                help="Decisions served in a degraded mode",
                mode=context.degraded,
            )
        series[1].observe(clock.now - started_sim if clock is not None else 0.0)

    @property
    def audit_log(self) -> Tuple[DecisionContext, ...]:
        """The most recent finished decisions, oldest first."""
        return tuple(self._audit)

    def __str__(self) -> str:
        return (
            f"PEP[{self.placement.value}] permits={self.permits} "
            f"denials={self.denials} failures={self.failures}"
        )
