"""The explainable decision pipeline.

Historically the authorization path kept its bookkeeping in four
parallel places: counters on :class:`~repro.core.pep.EnforcementPoint`
(``permits``/``denials``/``failures``), the invocation counter on
:class:`~repro.core.callout.CalloutRegistry`, the component hand-off
log in :class:`~repro.gram.protocol.TraceRecorder`, and the
``_trace`` calls sprinkled through the Job Manager.  No single object
could explain one decision end to end.

This module collapses those into one layer:

* :class:`DecisionContext` — one object per authorization decision,
  threaded (via an explicit argument *and* a context variable, so
  deep layers like :class:`~repro.core.combination.CombinedEvaluator`
  need no signature changes) through Gatekeeper → Job Manager → PEP →
  callout chain → policy sources.  It records per-stage timings,
  policy-source provenance (which sources contributed, at which
  epoch, with what effect), the final effect and the cache status.
* :class:`DecisionMiddleware` — the protocol the PEP's middleware
  stack is built from: ``middleware(request, context, call_next)``.
* :class:`DecisionCache` — a policy-epoch keyed decision cache:
  every policy source exposes a ``policy_epoch`` token bumped on
  mutation, so cached PERMIT/DENY decisions are invalidated exactly
  when local or VO policy changes.  This makes the paper's
  job-monitoring poll loop (repeated identical ``information``
  checks) measurably faster.

The PEP itself (:meth:`~repro.core.pep.EnforcementPoint.authorize`)
counts each finished context and keeps a bounded ring of them — the
one per-decision record the audit export, the reports and the GRAM
response all read.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from collections import OrderedDict
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.decision import Decision, Effect
from repro.core.errors import AuthorizationSystemFailure
from repro.core.request import AuthorizationRequest
from repro.obs import spans as obs_spans

_decision_counter = itertools.count(1)

#: Cache-status vocabulary carried by :attr:`DecisionContext.cache_status`.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_BYPASS = "bypass"  # no decision cache in the stack


@dataclass(frozen=True)
class StageRecord:
    """One timed stage of a decision (pep, callout, policy source...)."""

    name: str
    duration: float
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "duration": self.duration}
        if self.detail:
            data["detail"] = self.detail
        return data


@dataclass(frozen=True)
class SourceRecord:
    """Provenance of one contributing policy source."""

    name: str
    effect: str
    #: The source's policy epoch at evaluation time (see
    #: :class:`DecisionCache`); ``None`` for sources without one.  A
    #: record read back from JSON holds the epoch's exported text.
    epoch: Any = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "effect": self.effect}
        if self.epoch is not None:
            # Live epochs export as their repr; text read back from an
            # export is already that repr and passes through unchanged.
            epoch = self.epoch
            data["epoch"] = epoch if isinstance(epoch, str) else repr(epoch)
        if self.detail:
            data["detail"] = self.detail
        return data


@dataclass
class DecisionContext:
    """Everything needed to explain one authorization decision."""

    request_id: str
    requester: str
    action: str
    #: Correlation ID of the enclosing request trace (see
    #: :mod:`repro.obs.spans`) — the join key between audit entries,
    #: trace exports and GRAM responses.  Empty when no tracer was
    #: active for the decision.
    correlation_id: str = ""
    jobtag: str = ""
    jobowner: str = ""
    job_id: str = ""
    placement: str = ""
    stages: List[StageRecord] = field(default_factory=list)
    sources: List[SourceRecord] = field(default_factory=list)
    effect: Optional[Effect] = None
    #: The final decision's policy reasons (why it was denied, or the
    #: grant that permitted it).
    reasons: Tuple[str, ...] = ()
    failure: str = ""
    #: For system failures: which callout/policy source broke, and how
    #: (``"timeout"``, ``"breaker-open"``, plain ``"error"``) — the
    #: same attribution the GRAM response carries.
    failure_source: str = ""
    failure_kind: str = ""
    cache_status: str = CACHE_BYPASS
    #: Wall-clock seconds of the PEP stage, which encloses every
    #: callout and policy-source stage.
    duration: float = 0.0
    #: Set by the resilience layer when this decision was served in a
    #: degraded mode (e.g. ``"fail-static"``): the decision is real
    #: but came from the last-known-good store, not a live source.
    degraded: str = ""
    #: The :class:`~repro.core.capability.CapabilityToken` that served
    #: (fast-path hit) or was minted by (fresh PERMIT) this decision;
    #: ``None`` when capability grants are not configured.  A context
    #: read back from JSON holds only the token id.
    capability: Any = None

    @classmethod
    def from_request(
        cls, request: AuthorizationRequest, placement: str = ""
    ) -> "DecisionContext":
        return cls(
            request_id=f"dec-{next(_decision_counter):d}",
            requester=str(request.requester),
            action=str(request.action),
            jobtag=request.jobtag or "",
            jobowner=str(request.owner),
            job_id=request.job_id,
            placement=placement,
        )

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def stage(self, name: str, detail: str = "") -> Iterator[None]:
        """Time a stage: ``with context.stage("callout:vo"): ...``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record_stage(
                name, time.perf_counter() - started, detail=detail
            )

    def record_stage(self, name: str, duration: float, detail: str = "") -> None:
        self.stages.append(
            StageRecord(name=name, duration=duration, detail=detail)
        )

    def add_source(
        self, name: str, effect: Effect, epoch: Any = None, detail: str = ""
    ) -> None:
        self.sources.append(
            SourceRecord(
                name=name, effect=effect.value, epoch=epoch, detail=detail
            )
        )

    def finish(self, decision: Decision) -> None:
        """Mark the decision complete; derive provenance if none recorded."""
        self.effect = decision.effect
        self.reasons = decision.reasons
        if not self.sources and decision.source:
            self.add_source(decision.source, decision.effect)
        self._close()

    def finish_failure(self, failure: AuthorizationSystemFailure) -> None:
        self.effect = Effect.INDETERMINATE
        self.failure = str(failure)
        self.failure_source = failure.source or ""
        self.failure_kind = failure.kind
        self._close()

    def _close(self) -> None:
        # The PEP's stage closes last and encloses every other stage,
        # so it alone is the decision's duration; summing would count
        # nested callout and source time two and three times over.
        self.duration = self.stages[-1].duration if self.stages else 0.0

    # -- views ---------------------------------------------------------------

    @property
    def outcome(self) -> str:
        """How the PEP counted this decision: permit, deny or failure."""
        if self.failure_kind:
            return "failure"
        return "permit" if self.effect is Effect.PERMIT else "deny"

    @property
    def source_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.sources)

    @property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def to_dict(self) -> Dict[str, Any]:
        capability = self.capability
        if capability is not None and not isinstance(capability, str):
            capability = capability.token_id
        data = {
            "request_id": self.request_id,
            "correlation_id": self.correlation_id,
            "requester": self.requester,
            "action": self.action,
            "jobtag": self.jobtag,
            "jobowner": self.jobowner,
            "job_id": self.job_id,
            "placement": self.placement,
            "effect": self.effect.value if self.effect is not None else None,
            "failure": self.failure,
            "cache": self.cache_status,
            "degraded": self.degraded,
            "capability": capability or "",
            "duration": self.duration,
            "stages": [s.to_dict() for s in self.stages],
            "sources": [s.to_dict() for s in self.sources],
        }
        if self.reasons:
            data["reasons"] = list(self.reasons)
        if self.failure_source:
            data["failure_source"] = self.failure_source
        if self.failure_kind:
            data["failure_kind"] = self.failure_kind
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DecisionContext":
        context = cls(
            request_id=data.get("request_id", ""),
            correlation_id=data.get("correlation_id", ""),
            requester=data.get("requester", ""),
            action=data.get("action", ""),
            jobtag=data.get("jobtag", ""),
            jobowner=data.get("jobowner", ""),
            job_id=data.get("job_id", ""),
            placement=data.get("placement", ""),
            reasons=tuple(data.get("reasons", ())),
            failure=data.get("failure", ""),
            failure_source=data.get("failure_source", ""),
            failure_kind=data.get("failure_kind", ""),
            cache_status=data.get("cache", CACHE_BYPASS),
            degraded=data.get("degraded", ""),
            duration=float(data.get("duration", 0.0)),
            capability=data.get("capability") or None,
        )
        if data.get("effect"):
            context.effect = Effect(data["effect"])
        for stage in data.get("stages", ()):
            context.record_stage(
                stage["name"],
                float(stage.get("duration", 0.0)),
                detail=stage.get("detail", ""),
            )
        for source in data.get("sources", ()):
            context.sources.append(
                SourceRecord(
                    name=source["name"],
                    effect=source.get("effect", ""),
                    epoch=source.get("epoch"),
                    detail=source.get("detail", ""),
                )
            )
        return context

    def explain(self) -> str:
        """A human-readable end-to-end account of the decision."""
        outcome = self.effect.value if self.effect is not None else "unfinished"
        lines = [
            f"{self.request_id}: {self.requester} requested {self.action}"
            + (f" on job {self.job_id}" if self.job_id else "")
            + f" -> {outcome}"
            + (f" [{self.failure}]" if self.failure else "")
            + (f" [degraded: {self.degraded}]" if self.degraded else "")
            + f" (cache={self.cache_status}, {self.duration * 1e6:.1f}us)"
        ]
        for source in self.sources:
            epoch = f" @epoch={source.epoch!r}" if source.epoch is not None else ""
            lines.append(f"  source {source.name}: {source.effect}{epoch}")
        for stage in self.stages:
            lines.append(f"  stage {stage.name}: {stage.duration * 1e6:.1f}us")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.explain()


# -- context threading ---------------------------------------------------

_current_context: ContextVar[Optional[DecisionContext]] = ContextVar(
    "repro_decision_context", default=None
)


def current_context() -> Optional[DecisionContext]:
    """The DecisionContext of the in-flight decision, if any.

    Deep layers (policy evaluators, combination) call this instead of
    growing a ``context`` parameter on every callout signature.
    """
    return _current_context.get()


class activate:
    """Make *context* the current decision for the dynamic extent.

    A hand-rolled context manager (not ``@contextmanager``): this
    wraps every single decision, and the generator-based protocol
    costs several times the two contextvar operations it exists to
    pair up.
    """

    __slots__ = ("context", "_token")

    def __init__(self, context: DecisionContext) -> None:
        self.context = context

    def __enter__(self) -> DecisionContext:
        self._token = _current_context.set(self.context)
        return self.context

    def __exit__(self, *exc_info: Any) -> None:
        _current_context.reset(self._token)


# -- middleware -------------------------------------------------------------

#: ``call_next(request, context) -> Decision`` — the rest of the stack.
NextHandler = Callable[[AuthorizationRequest, DecisionContext], Decision]

#: A decision middleware: ``middleware(request, context, call_next)``.
#: It may short-circuit (return without calling *call_next*), observe,
#: or transform the decision.  System failures propagate as
#: :class:`AuthorizationSystemFailure` and must be re-raised.
DecisionMiddleware = Callable[
    [AuthorizationRequest, DecisionContext, NextHandler], Decision
]


def compose(
    middlewares: Sequence[DecisionMiddleware], terminal: NextHandler
) -> NextHandler:
    """Build the onion: first middleware outermost, *terminal* innermost."""
    handler = terminal
    for middleware in reversed(list(middlewares)):
        handler = _wrap(middleware, handler)
    return handler


def _wrap(middleware: DecisionMiddleware, nxt: NextHandler) -> NextHandler:
    def run(request: AuthorizationRequest, context: DecisionContext) -> Decision:
        return middleware(request, context, nxt)

    return run


# -- the policy-epoch decision cache ----------------------------------------


def request_key(request: AuthorizationRequest) -> Any:
    """The identity of an authorization question, minus policy state.

    Shared by the :class:`DecisionCache` (which appends the policy
    epochs) and the resilience layer's last-known-good store (which
    stores the epochs alongside and compares them at serve time).  The
    job description is included so two start requests sharing a jobtag
    but asking for different things never collide.

    The key is memoized on the (frozen) request: repeat traffic hits
    the decision cache, the last-known-good store and the capability
    store with the same tuple object, so the component strings keep
    their cached hashes instead of being re-rendered per lookup.
    """
    cached = request.__dict__.get("_request_key")
    if cached is None:
        cached = (
            str(request.requester),
            request.action.value,
            request.jobtag,
            str(request.owner),
            request.job_description,
        )
        object.__setattr__(request, "_request_key", cached)
    return cached


def epoch_of(source: Any) -> Any:
    """The policy epoch of *source*: its ``policy_epoch`` attribute.

    Any hashable token works; sources bump it on every policy
    mutation.  Zero-argument callables are invoked (so a lambda over a
    clock or store can serve as an epoch source).
    """
    epoch = getattr(source, "policy_epoch", None)
    if epoch is None and callable(source):
        epoch = source()
    return epoch


class DecisionCache:
    """Middleware caching PERMIT/DENY decisions across identical requests.

    The key is ``(subject DN, action, jobtag, jobowner, job
    description, policy epochs)`` — the job description is included so
    two start requests that share a jobtag but differ in what they ask
    for never collide.  ``epoch_sources`` are the policy sources whose
    ``policy_epoch`` tokens enter the key: mutate any source (install
    a new policy version, enroll a VO member, open a time window) and
    every previously cached decision is invalidated, because no future
    key can match it.

    System failures are never cached — a broken authorization system
    must stay visibly broken, not replay a stale decision.
    """

    name = "decision-cache"

    def __init__(
        self,
        epoch_sources: Sequence[Any] = (),
        maxsize: int = 4096,
    ) -> None:
        self.epoch_sources = list(epoch_sources)
        self.maxsize = maxsize
        self._entries: "OrderedDict[Any, Tuple[Decision, Tuple[SourceRecord, ...]]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _epochs(self) -> Tuple[Any, ...]:
        return tuple(epoch_of(source) for source in self.epoch_sources)

    def _key(self, request: AuthorizationRequest) -> Any:
        return request_key(request) + (self._epochs(),)

    def __call__(
        self,
        request: AuthorizationRequest,
        context: DecisionContext,
        call_next: NextHandler,
    ) -> Decision:
        key = self._key(request)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            context.cache_status = CACHE_HIT
            decision, sources = cached
            context.sources.extend(sources)
            context.record_stage("cache", 0.0, detail="hit")
            obs_spans.event("cache", "hit")
            return decision
        self.misses += 1
        context.cache_status = CACHE_MISS
        decision = call_next(request, context)
        if decision.effect in (Effect.PERMIT, Effect.DENY):
            self._entries[key] = (decision, tuple(context.sources))
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return decision

    def invalidate(self) -> None:
        """Drop every cached decision (epoch bumps do this implicitly)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __str__(self) -> str:
        return (
            f"decision-cache[{len(self._entries)}/{self.maxsize} "
            f"hits={self.hits} misses={self.misses}]"
        )


class EpochCounter:
    """A minimal mutation counter usable as a ``policy_epoch`` source.

    Policy-holding classes embed one and call :meth:`bump` from every
    mutator; the decision cache reads :attr:`policy_epoch`.
    """

    def __init__(self) -> None:
        self._epoch = 0

    def bump(self) -> int:
        self._epoch += 1
        return self._epoch

    @property
    def policy_epoch(self) -> int:
        return self._epoch

    def __int__(self) -> int:
        return self._epoch
