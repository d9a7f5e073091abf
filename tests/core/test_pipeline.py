"""The explainable decision pipeline: context, middleware, epoch cache."""

import json

import pytest

from repro.core.builtin_callouts import (
    broken_callout,
    combined_policy_callout,
    deny_all,
    permit_all,
)
from repro.core.callout import GRAM_AUTHZ_CALLOUT, CalloutRegistry
from repro.core.capability import (
    CAPABILITY_HIT,
    CapabilityIssuer,
    CapabilityMiddleware,
    default_capability_key,
)
from repro.core.decision import Effect
from repro.core.dynamic import PolicyStore
from repro.core.errors import AuthorizationDenied, AuthorizationSystemFailure
from repro.core.parser import parse_policy
from repro.core.pep import EnforcementPoint
from repro.core.pipeline import (
    CACHE_HIT,
    CACHE_MISS,
    DecisionCache,
    DecisionContext,
    current_context,
)
from repro.core.request import AuthorizationRequest
from repro.core.resilience import DegradationMode, ResilienceConfig
from repro.gram.audit import export_audit_log, load_audit_log
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock

ALICE = "/O=Grid/OU=org/CN=Alice"
BOB = "/O=Grid/OU=org/CN=Bob"

GRANT_ALICE = f"""
{ALICE}:
    &(action=start)(count<=4)
    &(action=information)
"""

DENY_EVERYONE = f"""
{ALICE}:
    &(action=signal)
"""


def make_pep(callout, **kwargs):
    registry = CalloutRegistry()
    registry.register(GRAM_AUTHZ_CALLOUT, callout)
    return EnforcementPoint(registry=registry, **kwargs)


def start_request(requester=ALICE, rsl="&(executable=x)(count=2)"):
    return AuthorizationRequest.start(requester, parse_specification(rsl))


class TestDecisionContext:
    def test_permit_carries_context_with_stages(self):
        pep = make_pep(permit_all)
        decision = pep.authorize(start_request())
        context = decision.context
        assert context is not None
        assert context.effect is Effect.PERMIT
        assert "pep" in context.stage_names
        assert any(name.startswith("callout:") for name in context.stage_names)
        assert all(stage.duration >= 0.0 for stage in context.stages)
        assert context.duration >= 0.0

    def test_denial_exception_carries_context(self):
        pep = make_pep(deny_all)
        with pytest.raises(AuthorizationDenied) as excinfo:
            pep.authorize(start_request())
        context = excinfo.value.context
        assert context is not None
        assert context.effect is Effect.DENY

    def test_system_failure_carries_context(self):
        pep = make_pep(broken_callout)
        with pytest.raises(AuthorizationSystemFailure) as excinfo:
            pep.authorize(start_request())
        context = excinfo.value.context
        assert context is not None
        assert context.effect is Effect.INDETERMINATE
        assert context.failure

    def test_context_identifies_the_request(self):
        pep = make_pep(permit_all)
        request = start_request(rsl="&(executable=x)(jobtag=exp7)(count=2)")
        context = pep.authorize(request).context
        assert context.requester == ALICE
        assert context.action == "start"
        assert context.jobtag == "exp7"
        assert context.jobowner == ALICE

    def test_provenance_derived_from_decision_source(self):
        pep = make_pep(permit_all)
        context = pep.authorize(start_request()).context
        assert context.source_names == ("permit_all",)

    def test_combined_policies_record_every_source(self):
        callout = combined_policy_callout(
            [
                parse_policy(GRANT_ALICE, name="vo"),
                parse_policy(GRANT_ALICE, name="local"),
            ]
        )
        pep = make_pep(callout)
        context = pep.authorize(start_request()).context
        assert context.source_names == ("vo", "local")
        assert {s.effect for s in context.sources} == {"permit"}
        assert "source:vo" in context.stage_names
        assert "source:local" in context.stage_names

    def test_duration_is_the_enclosing_pep_stage(self):
        """Callout and source stages nest inside the PEP stage."""
        callout = combined_policy_callout(
            [
                parse_policy(GRANT_ALICE, name="vo"),
                parse_policy(GRANT_ALICE, name="local"),
            ]
        )
        pep = make_pep(callout)
        permitted = pep.authorize(start_request()).context
        with pytest.raises(AuthorizationDenied) as denied:
            pep.authorize(start_request(BOB))
        pep.registry.register(GRAM_AUTHZ_CALLOUT, broken_callout)
        with pytest.raises(AuthorizationSystemFailure) as failed:
            pep.authorize(start_request())
        for context in (permitted, denied.value.context, failed.value.context):
            (pep_stage,) = [s for s in context.stages if s.name == "pep"]
            assert len(context.stages) > 1
            assert context.duration == pep_stage.duration
            assert all(
                context.duration >= stage.duration for stage in context.stages
            )

    def test_json_round_trip(self):
        pep = make_pep(permit_all)
        context = pep.authorize(start_request()).context
        again = DecisionContext.from_dict(context.to_dict())
        assert again.request_id == context.request_id
        assert again.effect is Effect.PERMIT
        assert again.stage_names == context.stage_names
        assert again.source_names == context.source_names

    def test_explain_is_readable(self):
        pep = make_pep(permit_all)
        context = pep.authorize(start_request()).context
        text = context.explain()
        assert ALICE in text
        assert "permit" in text

    def test_no_context_outside_a_decision(self):
        assert current_context() is None
        pep = make_pep(permit_all)
        pep.authorize(start_request())
        assert current_context() is None


class TestMetricsMiddleware:
    """The PEP's outcome counters."""

    def test_counts_back_the_pep_counters(self):
        pep = make_pep(permit_all)
        pep.authorize(start_request())
        pep.authorize(start_request())
        assert pep.permits == pep.decisions_made == 2
        assert [c.outcome for c in pep.audit_log] == ["permit", "permit"]

    def test_outcome_classification(self):
        registry = CalloutRegistry()
        pep = EnforcementPoint(registry=registry)
        for callout, exc in (
            (permit_all, None),
            (deny_all, AuthorizationDenied),
            (broken_callout, AuthorizationSystemFailure),
        ):
            registry.register(GRAM_AUTHZ_CALLOUT, callout)
            if exc is None:
                pep.authorize(start_request())
            else:
                with pytest.raises(exc):
                    pep.authorize(start_request())
            registry.clear(GRAM_AUTHZ_CALLOUT)
        assert (pep.permits, pep.denials, pep.failures) == (1, 1, 1)
        assert pep.decisions_made == 3
        assert [c.outcome for c in pep.audit_log] == [
            "permit",
            "deny",
            "failure",
        ]


class TestTracingMiddleware:
    """The PEP's ring of finished decision contexts."""

    def test_traces_every_decision(self):
        pep = make_pep(permit_all)
        pep.authorize(start_request())
        with pytest.raises(AuthorizationDenied):
            pep.registry.register(GRAM_AUTHZ_CALLOUT, deny_all)
            pep.authorize(start_request(BOB))
        assert len(pep.audit_log) == 2
        assert pep.audit_log[0].effect is Effect.PERMIT
        assert pep.audit_log[1].effect is Effect.DENY

    def test_jsonl_export(self, tmp_path):
        pep = make_pep(permit_all)
        context = pep.authorize(start_request()).context
        path = tmp_path / "decisions.jsonl"
        assert export_audit_log(pep, str(path)) == 1
        line = path.read_text().strip()
        assert '"effect": "permit"' in line
        assert line == context.to_json()

    def test_bounded_retention(self):
        pep = make_pep(permit_all, audit_limit=3)
        for _ in range(10):
            pep.authorize(start_request())
        assert len(pep.audit_log) == 3
        assert pep.dropped == 7
        assert pep.permits == 10


class TestDecisionCache:
    def test_repeat_decision_hits(self):
        cache = DecisionCache()
        pep = make_pep(permit_all, cache=cache)
        first = pep.authorize(start_request())
        second = pep.authorize(start_request())
        assert first.context.cache_status == CACHE_MISS
        assert second.context.cache_status == CACHE_HIT
        assert (cache.hits, cache.misses) == (1, 1)

    def test_hit_replays_provenance(self):
        callout = combined_policy_callout([parse_policy(GRANT_ALICE, name="vo")])
        cache = DecisionCache(epoch_sources=[callout.evaluator])
        pep = make_pep(callout, cache=cache)
        pep.authorize(start_request())
        hit = pep.authorize(start_request())
        assert hit.context.cache_status == CACHE_HIT
        assert hit.context.source_names == ("vo",)

    def test_denials_are_cached_too(self):
        cache = DecisionCache()
        pep = make_pep(deny_all, cache=cache)
        for _ in range(2):
            with pytest.raises(AuthorizationDenied):
                pep.authorize(start_request())
        assert cache.hits == 1

    def test_system_failures_never_cached(self):
        cache = DecisionCache()
        pep = make_pep(broken_callout, cache=cache)
        for _ in range(2):
            with pytest.raises(AuthorizationSystemFailure):
                pep.authorize(start_request())
        assert cache.hits == 0
        assert len(cache) == 0

    def test_key_distinguishes_requesters(self):
        cache = DecisionCache()
        pep = make_pep(permit_all, cache=cache)
        pep.authorize(start_request(ALICE))
        pep.authorize(start_request(BOB))
        assert cache.hits == 0

    def test_key_distinguishes_job_descriptions(self):
        """Same subject/action/jobtag, different request — no collision."""
        cache = DecisionCache()
        pep = make_pep(permit_all, cache=cache)
        pep.authorize(start_request(rsl="&(executable=x)(jobtag=t)(count=2)"))
        pep.authorize(start_request(rsl="&(executable=y)(jobtag=t)(count=8)"))
        assert cache.hits == 0

    def test_lru_bound(self):
        cache = DecisionCache(maxsize=2)
        pep = make_pep(permit_all, cache=cache)
        for count in (1, 2, 3):
            pep.authorize(start_request(rsl=f"&(executable=x)(count={count})"))
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_metrics_count_cache_hits(self):
        cache = DecisionCache()
        pep = make_pep(permit_all, cache=cache)
        pep.authorize(start_request())
        pep.authorize(start_request())
        assert cache.hits == 1
        assert [c.cache_status for c in pep.audit_log] == [CACHE_MISS, CACHE_HIT]
        assert pep.permits == 2  # hits still count as decisions


class TestPolicyEpochInvalidation:
    """The acceptance-criterion behaviour: a policy mutation bumps the
    epoch and invalidates the cached decision on the very next check."""

    def test_store_mutation_invalidates_cached_decision(self):
        store = PolicyStore(parse_policy(GRANT_ALICE, name="vo"))
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, store.callout())
        cache = DecisionCache(epoch_sources=[store])
        pep = EnforcementPoint(registry=registry, cache=cache)
        request = start_request()

        epoch_before = store.policy_epoch
        assert pep.authorize(request).context.cache_status == CACHE_MISS
        assert pep.authorize(request).context.cache_status == CACHE_HIT

        store.install_text(DENY_EVERYONE, comment="revoke start")
        assert store.policy_epoch == epoch_before + 1

        with pytest.raises(AuthorizationDenied) as excinfo:
            pep.authorize(request)
        assert excinfo.value.context.cache_status == CACHE_MISS
        assert cache.hits == 1

    def test_rollback_also_bumps_the_epoch(self):
        store = PolicyStore(parse_policy(GRANT_ALICE, name="vo"))
        store.install_text(DENY_EVERYONE)
        before = store.policy_epoch
        store.rollback(to_version=1)
        assert store.policy_epoch == before + 1

    def test_combined_evaluator_epoch_covers_all_sources(self):
        callout = combined_policy_callout(
            [
                parse_policy(GRANT_ALICE, name="vo"),
                parse_policy(GRANT_ALICE, name="local"),
            ]
        )
        combined = callout.evaluator
        before = combined.policy_epoch
        combined.evaluators[1].replace_policy(parse_policy(DENY_EVERYONE))
        assert combined.policy_epoch != before

    def test_vo_membership_mutation_bumps_epoch(self):
        from repro.vo.organization import VirtualOrganization

        vo = VirtualOrganization("fusion")
        before = vo.policy_epoch
        vo.add_member(ALICE, groups=("analysts",))
        assert vo.policy_epoch == before + 1
        vo.remove_member(ALICE)
        assert vo.policy_epoch == before + 2


class TestMiddlewareStack:
    def test_custom_middleware_observes_decisions(self):
        seen = []

        def observer(request, context, call_next):
            decision = call_next(request, context)
            seen.append((context.requester, decision.effect))
            return decision

        pep = make_pep(permit_all, middlewares=(observer,))
        pep.authorize(start_request())
        assert seen == [(ALICE, Effect.PERMIT)]

    def test_stack_order(self):
        def observer(request, context, call_next):
            return call_next(request, context)

        pep = make_pep(
            permit_all, middlewares=(observer,), cache=DecisionCache()
        )
        names = [getattr(m, "name", "custom") for m in pep.middlewares]
        assert names == ["custom", "decision-cache"]

    def test_use_cache_enables_late(self):
        pep = make_pep(permit_all)
        pep.authorize(start_request())
        cache = pep.use_cache()
        pep.authorize(start_request())
        pep.authorize(start_request())
        assert cache.hits == 1
        assert len(pep.audit_log) == 3


class _Switch:
    """A callout that can be taken down to force a system failure."""

    def __init__(self, callout):
        self.callout = callout
        self.down = False

    def __call__(self, request):
        if self.down:
            raise ConnectionError("policy source unreachable")
        return self.callout(request)


def _epoch_pep():
    """A PEP over VO and local policies whose sources carry epochs."""
    callout = combined_policy_callout(
        [
            parse_policy(GRANT_ALICE, name="vo"),
            parse_policy(GRANT_ALICE, name="local"),
        ]
    )
    switch = _Switch(callout)
    return make_pep(switch), switch, callout.evaluator


def _permit_record():
    pep, _, _ = _epoch_pep()
    return pep.authorize(start_request()).context


def _deny_record():
    pep, _, _ = _epoch_pep()
    with pytest.raises(AuthorizationDenied) as excinfo:
        pep.authorize(start_request(BOB))
    return excinfo.value.context


def _failure_record():
    pep, switch, _ = _epoch_pep()
    switch.down = True
    with pytest.raises(AuthorizationSystemFailure) as excinfo:
        pep.authorize(start_request())
    return excinfo.value.context


def _cache_hit_record():
    pep, _, evaluator = _epoch_pep()
    pep.use_cache(DecisionCache(epoch_sources=[evaluator]))
    pep.authorize(start_request())
    context = pep.authorize(start_request()).context
    assert context.cache_status == CACHE_HIT
    return context


def _capability_record():
    pep, _, evaluator = _epoch_pep()
    issuer = CapabilityIssuer(
        key=default_capability_key("grid.example.org"),
        clock=Clock(),
        epoch_sources=[("policy", evaluator)],
    )
    pep.use_capability(CapabilityMiddleware(issuer))
    pep.authorize(start_request())
    context = pep.authorize(start_request()).context
    assert context.cache_status == CAPABILITY_HIT
    return context


def _fail_static_record():
    pep, switch, evaluator = _epoch_pep()
    config = ResilienceConfig(mode=DegradationMode.FAIL_STATIC)
    pep.use_resilience(config.middleware([evaluator]))
    pep.authorize(start_request())
    switch.down = True
    context = pep.authorize(start_request()).context
    assert context.degraded == "fail-static"
    return context


class TestWireRoundTrip:
    """The wire form (and audit-file format) survives any number of hops."""

    @pytest.mark.parametrize(
        "build",
        [
            _permit_record,
            _deny_record,
            _failure_record,
            _cache_hit_record,
            _capability_record,
            _fail_static_record,
        ],
        ids=[
            "permit",
            "deny",
            "system-failure",
            "cache-hit",
            "capability",
            "fail-static",
        ],
    )
    def test_from_dict_to_dict_is_stable(self, build):
        context = build()
        data = context.to_dict()
        again = DecisionContext.from_dict(json.loads(json.dumps(data)))
        assert again.to_dict() == data
        assert DecisionContext.from_dict(again.to_dict()).to_dict() == data

    def test_audit_file_reloads_the_same_records(self, tmp_path):
        pep, _, _ = _epoch_pep()
        pep.authorize(start_request())
        with pytest.raises(AuthorizationDenied):
            pep.authorize(start_request(BOB))
        path = tmp_path / "audit.jsonl"
        export_audit_log(pep, str(path))
        loaded = load_audit_log(str(path))
        assert [c.to_dict() for c in loaded] == [
            c.to_dict() for c in pep.audit_log
        ]
        assert loaded[1].reasons == pep.audit_log[1].reasons != ()
