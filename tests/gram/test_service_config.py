"""GramService assembly and configuration validation."""

import pytest

from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.combination import CombinationAlgorithm
from repro.core.parser import parse_policy
from repro.core.resilience import DegradationMode, ResilienceConfig
from repro.gram.client import GramClient
from repro.gram.dispatch import ShardedGramService
from repro.gram.jobmanager import AuthorizationMode
from repro.gram.service import GramService, ServiceConfig
from repro.obs.health import default_slo_specs
from repro.testing import LatencyFault, inject

ALICE = "/O=Grid/OU=cfg/CN=Alice"
POLICY = f"{ALICE}: &(action=start)(executable=sim)"
RSL = "&(executable=sim)(count=1)(runtime=10)"


class TestEnforcementKinds:
    @pytest.mark.parametrize("kind", ["static", "dynamic", "sandbox"])
    def test_known_kinds_build(self, kind):
        service = GramService(ServiceConfig(enforcement=kind))
        assert service.enforcement is not None
        assert service.enforcement.name.replace("-account", "") in (
            kind,
            kind + "-account",
            "static",
            "dynamic",
            "sandbox",
        )

    def test_none_disables_enforcement(self):
        service = GramService(ServiceConfig(enforcement=None))
        assert service.enforcement is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GramService(ServiceConfig(enforcement="blockchain"))


class TestConfigValidation:
    """Bad values fail when the config is built, so the flat and the
    sharded service reject them alike."""

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(enforcement="blockchain"), "enforcement"),
            (dict(health_slo=True, telemetry=False), "telemetry"),
            (dict(health_slo=True, telemetry=False, shards=4), "telemetry"),
        ],
    )
    def test_rejected_at_construction(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            ServiceConfig(**overrides)


class TestCalloutWiring:
    def test_legacy_mode_installs_initiator_rule(self):
        service = GramService(ServiceConfig(mode=AuthorizationMode.LEGACY))
        labels = service.registry.callout_labels(GRAM_AUTHZ_CALLOUT)
        assert labels == ("initiator_only",)

    def test_extended_without_policies_falls_back_to_initiator_rule(self):
        service = GramService(ServiceConfig())
        labels = service.registry.callout_labels(GRAM_AUTHZ_CALLOUT)
        assert labels == ("initiator_only",)

    def test_extended_with_policies_installs_combined_callout(self):
        policy = parse_policy(f"{ALICE}: &(action=start)", name="vo")
        service = GramService(ServiceConfig(policies=(policy,)))
        labels = service.registry.callout_labels(GRAM_AUTHZ_CALLOUT)
        assert len(labels) == 1
        assert labels[0].startswith("combined:")

    def test_gatekeeper_pep_only_when_requested(self):
        assert GramService(ServiceConfig()).gatekeeper_pep is None
        assert (
            GramService(ServiceConfig(pep_in_gatekeeper=True)).gatekeeper_pep
            is not None
        )


class TestAddUser:
    def test_add_user_wires_everything(self):
        service = GramService(ServiceConfig())
        credential = service.add_user(ALICE, "alice")
        assert service.gridmap.authorizes(ALICE)
        assert service.accounts.exists("alice")
        assert str(credential.identity) == ALICE

    def test_add_user_twice_shares_account(self):
        service = GramService(ServiceConfig())
        service.add_user(ALICE, "shared")
        service.add_user("/O=Grid/OU=cfg/CN=Bob", "shared")
        assert len(service.accounts) == 1
        assert service.gridmap.map_to_account("/O=Grid/OU=cfg/CN=Bob") == "shared"


class TestClusterShape:
    def test_cluster_dimensions_respect_config(self):
        service = GramService(ServiceConfig(node_count=3, cpus_per_node=7))
        assert service.cluster.total_cpus == 21
        assert len(service.cluster.nodes) == 3

    def test_cluster_named_after_host(self):
        service = GramService(ServiceConfig(host="mysite.example.org"))
        assert service.cluster.name == "mysite"


class TestHardenIdempotency:
    def test_second_harden_raises_instead_of_stacking(self):
        service = GramService(ServiceConfig())
        first = service.harden()
        assert service.resilience is first
        with pytest.raises(RuntimeError):
            service.harden()
        # The original configuration is untouched by the rejected call.
        assert service.resilience is first

    def test_construction_time_hardening_counts_as_applied(self):
        service = GramService(ServiceConfig(resilience=True))
        assert service.resilience is not None
        with pytest.raises(RuntimeError):
            service.harden()


class TestLifecycleConfigWiring:
    def test_defaults_reap_with_bounded_retention(self):
        gatekeeper = GramService(ServiceConfig()).gatekeeper
        assert gatekeeper.completed.retention == 1024
        assert gatekeeper.lifecycle.max_jobs_per_user is None
        assert gatekeeper.lifecycle.max_active_jmis is None

    def test_caps_and_retention_flow_to_the_gatekeeper(self):
        service = GramService(
            ServiceConfig(
                completed_retention=7,
                max_jobs_per_user=3,
                max_active_jmis=11,
            )
        )
        lifecycle = service.gatekeeper.lifecycle
        assert service.gatekeeper.completed.retention == 7
        assert lifecycle.max_jobs_per_user == 3
        assert lifecycle.max_active_jmis == 11


def stacks_of(service):
    """The plain service stacks behind a flat or a sharded service."""
    return service.shards if isinstance(service, ShardedGramService) else [service]


class TestHardenWithAConfig:
    @pytest.mark.parametrize(
        "service_class", [GramService, ShardedGramService], ids=["flat", "sharded"]
    )
    def test_timeouts_and_breaker_reset_run_on_the_service_clock(
        self, service_class
    ):
        service = service_class(
            ServiceConfig(policies=(parse_policy(POLICY, name="vo"),))
        )
        client = GramClient(service.add_user(ALICE, "alice"), service.gatekeeper)
        (stack,) = stacks_of(service)
        fault = LatencyFault(stack.clock, latency=5.0)
        inject(stack.registry, GRAM_AUTHZ_CALLOUT, fault)
        service.harden(ResilienceConfig(timeout=1.0, failure_threshold=2))

        kinds = [client.submit(RSL).failure_kind for _ in range(3)]
        assert kinds == ["timeout", "timeout", "breaker-open"]
        assert stack.resilience.metrics.timeouts == 2
        fault.enabled = False
        service.run(30.0)  # the default reset timeout
        assert client.submit(RSL).ok


class TestRemovedKnobDefaults:
    """Values that used to be ServiceConfig fields are the callees'
    defaults, on the flat service and on every shard alike."""

    @pytest.mark.parametrize(
        "service_class, shards",
        [(GramService, 1), (ShardedGramService, 4)],
        ids=["flat", "4-shard"],
    )
    def test_stock_values(self, service_class, shards):
        service = service_class(
            ServiceConfig(
                policies=(
                    parse_policy(POLICY, name="vo"),
                    parse_policy(POLICY, name="local"),
                ),
                enforcement="sandbox",
                capability_grants=True,
                health_slo=True,
                shards=shards,
            )
        )
        for stack in stacks_of(service):
            assert stack.combined_evaluator.algorithm is (
                CombinationAlgorithm.ALL_MUST_PERMIT
            )
            assert stack.enforcement.interval == 1.0
            assert stack.capability.issuer.ttl == 300.0
        monitor = service.health
        assert monitor.retain == 120
        assert monitor.engine.specs == list(default_slo_specs())
        assert monitor.recorder.limit == 256
        service.harden()
        for stack in stacks_of(service):
            resilience = stack.resilience
            assert resilience.timeout is None
            assert resilience.retry is None
            assert resilience.failure_threshold == 5
            assert resilience.reset_timeout == 30.0
            assert resilience.mode is DegradationMode.FAIL_CLOSED


class TestHardenTemplate:
    def test_one_template_hardens_two_services_independently(self):
        template = ResilienceConfig(timeout=1.0, failure_threshold=2)
        first = GramService(ServiceConfig())
        second = GramService(ServiceConfig())
        a = first.harden(template)
        b = second.harden(template)
        assert a is not template and b is not template
        assert template.clock is None
        assert template.breakers == {}
        assert a.clock is first.clock and b.clock is second.clock
        assert a.registry is first.telemetry.registry
        assert b.registry is second.telemetry.registry
        assert a.metrics is not b.metrics
        assert a.breakers and b.breakers
        assert not set(map(id, a.breakers.values())) & set(
            map(id, b.breakers.values())
        )
        assert (a.timeout, a.failure_threshold) == (1.0, 2)
