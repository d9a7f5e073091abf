"""Health & SLO wiring in the service stacks (flat and sharded)."""

import pytest

from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.dispatch import ShardedGramService
from repro.gram.service import GramService, ServiceConfig
from repro.testing import ExceptionFault, inject

PREFIX = "/O=Grid/O=Globus/OU=health.example.org"

POLICY = f"""
{PREFIX}:
    &(action=start)(executable=sim)(count<4)
    &(action=cancel)(jobowner=self)
    &(action=information)(jobowner=self)
"""

RSL = "&(executable=sim)(count=1)(runtime=10)"


def build_service(**overrides):
    defaults = dict(
        policies=(parse_policy(POLICY, name="vo"),),
        health_slo=True,
        health_window=2.0,
    )
    defaults.update(overrides)
    return GramService(ServiceConfig(**defaults))


def client_for(service, name="alice"):
    identity = f"{PREFIX}/CN={name}"
    return GramClient(service.add_user(identity, name), service.gatekeeper)


class TestGramServiceHealth:
    def test_health_is_off_by_default(self):
        service = GramService(
            ServiceConfig(policies=(parse_policy(POLICY, name="vo"),))
        )
        assert service.health is None

    def test_health_requires_telemetry(self):
        with pytest.raises(ValueError, match="telemetry"):
            build_service(telemetry=False)

    def test_run_loop_drives_evaluations(self):
        service = build_service()
        client = client_for(service)
        assert client.submit(RSL).ok
        assert service.health.latest_report is None
        service.run(2.0)
        report = service.health.latest_report
        assert report is not None
        assert report.status_of("service") == "healthy"
        assert service.health.weight_of("service") == 1.0
        assert not service.health.dumps

    def test_requests_counter_feeds_the_admission_slo(self):
        service = build_service()
        client = client_for(service)
        assert client.submit(RSL).ok
        snapshot = service.telemetry.registry.snapshot()
        family = next(
            f for f in snapshot if f["name"] == "gram_requests_total"
        )
        (series,) = family["series"]
        assert series["labels"] == {"kind": "submit", "code": "SUCCESS"}
        assert series["value"] == 1.0
        response = client.manage(client.submit(RSL).contact, "information")
        assert response.ok
        snapshot = service.telemetry.registry.snapshot()
        family = next(
            f for f in snapshot if f["name"] == "gram_requests_total"
        )
        kinds = {tuple(sorted(s["labels"].items())) for s in family["series"]}
        assert (("code", "SUCCESS"), ("kind", "manage")) in kinds

    def test_sustained_failures_freeze_a_flight_dump(self):
        service = build_service()
        client = client_for(service)
        fault = ExceptionFault()
        assert inject(service.registry, GRAM_AUTHZ_CALLOUT, fault) >= 1
        for _ in range(3):
            assert not client.submit(RSL).ok
            service.run(2.0)
        assert service.health.status_of("service") == "critical"
        assert service.health.dumps
        dump = service.health.dumps[0]
        assert dump.alert["severity"] == "critical"
        assert dump.request_ids()
        assert any(
            entry["code"] == "AUTHORIZATION_SYSTEM_FAILURE"
            for entry in dump.decisions
        )


def build_sharded(shards=2, **overrides):
    defaults = dict(
        policies=(parse_policy(POLICY, name="vo"),),
        shards=shards,
        health_slo=True,
        health_window=2.0,
    )
    defaults.update(overrides)
    return ShardedGramService(ServiceConfig(**defaults))


class TestShardedHealth:
    def test_one_monitor_not_one_per_shard(self):
        service = build_sharded()
        assert service.health is not None
        # Shards never build their own monitor: the front door owns it.
        assert all(shard.health is None for shard in service.shards)
        assert set(service.health.scopes) == {"service", "shard0", "shard1"}

    def test_placement_report_scores_every_shard(self):
        service = build_sharded()
        # Users 000-003 hash to shard 0 and 004-007 to shard 1
        # (crc32 routing), so the load is balanced and no shard can be
        # flagged hot on skew alone.
        for index in range(8):
            identity = f"{PREFIX}/CN=User {index:03d}"
            credential = service.add_user(identity, f"u{index:03d}")
            assert GramClient(credential, service.gatekeeper).submit(RSL).ok
        service.run(2.0)
        report = service.placement_report()
        assert report["health"] == "healthy"
        assert report["hot_shards"] == []
        for row in report["shards"]:
            assert row["health_status"] == "healthy"
            assert row["health_score"] == 1.0

    def test_sick_shard_is_flagged_hot(self):
        service = build_sharded()
        fault = ExceptionFault()
        sick = service.shards[0]
        assert inject(sick.registry, GRAM_AUTHZ_CALLOUT, fault) >= 1
        # Users pinned (by DN hash) to the sick shard keep failing.
        clients = []
        for index in range(8):
            identity = f"{PREFIX}/CN=User {index:03d}"
            credential = service.add_user(identity, f"u{index:03d}")
            clients.append(GramClient(credential, service.gatekeeper))
        for _ in range(3):
            for client in clients:
                client.submit(RSL)
            service.run(2.0)
        report = service.placement_report()
        assert report["health"] == "critical"
        assert 0 in report["hot_shards"]
        row = report["shards"][0]
        assert row["health_status"] == "critical"
        # The service-wide scope sees the same decline in the merged
        # snapshot (half the traffic is failing).
        assert service.health.status_of("service") != "healthy"

    def test_placement_report_has_no_health_keys_when_disabled(self):
        service = build_sharded(health_slo=False)
        assert service.health is None
        report = service.placement_report()
        assert "health" not in report
        assert "hot_shards" not in report
        assert all("health_status" not in row for row in report["shards"])
