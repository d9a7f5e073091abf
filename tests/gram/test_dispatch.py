"""The sharded dispatch seam: routing and cross-shard concerns."""

import itertools
import random
import threading
import zlib

import pytest

from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.parser import parse_policy
from repro.core.pipeline import DecisionCache
from repro.core.resilience import ResilienceConfig
from repro.core.store import BundleRejected, PolicyBundle, VersionedPolicyStore
from repro.gram import protocol
from repro.gram.client import GramClient
from repro.gram.dispatch import (
    EpochBroadcast,
    ShardRouter,
    ShardedGramService,
)
from repro.gram.lifecycle import SharedGauge
from repro.gram.protocol import GramErrorCode
from repro.gram.service import GramService, ServiceConfig
from repro.testing.faults import ExceptionFault, inject

PREFIX = "/O=Grid/O=Globus/OU=shard.example.org"

POLICY = f"""
{PREFIX}:
    &(action=start)(executable=sim)(count<4)
    &(action=cancel)(jobowner=self)
    &(action=information)(jobtag=SHARD)
"""

RSL = "&(executable=sim)(count=1)(runtime=10)(jobtag=SHARD)"


def build_sharded(shards=4, **overrides):
    defaults = dict(
        host="grid.example.org",
        node_count=8,
        cpus_per_node=4,
        policies=(parse_policy(POLICY, name="vo"),),
        shards=shards,
    )
    defaults.update(overrides)
    return ShardedGramService(ServiceConfig(**defaults))


def enroll(service, count):
    """One client per generated user, named so DNs are deterministic."""
    clients = []
    for index in range(count):
        identity = f"{PREFIX}/CN=User {index:03d}"
        credential = service.add_user(identity, f"u{index:03d}")
        clients.append(GramClient(credential, service.gatekeeper))
    return clients


class TestShardRouter:
    def test_hash_is_crc32_not_process_hash(self):
        router = ShardRouter(8)
        dn = f"{PREFIX}/CN=Anyone"
        assert router.shard_for(dn) == zlib.crc32(dn.encode()) % 8

    def test_same_dn_same_shard_across_instances(self):
        dn = f"{PREFIX}/CN=Stable"
        assert ShardRouter(4).shard_for(dn) == ShardRouter(4).shard_for(dn)

    def test_single_shard_always_zero(self):
        assert ShardRouter(1).shard_for("anything") == 0

    def test_vo_key_override_pins_a_subtree(self):
        # VO-aware key: every DN under the prefix hashes as one key.
        router = ShardRouter(8, key_fn=lambda dn: dn.rsplit("/CN=", 1)[0])
        shards = {
            router.shard_for(f"{PREFIX}/CN=User {i}") for i in range(50)
        }
        assert len(shards) == 1

    def test_population_spreads_over_shards(self):
        router = ShardRouter(4)
        shards = {
            router.shard_for(f"{PREFIX}/CN=User {i:03d}") for i in range(64)
        }
        assert shards == {0, 1, 2, 3}

    def test_zero_shards_rejected(self):
        # The router is built from a config, which rejects the count.
        with pytest.raises(ValueError, match="shards"):
            ServiceConfig(shards=0)


class TestSharedGauge:
    def test_adjust_and_read(self):
        gauge = SharedGauge()
        assert gauge.adjust(+3) == 3
        assert gauge.adjust(-1) == 2
        assert gauge.value == 2

    def test_concurrent_adjust_loses_nothing(self):
        gauge = SharedGauge()
        threads = [
            threading.Thread(
                target=lambda: [gauge.adjust(+1) for _ in range(1000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gauge.value == 8000


class TestEpochBroadcast:
    def test_bump_invalidates_a_watching_cache(self):
        broadcast = EpochBroadcast()
        cache = DecisionCache(epoch_sources=[broadcast])
        first = cache._epochs()
        assert cache._epochs() == first
        broadcast.bump()
        assert cache._epochs() != first

    def test_service_bump_reaches_every_shard_cache(self):
        service = build_sharded(shards=4, decision_cache=True)
        epochs_before = [shard.pep.cache._epochs() for shard in service.shards]
        service.bump_policy_epoch()
        epochs_after = [shard.pep.cache._epochs() for shard in service.shards]
        assert all(a != b for a, b in zip(epochs_after, epochs_before))


class TestShardedService:
    def test_plain_service_refuses_multi_shard_config(self):
        with pytest.raises(ValueError, match="ShardedGramService"):
            GramService(ServiceConfig(shards=4))

    def test_shard_hosts_are_distinct_and_routable(self):
        service = build_sharded(shards=4)
        hosts = [shard.config.host for shard in service.shards]
        assert hosts == [f"shard{i}.grid.example.org" for i in range(4)]

    def test_single_shard_keeps_the_plain_host(self):
        service = build_sharded(shards=1)
        assert service.shards[0].config.host == "grid.example.org"
        assert service.shared_active_jmis is None

    def test_submit_lands_on_the_requesters_shard(self):
        service = build_sharded(shards=4)
        clients = enroll(service, 8)
        for client in clients:
            response = client.submit(RSL)
            assert response.ok, response.message
            shard = service.shard_of(client.identity)
            expected_host = service.shards[shard].config.host
            assert response.contact.host == expected_host

    def test_cross_shard_management_routes_to_the_jobs_shard(self):
        service = build_sharded(shards=4)
        clients = enroll(service, 16)
        # Find an owner and a peer living on different shards.
        owner = clients[0]
        peer = next(
            c
            for c in clients[1:]
            if service.shard_of(c.identity)
            != service.shard_of(owner.identity)
        )
        response = owner.submit(RSL)
        assert response.ok
        # Peer polls the owner's job (authorized by the jobtag
        # grant) — must route to the owner's shard and succeed.
        status = peer.status(response.contact)
        assert status.ok, status.message
        # The peer may not cancel (jobowner=self) — a *denial*
        # proves the request reached the job, not NO_SUCH_JOB.
        denied = peer.cancel(response.contact)
        assert denied.code is GramErrorCode.AUTHORIZATION_DENIED
        assert owner.cancel(response.contact).ok

    def test_unknown_contact_answers_no_such_job(self):
        from repro.gram.protocol import JobContact

        service = build_sharded(shards=4)
        clients = enroll(service, 1)
        response = clients[0].status(
            JobContact(host="elsewhere.example.org", job_id="424242")
        )
        assert response.code is GramErrorCode.NO_SUCH_JOB

    def test_global_ceiling_spans_shards(self):
        service = build_sharded(shards=4, max_active_jmis=2)
        clients = enroll(service, 12)
        # Pick three users on three different shards: the ceiling
        # must reject the third even though its shard is empty.
        chosen, shards_used = [], set()
        for client in clients:
            shard = service.shard_of(client.identity)
            if shard not in shards_used:
                shards_used.add(shard)
                chosen.append(client)
            if len(chosen) == 3:
                break
        assert len(chosen) == 3
        assert chosen[0].submit(RSL).ok
        assert chosen[1].submit(RSL).ok
        rejected = chosen[2].submit(RSL)
        assert rejected.code is GramErrorCode.RESOURCE_BUSY
        assert "capacity" in rejected.message
        # Slots free as jobs finish, service-wide.
        service.run(15.0)
        assert chosen[2].submit(RSL).ok

    def test_run_advances_every_shard_clock(self):
        service = build_sharded(shards=3)
        service.run(5.0)
        assert [shard.clock.now for shard in service.shards] == [5.0] * 3

    def test_requests_run_on_the_callers_thread(self):
        service = build_sharded(shards=4)
        seen = set()

        def recording(label, callout):
            def wrapped(request):
                seen.add(threading.get_ident())
                return callout(request)

            return wrapped

        for shard in service.shards:
            shard.registry.wrap(GRAM_AUTHZ_CALLOUT, recording)
            shard.scheduler.on_terminal.append(
                lambda job: seen.add(threading.get_ident())
            )
        for client in enroll(service, 8):
            assert client.submit(RSL).ok
        service.run(15.0)
        assert seen == {threading.get_ident()}


class TestShardedHarden:
    """Each shard hardens with its own breakers, clock and registry."""

    def test_a_faulted_shard_does_not_trip_another_shards_breaker(self):
        service = build_sharded(shards=4)
        clients = enroll(service, 16)
        on_shard = {}
        for client in clients:
            on_shard.setdefault(service.shard_of(client.identity), client)
        sick, healthy = on_shard[0], on_shard[1]
        assert inject(
            service.shards[0].registry, GRAM_AUTHZ_CALLOUT, ExceptionFault()
        ) == 1

        configs = service.harden(ResilienceConfig(failure_threshold=2))

        for _ in range(2):
            failed = sick.submit(RSL)
            assert failed.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE
        response = healthy.submit(RSL)
        assert response.ok, response.message
        # The breaker that opened is shard 0's alone, and so is the
        # failure telemetry.
        assert configs[0].breakers["combined:vo"].state.value == "open"
        assert configs[1].breakers["combined:vo"].state.value == "closed"
        assert configs[0].metrics.failures and not configs[1].metrics.failures

    def test_each_shard_gets_its_own_bound_config(self):
        service = build_sharded(shards=4)
        configs = service.harden(ResilienceConfig(failure_threshold=2))
        assert len({id(config) for config in configs}) == 4
        for shard, config in zip(service.shards, configs):
            assert shard.resilience is config
            assert config.clock is shard.clock
            assert config.registry is shard.telemetry.registry
            assert config.failure_threshold == 2


class TestShardedPolicyStore:
    """Shards serve the store through the plain service's wiring."""

    def build(self):
        store = VersionedPolicyStore()
        service = build_sharded(
            shards=4,
            decision_cache=True,
            capability_grants=True,
            policy_store=store,
        )
        return store, service

    def test_store_and_broadcast_are_watched_exactly_once(self):
        store, service = self.build()
        assert store.active().origin == "seed"
        assert store._subscribers == [service.apply_policy_snapshot]
        assert len(store._validators) == 1
        for shard in service.shards:
            sources = shard.pep.cache.epoch_sources
            assert sources.count(store) == 1
            assert sources.count(service.epoch_broadcast) == 1
            names = [name for name, _ in shard.capability.issuer.epoch_sources]
            assert names == ["policy", "gridmap", "callouts", "broadcast", "store"]
            served = shard.combined_evaluator.evaluators[0].policy
            assert served is store.active().policies[0]

    def test_publish_swaps_every_shard_and_rejects_atomically(self):
        store, service = self.build()
        clients = enroll(service, 8)
        assert all(client.submit(RSL).ok for client in clients)
        tighter = POLICY.replace("(count<4)", "(count<1)")
        snapshot = store.publish(PolicyBundle.from_texts({"vo": tighter}))
        for shard in service.shards:
            assert shard.combined_evaluator.evaluators[0].policy is (
                snapshot.policies[0]
            )
        denied = clients[0].submit(RSL)
        assert denied.code is GramErrorCode.AUTHORIZATION_DENIED
        with pytest.raises(BundleRejected):
            store.publish(PolicyBundle.from_texts({"other": POLICY}))
        assert store.active() is snapshot


class TestSingleDispatchPath:
    """A seeded multi-user stream is exact and reproducible."""

    CEILING = 3

    def drive(self):
        protocol._contact_counter = itertools.count(1)
        service = build_sharded(shards=4, max_active_jmis=self.CEILING)
        clients = enroll(service, 12)
        rng = random.Random(2026)
        outcomes, contacts = [], []
        for step in range(240):
            client = rng.choice(clients)
            roll = rng.random()
            if roll < 0.5 or not contacts:
                response = client.submit(RSL)
                if response.ok:
                    contacts.append(response.contact)
            elif roll < 0.8:
                response = client.status(rng.choice(contacts))
            else:
                target = contacts.pop(rng.randrange(len(contacts)))
                response = client.cancel(target)
            assert service.shared_active_jmis.value <= self.CEILING
            outcomes.append(
                (
                    response.code.name,
                    tuple(response.reasons),
                    str(response.contact),
                    response.state.value if response.state else None,
                )
            )
            if step % 10 == 9:
                service.run(3.0)
        return outcomes, service.merged_metrics_jsonl()

    def test_ceiling_holds_and_runs_are_identical(self):
        first_outcomes, first_metrics = self.drive()
        second_outcomes, second_metrics = self.drive()
        codes = {code for code, _, _, _ in first_outcomes}
        assert {"SUCCESS", "RESOURCE_BUSY", "AUTHORIZATION_DENIED"} <= codes
        assert second_outcomes == first_outcomes
        assert second_metrics == first_metrics


class TestMergedTelemetry:
    def build_and_drive(self, shards):
        service = build_sharded(shards=shards)
        clients = enroll(service, 8)
        for client in clients:
            response = client.submit(RSL)
            assert response.ok
            assert client.status(response.contact).ok
        return service

    def test_merged_decisions_sum_across_shards(self):
        service = self.build_and_drive(4)
        per_shard = sum(
            shard.telemetry.registry.value(
                "authz_decisions_total", action="start", decision="permit"
            )
            for shard in service.shards
        )
        assert per_shard == 8
        assert service.merged_value(
            "authz_decisions_total", action="start", decision="permit"
        ) == 8
        snapshot = service.merged_snapshot()
        family = next(
            f for f in snapshot if f["name"] == "authz_decisions_total"
        )
        total = sum(series["value"] for series in family["series"])
        assert total == 16  # 8 starts + 8 information polls

    def test_merged_prometheus_renders_once_per_family(self):
        service = self.build_and_drive(4)
        text = service.merged_prometheus()
        assert text.count("# TYPE authz_decisions_total counter") == 1
        assert "authz_decisions_total{" in text

    def test_merged_spans_have_unique_shard_prefixed_traces(self):
        service = self.build_and_drive(4)
        spans = service.merged_spans()
        assert spans
        trace_ids = {span["trace"] for span in spans}
        assert all(":" in trace for trace in trace_ids)
        shards_seen = {trace.split(":", 1)[0] for trace in trace_ids}
        assert len(shards_seen) > 1

    def test_merge_is_identity_for_one_shard(self):
        service = self.build_and_drive(1)
        merged = service.merged_snapshot()
        assert merged == service.shards[0].telemetry.registry.snapshot()


class TestPlacementReport:
    """Per-shard routed-load counts for hot-VO shard_key pinning."""

    def drive(self, service, users=16, polls=2):
        clients = enroll(service, users)
        contacts = []
        for client in clients:
            response = client.submit(RSL)
            assert response.ok
            contacts.append(response.contact)
        for client, contact in zip(clients, contacts):
            for _ in range(polls):
                assert client.status(contact).ok
        return clients, contacts

    def test_routed_counts_add_up(self):
        service = build_sharded(shards=4)
        self.drive(service, users=16, polls=2)
        report = service.placement_report()
        assert len(report["shards"]) == 4
        assert report["total_routed"] == 16 + 16 * 2
        assert sum(r["routed_submissions"] for r in report["shards"]) == 16
        assert sum(r["routed_management"] for r in report["shards"]) == 32
        # Routed submissions land where they were served.
        for row in report["shards"]:
            assert row["served_submissions"] == row["routed_submissions"]

    def test_balanced_population_has_low_skew(self):
        service = build_sharded(shards=4)
        self.drive(service, users=32, polls=1)
        report = service.placement_report()
        populated = [r for r in report["shards"] if r["routed_total"]]
        assert len(populated) == 4
        assert report["skew"] < 3.0

    def test_pinned_vo_shows_skew(self):
        """A VO-aware shard_key that pins the whole subtree maps every
        requester to one shard: the report must make the imbalance
        visible (skew == shard count, one hot shard)."""
        service = build_sharded(
            shards=4,
            shard_key=lambda dn: dn.rsplit("/CN=", 1)[0],
        )
        self.drive(service, users=16, polls=2)
        report = service.placement_report()
        assert report["skew"] == pytest.approx(4.0)
        hot = report["shards"][report["hot_shard"]]
        assert hot["routed_total"] == report["total_routed"]
        cold = [
            r for r in report["shards"] if r["shard"] != report["hot_shard"]
        ]
        assert all(r["routed_total"] == 0 for r in cold)

    def test_empty_report(self):
        service = build_sharded(shards=2)
        report = service.placement_report()
        assert report["total_routed"] == 0
        assert report["skew"] == 0.0
