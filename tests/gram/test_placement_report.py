"""Edge cases for ``ShardedGramService.placement_report``.

The report feeds ``shard_key`` placement tuning, so its corner cases
matter: a service with no traffic must not divide by zero, a one-shard
service must read as perfectly balanced, and a pinned-VO ``shard_key``
must surface as skew — with the DN-routing memo still taking effect.
"""

from repro.core.parser import parse_policy
from repro.gram.client import GramClient
from repro.gram.dispatch import ShardRouter, ShardedGramService
from repro.gram.service import ServiceConfig

ORG = "/O=Grid/OU=placement.example.org"

POLICY = f"""
{ORG}:
    &(action=start)(executable=sim)
    &(action=cancel)(jobowner=self)
"""

RSL = "&(executable=sim)(count=1)(runtime=5)"


def build(shards, **overrides):
    defaults = dict(
        policies=(parse_policy(POLICY, name="vo"),),
        shards=shards,
    )
    defaults.update(overrides)
    return ShardedGramService(ServiceConfig(**defaults))


def submit_as(service, index):
    identity = f"{ORG}/CN=User {index:04d}"
    client = GramClient(
        service.add_user(identity, f"acct{index}"), service.gatekeeper
    )
    return client.submit(RSL)


class TestEmptyService:
    def test_no_traffic_reports_zero_skew(self):
        report = build(shards=4).placement_report()
        assert report["total_routed"] == 0
        assert report["mean_routed"] == 0.0
        assert report["peak_routed"] == 0
        assert report["skew"] == 0.0
        assert len(report["shards"]) == 4
        for row in report["shards"]:
            assert row["routed_total"] == 0
            assert row["served_submissions"] == 0


class TestSingleShard:
    def test_one_shard_is_always_balanced(self):
        service = build(shards=1)
        for index in range(5):
            assert submit_as(service, index).ok
        report = service.placement_report()
        assert len(report["shards"]) == 1
        assert report["hot_shard"] == 0
        assert report["total_routed"] == 5
        # peak == mean by construction.
        assert report["skew"] == 1.0


class TestPinnedSkew:
    def test_all_load_on_one_shard_maxes_the_skew(self):
        # Pin the whole org to a single constant key: every DN hashes
        # identically, so one shard carries everything.
        service = build(shards=4, shard_key=lambda identity: "the-vo")
        for index in range(8):
            assert submit_as(service, index).ok
        report = service.placement_report()
        assert report["total_routed"] == 8
        assert report["peak_routed"] == 8
        # peak/mean == shard count when one shard holds it all.
        assert report["skew"] == 4.0
        hot = report["hot_shard"]
        assert report["shards"][hot]["served_submissions"] == 8
        for index, row in enumerate(report["shards"]):
            if index != hot:
                assert row["routed_total"] == 0

    def test_pinned_key_and_routing_memo_compose(self):
        service = build(shards=4, shard_key=lambda identity: "the-vo")
        router = service.router
        client = GramClient(
            service.add_user(f"{ORG}/CN=Pinned", "pinned"),
            service.gatekeeper,
        )
        assert client.submit(RSL).ok
        first_misses = router.memo_misses
        assert first_misses >= 1
        for _ in range(3):
            client.submit(RSL)
        # Same DN again: routed from the memo, not re-hashed.
        assert router.memo_misses == first_misses
        assert router.memo_hits >= 3
        # The memo caches the *DN's* resolution, which already went
        # through the pinned key function.
        assert router.shard_for(f"{ORG}/CN=Pinned") == router.shard_for(
            f"{ORG}/CN=Other"
        )


class TestRouterMemo:
    def test_single_shard_short_circuit_skips_the_memo(self):
        router = ShardRouter(1)
        assert router.shard_for("/O=Grid/CN=Anyone") == 0
        assert router.memo_hits == 0
        assert router.memo_misses == 0

    def test_memo_clears_at_the_cap(self):
        router = ShardRouter(4)
        router.MEMO_CAP = 8
        for index in range(8):
            router.shard_for(f"/O=Grid/CN=User {index}")
        assert len(router._memo) == 8
        # The 9th distinct DN trips the cap: clear, then re-seed.
        router.shard_for("/O=Grid/CN=User 8")
        assert len(router._memo) == 1
        # Determinism is unaffected by the reset.
        assert router.shard_for("/O=Grid/CN=User 0") == ShardRouter(
            4
        ).shard_for("/O=Grid/CN=User 0")
