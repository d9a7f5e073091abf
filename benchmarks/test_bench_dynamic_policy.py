"""B-DYN — cost of dynamic policy machinery (§1's dynamic policies).

(Extension bench.)  The paper requires policies that change over time.
Dynamism costs something: time-windowed snapshots rebuild the
statement tuple when windows are active, and publishing a changed
policy to the versioned store parses and compiles it.  This bench
measures those costs against the static baseline, and asserts the
semantic artifact: a demo window flips decisions at its exact
boundaries.
"""

import itertools

from repro.core.dynamic import DynamicEvaluator, DynamicPolicy
from repro.core.evaluator import PolicyEvaluator
from repro.core.model import PolicyAssertion, PolicyStatement, Subject
from repro.core.parser import parse_policy
from repro.core.request import AuthorizationRequest
from repro.core.store import PolicyBundle, VersionedPolicyStore
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock

from benchmarks.conftest import emit

ALICE = "/O=Grid/OU=dyn/CN=Alice"
BASE = f"{ALICE}: &(action=start)(executable=sim)(count<4)"
REQUEST = AuthorizationRequest.start(
    ALICE, parse_specification("&(executable=sim)(count=2)")
)
DEMO_REQUEST = AuthorizationRequest.start(
    ALICE, parse_specification("&(executable=demo)(count=16)")
)


def demo_statement():
    return PolicyStatement(
        subject=Subject.identity(ALICE),
        assertions=(
            PolicyAssertion.parse("&(action=start)(executable=demo)(count<=16)"),
        ),
    )


class TestWindowSemantics:
    def test_window_boundaries_are_exact(self):
        clock = Clock()
        dynamic = DynamicPolicy(parse_policy(BASE, name="vo"))
        dynamic.add_window(demo_statement(), not_before=100.0, not_after=200.0)
        evaluator = DynamicEvaluator(dynamic, clock)

        rows = []
        expectations = [
            (99.9, False),
            (100.0, True),
            (199.9, True),
            (200.0, False),
        ]
        for when, expected in expectations:
            clock.run_until(when)
            verdict = evaluator.evaluate(DEMO_REQUEST).is_permit
            rows.append(
                f"t={when:7.1f}  demo grant "
                f"{'active' if verdict else 'inactive'}"
            )
            assert verdict == expected, when
        emit("B-DYN — demo-window boundary behaviour", rows)


class TestDynamicOverheadBench:
    def test_bench_static_evaluator_baseline(self, benchmark):
        evaluator = PolicyEvaluator(parse_policy(BASE, name="vo"))
        decision = benchmark(evaluator.evaluate, REQUEST)
        assert decision.is_permit

    def test_bench_windowed_snapshot_inactive(self, benchmark):
        clock = Clock()
        dynamic = DynamicPolicy(parse_policy(BASE, name="vo"))
        dynamic.add_window(demo_statement(), not_before=1e9, not_after=2e9)
        evaluator = DynamicEvaluator(dynamic, clock)
        decision = benchmark(evaluator.evaluate, REQUEST)
        assert decision.is_permit

    def test_bench_windowed_snapshot_active(self, benchmark):
        clock = Clock()
        dynamic = DynamicPolicy(parse_policy(BASE, name="vo"))
        dynamic.add_window(demo_statement(), not_before=0.0, not_after=1e9)
        clock.advance(1.0)
        evaluator = DynamicEvaluator(dynamic, clock)
        decision = benchmark(evaluator.evaluate, REQUEST)
        assert decision.is_permit

    def test_bench_policy_install(self, benchmark):
        store = VersionedPolicyStore()
        store.publish(PolicyBundle.from_texts({"vo": BASE}))
        new_text = BASE + f"\n{ALICE}: &(action=cancel)(jobowner=self)\n"
        # Alternate the content so every publish changes it: an
        # identical republish is a no-op that never bumps the epoch.
        texts = itertools.cycle([new_text, BASE])

        def install():
            return store.publish(PolicyBundle.from_texts({"vo": next(texts)}))

        snapshot = benchmark(install)
        assert snapshot.epoch >= 2
        assert store.noop_publishes == 0
