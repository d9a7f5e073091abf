"""Dynamic policies: time windows."""

import pytest

from repro.core.dynamic import (
    DynamicEvaluator,
    DynamicPolicy,
    TimeWindow,
)
from repro.core.model import PolicyAssertion, PolicyStatement, Subject
from repro.core.parser import parse_policy
from repro.core.request import AuthorizationRequest
from repro.rsl.parser import parse_specification
from repro.sim.clock import Clock

ALICE = "/O=Grid/OU=org/CN=Alice"
BASE = f"{ALICE}: &(action=start)(executable=sim)(count<4)"


def start(rsl="&(executable=sim)(count=2)", who=ALICE):
    return AuthorizationRequest.start(who, parse_specification(rsl))


class TestTimeWindow:
    def test_contains(self):
        window = TimeWindow(not_before=10.0, not_after=20.0)
        assert not window.contains(9.9)
        assert window.contains(10.0)
        assert window.contains(19.9)
        assert not window.contains(20.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            TimeWindow(not_before=10.0, not_after=10.0)


class TestDynamicPolicy:
    def demo_statement(self):
        return PolicyStatement(
            subject=Subject.identity(ALICE),
            assertions=(
                PolicyAssertion.parse("&(action=start)(executable=demo)(count<=32)"),
            ),
        )

    def test_windowed_grant_appears_and_disappears(self):
        clock = Clock()
        dynamic = DynamicPolicy(parse_policy(BASE, name="vo"))
        dynamic.add_window(self.demo_statement(), not_before=100.0, not_after=200.0)
        evaluator = DynamicEvaluator(dynamic, clock)
        demo_request = start("&(executable=demo)(count=16)")

        assert evaluator.evaluate(demo_request).is_deny      # before
        clock.advance(150.0)
        assert evaluator.evaluate(demo_request).is_permit    # during the demo
        clock.advance(100.0)
        assert evaluator.evaluate(demo_request).is_deny      # after

    def test_base_policy_unaffected_by_windows(self):
        clock = Clock()
        dynamic = DynamicPolicy(parse_policy(BASE, name="vo"))
        dynamic.add_window(self.demo_statement(), not_before=100.0, not_after=200.0)
        evaluator = DynamicEvaluator(dynamic, clock)
        for t in (0.0, 150.0, 250.0):
            clock.run_until(t)
            assert evaluator.evaluate(start()).is_permit

    def test_snapshot_without_active_windows_is_base(self):
        dynamic = DynamicPolicy(parse_policy(BASE, name="vo"))
        dynamic.add_window(self.demo_statement(), not_before=100.0, not_after=200.0)
        assert dynamic.snapshot(0.0) is dynamic.base
        assert len(dynamic.snapshot(150.0)) == len(dynamic.base) + 1

