"""One evaluation view per combined decision, gone when it ends."""

from __future__ import annotations

import gc
import weakref

import repro.core.combination as combination
import repro.core.evaluator as evaluator_module
from repro.workloads.scenarios import build_fusion_scenario

JOB = (
    "&(executable=TRANSP)(directory=/opt/nfc/bin)(jobtag=NFC)"
    "(count=2)(runtime=100)"
)


class _View(dict):
    """A view that can be weakly referenced."""


def test_combined_decision_builds_one_view_and_drops_it(monkeypatch):
    scenario = build_fusion_scenario(developers=0, analysts=1, admins=0)
    (client,) = scenario.analysts.values()
    built = []
    real = combination.evaluation_view

    def spy(request):
        view = _View(real(request))
        built.append((weakref.ref(view), request))
        return view

    def forbidden(request):
        raise AssertionError("a source built its own view")

    monkeypatch.setattr(combination, "evaluation_view", spy)
    monkeypatch.setattr(evaluator_module, "evaluation_view", forbidden)

    response = client.submit(JOB)
    assert response.ok, response.message
    context = response.decision_context
    assert [record.name for record in context.sources] == ["nfc-vo", "site-local"]
    assert len(built) == 1
    view_ref, request = built[0]
    gc.collect()
    # The request and the decision record are both still alive here,
    # yet nothing holds the view any more.
    assert view_ref() is None
    assert request.job_description.first_value("jobtag") == "NFC"
    assert context.jobtag == "NFC"
