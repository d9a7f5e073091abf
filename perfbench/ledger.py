"""Per-layer spans recorded from outside the program.

:class:`Ledger` replaces each layer's public entry point with a wrapper
that records one span (layer, entry point, start, end, parent span,
request id) and passes the call through unchanged.  Nothing under
``src/`` knows about it.  Self time is a span's duration minus the time
its child spans cover.

``verify_credential`` and ``parse_specification`` are imported by name
into the gatekeeper and job-manager modules, so they are patched there,
where the request path looks them up.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.gram.gatekeeper as gatekeeper_module
import repro.gram.jobmanager as jobmanager_module
from repro.core.callout import CalloutRegistry
from repro.core.capability import CapabilityMiddleware
from repro.core.combination import CombinedEvaluator
from repro.core.evaluator import PolicyEvaluator
from repro.core.pep import EnforcementPoint
from repro.core.pipeline import DecisionCache
from repro.core.query import QueryEngine
from repro.core.store import VersionedPolicyStore
from repro.gram.client import GramClient
from repro.gram.gatekeeper import Gatekeeper
from repro.gram.gridmap import GridMapFile
from repro.gram.jobmanager import JobManagerInstance
from repro.gram.lifecycle import CompletedJobStore
from repro.gram.rsl_utils import JobDescription
from repro.gram.spill import CompletedJobSpill
from repro.lrm.scheduler import BatchScheduler
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span
from repro.sim.clock import Clock

#: Layer name -> the (owner, attribute) entry points timed for it.
#: ``accounts.enforcement`` is resolved per deployment (its class).
LAYERS: Tuple[Tuple[str, Tuple[Tuple[Any, str], ...]], ...] = (
    ("gram.client", ((GramClient, "submit"), (GramClient, "manage"))),
    ("gram.gatekeeper", ((Gatekeeper, "submit"), (Gatekeeper, "manage"))),
    (
        "gsi",
        (
            (gatekeeper_module, "verify_credential"),
            (jobmanager_module, "verify_credential"),
        ),
    ),
    ("gram.gridmap", ((GridMapFile, "lookup"),)),
    ("core.query", ((QueryEngine, "check_action"),)),
    (
        "rsl",
        (
            (gatekeeper_module, "parse_specification"),
            (jobmanager_module, "parse_specification"),
        ),
    ),
    ("gram.rsl_utils", ((JobDescription, "from_spec"),)),
    ("gram.jobmanager", ((JobManagerInstance, "start"), (JobManagerInstance, "handle"))),
    ("core.pep", ((EnforcementPoint, "authorize"),)),
    ("core.capability", ((CapabilityMiddleware, "__call__"),)),
    ("core.pipeline", ((DecisionCache, "__call__"),)),
    ("core.callout", ((CalloutRegistry, "invoke"),)),
    ("core.combination", ((CombinedEvaluator, "evaluate"),)),
    ("core.evaluator", ((PolicyEvaluator, "evaluate"),)),
    ("accounts.enforcement", ()),
    (
        "lrm",
        (
            (BatchScheduler, "submit"),
            (BatchScheduler, "cancel"),
            (BatchScheduler, "signal_priority"),
        ),
    ),
    ("sim.clock", ((Clock, "advance"),)),
    ("gram.lifecycle", ((CompletedJobStore, "add"), (CompletedJobStore, "get"))),
    (
        "gram.spill",
        ((CompletedJobSpill, "append_insert"), (CompletedJobSpill, "append_evict")),
    ),
    ("core.store", ((VersionedPolicyStore, "publish"),)),
    (
        "obs",
        (
            (Span, "__enter__"),
            (Span, "__exit__"),
            (MetricsRegistry, "count"),
            (MetricsRegistry, "set_gauge"),
            (MetricsRegistry, "observe"),
        ),
    ),
)

LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: Which end-to-end metric a saving in each layer should move, and on
#: which workload; written down before any optimisation is measured.
MOVES: Dict[str, str] = {
    "gram.client": "every latency metric on every workload",
    "gram.gatekeeper": "every latency metric on every workload, most on monitor_repeat",
    "gsi": "every latency metric on every workload, most on monitor_repeat",
    "gram.gridmap": "submit_* on every workload",
    "core.query": "submit_p50_us on vo_scale",
    "rsl": "submit_p50_us on vo_scale and nfc_mixed; nothing on manage_*",
    "gram.rsl_utils": "submit_p50_us on vo_scale and nfc_mixed; nothing on manage_*",
    "gram.jobmanager": "every latency metric on every workload, most on monitor_repeat",
    "core.pep": "every latency metric on every workload, most on monitor_repeat",
    "core.capability": "manage_p50_us on monitor_repeat; nothing elsewhere",
    "core.pipeline": "manage_p50_us on monitor_repeat; nothing elsewhere",
    "core.callout": "submit_* and manage_* on nfc_mixed and vo_scale",
    "core.combination": "submit_* and manage_* on nfc_mixed and vo_scale; little on monitor_repeat",
    "core.evaluator": "submit_* and manage_* on nfc_mixed and vo_scale; little on monitor_repeat",
    "accounts.enforcement": "requests_per_s and submit_p99_us on nfc_mixed; nothing on vo_scale",
    "lrm": "requests_per_s and submit_p99_us on nfc_mixed; nothing on vo_scale",
    "sim.clock": "requests_per_s and submit_p99_us on nfc_mixed; nothing on vo_scale",
    "gram.lifecycle": "requests_per_s and manage_p99_us on monitor_repeat",
    "gram.spill": "requests_per_s and manage_p99_us on monitor_repeat",
    "core.store": "requests_per_s and manage_p99_us on monitor_repeat",
    "obs": "every latency metric on every workload, most on monitor_repeat",
}

# Span record fields (lists, so the wrapper can fill in the end).
LAYER, START, END, PARENT, REQUEST, ENTRY = range(6)


class Ledger:
    """In-memory span recorder with pass-through wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Set by the closed loop before each step.
        self.request_id = -1
        #: Results kept for ratio metrics, per layer that asks for them.
        self.results: Dict[str, List[Any]] = {
            "core.query": [],
            "core.evaluator": [],
        }
        #: Authorization requests seen by the PEP, with their request id.
        self.pep_requests: List[Tuple[int, Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, entry: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter
        ledger = self
        keep = self.results.get(layer)
        pep = layer == "core.pep"

        def timed(*args, **kwargs):
            record = [
                layer, 0.0, 0.0, stack[-1] if stack else -1, ledger.request_id, entry
            ]
            stack.append(len(spans))
            spans.append(record)
            if pep:
                ledger.pep_requests.append((ledger.request_id, args[1]))
            record[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf()
                stack.pop()
            if keep is not None:
                keep.append(result)
            return result

        return functools.wraps(fn)(timed)

    def _patch(self, owner: Any, attribute: str, layer: str) -> None:
        original = inspect.getattr_static(owner, attribute)
        entry = f"{owner.__name__.rsplit('.', 1)[-1]}.{attribute}"
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(layer, entry, original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self._wrap(layer, entry, original.__func__))
        else:
            replacement = self._wrap(layer, entry, getattr(owner, attribute))
        had_own = attribute in vars(owner)
        self._patches.append((owner, attribute, original if had_own else None))
        setattr(owner, attribute, replacement)

    def install(self, enforcement_class: Optional[type]) -> None:
        for layer, targets in LAYERS:
            for owner, attribute in targets:
                self._patch(owner, attribute, layer)
        if enforcement_class is not None:
            # Patched on the deployment's own class: a subclass that
            # calls super() then never records the layer twice.
            self._patch(enforcement_class, "admit", "accounts.enforcement")
            self._patch(enforcement_class, "job_started", "accounts.enforcement")

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> List[float]:
        selfs = [record[END] - record[START] for record in self.spans]
        for record in self.spans:
            parent = record[PARENT]
            if parent >= 0:
                selfs[parent] -= record[END] - record[START]
        return selfs

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls, total self seconds)."""
        totals = {name: [0, 0.0] for name in LAYER_NAMES}
        for record, own in zip(self.spans, self.self_times()):
            entry = totals[record[LAYER]]
            entry[0] += 1
            entry[1] += own
        return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}

    def layer_durations(self, layer: str) -> List[float]:
        return [r[END] - r[START] for r in self.spans if r[LAYER] == layer]

    def entry_calls(self, entry: str) -> int:
        return sum(1 for r in self.spans if r[ENTRY] == entry)

    def root_seconds(self) -> float:
        return sum(r[END] - r[START] for r in self.spans if r[PARENT] < 0)

    def write_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (layer, start, end, parent, request, entry) in enumerate(
                self.spans
            ):
                # Hand-formatted: names are fixed identifiers, and
                # json.dumps per span would dominate the exit time.
                handle.write(
                    f'{{"span": {index}, "name": "{layer}", "entry": "{entry}", '
                    f'"start": {start!r}, "end": {end!r}, "parent": {parent}, '
                    f'"request": {request}}}\n'
                )
        return len(self.spans)
