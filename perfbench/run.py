#!/usr/bin/env python3
"""Request-path ledger: GRAM round trips, end to end and layer by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload nfc_mixed --seed 1 --seconds 20 --trace 0

One process and one thread drive a closed loop: the next request is
sent when the previous response has returned, and the simulated clock
advances by a fixed step every fixed number of requests.  Every request
goes ``GramClient`` -> ``Gatekeeper`` -> JMI -> PEP -> callout ->
per-source evaluation -> LRM through the public API, and every response
code is checked against the one the request was built to get.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Its
timed phase runs in chunks of :data:`CHUNK` requests with a host speed
probe after each (see ``speed.py``); latencies, throughput and set-up
time are scaled to the probe's reference speed, so the figures follow
the program and not the load other tenants put on the shared host.
The raw wall figures are printed beside them.
``--trace 1`` first runs a short untraced phase, then replays the same
requests on a fresh deployment with every layer's entry points wrapped
(see ``ledger.py``) and reports the per-layer metrics; the two phases
must produce the same outcome digest.  The spans are written to
``perfbench/out/<workload>.spans.jsonl``.

Human-readable lines come first; the last line of standard output is
one JSON object.  The exit code is 1 when any response differs from
the expected one, and 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Share of --seconds the untraced phase of a traced run measures.
TRACE_SHARE = 0.25
#: A percentile needs this many samples beyond it to be trusted.
MIN_BEYOND = 10
#: The timed phase is cut into up to this many consecutive slices; each
#: reported latency percentile and the throughput are the median over
#: the slices, so a burst that the speed probe tracks badly moves one
#: slice, not the figure.
SLICES = 16
#: Requests between two host speed probes (about 0.04 s of work).
CHUNK = 100
#: Probe readings averaged on each side of a deploy; a deploy of the
#: large VO lasts seconds, so one reading says little about its span.
SETUP_PROBES = 5
#: A slice holds at least this many samples (p99 keeps 10 beyond it).
MIN_SLICE = 1000
#: Collector thresholds during measured phases.  With the stock
#: (700, 10, 10) a young collection of a few milliseconds lands on
#: about 1% of submits, right at p99, and the p99 flips between runs.
#: Raised thresholds keep collections rare (beyond p99.9) while their
#: cost is still paid inside the measured phase and requests_per_s.
GC_THRESHOLD = (100_000, 50, 1000)
#: peak_rss_mb is read after this many measured requests.  The program
#: keeps some per-request state (for example the client's known-job
#: map), so a peak read at the end of a fixed-time phase would grow
#: with throughput and count a speed-up as a memory regression.
RSS_REQUESTS = 20_000
#: Outcome byte for a request that raised or named an unknown job.
ERROR = 255


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    if n == 0:
        return 0.0, 0
    rank = max(1, math.ceil(q * n))
    return sorted_values[rank - 1], n - rank


def sliced_percentiles(values, quantiles):
    """Median over consecutive slices of each nearest-rank percentile.

    Returns ``({q: value}, slices, fewest samples beyond the last q)``.
    """
    count = max(1, min(SLICES, len(values) // MIN_SLICE))
    size = len(values) // count
    per_q = {q: [] for q in quantiles}
    beyond = len(values)
    for index in range(count):
        chunk = sorted(values[index * size:(index + 1) * size])
        for q in quantiles:
            value, past = percentile(chunk, q)
            per_q[q].append(value)
        beyond = min(beyond, past)
    return {q: statistics.median(v) for q, v in per_q.items()}, count, beyond


def sliced_rate(chunks):
    """Median over consecutive runs of chunks of requests per second.

    *chunks* holds one ``(requests, seconds)`` pair per chunk.
    """
    count = max(1, min(SLICES, len(chunks)))
    size = len(chunks) // count
    rates = []
    for index in range(count):
        group = chunks[index * size:(index + 1) * size]
        rates.append(sum(n for n, _ in group) / sum(t for _, t in group))
    return statistics.median(rates)


class quiet_heap:
    """Freeze the set-up heap and raise collector thresholds."""

    def __enter__(self) -> None:
        gc.collect()
        gc.freeze()
        self._threshold = gc.get_threshold()
        gc.set_threshold(*GC_THRESHOLD)

    def __exit__(self, *exc_info) -> None:
        gc.set_threshold(*self._threshold)
        gc.unfreeze()


class ClosedLoop:
    """Executes one mix's steps against one deployment.

    Keeps per request only a latency, a completion time and a one-byte
    outcome, so the benchmark's own memory barely grows with the number
    of requests a run completes.
    """

    def __init__(self, mixes, deployment, steps) -> None:
        self.m = mixes
        self.dep = deployment
        self.steps = steps
        self.ledger = None
        self.contacts = {}
        self.outcomes = bytearray()
        self.failures = []
        self.submit_lat = array("d")
        self.manage_lat = array("d")
        self.steps_done = 0
        self.requests = 0
        #: Traced runs only: stopwatch seconds over every step, and the
        #: LRM queue depth after each request.
        self.step_seconds = 0.0
        self.queue_depths = []

    def run(self, requests=None, seconds=None, steps=None):
        """Run for *requests* more requests, *seconds*, or *steps* steps.

        Returns the (start, end) perf_counter() of the run.
        """
        perf = time.perf_counter
        start = perf()
        if steps is not None:
            for _ in range(steps):
                self.step(next(self.steps))
            return start, perf()
        deadline = start + seconds if seconds is not None else None
        target = self.requests + requests if requests is not None else None
        while True:
            if target is not None and self.requests >= target:
                break
            if deadline is not None and perf() >= deadline:
                break
            self.step(next(self.steps))
        return start, perf()

    def step(self, step) -> None:
        m = self.m
        perf = time.perf_counter
        kind = type(step)
        index = self.steps_done
        self.steps_done += 1
        ledger = self.ledger
        if ledger is not None:
            ledger.request_id = index
        service = self.dep.service
        if kind is m.Advance or kind is m.Publish:
            started = perf()
            if kind is m.Advance:
                service.run(step.seconds)
            else:
                self.dep.store.publish(self.dep.bundles[step.bundle])
            if ledger is not None:
                self.step_seconds += perf() - started
            return

        self.requests += 1
        client = self.dep.clients[step.user]
        response = None
        error = None
        started = perf()
        try:
            if kind is m.Submit:
                response = client.submit(step.rsl)
                self.submit_lat.append(perf() - started)
            else:
                contact = self.contacts.get(step.job)
                if contact is None:
                    error = f"job {step.job} was never started"
                else:
                    response = client.manage(contact, step.action, value=step.value)
                    self.manage_lat.append(perf() - started)
        except Exception as exc:  # a crash on the request path is a failure
            error = f"{type(exc).__name__}: {exc}"
        if ledger is not None:
            self.step_seconds += perf() - started
            self.queue_depths.append(service.scheduler.queue_depth)

        if response is None:
            self.outcomes.append(ERROR)
            self.failures.append((index, step, "ERROR", error))
            return
        code = response.code
        self.outcomes.append(code.value)
        if kind is m.Submit and step.job >= 0 and code is m.SUCCESS:
            self.contacts[step.job] = response.contact
        if code is not step.expect:
            self.failures.append((index, step, code.name, response.message))

    def outcome_digest(self) -> str:
        return hashlib.sha256(bytes(self.outcomes)).hexdigest()


def replay_stream(mix, inputs, seed, count):
    """The first *count* steps of the seeded stream (it never depends
    on responses, so regenerating it gives exactly what was sent)."""
    return list(itertools.islice(mix.stream(inputs, seed), count))


def stream_digest(steps) -> str:
    return hashlib.sha256("\n".join(repr(step) for step in steps).encode()).hexdigest()


def reset_contacts() -> None:
    """Restart job numbering so two deployments in one process match."""
    import repro.gram.protocol as protocol

    protocol._contact_counter = itertools.count(1)


def deploy(mix, inputs, workdir):
    reset_contacts()
    started = time.perf_counter()
    deployment = mix.deploy(inputs, workdir)
    return deployment, time.perf_counter() - started


def workload_shares(m, steps, seen_before=()):
    """Measured input properties of a slice of the request stream."""
    requests = [s for s in steps if type(s) in (m.Submit, m.Manage)]
    if not requests:
        return {}
    submits = [s for s in requests if type(s) is m.Submit]
    texts = {s.rsl for s in seen_before if type(s) is m.Submit}
    repeats = 0
    for s in submits:
        repeats += s.rsl in texts
        texts.add(s.rsl)
    return {
        "workload.deny_share": sum(s.expect is m.DENIED for s in requests) / len(requests),
        "workload.manage_share": 1 - len(submits) / len(requests),
        "rsl.repeat_text_share": repeats / len(submits) if submits else 0.0,
    }


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class TimedPhase:
    """The timed phase of an untraced run, scaled to reference speed.

    Runs the closed loop in chunks of :data:`CHUNK` requests and probes
    the host's speed after each; every latency of a chunk and the
    chunk's wall time are divided by the slowdown the probes on either
    side of it read.  Probe time is outside every chunk.
    """

    def __init__(self, loop, probe) -> None:
        self.loop = loop
        self.probe = probe
        self.submit = array("d")
        self.manage = array("d")
        #: ``(requests, scaled seconds)`` per chunk.
        self.chunks = []
        self.slowdowns = []
        self.wall = 0.0
        self.requests = 0
        self.peak_rss = 0

    def run(self, seconds=None, requests=None) -> None:
        loop = self.loop
        perf = time.perf_counter
        rss_read = False
        before = self.probe.read()
        started = perf()
        while True:
            if requests is not None and self.requests >= requests:
                break
            if seconds is not None and perf() - started >= seconds:
                break
            size = CHUNK if requests is None else min(CHUNK, requests - self.requests)
            first = (loop.requests, len(loop.submit_lat), len(loop.manage_lat))
            began, ended = loop.run(requests=size)
            after = self.probe.read()
            slow = speed.slowdown(before, after)
            before = after
            self.slowdowns.append(slow)
            self.submit.extend(x / slow for x in loop.submit_lat[first[1]:])
            self.manage.extend(x / slow for x in loop.manage_lat[first[2]:])
            self.chunks.append((loop.requests - first[0], (ended - began) / slow))
            self.wall += ended - began
            self.requests += loop.requests - first[0]
            if not rss_read and self.requests >= RSS_REQUESTS:
                self.peak_rss = max_rss_kb()
                rss_read = True
        if not rss_read:
            self.peak_rss = max_rss_kb()


def end_to_end(mix, mixes, inputs, seed, seconds, requests, workdir):
    # The probe's table is the benchmark's, not the program's: leave it
    # out of peak_rss_mb, and out of every collection the program pays.
    rss_before_probe = max_rss_kb()
    probe = speed.Probe()
    probe_kb = max_rss_kb() - rss_before_probe
    gc.freeze()
    setups = []
    raw_setups = []
    for _ in range(mix.setup_reps):
        deployment = None  # release the previous build first
        gc.collect()
        before = statistics.mean(probe.read() for _ in range(SETUP_PROBES))
        deployment, elapsed = deploy(mix, inputs, workdir)
        after = statistics.mean(probe.read() for _ in range(SETUP_PROBES))
        raw_setups.append(elapsed)
        setups.append(elapsed / speed.slowdown(before, after))
    loop = ClosedLoop(mixes, deployment, mix.stream(inputs, seed))
    loop.run(requests=mix.warmup_requests)
    warm = (loop.steps_done, loop.requests, len(loop.submit_lat), len(loop.manage_lat))
    phase = TimedPhase(loop, probe)
    with quiet_heap():
        if requests:
            phase.run(requests=requests)
        else:
            phase.run(seconds=seconds)
    timed = phase.requests
    submit = phase.submit
    manage = phase.manage
    peak_rss = phase.peak_rss - probe_kb
    qs = (0.50, 0.99)
    sub, sub_slices, sub_beyond = sliced_percentiles(submit, qs)
    man, man_slices, man_beyond = sliced_percentiles(manage, qs)
    raw_sub, _, _ = sliced_percentiles(loop.submit_lat[warm[2]:], qs)
    raw_man, _, _ = sliced_percentiles(loop.manage_lat[warm[3]:], qs)
    attempted = loop.requests
    failed = len(loop.failures)
    metrics = {
        "submit_p50_us": (sub[0.50] * 1e6, "us"),
        "submit_p99_us": (sub[0.99] * 1e6, "us"),
        "manage_p50_us": (man[0.50] * 1e6, "us"),
        "manage_p99_us": (man[0.99] * 1e6, "us"),
        "requests_per_s": (sliced_rate(phase.chunks), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss / 1024.0, "MB"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
    }

    def samples(n, slices, beyond, raw):
        flag = "  LOW SAMPLE COUNT" if beyond < MIN_BEYOND else ""
        return (
            f"n={n} in {slices} slices, >={beyond} beyond p99 per slice{flag}; "
            f"wall {raw * 1e6:.1f}"
        )

    slowdowns = sorted(phase.slowdowns)
    notes = {
        "submit_p50_us": samples(len(submit), sub_slices, sub_beyond, raw_sub[0.50]),
        "submit_p99_us": samples(len(submit), sub_slices, sub_beyond, raw_sub[0.99]),
        "manage_p50_us": samples(len(manage), man_slices, man_beyond, raw_man[0.50]),
        "manage_p99_us": samples(len(manage), man_slices, man_beyond, raw_man[0.99]),
        "requests_per_s": f"{timed} requests in {phase.wall:.3f} s wall, "
        f"{timed / phase.wall:.1f}/s overall; host slowdown min "
        f"{slowdowns[0]:.3f} median {statistics.median(slowdowns):.3f} "
        f"max {slowdowns[-1]:.3f} over {len(slowdowns)} chunks",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups)
        + "; wall " + ", ".join(f"{s:.4f}" for s in raw_setups),
        "peak_rss_mb": f"after set-up and the first {min(timed, RSS_REQUESTS)} measured "
        f"requests, less the speed probe's {probe_kb / 1024.0:.1f} MB",
        "ok_share": f"failed_share={failed / attempted:.6f} ({failed} of {attempted})",
    }
    steps = replay_stream(mix, inputs, seed, loop.steps_done)
    info = workload_shares(mixes, steps[warm[0]:], steps[: warm[0]])
    info["stream_digest"] = stream_digest(steps)
    info["outcome_digest"] = loop.outcome_digest()
    return metrics, notes, info, [loop], attempted, failed


def traced(mix, mixes, ledger_module, inputs, seed, seconds, requests, workdir, spans_path):
    from repro.core.pipeline import request_key

    # Untraced phase: the reference wall time and outcome digest.
    deployment, _ = deploy(mix, inputs, workdir)
    plain = ClosedLoop(mixes, deployment, mix.stream(inputs, seed))
    plain.run(requests=mix.warmup_requests)
    warm_steps = plain.steps_done
    with quiet_heap():
        if requests:
            start, end = plain.run(requests=requests)
        else:
            start, end = plain.run(seconds=seconds * TRACE_SHARE)
    untraced_wall = end - start
    phase_steps = plain.steps_done - warm_steps
    plain.dep = None
    gc.collect()

    # Traced phase: the same steps on a fresh deployment.
    deployment, _ = deploy(mix, inputs, workdir)
    service = deployment.service
    loop = ClosedLoop(mixes, deployment, mix.stream(inputs, seed))
    loop.run(steps=warm_steps)
    cache = service.pep.cache
    capability = service.capability

    def hits(layer):
        return (layer.hits, layer.misses) if layer is not None else (0, 0)

    before = (hits(cache), hits(capability), service.clock.processed)
    ledger = ledger_module.Ledger()
    loop.ledger = ledger
    first_request = loop.requests
    with quiet_heap():
        ledger.install(type(service.enforcement) if service.enforcement is not None else None)
        try:
            start, end = loop.run(steps=phase_steps)
        finally:
            ledger.uninstall()
    traced_wall = end - start
    n = loop.requests - first_request

    metrics = {}
    totals = ledger.layer_totals()
    for layer in ledger_module.LAYER_NAMES:
        calls, seconds_self = totals[layer]
        metrics[f"{layer}.calls_per_req"] = (calls / n, "count")
        metrics[f"{layer}.self_us_per_req"] = (seconds_self * 1e6 / n, "us")

    def ratio(after, earlier):
        hit, miss = after[0] - earlier[0], after[1] - earlier[1]
        return hit / (hit + miss) if hit + miss else 0.0

    def share(values, test):
        return sum(1 for v in values if test(v)) / len(values) if values else 0.0

    def mean_us(values):
        return statistics.mean(values) * 1e6 if values else 0.0

    metrics["core.pipeline.hit_ratio"] = (ratio(hits(cache), before[0]), "ratio")
    metrics["core.capability.hit_ratio"] = (ratio(hits(capability), before[1]), "ratio")
    metrics["core.query.fast_deny_ratio"] = (
        share(ledger.results["core.query"], lambda c: c.guaranteed_deny),
        "ratio",
    )
    metrics["core.evaluator.deny_ratio"] = (
        share(ledger.results["core.evaluator"], lambda d: not d.is_permit),
        "ratio",
    )
    metrics["core.store.publish_us"] = (mean_us(ledger.layer_durations("core.store")), "us")
    metrics["gram.spill.append_us"] = (mean_us(ledger.layer_durations("gram.spill")), "us")
    metrics["lrm.queue_depth"] = (float(statistics.mean(loop.queue_depths)), "jobs")
    metrics["sim.clock.events_per_req"] = ((service.clock.processed - before[2]) / n, "count")
    metrics["obs.spans_per_req"] = (ledger.entry_calls("Span.__enter__") / n, "count")
    metrics["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    metrics["trace.coverage"] = (ledger.root_seconds() / loop.step_seconds, "ratio")

    steps = replay_stream(mix, inputs, seed, loop.steps_done)
    for name, value in workload_shares(mixes, steps[warm_steps:], steps[:warm_steps]).items():
        metrics[name] = (value, "ratio")
    seen = set()
    repeated = set()
    for request_id, request in ledger.pep_requests:
        key = request_key(request)
        if key in seen:
            repeated.add(request_id)
        seen.add(key)
    metrics["core.pipeline.repeat_key_share"] = (len(repeated) / n, "ratio")
    metrics["samples.submit"] = (float(len(plain.submit_lat)), "count")
    metrics["samples.manage"] = (float(len(plain.manage_lat)), "count")

    written = ledger.write_jsonl(spans_path)
    digests_match = plain.outcome_digest() == loop.outcome_digest()
    notes = {
        f"{layer}.self_us_per_req": "moves " + ledger_module.MOVES[layer]
        for layer in ledger_module.LAYER_NAMES
    }
    notes["trace.overhead"] = (
        f"{traced_wall:.3f} s traced / {untraced_wall:.3f} s untraced, {n} requests"
    )
    notes["trace.coverage"] = f"{written} spans written to {spans_path}"
    info = {
        "stream_digest": stream_digest(steps),
        "outcome_digest": loop.outcome_digest(),
        "untraced_outcome_digest": plain.outcome_digest(),
        "digests_match": digests_match,
    }
    attempted = plain.requests + loop.requests
    failed = len(plain.failures) + len(loop.failures) + (0 if digests_match else 1)
    return metrics, notes, info, [plain, loop], attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="measure this many requests instead of --seconds (smoke runs)",
    )
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="population size; tiny is for the smoke test",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SRC}; run from a source checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import ledger as ledger_module
    import mixes

    mix = mixes.MIXES.get(args.workload)
    if mix is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(mixes.MIXES)}",
            file=sys.stderr,
        )
        return 2

    inputs = mix.inputs(args.seed, args.scale)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{mix.name}-", dir=OUT)
    try:
        if args.trace:
            spans_path = str(OUT / f"{mix.name}.spans.jsonl")
            result = traced(
                mix, mixes, ledger_module, inputs, args.seed, args.seconds,
                args.requests, workdir, spans_path,
            )
        else:
            result = end_to_end(
                mix, mixes, inputs, args.seed, args.seconds, args.requests, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, notes, info, loops, attempted, failed = result

    print(f"workload {mix.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit:6s} {notes.get(name, '')}")
    for name, value in info.items():
        if isinstance(value, float):
            print(f"  {name:40s} {value:14.4f}")
        else:
            print(f"  {name:40s} {value}")
    for loop in loops:
        for index, step, got, detail in loop.failures[:20]:
            print(f"MISMATCH step {index}: {step!r} -> {got}: {detail}", file=sys.stderr)
    if info.get("digests_match") is False:
        print("MISMATCH: traced and untraced outcome digests differ", file=sys.stderr)
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
