"""Host speed probe: scales wall times to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts
by up to about 2x over seconds to minutes as other tenants load it.
The drift shows in thread CPU time as much as in wall time (the
tenants share the cache, they do not just take turns), and the host
exposes no instruction or cache-miss counter.  So the runner reads a
fixed pure-Python probe between short chunks of requests and divides
each chunk's times by the host slowdown the probe reads.  The probe
touches nothing of the program under test, so a change to the program
moves the scaled figures exactly as it moves wall time at a steady host
speed; only the host's drift is divided out.

The probe looks up random records in a table of about 60 MB, so it
waits on the shared cache as a request does.  Two other probes were
tried and dropped.  Pure interpreter work on a small working set swung
as much, but the requests' speed did not follow it.  A 13 MB table
followed the swings within a run as well, but under heavy load it
under-read whole runs: over ten 30-second nfc_mixed runs, scaled
submit_p50_us rose with the run's median slowdown and its spread
across runs was 0.15 of the median, against 0.07 with this table
(both divided with the power 1.5 below).

Requests slow down more than the probe does, so the slowdown is the
probe's time over :data:`REFERENCE_S` raised to :data:`SENSITIVITY`.
On a 2-core Xeon VM (2 MB L2 per core, 105 MB shared L3), within
20-second runs of each workload cut into chunks of 100 requests, the
log of a chunk's time per request rose 1.4-1.8 times as fast as the log
of the probe's time (least squares over groups of 10 chunks); divided
by the probe's time to the power 1.5, its standard deviation fell from
0.12-0.16 to 0.06-0.08.  Between whole runs the power was higher: over
two sets of ten 30-second runs per workload divided with 1.5, the
scaled medians and throughput still rose with the run's median
slowdown, at powers of 1.75-2.5 (p99s fitted 1.3-2.5).  Re-scaled by
each run's median slowdown, 2.25 gave the smallest worst spread of the
p50s over those six sets of ten (0.10 of the median, against 0.20 with
1.5), at the cost of the p99s, whose bound is wider.  A fresh set of
ten runs per workload with 2.25, under load that slowed requests 2-3
times, kept the spread of every p50 and of throughput within 0.11 of
the median and of every p99 within 0.21.
"""

from __future__ import annotations

import random
import time

#: Probe time at the reference speed (the probe's fastest tenth on the
#: VM named above).  Scaled times read as wall times on a host where one
#: probe takes this long.
REFERENCE_S = 0.0014
#: How much faster than the probe's time a request's time rises with
#: outside load, as a power (see above).
SENSITIVITY = 2.25
#: Records in the table, and lookups per probe.  Successive probes look
#: up different records.
TABLE_SIZE = 150_000
LOOKUPS = 1_500


class _Record:
    __slots__ = ("owner", "count", "tags")

    def __init__(self, index: int) -> None:
        self.owner = f"/O=Grid/OU=probe/CN=User {index}"
        self.count = index % 7
        self.tags = {"jobtag": f"T{index % 13}", "queue": "short"}


class Probe:
    """Reads how slow the host is right now."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = {}
        for index in range(TABLE_SIZE):
            record = _Record(index)
            self._table[record.owner] = record
        owners = list(self._table)
        self._keys = [owners[rng.randrange(TABLE_SIZE)] for _ in range(LOOKUPS * 100)]
        self._cursor = 0

    def read(self) -> float:
        """Seconds one probe takes now."""
        start = self._cursor
        self._cursor = (start + LOOKUPS) % len(self._keys)
        table = self._table
        keys = self._keys
        total = 0
        # Allocates no container, so no collection can start inside.
        started = time.perf_counter()
        for index in range(start, start + LOOKUPS):
            record = table[keys[index]]
            if record.owner.endswith("7") and record.tags.get("jobtag"):
                total += record.count
        return time.perf_counter() - started


def slowdown(before: float, after: float) -> float:
    """Host slowdown over an interval bracketed by two probe readings."""
    return ((before + after) / (2.0 * REFERENCE_S)) ** SENSITIVITY
