"""The running free-CPU total against a naive node-summing reference.

:class:`NaiveCluster` is the first fit that walked every node for each
``free_cpus`` read and rebuilt a name map on each release.  A seeded
sequence of allocations, releases, over-allocations, double releases
and releases of foreign allocations must produce identical
:class:`Allocation`\\ s and identical :class:`AllocationError` texts on
both, and ``free_cpus`` must equal the nodes' free sum after every step.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.lrm.cluster import Allocation, Cluster, Node
from repro.lrm.errors import AllocationError


class NaiveCluster:
    def __init__(self, name: str, nodes: List[Node]) -> None:
        self.name = name
        self.nodes = nodes

    @property
    def free_cpus(self) -> int:
        return sum(node.free for node in self.nodes)

    def allocate(self, cpus: int) -> Allocation:
        if cpus <= 0:
            raise AllocationError(f"cannot allocate {cpus} CPUs")
        if cpus > self.free_cpus:
            raise AllocationError(
                f"cluster {self.name!r} has {self.free_cpus} free CPUs, "
                f"asked for {cpus}"
            )
        remaining = cpus
        parts: List[Tuple[str, int]] = []
        for node in self.nodes:
            if remaining == 0:
                break
            grab = min(node.free, remaining)
            if grab > 0:
                node.take(grab)
                parts.append((node.name, grab))
                remaining -= grab
        return Allocation(parts=tuple(parts))

    def release(self, allocation: Allocation) -> None:
        by_name: Dict[str, Node] = {node.name: node for node in self.nodes}
        for name, count in allocation.parts:
            node = by_name.get(name)
            if node is None:
                raise AllocationError(f"allocation references unknown node {name!r}")
            node.give_back(count)


def _nodes(sizes: List[int]) -> List[Node]:
    return [Node(f"n{i:02d}", cpus) for i, cpus in enumerate(sizes)]


def _outcome(call):
    try:
        return ("ok", call())
    except AllocationError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("seed", range(8))
def test_seeded_sequence_matches_naive_reference(seed):
    rng = random.Random(seed)
    sizes = [rng.choice((1, 2, 4, 8)) for _ in range(rng.randint(1, 12))]
    cluster = Cluster("c", _nodes(sizes))
    naive = NaiveCluster("c", _nodes(sizes))
    total = sum(sizes)
    held: List[Allocation] = []
    released: List[Allocation] = []
    for _ in range(400):
        roll = rng.random()
        if roll < 0.45 or not held:
            cpus = rng.randint(-1, total + 2)
            expected = _outcome(lambda: naive.allocate(cpus))
            actual = _outcome(lambda: cluster.allocate(cpus))
            if actual[0] == "ok":
                held.append(actual[1])
        elif roll < 0.8:
            allocation = held.pop(rng.randrange(len(held)))
            released.append(allocation)
            expected = _outcome(lambda: naive.release(allocation))
            actual = _outcome(lambda: cluster.release(allocation))
        elif roll < 0.9 and released:
            # Releasing twice may fail part-way; both must stop at the
            # same node having given back the same CPUs.
            allocation = rng.choice(released)
            expected = _outcome(lambda: naive.release(allocation))
            actual = _outcome(lambda: cluster.release(allocation))
        else:
            bogus = Allocation(
                parts=((f"n{rng.randrange(len(sizes)):02d}", 1), ("elsewhere", 1))
            )
            expected = _outcome(lambda: naive.release(bogus))
            actual = _outcome(lambda: cluster.release(bogus))
        assert actual == expected
        assert [n.used for n in cluster.nodes] == [n.used for n in naive.nodes]
        assert cluster.free_cpus == sum(n.free for n in cluster.nodes)
        assert cluster.used_cpus == total - cluster.free_cpus
        assert cluster.can_allocate(1) == (cluster.free_cpus > 0)


def test_first_fit_reuses_the_lowest_freed_node():
    cluster = Cluster.homogeneous("c", node_count=3, cpus_per_node=2)
    first = cluster.allocate(2)
    cluster.allocate(3)
    cluster.release(first)
    assert str(cluster.allocate(1)) == "c-n000:1"
    assert str(cluster.allocate(2)) == "c-n000:1+c-n002:1"
    assert cluster.free_cpus == 0
