"""Cluster topology: nodes, CPUs and allocations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.lrm.errors import AllocationError


class Node:
    """One machine with a fixed number of CPUs."""

    def __init__(self, name: str, cpus: int) -> None:
        if cpus <= 0:
            raise ValueError(f"node {name!r} needs at least one CPU")
        self.name = name
        self.cpus = cpus
        self.used = 0

    @property
    def free(self) -> int:
        return self.cpus - self.used

    def take(self, count: int) -> None:
        if count > self.free:
            raise AllocationError(
                f"node {self.name!r} has {self.free} free CPUs, asked for {count}"
            )
        self.used += count

    def give_back(self, count: int) -> None:
        if count > self.used:
            raise AllocationError(
                f"node {self.name!r} releasing {count} CPUs but only {self.used} in use"
            )
        self.used -= count

    def __repr__(self) -> str:
        return f"Node({self.name!r}, {self.used}/{self.cpus})"


@dataclass(frozen=True)
class Allocation:
    """CPUs granted to one job: ``(node name, cpu count)`` pairs."""

    parts: Tuple[Tuple[str, int], ...]

    @property
    def total_cpus(self) -> int:
        return sum(count for _, count in self.parts)

    def __str__(self) -> str:
        return "+".join(f"{name}:{count}" for name, count in self.parts)


class Cluster:
    """A named collection of nodes with first-fit CPU allocation.

    The cluster is the only writer of its nodes' ``used`` counts, so it
    keeps ``free_cpus`` as a running total and looks nodes up by name
    in a map built once: neither a ``free_cpus`` read nor
    :meth:`release` walks the node list.  First-fit starts at the
    lowest node that may have a free CPU; every node before
    ``_first_free`` is full.
    """

    def __init__(self, name: str, nodes: Iterable[Node]) -> None:
        self.name = name
        self.nodes: List[Node] = list(nodes)
        if not self.nodes:
            raise ValueError(f"cluster {name!r} needs at least one node")
        self._index: Dict[str, int] = {
            node.name: i for i, node in enumerate(self.nodes)
        }
        if len(self._index) != len(self.nodes):
            raise ValueError(f"duplicate node names in cluster {name!r}")
        self.total_cpus = sum(node.cpus for node in self.nodes)
        self.free_cpus = sum(node.free for node in self.nodes)
        self._first_free = 0

    @classmethod
    def homogeneous(cls, name: str, node_count: int, cpus_per_node: int) -> "Cluster":
        return cls(
            name,
            [Node(f"{name}-n{i:03d}", cpus_per_node) for i in range(node_count)],
        )

    @property
    def used_cpus(self) -> int:
        return self.total_cpus - self.free_cpus

    @property
    def utilization(self) -> float:
        return self.used_cpus / self.total_cpus if self.total_cpus else 0.0

    def can_allocate(self, cpus: int) -> bool:
        return 0 < cpus <= self.free_cpus

    def fits(self, cpus: int) -> bool:
        """Whether *cpus* could ever be allocated on this cluster."""
        return 0 < cpus <= self.total_cpus

    def allocate(self, cpus: int) -> Allocation:
        """First-fit allocation over nodes; may span several nodes."""
        if cpus <= 0:
            raise AllocationError(f"cannot allocate {cpus} CPUs")
        if cpus > self.free_cpus:
            raise AllocationError(
                f"cluster {self.name!r} has {self.free_cpus} free CPUs, "
                f"asked for {cpus}"
            )
        nodes = self.nodes
        index = self._first_free
        while nodes[index].free == 0:
            index += 1
        self._first_free = index
        remaining = cpus
        parts: List[Tuple[str, int]] = []
        while remaining:
            node = nodes[index]
            grab = min(node.free, remaining)
            if grab > 0:
                node.take(grab)
                parts.append((node.name, grab))
                remaining -= grab
            index += 1
        self.free_cpus -= cpus
        return Allocation(parts=tuple(parts))

    def release(self, allocation: Allocation) -> None:
        for name, count in allocation.parts:
            index = self._index.get(name)
            if index is None:
                raise AllocationError(f"allocation references unknown node {name!r}")
            self.nodes[index].give_back(count)
            self.free_cpus += count
            if index < self._first_free:
                self._first_free = index

    def __str__(self) -> str:
        return (
            f"Cluster[{self.name}: {len(self.nodes)} nodes, "
            f"{self.used_cpus}/{self.total_cpus} CPUs in use]"
        )
