"""Consistent-hash ring routing plan content keys to service replicas.

Each replica owns ``vnodes`` points on a 64-bit hash circle; a key
routes to the first replica point clockwise of the key's own hash.  Two
properties make this the right router for a sharded plan-serving tier:

- **Stability** — every key deterministically maps to one replica, so a
  replica sees a stable subset of the key space and its bounded
  program cache stays hot (the cuTT/PR-3 warm-reuse insight,
  shard-level).  The hash is :func:`hashlib.blake2b` over the key and
  replica label bytes: deterministic across processes, interpreter
  restarts, and ``PYTHONHASHSEED`` — every front end instance routes
  identically.
- **Bounded movement** — adding or removing one replica only remaps the
  keys whose clockwise-first point belonged to the affected arcs, ~1/N
  of the key space, instead of rehashing everything (what ``hash(key) %
  N`` would do).

``tests/test_serving_ring.py`` pins both properties plus the imbalance
bound over zipf-weighted key sets.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Hashable, List, Sequence

#: Points per replica.  More vnodes -> tighter load spread between
#: replicas at the cost of a larger (still tiny) routing table.
DEFAULT_VNODES = 128


def _hash64(data: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


class HashRing:
    """A consistent-hash ring over hashable replica labels."""

    def __init__(self, nodes: Sequence[Hashable] = (), vnodes: int = DEFAULT_VNODES):
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.vnodes = vnodes
        self._points: List[int] = []
        self._owners: Dict[int, Hashable] = {}
        self._nodes: List[Hashable] = []
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    def add(self, node: Hashable) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} is already on the ring")
        label = repr(node).encode("utf-8")
        for v in range(self.vnodes):
            point = _hash64(label + b"#" + str(v).encode("ascii"))
            # A 64-bit collision between distinct vnode labels is
            # astronomically unlikely; first owner wins if it happens.
            if point not in self._owners:
                self._owners[point] = node
                bisect.insort(self._points, point)
        self._nodes.append(node)

    def remove(self, node: Hashable) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node!r} is not on the ring")
        self._nodes.remove(node)
        stale = [p for p, owner in self._owners.items() if owner == node]
        for point in stale:
            del self._owners[point]
        stale_set = set(stale)
        self._points = [p for p in self._points if p not in stale_set]

    @property
    def nodes(self) -> List[Hashable]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    def route(self, key: str) -> Hashable:
        """The replica owning ``key`` (clockwise-first point)."""
        if not self._points:
            raise ValueError("cannot route on an empty ring")
        point = _hash64(key.encode("utf-8"))
        idx = bisect.bisect_right(self._points, point)
        if idx == len(self._points):
            idx = 0  # wrap past the top of the circle
        return self._owners[self._points[idx]]

    def distribution(self, keys: Sequence[str]) -> Dict[Hashable, int]:
        """How many of ``keys`` each replica owns (diagnostics/tests)."""
        counts: Dict[Hashable, int] = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.route(key)] += 1
        return counts
