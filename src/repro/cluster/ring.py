"""Consistent hashing with virtual nodes.

The ring places ``vnodes`` points per node on a 64-bit circle; a key is
owned by the first node clockwise of its hash.  Replica sets come from
continuing the walk until ``r`` *distinct* nodes are collected, so
replicas are always different machines no matter how the virtual points
interleave.

Why this construction (and not mod-N routing such as
``crc32(name) % N``):

* **Minimal movement.**  Adding or removing one node only reassigns the
  keys whose clockwise walk hit that node's points -- an expected
  ``1/N`` of keys, ``~2/N`` with replication, versus nearly all of them
  under mod-N routing.  The durability story depends on this: a metric
  that moves loses its journal history on the node that held it.
* **Failover preserves seniority.**  Dropping a dead node from the
  ``live`` set keeps every survivor's relative order on the circle, and
  only *appends* new owners at the end of a walk.  The first live owner
  of a key is therefore always the most senior surviving replica -- the
  one that has held the metric's full stream the longest -- which is
  what makes the cluster client's query failover answer with a full
  (not partial) summary.

Hashes are :func:`hashlib.blake2b` digests, **not** Python's ``hash()``:
placement must be identical across processes and interpreter runs
(``PYTHONHASHSEED`` randomises ``hash()``), because clients, the
coordinator and every test re-derive it independently from the manifest.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from dataclasses import dataclass, field

from .errors import ClusterConfigError

__all__ = ["HashRing", "OwnershipDelta", "ownership_delta", "DEFAULT_VNODES"]

#: virtual points per node; 64 keeps the max/mean key-load imbalance in
#: the few-percent range for small clusters while the ring stays tiny
#: (N*64 16-byte entries)
DEFAULT_VNODES = 64


def _hash64(data: str) -> int:
    """Process-stable 64-bit hash of *data*."""
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class HashRing:
    """An immutable-placement consistent-hash ring.

    Mutation (``add`` / ``remove``) rebuilds the sorted point array;
    lookups are a ``bisect`` plus a short clockwise walk.  Equality of
    inputs gives equality of placement -- there is no hidden state.
    """

    def __init__(
        self, nodes: Iterable[str] = (), *, vnodes: int = DEFAULT_VNODES
    ) -> None:
        if vnodes < 1:
            raise ClusterConfigError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._nodes: Set[str] = set()
        self._points: List[Tuple[int, str]] = []
        self._keys: List[int] = []
        for node in nodes:
            self.add(node)

    # -- membership --------------------------------------------------------

    @property
    def nodes(self) -> Set[str]:
        return set(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        if not node:
            raise ClusterConfigError("node id must be non-empty")
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.vnodes):
            point = _hash64(f"{node}#{i}")
            # ties broken by node id so placement is deterministic even
            # in the astronomically unlikely event of a point collision
            bisect.insort(self._points, (point, node))
        self._keys = [p for p, _ in self._points]

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [
            (p, n) for p, n in self._points if n != node
        ]
        self._keys = [p for p, _ in self._points]

    # -- placement ---------------------------------------------------------

    def owners(
        self,
        key: str,
        r: int = 1,
        *,
        live: Optional[Set[str]] = None,
    ) -> List[str]:
        """The first *r* distinct nodes clockwise of *key*'s hash.

        ``live`` restricts the walk to that subset (dead nodes are
        skipped, preserving the order of the survivors).  Returns fewer
        than *r* nodes when fewer distinct candidates exist; an empty
        list when none do.
        """
        if r < 1:
            raise ClusterConfigError(f"replication must be >= 1, got {r}")
        if not self._points:
            return []
        eligible = self._nodes if live is None else (self._nodes & live)
        if not eligible:
            return []
        want = min(r, len(eligible))
        start = bisect.bisect_right(self._keys, _hash64(key))
        n_points = len(self._points)
        out: List[str] = []
        seen: Set[str] = set()
        for step in range(n_points):
            node = self._points[(start + step) % n_points][1]
            if node in seen or node not in eligible:
                continue
            seen.add(node)
            out.append(node)
            if len(out) == want:
                break
        return out

    def owner(
        self, key: str, *, live: Optional[Set[str]] = None
    ) -> Optional[str]:
        """The primary (first live) owner of *key*, or ``None``."""
        found = self.owners(key, 1, live=live)
        return found[0] if found else None

    def load(self, keys: Sequence[str]) -> Dict[str, int]:
        """How many of *keys* each node primarily owns (balance check)."""
        counts: Dict[str, int] = {node: 0 for node in self._nodes}
        for key in keys:
            node = self.owner(key)
            if node is not None:
                counts[node] += 1
        return counts


@dataclass
class OwnershipDelta:
    """Per-key ownership movement between two ring layouts.

    ``gains[node]`` lists the keys *node* owns after but not before (it
    must acquire their state); ``losses[node]`` the keys it owned before
    but not after (it may drop them once the gainers are live).
    ``moved`` is every key whose owner set changed at all, and
    ``moved_fraction`` is ``len(moved) / len(keys)`` -- the quantity the
    ring's minimal-movement property bounds at roughly ``r/N`` for a
    single join or leave.
    """

    gains: Dict[str, List[str]] = field(default_factory=dict)
    losses: Dict[str, List[str]] = field(default_factory=dict)
    moved: List[str] = field(default_factory=list)
    moved_fraction: float = 0.0

    def transfers(self) -> List[Tuple[str, str]]:
        """Flat ``(key, gaining_node)`` pairs, deterministic order."""
        out: List[Tuple[str, str]] = []
        for node in sorted(self.gains):
            for key in self.gains[node]:
                out.append((key, node))
        return out


def ownership_delta(
    before: HashRing,
    after: HashRing,
    keys: Sequence[str],
    r: int = 1,
) -> OwnershipDelta:
    """Which of *keys* change owners between two ring layouts.

    Both rings are walked with the same replication factor *r* and no
    liveness filter -- the delta describes *placement*, i.e. where state
    must live once every member is healthy.  Only the keys whose walk
    actually crossed an added/removed node's points appear; for a single
    membership change that is the ring's minimal-movement guarantee
    (expected ``~r/N`` of keys), and callers migrate exactly
    ``transfers()`` instead of resending the world.
    """
    delta = OwnershipDelta()
    for key in keys:
        old = before.owners(key, r)
        new = after.owners(key, r)
        if old == new:
            continue
        old_set, new_set = set(old), set(new)
        gained = [n for n in new if n not in old_set]
        lost = [n for n in old if n not in new_set]
        if not gained and not lost:
            continue  # same set, different order: nothing to move
        delta.moved.append(key)
        for node in gained:
            delta.gains.setdefault(node, []).append(key)
        for node in lost:
            delta.losses.setdefault(node, []).append(key)
    delta.moved_fraction = (
        len(delta.moved) / len(keys) if len(keys) else 0.0
    )
    return delta
