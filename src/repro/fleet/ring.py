"""Consistent hashing of tenant ids onto shard workers.

The fleet supervisor places every tenant on exactly one shard. Placement
must be (a) deterministic across processes and runs — routing decisions
may not depend on ``PYTHONHASHSEED`` — and (b) *stable under resharding*:
growing the pool from N to N+1 shards should relocate only ~1/(N+1) of
the tenants, because each relocation hands a tenant's store and a copy
of its warm models to the receiving shard.

Classic consistent hashing with virtual nodes delivers both: each shard
owns ``DEFAULT_VNODES`` pseudo-random points on a 64-bit ring (blake2b of
``"shard:vnode"``), and a tenant maps to the owner of the first point at
or after the tenant's own hash. The property test in
``tests/fleet/test_ring.py`` pins the ~1/N movement bound.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import ConfigurationError

#: Ring points per shard. More vnodes smooth the tenant distribution
#: across shards at the cost of a larger (still tiny) sorted ring.
DEFAULT_VNODES = 64


def _hash64(key: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """A consistent-hash ring mapping string keys to shard indices."""

    def __init__(self, shards: Sequence[int]) -> None:
        self._points: List[Tuple[int, int]] = []
        self._hashes: List[int] = []
        self._shards: List[int] = []
        for shard in shards:
            self.add_shard(shard)

    @property
    def shards(self) -> List[int]:
        """The shard indices currently on the ring, sorted."""
        return sorted({shard for _, shard in self._points})

    def add_shard(self, shard: int) -> None:
        """Place one shard's virtual nodes on the ring."""
        if any(s == shard for _, s in self._points):
            raise ConfigurationError(f"shard {shard} is already on the ring")
        for v in range(DEFAULT_VNODES):
            point = (_hash64(f"{shard}:{v}"), shard)
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
        self._rebuild()

    def remove_shard(self, shard: int) -> None:
        """Remove one shard's virtual nodes from the ring."""
        remaining = [(h, s) for h, s in self._points if s != shard]
        if len(remaining) == len(self._points):
            raise ConfigurationError(f"shard {shard} is not on the ring")
        self._points = remaining
        self._rebuild()

    def _rebuild(self) -> None:
        self._hashes = [h for h, _ in self._points]
        self._shards = [s for _, s in self._points]

    def shard_for(self, key: str) -> int:
        """The shard owning ``key`` (first vnode at or after its hash)."""
        if not self._points:
            raise ConfigurationError("the ring has no shards")
        index = bisect.bisect_right(self._hashes, _hash64(key))
        if index == len(self._hashes):
            index = 0
        return self._shards[index]

    def assignments(self, keys: Sequence[str]) -> Dict[str, int]:
        """Map every key to its shard in one pass."""
        return {key: self.shard_for(key) for key in keys}


__all__ = ["DEFAULT_VNODES", "HashRing"]
