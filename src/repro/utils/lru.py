"""One bounded least-recently-used map, shared by every cache.

The schedule memo, the frame-plan cache, the farm's result cache and
each edge region all keep the same rule: a hit moves its entry to the
back, and a put evicts from the front until the new entry fits.  A
plain dict keeps insertion order, so pop-and-reinsert is the whole
recency update.  Without the reinsert the order is insertion (FIFO),
and an orbit campaign one camera larger than the cache misses on every
frame of every revolution.

A stored ``None`` reads as a miss; no cache here stores one.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable


class LRU:
    """Bounded map with hit/miss counters; evicts the least recently used.

    ``get`` counts and refreshes, ``touch`` refreshes without counting,
    ``peek`` does neither.  ``clear`` drops the entries and keeps the
    counters.
    """

    def __init__(self, max_entries: int):
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self._entries: dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Any | None:
        """The entry for ``key``, now most recent, counting a hit; else a miss."""
        value = self.touch(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def touch(self, key: Hashable) -> Any | None:
        """Like :meth:`get`, but counts nothing."""
        value = self._entries.pop(key, None)
        if value is not None:
            self._entries[key] = value
        return value

    def peek(self, key: Hashable) -> Any | None:
        """The entry for ``key``, leaving recency and counters alone."""
        return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` as the most recent entry, evicting the oldest."""
        entries = self._entries
        entries.pop(key, None)
        while len(entries) >= self.max_entries:
            entries.pop(next(iter(entries)))
        entries[key] = value

    def pop(self, key: Hashable) -> Any | None:
        return self._entries.pop(key, None)

    def drop(self, predicate: Callable[[Hashable], bool]) -> int:
        """Remove every entry whose key satisfies ``predicate``; return the count."""
        stale = [k for k in self._entries if predicate(k)]
        for k in stale:
            del self._entries[k]
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()
