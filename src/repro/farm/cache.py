"""The service-wide cache tier.

Two layers, mirroring what the per-renderer code already taught us:

* **Plan tier** — geometry reuse.  Execution backends share one
  :class:`repro.core.FramePlanCache` (or its analytic analog, a priced
  :class:`FrameEstimate` memo) across *all* sessions, so the second
  tenant watching the same dataset at the same partition size pays no
  planning cost.  That tier lives in :mod:`repro.farm.backends`.

* **Result tier** — :class:`FrameResultCache` here: a bounded LRU of
  finished frames keyed on :attr:`FrameRequest.frame_key
  <repro.farm.request.FrameRequest.frame_key>` ``(dataset, step,
  camera, transfer)``.  A hit means the frame already exists somewhere
  in the service, so the request completes in **zero simulated service
  time** and never allocates a partition.  Correctness rests on the
  key: everything that can change a pixel is in it, and nothing that
  cannot (the partition size a frame happened to be rendered on is an
  execution detail, not an image property).
"""

from __future__ import annotations

from typing import Any

from repro.utils.lru import LRU


class FrameResultCache(LRU):
    """Bounded LRU of rendered frames keyed on ``frame_key``.

    ``max_entries <= 0`` disables the cache entirely (every lookup
    misses), which is how the capacity study runs its cache-off arm.
    :meth:`touch` (inherited) refreshes recency without counting: the
    dispatcher uses it when a queued job is promoted by a frame that
    got cached while it waited, since that request-level hit is
    accounted as a *promotion*.
    """

    def __init__(self, max_entries: int = 256):
        super().__init__(max_entries)
        self.invalidated = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def lookup(self, key: tuple) -> Any | None:
        """The cached frame for ``key``, refreshing recency; else None.

        A disabled cache (``max_entries <= 0``) counts neither hits nor
        misses: there is no cache to miss, and the capacity study's
        cache-off arm must report 0/0, not a miss per request.
        """
        return self.get(key) if self.enabled else None

    def contains(self, key: tuple) -> bool:
        """Membership test that does *not* count as a lookup."""
        return key in self

    def invalidate_dataset(self, dataset: str) -> int:
        """Drop every frame of ``dataset`` (it published new data).

        ``frame_key`` leads with the dataset name, so matching is a
        prefix test.  Returns the number of entries dropped.
        """
        dropped = self.drop(lambda k: k[0] == dataset)
        self.invalidated += dropped
        return dropped

    def store(self, key: tuple, value: Any) -> None:
        if self.enabled:
            self.put(key, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FrameResultCache {len(self)}/{self.max_entries} "
            f"entries, {self.hits} hits / {self.misses} misses>"
        )
