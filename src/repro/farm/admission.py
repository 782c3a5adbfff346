"""Admission control: per-tier token buckets with explicit shed accounting.

When arrivals outrun the machine, an unprotected queue grows without
bound and *every* tenant's latency diverges.  The service instead sheds
load at the front door: each tenant class (``FrameRequest.tier``) owns
a token bucket refilled on the simulated clock, and a request that
needs **new render work** must take a token or be rejected on the spot.

Two deliberate asymmetries:

* Cache hits, edge hits, and single-flight attaches are *free* — they
  consume no machine time, so admission never sheds them.  Admission
  guards partitions, not the front door itself.
* Rejections are first-class accounting, not silence: every shed
  request gets a :class:`~repro.farm.request.RequestRecord` flagged
  ``rejected`` in ``FarmResult.rejected`` (kept out of the served
  records so latency percentiles stay honest) and a zero-length
  ``reject`` span in :data:`~repro.obs.tracer.CAT_ADMIT`.

Buckets refill lazily: tokens accrue at ``rate_hz`` up to ``burst``
capacity, computed at each ``admit()`` from the elapsed simulated time,
so no engine events are spent on refills.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.errors import ConfigError


@dataclass(frozen=True)
class TierSpec:
    """One tenant class's admission budget.

    ``rate_hz`` is the sustained admission rate; ``burst`` is the
    bucket depth (how many requests may land back-to-back before the
    tier is throttled to the sustained rate).
    """

    rate_hz: float
    burst: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ConfigError(f"admission tier needs rate_hz > 0, got {self.rate_hz}")
        if self.burst < 1:
            raise ConfigError(f"admission tier needs burst >= 1, got {self.burst}")


class _Bucket:
    """Lazily refilled token bucket on the simulated clock."""

    __slots__ = ("spec", "tokens", "t_last")

    def __init__(self, spec: TierSpec):
        self.spec = spec
        self.tokens = float(spec.burst)  # buckets start full
        self.t_last = 0.0

    def take(self, now: float) -> bool:
        self.tokens = min(
            float(self.spec.burst), self.tokens + (now - self.t_last) * self.spec.rate_hz
        )
        self.t_last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class TokenBucketAdmission:
    """Per-tier token buckets; tiers without a spec are never shed.

    ``tiers`` maps tier names to :class:`TierSpec`; ``default`` (if
    given) covers any tier not named explicitly.  A tier with neither
    is *unlimited* — the common configuration limits only the free or
    batch class and lets interactive traffic through untouched.
    """

    def __init__(
        self,
        tiers: dict[str, TierSpec] | None = None,
        default: TierSpec | None = None,
    ):
        self.tiers = dict(tiers or {})
        self.default = default
        self._buckets: dict[str, _Bucket] = {}
        self.admitted: dict[str, int] = {}
        self.rejected: dict[str, int] = {}

    def admit(self, tier: str, now: float) -> bool:
        """Spend one token from ``tier``'s bucket; False means shed."""
        spec = self.tiers.get(tier, self.default)
        if spec is None:
            self.admitted[tier] = self.admitted.get(tier, 0) + 1
            return True
        bucket = self._buckets.get(tier)
        if bucket is None:
            bucket = self._buckets[tier] = _Bucket(spec)
        if bucket.take(now):
            self.admitted[tier] = self.admitted.get(tier, 0) + 1
            return True
        self.rejected[tier] = self.rejected.get(tier, 0) + 1
        return False

    @property
    def total_admitted(self) -> int:
        return sum(self.admitted.values())

    @property
    def total_rejected(self) -> int:
        return sum(self.rejected.values())

    def summary(self) -> dict:
        """JSON-able stats, reconciling with ``FarmResult.rejected``."""
        tiers = sorted(set(self.admitted) | set(self.rejected))
        return {
            "limited_tiers": sorted(self.tiers),
            "default_limited": self.default is not None,
            "admitted": self.total_admitted,
            "rejected": self.total_rejected,
            "per_tier": {
                t: {
                    "admitted": self.admitted.get(t, 0),
                    "rejected": self.rejected.get(t, 0),
                }
                for t in tiers
            },
        }
