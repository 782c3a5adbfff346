"""One set of books: the vocabulary every result's accounting check uses.

The farm, campaign, pipeline-timeline and ladder results state their
identities as data and hand them here.  A **row** ``(label, got, want[,
tol])`` holds when ``got == want`` (within ``tol`` when given); counts
of violating records are rows wanting 0, one-sided bounds are rows
whose ``got`` is the claim's truth value.  A **span count** names how
many spans of each name a tracer must hold.  Both return one
human-readable failure per identity that does not hold.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.obs.tracer import Tracer


def row_failures(rows: Iterable[tuple]) -> list[str]:
    """One message per ``(label, got, want[, tol])`` row that does not hold."""
    fails = []
    for label, got, want, *tol in rows:
        if not (abs(got - want) <= tol[0] if tol else got == want):  # NaN never holds
            fails.append(f"{label}: got {got}, want {want}" + (f" (tol {tol[0]})" if tol else ""))
    return fails


def span_count_failures(
    tracer: Tracer | None, want: dict[str, int], cat: str | None = None
) -> list[str]:
    """One message per span name (of category ``cat``, if given) whose
    count differs from ``want``; an absent or disabled tracer has none."""
    if tracer is None or not tracer.enabled:
        return []
    got = Counter(s.name for s in tracer.spans if cat is None or s.cat == cat)
    return [f"{got[k]} {k!r} spans, expected {n}" for k, n in want.items() if got[k] != n]
