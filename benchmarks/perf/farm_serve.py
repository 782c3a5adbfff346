"""Service-tier wall-clock guard: the flash-crowd scenario stays fast.

The farm's service tier (single-flight coalescing, regional edge
caches, admission, reactive autoscaling) runs on the pure-python DES
engine; its cost is bookkeeping per request, not numerics.  This
benchmark times the committed flash-crowd capacity scenario end to
end — 124 arrivals, 48 of them a single-frame spike — in two arms:

* ``samples`` (the guard metric): the full service, where the spike
  collapses onto one in-flight render;
* ``cold_seconds``: coalescing and the edge tier disabled, so every
  repeat reaches the origin queue.

The guard pins the *hot* arm: the whole point of the tier is that
absorbing a crowd costs hash lookups, so its wall clock must not
drift up as the service grows.  The entry also records the semantic
counters (rendered/coalesced/edge hits) — if those change, the
scenario changed, and the timing comparison is meaningless.
"""

from __future__ import annotations


def bench_farm_edge_serve(repeats: int = 5) -> dict:
    from statistics import median

    from benchmarks.perf.suite import timed
    from repro.farm import flash_scenario

    warm = flash_scenario()
    cold = flash_scenario(coalesce=False, edge=False)

    samples, result = timed(lambda: warm.run(), repeats)
    cold_samples, cold_result = timed(lambda: cold.run(), repeats)
    assert result.accounting_failures() == []
    return {
        "guard": True,
        "config": {
            "arrivals": result.arrivals,
            "flash_requests": 48,
            "total_nodes": 2048,
        },
        "samples": samples,
        "facts": {
            "cold_seconds": median(cold_samples),
            "requests_per_second": result.arrivals / median(samples),
            "rendered": result.rendered,
            "coalesced": result.coalesced,
            "edge_hits": result.edge_hits,
            "cold_rendered": cold_result.rendered,
        },
    }


FARM_BENCHMARKS = {"farm_edge_serve": bench_farm_edge_serve}
