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

``farm_footprint_19k`` is the farm's memory ledger: the e2e
``farm_capacity_19k`` traffic in a fresh interpreter, timed cold, with
its peak RSS and the bytes one run retains per arrival as facts.
"""

from __future__ import annotations

#: The default scenario with a 16-entry result cache and every session
#: scaled x80 (19,200 arrivals).  Two runs back to back, the first
#: result alive while the second runs (as an e2e repetition holds its
#: predecessor's), give the peak RSS; one more run under tracemalloc
#: gives the bytes a result keeps alive per arrival.
_FARM_FOOTPRINT = """
import dataclasses, gc, json, resource, tracemalloc
from repro.farm import default_scenario

def scaled(k):
    base = default_scenario(seed=1530, result_cache_entries=16)
    return dataclasses.replace(base, sessions=tuple(
        dataclasses.replace(s, requests=s.requests * k) for s in base.sessions))

scaled(1).run()
farm = scaled(80)
held = farm.run()
result = farm.run()
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
del held, result
gc.collect()
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
result = farm.run()
gc.collect()
retained = tracemalloc.get_traced_memory()[0] - before
print(json.dumps({
    "arrivals": result.arrivals,
    "spans": len(result.trace.spans),
    "peak_rss_mb": round(peak_rss_mb, 1),
    "bytes_per_arrival": round(retained / result.arrivals),
}))
"""


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


def bench_farm_footprint_19k(repeats: int = 2) -> dict:
    """The 19,200-arrival farm run cold, interpreter start included."""
    from benchmarks.perf.suite import run_fresh, timed

    samples, facts = timed(lambda: run_fresh(_FARM_FOOTPRINT), repeats)
    return {
        "guard": True,
        "config": {"scenario": "default x80", "seed": 1530, "result_cache_entries": 16},
        "samples": samples,
        "facts": facts,
    }


FARM_BENCHMARKS = {
    "farm_edge_serve": bench_farm_edge_serve,
    "farm_footprint_19k": bench_farm_footprint_19k,
}
