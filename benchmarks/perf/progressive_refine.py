"""Progressive-refinement guard: the 2048-rank interactive scenario.

The progressive tier's promise is *time to first pixel*: a viewer on a
2048-core partition should see a coarse frame orders of magnitude
before the full 1120^3 render lands.  This benchmark runs a model-mode
interactive scenario — a fidgety viewer whose exponential dwell
usually moves the camera mid-ladder, plus a patient one whose ladders
complete — and pins three things at once:

* ``samples`` (the guard metric): wall clock of serving the scenario.
  The ladder bookkeeping (level events, cancellation, per-level cache
  fills) is pure-python DES work; it must not drift up.
* the paper-scale claim: mean TTFP at least 3x below the mean
  full-frame latency (in practice ~500x — the coarsest 200^2 level
  reads 1/512 of the volume).  A run that loses the speedup raises
  instead of recording a meaningless timing.
* semantics: camera moves reclaim node-seconds, and the farm's
  accounting identities all hold.
"""

from __future__ import annotations


def _interactive_model_scenario():
    from repro.farm import FarmScenario, SessionSpec, SizePolicy

    sessions = (
        # 10-degree orbit steps: 16 unique frames, no revisits — every
        # ladder renders, so cancellations reclaim real node-seconds.
        SessionSpec(
            name="fidget0", kind="interactive", arrival="closed", requests=16,
            think_s=30.0, cores=2048, orbit_deg=10.0, dataset="1120",
            levels=4, dwell_s=5.0,
        ),
        # Patient viewer: no dwell, ladders run to completion (the
        # full-latency arm of the TTFP comparison).
        SessionSpec(
            name="patient0", kind="interactive", arrival="closed", requests=8,
            think_s=30.0, cores=2048, orbit_deg=20.0, dataset="1120",
            levels=4, dwell_s=0.0, azimuth_deg=3.0,
        ),
    )
    return FarmScenario(
        sessions=sessions,
        seed=1530,
        mode="model",
        total_nodes=4096,
        slo_s=120.0,
        alloc_overhead_s=2.0,
        result_cache_entries=256,
        size_policy=SizePolicy(min_nodes=512, max_nodes=2048),
    )


def bench_progressive_refine(repeats: int = 3) -> dict:
    from statistics import median

    from benchmarks.perf.suite import timed

    scenario = _interactive_model_scenario()
    samples, result = timed(lambda: scenario.run(), repeats)

    failures = result.accounting_failures()
    if failures:
        raise RuntimeError(f"progressive accounting failed: {failures[0]}")
    stats = result.progressive_stats()
    if stats is None:
        raise RuntimeError("interactive scenario produced no progressive records")
    if stats["ttfp_speedup"] < 3.0:
        raise RuntimeError(
            f"TTFP speedup {stats['ttfp_speedup']:.2f}x below the 3x "
            f"acceptance floor on the 2048-rank scenario"
        )
    if stats["cancelled"] == 0 or result.cancelled_node_s <= 0.0:
        raise RuntimeError("fidgety viewer cancelled nothing; scenario is broken")

    return {
        "guard": True,
        "config": {
            "dataset": "1120",
            "cores": 2048,
            "levels": 4,
            "requests": result.arrivals,
        },
        "samples": samples,
        "facts": {
            "requests_per_second": result.arrivals / median(samples),
            "ladders": stats["ladders"],
            "cancelled": stats["cancelled"],
            "levels_published": stats["levels_published"],
            "cancelled_node_s": result.cancelled_node_s,
            "ttfp_mean_s": stats["ttfp_s"]["mean"],
            "full_latency_mean_s": stats["full_latency_s"]["mean"],
            "ttfp_speedup": stats["ttfp_speedup"],
        },
    }


PROGRESSIVE_BENCHMARKS = {"progressive_refine_2048": bench_progressive_refine}
