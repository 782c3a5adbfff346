"""Names, units and bounds of everything the e2e benchmark reports.

``BENCHMARK.json`` at the repo root is the same information in the
driver's schema; ``test_e2e_smoke.py`` asserts the two agree.  Nothing
here imports ``repro`` — the runner parent and ``--compare`` must work
without it.
"""

from __future__ import annotations

#: (name, why) — the ``why`` is the one-line reason in BENCHMARK.json.
WORKLOADS = (
    (
        "frame_functional_64",
        "whole paper pipeline, real bytes and pixels: netCDF read, ray cast, "
        "direct-send on 64 ranks; render kernel dominates, message path is bypassed (<3%)",
    ),
    (
        "timeseries_io_256",
        "pipelined 3-step netCDF campaign on 256 ranks: async two-phase reads and a warm "
        "plan cache dominate; render is small, so one-frame render gains should not show",
    ),
    (
        "composite_des_2048",
        "m=n direct-send compositing, 2048 ranks, virtual payloads: all host time in "
        "vmpi.comm, network.desnet, sim.engine; render and pio are bypassed; the RSS workload",
    ),
    (
        "alltoallv_des_1024",
        "sparse alltoallv on 1024 ranks: same message path driven by a collective "
        "(tree allreduce + bulk send), so a change tuned to point-to-point traffic shows here",
    ),
    (
        "sharded_des_512_w1",
        "512-rank direct-send frame through ParallelConfig(workers=1), the sharded backend in-process: "
        "the second world, network and board implementation; monolith-only changes predict no change",
    ),
    (
        "farm_capacity_19k",
        "19,200-arrival model-backend farm run with a 16-entry result cache: farm.service, "
        "farm.allocator and sim.engine scheduling only; rendering and messaging are bypassed",
    ),
)
WORKLOAD_NAMES = tuple(name for name, _why in WORKLOADS)

#: (name, unit, better, bound).  ``failed_ops`` is the fourth metric of
#: every report; the driver's schema forbids a metric that reads 0, so
#: there it travels as the ``failed``/``attempted``/``correct`` keys.
END_TO_END = (
    ("host_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Layer = module name below ``repro``.  A profiled function belongs to
#: the longest matching prefix; FOLD sends small helper modules to the
#: layer that owns their callers' work, everything else is ``other``.
LAYERS = (
    "sim.engine", "sim.parallel",
    "network.desnet", "network.shardnet", "network.topology", "machine.mapping",
    "vmpi.comm", "vmpi.collectives", "vmpi.context", "vmpi.shardworld",
    "render.raycast", "render.volume", "render.image",
    "compositing.schedule", "compositing.directsend",
    "pio.twophase", "pio.reader", "formats.layout", "formats.netcdf", "storage",
    "core.plan", "core.timeseries",
    "farm.service", "farm.allocator", "farm.backends",
    "model", "obs.tracer", "other",
)
FOLD = {
    "sim.mailbox": "sim.parallel",
    "sim.partition": "sim.parallel",
    "sim.events": "sim.engine",
    "vmpi.payload": "vmpi.comm",
    "vmpi.ops": "vmpi.collectives",
    "farm.request": "farm.service",
    "farm.cache": "farm.service",
    "farm.workload": "farm.service",
}

#: (name, unit, better, owning workloads) — direct probes of public
#: entry points, tracing off.  A probe reads 0 on a workload that does
#: not own it (the driver wants every name on every traced run).
_DES = ("composite_des_2048", "alltoallv_des_1024", "sharded_des_512_w1")
PROBES = (
    ("sim.engine.events_per_s", "1/s", "higher", _DES[:1]),
    ("sim.engine.resumes_per_s", "1/s", "higher", _DES[:1]),
    ("network.desnet.transfers_per_s", "1/s", "higher", _DES[:1]),
    ("vmpi.runner.world_build_s", "s", "lower", _DES[:1]),
    ("vmpi.comm.msgs_per_host_s", "1/s", "higher", _DES),
    ("compositing.schedule.build_s", "s", "lower", _DES[:1]),
    ("compositing.schedule.messages", "count", "lower", _DES[:1]),
    ("core.plan.cold_s", "s", "lower", ("frame_functional_64",)),
    ("core.plan.warm_s", "s", "lower", ("frame_functional_64",)),
    ("render.raycast.samples_per_s", "1/s", "higher", ("frame_functional_64",)),
    ("render.raycast.samples", "count", "lower", ("frame_functional_64",)),
    ("render.image.fragments_per_s", "1/s", "higher", ("frame_functional_64",)),
    ("pio.twophase.plan_s", "s", "lower", ("frame_functional_64",)),
    ("pio.twophase.accesses", "count", "lower", ("frame_functional_64",)),
    ("pio.twophase.density", "ratio", "higher", ("frame_functional_64",)),
    ("pio.reader.read_MBps", "MB/s", "higher", ("frame_functional_64",)),
    ("formats.netcdf.write_s", "s", "lower", ("frame_functional_64",)),
    ("formats.netcdf.bytes", "count", "lower", ("frame_functional_64",)),
    ("farm.service.requests_per_s", "1/s", "higher", ("farm_capacity_19k",)),
    ("farm.service.rendered", "count", "lower", ("farm_capacity_19k",)),
    ("farm.service.cache_hits", "count", "higher", ("farm_capacity_19k",)),
    ("farm.service.coalesced", "count", "higher", ("farm_capacity_19k",)),
    ("sim.parallel.w1_over_mono", "ratio", "lower", ("sharded_des_512_w1",)),
    ("sim.parallel.cpu_s", "s", "lower", ("sharded_des_512_w1",)),
    ("model.estimate_s", "s", "lower", ("farm_capacity_19k",)),
    ("model.anchor_log2_err_mean", "log2", "lower", ("farm_capacity_19k",)),
    ("model.anchor_log2_err_max", "log2", "lower", ("farm_capacity_19k",)),
)

#: Simulated-clock results: exact, identical across repetitions, rounds
#: and any commit that claims only a host-time change.  ``better`` is a
#: schema formality — a change here is a model change, not a gain.
SIMULATED = (
    ("simulated.frame_s", "s"),
    ("simulated.io_s", "s"),
    ("simulated.render_s", "s"),
    ("simulated.composite_s", "s"),
    ("simulated.messages", "count"),
    ("simulated.bytes", "count"),
    ("simulated.makespan_s", "s"),
    ("simulated.image_sha256_8", "count"),
    ("simulated.p95_s", "s"),
)


def per_layer() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    out.append(("trace.overhead_x", "ratio", "lower"))
    out.extend((name, unit, better) for name, unit, better, _owners in PROBES)
    out.extend((name, unit, "lower") for name, unit in SIMULATED)
    return out


def benchmark_json(run_seconds: int) -> dict:
    """The driver's ``BENCHMARK.json`` for this benchmark."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }
