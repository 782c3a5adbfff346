"""Command-line interface: ``python -m repro <command>``.

The commands cover the tour a new user takes:

* ``render``    — synthesize a supernova time step and render it end to
  end on a simulated partition, writing a PPM.
* ``trace``     — render one frame with tracing on and write a Chrome
  ``trace_event`` JSON plus the paper-style per-rank stage report.
* ``timeseries`` — render a camera-orbit animation over several time
  steps with depth-k prefetched collective I/O, print the overlap
  books (sequential vs pipelined makespan), and optionally verify the
  frames bitwise against the sequential oracle (``--check``).
* ``progressive`` — render one request as a coarse-to-fine resolution
  ladder (time to first pixel long before the full frame), optionally
  cancelling the fine levels on a mid-ladder camera move, and verify
  the final level is bitwise identical to a direct full-res render
  (``--check``).
* ``model``     — price a paper-scale frame (any dataset x cores x I/O
  mode) and print the Fig. 3/Table II style breakdown.
* ``insitu``    — price in-situ vs post-hoc visualization of a
  simulation campaign: what the storage round-trip costs when every
  rendered frame must be read back from disk first.
* ``scorecard`` — the calibration-vs-paper fidelity table.
* ``inventory`` — the modeled machine and storage system.
* ``bench``     — time the perf microbenchmarks against the committed
  ``BENCH.json`` ledger and fail on regression (``--update`` records
  fresh entries, ``--list`` prints the before/after table).
* ``farm``      — run a multi-tenant rendering-service traffic scenario
  (request queue, partition scheduler, frame caches) and report latency
  percentiles, SLO attainment, utilization, and cache hit rates.
* ``chaos``     — sweep node-failure rates over a farm scenario and
  report the availability / MTTR / goodput degradation curve.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.utils.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    from repro.compositing.backends import backend_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "End-to-end parallel volume rendering on a simulated IBM Blue "
            "Gene/P (Peterka et al., ICPP 2009 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_render = sub.add_parser("render", help="render a synthetic supernova frame")
    p_render.add_argument("--grid", type=int, default=32, help="cubic grid edge (default 32)")
    p_render.add_argument("--cores", type=int, default=16, help="simulated cores (default 16)")
    p_render.add_argument("--image", type=int, default=128, help="square image edge (default 128)")
    p_render.add_argument("--variable", default="vx", help="field to render (default vx)")
    p_render.add_argument(
        "--format", default="netcdf", choices=("netcdf", "raw", "h5lite"),
        help="time-step file format (default netcdf)",
    )
    p_render.add_argument("--seed", type=int, default=1530)
    p_render.add_argument("--time", type=float, default=0.8, help="simulation epoch")
    p_render.add_argument("--azimuth", type=float, default=35.0)
    p_render.add_argument("--elevation", type=float, default=20.0)
    p_render.add_argument("--step", type=float, default=0.7, help="ray sampling step")
    p_render.add_argument("--out", default="frame.ppm", help="output PPM path")
    p_render.add_argument(
        "--workers", type=int, default=1,
        help="DES worker processes (>1 selects the sharded conservative-"
        "parallel backend; any count gives identical results)",
    )
    p_render.add_argument(
        "--compositor", default="directsend",
        choices=backend_names(),
        help="compositing backend (default directsend; see repro.compositing.backends)",
    )
    p_render.add_argument(
        "--error-budget", type=float, default=0.0, metavar="E",
        help="per-pixel error allowance for approximate compositors "
        "(puzzlepiece; default 0 = exact)",
    )

    p_trace = sub.add_parser(
        "trace", help="render one traced frame; write Chrome trace + stage report"
    )
    p_trace.add_argument("--grid", type=int, default=24, help="cubic grid edge (default 24)")
    p_trace.add_argument("--cores", type=int, default=8, help="simulated cores (default 8)")
    p_trace.add_argument("--image", type=int, default=64, help="square image edge (default 64)")
    p_trace.add_argument("--seed", type=int, default=1530)
    p_trace.add_argument("--step", type=float, default=0.8, help="ray sampling step")
    p_trace.add_argument(
        "--trace-out", default="trace.json",
        help="Chrome trace_event JSON path (default trace.json)",
    )
    p_trace.add_argument(
        "--report-out", default="trace.txt",
        help="stage report path (default trace.txt)",
    )

    p_ts = sub.add_parser(
        "timeseries",
        help="render a pipelined time-series animation (prefetched I/O)",
    )
    p_ts.add_argument("--steps", type=int, default=4, help="time steps to render (default 4)")
    p_ts.add_argument("--grid", type=int, default=16, help="cubic grid edge (default 16)")
    p_ts.add_argument("--cores", type=int, default=8, help="simulated cores (default 8)")
    p_ts.add_argument("--image", type=int, default=48, help="square image edge (default 48)")
    p_ts.add_argument("--variable", default="vx", help="field to render (default vx)")
    p_ts.add_argument(
        "--format", default="netcdf", choices=("netcdf", "raw", "h5lite"),
        help="time-step file format (default netcdf)",
    )
    p_ts.add_argument("--seed", type=int, default=1530)
    p_ts.add_argument("--step", type=float, default=0.8, help="ray sampling step")
    p_ts.add_argument(
        "--orbit-degrees", type=float, default=15.0, metavar="DEG",
        help="camera azimuth advance per frame (default 15; 0 = fixed camera)",
    )
    p_ts.add_argument(
        "--prefetch-depth", type=int, default=1, metavar="K",
        help="time steps of I/O kept in flight beyond the rendering frame "
        "(0 = sequential; default 1)",
    )
    p_ts.add_argument(
        "--discipline", default="fifo", choices=("fifo", "fair"),
        help="concurrent-read contention model for the campaign clock "
        "(default fifo)",
    )
    p_ts.add_argument(
        "--compositor", default="directsend",
        choices=backend_names(),
        help="compositing backend (default directsend)",
    )
    p_ts.add_argument(
        "--workers", type=int, default=1,
        help="DES worker processes (>1 selects the sharded parallel backend)",
    )
    p_ts.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the campaign's Chrome trace (I/O + compute lanes)",
    )
    p_ts.add_argument(
        "--out", default=None, metavar="PREFIX",
        help="write each frame as PREFIX0000.ppm, PREFIX0001.ppm, ...",
    )
    p_ts.add_argument(
        "--check", action="store_true",
        help="also render sequentially and verify the pipelined frames "
        "are bitwise identical (the CI smoke)",
    )

    p_prog = sub.add_parser(
        "progressive",
        help="render a coarse-to-fine resolution ladder (progressive refinement)",
    )
    p_prog.add_argument("--grid", type=int, default=12, help="cubic grid edge (default 12)")
    p_prog.add_argument("--cores", type=int, default=8, help="simulated cores (default 8)")
    p_prog.add_argument(
        "--image", type=int, default=24, help="full-resolution image edge (default 24)"
    )
    p_prog.add_argument(
        "--levels", type=int, default=3,
        help="ladder levels, coarsest first (default 3: 6^2, 12^2, 24^2)",
    )
    p_prog.add_argument("--variable", default="vx", help="field to render (default vx)")
    p_prog.add_argument("--seed", type=int, default=1530)
    p_prog.add_argument("--step", type=float, default=0.8, help="ray sampling step")
    p_prog.add_argument(
        "--cancel-after", type=float, default=None, metavar="SECONDS",
        help="simulated camera-move time: cancel the un-started levels "
        "after this many seconds (default: let the ladder complete)",
    )
    p_prog.add_argument(
        "--compositor", default="directsend",
        choices=backend_names(),
        help="compositing backend (default directsend)",
    )
    p_prog.add_argument(
        "--workers", type=int, default=1,
        help="DES worker processes (>1 selects the sharded parallel backend)",
    )
    p_prog.add_argument(
        "--out", default=None, metavar="PREFIX",
        help="write each delivered level as PREFIX_L0.ppm, PREFIX_L1.ppm, ...",
    )
    p_prog.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="Chrome trace of the ladder (per-level spans + TTFP marker)",
    )
    p_prog.add_argument(
        "--check", action="store_true",
        help="verify ladder accounting and that the final level is bitwise "
        "identical to a direct full-resolution render (the CI smoke)",
    )

    p_model = sub.add_parser("model", help="price a paper-scale frame")
    p_model.add_argument("--dataset", default="1120", choices=("1120", "2240", "4480"))
    p_model.add_argument("--cores", type=int, default=16384)
    p_model.add_argument(
        "--io-mode", default="raw",
        choices=("raw", "netcdf", "netcdf-tuned", "netcdf64", "h5lite"),
    )
    p_model.add_argument(
        "--original-compositing", action="store_true",
        help="use m = n compositors (the pre-improvement scheme)",
    )

    p_insitu = sub.add_parser(
        "insitu", help="price in-situ vs post-hoc campaign visualization"
    )
    p_insitu.add_argument("--dataset", default="1120", choices=("1120", "2240", "4480"))
    p_insitu.add_argument("--cores", type=int, default=16384)
    p_insitu.add_argument(
        "--io-mode", default="netcdf",
        choices=("raw", "netcdf", "netcdf-tuned", "netcdf64", "h5lite"),
        help="post-hoc storage format (default netcdf, the paper's)",
    )
    p_insitu.add_argument(
        "--steps", type=int, default=100, metavar="N",
        help="simulation time steps in the campaign (default 100)",
    )
    p_insitu.add_argument(
        "--render-every", type=int, default=10, metavar="K",
        help="render every K-th step (default 10)",
    )
    p_insitu.add_argument(
        "--json", action="store_true",
        help="print the machine-readable JSON comparison instead of the table",
    )

    sub.add_parser("scorecard", help="fidelity of the model vs the paper's numbers")
    sub.add_parser("inventory", help="describe the modeled machine and storage")

    p_bench = sub.add_parser(
        "bench", help="run the perf microbenchmarks / regression guard"
    )
    p_bench.add_argument(
        "--only", nargs="+", metavar="NAME", default=None,
        help="run these benches instead of every guarded one",
    )
    bench_mode = p_bench.add_mutually_exclusive_group()
    bench_mode.add_argument(
        "--update", action="store_true",
        help="re-run and record the selected entries in BENCH.json",
    )
    bench_mode.add_argument(
        "--list", action="store_true",
        help="print the before/after table and exit",
    )
    bench_mode.add_argument(
        "--profile", action="store_true",
        help="print each bench's per-layer self time and top cumulative "
        "functions instead of guarding",
    )

    p_farm = sub.add_parser(
        "farm", help="run a rendering-service traffic scenario"
    )
    p_farm.add_argument(
        "--scenario", default="default", metavar="NAME|PATH",
        help="a built-in scenario (default, flash, or the execute-mode "
        "miniatures selftest, edge-selftest, interactive-selftest) or a "
        "JSON scenario spec; every run balances its books and exits 2 "
        "on a violation (default: the capacity study)",
    )
    p_farm.add_argument(
        "--json", action="store_true",
        help="print the machine-readable JSON summary instead of the report",
    )
    p_farm.add_argument(
        "--seed", type=int, default=None, help="override the scenario seed"
    )
    p_farm.add_argument(
        "--no-result-cache", action="store_true",
        help="disable the rendered-frame result cache (the study's off arm)",
    )
    p_farm.add_argument(
        "--no-backfill", action="store_true",
        help="schedule strict FCFS without backfill",
    )
    p_farm.add_argument(
        "--no-coalesce", action="store_true",
        help="disable single-flight coalescing of in-flight duplicates",
    )
    p_farm.add_argument(
        "--trace-out", default=None,
        help="also write the request spans as a Chrome trace_event JSON",
    )

    p_chaos = sub.add_parser(
        "chaos", help="sweep failure rates over a farm scenario"
    )
    p_chaos.add_argument(
        "--spec", default=None,
        help="JSON chaos spec (scenario, sweep, repair_s, max_crashes, seed)",
    )
    p_chaos.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="built-in base scenario, as named by `repro farm --scenario` "
        "(default selftest; overrides the spec)",
    )
    p_chaos.add_argument(
        "--sweep", nargs="+", type=float, metavar="RATE", default=None,
        help="crash rates per node-hour to sweep (overrides the spec)",
    )
    p_chaos.add_argument(
        "--repair-s", type=float, default=None,
        help="node quarantine/repair time in seconds (overrides the spec)",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=None, help="override the scenario seed"
    )
    p_chaos.add_argument(
        "--out", default=None, help="write the JSON sweep report to this path"
    )
    p_chaos.add_argument(
        "--json", action="store_true",
        help="print the JSON report to stdout instead of the table",
    )
    p_chaos.add_argument(
        "--trace-out", default=None,
        help="Chrome trace of the highest-rate arm (fault spans included)",
    )
    return parser


def cmd_render(args: argparse.Namespace) -> int:
    from repro.core import ParallelVolumeRenderer
    from repro.data import SupernovaModel, extract_variable_raw, write_vh1_h5lite, write_vh1_netcdf
    from repro.pio import H5LiteHandle, IOHints, NetCDFHandle, RawHandle
    from repro.render import Camera, TransferFunction
    from repro.render.image import image_to_ppm
    from repro.vmpi import MPIWorld, ParallelConfig

    grid = (args.grid,) * 3
    model = SupernovaModel(grid, seed=args.seed, time=args.time)
    if args.format == "netcdf":
        handle = NetCDFHandle(write_vh1_netcdf(model), args.variable)
    elif args.format == "raw":
        handle = RawHandle(extract_variable_raw(model, args.variable))
    else:
        handle = H5LiteHandle(write_vh1_h5lite(model), args.variable)
    camera = Camera.looking_at_volume(
        grid, width=args.image, height=args.image,
        azimuth_deg=args.azimuth, elevation_deg=args.elevation,
    )
    transfer = TransferFunction.supernova(*model.value_range(args.variable))
    parallel = ParallelConfig(workers=args.workers) if args.workers > 1 else None
    renderer = ParallelVolumeRenderer(
        MPIWorld.for_cores(args.cores), camera, transfer, step=args.step,
        hints=IOHints(cb_buffer_size=1 << 17, cb_nodes=max(args.cores // 4, 1)),
        parallel=parallel,
        compositor=args.compositor,
        error_budget=args.error_budget,
    )
    result = renderer.render_frame(handle)
    with open(args.out, "wb") as fh:
        fh.write(image_to_ppm(result.image, background=(0.02, 0.02, 0.05)))
    print(f"{result.timing}")
    print(
        f"I/O density {result.io_report.density:.3f}, "
        f"{result.num_compositors} compositors, "
        f"{result.schedule.total_messages} compositing messages"
    )
    print(f"compositor {result.compositor}: {result.messages} messages, "
          f"{result.bytes_sent} bytes on the wire")
    if result.compose_stats:
        s = result.compose_stats
        print(
            f"  dropped {s['pieces_dropped']} pieces "
            f"({s['bytes_saved']} bytes saved), "
            f"per-pixel error bound {s['error_bound']:.4g}"
        )
    print(f"wrote {args.out}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.core import ParallelVolumeRenderer
    from repro.data import SupernovaModel, write_vh1_netcdf
    from repro.obs import Tracer, stage_report, write_chrome_trace
    from repro.pio import IOHints, NetCDFHandle
    from repro.render import Camera, TransferFunction
    from repro.storage.accesslog import AccessLog
    from repro.vmpi import MPIWorld

    grid = (args.grid,) * 3
    model = SupernovaModel(grid, seed=args.seed)
    handle = NetCDFHandle(write_vh1_netcdf(model), "vx")
    camera = Camera.looking_at_volume(grid, width=args.image, height=args.image)
    transfer = TransferFunction.supernova(*model.value_range("vx"))
    tracer = Tracer(enabled=True)
    renderer = ParallelVolumeRenderer(
        MPIWorld.for_cores(args.cores), camera, transfer, step=args.step,
        hints=IOHints(cb_buffer_size=1 << 16, cb_nodes=max(args.cores // 4, 1)),
        tracer=tracer,
    )
    log = AccessLog()
    result = renderer.render_frame(handle, log=log)
    write_chrome_trace(tracer, args.trace_out)
    report = stage_report(tracer)
    with open(args.report_out, "w") as fh:
        fh.write(report + "\n")
    print(report)
    print(f"\n{result.timing}")
    print(f"trace: {len(tracer.spans)} spans -> {args.trace_out} "
          f"(load in chrome://tracing or ui.perfetto.dev)")
    print(f"report: {args.report_out}")
    return 0


def cmd_timeseries(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core import PipelinedTimeSeriesRenderer, ParallelVolumeRenderer, render_time_series
    from repro.data import SupernovaModel, extract_variable_raw, write_vh1_h5lite, write_vh1_netcdf
    from repro.pio import H5LiteHandle, IOHints, NetCDFHandle, RawHandle
    from repro.render import Camera, TransferFunction
    from repro.utils.units import fmt_time
    from repro.vmpi import MPIWorld, ParallelConfig

    grid = (args.grid,) * 3
    handles = []
    vrange = None
    for i in range(args.steps):
        model = SupernovaModel(grid, seed=args.seed, time=0.2 + 0.04 * i)
        if vrange is None:
            vrange = model.value_range(args.variable)
        if args.format == "netcdf":
            handles.append(NetCDFHandle(write_vh1_netcdf(model), args.variable))
        elif args.format == "raw":
            handles.append(RawHandle(extract_variable_raw(model, args.variable)))
        else:
            handles.append(H5LiteHandle(write_vh1_h5lite(model), args.variable))
    camera = Camera.looking_at_volume(grid, width=args.image, height=args.image)
    transfer = TransferFunction.supernova(*vrange)
    parallel = ParallelConfig(workers=args.workers) if args.workers > 1 else None
    renderer = ParallelVolumeRenderer(
        MPIWorld.for_cores(args.cores), camera, transfer, step=args.step,
        hints=IOHints(cb_buffer_size=1 << 17, cb_nodes=max(args.cores // 4, 1)),
        parallel=parallel, compositor=args.compositor,
    )
    pipelined = PipelinedTimeSeriesRenderer(
        renderer, prefetch_depth=args.prefetch_depth, discipline=args.discipline
    )
    result = pipelined.render(handles, orbit_degrees_per_frame=args.orbit_degrees)

    failures = result.accounting_failures()
    if args.check:
        oracle = render_time_series(
            renderer, handles, orbit_degrees_per_frame=args.orbit_degrees
        )
        for i, (p, s) in enumerate(zip(result.frames, oracle.frames)):
            if not np.array_equal(p.image, s.image):
                failures.append(f"frame {i}: pipelined image differs from sequential")
            if p.timing != s.timing:
                failures.append(f"frame {i}: pipelined timing differs from sequential")
    if failures:
        for failure in failures:
            print(f"timeseries FAILED: {failure}", file=sys.stderr)
        return 2

    print(
        f"{args.steps} frames ({args.grid}^3 {args.format}, {args.cores} cores, "
        f"orbit {args.orbit_degrees:g} deg/frame), prefetch depth "
        f"{args.prefetch_depth}, {args.discipline} contention"
    )
    print(f"  {'frame':>5} {'io':>10} {'render+comp':>12} {'read wait':>10}")
    for slot, frame in zip(result.timeline.slots, result.frames):
        print(
            f"  {slot.index:>5} {fmt_time(slot.io_demand_s):>10} "
            f"{fmt_time(slot.compute_demand_s):>12} {fmt_time(slot.read_wait_s):>10}"
        )
    print(
        f"  sequential {fmt_time(result.sequential_s)}  ->  pipelined "
        f"{fmt_time(result.makespan_s)}  (saved {fmt_time(result.overlap_saved_s)}, "
        f"{result.speedup:.3f}x)"
    )
    if args.check:
        print(f"  check: {args.steps} frames bitwise identical to the sequential oracle")
    if args.out:
        from repro.render.image import image_to_ppm

        for i, image in enumerate(result.images):
            path = f"{args.out}{i:04d}.ppm"
            with open(path, "wb") as fh:
                fh.write(image_to_ppm(image, background=(0.02, 0.02, 0.05)))
        print(f"  wrote {args.steps} frames to {args.out}0000.ppm ...")
    if args.trace_out:
        from repro.obs import write_chrome_trace

        write_chrome_trace(result.campaign_trace, args.trace_out)
        print(f"  trace: {args.trace_out} (load in chrome://tracing or ui.perfetto.dev)")
    return 0


def cmd_progressive(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core import ParallelVolumeRenderer
    from repro.data import SupernovaModel, extract_variable_raw
    from repro.obs import Tracer
    from repro.pio import IOHints, RawHandle
    from repro.progressive import ProgressiveRenderer
    from repro.render import Camera, TransferFunction
    from repro.utils.units import fmt_time
    from repro.vmpi import MPIWorld, ParallelConfig

    grid = (args.grid,) * 3
    model = SupernovaModel(grid, seed=args.seed)
    volume = model.field(args.variable)
    handle = RawHandle(extract_variable_raw(model, args.variable))
    camera = Camera.looking_at_volume(grid, width=args.image, height=args.image)
    transfer = TransferFunction.supernova(*model.value_range(args.variable))
    parallel = ParallelConfig(workers=args.workers) if args.workers > 1 else None
    renderer = ParallelVolumeRenderer(
        MPIWorld.for_cores(args.cores), camera, transfer, step=args.step,
        hints=IOHints(cb_buffer_size=1 << 16, cb_nodes=max(args.cores // 4, 1)),
        parallel=parallel, compositor=args.compositor,
    )
    tracer = Tracer(enabled=True) if args.trace_out else None
    progressive = ProgressiveRenderer(renderer, levels=args.levels, tracer=tracer)
    result = progressive.render_ladder(
        handle, field=volume, cancel_after_s=args.cancel_after
    )

    failures = result.accounting_failures()
    if args.check:
        if result.final is not None:
            direct = renderer.render_frame(handle)
            final = result.final
            if not np.array_equal(final.image, direct.image):
                failures.append("final level image differs from the direct render")
            if final.timing != direct.timing:
                failures.append("final level timing differs from the direct render")
            if final.messages != direct.messages:
                failures.append("final level message count differs from the direct render")
            if final.bytes_sent != direct.bytes_sent:
                failures.append("final level byte count differs from the direct render")
        elif args.cancel_after is None:
            failures.append("complete ladder delivered no full-resolution level")
    if failures:
        for failure in failures:
            print(f"progressive FAILED: {failure}", file=sys.stderr)
        return 2

    print(
        f"{args.grid}^3 grid, {args.cores} cores, {args.compositor} "
        f"compositing: {len(result.levels)}/{result.levels_planned} ladder "
        f"levels delivered"
    )
    print(f"  {'level':>5} {'pixels':>9} {'start':>10} {'done':>10} {'render':>10}")
    for lf in result.levels:
        print(
            f"  {lf.index:>5} {f'{lf.width}^2':>9} {fmt_time(lf.t_start_s):>10} "
            f"{fmt_time(lf.t_done_s):>10} {fmt_time(lf.duration_s):>10}"
        )
    print(
        f"  first pixel {fmt_time(result.ttfp_s)}, full ladder "
        f"{fmt_time(result.total_s)}"
        + (f" (truncated by the degrade policy)" if result.truncated else "")
    )
    if result.cancelled:
        print(
            f"  camera move at {fmt_time(args.cancel_after)} cancelled "
            f"{result.cancelled_levels} level(s)"
        )
    if args.check and result.final is not None:
        print("  check: final level bitwise identical to the direct full-res render")
    if args.out:
        from repro.render.image import image_to_ppm

        for lf in result.levels:
            path = f"{args.out}_L{lf.index}.ppm"
            with open(path, "wb") as fh:
                fh.write(image_to_ppm(lf.frame.image, background=(0.02, 0.02, 0.05)))
        print(f"  wrote {len(result.levels)} levels to {args.out}_L0.ppm ...")
    if args.trace_out:
        from repro.obs import write_chrome_trace

        write_chrome_trace(tracer, args.trace_out)
        print(f"  trace: {args.trace_out} (load in chrome://tracing or ui.perfetto.dev)")
    return 0


def cmd_model(args: argparse.Namespace) -> int:
    from repro.model import DATASETS, FrameModel
    from repro.utils.units import fmt_bandwidth

    fm = FrameModel(DATASETS[args.dataset])
    if args.original_compositing:
        est = fm.estimate_original(args.cores, io_mode=args.io_mode)
    else:
        est = fm.estimate(args.cores, io_mode=args.io_mode)
    d = est.dataset
    print(
        f"{d.grid}^3 elements, {d.image}^2 pixels, {args.cores} cores, "
        f"{args.io_mode} I/O, m = {est.num_compositors} compositors"
    )
    print(f"  I/O        {est.io.seconds:10.2f} s  ({est.pct_io:5.1f}%)  "
          f"{fmt_bandwidth(est.read_bw_Bps)} effective")
    print(f"  render     {est.render.seconds:10.2f} s  ({est.pct_render:5.1f}%)")
    print(f"  composite  {est.composite.seconds:10.3f} s  ({est.pct_composite:5.1f}%)  "
          f"{est.composite.num_messages} messages")
    print(f"  total      {est.total_s:10.2f} s")
    return 0


def cmd_insitu(args: argparse.Namespace) -> int:
    import json

    from repro.model import DATASETS, FrameModel
    from repro.utils.errors import ConfigError
    from repro.utils.units import fmt_time

    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    if args.render_every < 1:
        raise ConfigError(f"--render-every must be >= 1, got {args.render_every}")
    fm = FrameModel(DATASETS[args.dataset])
    est = fm.estimate(args.cores, io_mode=args.io_mode)
    frames = len(range(0, args.steps, args.render_every))
    compute_s = (est.render.seconds + est.composite.seconds) * frames
    io_s = est.io.seconds * frames
    posthoc_s = io_s + compute_s
    insitu_s = compute_s
    report = {
        "dataset": args.dataset,
        "grid": est.dataset.grid,
        "image": est.dataset.image,
        "cores": args.cores,
        "io_mode": args.io_mode,
        "steps": args.steps,
        "render_every": args.render_every,
        "frames": frames,
        "per_frame": {
            "io_s": est.io.seconds,
            "render_s": est.render.seconds,
            "composite_s": est.composite.seconds,
        },
        "posthoc_s": posthoc_s,
        "insitu_s": insitu_s,
        "io_avoided_s": io_s,
        "speedup": posthoc_s / insitu_s if insitu_s else None,
    }
    if args.json:
        json.dump(report, sys.stdout, indent=1)
        print()
        return 0
    print(
        f"{est.dataset.grid}^3 x {args.steps} steps, rendering every "
        f"{args.render_every} ({frames} frames), {args.cores} cores, "
        f"{args.io_mode} storage"
    )
    print(
        f"  post-hoc  {fmt_time(posthoc_s):>10}  "
        f"(read {fmt_time(io_s)} + render {fmt_time(compute_s)})"
    )
    print(f"  in-situ   {fmt_time(insitu_s):>10}  (renders from memory)")
    print(
        f"  storage round-trip avoided: {fmt_time(io_s)} "
        f"({report['speedup']:.2f}x end-to-end)"
    )
    return 0


def cmd_scorecard(_args: argparse.Namespace) -> int:
    from repro.model.validation import fidelity_report

    report = fidelity_report()
    print(report.table())
    print(
        f"\nmean |log2 ratio| = {report.mean_log2_error:.3f}, "
        f"{100 * report.within_factor_2:.0f}% of anchors within 2x"
    )
    return 0


def cmd_inventory(_args: argparse.Namespace) -> int:
    from repro.machine.partition import Partition
    from repro.machine.specs import BGP_ALCF
    from repro.storage.stripedfs import StorageSystem
    from repro.utils.units import fmt_bytes

    m = BGP_ALCF
    print(f"{m.name}: {m.racks} racks x {m.nodes_per_rack} nodes "
          f"({m.total_cores} cores, {fmt_bytes(m.total_ram_bytes)} RAM)")
    print(f"  node: {m.node.cores} cores @ {m.node.clock_hz / 1e6:.0f} MHz, "
          f"{fmt_bytes(m.node.ram_bytes)}")
    print(f"  torus link: {m.torus_link.bandwidth_Bps * 8 / 1e9:.1f} Gb/s, "
          f"{m.torus_link.latency_s * 1e6:.0f} us; tree link: "
          f"{m.tree_link.bandwidth_Bps * 8 / 1e9:.1f} Gb/s")
    print("  storage: " + StorageSystem().describe())
    print("  standard partitions:")
    for cores in (64, 512, 2048, 8192, 32768):
        print(f"    {str(Partition.for_cores(cores))}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import importlib.util
    import pathlib

    # The ledger lives in benchmarks/perf/ (it is repo tooling, not part
    # of the installable package); locate it relative to the source
    # tree and fall back to a clear error when run from an install.
    ledger = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "ledger.py"
    if not ledger.exists():
        print("error: benchmarks/perf/ledger.py not found — "
              "`repro bench` must run from a source checkout", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location("repro_perf_ledger", ledger)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    flags = [f"--{f}" for f in ("update", "list", "profile") if getattr(args, f)]
    return module.main(flags + (["--only", *args.only] if args.only else []))


def cmd_farm(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.farm import BUILTIN_SCENARIOS, FarmScenario, check

    builtin = BUILTIN_SCENARIOS.get(args.scenario)
    if builtin is not None:
        scenario, expects = builtin.build(), builtin.expects
    else:
        scenario, expects = FarmScenario.from_file(args.scenario), ()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.no_result_cache:
        overrides["result_cache_entries"] = 0
    if args.no_backfill:
        overrides["backfill"] = False
    if args.no_coalesce:
        overrides["coalesce"] = False
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    result = scenario.run()
    failures = check(result, scenario, expects)
    for failure in failures:
        print(f"farm {args.scenario} FAILED: {failure}", file=sys.stderr)
    if failures:
        return 2
    if args.trace_out:
        from repro.obs import write_chrome_trace

        write_chrome_trace(result.trace, args.trace_out)
    if args.json:
        json.dump(result.summary(), sys.stdout, indent=1)
        print()
    else:
        print(result.report())
        print(f"\nfarm {args.scenario} ok: {len(result.records)} requests, "
              f"all service invariants hold")
        if args.trace_out:
            print(f"trace: {args.trace_out} "
                  f"(load in chrome://tracing or ui.perfetto.dev)")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.fault.chaos import chaos_table, run_chaos
    from repro.utils.errors import ConfigError

    if args.spec:
        try:
            with open(args.spec) as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load chaos spec {args.spec!r}: {exc}") from exc
        if not isinstance(spec, dict):
            raise ConfigError(f"chaos spec must be a JSON object, got {type(spec).__name__}")
    else:
        spec = {}
    if args.scenario is not None:
        spec["scenario"] = args.scenario
    if args.sweep is not None:
        spec["sweep"] = args.sweep
    if args.repair_s is not None:
        spec["repair_s"] = args.repair_s
    if args.seed is not None:
        spec["seed"] = args.seed
    report, last = run_chaos(spec)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    if args.trace_out and last is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(last.trace, args.trace_out)
    if args.json:
        json.dump(report, sys.stdout, indent=1)
        print()
    else:
        print(chaos_table(report))
        if args.out:
            print(f"\nreport: {args.out}")
        if args.trace_out:
            print(f"trace: {args.trace_out} "
                  f"(load in chrome://tracing or ui.perfetto.dev)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "render": cmd_render,
        "trace": cmd_trace,
        "timeseries": cmd_timeseries,
        "progressive": cmd_progressive,
        "model": cmd_model,
        "insitu": cmd_insitu,
        "scorecard": cmd_scorecard,
        "inventory": cmd_inventory,
        "bench": cmd_bench,
        "farm": cmd_farm,
        "chaos": cmd_chaos,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into head/less that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
