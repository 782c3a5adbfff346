"""Future-work experiment (Sec. V/VI): multivariate visualization.

"Reading these formats directly in the visualization eliminates the
need for costly preprocessing and affords the possibility to perform
multivariate visualizations in the future."

Two measurements:

* functional: a two-field frame (colour by vx, gated by density)
  rendered block-parallel and verified against the serial reference;
* paper scale: reading all five record variables in ONE collective —
  the interleaved layout that cripples single-variable reads
  (Fig. 9/10) is nearly free when the visualization wants every
  variable, because the needed intervals tile the file.
"""

import numpy as np

from benchmarks.conftest import write_result
from repro.analysis.reports import format_table
from repro.data import SupernovaModel
from repro.model.pipeline import VH1_VARIABLES, _build_handle
from repro.pio import plan_read_blocks
from repro.pio.reader import IOReport
from repro.pio.twophase import plan_two_phase
from repro.render import Camera, TransferFunction
from repro.render.multivariate import MultivariateTransfer, render_multivar_serial

CORES = 2048


def test_future_multivariate(benchmark, results_dir, fm_1120):
    # --- functional: the two-field frame renders and shows gating.
    model = SupernovaModel((20, 20, 20), seed=19)
    cam = Camera.looking_at_volume((20, 20, 20), width=48, height=48)
    primary = TransferFunction.supernova(*model.value_range("vx"))
    lo, hi = model.value_range("density")
    mvtf = MultivariateTransfer(primary, gate_lo=lo + 0.3 * (hi - lo), gate_hi=hi)

    image = benchmark.pedantic(
        render_multivar_serial,
        args=(cam, model.field("vx"), model.field("density"), mvtf),
        kwargs={"step": 0.7},
        rounds=1,
        iterations=1,
    )
    assert image[..., 3].max() > 0.2

    # --- paper scale: single-variable vs all-variables read plans.
    handle, hints = _build_handle(1120, "netcdf", 8)
    single = plan_read_blocks(handle, nprocs=CORES, hints=hints)
    nc = handle.ncfile
    needed = []
    useful = 0
    for name in VH1_VARIABLES:
        v = nc.variable(name)
        needed.extend(v.layout.covering_intervals())
        useful += v.layout.nbytes
    combined_plan = plan_two_phase(needed, hints, nc.store.size())
    combined = IOReport(combined_plan, useful, 1, nc.header_bytes, CORES, nc.store.size())

    from repro.machine.partition import Partition

    part = Partition.for_cores(CORES)
    t_single = fm_1120.io_model.price(single, part)
    t_combined = fm_1120.io_model.price(combined, part)

    table = format_table(
        ["read", "useful (GB)", "physical (GB)", "density", "time (s)", "s per variable"],
        [
            ["one variable", single.requested_bytes / 1e9, single.physical_bytes / 1e9,
             single.density, t_single.seconds, t_single.seconds],
            ["all five", combined.requested_bytes / 1e9, combined.physical_bytes / 1e9,
             combined.density, t_combined.seconds, t_combined.seconds / 5],
        ],
    )

    assert combined.density > 0.9, "wanting every variable tiles the file"
    assert combined.density > 3 * single.density
    # Per variable, the multivariate read is far cheaper.
    assert t_combined.seconds / 5 < 0.5 * t_single.seconds

    write_result(
        results_dir,
        "future_multivariate",
        "Future work: multivariate visualization\n\n"
        "Functional: colour by vx gated by density renders and composites "
        "like the scalar path (verified in tests/render/test_multivariate.py).\n\n"
        f"Paper scale: reading 1120^3 record variables at {CORES} cores\n\n" + table,
    )
