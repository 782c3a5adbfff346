"""Cross-validation: the analytic composite model vs event-driven runs.

The paper-scale figures come from the analytic model; this bench runs
the *same* direct-send schedules through the discrete-event network
(virtual payloads, real message-by-message timing with endpoint
serialization) at 256-512 ranks and checks the two worlds agree on
magnitudes and on every configuration ordering.  Contention is a
phase-level law calibrated for >> 32K concurrent messages, and the
DES transport deliberately does not model it — so every comparison
here is DES vs the model's *mechanical* part (``endpoint_s``; below
the contention threshold that equals ``seconds - setup_s``).  The 32K
test crosses the threshold and shows the split explicitly: endpoint
mechanics agree between the worlds while the contention law alone
carries the Fig. 8 m = n collapse.
"""

import numpy as np

from benchmarks.conftest import write_result
from repro.analysis.reports import format_table
from repro.compositing.policy import fixed_policy
from repro.model.composite import CompositeTimeModel
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.vmpi import MPIWorld, VirtualPayload
from repro.compositing.schedule import schedule_from_geometry

GRID = (64, 64, 64)
IMAGE = 256
CONFIGS = ((256, 256), (256, 64), (512, 128))

#: Half-rack scale (the engine fast-path acceptance point): the same
#: geometry the DES-scale perf suite times, with the paper's two
#: compositor policies — m = n (every renderer composites) and the
#: improved limited-m schedule.
GRID_2048 = (128, 128, 128)
IMAGE_2048 = 512
CONFIGS_2048 = ((2048, 2048), (2048, 128))

#: Full machine scale, affordable through the sharded parallel DES
#: backend: the paper's Fig. 8 point (32K ranks) plus the 8192-rank
#: step, each under m = n and the limited-m mitigation.
CONFIGS_32K = ((8192, 8192), (8192, 2048), (32768, 32768), (32768, 2048))


def des_composite(nprocs: int, schedule, parallel=None) -> float:
    """Run one compositing phase with virtual payloads; simulated secs."""

    def program(ctx):
        reqs = []
        for msg in schedule.outgoing(ctx.rank):
            dest = schedule.compositor_rank(msg.tile)
            if dest == ctx.rank:
                continue
            reqs.append(ctx.isend(VirtualPayload(msg.nbytes), dest, 42))
        if ctx.rank < schedule.num_compositors:
            expected = [m for m in schedule.incoming(ctx.rank) if m.src != ctx.rank]
            for _ in range(len(expected)):
                yield from ctx.recv(tag=42)
        yield from ctx.waitall(reqs)
        return None

    world = MPIWorld.for_cores(nprocs)
    return world.run(program, parallel=parallel).elapsed_s


def test_model_vs_des_composite(benchmark, results_dir):
    cam = Camera.looking_at_volume(GRID, width=IMAGE, height=IMAGE)
    model = CompositeTimeModel()

    def collect():
        rows = []
        for nprocs, m in CONFIGS:
            dec = BlockDecomposition(GRID, nprocs)
            sched = schedule_from_geometry(dec, cam, m)
            des_s = des_composite(nprocs, sched)
            priced = model.price(sched)
            # The model's setup constant covers schedule construction
            # the DES phase does not perform, and contention is a
            # phase-level law the DES has no counterpart for (zero at
            # this scale anyway); compare the moving parts.
            model_s = priced.endpoint_s
            rows.append((nprocs, m, des_s, model_s, sched.total_messages))
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)

    table = format_table(
        ["ranks", "m", "DES (ms)", "model (ms)", "messages"],
        [[n, m, d * 1e3, mod * 1e3, c] for n, m, d, mod, c in rows],
    )

    for nprocs, m, des_s, model_s, _count in rows:
        ratio = des_s / model_s
        # Same magnitude: the DES includes hop latencies and full
        # message interleaving; the phase model bounds the busiest
        # endpoint analytically.  (Strict ordering is not asserted:
        # at these scales the configurations land within a factor of
        # two of each other in both worlds, below the model's
        # resolution — the scale-driven orderings Figs. 3-4 rely on
        # are asserted in tests/model/test_composite_model.py.)
        assert 0.25 < ratio < 6.0, (nprocs, m, ratio)

    # Both worlds agree all configs sit in one tight band here.
    des_vals = np.array([r[2] for r in rows])
    model_vals = np.array([r[3] for r in rows])
    assert des_vals.max() / des_vals.min() < 5
    assert model_vals.max() / model_vals.min() < 5

    _ = fixed_policy  # imported for interactive variations of this bench
    write_result(
        results_dir,
        "model_vs_des",
        "Cross-validation: analytic composite model vs event-driven runs\n\n"
        + table,
    )


def test_model_vs_des_composite_2048(benchmark, results_dir):
    """The same cross-check at 2048 ranks — the scale the engine
    fast path exists for.  Exercises both compositor policies: m = n
    and the improved limited-m schedule."""
    cam = Camera.looking_at_volume(GRID_2048, width=IMAGE_2048, height=IMAGE_2048)
    model = CompositeTimeModel()

    def collect():
        rows = []
        for nprocs, m in CONFIGS_2048:
            dec = BlockDecomposition(GRID_2048, nprocs)
            sched = schedule_from_geometry(dec, cam, m)
            des_s = des_composite(nprocs, sched)
            priced = model.price(sched)
            model_s = priced.endpoint_s
            rows.append((nprocs, m, des_s, model_s, sched.total_messages))
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)

    table = format_table(
        ["ranks", "m", "DES (ms)", "model (ms)", "messages"],
        [[n, m, d * 1e3, mod * 1e3, c] for n, m, d, mod, c in rows],
    )

    for nprocs, m, des_s, model_s, _count in rows:
        ratio = des_s / model_s
        # Same tolerance band as the small-scale check: the DES plays
        # out hop latencies and endpoint interleaving message by
        # message, the model bounds the busiest endpoint analytically.
        assert 0.25 < ratio < 6.0, (nprocs, m, ratio)

    write_result(
        results_dir,
        "model_vs_des_2048",
        "Cross-validation at 2048 ranks: analytic model vs event-driven\n\n"
        + table,
    )


def test_model_vs_des_composite_32k(benchmark, results_dir):
    """The cross-check at 8192 and 32768 ranks, full fidelity — every
    compositing message a DES event, no analytic shortcut — through
    the sharded conservative-parallel backend (workers=2; the result
    is bitwise independent of the worker count).

    These scales cross the contention threshold, so the comparison
    splits the model: the DES must land in-band against the mechanical
    ``endpoint_s`` part, while the phase-level contention law (which
    the DES transport deliberately does not replay) alone carries the
    Fig. 8 m = n collapse.  Both the DES-mechanical and the full-model
    32K compositor-limiting ratios are recorded for EXPERIMENTS.md."""
    from repro.sim.parallel import ParallelConfig

    cam = Camera.looking_at_volume(GRID_2048, width=IMAGE_2048, height=IMAGE_2048)
    model = CompositeTimeModel()
    parallel = ParallelConfig(workers=2)

    def collect():
        rows = []
        for nprocs, m in CONFIGS_32K:
            dec = BlockDecomposition(GRID_2048, nprocs)
            sched = schedule_from_geometry(dec, cam, m)
            des_s = des_composite(nprocs, sched, parallel=parallel)
            priced = model.price(sched)
            rows.append(
                (nprocs, m, des_s, priced.endpoint_s, priced.contention_s,
                 sched.total_messages)
            )
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)

    des = {(n, m): d for n, m, d, _e, _c, _cnt in rows}
    full = {(n, m): e + c for n, m, _d, e, c, _cnt in rows}
    des_ratio = des[(32768, 32768)] / des[(32768, 2048)]
    model_ratio = full[(32768, 32768)] / full[(32768, 2048)]

    table = format_table(
        ["ranks", "m", "DES (ms)", "endpoint (ms)", "contention (ms)", "messages"],
        [[n, m, d * 1e3, e * 1e3, c * 1e3, cnt] for n, m, d, e, c, cnt in rows],
    )

    for nprocs, m, des_s, endpoint_s, _cont, _count in rows:
        ratio = des_s / endpoint_s
        # The same band as the smaller scales, against the mechanical
        # part only: the DES plays out hop latencies and endpoint
        # interleaving message by message, the model bounds the
        # busiest endpoint analytically.
        assert 0.25 < ratio < 6.0, (nprocs, m, ratio)

    # Fig. 8 direction at 32K: m = n loses to the limited-m
    # mitigation in both worlds.  The DES sees it mechanically (each
    # renderer injects ~65 tiny serialized messages under m = n, even
    # though the model's per-endpoint *bound* is larger for limited-m)
    # and the contention law widens the gap further — the many-small-
    # messages penalty the paper attributes the collapse to.
    assert des_ratio > 1.0
    assert model_ratio > des_ratio
    assert full[(32768, 32768)] > des[(32768, 32768)]

    write_result(
        results_dir,
        "model_vs_des_32k",
        "Cross-validation at 8192/32768 ranks (parallel DES backend)\n\n"
        + table
        + f"\n\n32K compositor-limiting ratio (m=n / m=2048):"
        f" model {model_ratio:.2f}x, DES-mechanical {des_ratio:.2f}x",
    )
