"""The five-way compositing shootout: 512 -> 32768 ranks.

One benchmark family runs every registered communication pattern —
direct-send, Distributed FrameBuffer, puzzlepiece, binary swap, and
radix-k (the serial gather rides along as the anti-baseline) — over the
same frame geometry with *virtual payloads*: the DES network moves real
messages with schedule-true byte counts but no pixel arrays, so the
torus timing, message totals, and link contention are measured, not
modeled, while 32K-rank runs stay tractable.

Per backend and scale the shootout records four numbers:

* ``messages`` / ``bytes`` — wire totals counted by the DES network;
* ``max_link_bytes`` — the static contention metric: the heaviest
  inbound ejection load any *node* sees (messages whose source shares
  the node don't cross the torus and are excluded);
* ``frame_s`` — simulated seconds for march + compositing.  Every
  backend charges the same modeled ``RENDER_S`` ray-march, so frame
  time differences are pure communication structure — this is where
  the DFB's overlap shows up as a shorter frame despite byte totals
  identical to direct-send.

Puzzlepiece needs a drop decision without pixels.  The functional runs
measured which pieces a 0.05 budget elides — the smallest slivers and
empty balancing pieces, 26 of 181 scheduled messages (14%) in the
16-rank pixel-exact configuration (see ``tests/compositing/
test_puzzlepiece.py``) — so the virtual model drops the smallest
``PUZZLE_DROP_FRAC`` of each tile's scheduled pieces, deterministically.

The 512-rank entry is the CI guard (about a second); the 32768-rank
entry is recorded once (``guard: false``) because a five-backend sweep
at 32K ranks costs minutes of wall-clock.  The 2048-rank scale is not a
ledger entry: ``run_shootout(2048)`` reproduces the EXPERIMENTS.md
shootout table.
"""

from __future__ import annotations

import time

#: Modeled ray-march seconds, identical for every backend at a scale —
#: the knob that makes overlap visible in frame_s.
RENDER_S = 0.02

#: Fraction of each tile's scheduled pieces the virtual puzzlepiece
#: drops (smallest first) — calibrated against the functional
#: budget=0.05 measurement (26/181 pieces, see module docstring).
PUZZLE_DROP_FRAC = 0.14

#: ranks -> cubic grid edge, square image edge
SCALES = {
    512: {"grid": 128, "image": 512},
    2048: {"grid": 128, "image": 512},
    32768: {"grid": 256, "image": 1024},
}

BACKENDS = ("directsend", "dfb", "puzzlepiece", "binaryswap", "radixk", "serial")

_TAG = 7900


def _geometry(ranks: int):
    from repro.compositing.policy import PAPER_POLICY
    from repro.compositing.schedule import schedule_from_geometry
    from repro.render.camera import Camera
    from repro.render.decomposition import BlockDecomposition

    cfg = SCALES[ranks]
    grid = (cfg["grid"],) * 3
    m = PAPER_POLICY.compositors_for(ranks)
    dec = BlockDecomposition(grid, ranks)
    cam = Camera.looking_at_volume(grid, width=cfg["image"], height=cfg["image"])
    return schedule_from_geometry(dec, cam, m), cfg["image"] ** 2 * 16


def _puzzle_kept(schedule):
    """Per-tile kept incoming messages after the calibrated drop."""
    kept: dict[int, list] = {}
    for t in range(schedule.num_compositors):
        incoming = sorted(schedule.incoming(t), key=lambda m: (m.pixels, m.src))
        drops = int(PUZZLE_DROP_FRAC * len(incoming))
        kept[t] = incoming[drops:]
    return kept


def _radix_rounds(n: int, k: int = 4):
    """(radix, stride) per round — the grouped exchange structure."""
    from repro.compositing.radixk import default_radices

    rounds = []
    stride = 1
    for r in default_radices(n, k):
        rounds.append((r, stride))
        stride *= r
    return rounds


# ---------------------------------------------------------------------------
# Static message lists: [(src, dest, nbytes)] per backend.  The DES
# programs below move exactly these messages; the static form feeds the
# max-link contention metric without a second simulation.
# ---------------------------------------------------------------------------

def _schedule_wire(schedule, kept_by_tile=None):
    out = []
    for t in range(schedule.num_compositors):
        owner = schedule.compositor_rank(t)
        incoming = schedule.incoming(t) if kept_by_tile is None else kept_by_tile[t]
        for m in incoming:
            if m.src != owner:
                out.append((m.src, owner, m.nbytes))
    return out


def _gather_wire(schedule, image_bytes, n):
    m = schedule.num_compositors
    return [(r, 0, image_bytes // m) for r in range(1, m)]


def _binaryswap_wire(n, image_bytes):
    out = []
    remaining = image_bytes
    bit = 1
    while bit < n:
        half = remaining // 2
        for rank in range(n):
            out.append((rank, rank ^ bit, half))
        remaining = half
        bit <<= 1
    out.extend((r, 0, image_bytes // n) for r in range(1, n))
    return out


def _radixk_wire(n, image_bytes):
    out = []
    remaining = image_bytes
    for radix, stride in _radix_rounds(n):
        share = remaining // radix
        for rank in range(n):
            base = rank - ((rank // stride) % radix) * stride
            for j in range(radix):
                partner = base + j * stride
                if partner != rank:
                    out.append((rank, partner, share))
        remaining = share
    out.extend((r, 0, image_bytes // n) for r in range(1, n))
    return out


def _serial_wire(schedule, n):
    # A rank's footprint pieces partition its footprint, so their byte
    # sum is exactly the partial image it would ship to root.
    out = []
    for rank in range(1, n):
        nbytes = sum(m.nbytes for m in schedule.outgoing(rank))
        if nbytes:
            out.append((rank, 0, nbytes))
    return out


def wire_messages(name, schedule, n, image_bytes):
    if name in ("directsend", "dfb"):
        return _schedule_wire(schedule) + _gather_wire(schedule, image_bytes, n)
    if name == "puzzlepiece":
        return (_schedule_wire(schedule, _puzzle_kept(schedule))
                + _gather_wire(schedule, image_bytes, n))
    if name == "binaryswap":
        return _binaryswap_wire(n, image_bytes)
    if name == "radixk":
        return _radixk_wire(n, image_bytes)
    if name == "serial":
        return _serial_wire(schedule, n)
    raise ValueError(name)


def max_link_bytes(wire, mapping):
    """Heaviest inbound ejection load over nodes (intra-node excluded)."""
    import numpy as np

    if not wire:
        return 0
    arr = np.asarray(wire, dtype=np.int64)
    src_nodes = mapping.node_of(arr[:, 0])
    dest_nodes = mapping.node_of(arr[:, 1])
    crossing = src_nodes != dest_nodes
    if not crossing.any():
        return 0
    return int(np.bincount(dest_nodes[crossing], weights=arr[:, 2][crossing]).max())


# ---------------------------------------------------------------------------
# The DES programs (virtual payloads, schedule-true bytes).
# ---------------------------------------------------------------------------

def _fanout_program(schedule, image_bytes, n, kept_by_tile=None, barrier=False):
    """Direct-send / puzzlepiece: march, fan out, receive, gather."""
    from repro.vmpi import VirtualPayload

    # Built once and shared by every rank's closure: a per-rank copy
    # at 32768 ranks is ~230K entries x 32768 generators — an OOM.
    kept_mine = None
    if kept_by_tile is not None:
        kept_mine = {
            (m.src, m.tile) for msgs in kept_by_tile.values() for m in msgs
        }

    def program(ctx):
        yield from ctx.compute(RENDER_S)
        batch = []
        for msg in schedule.outgoing(ctx.rank):
            dest = schedule.compositor_rank(msg.tile)
            if dest == ctx.rank:
                continue
            if kept_mine is not None and (msg.src, msg.tile) not in kept_mine:
                continue
            batch.append((dest, VirtualPayload(msg.nbytes)))
        reqs = ctx.isend_many(batch, _TAG) if batch else []
        if barrier:
            # Puzzlepiece's drain protocol: delivered, then everyone's.
            yield from ctx.waitall(reqs)
            yield from ctx.gi_barrier()
            reqs = []
        if ctx.rank < schedule.num_compositors:
            incoming = (
                schedule.incoming(ctx.rank)
                if kept_by_tile is None else kept_by_tile[ctx.rank]
            )
            expected = sum(1 for m in incoming if m.src != ctx.rank)
            for _ in range(expected):
                yield from ctx.recv(tag=_TAG)
        yield from ctx.waitall(reqs)
        yield from _gather(ctx, schedule, image_bytes)

    return program


def _dfb_program(schedule, image_bytes):
    """Chunked march with interleaved piece sends (the overlap)."""
    from repro.vmpi import VirtualPayload

    def program(ctx):
        outgoing = schedule.outgoing(ctx.rank)
        total_px = sum(m.pixels for m in outgoing)
        reqs = []
        if total_px == 0:
            yield from ctx.compute(RENDER_S)
        else:
            spent = 0.0
            for i, msg in enumerate(outgoing):
                chunk = (
                    max(0.0, RENDER_S - spent)
                    if i == len(outgoing) - 1
                    else RENDER_S * (msg.pixels / total_px)
                )
                spent += chunk
                if chunk > 0:
                    yield from ctx.compute(chunk)
                dest = schedule.compositor_rank(msg.tile)
                if dest != ctx.rank:
                    reqs.append(ctx.isend(VirtualPayload(msg.nbytes), dest, tag=_TAG))
        if ctx.rank < schedule.num_compositors:
            expected = sum(
                1 for m in schedule.incoming(ctx.rank) if m.src != ctx.rank
            )
            for _ in range(expected):
                yield from ctx.recv(tag=_TAG)
        yield from ctx.waitall(reqs)
        yield from _gather(ctx, schedule, image_bytes)

    return program


def _gather(ctx, schedule, image_bytes):
    from repro.vmpi import VirtualPayload

    m = schedule.num_compositors
    if ctx.rank == 0:
        for _ in range(m - 1):
            yield from ctx.recv(tag=_TAG + 1)
    elif ctx.rank < m:
        req = ctx.isend(VirtualPayload(image_bytes // m), 0, tag=_TAG + 1)
        yield from ctx.waitall([req])


def _binaryswap_program(n, image_bytes):
    from repro.vmpi import VirtualPayload

    def program(ctx):
        yield from ctx.compute(RENDER_S)
        remaining = image_bytes
        bit = 1
        rnd = 0
        while bit < n:
            half = remaining // 2
            req = ctx.isend(VirtualPayload(half), ctx.rank ^ bit, tag=_TAG + 2 + rnd)
            yield from ctx.recv(source=ctx.rank ^ bit, tag=_TAG + 2 + rnd)
            yield from ctx.waitall([req])
            remaining = half
            bit <<= 1
            rnd += 1
        if ctx.rank == 0:
            for _ in range(n - 1):
                yield from ctx.recv(tag=_TAG + 1)
        else:
            req = ctx.isend(VirtualPayload(image_bytes // n), 0, tag=_TAG + 1)
            yield from ctx.waitall([req])

    return program


def _radixk_program(n, image_bytes):
    from repro.vmpi import VirtualPayload

    rounds = _radix_rounds(n)

    def program(ctx):
        yield from ctx.compute(RENDER_S)
        remaining = image_bytes
        for rnd, (radix, stride) in enumerate(rounds):
            share = remaining // radix
            base = ctx.rank - ((ctx.rank // stride) % radix) * stride
            partners = [base + j * stride for j in range(radix) if base + j * stride != ctx.rank]
            reqs = [
                ctx.isend(VirtualPayload(share), p, tag=_TAG + 2 + rnd)
                for p in partners
            ]
            for _ in partners:
                yield from ctx.recv(tag=_TAG + 2 + rnd)
            yield from ctx.waitall(reqs)
            remaining = share
        if ctx.rank == 0:
            for _ in range(n - 1):
                yield from ctx.recv(tag=_TAG + 1)
        else:
            req = ctx.isend(VirtualPayload(image_bytes // n), 0, tag=_TAG + 1)
            yield from ctx.waitall([req])

    return program


def _serial_program(schedule, n):
    from repro.vmpi import VirtualPayload

    def program(ctx):
        yield from ctx.compute(RENDER_S)
        if ctx.rank == 0:
            senders = sum(
                1 for r in range(1, n)
                if sum(m.nbytes for m in schedule.outgoing(r))
            )
            for _ in range(senders):
                yield from ctx.recv(tag=_TAG)
        else:
            nbytes = sum(m.nbytes for m in schedule.outgoing(ctx.rank))
            if nbytes:
                req = ctx.isend(VirtualPayload(nbytes), 0, tag=_TAG)
                yield from ctx.waitall([req])

    return program


def _program_for(name, schedule, n, image_bytes):
    if name == "directsend":
        return _fanout_program(schedule, image_bytes, n)
    if name == "puzzlepiece":
        return _fanout_program(
            schedule, image_bytes, n,
            kept_by_tile=_puzzle_kept(schedule), barrier=True,
        )
    if name == "dfb":
        return _dfb_program(schedule, image_bytes)
    if name == "binaryswap":
        return _binaryswap_program(n, image_bytes)
    if name == "radixk":
        return _radixk_program(n, image_bytes)
    if name == "serial":
        return _serial_program(schedule, n)
    raise ValueError(name)


def run_shootout(ranks: int) -> dict:
    """All six patterns at one scale; returns the per-backend table."""
    from repro.vmpi import MPIWorld

    schedule, image_bytes = _geometry(ranks)
    results = {}
    for name in BACKENDS:
        world = MPIWorld.for_cores(ranks)
        wire = wire_messages(name, schedule, ranks, image_bytes)
        res = world.run(_program_for(name, schedule, ranks, image_bytes))
        results[name] = {
            "messages": int(res.messages),
            "bytes": int(res.bytes_sent),
            "max_link_bytes": max_link_bytes(wire, world.mapping),
            "frame_s": float(res.elapsed_s),
        }
    return results


def _entry(ranks: int, repeats: int, guard: bool) -> dict:
    """``repeats`` timed shootouts (no warmup: one run is the guard's
    whole cost) and the structural claims of the last."""
    cfg = SCALES[ranks]
    samples = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        results = run_shootout(ranks)
        samples.append(time.perf_counter() - t0)

    ds, pp = results["directsend"], results["puzzlepiece"]
    dfb = results["dfb"]
    # Structural claims, asserted on every run (not just recorded) so a
    # protocol regression fails the guard whatever the wall clock.
    assert dfb["messages"] == ds["messages"] and dfb["bytes"] == ds["bytes"], (
        "DFB wire totals must match direct-send's"
    )
    assert dfb["frame_s"] < ds["frame_s"], "DFB overlap must shorten the frame"
    assert pp["messages"] < ds["messages"] and pp["bytes"] < ds["bytes"], (
        "puzzlepiece must save messages and bytes"
    )
    return {
        "guard": guard,
        "config": {
            "ranks": ranks,
            "grid": cfg["grid"],
            "image": cfg["image"],
            "render_s": RENDER_S,
            "puzzle_drop_frac": PUZZLE_DROP_FRAC,
            "payloads": "virtual",
        },
        "samples": samples,
        "facts": {
            "backends": results,
            "dfb_matches_directsend_wire": True,
            "dfb_overlap_wins_s": ds["frame_s"] - dfb["frame_s"],
            "puzzle_message_savings": 1.0 - pp["messages"] / ds["messages"],
            "puzzle_byte_savings": 1.0 - pp["bytes"] / ds["bytes"],
        },
    }


def bench_compositing_shootout_512(repeats: int = 1) -> dict:
    return _entry(512, repeats, guard=True)


def bench_compositing_shootout_32768(repeats: int = 1) -> dict:
    return _entry(32768, repeats, guard=False)


def bench_schedule_build_8192(repeats: int = 5) -> dict:
    """Cold ``schedule_from_geometry`` at the paper's 8192-core frame
    (1120^3 grid, 1600^2 image, m = n): the build every model point and
    every uncached DES frame pays.  ``first_use_seconds`` is the one-off
    cost of materialising and grouping the per-message records, which
    only readers of ``messages`` / ``incoming`` / ``outgoing`` pay."""
    from benchmarks.perf.suite import timed
    from repro.compositing.schedule import schedule_from_geometry
    from repro.render.camera import Camera
    from repro.render.decomposition import BlockDecomposition

    ranks, grid, image = 8192, (1120, 1120, 1120), 1600
    dec = BlockDecomposition(grid, ranks)
    cam = Camera.looking_at_volume(grid, width=image, height=image)
    samples, schedule = timed(
        lambda: schedule_from_geometry(dec, cam, ranks, cache=False), repeats
    )
    t0 = time.perf_counter()
    schedule.outgoing(0)
    schedule.incoming(0)
    first_use = time.perf_counter() - t0
    return {
        "guard": True,
        "config": {"ranks": ranks, "grid": grid[0], "image": image, "compositors": ranks},
        "samples": samples,
        "facts": {
            "first_use_seconds": first_use,
            "messages": int(schedule.total_messages),
            "bytes": int(schedule.total_bytes),
        },
    }


COMPOSITING_BENCHMARKS = {
    "schedule_build_8192": bench_schedule_build_8192,
    "compositing_shootout_512": bench_compositing_shootout_512,
    "compositing_shootout_32768": bench_compositing_shootout_32768,
}
