"""Coupling the solver to the renderer: in-situ frames.

One SPMD program owns both codes.  Each iteration: halo exchange, one
solver step (priced at the node's flop rate), and — every
``render_every`` steps — a rendered frame straight from the resident
blocks: ray cast, direct-send, done.  No bytes touch storage.

What the paper's post-hoc workflow would have paid instead is priced
by ``repro insitu`` (``cmd_insitu`` in :mod:`repro.cli`): per rendered
frame, :class:`repro.model.FrameModel`'s read time on top of its render
and composite time — the same I/O model the Fig. 3/7 benches use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compositing.directsend import assemble_final_image, direct_send_compose
from repro.compositing.policy import PAPER_POLICY, CompositorPolicy
from repro.compositing.schedule import schedule_from_geometry
from repro.insitu.simulation import AdvectionDiffusionSim
from repro.machine.specs import NodeSpec
from repro.model.constants import DEFAULT_CONSTANTS, ModelConstants
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.render.ghost import ghost_exchange
from repro.render.raycast import render_block
from repro.render.transfer import TransferFunction
from repro.render.volume import VolumeBlock
from repro.utils.errors import ConfigError
from repro.vmpi.runner import MPIWorld


@dataclass
class InSituResult:
    """Frames and accounting from one coupled run."""

    frames: list[np.ndarray]
    final_field: np.ndarray
    sim_seconds: float  # simulated time in solver compute
    exchange_seconds: float  # simulated time in halo exchanges
    vis_seconds: float  # simulated time rendering + compositing
    steps: int


class InSituPipeline:
    """Simulation and visualization sharing the machine (Sec. VI)."""

    def __init__(
        self,
        world: MPIWorld,
        sim: AdvectionDiffusionSim,
        camera: Camera,
        transfer: TransferFunction,
        step: float = 1.0,
        policy: CompositorPolicy = PAPER_POLICY,
        constants: ModelConstants = DEFAULT_CONSTANTS,
        node: NodeSpec | None = None,
    ):
        self.world = world
        self.sim = sim
        self.camera = camera
        self.transfer = transfer
        self.step = step
        self.policy = policy
        self.constants = constants
        self.node = node or NodeSpec()
        self.decomposition = BlockDecomposition(sim.grid_shape, world.nprocs)

    def run(self, initial: np.ndarray, steps: int, render_every: int = 1) -> InSituResult:
        """Advance ``steps``; render every ``render_every``-th state."""
        if steps < 1 or render_every < 1:
            raise ConfigError("steps and render_every must be >= 1")
        if tuple(initial.shape) != tuple(self.sim.grid_shape):
            raise ConfigError(
                f"initial field {initial.shape} != grid {self.sim.grid_shape}"
            )
        dec = self.decomposition
        m = self.policy.compositors_for(self.world.nprocs)
        schedule = schedule_from_geometry(dec, self.camera, m)
        locals_ = []
        for b in dec.blocks():
            sl = tuple(slice(s, s + c) for s, c in zip(b.start, b.count))
            locals_.append(np.ascontiguousarray(initial[sl], dtype=np.float32))

        flop_rate = self.node.clock_hz  # ~1 flop/cycle/core, honest for PPC450
        sample_rate = (
            self.constants.render.samples_per_second_per_core
            / self.constants.render.load_imbalance
        )

        result = self.world.run(
            _insitu_program,
            locals_,
            dec,
            self.sim,
            self.camera,
            self.transfer,
            self.step,
            schedule,
            steps,
            render_every,
            flop_rate,
            sample_rate,
        )
        frames = [f for f in result[0][0] if f is not None]
        final = np.empty(self.sim.grid_shape, dtype=np.float32)
        for b, (_frames, block_state, _times) in zip(dec.blocks(), result.values):
            sl = tuple(slice(s, s + c) for s, c in zip(b.start, b.count))
            final[sl] = block_state
        times = np.array([r[2] for r in result.values])
        return InSituResult(
            frames=frames,
            final_field=final,
            sim_seconds=float(times[:, 0].max()),
            exchange_seconds=float(times[:, 1].max()),
            vis_seconds=float(times[:, 2].max()),
            steps=steps,
        )


def _insitu_program(
    ctx,
    locals_,
    dec,
    sim,
    camera,
    transfer,
    step,
    schedule,
    steps,
    render_every,
    flop_rate,
    sample_rate,
):
    u = locals_[ctx.rank]
    block = dec.block(ctx.rank)
    frames = []
    t_sim = t_xch = t_vis = 0.0
    for it in range(steps):
        t0 = ctx.now
        padded, ghost_lo = yield from ghost_exchange(ctx, u, dec, ghost=1)
        t1 = ctx.now
        u = sim.step_padded(padded, ghost_lo, block.start, block.count)
        yield from ctx.compute(u.size * sim.flops_per_voxel() / flop_rate)
        t2 = ctx.now
        t_xch += t1 - t0
        t_sim += t2 - t1
        if (it + 1) % render_every == 0:
            padded2, gl2 = yield from ghost_exchange(ctx, u, dec, ghost=1)
            vb = VolumeBlock(padded2, dec.grid_shape, block.start, block.count, gl2)
            partial = render_block(camera, vb, transfer, step)
            samples = partial.samples if partial is not None else 0
            yield from ctx.compute(samples / sample_rate)
            tile = yield from direct_send_compose(ctx, partial, schedule)
            frame = yield from assemble_final_image(ctx, tile, schedule, root=0)
            frames.append(frame)
            t_vis += ctx.now - t2
    return frames, u, (t_sim, t_xch, t_vis)
