"""The paper's system: the end-to-end parallel volume renderer.

:class:`ParallelVolumeRenderer` runs the three-stage frame —
collective I/O, local ray casting, direct-send compositing — as one
SPMD program on the simulated Blue Gene/P, producing a real image and
a :class:`FrameTiming` with the paper's instrumentation ("the time
from the start of reading the time step from disk to the time that the
final image is completed", split into I/O, rendering, and compositing).
"""

from repro.core.timing import FrameTiming
from repro.core.pipeline import ParallelVolumeRenderer, FrameResult
from repro.core.plan import FramePlan, FramePlanCache, block_world_bounds
from repro.core.timeseries import (
    FrameSlot,
    PipelinedTimeSeriesRenderer,
    PipelineTimeline,
    TimeSeriesResult,
    campaign_trace,
    render_time_series,
    simulate_pipeline,
)

__all__ = [
    "FrameTiming",
    "ParallelVolumeRenderer",
    "FrameResult",
    "FramePlan",
    "FramePlanCache",
    "block_world_bounds",
    "TimeSeriesResult",
    "render_time_series",
    "FrameSlot",
    "PipelineTimeline",
    "PipelinedTimeSeriesRenderer",
    "campaign_trace",
    "simulate_pipeline",
]
