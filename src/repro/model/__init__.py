"""The calibrated analytic performance model.

The functional pipeline proves the algorithms correct at 8-512 ranks;
this package extends the *same message schedules and access plans* to
the paper's 8K-32K cores with calibrated BG/P cost laws.  Every bench
that regenerates a paper table or figure runs through here.

Calibration provenance lives in :mod:`repro.model.constants`; the
paper-vs-model comparison for every experiment is in EXPERIMENTS.md.
"""

from repro.model.constants import ModelConstants, DEFAULT_CONSTANTS
from repro.model.io import IOTimeModel, IOStageResult
from repro.model.render import RenderTimeModel, RenderStageResult
from repro.model.composite import CompositeTimeModel, CompositeStageResult
from repro.model.pipeline import FrameModel, FrameEstimate, DATASETS, PaperDataset
from repro.model.memory import MemoryEstimate, frame_memory, min_cores_in_core

__all__ = [
    "ModelConstants",
    "DEFAULT_CONSTANTS",
    "IOTimeModel",
    "IOStageResult",
    "RenderTimeModel",
    "RenderStageResult",
    "CompositeTimeModel",
    "CompositeStageResult",
    "FrameModel",
    "FrameEstimate",
    "DATASETS",
    "PaperDataset",
    "MemoryEstimate",
    "frame_memory",
    "min_cores_in_core",
]
