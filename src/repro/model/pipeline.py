"""End-to-end frame model: I/O + rendering + compositing (Sec. III-B).

``FrameModel`` reproduces the paper's experiment grid: a dataset
(1120^3 / 2240^3 / 4480^3 with matching 1600^2 / 2048^2 / 4096^2
images), a core count, an I/O mode, and a compositing configuration.
All three stage costs come from the exact plans/schedules the library
builds — only the cost laws are calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.compositing.policy import IDENTITY_POLICY, PAPER_POLICY, CompositorPolicy
from repro.compositing.schedule import schedule_from_geometry
from repro.formats.h5lite import H5LiteWriter
from repro.formats.netcdf import NetCDFWriter
from repro.formats.raw import RawVolume
from repro.machine.partition import Partition
from repro.model.composite import CompositeStageResult, CompositeTimeModel
from repro.model.constants import DEFAULT_CONSTANTS, ModelConstants
from repro.model.io import IOStageResult, IOTimeModel
from repro.model.render import RenderStageResult, RenderTimeModel
from repro.pio.hints import IOHints, tuned_netcdf_hints
from repro.pio.reader import H5LiteHandle, IOReport, NetCDFHandle, RawHandle, plan_read_blocks
from repro.render.camera import Camera
from repro.render.decomposition import BlockDecomposition
from repro.utils.errors import ConfigError

#: The five variables of the VH-1 supernova time step (Sec. II-A).
VH1_VARIABLES = ("pressure", "density", "vx", "vy", "vz")

IO_MODES = ("raw", "netcdf", "netcdf-tuned", "netcdf64", "h5lite")


@dataclass(frozen=True)
class PaperDataset:
    """One row of the paper's experiment grid."""

    name: str
    grid: int  # cubic grid edge
    image: int  # square image edge

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return (self.grid, self.grid, self.grid)

    @property
    def volume_bytes(self) -> int:
        return self.grid**3 * 4

    @property
    def netcdf_bytes(self) -> int:
        """Five interleaved record variables (the 27 GB time step)."""
        return len(VH1_VARIABLES) * self.volume_bytes


DATASETS: dict[str, PaperDataset] = {
    "1120": PaperDataset("1120", 1120, 1600),
    "2240": PaperDataset("2240", 2240, 2048),
    "4480": PaperDataset("4480", 4480, 4096),
}


@dataclass(frozen=True)
class FrameEstimate:
    """A priced frame: the paper's instrumentation (Sec. III-B)."""

    dataset: PaperDataset
    cores: int
    io_mode: str
    io: IOStageResult
    render: RenderStageResult
    composite: CompositeStageResult
    num_compositors: int

    @property
    def total_s(self) -> float:
        return self.io.seconds + self.render.seconds + self.composite.seconds

    @property
    def vis_only_s(self) -> float:
        """Rendering + compositing, for comparison with I/O-less studies."""
        return self.render.seconds + self.composite.seconds

    @property
    def pct_io(self) -> float:
        return 100.0 * self.io.seconds / self.total_s

    @property
    def pct_render(self) -> float:
        return 100.0 * self.render.seconds / self.total_s

    @property
    def pct_composite(self) -> float:
        return 100.0 * self.composite.seconds / self.total_s

    @property
    def read_bw_Bps(self) -> float:
        """The paper's Table II metric: useful bytes / I/O seconds."""
        return self.io.useful_bytes / self.io.seconds if self.io.seconds else 0.0


class FrameModel:
    """Prices frames of one dataset across core counts and I/O modes."""

    def __init__(
        self,
        dataset: PaperDataset,
        constants: ModelConstants = DEFAULT_CONSTANTS,
        step: float = 1.0,
    ):
        self.dataset = dataset
        self.constants = constants
        self.step = step
        self.io_model = IOTimeModel(constants)
        self.render_model = RenderTimeModel(constants)
        self.composite_model = CompositeTimeModel(constants)
        self._camera_cache: dict[int, Camera] = {}

    # -- pieces ------------------------------------------------------------

    def camera(self) -> Camera:
        d = self.dataset
        if d.image not in self._camera_cache:
            self._camera_cache[d.image] = Camera.looking_at_volume(
                d.grid_shape, width=d.image, height=d.image
            )
        return self._camera_cache[d.image]

    def io_report(self, io_mode: str, cores: int) -> IOReport:
        """Exact access plan for reading one variable at this scale."""
        if io_mode not in IO_MODES:
            raise ConfigError(f"unknown io mode {io_mode!r}; choose from {IO_MODES}")
        partition = Partition.for_cores(cores)
        naggs = self.io_model.default_aggregators(partition)
        handle, hints = _build_handle(self.dataset.grid, io_mode, naggs)
        return plan_read_blocks(handle, nprocs=cores, hints=hints)

    def io_stage(self, io_mode: str, cores: int) -> IOStageResult:
        partition = Partition.for_cores(cores)
        return self.io_model.price(self.io_report(io_mode, cores), partition)

    def render_stage(self, cores: int) -> RenderStageResult:
        d = self.dataset
        return self.render_model.price(d.grid_shape, d.image, d.image, cores, self.step)

    def composite_stage(
        self,
        cores: int,
        policy: CompositorPolicy = PAPER_POLICY,
        strips: bool = False,
    ) -> CompositeStageResult:
        m = policy.compositors_for(cores)
        decomposition = BlockDecomposition(self.dataset.grid_shape, cores)
        schedule = schedule_from_geometry(
            decomposition, self.camera(), m, strips=strips, cache=False
        )
        return self.composite_model.price(schedule)

    # -- frames ------------------------------------------------------------

    def estimate(
        self,
        cores: int,
        io_mode: str = "raw",
        policy: CompositorPolicy = PAPER_POLICY,
    ) -> FrameEstimate:
        comp = self.composite_stage(cores, policy)
        return FrameEstimate(
            dataset=self.dataset,
            cores=cores,
            io_mode=io_mode,
            io=self.io_stage(io_mode, cores),
            render=self.render_stage(cores),
            composite=comp,
            num_compositors=comp.num_compositors,
        )

    def estimate_original(self, cores: int, io_mode: str = "raw") -> FrameEstimate:
        """The pre-improvement configuration: every renderer composites."""
        return self.estimate(cores, io_mode, policy=IDENTITY_POLICY)


@lru_cache(maxsize=32)
def _build_handle(grid: int, io_mode: str, naggs: int):
    """Virtual paper-scale file + matching hints for one I/O mode."""
    base = IOHints(cb_nodes=naggs)
    if io_mode == "raw":
        return RawHandle(RawVolume.virtual((grid, grid, grid))), base
    if io_mode in ("netcdf", "netcdf-tuned"):
        w = NetCDFWriter(version=2)
        w.create_dimension("z", None)
        w.create_dimension("y", grid)
        w.create_dimension("x", grid)
        for name in VH1_VARIABLES:
            w.create_variable(name, np.float32, ("z", "y", "x"))
        nc = w.write_header_only(numrecs=grid)
        handle = NetCDFHandle(nc, "pressure")
        hints = tuned_netcdf_hints(handle.record_bytes, base) if io_mode == "netcdf-tuned" else base
        return handle, hints
    if io_mode == "netcdf64":
        # The "future netCDF" with 64-bit sizes: one huge non-record
        # variable per field -> contiguous like HDF5 (Sec. V-B).
        w = NetCDFWriter(version=5)
        w.create_dimension("z", grid)
        w.create_dimension("y", grid)
        w.create_dimension("x", grid)
        for name in VH1_VARIABLES:
            w.create_variable(name, np.float32, ("z", "y", "x"))
        nc = w.write_header_only(numrecs=0)
        return NetCDFHandle(nc, "pressure"), base
    if io_mode == "h5lite":
        hw = H5LiteWriter()
        for name in VH1_VARIABLES:
            hw.create_virtual_dataset(name, (grid, grid, grid), "<f4")
        return H5LiteHandle(hw.write_header_only(), "pressure"), base
    raise ConfigError(f"unknown io mode {io_mode!r}")
