"""Sort-last image compositing (Sec. III-B3 of the paper).

* :mod:`repro.compositing.tiles` — the final image divided into tiles,
  one per compositor.
* :mod:`repro.compositing.schedule` — the static message schedule:
  which renderer sends which footprint piece to which compositor.
  "The number of compositors is known at initialization time, and the
  schedule of messages is built around this number from the beginning."
* :mod:`repro.compositing.policy` — how m is chosen from n, including
  the paper's empirical schedule (1K compositors for 1K-4K renderers,
  2K beyond).
* :mod:`repro.compositing.backends` — the pluggable backend registry
  every consumer (pipeline, CLI, farm, benches) dispatches through.

Two algorithm families sit behind the registry:

* **tile-routed** — :mod:`repro.compositing.directsend`, the paper's
  direct-send (n renderers, m <= n tile-owning compositors) and the
  family's shared core.  :mod:`repro.compositing.dfb` changes *when* a
  piece enters the wire (streamed under the ray-march),
  :mod:`repro.compositing.puzzlepiece` *whether* it does (dropped under
  a per-pixel ``error_budget``).
* **round-based** — :mod:`repro.compositing.radixk`, grouped exchange
  rounds (the SC'09 follow-on); :mod:`repro.compositing.binaryswap`
  (Ma et al.) is its k = 2 case.
* :mod:`repro.compositing.serial` — gather-to-root baseline and the
  correctness oracle.
"""

from repro.compositing.tiles import TileDecomposition
from repro.compositing.schedule import (
    CompositeMessage,
    CompositeSchedule,
    build_schedule,
    clear_schedule_cache,
    schedule_cache_info,
    schedule_from_geometry,
)
from repro.compositing.policy import CompositorPolicy, PAPER_POLICY, IDENTITY_POLICY
from repro.compositing.directsend import (
    assemble_final_image,
    assemble_tiles,
    direct_send_compose,
    direct_send_compose_failover,
)
from repro.compositing.binaryswap import binary_swap_compose
from repro.compositing.radixk import radix_k_compose, radix_k_gather, default_radices
from repro.compositing.serial import serial_compose
from repro.compositing.dfb import dfb_compose, dfb_compose_failover
from repro.compositing.puzzlepiece import puzzlepiece_compose, puzzle_thresholds
from repro.compositing.backends import (
    ComposeRequest,
    CompositingBackend,
    backend_names,
    get_backend,
    register_backend,
)

__all__ = [
    "ComposeRequest",
    "CompositingBackend",
    "backend_names",
    "get_backend",
    "register_backend",
    "dfb_compose",
    "dfb_compose_failover",
    "puzzlepiece_compose",
    "puzzle_thresholds",
    "TileDecomposition",
    "CompositeMessage",
    "CompositeSchedule",
    "build_schedule",
    "clear_schedule_cache",
    "schedule_cache_info",
    "schedule_from_geometry",
    "CompositorPolicy",
    "PAPER_POLICY",
    "IDENTITY_POLICY",
    "direct_send_compose",
    "direct_send_compose_failover",
    "assemble_final_image",
    "assemble_tiles",
    "binary_swap_compose",
    "radix_k_compose",
    "radix_k_gather",
    "default_radices",
    "serial_compose",
]
