"""Progressive refinement: low-res-first interactive rendering.

One request becomes a coarse-to-fine *resolution ladder* of real
DES-priced frames — time to first pixel drops by the cube of the
coarsest scale while the final level stays bitwise identical to a
direct full-resolution render.  ``render_ladder(cancel_after_s=...)``
is the interactive semantics (a camera move cancels the un-started
levels); the farm tier wires the same ladder into the service
simulation as the ``interactive`` session kind.
"""

from repro.progressive.ladder import (
    build_pyramid,
    check_ladder_fits,
    ladder_edges,
    ladder_scales,
    level_edge,
    levels_before_move,
    subsample,
)
from repro.progressive.renderer import (
    LevelFrame,
    ProgressiveRenderer,
    ProgressiveResult,
)

__all__ = [
    "LevelFrame",
    "ProgressiveRenderer",
    "ProgressiveResult",
    "build_pyramid",
    "check_ladder_fits",
    "ladder_edges",
    "ladder_scales",
    "level_edge",
    "levels_before_move",
    "subsample",
]
