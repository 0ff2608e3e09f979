"""The exact grid kernel.

The kernel lives in `pure`; this package re-exports the names the map
layer calls, so callers go through ``plmonster._core`` and never through
the implementation module.
"""

from .pure import (
    ONE,
    ZERO,
    _interp,
    anchor_is_straight,
    canon_grid,
    compose,
    displacement,
    eval_lift,
    invert,
    rcmp,
    slopes,
)

BACKEND = "pure"
