"""Sphere-uniform motion compensation for 4x3 cube-map 360-degree video.

The package provides the unfold/cube/sphere geometry, the per-pixel
correspondence model driven by one block MV, fixed-point fractional
warping, zone search with merge/AMVP predictor derivation, and an
evaluation harness comparing the advanced model against classic
translational block motion compensation.
"""

from cubemc.geometry import *
from cubemc.motion_model import *
from cubemc.interp import *
from cubemc.frame_io import *
from cubemc.motion_search import *
from cubemc.evaluate import *
from cubemc import evaluate, frame_io, geometry, interp, motion_model, motion_search

__version__ = "0.1.0"

# each name is listed once, in its module's __all__
__all__ = [
    name
    for module in (geometry, motion_model, interp, frame_io, motion_search, evaluate)
    for name in module.__all__
]
