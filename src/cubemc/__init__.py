"""Sphere-uniform motion compensation for 4x3 cube-map 360-degree video.

The package provides the unfold/cube/sphere geometry, the per-pixel
correspondence model driven by one block MV, fixed-point fractional
warping, zone search with merge/AMVP predictor derivation, and an
evaluation harness comparing the advanced model against classic
translational block motion compensation.
"""

from cubemc.geometry import (
    NO_FACE,
    CubeLayout,
    Face,
    cube_to_sphere,
    cube_to_unfold,
    face_of,
    sphere_to_cube,
    sphere_to_unfold,
    unfold_to_cube,
    unfold_to_sphere,
)
from cubemc.motion_model import (
    Block,
    CorrespondenceField,
    MotionVector,
    build_correspondence_field,
    translational_field,
    transport_mv_predictor,
    transport_point,
)
from cubemc.interp import (
    chroma_field,
    fetch_block,
    generate_dctif_bank,
    sample_fractional,
    warp_block,
)
from cubemc.frame_io import (
    Frame,
    SyntheticSpec,
    generate_synthetic,
    ground_truth_match,
    read_yuv420,
    write_yuv420,
)
from cubemc.motion_search import (
    BlockGrid,
    BlockRecord,
    PredMode,
    ReferencePicture,
    SearchConfig,
    amvp_predictor,
    merge_candidate,
    mode_decide,
    mv_bits,
    sad,
    tzs_search,
)
from cubemc.evaluate import (
    EvalConfig,
    EvalConfigError,
    EvalReport,
    emit_csv,
    run_eval,
)

__version__ = "0.1.0"

__all__ = [
    "NO_FACE",
    "CubeLayout",
    "Face",
    "cube_to_sphere",
    "cube_to_unfold",
    "face_of",
    "sphere_to_cube",
    "sphere_to_unfold",
    "unfold_to_cube",
    "unfold_to_sphere",
    "Block",
    "CorrespondenceField",
    "MotionVector",
    "build_correspondence_field",
    "translational_field",
    "transport_mv_predictor",
    "transport_point",
    "chroma_field",
    "fetch_block",
    "generate_dctif_bank",
    "sample_fractional",
    "warp_block",
    "Frame",
    "SyntheticSpec",
    "generate_synthetic",
    "ground_truth_match",
    "read_yuv420",
    "write_yuv420",
    "BlockGrid",
    "BlockRecord",
    "PredMode",
    "ReferencePicture",
    "SearchConfig",
    "amvp_predictor",
    "merge_candidate",
    "mode_decide",
    "mv_bits",
    "sad",
    "tzs_search",
    "EvalConfig",
    "EvalConfigError",
    "EvalReport",
    "emit_csv",
    "run_eval",
]
