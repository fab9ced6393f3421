"""Epipolar-supervised coarse-to-fine matching toolkit."""

__version__ = "0.1.0"

from . import errors
from .geometry import (
    Camera,
    CameraIntrinsics,
    RelativePose,
    canonicalize,
    cross_matrix,
    decompose_essential,
    essential_from_pose,
    fundamental_from_pose,
    fundamental_to_essential,
    project_points,
    symmetric_epipolar_distance_sq,
)

__all__ = [
    "errors",
    "Camera",
    "CameraIntrinsics",
    "RelativePose",
    "canonicalize",
    "cross_matrix",
    "decompose_essential",
    "essential_from_pose",
    "fundamental_from_pose",
    "fundamental_to_essential",
    "project_points",
    "symmetric_epipolar_distance_sq",
]
