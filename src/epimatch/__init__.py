"""Epipolar-supervised coarse-to-fine matching toolkit."""

__version__ = "0.1.0"

from . import errors
from .geometry import (
    Camera,
    CameraIntrinsics,
    FundamentalMatrix,
    RelativePose,
    cross_matrix,
    decompose_essential,
    essential_from_pose,
    fundamental_from_pose,
    fundamental_to_essential,
    project_points,
    symmetric_epipolar_distance_sq,
    triangulate,
)

__all__ = [
    "errors",
    "Camera",
    "CameraIntrinsics",
    "FundamentalMatrix",
    "RelativePose",
    "cross_matrix",
    "decompose_essential",
    "essential_from_pose",
    "fundamental_from_pose",
    "fundamental_to_essential",
    "project_points",
    "symmetric_epipolar_distance_sq",
    "triangulate",
]
