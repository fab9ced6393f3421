"""Exact two-view epipolar geometry.

Conventions: image points are (N, 2) pixel arrays; `normalize_points` turns
them into (N, 3) normalized rows (K = I) with w = 1. F and E are plain (3, 3)
arrays, F in the form `canonicalize` gives. Poses are world-to-camera.
`decompose_essential` picks among the four poses of an E by the signs of
closed-form ray depths; no point is triangulated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousCheirality, DegenerateBaseline, DegenerateConfiguration, read_rows

# Translations below this norm (times scene scale) are rejected as pure rotation.
BASELINE_EPSILON = 1e-8


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"intrinsics {name} must be finite, got {getattr(self, name)}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    def matrix(self):
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def inverse(self):
        return np.array(
            [
                [1.0 / self.fx, 0.0, -self.cx / self.fx],
                [0.0, 1.0 / self.fy, -self.cy / self.fy],
                [0.0, 0.0, 1.0],
            ]
        )


@dataclass
class RelativePose:
    """Rotation plus translation direction, world-to-camera (x_cam = R x + t)."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float).reshape(3, 3)
        self.t = np.asarray(self.t, dtype=float).reshape(3)

    @staticmethod
    def identity():
        return RelativePose(np.eye(3), np.zeros(3))

    def inverse(self):
        return RelativePose(self.R.T, -self.R.T @ self.t)

    def compose(self, other):
        """Pose mapping x -> self(other(x))."""
        return RelativePose(self.R @ other.R, self.R @ other.t + self.t)


@dataclass
class Camera:
    intrinsics: CameraIntrinsics
    pose: RelativePose

    def center(self):
        """Camera centre in world coordinates."""
        return -self.pose.R.T @ self.pose.t


def canonicalize(m):
    """Frobenius norm 1, largest-magnitude entry positive; batched over the
    leading axes of (..., 3, 3)."""
    m = np.asarray(m, dtype=float)
    flat = m.reshape(*m.shape[:-2], 1, 9)
    # the matmul form sums like np.linalg.norm of one matrix, bit for bit
    n = np.sqrt(flat @ flat.swapaxes(-1, -2))
    if np.any(n == 0.0):
        raise DegenerateConfiguration("zero matrix cannot be canonicalized")
    m = m / n
    flat = m.reshape(*m.shape[:-2], 9)
    peak = np.take_along_axis(flat, np.argmax(np.abs(flat), axis=-1)[..., None], axis=-1)
    return np.where(peak[..., None] < 0, -m, m)


def cross_matrix(t):
    """Skew matrix [t]x with [t]x v = t x v."""
    t = np.asarray(t, dtype=float).reshape(3)
    return np.array(
        [[0.0, -t[2], t[1]], [t[2], 0.0, -t[0]], [-t[1], t[0], 0.0]]
    )


def essential_from_pose(pose: RelativePose):
    """(3, 3) E = [t]x R for a calibrated pair."""
    if np.linalg.norm(pose.t) <= BASELINE_EPSILON:
        raise DegenerateBaseline("translation below baseline epsilon")
    return cross_matrix(pose.t) @ pose.R


def fundamental_from_pose(K1: CameraIntrinsics, K2: CameraIntrinsics, pose: RelativePose):
    """(3, 3) F = K2^-T [t]x R K1^-1, canonicalized."""
    if np.linalg.norm(pose.t) <= BASELINE_EPSILON:
        raise DegenerateBaseline(
            f"|t| = {np.linalg.norm(pose.t):.3e} <= {BASELINE_EPSILON:.3e}"
        )
    F = K2.inverse().T @ cross_matrix(pose.t) @ pose.R @ K1.inverse()
    return canonicalize(F)


def fundamental_to_essential(F, K1, K2):
    """E = K2^T F K1 for each of the (..., 3, 3) matrices F."""
    return K2.matrix().T @ F @ K1.matrix()


def symmetric_epipolar_distance_sq(F, x1, x2):
    """Squared symmetric epipolar distance of matches given as (N, 3) rows
    with w = 1 (normalized or pixel) under each of the (..., 3, 3) matrices
    F; returns (..., N).

    r^2 * (1 / |(F x1)_{1,2}|^2 + 1 / |(F^T x2)_{1,2}|^2) with r = x2^T F x1.
    A match whose epipolar line in either image vanishes is at distance inf.
    """
    F = np.asarray(F, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    # a contiguous F^T: through the strided view the product is several times
    # slower and rounds one-row inputs differently from longer ones
    l2 = np.asarray(x1, dtype=float) @ np.ascontiguousarray(np.swapaxes(F, -1, -2))  # F x1 per row
    l1 = x2 @ F  # F^T x2 per row
    d2 = l2[..., 0] ** 2 + l2[..., 1] ** 2
    d1 = l1[..., 0] ** 2 + l1[..., 1] ** 2
    r = np.einsum("...j,...j->...", x2, l2)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = r * r * (1.0 / d2 + 1.0 / d1)
    return np.where(np.isfinite(dist), dist, np.inf)


def normalize_points(K: CameraIntrinsics, pts):
    """Vectorized normalize for (N, 2) pixel coordinates -> (N, 3), w = 1."""
    pts = np.asarray(pts, dtype=float)
    out = np.empty((pts.shape[0], 3))
    out[:, 0] = (pts[:, 0] - K.cx) / K.fx
    out[:, 1] = (pts[:, 1] - K.cy) / K.fy
    out[:, 2] = 1.0
    return out


def pixel_rays(camera: Camera, pix):
    """World-frame directions (z_cam = 1, not unit) of the rays through (N, 2)
    pixels; the rays start at camera.center()."""
    return normalize_points(camera.intrinsics, pix) @ camera.pose.R  # R.T @ d per row


def project_points(camera: Camera, X):
    """(N, 2) pixels and (N,) camera-frame depths of (N, 3) world points.

    No depth test: a point at or behind the camera gets a meaningless (or
    non-finite) pixel. `project_in_image` adds the visibility test.
    """
    X = np.asarray(X, dtype=float)
    # each X @ R[k] is one BLAS matrix-vector product over all points. The
    # per-point R @ X is one too, and both build a component from the same
    # chain of fused multiply-adds, so for N >= 2 the camera-frame points
    # equal the per-point R @ X bit for bit. At N = 1 numpy computes X @ R[k]
    # as a dot product, whose chain starts from another term, and the last
    # bit can differ; no seeded output projects a single point.
    R = camera.pose.R
    Xc = np.column_stack([X @ R[0], X @ R[1], X @ R[2]]) + camera.pose.t
    K = camera.intrinsics
    with np.errstate(divide="ignore", invalid="ignore"):
        pix = np.column_stack([K.fx * Xc[:, 0] / Xc[:, 2] + K.cx, K.fy * Xc[:, 1] / Xc[:, 2] + K.cy])
    return pix, Xc[:, 2]


def project_in_image(camera: Camera, X, image_size):
    """project_points plus the one visibility rule, as (pix, z, seen): seen is
    a depth above 1e-9 and a pixel inside the (W, H) image with 1e-6 px of
    slack, which keeps the border samples of an identical view; NaN is unseen."""
    W, H = image_size
    pix, z = project_points(camera, X)
    u, v = pix.T
    return pix, z, (z > 1e-9) & (-1e-6 <= u) & (u <= W - 1 + 1e-6) & (-1e-6 <= v) & (v <= H - 1 + 1e-6)


def _cheirality_votes(R, t, x1n, x2n):
    """Count correspondences with positive depth in both views for
    P2 = [R|t] and for P2 = [R|-t]; returns the pair of counts.

    The depths solve z1 a + t = z2 b in least squares for a = R x1, b = x2
    (Hartley & Sturm, CVIU 1997): with D = |a x b|^2 > 0, z1 D = (a.b)(b.t)
    - (a.t)(b.b) and z2 D = (a.a)(b.t) - (a.b)(a.t). Under -t both flip sign.
    Rays parallel to ~1e-12 rad (D <= 1e-24 (a.a)(b.b), a point at infinity)
    vote for neither.
    """
    a = x1n @ R.T
    ab = np.einsum("ij,ij->i", a, x2n)
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", x2n, x2n)
    at, bt = a @ t, x2n @ t
    # D from the cross product a x b, which stays near 0 for near-parallel
    # rays where (a.a)(b.b) - (a.b)^2 would cancel to rounding noise
    c = a[:, [1, 2, 0]] * x2n[:, [2, 0, 1]] - a[:, [2, 0, 1]] * x2n[:, [1, 2, 0]]
    ok = np.einsum("ij,ij->i", c, c) > 1e-24 * aa * bb
    s1 = ab * bt - at * bb
    s2 = aa * bt - ab * at
    return (int(np.count_nonzero(ok & (s1 > 0) & (s2 > 0))),
            int(np.count_nonzero(ok & (s1 < 0) & (s2 < 0))))


def decompose_essential(E, x1n, x2n) -> RelativePose:
    """Recover (R, unit t) from a (3, 3) essential matrix E by the
    cheirality vote.

    x1n, x2n: (N, 3) normalized (K = I) rows with w = 1, as
    `normalize_points` gives them, N >= 1. The four candidates (R, +-t) for
    the two rotations take two closed-form ray-depth solves, one per rotation
    (Hartley & Zisserman, Multiple View Geometry, 9.6).
    """
    x1n = np.asarray(x1n, dtype=float)
    x2n = np.asarray(x2n, dtype=float)
    if x1n.ndim != 2 or x1n.shape[1] != 3 or x1n.shape != x2n.shape:
        raise ValueError(f"x1n and x2n must both be (N, 3) with the same N, got {x1n.shape} and {x2n.shape}")
    if x1n.shape[0] < 1:
        raise DegenerateConfiguration("need at least one correspondence")
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t = U[:, 2]
    t = t / np.linalg.norm(t)
    candidates, votes = [], []
    for R in (U @ W @ Vt, U @ W.T @ Vt):
        candidates += [(R, t), (R, -t)]
        votes += _cheirality_votes(R, t, x1n, x2n)
    order = np.argsort(votes)[::-1]
    best, second = order[0], order[1]
    if votes[best] == votes[second]:
        raise AmbiguousCheirality(
            f"cheirality tie at {votes[best]} votes between two decompositions"
        )
    R, tc = candidates[best]
    return RelativePose(R, tc)


def rotation_from_axis_angle(axis, angle_rad):
    """Rodrigues rotation about a (not necessarily unit) axis."""
    axis = np.asarray(axis, dtype=float).reshape(3)
    n = np.linalg.norm(axis)
    if n == 0.0:
        return np.eye(3)
    k = axis / n
    K = cross_matrix(k)
    return np.eye(3) + np.sin(angle_rad) * K + (1 - np.cos(angle_rad)) * (K @ K)


def quat_to_rotation(q):
    """Unit quaternion (w, x, y, z) to rotation matrix."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def read_pose_file(path):
    """Read `id fx fy cx cy qw qx qy qz tx ty tz` lines (world-to-camera)
    into [(id, Camera), ...]."""
    cameras = []
    for where, (cam_id,), vals in read_rows(path, 12, "pose", labels=1):
        try:
            if np.linalg.norm(vals[4:8]) == 0.0:
                raise ValueError("quaternion of zero norm")
            k = CameraIntrinsics(*vals[0:4])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        cameras.append((cam_id, Camera(k, RelativePose(quat_to_rotation(vals[4:8]), np.array(vals[8:11])))))
    return cameras
