"""Exact two-view epipolar geometry.

Conventions: homogeneous image points are numpy arrays of shape (3,) (or
(N, 3) for the batched helpers); lines are (a, b, c) arrays with
a*u + b*v + c*w = 0. Poses are world-to-camera.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousCheirality,
    DegenerateBaseline,
    DegenerateConfiguration,
    PointAtInfinity,
)

# Translations below this norm (times scene scale) are rejected as pure rotation.
BASELINE_EPSILON = 1e-8


def hom(u, v, w=1.0):
    """Homogeneous 2D point as a (3,) array."""
    return np.array([u, v, w], dtype=float)


def normalized_w(x):
    """Scale homogeneous points so w = 1; batched over leading axes."""
    x = np.asarray(x, dtype=float)
    if np.any(x[..., 2] == 0.0):
        raise PointAtInfinity("point at infinity has no w = 1 form")
    return x / x[..., 2:]


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
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

    def projection_matrix(self):
        K = self.intrinsics.matrix()
        return K @ np.hstack([self.pose.R, self.pose.t.reshape(3, 1)])

    def center(self):
        """Camera centre in world coordinates."""
        return -self.pose.R.T @ self.pose.t


def _canonicalize(m):
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


@dataclass
class FundamentalMatrix:
    """Rank-2 scale-free 3x3 relation; stored canonicalized."""

    m: np.ndarray

    @staticmethod
    def from_matrix(m):
        return FundamentalMatrix(_canonicalize(m))

    def transpose(self):
        return FundamentalMatrix.from_matrix(self.m.T)


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


def fundamental_from_pose(K1: CameraIntrinsics, K2: CameraIntrinsics, pose: RelativePose) -> FundamentalMatrix:
    """F = K2^-T [t]x R K1^-1, canonicalized."""
    if np.linalg.norm(pose.t) <= BASELINE_EPSILON:
        raise DegenerateBaseline(
            f"|t| = {np.linalg.norm(pose.t):.3e} <= {BASELINE_EPSILON:.3e}"
        )
    F = K2.inverse().T @ cross_matrix(pose.t) @ pose.R @ K1.inverse()
    return FundamentalMatrix.from_matrix(F)


def fundamental_to_essential(F: FundamentalMatrix, K1, K2):
    """(3, 3) E = K2^T F K1."""
    return K2.matrix().T @ F.m @ K1.matrix()


def symmetric_epipolar_distance_sq(F, x1, x2):
    """Squared symmetric epipolar distance of (N, 3) homogeneous matches
    under each of the (..., 3, 3) matrices F; returns (..., N).

    r^2 * (1 / |(F x1)_{1,2}|^2 + 1 / |(F^T x2)_{1,2}|^2) with r = x2^T F x1.
    A match whose epipolar line in either image vanishes is at distance inf.
    """
    F = np.asarray(F, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    l2 = np.asarray(x1, dtype=float) @ np.swapaxes(F, -1, -2)  # F x1 per row
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
    non-finite) pixel, so callers filter on the depth with their own tolerance.
    """
    X = np.asarray(X, dtype=float)
    # a stacked matmul keeps the rounding of the per-point R @ X
    Xc = (camera.pose.R[None] @ X[:, :, None])[:, :, 0] + camera.pose.t
    K = camera.intrinsics
    with np.errstate(divide="ignore", invalid="ignore"):
        pix = np.column_stack([K.fx * Xc[:, 0] / Xc[:, 2] + K.cx, K.fy * Xc[:, 1] / Xc[:, 2] + K.cy])
    return pix, Xc[:, 2]


def _triangulate_batch(P1, P2, x1, x2):
    """Linear (DLT) triangulation of (N, 3) homogeneous point pairs.

    Returns (X, ok): (N, 3) points and an (N,) mask that is False where the
    system is rank-deficient or the point lies at infinity.
    """
    x1 = np.atleast_2d(normalized_w(x1))
    x2 = np.atleast_2d(normalized_w(x2))
    A = np.stack([x1[:, :1] * P1[2] - P1[0], x1[:, 1:2] * P1[2] - P1[1],
                  x2[:, :1] * P2[2] - P2[0], x2[:, 1:2] * P2[2] - P2[1]], axis=1)
    _, s, Vt = np.linalg.svd(A)
    X = Vt[:, -1]
    # the matmul form sums like np.linalg.norm of one vector, bit for bit
    norm = np.sqrt(X[:, None, :] @ X[:, :, None])[:, 0, 0]
    ok = ~(s[:, -2] < 1e-12 * s[:, 0]) & ~(np.abs(X[:, 3]) < 1e-12 * norm)
    return X[:, :3] / np.where(ok, X[:, 3], 1.0)[:, None], ok


def triangulate(cam1: Camera, cam2: Camera, x1, x2):
    """Linear (DLT) triangulation from two views."""
    if np.allclose(cam1.center(), cam2.center(), atol=1e-12):
        raise DegenerateConfiguration("cameras share a centre")
    X, ok = _triangulate_batch(cam1.projection_matrix(), cam2.projection_matrix(), x1, x2)
    if not ok[0]:
        raise DegenerateConfiguration("triangulation system is rank-deficient or the point is at infinity")
    return X[0]


def _cheirality_votes(R, t, x1n, x2n):
    """Count correspondences with positive depth in both views for P2 = [R|t]."""
    I = np.eye(3)
    cam1 = Camera(CameraIntrinsics(1, 1, 0, 0), RelativePose(I, np.zeros(3)))
    cam2 = Camera(CameraIntrinsics(1, 1, 0, 0), RelativePose(R, t))
    X, ok = _triangulate_batch(cam1.projection_matrix(), cam2.projection_matrix(), x1n, x2n)
    z2 = X @ R[2] + t[2]
    return int(np.count_nonzero(ok & (X[:, 2] > 0) & (z2 > 0)))


def decompose_essential(E, x1n, x2n) -> RelativePose:
    """Recover (R, unit t) from a (3, 3) essential matrix E by the
    cheirality vote.

    x1n, x2n: (N, 3) normalized (K = I) homogeneous correspondences, N >= 1.
    """
    x1n = np.atleast_2d(np.asarray(x1n, dtype=float))
    x2n = np.atleast_2d(np.asarray(x2n, dtype=float))
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
    candidates = [
        (U @ W @ Vt, t),
        (U @ W @ Vt, -t),
        (U @ W.T @ Vt, t),
        (U @ W.T @ Vt, -t),
    ]
    votes = [_cheirality_votes(R, tc, x1n, x2n) for R, tc in candidates]
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


def rotation_to_quat(R):
    """Rotation matrix to unit quaternion (w, x, y, z), w >= 0."""
    R = np.asarray(R, dtype=float)
    tr = np.trace(R)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        if i == 0:
            s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2
            q = np.array(
                [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
            )
        elif i == 1:
            s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2
            q = np.array(
                [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
            )
        else:
            s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2
            q = np.array(
                [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
            )
    q = q / np.linalg.norm(q)
    return q if q[0] >= 0 else -q


def write_pose_file(path, cameras):
    """Write `id fx fy cx cy qw qx qy qz tx ty tz` lines (world-to-camera)."""
    with open(path, "w") as fh:
        for cam_id, cam in cameras:
            k = cam.intrinsics
            q = rotation_to_quat(cam.pose.R)
            t = cam.pose.t
            fields = [k.fx, k.fy, k.cx, k.cy, *q, *t]
            fh.write(f"{cam_id} " + " ".join(f"{v:.17g}" for v in fields) + "\n")


def read_pose_file(path):
    """Read the pose file format back into [(id, Camera), ...]."""
    cameras = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 12:
                raise ValueError(f"{path}:{lineno}: expected 12 fields per pose line, got {len(parts)}")
            try:
                vals = [float(v) for v in parts[1:]]
                if not np.all(np.isfinite(vals)):
                    raise ValueError("non-finite value in pose line")
                if np.linalg.norm(vals[4:8]) == 0.0:
                    raise ValueError("quaternion of zero norm")
                k = CameraIntrinsics(*vals[0:4])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            R = quat_to_rotation(vals[4:8])
            t = np.array(vals[8:11])
            cameras.append((parts[0], Camera(k, RelativePose(R, t))))
    return cameras
