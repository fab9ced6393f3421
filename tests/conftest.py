import numpy as np
import pytest

from epimatch.geometry import (
    Camera,
    CameraIntrinsics,
    RelativePose,
    normalize_points,
    project_points,
    rotation_from_axis_angle,
)


def fixed_pair(spec, pose, index=0):
    """Pair `index` of `spec` rendered from a fixed camera 1 and camera 2 at
    `pose` relative to it. Camera 1 stands at (w/2, d/4, h/2) of the scene's
    extent and looks at (w/2, d, h/2)."""
    from epimatch.synth import _camera_from_position, render_pair

    corners = []
    for p in spec.planes:
        o = np.asarray(p.origin, dtype=float)
        corners += [o, o + p.su * np.asarray(p.eu) + p.sv * np.asarray(p.ev)]
    w, d, h = np.max(corners, axis=0)
    cam1 = _camera_from_position(spec.intrinsics, (w / 2, d / 4, h / 2), (w / 2, d, h / 2))
    return render_pair(spec, cam1, Camera(spec.intrinsics, pose.compose(cam1.pose)), index)


def random_intrinsics(rng):
    f = rng.uniform(300.0, 600.0)
    return CameraIntrinsics(f, f * rng.uniform(0.9, 1.1), rng.uniform(280.0, 360.0), rng.uniform(200.0, 280.0))


def random_pose(rng, max_angle_deg=25.0, baseline=(0.2, 1.0)):
    axis = rng.normal(size=3)
    angle = np.radians(rng.uniform(1.0, max_angle_deg))
    R = rotation_from_axis_angle(axis, angle)
    t = rng.normal(size=3)
    t = t / np.linalg.norm(t) * rng.uniform(*baseline)
    return RelativePose(R, t)


def random_camera_pair(rng, same_k=False):
    """Camera 1 at the origin, camera 2 at a random relative pose."""
    k1 = random_intrinsics(rng)
    k2 = k1 if same_k else random_intrinsics(rng)
    pose = random_pose(rng)
    cam1 = Camera(k1, RelativePose.identity())
    cam2 = Camera(k2, pose)
    return cam1, cam2, pose


def visible_points(rng, cam1, cam2, n):
    """World points projecting with positive depth in both cameras."""
    pts = []
    while len(pts) < n:
        X = np.array(
            [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(3.0, 8.0)]
        )
        z2 = (cam2.pose.R @ X + cam2.pose.t)[2]
        if z2 > 0.1:
            pts.append(X)
    return np.array(pts)


def with_w(pix):
    """(N, 2) pixels as (N, 3) rows with w = 1."""
    pix = np.asarray(pix, dtype=float)
    return np.column_stack([pix, np.ones(len(pix))])


def reference_project_points(camera, X):
    """project_points as a stacked matmul, one (3, 3) @ (3, 1) product per
    point: the per-point R @ X that the three matrix-vector products match."""
    X = np.asarray(X, dtype=float)
    Xc = (camera.pose.R[None] @ X[:, :, None])[:, :, 0] + camera.pose.t
    K = camera.intrinsics
    with np.errstate(divide="ignore", invalid="ignore"):
        pix = np.column_stack([K.fx * Xc[:, 0] / Xc[:, 2] + K.cx, K.fy * Xc[:, 1] / Xc[:, 2] + K.cy])
    return pix, Xc[:, 2]


def project_hom(cam, pts):
    """Pixel projections of (N, 3) world points as (N, 3) rows with w = 1."""
    return with_w(project_points(cam, pts)[0])


def infinite_matches(pts1, K1, K2, R):
    """(N, 2) pixels in view 2 of the points at infinity seen at the (N, 2)
    pixels pts1 of view 1: every match fits E = [t]x R for any t."""
    return project_points(Camera(K2, RelativePose(R, np.zeros(3))), normalize_points(K1, pts1))[0]


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
    """Write [(id, Camera), ...] as the lines `geometry.read_pose_file` reads."""
    with open(path, "w") as fh:
        for cam_id, cam in cameras:
            k = cam.intrinsics
            fields = [k.fx, k.fy, k.cx, k.cy, *rotation_to_quat(cam.pose.R), *cam.pose.t]
            fh.write(f"{cam_id} " + " ".join(f"{v:.17g}" for v in fields) + "\n")


def record_ends(path):
    """Byte offset at which each `.npy` record of a record file ends."""
    ends = []
    with open(path, "rb") as fh:
        while True:
            try:
                np.load(fh, allow_pickle=False)
            except EOFError:
                return ends
            ends.append(fh.tell())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
