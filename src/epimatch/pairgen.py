"""Pose-only image-pair mining with pseudo-depth overlap heuristics.

Without depth, each view is assumed to observe an enclosing surface: a
hemisphere (plane + dome centred under the camera) or a driving-direction
aligned box. The overlap of a pair is the fraction of a fixed sample grid of
one image whose assumed surface points project into the other image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Camera, pixel_rays, project_points

SAMPLE_GRID = 32


@dataclass(frozen=True)
class HemisphereModel:
    z_plane: float  # ground plane height (m), below the camera
    r_sphere: float  # dome radius (m), centred at (x_cam, y_cam, z_plane)


@dataclass(frozen=True)
class BoxModel:
    side: float  # lateral distance to the left/right planes (m)
    bottom: float  # signed height of the floor relative to the camera (m)
    longitudinal: float  # distance to the front/back planes (m)
    driving_dir: tuple | None = None  # unit horizontal direction; None = from neighbours


@dataclass(frozen=True)
class OverlapRange:
    min: float = 0.3
    max: float = 0.8

    def __post_init__(self):
        if not (0.0 <= self.min < self.max <= 1.0):
            raise ValueError("need 0 <= min < max <= 1")


@dataclass
class PoseRecord:
    id: str
    camera: Camera
    timestamp: float | None = None


# presets with the published scene dimensions
PRESETS = {
    "euroc-machine": HemisphereModel(z_plane=-2.0, r_sphere=10.0),
    "euroc-room": HemisphereModel(z_plane=0.0, r_sphere=3.0),
    "sf-street": BoxModel(side=10.0, bottom=-2.0, longitudinal=25.0),
}


def _unit_rays(camera: Camera, pix):
    """Unit world-frame directions of the viewing rays through (N, 2) pixels."""
    d = pixel_rays(camera, pix)
    # the matmul form sums like np.linalg.norm of one vector, bit for bit
    return d / np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0]


def _hemisphere_depth(model: HemisphereModel, origin, dirs):
    depth = np.full(dirs.shape[0], np.inf)
    h = origin[2] - model.z_plane
    if h < 0.0 or h >= model.r_sphere:
        return depth  # camera below the plane or outside the dome
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (model.z_plane - origin[2]) / dz
        p = origin + t[:, None] * dirs
    radial_sq = (p[:, 0] - origin[0]) ** 2 + (p[:, 1] - origin[1]) ** 2
    on_plane = (dz < 0.0) & (t > 0) & (radial_sq <= model.r_sphere ** 2)  # under the dome
    depth[on_plane] = t[on_plane]
    # sphere centred at (x_cam, y_cam, z_plane): |o - c| = h along +z
    b = h * dz
    disc = b * b - (h * h - model.r_sphere ** 2)
    with np.errstate(invalid="ignore"):
        t = -b + np.sqrt(disc)  # camera is inside: take the exit point
    p = origin + t[:, None] * dirs
    on_sphere = (disc >= 0.0) & (t > 0) & (p[:, 2] >= model.z_plane - 1e-9)
    depth[on_sphere] = np.minimum(depth[on_sphere], t[on_sphere])
    return depth


def _box_depth(model: BoxModel, origin, dirs, driving_dir):
    f = np.asarray(driving_dir, dtype=float)
    f = f / np.linalg.norm(f)
    up = np.array([0.0, 0.0, 1.0])
    r = np.cross(f, up)
    r = r / np.linalg.norm(r)
    # components of the rays in the box frame (front = f, right = r, up); the
    # stacked matmul rounds like the dot product of one ray
    df = (dirs[:, None, :] @ f[:, None])[:, 0, 0]
    dr = (dirs[:, None, :] @ r[:, None])[:, 0, 0]
    dz = dirs[:, 2]

    def first_hit(dist, comp):
        # planes the ray moves toward (comp > 0) and meets ahead of the camera
        with np.errstate(divide="ignore", invalid="ignore"):
            t = dist / comp
        return np.where((comp > 1e-12) & (t > 0), t, np.inf)

    t_front_back = first_hit(model.longitudinal, np.abs(df))
    t_side = first_hit(model.side, np.abs(dr))
    t_bottom = first_hit(-model.bottom, -dz)  # the floor is below the camera
    t = np.minimum(t_side, t_bottom)
    # front/back hits never count as overlapping, and a side or bottom plane
    # wins a tie; a ray with no hit (straight up, through the open top) misses
    return np.where(t <= t_front_back, t, np.inf)


def _surface_depth(model, origin, dirs, driving_dir):
    """Ray parameter of the first positive hit of each unit ray origin + t *
    dirs with the assumed surface; inf on a miss."""
    if isinstance(model, HemisphereModel):
        return _hemisphere_depth(model, origin, dirs)
    if isinstance(model, BoxModel):
        dd = driving_dir if driving_dir is not None else model.driving_dir
        if dd is None:
            raise ValueError("box model needs a driving direction")
        return _box_depth(model, origin, dirs, dd)
    raise TypeError(f"unknown pseudo-depth model {type(model).__name__}")


def pseudo_depth(model, camera: Camera, pix, driving_dir=None):
    """(N,) distances along the viewing rays through (N, 2) pixels to the
    assumed surface; inf where a ray misses it."""
    return _surface_depth(model, camera.center(), _unit_rays(camera, pix), driving_dir)


def _directional_overlap(model, cam_i: Camera, cam_j: Camera, image_size, driving_dir=None):
    W, H = image_size
    # cell centres of a SAMPLE_GRID x SAMPLE_GRID partition (not the exact
    # border, which would leave the frame under any forward motion)
    us = (np.arange(SAMPLE_GRID) + 0.5) * W / SAMPLE_GRID - 0.5
    vs = (np.arange(SAMPLE_GRID) + 0.5) * H / SAMPLE_GRID - 0.5
    origin = cam_i.center()
    dirs = _unit_rays(cam_i, np.stack(np.meshgrid(us, vs), axis=-1).reshape(-1, 2))
    depth = _surface_depth(model, origin, dirs, driving_dir)
    hit = np.isfinite(depth)
    pix, z = project_points(cam_j, origin + depth[hit, None] * dirs[hit])
    u2, v2 = pix.T
    eps = 1e-6  # keep boundary samples of an identical view inside
    inside = (z > 1e-9) & (-eps <= u2) & (u2 <= W - 1 + eps) & (-eps <= v2) & (v2 <= H - 1 + eps)
    return int(np.count_nonzero(inside)) / float(SAMPLE_GRID * SAMPLE_GRID)


def pseudo_overlap(model, cam_i: Camera, cam_j: Camera, image_size=(640, 480),
                   driving_dir_i=None, driving_dir_j=None):
    """Symmetrized pseudo-overlap score: min of the two directional scores."""
    oij = _directional_overlap(model, cam_i, cam_j, image_size, driving_dir_i)
    oji = _directional_overlap(model, cam_j, cam_i, image_size, driving_dir_j)
    return min(oij, oji)


def driving_directions(records):
    """Per-record horizontal direction from neighbouring camera positions."""
    centers = [r.camera.center() for r in records]
    dirs = []
    for i in range(len(records)):
        a = centers[max(i - 1, 0)]
        b = centers[min(i + 1, len(records) - 1)]
        d = np.asarray(b) - np.asarray(a)
        d[2] = 0.0
        n = np.linalg.norm(d)
        dirs.append(d / n if n > 1e-9 else np.array([1.0, 0.0, 0.0]))
    return dirs


def generate_pairs(records, model, overlap_range: OverlapRange, stride=1, image_size=(640, 480)):
    """All (i, j), i < j over the stride-subsampled records whose symmetrized
    pseudo-overlap falls inside the accepted range. Deterministic order."""
    idxs = list(range(0, len(records), stride))
    ddirs = driving_directions(records) if isinstance(model, BoxModel) and model.driving_dir is None else None
    out = []
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            i, j = idxs[a], idxs[b]
            s = pseudo_overlap(
                model, records[i].camera, records[j].camera, image_size,
                driving_dir_i=None if ddirs is None else ddirs[i],
                driving_dir_j=None if ddirs is None else ddirs[j],
            )
            if overlap_range.min <= s <= overlap_range.max:
                out.append((records[i].id, records[j].id, s))
    return out


def write_pairs_file(path, pairs):
    with open(path, "w") as fh:
        for id_i, id_j, score in pairs:
            fh.write(f"{id_i} {id_j} {score:.6f}\n")


def read_pairs_file(path):
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields per pair line, got {len(fields)}")
            try:
                out.append((fields[0], fields[1], float(fields[2])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out
