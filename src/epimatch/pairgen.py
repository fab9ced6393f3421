"""Pose-only image-pair mining with pseudo-depth overlap heuristics.

Without depth, each view is assumed to observe an enclosing surface: a
hemisphere (plane + dome centred under the camera) or a driving-direction
aligned box. The overlap of a pair is the fraction of a fixed sample grid of
one image whose assumed surface points the other camera sees, by the
visibility rule of `geometry.project_in_image` that `synth` shares.

Mining casts each view's sample-grid rays into the surface once and projects
the resulting points into every other view: n views cost n casts, not one per
ordered pair, and the cached points take at most 24 KB per view. Each
candidate pair then costs two projections of at most SAMPLE_GRID ** 2 = 1,024
points, one into each view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Camera, pixel_rays, project_in_image

SAMPLE_GRID = 32


@dataclass(frozen=True)
class HemisphereModel:
    z_plane: float  # ground plane height (m), below the camera
    r_sphere: float  # dome radius (m), centred at (x_cam, y_cam, z_plane)

    def __post_init__(self):
        if not (-np.inf < self.z_plane < np.inf and 0.0 < self.r_sphere < np.inf):
            raise ValueError(f"need a finite z_plane and a finite r_sphere > 0, got {self}")


@dataclass(frozen=True)
class BoxModel:
    side: float  # lateral distance to the left/right planes (m)
    bottom: float  # signed height of the floor relative to the camera (m)
    longitudinal: float  # distance to the front/back planes (m)

    def __post_init__(self):
        if not (0.0 < self.side < np.inf and -np.inf < self.bottom < 0.0 and 0.0 < self.longitudinal < np.inf):
            raise ValueError(f"need finite side > 0, bottom < 0 and longitudinal > 0, got {self}")


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
        px = origin[0] + t * dirs[:, 0]
        py = origin[1] + t * dirs[:, 1]
    radial_sq = (px - origin[0]) ** 2 + (py - origin[1]) ** 2
    on_plane = (dz < 0.0) & (t > 0) & (radial_sq <= model.r_sphere ** 2)  # under the dome
    depth[on_plane] = t[on_plane]
    # sphere centred at (x_cam, y_cam, z_plane): |o - c| = h along +z
    b = h * dz
    disc = b * b - (h * h - model.r_sphere ** 2)
    with np.errstate(invalid="ignore"):
        t = -b + np.sqrt(disc)  # camera is inside: take the exit point
    pz = origin[2] + t * dz
    on_sphere = (disc >= 0.0) & (t > 0) & (pz >= model.z_plane - 1e-9)
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
        if driving_dir is None:
            raise ValueError("box model needs a driving direction")
        return _box_depth(model, origin, dirs, driving_dir)
    raise TypeError(f"unknown pseudo-depth model {type(model).__name__}")


def _surface_points(model, camera: Camera, image_size, driving_dir=None):
    """(M, 3) world points where the rays of `camera`'s sample grid hit the
    assumed surface, M <= SAMPLE_GRID ** 2; rays that miss are dropped."""
    W, H = image_size
    # cell centres of a SAMPLE_GRID x SAMPLE_GRID partition (not the exact
    # border, which would leave the frame under any forward motion); below
    # SAMPLE_GRID px the outer centres fall off the image and are clipped in
    cells = np.arange(SAMPLE_GRID) + 0.5
    us = (cells * W / SAMPLE_GRID - 0.5).clip(0.0, W - 1.0)
    vs = (cells * H / SAMPLE_GRID - 0.5).clip(0.0, H - 1.0)
    origin = camera.center()
    dirs = _unit_rays(camera, np.stack(np.meshgrid(us, vs), axis=-1).reshape(-1, 2))
    depth = _surface_depth(model, origin, dirs, driving_dir)
    hit = np.flatnonzero(np.isfinite(depth))
    th = depth[hit]
    # column by column, with the arithmetic of origin + depth * dirs per row
    return np.column_stack([origin[k] + th * dirs[:, k].take(hit) for k in range(3)])


def _seen_share(points, camera: Camera, image_size):
    """Share of the sample grid whose surface points `camera` sees."""
    return int(np.count_nonzero(project_in_image(camera, points, image_size)[2])) / float(SAMPLE_GRID ** 2)


def pseudo_overlap(model, cam_i: Camera, cam_j: Camera, image_size=(640, 480),
                   driving_dir_i=None, driving_dir_j=None):
    """Symmetrized pseudo-overlap score: min of the two directional scores."""
    return min(_seen_share(_surface_points(model, cam_i, image_size, driving_dir_i), cam_j, image_size),
               _seen_share(_surface_points(model, cam_j, image_size, driving_dir_j), cam_i, image_size))


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
    pseudo-overlap falls inside the accepted range. Deterministic order.

    Each view's surface points are cast once and projected into every other
    view, so the scores equal pseudo_overlap's at one cast per view; the
    cache holds at most SAMPLE_GRID ** 2 x 3 float64 (24 KB) per view."""
    idxs = range(0, len(records), stride)
    ddirs = driving_directions(records) if isinstance(model, BoxModel) else None
    points = [_surface_points(model, records[i].camera, image_size, None if ddirs is None else ddirs[i])
              for i in idxs]
    out = []
    for a, i in enumerate(idxs):
        for b in range(a + 1, len(idxs)):
            j = idxs[b]
            s = min(_seen_share(points[a], records[j].camera, image_size),
                    _seen_share(points[b], records[i].camera, image_size))
            if overlap_range.min <= s <= overlap_range.max:
                out.append((records[i].id, records[j].id, s))
    return out


def write_pairs_file(path, pairs):
    with open(path, "w") as fh:
        for id_i, id_j, score in pairs:
            fh.write(f"{id_i} {id_j} {score:.6f}\n")

