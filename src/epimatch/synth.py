"""Deterministic synthetic two-view pairs with exact depth and pose.

Scenes are piecewise-planar rooms carrying band-limited value-noise textures;
views are rendered by exact ray-plane intersection, so depth maps and the
epipolar geometry agree to machine precision. Two named domains with
different texture statistics and camera motion emulate a domain shift.

A pair file holds seven float64 array records (see `errors.write_arrays`):
image1, image2, depth1, depth2, (fx, fy, cx, cy), R and t, so a pair read
from disk equals its render bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegeneratePose, read_arrays, write_arrays
from .geometry import (
    Camera,
    CameraIntrinsics,
    RelativePose,
    normalize_points,
    pixel_rays,
    project_points,
    rotation_from_axis_angle,
)
from .grid import GridSpec


@dataclass(frozen=True)
class Plane:
    origin: tuple  # corner point (m)
    eu: tuple  # unit vector spanning the u texture axis
    ev: tuple  # unit vector spanning the v texture axis
    su: float  # extent along eu (m)
    sv: float  # extent along ev (m)


@dataclass(frozen=True)
class TextureSpec:
    scales: tuple  # lattice spacing per octave (m)
    amplitudes: tuple
    contrast: float


@dataclass(frozen=True)
class PoseSampler:
    rot_range_deg: tuple  # (lo, hi) relative rotation magnitude
    baseline_range: tuple  # (lo, hi) metres
    lookat_jitter_deg: float


@dataclass(frozen=True)
class SceneSpec:
    planes: tuple
    texture: TextureSpec
    pose_sampler: PoseSampler
    noise_sigma: float
    seed: int
    image_size: tuple = (128, 128)  # (H, W)
    intrinsics: CameraIntrinsics = CameraIntrinsics(110.0, 110.0, 64.0, 64.0)
    min_overlap: float = 0.35
    max_pose_retries: int = 25


@dataclass
class RenderedPair:
    image1: np.ndarray
    image2: np.ndarray
    depth1: np.ndarray
    depth2: np.ndarray
    K: CameraIntrinsics
    pose: RelativePose  # camera 2 relative to camera 1 (view-1 frame is world)


def room_planes(width=8.0, depth=6.0, height=4.0):
    """Axis-aligned box interior: floor, ceiling and four walls."""
    return (
        Plane((0, 0, 0), (1, 0, 0), (0, 1, 0), width, depth),  # floor z=0
        Plane((0, 0, height), (1, 0, 0), (0, 1, 0), width, depth),  # ceiling
        Plane((0, depth, 0), (1, 0, 0), (0, 0, 1), width, height),  # far wall
        Plane((0, 0, 0), (1, 0, 0), (0, 0, 1), width, height),  # near wall
        Plane((0, 0, 0), (0, 1, 0), (0, 0, 1), depth, height),  # left wall
        Plane((width, 0, 0), (0, 1, 0), (0, 0, 1), depth, height),  # right wall
    )


def _texture_tables(spec: SceneSpec):
    """Per-plane per-octave value-noise lattices, seeded deterministically."""
    tables = []
    for p_idx, plane in enumerate(spec.planes):
        octaves = []
        for o_idx, (scale, amp) in enumerate(zip(spec.texture.scales, spec.texture.amplitudes)):
            rng = np.random.default_rng([spec.seed, 7001, p_idx, o_idx])
            nu = int(np.ceil(plane.su / scale)) + 2
            nv = int(np.ceil(plane.sv / scale)) + 2
            octaves.append((scale, amp, rng.uniform(-1.0, 1.0, (nu + 1, nv + 1))))
        tables.append(octaves)
    return tables


def _sample_texture(octaves, a, b, contrast):
    """Bilinear value-noise lookup at local plane coordinates (a, b)."""
    total = np.zeros_like(a)
    for scale, amp, lattice in octaves:
        x = np.clip(a / scale, 0.0, lattice.shape[0] - 1.001)
        y = np.clip(b / scale, 0.0, lattice.shape[1] - 1.001)
        i0 = x.astype(int)
        j0 = y.astype(int)
        fx = x - i0
        fy = y - j0
        v = (
            lattice[i0, j0] * (1 - fx) * (1 - fy)
            + lattice[i0 + 1, j0] * fx * (1 - fy)
            + lattice[i0, j0 + 1] * (1 - fx) * fy
            + lattice[i0 + 1, j0 + 1] * fx * fy
        )
        total += amp * v
    return np.clip(0.5 + contrast * total, 0.0, 1.0)


def _cast_rays(spec: SceneSpec, origin, dirs):
    """Nearest plane hit of each ray origin + t * dirs (t > 0).

    Returns (depth, plane_id, a, b): ray parameter t (inf on a miss), plane
    index (-1 on a miss) and in-plane coordinates along eu and ev.
    """
    n_rays = dirs.shape[0]
    depth = np.full(n_rays, np.inf)
    plane_id = np.full(n_rays, -1)
    hit_a = np.zeros(n_rays)
    hit_b = np.zeros(n_rays)
    for idx, plane in enumerate(spec.planes):
        eu = np.asarray(plane.eu, dtype=float)
        ev = np.asarray(plane.ev, dtype=float)
        niv = np.cross(eu, ev)
        p0 = np.asarray(plane.origin, dtype=float)
        denom = dirs @ niv
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((p0 - origin) @ niv) / denom
            local = origin + t[:, None] * dirs - p0
            a = local @ eu
            b = local @ ev
        ok = (
            (np.abs(denom) > 1e-12)
            & (t > 1e-9)
            & (t < depth)
            & (a >= -1e-9)
            & (a <= plane.su + 1e-9)
            & (b >= -1e-9)
            & (b <= plane.sv + 1e-9)
        )
        depth[ok] = t[ok]
        plane_id[ok] = idx
        hit_a[ok] = a[ok]
        hit_b[ok] = b[ok]
    return depth, plane_id, hit_a, hit_b


def render_view(spec: SceneSpec, tables, camera: Camera):
    """Render (image, depth) for one camera by exact ray casting."""
    H, W = spec.image_size
    pix = np.stack(np.meshgrid(np.arange(W, dtype=float), np.arange(H, dtype=float)), axis=-1)
    dirs = pixel_rays(camera, pix.reshape(-1, 2))
    depth, plane_id, hit_a, hit_b = _cast_rays(spec, camera.center(), dirs)
    image = np.zeros(dirs.shape[0])
    for idx in range(len(spec.planes)):
        sel = plane_id == idx
        if sel.any():
            image[sel] = _sample_texture(tables[idx], hit_a[sel], hit_b[sel], spec.texture.contrast)
    depth = np.where(np.isfinite(depth), depth, 0.0)
    return image.reshape(H, W), depth.reshape(H, W)


def _lookat_rotation(position, target, up=(0.0, 0.0, 1.0)):
    """World-to-camera rotation with +z toward the target, image v downward."""
    f = np.asarray(target, dtype=float) - np.asarray(position, dtype=float)
    f = f / np.linalg.norm(f)
    x = np.cross(f, np.asarray(up, dtype=float))
    nx = np.linalg.norm(x)
    if nx < 1e-9:  # looking straight up/down: pick an arbitrary horizontal right
        x = np.array([1.0, 0.0, 0.0])
    else:
        x = x / nx
    y = np.cross(f, x)
    y = y / np.linalg.norm(y)
    return np.vstack([x, y, f])


def _camera_from_position(K, position, target):
    R = _lookat_rotation(position, target)
    t = -R @ np.asarray(position, dtype=float)
    return Camera(K, RelativePose(R, t))


def _view_overlap(spec, cam1, cam2, samples=12):
    """Fraction of a sparse view-1 grid whose surface points see camera 2."""
    H, W = spec.image_size
    us = np.linspace(4, W - 5, samples)
    vs = np.linspace(4, H - 5, samples)
    dirs = pixel_rays(cam1, np.stack(np.meshgrid(us, vs), axis=-1).reshape(-1, 2))
    origin = cam1.center()
    depth = _cast_rays(spec, origin, dirs)[0]
    hit = np.isfinite(depth)
    pix, z2 = project_points(cam2, origin + depth[hit, None] * dirs[hit])
    u2, v2 = pix.T
    inside = (z2 > 1e-6) & (u2 >= 0) & (u2 <= W - 1) & (v2 >= 0) & (v2 <= H - 1)
    return int(np.count_nonzero(inside)) / samples ** 2


def sample_pair(spec: SceneSpec, index, pose_override: RelativePose | None = None) -> RenderedPair:
    """Deterministic rendered pair for (spec.seed, index)."""
    tables = _texture_tables(spec)
    rng = np.random.default_rng([spec.seed, 11, index])
    noise_rng = np.random.default_rng([spec.seed, 13, index])
    K = spec.intrinsics
    corners = []
    for p in spec.planes:
        o = np.asarray(p.origin, dtype=float)
        corners += [o, o + p.su * np.asarray(p.eu) + p.sv * np.asarray(p.ev)]
    hi = np.max(corners, axis=0)
    room_w, room_d, room_h = hi

    cam1 = cam2 = None
    if pose_override is not None:
        pos1 = np.array([room_w / 2, room_d * 0.25, room_h / 2])
        target = np.array([room_w / 2, room_d, room_h / 2])
        cam1 = _camera_from_position(K, pos1, target)
        pose2 = pose_override.compose(cam1.pose)
        cam2 = Camera(K, pose2)
    else:
        ps = spec.pose_sampler
        for _ in range(spec.max_pose_retries):
            # oblique views across the room keep a wide depth range in frame,
            # which keeps the translation direction observable from matches
            pos1 = np.array(
                [
                    room_w * rng.uniform(0.3, 0.7),
                    room_d * rng.uniform(0.15, 0.45),
                    room_h * rng.uniform(0.35, 0.65),
                ]
            )
            target = np.array(
                [
                    room_w * rng.uniform(0.1, 0.9),
                    room_d * rng.uniform(0.6, 1.0),
                    room_h * rng.uniform(0.2, 0.8),
                ]
            )
            c1 = _camera_from_position(K, pos1, target)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            baseline = rng.uniform(*ps.baseline_range)
            pos2 = pos1 + direction * baseline
            if not (0.5 < pos2[0] < room_w - 0.5 and 0.5 < pos2[1] < room_d - 0.5 and 0.5 < pos2[2] < room_h - 0.5):
                continue
            jitter = rotation_from_axis_angle(
                rng.normal(size=3), np.radians(rng.uniform(0, ps.lookat_jitter_deg))
            )
            delta = rotation_from_axis_angle(
                rng.normal(size=3), np.radians(rng.uniform(*ps.rot_range_deg))
            )
            R2 = delta @ jitter @ c1.pose.R
            c2 = Camera(K, RelativePose(R2, -R2 @ pos2))
            if _view_overlap(spec, c1, c2) >= spec.min_overlap and _view_overlap(spec, c2, c1) >= spec.min_overlap:
                cam1, cam2 = c1, c2
                break
        if cam1 is None:
            raise DegeneratePose(f"no valid pose in {spec.max_pose_retries} retries (pair {index})")

    image1, depth1 = render_view(spec, tables, cam1)
    image2, depth2 = render_view(spec, tables, cam2)
    if spec.noise_sigma > 0:
        image1 = np.clip(image1 + noise_rng.normal(0, spec.noise_sigma, image1.shape), 0.0, 1.0)
        image2 = np.clip(image2 + noise_rng.normal(0, spec.noise_sigma, image2.shape), 0.0, 1.0)

    # relative pose of view 2 in the view-1 camera frame
    rel = cam2.pose.compose(cam1.pose.inverse())
    return RenderedPair(image1, image2, depth1, depth2, K, rel)


def gt_correspondence_grid(pair: RenderedPair, grid: GridSpec):
    """Per-coarse-cell ground truth: target cell index (-1 = none) plus the
    subpixel point in image 2. Backprojects cell centres through depth1 and
    applies a two-sided occlusion test against depth2 (1% tolerance)."""
    H, W = pair.depth1.shape
    w = grid.patch_width
    centers = grid.cell_centers()
    d = pair.depth1[np.rint(centers[:, 1]).astype(int), np.rint(centers[:, 0]).astype(int)]
    # view 1's camera frame is the world frame
    pix2, z2 = project_points(Camera(pair.K, pair.pose), d[:, None] * normalize_points(pair.K, centers))
    u2, v2 = pix2.T
    targets = np.full(grid.m, -1, dtype=int)
    points = np.full((grid.m, 2), np.nan)
    idx = np.flatnonzero((d > 0) & (z2 > 1e-9) & (0.0 <= u2) & (u2 <= W - 1) & (0.0 <= v2) & (v2 <= H - 1))
    z2, u2, v2 = z2[idx], u2[idx], v2[idx]
    ui2, vi2 = np.rint(u2).astype(int), np.rint(v2).astype(int)
    d2 = pair.depth2[vi2, ui2]
    r2, c2 = vi2 // w, ui2 // w
    ok = (d2 > 0) & (z2 <= d2 * 1.01) & (r2 < grid.rows) & (c2 < grid.cols)
    targets[idx[ok]] = r2[ok] * grid.cols + c2[ok]
    points[idx[ok]] = np.column_stack([u2[ok], v2[ok]])
    return targets, points


def make_domain(name, seed=0) -> SceneSpec:
    """Two visually distinct data distributions.

    Domain A: fine, high-contrast texture, small handheld-like motion.
    Domain B: coarse, low-contrast texture, larger drone-like motion, more noise.

    The domains differ in image gradient magnitude through their texture:
    rendered noise-free, A's mean gradient is about 7-9x B's. At B's default
    noise_sigma of 0.03, B's per-pixel gradient is mostly sensor noise
    (Gaussian noise alone gives a mean gradient of about 0.886 * sigma).
    """
    if name == "A":
        return SceneSpec(
            planes=room_planes(),
            texture=TextureSpec(scales=(0.7, 0.35, 0.18), amplitudes=(0.45, 0.3, 0.25), contrast=0.95),
            pose_sampler=PoseSampler(rot_range_deg=(2.0, 10.0), baseline_range=(0.15, 0.45), lookat_jitter_deg=3.0),
            noise_sigma=0.01,
            seed=seed,
        )
    if name == "B":
        return SceneSpec(
            planes=room_planes(),
            texture=TextureSpec(scales=(2.2, 1.1), amplitudes=(0.65, 0.35), contrast=0.35),
            pose_sampler=PoseSampler(rot_range_deg=(4.0, 35.0), baseline_range=(0.2, 1.0), lookat_jitter_deg=6.0),
            noise_sigma=0.03,
            seed=seed,
        )
    raise ValueError(f"unknown domain {name!r} (expected 'A' or 'B')")


def save_pair_file(path, pair: RenderedPair):
    K = pair.K
    write_arrays(path, (pair.image1, pair.image2, pair.depth1, pair.depth2,
                        (K.fx, K.fy, K.cx, K.cy), pair.pose.R, pair.pose.t))


def load_pair_file(path) -> RenderedPair:
    *planes, K, R, t = read_arrays(path, [(None, None)] * 4 + [(4,), (3, 3), (3,)])
    if len({p.shape for p in planes}) != 1:
        raise ValueError(f"{path}: image and depth planes differ in shape")
    return RenderedPair(*planes, CameraIntrinsics(*K.tolist()), RelativePose(R, t))


def save_dataset(spec: SceneSpec, n, out_dir):
    """Write pairs/NNNNN.bin plus index.txt; returns the pair list."""
    out = Path(out_dir)
    (out / "pairs").mkdir(parents=True, exist_ok=True)
    pairs = []
    with open(out / "index.txt", "w") as idx:
        for i in range(n):
            pair = sample_pair(spec, i)
            name = f"pairs/{i:05d}.bin"
            save_pair_file(out / name, pair)
            idx.write(f"{i} {name}\n")
            pairs.append(pair)
    return pairs


def load_dataset(dir_path):
    root = Path(dir_path)
    pairs = []
    with open(root / "index.txt") as idx:
        for lineno, line in enumerate(idx, 1):
            fields = line.strip().split(maxsplit=1)
            if not fields:
                continue
            if len(fields) != 2:
                raise ValueError(f"{idx.name}:{lineno}: expected 2 fields per index line, got {len(fields)}")
            pairs.append(load_pair_file(root / fields[1]))
    return pairs
