import itertools
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from epimatch import errors, geometry
from epimatch.errors import DegeneratePose
from epimatch.geometry import (
    Camera,
    CameraIntrinsics,
    RelativePose,
    fundamental_from_pose,
    pixel_rays,
    project_points,
    rotation_from_axis_angle,
)
from epimatch.grid import GridSpec
from epimatch.losses import d_epi
from epimatch.matcher import MatcherConfig, init_params, save_checkpoint
from epimatch import synth
from epimatch.synth import (
    Plane,
    PoseSampler,
    RenderedPair,
    SceneSpec,
    TextureSpec,
    _camera_from_position,
    _cast_rays,
    _texture_tables,
    _view_overlap,
    gt_correspondence_grid,
    load_dataset,
    load_pair_file,
    make_domain,
    render_view,
    room_planes,
    sample_pair,
    save_dataset,
    save_pair_file,
)

from conftest import fixed_pair, record_ends, reference_project_points


def small_domain(name="A", seed=3, noise=None):
    spec = make_domain(name, seed=seed)
    if noise is not None:
        spec = replace(spec, noise_sigma=noise)
    return spec


def stereo_spec(seed=0):
    """Single fronto-parallel wall; cameras look straight at it."""
    wall = Plane((-10.0, 5.0, -10.0), (1, 0, 0), (0, 0, 1), 20.0, 20.0)
    return SceneSpec(
        planes=(wall,),
        texture=TextureSpec(scales=(0.5, 0.25), amplitudes=(0.5, 0.3), contrast=0.8),
        pose_sampler=PoseSampler((2, 5), (0.1, 0.2), 2.0),
        noise_sigma=0.0,
        seed=seed,
    )


class TestSamplePair:
    def test_deterministic(self):
        spec = small_domain()
        a = sample_pair(spec, 4)
        b = sample_pair(spec, 4)
        assert a.image1.tobytes() == b.image1.tobytes()
        assert a.image2.tobytes() == b.image2.tobytes()
        assert a.depth1.tobytes() == b.depth1.tobytes()
        assert np.array_equal(a.pose.R, b.pose.R)

    def test_identity_pose_hook(self):
        spec = small_domain(noise=0.0)
        pair = fixed_pair(spec, RelativePose.identity())
        assert np.array_equal(pair.image1, pair.image2)
        with pytest.raises(errors.DegenerateBaseline):
            fundamental_from_pose(pair.K, pair.K, pair.pose)

    def test_full_depth_coverage(self):
        pair = sample_pair(small_domain(), 1)
        assert np.all(pair.depth1 > 0)
        assert np.all(pair.depth2 > 0)

    def test_per_pixel_epipolar_audit(self):
        # every depth-backprojected pixel lands on its epipolar line
        for index in range(3):
            pair = sample_pair(small_domain(seed=9), index)
            K = pair.K
            H, W = pair.depth1.shape
            us, vs = np.meshgrid(np.arange(W, dtype=float), np.arange(H, dtype=float))
            d = pair.depth1.ravel()
            X = np.stack(
                [
                    d * (us.ravel() - K.cx) / K.fx,
                    d * (vs.ravel() - K.cy) / K.fy,
                    d,
                ],
                axis=-1,
            )
            X2 = X @ pair.pose.R.T + pair.pose.t
            front = X2[:, 2] > 1e-9
            u2 = K.fx * X2[front, 0] / X2[front, 2] + K.cx
            v2 = K.fy * X2[front, 1] / X2[front, 2] + K.cy
            ones = np.ones_like(us.ravel()[front])
            F = fundamental_from_pose(K, K, pair.pose)
            lines = np.stack([us.ravel()[front], vs.ravel()[front], ones], axis=-1) @ F.T
            num = np.abs(np.einsum("ij,ij->i", np.stack([u2, v2, ones], axis=-1), lines))
            den = np.hypot(lines[:, 0], lines[:, 1])
            assert np.max(num / den) < 1e-6

    def test_rendered_depth_puts_every_pixel_on_a_wall(self):
        # an off-centre oblique view of the 8 x 6 x 4 m room: a pixel's ray
        # through its depth ends on the floor, the ceiling or a wall
        spec = small_domain()
        cam = _camera_from_position(spec.intrinsics, [2.0, 1.5, 1.2], [6.5, 5.0, 2.5])
        _, depth = render_view(spec, _texture_tables(spec), cam)
        H, W = depth.shape
        pix = np.stack(np.meshgrid(np.arange(W, dtype=float), np.arange(H, dtype=float)), axis=-1).reshape(-1, 2)
        X = cam.center() + depth.reshape(-1, 1) * pixel_rays(cam, pix)
        off_wall = np.abs(np.column_stack([X, X - [8.0, 6.0, 4.0]])).min(axis=1)
        assert np.max(off_wall) < 1e-9
        assert np.allclose(project_points(cam, X)[1], depth.ravel(), rtol=1e-12)

    def test_degenerate_pose_error(self):
        spec = replace(small_domain(), min_overlap=1.01, max_pose_retries=3)
        with pytest.raises(errors.DegeneratePose):
            sample_pair(spec, 0)


def reference_sample_pair(spec: SceneSpec, index, pose_override: RelativePose | None = None) -> RenderedPair:
    """sample_pair before it was split into camera sampling and render_pair."""
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


def assert_pairs_byte_equal(got, want):
    for name in ("image1", "image2", "depth1", "depth2"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert np.array(astuple(got.K)).tobytes() == np.array(astuple(want.K)).tobytes()
    assert got.pose.R.tobytes() == want.pose.R.tobytes()
    assert got.pose.t.tobytes() == want.pose.t.tobytes()


class TestRenderPairMatchesReference:
    @pytest.mark.parametrize("seed", [1, 9001])
    @pytest.mark.parametrize("domain", ["A", "B"])
    def test_sample_pair_byte_identical(self, domain, seed):
        spec = make_domain(domain, seed=seed)
        for i in range(8):
            assert_pairs_byte_equal(sample_pair(spec, i), reference_sample_pair(spec, i))

    @pytest.mark.parametrize("scene, pose, index", [
        ("small", RelativePose.identity(), 0),
        ("A5", RelativePose(rotation_from_axis_angle([0.0, 1.0, 0.0], np.radians(70.0)), [0.2, 0.0, 0.0]), 2),
        ("stereo", RelativePose(np.eye(3), [-0.4, 0.0, 0.0]), 0),
        ("stereo", RelativePose(np.diag([-1.0, 1.0, -1.0]), [0.3, 0.0, 0.0]), 0),
        ("A1", RelativePose(rotation_from_axis_angle([0, 1, 0], np.radians(5.0)), np.zeros(3)), 0),
    ], ids=["identity", "pan_70deg", "stereo_baseline", "flipped_R", "pure_rotation"])
    def test_fixed_camera_pairs_byte_identical(self, scene, pose, index):
        # fixed_pair places the cameras that pose_override placed; domain A
        # adds sensor noise, so the noise stream is compared too
        spec = {"small": small_domain(noise=0.0), "A5": make_domain("A", seed=5),
                "stereo": stereo_spec(), "A1": make_domain("A", seed=1)}[scene]
        assert_pairs_byte_equal(fixed_pair(spec, pose, index), reference_sample_pair(spec, index, pose_override=pose))


def gt_grid_oracle(pair, grid):
    """Per-cell scalar reference for gt_correspondence_grid. Also returns,
    for each cell without a target, why it has none."""
    H, W = pair.depth1.shape
    K = pair.K
    w = grid.patch_width
    targets = np.full(grid.m, -1, dtype=int)
    points = np.full((grid.m, 2), np.nan)
    R, t = pair.pose.R, pair.pose.t
    reasons = []
    for i, (u, v) in enumerate(grid.cell_centers()):
        d = pair.depth1[int(round(v)), int(round(u))]
        if d <= 0:
            reasons.append("no depth")
            continue
        X = d * np.array([(u - K.cx) / K.fx, (v - K.cy) / K.fy, 1.0])
        X2 = R @ X + t
        if X2[2] <= 1e-9:
            reasons.append("behind camera")
            continue
        u2 = K.fx * X2[0] / X2[2] + K.cx
        v2 = K.fy * X2[1] / X2[2] + K.cy
        if not (0.0 <= u2 <= W - 1 and 0.0 <= v2 <= H - 1):
            reasons.append("out of view")
            continue
        d2 = pair.depth2[int(round(v2)), int(round(u2))]
        if d2 <= 0 or X2[2] > d2 * 1.01:
            reasons.append("occluded")
            continue
        r, c = int(round(v2)) // w, int(round(u2)) // w
        if not (0 <= r < grid.rows and 0 <= c < grid.cols):
            reasons.append("off grid")
            continue
        targets[i] = r * grid.cols + c
        points[i] = (u2, v2)
    return targets, points, reasons


def cluttered_room_planes(width=8.0, depth=6.0, height=4.0):
    """Room with freestanding interior panels: wide in-view depth range makes
    the translation direction of a camera pair observable from matches."""
    panels = (
        Plane((width * 0.15, depth * 0.52, 0.0), (1, 0, 0), (0, 0, 1), width * 0.3, height * 0.6),
        Plane((width * 0.58, depth * 0.68, height * 0.15), (1, 0, 0), (0, 0, 1), width * 0.3, height * 0.65),
        Plane((width * 0.38, depth * 0.42, 0.0), (1, 0, 0), (0, 0, 1), width * 0.18, height * 0.4),
    )
    return room_planes(width, depth, height) + panels


def tilted_panel_planes(width=8.0, depth=6.0, height=4.0):
    """Room with two panels that are not axis-aligned: one turned 25 degrees
    about the vertical, one tilted about two axes."""
    c, s = np.cos(np.radians(25.0)), np.sin(np.radians(25.0))
    panels = (
        Plane((width * 0.2, depth * 0.55, 0.3), (c, s, 0.0), (0.0, 0.0, 1.0), 2.0, 2.5),
        Plane((width * 0.6, depth * 0.45, 0.5), (0.6, 0.8, 0.0), (-0.48, 0.36, 0.8), 1.8, 2.2),
    )
    return room_planes(width, depth, height) + panels


def reference_sample_texture(octaves, a, b, contrast):
    """Bilinear value-noise lookup as written before the flat-index gather."""
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


def reference_cast_rays(spec, origin, dirs):
    """Ray casting that tests every ray against every plane, with np.cross."""
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


def use_reference_renderer(monkeypatch):
    monkeypatch.setattr(synth, "_cast_rays", reference_cast_rays)
    monkeypatch.setattr(synth, "_sample_texture", reference_sample_texture)


class TestRenderMatchesReference:
    SCENES = {
        "A": lambda: make_domain("A", seed=2),
        "B": lambda: make_domain("B", seed=2),
        "cluttered_A": lambda: replace(make_domain("A", seed=4), planes=cluttered_room_planes()),
        "tilted_B": lambda: replace(make_domain("B", seed=4), planes=tilted_panel_planes()),
    }
    # (position, target): two oblique views from inside, one from outside the
    # room whose corner rays miss every plane, and one a hair above the floor
    # looking level, whose middle rows run nearly parallel to floor and ceiling
    VIEWS = (
        ([2.0, 1.5, 1.2], [6.5, 5.0, 2.5]),
        ([6.0, 1.0, 3.0], [1.5, 4.5, 0.5]),
        ([4.0, -5.0, 2.0], [4.0, 3.0, 2.0]),
        ([4.0, 0.5, 1e-7], [4.0, 6.0, 1e-7]),
    )

    @pytest.mark.parametrize("scene", list(SCENES))
    def test_render_view_byte_identical(self, scene, monkeypatch):
        spec = self.SCENES[scene]()
        tables = _texture_tables(spec)
        cams = [_camera_from_position(spec.intrinsics, p, q) for p, q in self.VIEWS]
        got = [render_view(spec, tables, cam) for cam in cams]
        use_reference_renderer(monkeypatch)
        want = [render_view(spec, tables, cam) for cam in cams]
        for (image, depth), (ref_image, ref_depth) in zip(got, want):
            assert image.tobytes() == ref_image.tobytes()
            assert depth.tobytes() == ref_depth.tobytes()
        assert np.any(want[2][1] == 0.0)  # the outside view has misses

    @pytest.mark.parametrize("scene", ["cluttered_A", "tilted_B"])
    def test_cast_rays_byte_identical_at_the_thresholds(self, scene):
        spec = self.SCENES[scene]()
        rng = np.random.default_rng(17)
        # random directions, floor-grazing ones around the |denom| > 1e-12
        # cut-off, and ones along both tilted-panel axes
        dz = np.array([0.0, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, -2e-12, 1e-10, 1e-6])
        grazing = np.column_stack([np.full(dz.size, 0.3), np.full(dz.size, 0.95), dz])
        along = np.array([p.eu for p in spec.planes[6:]] + [p.ev for p in spec.planes[6:]], dtype=float)
        base = np.vstack([rng.normal(size=(400, 3)), grazing, -grazing, along, -along])
        # rays toward each plane corner and toward points 5e-10 m past or
        # short of it along both plane axes: at a room corner three planes
        # meet at the same t, and a free panel edge is met inside its 1e-9
        # tolerance
        targets = np.array([
            np.asarray(p.origin) + (i * p.su + off) * np.asarray(p.eu) + (j * p.sv + off) * np.asarray(p.ev)
            for p in spec.planes for i, j in itertools.product((0, 1), (0, 1)) for off in (0.0, -5e-10, 5e-10)
        ])
        # origins inside, outside, on the floor, a hair above it (grazing rays
        # hit at t near 1e-8) and at a corner
        origins = ([4.0, 3.0, 2.0], [4.0, -5.0, 2.0], [3.0, 2.0, 0.0], [3.0, 2.0, 1e-20], [0.0, 0.0, 0.0])
        for origin in origins:
            origin = np.asarray(origin)
            dirs = np.vstack([base, targets - origin])
            got = _cast_rays(spec, origin, dirs)
            want = reference_cast_rays(spec, origin, dirs)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("domain", ["A", "B"])
    def test_sample_pair_byte_identical(self, domain, monkeypatch):
        # covers the pose retries, whose overlap test casts rays too
        spec = make_domain(domain, seed=9001)
        got = [sample_pair(spec, i) for i in range(8)]
        use_reference_renderer(monkeypatch)
        for i, pair in enumerate(got):
            ref = sample_pair(spec, i)
            for name in ("image1", "image2", "depth1", "depth2"):
                assert getattr(pair, name).tobytes() == getattr(ref, name).tobytes()
            assert pair.pose.R.tobytes() == ref.pose.R.tobytes()
            assert pair.pose.t.tobytes() == ref.pose.t.tobytes()


class TestGtCorrespondenceGrid:
    @pytest.mark.parametrize("domain", ["A", "B"])
    def test_matches_per_cell_oracle(self, domain):
        spec = make_domain(domain, seed=5)
        cluttered = replace(spec, planes=cluttered_room_planes())
        # a 70 degree pan puts part of the view behind camera 2, part beside it
        pan = RelativePose(rotation_from_axis_angle([0.0, 1.0, 0.0], np.radians(70.0)), [0.2, 0.0, 0.0])
        pairs = [sample_pair(spec, 0), sample_pair(spec, 1), sample_pair(cluttered, 0),
                 sample_pair(cluttered, 1), fixed_pair(spec, pan, 2)]
        grid = GridSpec.for_image(*spec.image_size, 8)
        reasons = set()
        for pair in pairs:
            targets, points = gt_correspondence_grid(pair, grid)
            ref_targets, ref_points, why = gt_grid_oracle(pair, grid)
            assert targets.dtype == ref_targets.dtype and targets.tobytes() == ref_targets.tobytes()
            assert points.tobytes() == ref_points.tobytes()
            reasons.update(why)
        assert {"behind camera", "out of view", "occluded"} <= reasons

    def test_identity_pose_maps_cells_to_themselves(self):
        spec = small_domain(noise=0.0)
        pair = fixed_pair(spec, RelativePose.identity())
        grid = GridSpec.for_image(*spec.image_size, 8)
        targets, points = gt_correspondence_grid(pair, grid)
        centers = grid.cell_centers()
        assert np.array_equal(targets, np.arange(grid.m))
        assert np.allclose(points, centers, atol=1e-9)

    def test_stereo_constant_disparity(self):
        spec = stereo_spec()
        B = 0.4
        pair = fixed_pair(spec, RelativePose(np.eye(3), [-B, 0.0, 0.0]))
        grid = GridSpec.for_image(*spec.image_size, 8)
        targets, points = gt_correspondence_grid(pair, grid)
        K = spec.intrinsics
        Z = pair.depth1[64, 64]
        disparity = K.fx * B / Z
        centers = grid.cell_centers()
        valid = targets >= 0
        assert valid.sum() > grid.m // 2
        assert np.allclose(points[valid, 0], centers[valid, 0] - disparity, atol=1e-6)
        assert np.allclose(points[valid, 1], centers[valid, 1], atol=1e-6)

    def test_points_behind_camera_are_none(self):
        spec = stereo_spec()
        # camera 2 rotated 180 degrees: scene is behind it
        Rflip = np.diag([-1.0, 1.0, -1.0])
        pair = fixed_pair(spec, RelativePose(Rflip, [0.3, 0.0, 0.0]))
        grid = GridSpec.for_image(*spec.image_size, 8)
        targets, _ = gt_correspondence_grid(pair, grid)
        assert np.all(targets == -1)

    def test_targets_lie_on_epipolar_lines(self):
        pair = sample_pair(small_domain(seed=21), 2)
        grid = GridSpec.for_image(*pair.image1.shape, 8)
        targets, points = gt_correspondence_grid(pair, grid)
        i = np.flatnonzero(targets >= 0)[::7]
        F = fundamental_from_pose(pair.K, pair.K, pair.pose)
        assert np.all(d_epi(F, grid.cell_centers()[i], points[i])[0] < 1e-6)


class TestProjectionMatchesReference:
    @pytest.mark.parametrize("domain", ["A", "B"])
    def test_pairs_and_gt_grids_byte_identical(self, domain, monkeypatch):
        # sample_pair's pose acceptance projects too: _view_overlap and the GT
        # grid both project through geometry.project_in_image
        spec = make_domain(domain, seed=7)
        grid = GridSpec.for_image(*spec.image_size, 8)
        got = [sample_pair(spec, i) for i in range(8)]
        grids = [gt_correspondence_grid(pair, grid) for pair in got]
        monkeypatch.setattr(geometry, "project_points", reference_project_points)
        for i, (pair, (targets, points)) in enumerate(zip(got, grids)):
            ref = sample_pair(spec, i)
            for name in ("image1", "image2", "depth1", "depth2"):
                assert getattr(pair, name).tobytes() == getattr(ref, name).tobytes()
            assert pair.pose.R.tobytes() == ref.pose.R.tobytes()
            assert pair.pose.t.tobytes() == ref.pose.t.tobytes()
            ref_targets, ref_points = gt_correspondence_grid(ref, grid)
            assert targets.dtype == ref_targets.dtype and targets.tobytes() == ref_targets.tobytes()
            assert points.tobytes() == ref_points.tobytes()
        assert all(np.any(t >= 0) and np.any(t < 0) for t, _ in grids)


def reference_view_overlap(spec, cam1, cam2, samples=12):
    """_view_overlap with its former own visibility rule: depth above 1e-6
    and no border slack."""
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


def reference_gt_visibility(camera, X, image_size):
    """project_in_image under gt_correspondence_grid's former own rule: depth
    above 1e-9 and no border slack."""
    W, H = image_size
    pix, z = project_points(camera, X)
    u, v = pix.T
    return pix, z, (z > 1e-9) & (0.0 <= u) & (u <= W - 1) & (0.0 <= v) & (v <= H - 1)


class TestOneVisibilityRule:
    """Pose acceptance and the GT grid share geometry.project_in_image; on
    seeded pairs it decides as each caller's former rule did."""

    @pytest.mark.parametrize("domain", ["A", "B"])
    def test_scores_and_grids_equal_the_former_rules(self, domain, monkeypatch):
        spec = make_domain(domain, seed=0)
        calls = []
        score = synth._view_overlap

        def recorded(*args):
            calls.append(args)
            return score(*args)

        monkeypatch.setattr(synth, "_view_overlap", recorded)
        pairs = [sample_pair(spec, i) for i in range(50)]
        scores = [score(*args) for args in calls]
        assert scores == [reference_view_overlap(*args) for args in calls]
        # every pair is scored both ways, and views overlap in part
        assert len(scores) >= 100 and any(0.0 < s < 1.0 for s in scores)

        grid = GridSpec.for_image(*spec.image_size, 8)
        grids = [gt_correspondence_grid(pair, grid) for pair in pairs[:8]]
        monkeypatch.setattr(synth, "project_in_image", reference_gt_visibility)
        for pair, (targets, points) in zip(pairs, grids):
            ref_targets, ref_points = gt_correspondence_grid(pair, grid)
            assert targets.tobytes() == ref_targets.tobytes() and points.tobytes() == ref_points.tobytes()
        assert all(np.any(t >= 0) and np.any(t < 0) for t, _ in grids)


class TestDomains:
    def test_both_validate_and_differ(self):
        a = make_domain("A")
        b = make_domain("B")
        assert a.texture != b.texture
        assert a.pose_sampler != b.pose_sampler
        assert b.noise_sigma > a.noise_sigma

    def test_unknown_domain(self):
        with pytest.raises(ValueError):
            make_domain("C")

    def test_gradient_magnitude_separation(self):
        def mean_grad(spec, n=6):
            vals = []
            for i in range(n):
                img = sample_pair(spec, i).image1
                gy, gx = np.gradient(img)
                vals.append(np.mean(np.hypot(gx, gy)))
            return np.mean(vals)

        # Noise off: at B's sigma the per-pixel gradient is mostly sensor noise, not texture.
        ga = mean_grad(small_domain("A", seed=5, noise=0.0))
        gb = mean_grad(small_domain("B", seed=5, noise=0.0))
        assert ga >= 2.0 * gb


class TestPairFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        pair = sample_pair(small_domain(), 0)
        path = tmp_path / "pair.bin"
        save_pair_file(path, pair)
        loaded = load_pair_file(path)
        assert loaded.image1.tobytes() == pair.image1.tobytes()
        assert loaded.image2.tobytes() == pair.image2.tobytes()
        assert loaded.depth1.tobytes() == pair.depth1.tobytes()
        assert loaded.depth2.tobytes() == pair.depth2.tobytes()
        assert np.allclose(loaded.pose.R, pair.pose.R, atol=1e-15)
        assert np.allclose(loaded.pose.t, pair.pose.t, atol=1e-15)
        F_loaded = fundamental_from_pose(loaded.K, loaded.K, loaded.pose)
        assert np.allclose(F_loaded, fundamental_from_pose(pair.K, pair.K, pair.pose), atol=1e-12)

    @pytest.mark.parametrize("override", [
        None,
        RelativePose(rotation_from_axis_angle([0, 1, 0], 0.1), np.zeros(3)),
    ], ids=["pose", "pure_rotation"])
    def test_exact_round_trip(self, tmp_path, override):
        pair = sample_pair(small_domain(), 0) if override is None else fixed_pair(small_domain(), override)
        path = tmp_path / "pair.bin"
        save_pair_file(path, pair)
        loaded = load_pair_file(path)
        for name in ("image1", "image2", "depth1", "depth2"):
            assert getattr(loaded, name).tobytes() == getattr(pair, name).tobytes()
        assert np.array(astuple(loaded.K)).tobytes() == np.array(astuple(pair.K)).tobytes()
        assert loaded.pose.R.tobytes() == pair.pose.R.tobytes()
        assert loaded.pose.t.tobytes() == pair.pose.t.tobytes()

    def test_dataset_round_trip(self, tmp_path):
        spec = small_domain(seed=8)
        save_dataset(spec, 3, tmp_path / "ds")
        # comment and blank lines are skipped, as in every text file
        index = tmp_path / "ds" / "index.txt"
        index.write_text("# pair file per line\n\n" + index.read_text())
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded) == 3
        for i, pair in enumerate(loaded):
            assert pair.image1.tobytes() == sample_pair(spec, i).image1.tobytes()

    def test_malformed_index_line_names_its_line(self, tmp_path):
        save_dataset(small_domain(seed=8), 2, tmp_path / "ds")
        index = tmp_path / "ds" / "index.txt"
        index.write_text(index.read_text() + "\n2\n")
        with pytest.raises(ValueError, match=r"index.txt:4: expected 2 fields per index line, got 1$"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("where", ["header", "data", "boundary"])
    def test_cut_file_names_itself(self, tmp_path, where):
        path = tmp_path / "pair.bin"
        save_pair_file(path, sample_pair(small_domain(), 0))
        ends = record_ends(path)
        assert len(ends) == 7
        # inside depth1's header, inside depth2's data, or just after R
        size = {"header": ends[1] + 20, "data": ends[3] - 8, "boundary": ends[5]}[where]
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_pair_file(path)

    @staticmethod
    def write_records(path, records, archive=None):
        """np.save each record, then np.savez `archive` if one is given."""
        with open(path, "wb") as fh:
            for a in records:
                np.save(fh, a)
            if archive is not None:
                np.savez(fh, **archive)

    def pair_records(self):
        pair = sample_pair(small_domain(), 0)
        return [pair.image1, pair.image2, pair.depth1, pair.depth2,
                np.array(astuple(pair.K)), pair.pose.R, pair.pose.t]

    @pytest.mark.parametrize("slot, bad", [
        (4, np.array([110.0, 110.0, 64.0, 64.0], dtype=np.float32)),
        (4, np.array([110.0, None, 64.0, 64.0], dtype=object)),
        (5, np.eye(4)),
        (1, np.zeros((64, 64))),
    ], ids=["float32_K", "object_K", "R_4x4", "small_image2"])
    def test_bad_record_names_the_file(self, tmp_path, slot, bad):
        records = self.pair_records()
        records[slot] = bad
        path = tmp_path / "pair.bin"
        self.write_records(path, records)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_pair_file(path)

    @pytest.mark.parametrize("cut", [False, True], ids=["npz", "cut_npz"])
    def test_zip_archive_for_a_record_names_the_file(self, tmp_path, cut):
        # np.load opens a zip archive where a record should be
        *records, t = self.pair_records()
        path = tmp_path / "pair.bin"
        self.write_records(path, records)
        size = path.stat().st_size + 40
        self.write_records(path, records, archive={"t": t})
        if cut:
            path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_pair_file(path)

    @pytest.mark.parametrize("slot, bad", [
        (5, 2.0 * rotation_from_axis_angle([0, 1, 0], 0.1)),
        (5, np.diag([1.0, 1.0, -1.0])),
        (5, np.full((3, 3), np.nan)),
        (5, np.array([[1.0, np.inf, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
        (5, np.eye(3) + 1e-7),
        (6, np.array([np.nan, 0.0, 0.0])),
        (6, np.array([0.0, np.inf, 0.0])),
    ], ids=["scaled_R", "reflection_R", "nan_R", "inf_R", "near_R", "nan_t", "inf_t"])
    def test_pose_that_is_not_a_rigid_motion_names_the_file(self, tmp_path, slot, bad):
        records = self.pair_records()
        records[slot] = bad
        path = tmp_path / "pair.bin"
        self.write_records(path, records)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: R must be a rotation and t finite"):
            load_pair_file(path)

    def test_nan_depth_planes_load(self, tmp_path):
        # depth-free pairs are the premise: only the pose is checked
        records = self.pair_records()
        records[2] = np.full_like(records[2], np.nan)
        records[3] = np.full_like(records[3], np.nan)
        path = tmp_path / "pair.bin"
        self.write_records(path, records)
        assert np.isnan(load_pair_file(path).depth1).all()

    def test_extra_record_names_the_file(self, tmp_path):
        path = tmp_path / "pair.bin"
        self.write_records(path, self.pair_records() + [np.zeros(2)])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: data after the last of 7"):
            load_pair_file(path)

    def test_checkpoint_is_not_a_pair_file(self, tmp_path):
        path = tmp_path / "params.bin"
        save_checkpoint(path, init_params(MatcherConfig(), seed=0), MatcherConfig())
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_pair_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXXXXXX" + b"\x00" * 100)
        with pytest.raises(ValueError):
            load_pair_file(path)
