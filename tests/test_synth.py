import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from epimatch import errors
from epimatch.geometry import (
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
from epimatch.synth import (
    Plane,
    PoseSampler,
    RenderedPair,
    SceneSpec,
    TextureSpec,
    _camera_from_position,
    _texture_tables,
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

from conftest import record_ends


def small_domain(name="A", seed=3, noise=None):
    spec = make_domain(name, seed=seed)
    if noise is not None:
        from dataclasses import replace

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
        pair = sample_pair(spec, 0, pose_override=RelativePose.identity())
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
        from dataclasses import replace

        spec = replace(small_domain(), min_overlap=1.01, max_pose_retries=3)
        with pytest.raises(errors.DegeneratePose):
            sample_pair(spec, 0)


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


class TestGtCorrespondenceGrid:
    @pytest.mark.parametrize("domain", ["A", "B"])
    def test_matches_per_cell_oracle(self, domain):
        spec = make_domain(domain, seed=5)
        cluttered = replace(spec, planes=cluttered_room_planes())
        # a 70 degree pan puts part of the view behind camera 2, part beside it
        pan = RelativePose(rotation_from_axis_angle([0.0, 1.0, 0.0], np.radians(70.0)), [0.2, 0.0, 0.0])
        pairs = [sample_pair(spec, 0), sample_pair(spec, 1), sample_pair(cluttered, 0),
                 sample_pair(cluttered, 1), sample_pair(spec, 2, pose_override=pan)]
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
        pair = sample_pair(spec, 0, pose_override=RelativePose.identity())
        grid = GridSpec.for_image(*spec.image_size, 8)
        targets, points = gt_correspondence_grid(pair, grid)
        centers = grid.cell_centers()
        assert np.array_equal(targets, np.arange(grid.m))
        assert np.allclose(points, centers, atol=1e-9)

    def test_stereo_constant_disparity(self):
        spec = stereo_spec()
        B = 0.4
        pair = sample_pair(spec, 0, pose_override=RelativePose(np.eye(3), [-B, 0.0, 0.0]))
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
        pair = sample_pair(spec, 0, pose_override=RelativePose(Rflip, [0.3, 0.0, 0.0]))
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
        pair = sample_pair(small_domain(), 0, pose_override=override)
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
        saved = save_dataset(spec, 3, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded) == 3
        for a, b in zip(saved, loaded):
            assert a.image1.tobytes() == b.image1.tobytes()

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

    def test_extra_record_names_the_file(self, tmp_path):
        path = tmp_path / "pair.bin"
        self.write_records(path, self.pair_records() + [np.zeros(2)])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: data after the last of 7"):
            load_pair_file(path)

    def test_checkpoint_is_not_a_pair_file(self, tmp_path):
        path = tmp_path / "params.bin"
        save_checkpoint(path, init_params(MatcherConfig(), seed=0))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_pair_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXXXXXX" + b"\x00" * 100)
        with pytest.raises(ValueError):
            load_pair_file(path)
