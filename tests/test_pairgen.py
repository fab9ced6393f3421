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
from epimatch.pairgen import (
    BoxModel,
    HemisphereModel,
    OverlapRange,
    PoseRecord,
    PRESETS,
    SAMPLE_GRID,
    _directional_overlap,
    driving_directions,
    generate_pairs,
    pseudo_depth,
    pseudo_overlap,
    read_pairs_file,
    write_pairs_file,
)

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
CENTRE = [[K.cx, K.cy]]  # the principal point as a one-pixel array


def camera_at(position, yaw_deg=0.0, pitch_deg=0.0):
    """Camera at a world position, +z looking along +y, z-up world."""
    base = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])  # look along +y
    yaw = rotation_from_axis_angle([0, 0, 1], np.radians(yaw_deg))
    pitch = rotation_from_axis_angle([1, 0, 0], np.radians(pitch_deg))
    R = base @ pitch.T @ yaw.T
    t = -R @ np.asarray(position, dtype=float)
    return Camera(K, RelativePose(R, t))


class TestPseudoDepthHemisphere:
    def test_straight_down_hits_plane_at_camera_height(self):
        model = HemisphereModel(z_plane=0.0, r_sphere=3.0)
        cam = camera_at([0, 0, 1.5], pitch_deg=-90.0)
        # principal ray points straight down
        d = pseudo_depth(model, cam, CENTRE)
        assert d == pytest.approx([1.5], rel=1e-9)

    def test_horizontal_from_dome_centre_hits_sphere(self):
        model = HemisphereModel(z_plane=0.0, r_sphere=3.0)
        cam = camera_at([0, 0, 0.0])  # at the dome centre, looking horizontally
        d = pseudo_depth(model, cam, CENTRE)
        assert d == pytest.approx([3.0], rel=1e-9)

    def test_camera_outside_dome_returns_none(self):
        model = HemisphereModel(z_plane=0.0, r_sphere=3.0)
        cam = camera_at([0, 0, 5.0])
        assert np.isinf(pseudo_depth(model, cam, CENTRE)).all()


class TestPseudoDepthBox:
    def test_ray_along_driving_direction_is_excluded(self):
        model = BoxModel(side=10.0, bottom=-2.0, longitudinal=25.0, driving_dir=(0, 1, 0))
        cam = camera_at([0, 0, 0])  # looking along +y = driving direction
        assert np.isinf(pseudo_depth(model, cam, CENTRE)).all()

    def test_sideways_ray_hits_side_plane(self):
        model = BoxModel(side=10.0, bottom=-2.0, longitudinal=25.0, driving_dir=(0, 1, 0))
        cam = camera_at([0, 0, 0], yaw_deg=90.0)  # looking along -x? rotate about z
        d = pseudo_depth(model, cam, CENTRE)
        assert d == pytest.approx([10.0], rel=1e-9)

    def test_side_plane_wins_a_tie_with_the_front_plane(self):
        # the ray (1, 1, 0) / sqrt(2) meets the right and front planes together
        model = BoxModel(side=10.0, bottom=-2.0, longitudinal=10.0, driving_dir=(0, 1, 0))
        cam = camera_at([0, 0, 0])
        d = pseudo_depth(model, cam, [[K.cx + K.fx, K.cy]])
        assert d == pytest.approx([10.0 * np.sqrt(2.0)], rel=1e-12)

    def test_straight_up_open_top_returns_none(self):
        model = BoxModel(side=10.0, bottom=-2.0, longitudinal=25.0, driving_dir=(0, 1, 0))
        cam = camera_at([0, 0, 0], pitch_deg=90.0)
        assert np.isinf(pseudo_depth(model, cam, CENTRE)).all()


class TestPseudoOverlap:
    def test_identical_cameras_full_overlap(self):
        model = HemisphereModel(z_plane=0.0, r_sphere=3.0)
        cam = camera_at([0, 0, 1.5])
        assert pseudo_overlap(model, cam, cam) == pytest.approx(1.0)

    def test_opposed_cameras_zero_overlap(self):
        model = HemisphereModel(z_plane=0.0, r_sphere=3.0)
        a = camera_at([0, 0, 1.5])
        b = camera_at([0, 0, 1.5], yaw_deg=180.0)
        assert pseudo_overlap(model, a, b) == pytest.approx(0.0)

    def test_symmetrized_score_is_min(self):
        # wide versus narrow field of view makes the directional scores differ
        model = HemisphereModel(z_plane=0.0, r_sphere=5.0)
        wide = Camera(CameraIntrinsics(250.0, 250.0, 320.0, 240.0),
                      camera_at([0, 0, 1.0]).pose)
        narrow = Camera(CameraIntrinsics(1200.0, 1200.0, 320.0, 240.0),
                        camera_at([0, 0, 1.0]).pose)
        o_nw = _directional_overlap(model, narrow, wide, (640, 480))
        o_wn = _directional_overlap(model, wide, narrow, (640, 480))
        assert o_nw != pytest.approx(o_wn, abs=1e-3)
        assert pseudo_overlap(model, narrow, wide) == pytest.approx(min(o_nw, o_wn))

    def test_score_in_unit_interval(self):
        model = HemisphereModel(z_plane=-2.0, r_sphere=10.0)
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = camera_at(rng.uniform(-2, 2, 3) + [0, 0, 3], yaw_deg=rng.uniform(-60, 60))
            b = camera_at(rng.uniform(-2, 2, 3) + [0, 0, 3], yaw_deg=rng.uniform(-60, 60))
            s = pseudo_overlap(model, a, b)
            assert 0.0 <= s <= 1.0

    def test_border_slack_keeps_an_identical_view_whole(self):
        # an image the size of the sample grid puts the samples on pixels
        # 0 and W - 1, where an identical view needs the slack to count them
        model = PRESETS["euroc-room"]
        size = (SAMPLE_GRID, SAMPLE_GRID)
        pix = np.stack(np.meshgrid(np.arange(SAMPLE_GRID), np.arange(SAMPLE_GRID)), axis=-1).reshape(-1, 2)
        rng = np.random.default_rng(5)
        for _ in range(200):
            pos = rng.uniform([-2, -2, model.z_plane + 0.1], [2, 2, model.z_plane + 2.5])
            cam = camera_at(pos, rng.uniform(-180, 180), rng.uniform(-80, 80))
            hit_share = np.count_nonzero(np.isfinite(pseudo_depth(model, cam, pix))) / len(pix)
            assert _directional_overlap(model, cam, cam, size) == hit_share

    @staticmethod
    def _camera_on_sample_ray(offset):
        """cam_i and a camera looking along the ray of cam_i's sample (16, 16),
        centred `offset` metres past that ray's surface point."""
        model = PRESETS["euroc-room"]
        W, H = 640, 480
        cam_i = camera_at([0.3, -0.2, 1.5], yaw_deg=20.0, pitch_deg=-30.0)
        pix = [[16.5 * W / SAMPLE_GRID - 0.5, 16.5 * H / SAMPLE_GRID - 0.5]]
        ray = normalize_points(K, pix)[0] @ cam_i.pose.R
        ray /= np.linalg.norm(ray)
        point = cam_i.center() + pseudo_depth(model, cam_i, pix)[0] * ray
        right = np.cross(ray, [0.0, 0.0, 1.0])
        right /= np.linalg.norm(right)
        R = np.stack([right, np.cross(ray, right), ray])  # optical axis along the ray
        centre = point + offset * ray
        return model, cam_i, Camera(K, RelativePose(R, -R @ centre)), (W, H), point

    def test_surface_point_1mm_ahead_counts(self):
        # only the sample on the shared ray lands in view, at depth 1e-3: a
        # depth floor above that would drop it
        model, cam_i, cam_j, size, _ = self._camera_on_sample_ray(-1e-3)
        assert _directional_overlap(model, cam_i, cam_j, size) == 1.0 / SAMPLE_GRID ** 2

    def test_surface_point_behind_the_camera_does_not_count(self):
        # 1 mm past the surface point, the point lies behind cam_j yet its
        # pixel is the principal point; only the depth test rejects it
        model, cam_i, cam_j, size, point = self._camera_on_sample_ray(1e-3)
        pix, z = project_points(cam_j, [point])
        assert z[0] < 0.0 and np.allclose(pix, CENTRE)
        assert _directional_overlap(model, cam_i, cam_j, size) == 0.0

    def test_forward_translation_monotonicity(self):
        # overlap never increases as the baseline grows
        model = HemisphereModel(z_plane=0.0, r_sphere=6.0)
        a = camera_at([0, 0, 2.0])
        scores = []
        for step in (0.0, 0.5, 1.0, 1.5, 2.0):
            b = camera_at([0, step, 2.0])
            scores.append(pseudo_overlap(model, a, b))
        assert all(s1 >= s2 - 1e-9 for s1, s2 in zip(scores, scores[1:]))


class TestGeneratePairs:
    def test_single_pose_empty(self):
        model = HemisphereModel(0.0, 3.0)
        recs = [PoseRecord("a", camera_at([0, 0, 1.0]))]
        assert generate_pairs(recs, model, OverlapRange(0.3, 0.8)) == []

    def test_near_identical_frames_excluded_by_max(self):
        model = HemisphereModel(0.0, 3.0)
        recs = [
            PoseRecord("a", camera_at([0, 0, 1.0])),
            PoseRecord("b", camera_at([0, 0.01, 1.0])),
        ]
        pairs = generate_pairs(recs, model, OverlapRange(0.3, 0.9))
        assert pairs == []

    def test_deterministic_ordering_and_file_round_trip(self, tmp_path):
        model = HemisphereModel(0.0, 5.0)
        rng = np.random.default_rng(9)
        recs = [
            PoseRecord(f"c{i}", camera_at([0, 0.8 * i, 1.5], yaw_deg=rng.uniform(-20, 20)))
            for i in range(6)
        ]
        pairs = generate_pairs(recs, model, OverlapRange(0.05, 0.95))
        assert pairs == generate_pairs(recs, model, OverlapRange(0.05, 0.95))
        ids = [(a, b) for a, b, _ in pairs]
        assert ids == sorted(ids)
        path = tmp_path / "pairs.txt"
        write_pairs_file(path, pairs)
        loaded = read_pairs_file(path)
        assert len(loaded) == len(pairs)
        for (a, b, s), (a2, b2, s2) in zip(pairs, loaded):
            assert (a, b) == (a2, b2)
            assert s2 == pytest.approx(s, abs=1e-6)

    @pytest.mark.parametrize("line, message", [("c0 c1\n", "expected 3 fields per pair line, got 2"),
                                               ("c0 c1 high\n", "could not convert")],
                             ids=["two_fields", "non_numeric_score"])
    def test_malformed_pairs_line_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "pairs.txt"
        path.write_text("c0 c2 0.500000\n\n" + line)
        with pytest.raises(ValueError, match=f"pairs.txt:3: {message}"):
            read_pairs_file(path)

    def test_presets_exist_with_published_values(self):
        assert PRESETS["euroc-machine"] == HemisphereModel(z_plane=-2.0, r_sphere=10.0)
        assert PRESETS["euroc-room"] == HemisphereModel(z_plane=0.0, r_sphere=3.0)
        sf = PRESETS["sf-street"]
        assert (sf.side, sf.bottom, sf.longitudinal) == (10.0, -2.0, 25.0)

    def test_driving_directions_from_neighbours(self):
        recs = [PoseRecord(str(i), camera_at([i * 1.0, 0, 1.0])) for i in range(4)]
        dirs = driving_directions(recs)
        for d in dirs:
            assert np.allclose(d, [1, 0, 0])

    def test_overlap_range_validation(self):
        with pytest.raises(ValueError):
            OverlapRange(0.8, 0.3)


# Reference: the per-sample ray, depth and projection, one pixel at a time.

def reference_ray(camera, u, v):
    Ki = camera.intrinsics
    d = camera.pose.R.T @ np.array([(u - Ki.cx) / Ki.fx, (v - Ki.cy) / Ki.fy, 1.0])
    return camera.center(), d / np.linalg.norm(d)


def reference_hemisphere_depth(model, origin, direction):
    cz = origin[2]
    if cz < model.z_plane:
        return None
    h = cz - model.z_plane
    if h >= model.r_sphere:
        return None
    hits = []
    if direction[2] < 0.0:
        t = (model.z_plane - cz) / direction[2]
        if t > 0:
            p = origin + t * direction
            if (p[0] - origin[0]) ** 2 + (p[1] - origin[1]) ** 2 <= model.r_sphere ** 2:
                hits.append(t)
    b = np.array([0.0, 0.0, h]) @ direction
    disc = b * b - (h * h - model.r_sphere ** 2)
    if disc >= 0.0:
        t = -b + np.sqrt(disc)
        if t > 0 and (origin + t * direction)[2] >= model.z_plane - 1e-9:
            hits.append(t)
    return min(hits) if hits else None


def reference_box_depth(model, origin, direction, driving_dir):
    f = np.asarray(driving_dir, dtype=float)
    f = f / np.linalg.norm(f)
    r = np.cross(f, [0.0, 0.0, 1.0])
    r = r / np.linalg.norm(r)
    df, dr, dz = direction @ f, direction @ r, direction[2]
    cands = []  # (t, is_front_back): a side or bottom hit wins a tie
    for comp, dist, fb in ((df, model.longitudinal, True), (-df, model.longitudinal, True),
                           (dr, model.side, False), (-dr, model.side, False)):
        if comp > 1e-12:
            cands.append((dist / comp, fb))
    if dz < -1e-12:
        cands.append((model.bottom / dz, False))
    cands = [c for c in cands if c[0] > 0]
    if not cands:
        return None
    t, is_front_back = min(cands)
    return None if is_front_back else t


def reference_pseudo_depth(model, camera, u, v, driving_dir=None):
    origin, direction = reference_ray(camera, u, v)
    if isinstance(model, HemisphereModel):
        d = reference_hemisphere_depth(model, origin, direction)
    else:
        d = reference_box_depth(model, origin, direction,
                                driving_dir if driving_dir is not None else model.driving_dir)
    return np.inf if d is None else d


def reference_overlap(model, cam_i, cam_j, image_size, driving_dir=None):
    W, H = image_size
    Kj = cam_j.intrinsics
    count = 0
    for v in (np.arange(SAMPLE_GRID) + 0.5) * H / SAMPLE_GRID - 0.5:
        for u in (np.arange(SAMPLE_GRID) + 0.5) * W / SAMPLE_GRID - 0.5:
            d = reference_pseudo_depth(model, cam_i, u, v, driving_dir)
            if np.isinf(d):
                continue
            origin, direction = reference_ray(cam_i, u, v)
            Xc = cam_j.pose.R @ (origin + d * direction) + cam_j.pose.t
            if Xc[2] <= 1e-9:
                continue
            u2 = Kj.fx * Xc[0] / Xc[2] + Kj.cx
            v2 = Kj.fy * Xc[1] / Xc[2] + Kj.cy
            if -1e-6 <= u2 <= W - 1 + 1e-6 and -1e-6 <= v2 <= H - 1 + 1e-6:
                count += 1
    return count / float(SAMPLE_GRID * SAMPLE_GRID)


def heading(yaw_deg):
    """Horizontal unit direction a camera_at(yaw_deg=...) camera looks along."""
    a = np.radians(yaw_deg)
    return np.array([-np.sin(a), np.cos(a), 0.0])


def hemisphere_cases(rng):
    """(model, camera, driving_dir): random views plus a camera outside the
    dome, one below the plane, one on it, and straight-up/down views."""
    cases = []
    for model in (PRESETS["euroc-room"], PRESETS["euroc-machine"]):
        for _ in range(4):
            pos = rng.uniform([-2, -2, model.z_plane + 0.1], [2, 2, model.z_plane + 2.5])
            cases.append((model, camera_at(pos, rng.uniform(-180, 180), rng.uniform(-80, 80)), None))
        z0 = model.z_plane
        for pos, pitch in (([0, 0, z0 + model.r_sphere + 1.0], -30.0), ([0.5, 0, z0 - 0.5], 20.0),
                           ([0, 0, z0], 0.0), ([0.3, -0.2, z0 + 1.0], 90.0), ([0, 0, z0 + 1.0], -90.0)):
            cases.append((model, camera_at(pos, rng.uniform(-180, 180), pitch), None))
    return cases


def box_cases(rng):
    """Random views with random driving directions, views along the driving
    direction, and straight-up views."""
    cases = []
    model = PRESETS["sf-street"]
    for _ in range(4):
        yaw = rng.uniform(-180, 180)
        cam = camera_at(rng.uniform([-3, -3, 0], [3, 3, 2]), yaw + rng.uniform(-120, 120), rng.uniform(-60, 60))
        cases.append((model, cam, heading(yaw)))
    for yaw in (0.0, 37.0, -90.0):
        cases.append((model, camera_at([1.0, -2.0, 1.5], yaw), heading(yaw)))
        cases.append((model, camera_at([0.0, 0.0, 1.5], yaw, pitch_deg=90.0), heading(yaw)))
    cases.append((BoxModel(side=4.0, bottom=-1.5, longitudinal=12.0, driving_dir=(0, 1, 0)),
                  camera_at([0.5, 0, 0], 20.0, -10.0), None))
    return cases


def sample_pixels(rng):
    W, H = 640, 480
    us = (np.arange(SAMPLE_GRID) + 0.5) * W / SAMPLE_GRID - 0.5
    vs = (np.arange(SAMPLE_GRID) + 0.5) * H / SAMPLE_GRID - 0.5
    grid = np.stack(np.meshgrid(us, vs), axis=-1).reshape(-1, 2)
    return np.vstack([grid, CENTRE, rng.uniform([-50, -50], [W + 50, H + 50], (64, 2))])


class TestArraysMatchPerSampleReference:
    @pytest.mark.parametrize("cases", [hemisphere_cases, box_cases])
    def test_pseudo_depth_byte_identical(self, cases):
        rng = np.random.default_rng(31)
        pix = sample_pixels(rng)
        hit = []
        for model, cam, dd in cases(rng):
            got = pseudo_depth(model, cam, pix, driving_dir=dd)
            want = np.array([reference_pseudo_depth(model, cam, u, v, dd) for u, v in pix])
            assert got.tobytes() == want.tobytes()
            hit.append(np.isfinite(want))
        assert np.any(hit) and not np.all(hit)

    @pytest.mark.parametrize("cases", [hemisphere_cases, box_cases])
    def test_directional_overlap_exact(self, cases):
        rng = np.random.default_rng(47)
        scores = []
        for model, cam_i, dd in cases(rng):
            # a nearby second view, so that most scores are strictly inside (0, 1)
            step = rng.normal(0.0, 0.4, 3)
            R = rotation_from_axis_angle(rng.normal(size=3), np.radians(rng.uniform(0, 15))) @ cam_i.pose.R
            cam_j = Camera(K, RelativePose(R, -R @ (cam_i.center() + step)))
            for a, b in ((cam_i, cam_j), (cam_j, cam_i), (cam_i, cam_i)):
                got = _directional_overlap(model, a, b, (640, 480), dd)
                assert type(got) is float
                assert got == reference_overlap(model, a, b, (640, 480), dd)
                scores.append(got)
        assert any(0.0 < s < 1.0 for s in scores)
