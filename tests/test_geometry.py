import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimatch import errors
from epimatch.geometry import (
    Camera,
    CameraIntrinsics,
    FundamentalMatrix,
    RelativePose,
    _cheirality_votes,
    cross_matrix,
    decompose_essential,
    essential_from_pose,
    fundamental_from_pose,
    fundamental_to_essential,
    hom,
    normalize_points,
    normalized_w,
    pixel_rays,
    project_points,
    read_pose_file,
    rotation_from_axis_angle,
    symmetric_epipolar_distance_sq,
    triangulate,
    write_pose_file,
)
from epimatch.losses import d_epi

from conftest import project_hom, random_camera_pair, random_intrinsics, random_pose, visible_points

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestCrossMatrix:
    def test_direct_expansion(self):
        expected = np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]], dtype=float)
        assert np.array_equal(cross_matrix([1, 2, 3]), expected)

    def test_zero_vector(self):
        assert np.array_equal(cross_matrix([0, 0, 0]), np.zeros((3, 3)))

    @given(st.tuples(finite_floats, finite_floats, finite_floats))
    def test_annihilates_own_vector(self, t):
        t = np.array(t)
        assert np.allclose(cross_matrix(t) @ t, 0.0, atol=1e-10)

    @given(st.tuples(finite_floats, finite_floats, finite_floats))
    def test_antisymmetric(self, t):
        M = cross_matrix(np.array(t))
        assert np.array_equal(M, -M.T)


class TestFundamentalFromPose:
    def test_sideways_identity(self):
        K = CameraIntrinsics(1, 1, 0, 0)
        F = fundamental_from_pose(K, K, RelativePose(np.eye(3), [1, 0, 0]))
        expected = cross_matrix([1, 0, 0])
        # proportional up to the canonical scale
        scale = np.linalg.norm(F.m) / np.linalg.norm(expected)
        assert np.allclose(np.abs(F.m), np.abs(expected) * scale, atol=1e-15)

    def test_zero_baseline_rejected(self):
        K = CameraIntrinsics(1, 1, 0, 0)
        with pytest.raises(errors.DegenerateBaseline):
            fundamental_from_pose(K, K, RelativePose(np.eye(3), [0, 0, 0]))

    def test_projected_pairs_satisfy_epipolar_constraint(self, rng):
        for _ in range(5):
            cam1, cam2, pose = random_camera_pair(rng)
            F = fundamental_from_pose(cam1.intrinsics, cam2.intrinsics, pose)
            pts = visible_points(rng, cam1, cam2, 20)
            x1 = project_hom(cam1, pts)
            x2 = project_hom(cam2, pts)
            assert np.max(symmetric_epipolar_distance_sq(F.m, x1, x2)) < 1e-18

    def test_rank_two_invariant(self, rng):
        for _ in range(20):
            cam1, cam2, pose = random_camera_pair(rng)
            F = fundamental_from_pose(cam1.intrinsics, cam2.intrinsics, pose)
            assert abs(np.linalg.det(F.m)) < 1e-9
            assert abs(np.linalg.norm(F.m) - 1.0) < 1e-12


class TestEpipolarLine:
    """The line F x1, as losses.d_epi and the symmetric distance use it."""

    def test_sideways_line(self):
        # F x1 is the line v = 0: the distance is |v| and its gradient (0, +-1)
        F = FundamentalMatrix(cross_matrix([1, 0, 0]))
        for u, v in ((0.3, 0.5), (-2.0, -1.25), (7.0, 0.0)):
            d, g = d_epi(F, [[0, 0]], [[u, v]])
            assert d[0] == abs(v)
            assert g[0, 0] == 0 and abs(g[0, 1]) == (v != 0)

    def test_epipole_query(self):
        # epipole: F e = 0, so the epipolar line of the pixel e vanishes
        F = FundamentalMatrix(cross_matrix([2, 3, 1]))
        with pytest.raises(errors.DegenerateLine):
            d_epi(F, [[2, 3]], [[0.3, 0.5]])
        assert symmetric_epipolar_distance_sq(F.m, hom(2, 3), hom(0.3, 0.5)) == np.inf

    def test_points_on_line_have_zero_residual(self, rng):
        for _ in range(10):
            cam1, cam2, pose = random_camera_pair(rng)
            F = fundamental_from_pose(cam1.intrinsics, cam2.intrinsics, pose)
            x1 = rng.uniform(0, [600, 400])
            # parametrize the line: pick two points on it
            a, b, c = F.m @ hom(*x1)
            if abs(b) > abs(a):
                x2s = [[u, -(a * u + c) / b] for u in (0.0, 123.4)]
            else:
                x2s = [[-(b * v + c) / a, v] for v in (0.0, 77.7)]
            assert np.all(d_epi(F, [x1, x1], x2s)[0] < 1e-9)


class TestEpipolarResidual:
    """The residual r = x2^T F x1 inside the symmetric distance."""

    def test_hand_value(self):
        # r = -0.5 and both line normals are unit: r^2 * (1 + 1)
        F = FundamentalMatrix(cross_matrix([1, 0, 0]))
        assert symmetric_epipolar_distance_sq(F.m, hom(0, 0), hom(0.3, 0.5)) == 0.5

    def test_transpose_identity(self, rng):
        F = rng.normal(size=(4, 3, 3))
        x1 = np.column_stack([rng.normal(size=(6, 2)), np.ones(6)])
        x2 = np.column_stack([rng.normal(size=(6, 2)), np.ones(6)])
        assert np.allclose(symmetric_epipolar_distance_sq(F, x1, x2),
                           symmetric_epipolar_distance_sq(F.swapaxes(1, 2), x2, x1), rtol=1e-12)

    def test_exact_correspondence(self, rng):
        # a leading axis scores each matrix alone: only the true F gives 0
        cams = [random_camera_pair(rng) for _ in range(3)]
        Fs = np.stack([fundamental_from_pose(c1.intrinsics, c2.intrinsics, pose).m for c1, c2, pose in cams])
        cam1, cam2, _ = cams[0]
        pts = visible_points(rng, cam1, cam2, 5)
        d = symmetric_epipolar_distance_sq(Fs, project_hom(cam1, pts), project_hom(cam2, pts))
        assert d.shape == (3, 5)
        assert np.max(d[0]) < 1e-18 and np.min(d[1:]) > 1e-6


class TestPointLineDistance:
    """Perpendicular pixel distance to the epipolar line, losses.d_epi."""

    def test_distance_to_v_axis(self):
        # F (0, 0, 1) is the line (0, -1, 0)
        F = FundamentalMatrix(cross_matrix([1, 0, 0]))
        assert d_epi(F, [[0, 0]], [[0.3, 0.5]])[0][0] == pytest.approx(0.5)

    def test_point_on_line(self):
        # the line u + v - 1 = 0 is F x1 for this F
        F = FundamentalMatrix(np.array([[0.0, 0, 1], [0, 0, 1], [0, 0, -1]]))
        assert d_epi(F, [[0, 0]], [[0.5, 0.5]])[0][0] == pytest.approx(0.0)

    def test_scale_invariance(self, rng):
        F = FundamentalMatrix(rng.normal(size=(3, 3)))
        x1, x2 = [[0.3, -0.4]], [[1.2, 3.4]]
        d = d_epi(F, x1, x2)[0]
        assert d_epi(FundamentalMatrix(7 * F.m), x1, x2)[0] == pytest.approx(d)

    def test_degenerate_line(self):
        F = FundamentalMatrix(np.array([[0.0, 0, 0], [0, 0, 0], [0, 0, 1]]))
        with pytest.raises(errors.DegenerateLine):
            d_epi(F, [[0, 0]], [[1, 1]])

    def test_point_at_infinity(self):
        with pytest.raises(errors.PointAtInfinity):
            normalized_w(hom(1, 1, 0))


class TestSymmetricEpipolarDistance:
    def test_exact_correspondence_zero(self, rng):
        cam1, cam2, pose = random_camera_pair(rng)
        F = fundamental_from_pose(cam1.intrinsics, cam2.intrinsics, pose)
        pts = visible_points(rng, cam1, cam2, 10)
        x1 = project_hom(cam1, pts)
        x2 = project_hom(cam2, pts)
        assert np.max(symmetric_epipolar_distance_sq(F.m, x1, x2)) < 1e-18

    def test_worked_instance(self):
        # oracle: sum of the two squared point-line distances
        F = FundamentalMatrix(cross_matrix([1, 0, 0]))
        x1, x2 = np.array([[0.0, 0.0]]), np.array([[0.3, 0.5]])
        d2a = d_epi(F, x1, x2)[0][0] ** 2
        d2b = d_epi(FundamentalMatrix(F.m.T), x2, x1)[0][0] ** 2
        expected = d2a + d2b
        assert expected == pytest.approx(0.5)
        assert symmetric_epipolar_distance_sq(F.m, hom(*x1[0]), hom(*x2[0])) == pytest.approx(expected)

    def test_symmetry(self, rng):
        F = rng.normal(size=(3, 3))
        x1 = hom(*rng.uniform(-2, 2, size=2))
        x2 = hom(*rng.uniform(-2, 2, size=2))
        assert symmetric_epipolar_distance_sq(F, x1, x2) == pytest.approx(
            symmetric_epipolar_distance_sq(F.T, x2, x1)
        )

    def test_invariant_to_f_rescaling(self, rng):
        F = rng.normal(size=(3, 3))
        x1 = hom(*rng.uniform(-2, 2, size=2))
        x2 = hom(*rng.uniform(-2, 2, size=2))
        assert symmetric_epipolar_distance_sq(F, x1, x2) == pytest.approx(
            symmetric_epipolar_distance_sq(17.3 * F, x1, x2)
        )


class TestNormalizePoint:
    def test_identity_intrinsics(self):
        K = CameraIntrinsics(1, 1, 0, 0)
        assert np.array_equal(normalize_points(K, [[0.3, -0.7]]), [hom(0.3, -0.7)])

    def test_principal_point_maps_to_origin(self):
        K = CameraIntrinsics(500, 480, 320, 240)
        assert np.allclose(normalize_points(K, [[320, 240]]), [hom(0, 0)])

    def test_round_trip(self, rng):
        K = CameraIntrinsics(500, 480, 320, 240)
        pts = np.column_stack([rng.uniform(0, 640, 5), rng.uniform(0, 480, 5)])
        back = normalize_points(K, pts) @ K.matrix().T
        assert np.allclose(back[:, :2], pts, atol=1e-12) and np.all(back[:, 2] == 1.0)

    def test_batched_matches_scalar(self, rng):
        # oracle: K^-1 applied to one homogeneous point at a time
        K = CameraIntrinsics(512, 500, 320, 240)
        pts = rng.uniform(0, 500, size=(7, 2))
        batch = normalize_points(K, pts)
        for i, p in enumerate(pts):
            assert np.allclose(batch[i], K.inverse() @ hom(*p))


class TestProjectTriangulate:
    def test_axis_point(self):
        cam = Camera(CameraIntrinsics(1, 1, 0, 0), RelativePose.identity())
        pix, depth = project_points(cam, [[0, 0, 5]])
        assert np.allclose(pix, [[0, 0]])
        assert depth == pytest.approx([5.0])

    def test_triangulation_round_trip(self, rng):
        for _ in range(5):
            cam1, cam2, _ = random_camera_pair(rng)
            for X in visible_points(rng, cam1, cam2, 4):
                x1, x2 = project_hom(cam1, [X]), project_hom(cam2, [X])
                assert np.allclose(triangulate(cam1, cam2, x1, x2), X, atol=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_project_inverts_pixel_rays(self, seed):
        # any positive distance along the ray through a pixel projects back to it
        rng = np.random.default_rng(seed)
        cam = Camera(random_intrinsics(rng), random_pose(rng, max_angle_deg=180.0, baseline=(0.0, 5.0)))
        pix = rng.uniform(-100, 700, (20, 2))
        s = rng.uniform(0.1, 50.0, (20, 1))
        back, depth = project_points(cam, cam.center() + s * pixel_rays(cam, pix))
        assert np.allclose(back, pix, rtol=0, atol=1e-9)
        assert np.allclose(depth, s[:, 0], rtol=1e-12)

    def test_same_centre_rejected(self):
        cam = Camera(CameraIntrinsics(1, 1, 0, 0), RelativePose.identity())
        with pytest.raises(errors.DegenerateConfiguration):
            triangulate(cam, cam, hom(0, 0), hom(0.1, 0))


def small_rotation_angle_rad(R):
    """Angle of a near-identity rotation via its skew part (stable near 0)."""
    v = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return float(np.arcsin(np.clip(np.linalg.norm(v), 0.0, 1.0)))


class TestDecomposeEssential:
    def _normalized_tracks(self, rng, pose, n):
        cam1 = Camera(CameraIntrinsics(1, 1, 0, 0), RelativePose.identity())
        cam2 = Camera(CameraIntrinsics(1, 1, 0, 0), pose)
        pts = visible_points(rng, cam1, cam2, n)
        return project_hom(cam1, pts), project_hom(cam2, pts)

    def test_recovers_known_pose(self, rng):
        for _ in range(5):
            axis = rng.normal(size=3)
            R = rotation_from_axis_angle(axis, np.radians(rng.uniform(2, 30)))
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            pose = RelativePose(R, t)
            x1, x2 = self._normalized_tracks(rng, pose, 20)
            rec = decompose_essential(essential_from_pose(pose), x1, x2)
            assert small_rotation_angle_rad(rec.R.T @ R) < 1e-8
            assert np.allclose(rec.t, t, atol=1e-8)

    def test_identity_rotation_sideways(self, rng):
        pose = RelativePose(np.eye(3), [1.0, 0, 0])
        x1, x2 = self._normalized_tracks(rng, pose, 15)
        rec = decompose_essential(essential_from_pose(pose), x1, x2)
        assert np.allclose(rec.R, np.eye(3), atol=1e-9)
        assert np.allclose(rec.t, [1, 0, 0], atol=1e-9)

    def test_mirrored_translation_flips(self, rng):
        pose = RelativePose(np.eye(3), [-1.0, 0, 0])
        x1, x2 = self._normalized_tracks(rng, pose, 15)
        rec = decompose_essential(essential_from_pose(pose), x1, x2)
        assert np.allclose(rec.t, [-1, 0, 0], atol=1e-9)

    def test_votes_match_per_point_triangulation(self, rng):
        # the batched vote against a loop of single triangulations, over the
        # four decompositions of E, with points at infinity and outliers
        # that the per-point rejections must drop
        axis = rng.normal(size=3)
        R = rotation_from_axis_angle(axis, np.radians(15.0))
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        x1, x2 = self._normalized_tracks(rng, RelativePose(R, t), 40)
        x2[:, :2] += rng.normal(0.0, 1e-3, (40, 2))
        far = x1[:5] @ R.T
        x2[:5] = far / far[:, 2:]
        x2[5:10, :2] = rng.uniform(-0.5, 0.5, (5, 2))
        cam1 = Camera(CameraIntrinsics(1, 1, 0, 0), RelativePose.identity())
        twisted = rotation_from_axis_angle(t, np.pi) @ R
        loop_votes, rejected = [], 0
        for Rc, tc in ((R, t), (R, -t), (twisted, t), (twisted, -t)):
            cam2 = Camera(CameraIntrinsics(1, 1, 0, 0), RelativePose(Rc, tc))
            votes = 0
            for a, b in zip(x1, x2):
                try:
                    X = triangulate(cam1, cam2, a, b)
                except errors.DegenerateConfiguration:
                    rejected += 1
                    continue
                votes += bool(X[2] > 0 and (Rc @ X + tc)[2] > 0)
            assert _cheirality_votes(Rc, tc, x1, x2) == votes
            loop_votes.append(votes)
        assert rejected > 0
        assert int(np.argmax(loop_votes)) == 0
        rec = decompose_essential(essential_from_pose(RelativePose(R, t)), x1, x2)
        assert small_rotation_angle_rad(rec.R.T @ R) < 1e-8
        assert np.allclose(rec.t, t, atol=1e-8)

    def test_essential_invariants(self, rng):
        pose = random_camera_pair(rng)[2]
        E = essential_from_pose(pose)
        s = np.linalg.svd(E, compute_uv=False)
        assert s[2] < 1e-6 * s[0]
        assert abs(s[0] - s[1]) < 1e-6 * s[0]


class TestFundamentalEssentialConversion:
    def test_round_trip_matches_pose_essential(self, rng):
        cam1, cam2, pose = random_camera_pair(rng)
        F = fundamental_from_pose(cam1.intrinsics, cam2.intrinsics, pose)
        E = fundamental_to_essential(F, cam1.intrinsics, cam2.intrinsics)
        E_direct = essential_from_pose(pose)
        scale = np.linalg.norm(E) / np.linalg.norm(E_direct)
        assert np.allclose(np.abs(E), np.abs(E_direct) * scale, atol=1e-9)


class TestPoseFile:
    def test_round_trip(self, tmp_path, rng):
        cams = []
        for i in range(4):
            cam1, cam2, _ = random_camera_pair(rng)
            cams.append((f"cam{i}", cam2))
        path = tmp_path / "poses.txt"
        write_pose_file(path, cams)
        loaded = read_pose_file(path)
        assert [cid for cid, _ in loaded] == [cid for cid, _ in cams]
        for (_, a), (_, b) in zip(cams, loaded):
            assert np.allclose(a.pose.R, b.pose.R, atol=1e-12)
            assert np.allclose(a.pose.t, b.pose.t, atol=1e-12)
            assert a.intrinsics == b.intrinsics

    GOOD_LINE = "cam0 500 500 320 240 1 0 0 0 0 0 0\n"

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text(self.GOOD_LINE + "# comment\ncam1 1 2 3\n")
        with pytest.raises(ValueError, match=r"poses.txt:3: expected 12 fields"):
            read_pose_file(path)

    def test_field_not_a_number_names_its_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text(self.GOOD_LINE + "cam1 500 500 320 240 1 0 zero 0 0 0 0\n")
        with pytest.raises(ValueError, match=r"poses.txt:2: could not convert"):
            read_pose_file(path)

    def test_bad_intrinsics_name_their_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("\n" + self.GOOD_LINE.replace("500 500", "-500 500"))
        with pytest.raises(ValueError, match=r"poses.txt:2: focal lengths must be positive"):
            read_pose_file(path)

    @pytest.mark.parametrize("line", ["cam1 500 500 320 240 1 0 0 0 nan 0 0", "cam1 inf 500 320 240 1 0 0 0 0 0 0"],
                             ids=["nan_translation", "inf_focal_length"])
    def test_non_finite_field_names_its_line(self, tmp_path, line):
        path = tmp_path / "poses.txt"
        path.write_text(self.GOOD_LINE + line + "\n")
        with pytest.raises(ValueError, match=r"poses.txt:2: non-finite value in pose line"):
            read_pose_file(path)

    def test_zero_quaternion_names_its_line(self, tmp_path):
        # normalizing it would divide by zero and give an all-NaN rotation
        path = tmp_path / "poses.txt"
        path.write_text("cam0 500 500 320 240 0 0 0 0 0 0 0\n")
        with pytest.raises(ValueError, match=r"poses.txt:1: quaternion of zero norm"):
            read_pose_file(path)
