import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimatch import errors, geometry
from epimatch.estimation import RansacConfig, estimate_relative_pose
from epimatch.geometry import (
    Camera,
    CameraIntrinsics,
    RelativePose,
    _cheirality_votes,
    canonicalize,
    cross_matrix,
    decompose_essential,
    essential_from_pose,
    fundamental_from_pose,
    fundamental_to_essential,
    normalize_points,
    pixel_rays,
    project_in_image,
    project_points,
    read_pose_file,
    rotation_from_axis_angle,
    symmetric_epipolar_distance_sq,
)
from epimatch.losses import d_epi

from conftest import (project_hom, random_camera_pair, random_intrinsics, random_pose, reference_project_points,
                      visible_points, with_w, write_pose_file)

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def dlt_triangulate(P1, P2, x1n, x2n):
    """Reference linear (DLT) triangulation under the (3, 4) projections P1,
    P2 of (N, 3) point rows with w = 1: (N, 3) points and an (N,) mask that
    is False where the system is rank-deficient or the point lies at
    infinity."""
    A = np.stack([x1n[:, :1] * P1[2] - P1[0], x1n[:, 1:2] * P1[2] - P1[1],
                  x2n[:, :1] * P2[2] - P2[0], x2n[:, 1:2] * P2[2] - P2[1]], axis=1)
    _, s, Vt = np.linalg.svd(A)
    X = Vt[:, -1]
    norm = np.sqrt(X[:, None, :] @ X[:, :, None])[:, 0, 0]
    ok = ~(s[:, -2] < 1e-12 * s[:, 0]) & ~(np.abs(X[:, 3]) < 1e-12 * norm)
    return X[:, :3] / np.where(ok, X[:, 3], 1.0)[:, None], ok


def dlt_votes(R, t, x1n, x2n):
    """The reference for `_cheirality_votes`: the (R, t) and (R, -t) counts
    of DLT points in front of both cameras; the points for -t are the
    negated points for t."""
    X, ok = dlt_triangulate(np.eye(3, 4), np.column_stack([R, t]), x1n, x2n)
    z1, z2 = X[:, 2], X @ R[2] + t[2]
    return (int(np.count_nonzero(ok & (z1 > 0) & (z2 > 0))),
            int(np.count_nonzero(ok & (z1 < 0) & (z2 < 0))))


class TestCameraIntrinsics:
    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_field_is_refused_by_name(self, field, bad):
        values = dict(fx=500.0, fy=480.0, cx=320.0, cy=240.0)
        with pytest.raises(ValueError, match=f"intrinsics {field} must be finite"):
            CameraIntrinsics(**{**values, field: bad})
        CameraIntrinsics(**values)


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


class TestCanonicalize:
    """The form every F takes: unit Frobenius norm, largest-magnitude entry
    positive, so one epipolar geometry has one array."""

    def test_unit_norm_and_positive_peak(self, rng):
        for M in rng.normal(size=(20, 3, 3)):
            C = canonicalize(M)
            assert abs(np.linalg.norm(C) - 1.0) < 1e-15
            assert C.flat[np.argmax(np.abs(C))] > 0
            sign = np.sign(M.flat[np.argmax(np.abs(M))])
            assert np.allclose(C, sign * M / np.linalg.norm(M), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scale", [1e-6, 0.3, -1.0, -7.0, 1e6])
    def test_invariant_to_scale_and_sign(self, rng, scale):
        M = rng.normal(size=(3, 3))
        assert np.allclose(canonicalize(scale * M), canonicalize(M), rtol=0, atol=1e-15)

    def test_idempotent(self, rng):
        C = canonicalize(rng.normal(size=(3, 3)))
        assert np.max(np.abs(canonicalize(C) - C)) <= 1e-15

    def test_batched_equals_per_matrix(self, rng):
        Ms = rng.normal(size=(2, 4, 3, 3))
        batch = canonicalize(Ms)
        assert batch.shape == Ms.shape
        for idx in np.ndindex(2, 4):
            assert np.array_equal(batch[idx], canonicalize(Ms[idx]))

    def test_zero_matrix_raises(self, rng):
        with pytest.raises(errors.DegenerateConfiguration):
            canonicalize(np.zeros((3, 3)))
        Ms = rng.normal(size=(3, 3, 3))
        Ms[1] = 0.0
        with pytest.raises(errors.DegenerateConfiguration):
            canonicalize(Ms)


class TestFundamentalFromPose:
    def test_sideways_identity(self):
        K = CameraIntrinsics(1, 1, 0, 0)
        F = fundamental_from_pose(K, K, RelativePose(np.eye(3), [1, 0, 0]))
        expected = cross_matrix([1, 0, 0])
        # proportional up to the canonical scale
        scale = np.linalg.norm(F) / np.linalg.norm(expected)
        assert np.allclose(np.abs(F), np.abs(expected) * scale, atol=1e-15)

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
            assert np.max(symmetric_epipolar_distance_sq(F, x1, x2)) < 1e-18

    def test_rank_two_invariant(self, rng):
        for _ in range(20):
            cam1, cam2, pose = random_camera_pair(rng)
            F = fundamental_from_pose(cam1.intrinsics, cam2.intrinsics, pose)
            assert abs(np.linalg.det(F)) < 1e-9
            assert abs(np.linalg.norm(F) - 1.0) < 1e-12


class TestEpipolarLine:
    """The line F x1, as losses.d_epi and the symmetric distance use it."""

    def test_sideways_line(self):
        # F x1 is the line v = 0: the distance is |v| and its gradient (0, +-1)
        F = cross_matrix([1, 0, 0])
        for u, v in ((0.3, 0.5), (-2.0, -1.25), (7.0, 0.0)):
            d, g = d_epi(F, [[0, 0]], [[u, v]])
            assert d[0] == abs(v)
            assert g[0, 0] == 0 and abs(g[0, 1]) == (v != 0)

    def test_epipole_query(self):
        # epipole: F e = 0, so the epipolar line of the pixel e vanishes
        F = cross_matrix([2, 3, 1])
        with pytest.raises(errors.DegenerateLine):
            d_epi(F, [[2, 3]], [[0.3, 0.5]])
        assert symmetric_epipolar_distance_sq(F, with_w([[2, 3]]), with_w([[0.3, 0.5]]))[0] == np.inf

    def test_points_on_line_have_zero_residual(self, rng):
        for _ in range(10):
            cam1, cam2, pose = random_camera_pair(rng)
            F = fundamental_from_pose(cam1.intrinsics, cam2.intrinsics, pose)
            x1 = rng.uniform(0, [600, 400])
            # parametrize the line: pick two points on it
            a, b, c = F @ [*x1, 1.0]
            if abs(b) > abs(a):
                x2s = [[u, -(a * u + c) / b] for u in (0.0, 123.4)]
            else:
                x2s = [[-(b * v + c) / a, v] for v in (0.0, 77.7)]
            assert np.all(d_epi(F, [x1, x1], x2s)[0] < 1e-9)


class TestEpipolarResidual:
    """The residual r = x2^T F x1 inside the symmetric distance."""

    def test_hand_value(self):
        # r = -0.5 and both line normals are unit: r^2 * (1 + 1)
        F = cross_matrix([1, 0, 0])
        assert symmetric_epipolar_distance_sq(F, with_w([[0, 0]]), with_w([[0.3, 0.5]]))[0] == 0.5

    def test_transpose_identity(self, rng):
        F = rng.normal(size=(4, 3, 3))
        x1 = np.column_stack([rng.normal(size=(6, 2)), np.ones(6)])
        x2 = np.column_stack([rng.normal(size=(6, 2)), np.ones(6)])
        assert np.allclose(symmetric_epipolar_distance_sq(F, x1, x2),
                           symmetric_epipolar_distance_sq(F.swapaxes(1, 2), x2, x1), rtol=1e-12)

    def test_exact_correspondence(self, rng):
        # a leading axis scores each matrix alone: only the true F gives 0
        cams = [random_camera_pair(rng) for _ in range(3)]
        Fs = np.stack([fundamental_from_pose(c1.intrinsics, c2.intrinsics, pose) for c1, c2, pose in cams])
        cam1, cam2, _ = cams[0]
        pts = visible_points(rng, cam1, cam2, 5)
        d = symmetric_epipolar_distance_sq(Fs, project_hom(cam1, pts), project_hom(cam2, pts))
        assert d.shape == (3, 5)
        assert np.max(d[0]) < 1e-18 and np.min(d[1:]) > 1e-6


class TestPointLineDistance:
    """Perpendicular pixel distance to the epipolar line, losses.d_epi."""

    def test_distance_to_v_axis(self):
        # F (0, 0, 1) is the line (0, -1, 0)
        F = cross_matrix([1, 0, 0])
        assert d_epi(F, [[0, 0]], [[0.3, 0.5]])[0][0] == pytest.approx(0.5)

    def test_point_on_line(self):
        # the line u + v - 1 = 0 is F x1 for this F
        F = np.array([[0.0, 0, 1], [0, 0, 1], [0, 0, -1]])
        assert d_epi(F, [[0, 0]], [[0.5, 0.5]])[0][0] == pytest.approx(0.0)

    def test_scale_invariance(self, rng):
        F = rng.normal(size=(3, 3))
        x1, x2 = [[0.3, -0.4]], [[1.2, 3.4]]
        d = d_epi(F, x1, x2)[0]
        assert d_epi(7 * F, x1, x2)[0] == pytest.approx(d)

    def test_degenerate_line(self):
        F = np.array([[0.0, 0, 0], [0, 0, 0], [0, 0, 1]])
        with pytest.raises(errors.DegenerateLine):
            d_epi(F, [[0, 0]], [[1, 1]])


class TestSymmetricEpipolarDistance:
    def test_exact_correspondence_zero(self, rng):
        cam1, cam2, pose = random_camera_pair(rng)
        F = fundamental_from_pose(cam1.intrinsics, cam2.intrinsics, pose)
        pts = visible_points(rng, cam1, cam2, 10)
        x1 = project_hom(cam1, pts)
        x2 = project_hom(cam2, pts)
        assert np.max(symmetric_epipolar_distance_sq(F, x1, x2)) < 1e-18

    def test_worked_instance(self):
        # oracle: sum of the two squared point-line distances
        F = cross_matrix([1, 0, 0])
        x1, x2 = np.array([[0.0, 0.0]]), np.array([[0.3, 0.5]])
        d2a = d_epi(F, x1, x2)[0][0] ** 2
        d2b = d_epi(F.T, x2, x1)[0][0] ** 2
        expected = d2a + d2b
        assert expected == pytest.approx(0.5)
        assert symmetric_epipolar_distance_sq(F, with_w(x1), with_w(x2))[0] == pytest.approx(expected)

    def test_symmetry(self, rng):
        F = rng.normal(size=(3, 3))
        x1, x2 = (with_w(p) for p in rng.uniform(-2, 2, size=(2, 1, 2)))
        assert symmetric_epipolar_distance_sq(F, x1, x2) == pytest.approx(
            symmetric_epipolar_distance_sq(F.T, x2, x1)
        )

    def test_invariant_to_f_rescaling(self, rng):
        F = rng.normal(size=(3, 3))
        x1, x2 = (with_w(p) for p in rng.uniform(-2, 2, size=(2, 1, 2)))
        assert symmetric_epipolar_distance_sq(F, x1, x2) == pytest.approx(
            symmetric_epipolar_distance_sq(17.3 * F, x1, x2)
        )

    def test_same_bits_however_scored(self, rng):
        # RANSAC's early-out scores hypotheses as stacks and matches as
        # slices, and relies on each distance not depending on either
        n, H = 37, 6
        F = rng.normal(size=(H, 3, 3))
        x1, x2 = (with_w(p) for p in rng.uniform(-2, 2, size=(2, n, 2)))
        whole = symmetric_epipolar_distance_sq(F, x1, x2)
        for h in range(H):
            assert symmetric_epipolar_distance_sq(F[h:h + 1], x1, x2)[0].tobytes() == whole[h].tobytes()
            assert symmetric_epipolar_distance_sq(F[h], x1, x2).tobytes() == whole[h].tobytes()
        for k in range(n + 1):
            split = [symmetric_epipolar_distance_sq(F, x1[rows], x2[rows])
                     for rows in (slice(0, k), slice(k, n))]
            assert np.concatenate(split, axis=1).tobytes() == whole.tobytes()
        for i in range(n):
            row = slice(i, i + 1)
            assert symmetric_epipolar_distance_sq(F, x1[row], x2[row])[:, 0].tobytes() == whole[:, i].tobytes()
            assert symmetric_epipolar_distance_sq(F[0], x1[row], x2[row]).tobytes() == whole[0, row].tobytes()


class TestNormalizePoint:
    def test_identity_intrinsics(self):
        K = CameraIntrinsics(1, 1, 0, 0)
        assert np.array_equal(normalize_points(K, [[0.3, -0.7]]), [[0.3, -0.7, 1.0]])

    def test_principal_point_maps_to_origin(self):
        K = CameraIntrinsics(500, 480, 320, 240)
        assert np.allclose(normalize_points(K, [[320, 240]]), [[0.0, 0.0, 1.0]])

    def test_round_trip(self, rng):
        K = CameraIntrinsics(500, 480, 320, 240)
        pts = np.column_stack([rng.uniform(0, 640, 5), rng.uniform(0, 480, 5)])
        back = normalize_points(K, pts) @ K.matrix().T
        assert np.allclose(back[:, :2], pts, atol=1e-12) and np.all(back[:, 2] == 1.0)

    def test_batched_matches_scalar(self, rng):
        # oracle: K^-1 applied to one (u, v, 1) point at a time
        K = CameraIntrinsics(512, 500, 320, 240)
        pts = rng.uniform(0, 500, size=(7, 2))
        batch = normalize_points(K, pts)
        for i, p in enumerate(pts):
            assert np.allclose(batch[i], K.inverse() @ [*p, 1.0])


class TestProjectTriangulate:
    def test_axis_point(self):
        cam = Camera(CameraIntrinsics(1, 1, 0, 0), RelativePose.identity())
        pix, depth = project_points(cam, [[0, 0, 5]])
        assert np.allclose(pix, [[0, 0]])
        assert depth == pytest.approx([5.0])

    def test_visibility_rule_edges(self):
        # identity pose and unit focal length: the point (x, y, z) lands on
        # pixel (x / z, y / z) with no rounding
        cam = Camera(CameraIntrinsics(1, 1, 0, 0), RelativePose.identity())
        W, H = 4, 3
        cases = [
            ((-1e-6, 1.0, 1.0), True), ((-2e-6, 1.0, 1.0), False),  # 1e-6 px of border slack
            ((1.0, -1e-6, 1.0), True), ((1.0, -2e-6, 1.0), False),
            ((W - 1 + 1e-6, H - 1 + 1e-6, 1.0), True),
            ((W - 1 + 2e-6, 1.0, 1.0), False), ((1.0, H - 1 + 2e-6, 1.0), False),
            ((0.0, 0.0, 1e-3), True), ((0.0, 0.0, 1e-9), False),  # the depth floor
            ((np.nan, 1.0, 1.0), False), ((1.0, np.nan, 1.0), False),
        ]
        X = np.array([x for x, _ in cases])
        pix, z, seen = project_in_image(cam, X, (W, H))
        assert seen.tolist() == [want for _, want in cases]
        ref_pix, ref_z = project_points(cam, X)
        assert pix.tobytes() == ref_pix.tobytes() and z.tobytes() == ref_z.tobytes()

    def test_triangulation_round_trip(self, rng):
        for _ in range(5):
            cam1, cam2, _ = random_camera_pair(rng)
            X = visible_points(rng, cam1, cam2, 4)
            x1n = normalize_points(cam1.intrinsics, project_points(cam1, X)[0])
            x2n = normalize_points(cam2.intrinsics, project_points(cam2, X)[0])
            P1, P2 = (np.column_stack([c.pose.R, c.pose.t]) for c in (cam1, cam2))
            X_rec, ok = dlt_triangulate(P1, P2, x1n, x2n)
            assert ok.all() and np.allclose(X_rec, X, atol=1e-8)

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


def awkward_points(rng, pose, n):
    """(n, 3) world points whose camera-frame points under `pose` lie in front
    of the camera, behind it, on its plane z = 0 (up to the rounding of the
    way back) or about 1e6 m away."""
    xc = rng.uniform(-1.0, 1.0, (n, 3)) * rng.choice([1.0, 50.0, 1e6], (n, 1))
    xc[rng.random(n) < 0.2, 2] = 0.0
    return (xc - pose.t) @ pose.R  # R.T @ (xc - t) for each row


class TestProjectMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), on_plane=st.booleans())
    def test_byte_identical(self, seed, n, on_plane):
        rng = np.random.default_rng(seed)
        pose = random_pose(rng, max_angle_deg=180.0, baseline=(0.0, 5.0))
        if on_plane:
            # with t = (t_x, 0, 0) the world origin lands exactly on the camera
            # plane, camera-frame (t_x, 0, 0): an infinite u and a nan v
            pose = RelativePose(pose.R, [pose.t[0], 0.0, 0.0])
        cam = Camera(random_intrinsics(rng), pose)
        X = awkward_points(rng, pose, n)
        if on_plane:
            X[:2] = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]]
        pix, z = project_points(cam, X)
        ref_pix, ref_z = reference_project_points(cam, X)
        assert pix.shape == (n, 2) and z.shape == (n,)
        assert pix.tobytes() == ref_pix.tobytes()
        assert z.tobytes() == ref_z.tobytes()
        if on_plane:
            assert np.isinf(pix[0, 0]) and np.isnan(pix[0, 1]) and z[0] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_single_point_within_an_ulp_of_its_terms(self, seed):
        # at N = 1 numpy computes X @ R[k] as a dot product, whose chain of
        # fused multiply-adds starts from another term than the stacked
        # matmul's, so the last bit can differ. Where the terms cancel, that
        # is many ulps of the result, but it stays within one ulp of
        # |R[k]| @ |X|, the largest magnitude a partial sum can reach. With
        # the camera at the origin the depth is the bare sum, and rolling the
        # rows of R puts each row in turn into the depth.
        rng = np.random.default_rng(seed)
        R = random_pose(rng, max_angle_deg=180.0).R
        X = rng.normal(size=(1, 3)) * 10.0 ** rng.uniform(-2.0, 6.0)
        for k in range(3):
            cam = Camera(random_intrinsics(rng), RelativePose(np.roll(R, 2 - k, axis=0), np.zeros(3)))
            _, z = project_points(cam, X)
            _, ref_z = reference_project_points(cam, X)
            assert abs(z[0] - ref_z[0]) <= np.spacing(np.abs(R[k]) @ np.abs(X[0]))


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

    def _posed_tracks(self, rng, n):
        """(R, twisted, t, x1, x2): a 15 degree rotation R, E = [t]x R's
        other rotation (the twisted pair), a unit t and n exact tracks."""
        R = rotation_from_axis_angle(rng.normal(size=3), np.radians(15.0))
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        x1, x2 = self._normalized_tracks(rng, RelativePose(R, t), n)
        return R, rotation_from_axis_angle(t, np.pi) @ R, t, x1, x2

    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_votes_equal_dlt_on_inlier_tracks(self, rng, noise):
        for _ in range(5):
            R, twisted, t, x1, x2 = self._posed_tracks(rng, 40)
            x2[:, :2] += rng.normal(0.0, noise, (40, 2))
            for Rc in (R, twisted):
                assert _cheirality_votes(Rc, t, x1, x2) == dlt_votes(Rc, t, x1, x2)
            assert _cheirality_votes(R, t, x1, x2)[0] == 40

    def test_votes_match_per_row_depths(self, rng):
        # far points and outliers against a loop of the closed-form depths
        # one row at a time; the far rows are parallel rays and vote for none
        R, twisted, t, x1, x2 = self._posed_tracks(rng, 40)
        x2[:, :2] += rng.normal(0.0, 1e-3, (40, 2))
        far = x1[:5] @ R.T
        x2[:5] = far / far[:, 2:]
        x2[5:10, :2] = rng.uniform(-0.5, 0.5, (5, 2))
        votes, reference, parallel = [], [], 0
        for Rc in (R, twisted):
            loop = [0, 0]
            for a, b in zip(x1 @ Rc.T, x2):
                c = np.cross(a, b)
                if c @ c <= 1e-24 * (a @ a) * (b @ b):
                    parallel += 1
                    continue
                s1 = (a @ b) * (b @ t) - (a @ t) * (b @ b)
                s2 = (a @ a) * (b @ t) - (a @ b) * (a @ t)
                loop[0] += bool(s1 > 0 and s2 > 0)
                loop[1] += bool(s1 < 0 and s2 < 0)
            assert _cheirality_votes(Rc, t, x1, x2) == tuple(loop)
            votes += loop
            reference += dlt_votes(Rc, t, x1, x2)
        assert parallel == 5
        assert int(np.argmax(votes)) == int(np.argmax(reference)) == 0
        rec = decompose_essential(essential_from_pose(RelativePose(R, t)), x1, x2)
        assert small_rotation_angle_rad(rec.R.T @ R) < 1e-8
        assert np.allclose(rec.t, t, atol=1e-8)

    def test_solves_depths_once_per_rotation(self, rng, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _cheirality_votes(*args)

        monkeypatch.setattr(geometry, "_cheirality_votes", counting)
        pose = random_camera_pair(rng)[2]
        x1, x2 = self._normalized_tracks(rng, pose, 20)
        rec = decompose_essential(essential_from_pose(pose), x1, x2)
        assert small_rotation_angle_rad(rec.R.T @ pose.R) < 1e-8
        assert len(calls) == 2
        # the solve for t counts the candidate -t too: its depths flip sign
        for R, t, _, _ in calls:
            assert _cheirality_votes(R, -t, x1, x2) == _cheirality_votes(R, t, x1, x2)[::-1]

    def test_tracks_at_infinity_tie(self, rng):
        # x2 ~ R x1: every ray pair under R is parallel, and under the twisted
        # rotation the depths take opposite signs, so no candidate gets a vote
        R, twisted, t, x1, _ = self._posed_tracks(rng, 30)
        far = x1 @ R.T
        x2 = far / far[:, 2:]
        for Rc in (R, twisted):
            assert _cheirality_votes(Rc, t, x1, x2) == (0, 0)
        with pytest.raises(errors.AmbiguousCheirality, match="tie at 0 votes"):
            decompose_essential(essential_from_pose(RelativePose(R, t)), x1, x2)

    @pytest.mark.parametrize("gap, votes", [(1e-11, (1, 0)), (-1e-11, (0, 1)), (1e-13, (0, 0))])
    def test_parallel_ray_cutoff(self, gap, votes):
        # rays along z and (gap, 0, 1) meet at depth 1 / gap under t = x:
        # sin^2 of their angle is gap^2, so 1e-22 votes and 1e-26 does not
        x1, x2 = np.array([[0.0, 0.0, 1.0]]), np.array([[gap, 0.0, 1.0]])
        assert _cheirality_votes(np.eye(3), np.array([1.0, 0.0, 0.0]), x1, x2) == votes

    def test_no_rows_is_degenerate(self):
        E = essential_from_pose(RelativePose(np.eye(3), [1.0, 0, 0]))
        with pytest.raises(errors.DegenerateConfiguration):
            decompose_essential(E, np.empty((0, 3)), np.empty((0, 3)))

    @pytest.mark.parametrize("shape1, shape2", [((5, 2), (5, 2)), ((5, 3), (4, 3)), ((3,), (3,)),
                                                ((5, 3), (5, 2)), ((5, 3, 1), (5, 3, 1))])
    def test_track_shapes_are_checked_by_name(self, shape1, shape2):
        E = essential_from_pose(RelativePose(np.eye(3), [1.0, 0, 0]))
        want = re.escape(f"x1n and x2n must both be (N, 3) with the same N, got {shape1} and {shape2}")
        with pytest.raises(ValueError, match=want):
            decompose_essential(E, np.ones(shape1), np.ones(shape2))

    def test_pose_equals_dlt_vote_on_contaminated_matches(self, rng, monkeypatch):
        # RANSAC's consensus set keeps a few outliers near their epipolar
        # lines; the pose stays byte-equal under the reference vote
        cam1, cam2, _ = random_camera_pair(rng)
        X = visible_points(rng, cam1, cam2, 80)
        pts1 = project_points(cam1, X)[0] + rng.normal(0.0, 0.5, (80, 2))
        pts2 = project_points(cam2, X)[0] + rng.normal(0.0, 0.5, (80, 2))
        pts2[:20] = rng.uniform(0.0, 480.0, (20, 2))
        cfg = RansacConfig(iterations=200, inlier_threshold=1e-3, seed=7)
        est, res = estimate_relative_pose(pts1, pts2, cam1.intrinsics, cam2.intrinsics, cfg)
        assert res.inlier_mask[:20].any()
        monkeypatch.setattr(geometry, "_cheirality_votes", dlt_votes)
        ref, _ = estimate_relative_pose(pts1, pts2, cam1.intrinsics, cam2.intrinsics, cfg)
        assert est.R.tobytes() == ref.R.tobytes() and est.t.tobytes() == ref.t.tobytes()

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
