import numpy as np
import pytest

from epimatch import errors
from epimatch.estimation import (
    _SCORE_BLOCK,
    _draw_samples,
    _eight_point_batch,
    _hartley_transform,
    MIN_SAMPLE,
    RansacConfig,
    RansacResult,
    eight_point,
    estimate_relative_pose,
    ransac_fundamental,
    read_match_file,
    write_match_file,
)
from epimatch.geometry import (
    Camera,
    CameraIntrinsics,
    FundamentalMatrix,
    RelativePose,
    _canonicalize,
    fundamental_from_pose,
    fundamental_to_essential,
    normalize_points,
    rotation_from_axis_angle,
    symmetric_epipolar_distance_sq,
)
from epimatch.metrics import rotation_error, translation_error

from conftest import project_hom, random_camera_pair, visible_points


def pixel_matches(rng, n, cam1=None, cam2=None, pose=None):
    """Exact pixel correspondences from a random camera pair."""
    if cam1 is None:
        cam1, cam2, pose = random_camera_pair(rng)
    pts = visible_points(rng, cam1, cam2, n)
    x1 = project_hom(cam1, pts)[:, :2]
    x2 = project_hom(cam2, pts)[:, :2]
    return x1, x2, cam1, cam2, pose


class TestEightPoint:
    def test_recovers_ground_truth(self, rng):
        # 20 points take the least-squares SVD solve, 8 the minimal QR solve
        for n in (20, MIN_SAMPLE):
            for _ in range(5):
                x1, x2, cam1, cam2, pose = pixel_matches(rng, n)
                F_true = fundamental_from_pose(cam1.intrinsics, cam2.intrinsics, pose)
                F = eight_point(x1, x2)
                assert np.max(np.abs(F.m - F_true.m)) < 1e-8

    def test_planar_scene_sideways_motion(self, rng):
        # 8 points on one scene plane, pure sideways baseline
        cam1 = Camera(CameraIntrinsics(500, 500, 320, 240), RelativePose.identity())
        cam2 = Camera(CameraIntrinsics(500, 500, 320, 240), RelativePose(np.eye(3), [0.5, 0, 0]))
        pts = np.column_stack(
            [rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8), np.full(8, 5.0)]
        )
        x1 = project_hom(cam1, pts)
        x2 = project_hom(cam2, pts)
        F = eight_point(x1[:, :2], x2[:, :2])
        assert np.max(symmetric_epipolar_distance_sq(F.m, x1, x2)) < 1e-16

    def test_too_few_matches(self, rng):
        x1, x2, *_ = pixel_matches(rng, 7)
        with pytest.raises(errors.NotEnoughMatches):
            eight_point(x1, x2)

    def test_coincident_points_degenerate(self):
        pts = np.tile([[10.0, 20.0]], (8, 1))
        with pytest.raises(errors.DegenerateConfiguration):
            eight_point(pts, pts + 1.0)

    def test_minimal_qr_solve_matches_svd_reference(self):
        rng = np.random.default_rng(17)
        pts1 = rng.uniform(0, 640, (2000, MIN_SAMPLE, 2))
        pts2 = rng.uniform(0, 640, (2000, MIN_SAMPLE, 2))
        # every tenth sample collapses to one point in the first image
        pts1[::10] = pts1[::10, :1]
        F, ok = _eight_point_batch(pts1, pts2)
        F_ref, ok_ref = svd_eight_point_reference(pts1, pts2)
        assert np.array_equal(ok, ok_ref)
        assert 0 < ok.sum() < ok.size
        assert np.max(np.abs(F[ok] - F_ref[ok])) < 1e-10


def svd_eight_point_reference(pts1, pts2):
    """The minimal solve before QR: the null vector of each 8x9 system is
    the last row of its full SVD's V^T; rank-2 projection as in the module."""
    q1, T1, ok1 = _hartley_transform(pts1)
    q2, T2, ok2 = _hartley_transform(pts2)
    h1 = np.concatenate([q1, np.ones(q1.shape[:2] + (1,))], axis=2)
    h2 = np.concatenate([q2, np.ones(q2.shape[:2] + (1,))], axis=2)
    A = (h2[:, :, :, None] * h1[:, :, None, :]).reshape(len(pts1), -1, 9)
    f = np.linalg.svd(A, full_matrices=True)[2][:, -1]
    U, s, Vt = np.linalg.svd(f.reshape(-1, 3, 3))
    ok = ok1 & ok2 & ~(s[:, 1] < 1e-10 * s[:, 0])
    s[:, 2] = 0.0
    F = T2.transpose(0, 2, 1) @ (U * s[:, None, :]) @ Vt @ T1
    return _canonicalize(F), ok


class TestDrawSamples:
    @pytest.mark.parametrize("n", [8, 9, 30, 209, 10**5])
    def test_rows_are_distinct_indices(self, n):
        idx = _draw_samples(np.random.default_rng(3), n, 500)
        assert idx.shape == (500, MIN_SAMPLE)
        assert idx.min() >= 0 and idx.max() < n
        assert np.all(np.diff(np.sort(idx, axis=1), axis=1) > 0)
        if n == MIN_SAMPLE:
            assert np.all(np.sort(idx, axis=1) == np.arange(MIN_SAMPLE))
        assert np.array_equal(idx, _draw_samples(np.random.default_rng(3), n, 500))

    def test_every_index_equally_likely(self):
        n, rows = 20, 200_000
        idx = _draw_samples(np.random.default_rng(11), n, rows)
        share = np.bincount(idx.ravel(), minlength=n) / (rows * MIN_SAMPLE / n)
        assert np.all(np.abs(share - 1.0) < 0.02)


def contaminated_matches(rng, n_in=100, n_out=50, reject_band=5e-3):
    """Exact inliers plus uniform outliers that are genuinely off-epipolar.

    Outliers accidentally landing within `reject_band` (squared symmetric
    distance, normalized units) of the ground-truth geometry are resampled so
    the true inlier set is unambiguous.
    """
    x1, x2, cam1, cam2, pose = pixel_matches(rng, n_in)
    F_true = fundamental_from_pose(cam1.intrinsics, cam2.intrinsics, pose)
    E_gt = fundamental_to_essential(F_true, cam1.intrinsics, cam2.intrinsics)
    o1, o2 = [], []
    while len(o1) < n_out:
        p1 = np.array([rng.uniform(0, 640), rng.uniform(0, 480)])
        p2 = np.array([rng.uniform(0, 640), rng.uniform(0, 480)])
        n1 = normalize_points(cam1.intrinsics, p1[None])[0]
        n2 = normalize_points(cam2.intrinsics, p2[None])[0]
        if symmetric_epipolar_distance_sq(E_gt, n1, n2) > reject_band:
            o1.append(p1)
            o2.append(p2)
    pts1 = np.vstack([x1, np.array(o1)])
    pts2 = np.vstack([x2, np.array(o2)])
    gt_mask = np.zeros(n_in + n_out, dtype=bool)
    gt_mask[:n_in] = True
    return pts1, pts2, gt_mask, cam1, cam2, pose


class TestRansac:
    def test_identifies_exact_inlier_set(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            pts1, pts2, gt_mask, cam1, cam2, pose = contaminated_matches(rng)
            cfg = RansacConfig(iterations=500, inlier_threshold=1e-6, seed=seed)
            res = ransac_fundamental(pts1, pts2, cam1.intrinsics, cam2.intrinsics, cfg)
            assert np.array_equal(res.inlier_mask, gt_mask)
            F_true = fundamental_from_pose(cam1.intrinsics, cam2.intrinsics, pose)
            assert np.max(np.abs(res.F.m - F_true.m)) < 1e-6

    def test_all_outliers_flagged_no_consensus(self):
        flagged = 0
        for seed in range(10):
            rng = np.random.default_rng(2000 + seed)
            pts1 = np.column_stack([rng.uniform(0, 640, 40), rng.uniform(0, 480, 40)])
            pts2 = np.column_stack([rng.uniform(0, 640, 40), rng.uniform(0, 480, 40)])
            K = CameraIntrinsics(500, 500, 320, 240)
            cfg = RansacConfig(iterations=100, inlier_threshold=1e-8, seed=seed)
            res = ransac_fundamental(pts1, pts2, K, K, cfg)
            if res.no_consensus:
                flagged += 1
        assert flagged == 10

    def test_deterministic(self, rng):
        pts1, pts2, _, cam1, cam2, _ = contaminated_matches(rng)
        cfg = RansacConfig(iterations=200, inlier_threshold=1e-6, seed=7)
        a = ransac_fundamental(pts1, pts2, cam1.intrinsics, cam2.intrinsics, cfg)
        b = ransac_fundamental(pts1, pts2, cam1.intrinsics, cam2.intrinsics, cfg)
        assert a.F.m.tobytes() == b.F.m.tobytes()
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        assert a.best_iteration == b.best_iteration

    def test_adding_inliers_never_hurts(self):
        for seed in range(5):
            rng = np.random.default_rng(3000 + seed)
            x1, x2, cam1, cam2, pose = pixel_matches(rng, 80)
            o1 = np.column_stack([rng.uniform(0, 640, 30), rng.uniform(0, 480, 30)])
            o2 = np.column_stack([rng.uniform(0, 640, 30), rng.uniform(0, 480, 30)])
            extra = visible_points(rng, cam1, cam2, 20)
            e1 = project_hom(cam1, extra)[:, :2]
            e2 = project_hom(cam2, extra)[:, :2]
            cfg = RansacConfig(iterations=300, inlier_threshold=1e-6, seed=seed)
            base = ransac_fundamental(
                np.vstack([x1, o1]), np.vstack([x2, o2]),
                cam1.intrinsics, cam2.intrinsics, cfg)
            more = ransac_fundamental(
                np.vstack([x1, e1, o1]), np.vstack([x2, e2, o2]),
                cam1.intrinsics, cam2.intrinsics, cfg)
            assert more.inlier_count >= base.inlier_count

    def test_refit_superset_statistics(self):
        hits = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(4000 + seed)
            pts1, pts2, _, cam1, cam2, _ = contaminated_matches(rng, n_in=60, n_out=30)
            cfg = RansacConfig(iterations=100, inlier_threshold=1e-6, seed=seed)
            res = ransac_fundamental(pts1, pts2, cam1.intrinsics, cam2.intrinsics, cfg)
            # replay the winning minimal hypothesis to get its inlier set
            samples = _draw_samples(np.random.default_rng(cfg.seed), pts1.shape[0], cfg.iterations)
            idx = samples[res.best_iteration]
            best_mask = score_one(
                eight_point(pts1[idx], pts2[idx]),
                normalize_points(cam1.intrinsics, pts1),
                normalize_points(cam2.intrinsics, pts2),
                cam1.intrinsics, cam2.intrinsics, cfg.inlier_threshold)
            if np.all(res.inlier_mask[best_mask]):
                hits += 1
        assert hits >= 95

    def test_too_few_matches(self):
        K = CameraIntrinsics(1, 1, 0, 0)
        with pytest.raises(errors.NotEnoughMatches):
            ransac_fundamental(np.zeros((5, 2)), np.zeros((5, 2)), K, K, RansacConfig())

    def test_exactly_minimal_sample(self, rng):
        # every draw holds all eight matches
        x1, x2, cam1, cam2, _ = pixel_matches(rng, MIN_SAMPLE)
        cfg = RansacConfig(iterations=500, inlier_threshold=1e-6)
        res = ransac_fundamental(x1, x2, cam1.intrinsics, cam2.intrinsics, cfg)
        assert res.inlier_count == MIN_SAMPLE and res.best_iteration == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_match_raises_value_error(self, rng, bad):
        pts1, pts2, _, cam1, cam2, _ = contaminated_matches(rng, n_in=40, n_out=10)
        pts2[17, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ransac_fundamental(pts1, pts2, cam1.intrinsics, cam2.intrinsics, RansacConfig())

    def test_inconsistent_result_raises(self):
        # checked by raising, so the check survives python -O
        F = FundamentalMatrix(np.eye(3))
        mask = np.array([True, False, True])
        with pytest.raises(ValueError):
            RansacResult(F, mask, inlier_count=1, num_input_matches=3)
        with pytest.raises(ValueError):
            RansacResult(F, mask, inlier_count=2, num_input_matches=1)
        assert RansacResult(F, mask, inlier_count=2, num_input_matches=3).inlier_count == 2


def score_one(F, x1n, x2n, K1, K2, threshold):
    """Scalar oracle for the batched scorer: one hypothesis, one row at a
    time in numpy, an undefined distance counting as an outlier."""
    En = K2.matrix().T @ F.m @ K1.matrix()
    l2 = x1n @ En.T
    l1 = x2n @ En
    d2 = l2[:, 0] ** 2 + l2[:, 1] ** 2
    d1 = l1[:, 0] ** 2 + l1[:, 1] ** 2
    r = np.einsum("ij,ij->i", x2n, l2)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = r * r * (1.0 / d2 + 1.0 / d1)
    return np.where(np.isfinite(dist), dist, np.inf) < threshold


def ransac_reference(pts1, pts2, K1, K2, cfg):
    """Reference loop: one eight_point and one scoring per iteration.

    Returns (F, inlier mask, best iteration, degenerate sample count).
    """
    x1n = normalize_points(K1, pts1)
    x2n = normalize_points(K2, pts2)
    samples = _draw_samples(np.random.default_rng(cfg.seed), len(pts1), cfg.iterations)
    best_count, best, degenerate = -1, None, 0
    for it, idx in enumerate(samples):
        try:
            F = eight_point(pts1[idx], pts2[idx])
        except errors.DegenerateConfiguration:
            degenerate += 1
            continue
        mask = score_one(F, x1n, x2n, K1, K2, cfg.inlier_threshold)
        if mask.sum() > best_count:
            best_count, best = int(mask.sum()), (F, mask, it)
    if best is None:
        raise errors.NoValidHypothesis("all iterations degenerate")
    F, mask, it = best
    if best_count >= MIN_SAMPLE:
        try:
            F = eight_point(pts1[mask], pts2[mask])
            mask = score_one(F, x1n, x2n, K1, K2, cfg.inlier_threshold)
        except errors.DegenerateConfiguration:
            pass
    return F, mask, it, degenerate


class TestBatchedRansac:
    """The stacked solve and blocked scoring against the reference loop."""

    def assert_same_as_reference(self, pts1, pts2, K1, K2, cfg):
        res = ransac_fundamental(pts1, pts2, K1, K2, cfg)
        F, mask, it, degenerate = ransac_reference(pts1, pts2, K1, K2, cfg)
        assert res.F.m.tobytes() == F.m.tobytes()
        assert res.inlier_mask.tobytes() == mask.tobytes()
        assert res.best_iteration == it
        return res, degenerate

    def test_contaminated_inputs_byte_equal(self):
        # exact inliers make every all-inlier sample tie for the most
        # inliers, so the first of them must win; noisy ones rarely tie
        for seed in range(6):
            rng = np.random.default_rng(6000 + seed)
            pts1, pts2, _, cam1, cam2, _ = contaminated_matches(rng, n_in=60, n_out=40)
            pts2 = pts2 + rng.normal(0.0, (0.0, 0.3)[seed % 2], pts2.shape)
            cfg = RansacConfig(iterations=200, inlier_threshold=1e-5, seed=seed)
            self.assert_same_as_reference(pts1, pts2, cam1.intrinsics, cam2.intrinsics, cfg)

    def test_duplicated_points_give_degenerate_samples(self):
        degenerate = 0
        for seed in range(4):
            rng = np.random.default_rng(6100 + seed)
            pts1, pts2, _, cam1, cam2, _ = contaminated_matches(rng, n_in=30, n_out=10)
            # 60 % of the matches repeat one point pair, so about 1 % of the
            # samples draw eight coincident points
            pts1 = np.vstack([pts1, np.repeat(pts1[:1], 60, axis=0)])
            pts2 = np.vstack([pts2, np.repeat(pts2[:1], 60, axis=0)])
            cfg = RansacConfig(iterations=300, inlier_threshold=1e-6, seed=seed)
            degenerate += self.assert_same_as_reference(
                pts1, pts2, cam1.intrinsics, cam2.intrinsics, cfg)[1]
        assert degenerate > 0

    def test_spans_several_scoring_blocks(self):
        cfg_its = 300
        n_in, n_out = 300, 150
        block = _SCORE_BLOCK // (n_in + n_out)
        assert cfg_its > 2 * block
        later_block_wins = 0
        for seed in range(3):
            rng = np.random.default_rng(6200 + seed)
            pts1, pts2, _, cam1, cam2, _ = contaminated_matches(rng, n_in=n_in, n_out=n_out)
            pts2 = pts2 + rng.normal(0.0, 0.5, pts2.shape)
            cfg = RansacConfig(iterations=cfg_its, inlier_threshold=1e-6, seed=seed)
            res, _ = self.assert_same_as_reference(pts1, pts2, cam1.intrinsics, cam2.intrinsics, cfg)
            later_block_wins += res.best_iteration >= block
        assert later_block_wins > 0

    def test_all_coincident_raises_no_valid_hypothesis(self):
        K = CameraIntrinsics(500, 500, 320, 240)
        pts1 = np.tile([[100.0, 200.0]], (30, 1))
        pts2 = np.tile([[150.0, 210.0]], (30, 1))
        with pytest.raises(errors.NoValidHypothesis):
            ransac_fundamental(pts1, pts2, K, K, RansacConfig(iterations=50))


class TestEstimateRelativePose:
    def test_exact_matches(self, rng):
        x1, x2, cam1, cam2, pose = pixel_matches(rng, 200)
        cfg = RansacConfig(iterations=100, inlier_threshold=1e-8, seed=0)
        est, res = estimate_relative_pose(x1, x2, cam1.intrinsics, cam2.intrinsics, cfg)
        assert np.radians(rotation_error(est.R, pose.R)) < 1e-6
        assert np.radians(translation_error(est.t, pose.t)) < 1e-6
        assert abs(np.linalg.norm(est.t) - 1.0) < 1e-12

    def test_noisy_matches_median_bound(self):
        # Monte-Carlo bound frozen from the pre-build oracle run:
        # 0.5 px Gaussian noise, f = 500, 200 matches, 20 seeds.
        rot_errs, trans_errs = [], []
        K = CameraIntrinsics(500, 500, 320, 240)
        for seed in range(20):
            rng = np.random.default_rng(5000 + seed)
            cam1 = Camera(K, RelativePose.identity())
            pose = RelativePose(
                rotation_from_axis_angle(rng.normal(size=3), np.radians(rng.uniform(2, 20))),
                rng.normal(size=3),
            )
            pose.t /= np.linalg.norm(pose.t)
            cam2 = Camera(K, pose)
            pts = visible_points(rng, cam1, cam2, 200)
            x1 = project_hom(cam1, pts)[:, :2] + rng.normal(0, 0.5, (200, 2))
            x2 = project_hom(cam2, pts)[:, :2] + rng.normal(0, 0.5, (200, 2))
            cfg = RansacConfig(iterations=300, inlier_threshold=1e-5, seed=seed)
            est, _ = estimate_relative_pose(x1, x2, K, K, cfg)
            rot_errs.append(rotation_error(est.R, pose.R))
            trans_errs.append(translation_error(est.t, pose.t))
        assert np.median(rot_errs) < 0.5
        assert np.median(trans_errs) < 2.0

    def test_too_few_matches(self):
        K = CameraIntrinsics(1, 1, 0, 0)
        with pytest.raises(errors.NotEnoughMatches):
            estimate_relative_pose(np.zeros((4, 2)), np.zeros((4, 2)), K, K, RansacConfig())


class TestMatchFile:
    def test_round_trip(self, tmp_path, rng):
        pts1 = rng.uniform(0, 640, size=(12, 2))
        pts2 = rng.uniform(0, 640, size=(12, 2))
        conf = rng.uniform(0, 1, size=12)
        path = tmp_path / "matches.txt"
        write_match_file(path, pts1, pts2, conf)
        r1, r2, rc = read_match_file(path)
        assert np.allclose(r1, pts1, atol=0)
        assert np.allclose(r2, pts2, atol=0)
        assert np.allclose(rc, conf, atol=0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "matches.txt"
        path.write_text("")
        r1, r2, rc = read_match_file(path)
        assert r1.shape == (0, 2) and r2.shape == (0, 2) and rc.shape == (0,)

    def test_wrong_field_count_names_its_line(self, tmp_path):
        path = tmp_path / "matches.txt"
        path.write_text("1 2 3 4 1\n\n1 2 3 4\n")
        with pytest.raises(ValueError, match=r"matches.txt:3: expected 5 fields"):
            read_match_file(path)

    def test_field_not_a_number_names_its_line(self, tmp_path):
        path = tmp_path / "matches.txt"
        path.write_text("1 2 3 4 1\n1 2 x 4 1\n")
        with pytest.raises(ValueError, match=r"matches.txt:2: could not convert"):
            read_match_file(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_line(self, tmp_path, bad):
        path = tmp_path / "matches.txt"
        path.write_text(f"# u1 v1 u2 v2 conf\n1 2 3 4 1\n1 2 {bad} 4 1\n")
        with pytest.raises(ValueError, match=r"matches.txt:3: non-finite"):
            read_match_file(path)
