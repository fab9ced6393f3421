from types import SimpleNamespace

import numpy as np
import pytest

from epimatch import errors
from epimatch.estimation import RansacConfig
from epimatch.geometry import (
    Camera,
    CameraIntrinsics,
    FundamentalMatrix,
    RelativePose,
    cross_matrix,
    essential_from_pose,
    fundamental_from_pose,
    fundamental_to_essential,
    normalize_points,
    rotation_from_axis_angle,
    symmetric_epipolar_distance_sq,
)
from epimatch.matcher import MatcherConfig, init_params
from epimatch.metrics import (
    EvalReport,
    PoseError,
    evaluate,
    gt_epipolar_distance_sq,
    matching_precision,
    pose_auc,
    pose_error,
    rotation_error,
    translation_error,
)


def dense_grid_auc(errors_list, T, n=10_000):
    """Trapezoid integration of the recall curve on a dense grid."""
    errs = np.asarray(errors_list, dtype=float)
    xs = np.linspace(0.0, T, n)
    recall = (errs[None, :] <= xs[:, None]).mean(axis=1)
    area = np.sum(np.diff(xs) * (recall[1:] + recall[:-1]) / 2.0)
    return 100.0 * area / T


class TestRotationError:
    def test_identity(self):
        R = rotation_from_axis_angle([1, 2, 3], 0.7)
        assert rotation_error(R, R) == pytest.approx(0.0, abs=1e-6)

    def test_ten_degree_z_rotation(self):
        R = rotation_from_axis_angle([0, 0, 1], np.radians(10.0))
        assert rotation_error(np.eye(3), R) == pytest.approx(10.0)

    def test_composition_consistency(self, rng):
        R = rotation_from_axis_angle(rng.normal(size=3), 0.9)
        delta = rotation_from_axis_angle(rng.normal(size=3), np.radians(7.3))
        assert rotation_error(R, R @ delta) == pytest.approx(7.3, abs=1e-9)


class TestTranslationError:
    def test_parallel(self):
        assert translation_error([1, 2, 3], [2, 4, 6]) == pytest.approx(0.0, abs=1e-5)

    def test_antiparallel_sign_ambiguity(self):
        assert translation_error([1, 0, 0], [-1, 0, 0]) == pytest.approx(0.0, abs=1e-7)

    def test_perpendicular(self):
        assert translation_error([1, 0, 0], [0, 1, 0]) == pytest.approx(90.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(errors.ZeroTranslation):
            translation_error([0, 0, 0], [1, 0, 0])

    def test_combined_is_max(self):
        err = PoseError(rotation_deg=3.0, translation_deg=8.0)
        assert err.combined == 8.0


class TestPoseAuc:
    def test_all_zero_errors(self):
        assert pose_auc([0.0, 0.0, 0.0]) == pytest.approx([100.0, 100.0, 100.0])

    def test_all_failures(self):
        assert pose_auc([np.inf, np.inf]) == pytest.approx([0.0, 0.0, 0.0])

    def test_frozen_regression_value(self):
        # [2, 4, 8] degrees at threshold 5: exact = 100*((5-2)+(5-4))/(3*5)
        exact = pose_auc([2.0, 4.0, 8.0], thresholds=(5.0,))[0]
        assert exact == pytest.approx(26.666666666, abs=1e-6)
        oracle = dense_grid_auc([2.0, 4.0, 8.0], 5.0)
        assert abs(exact - oracle) < 0.01

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(77)
        for trial in range(100):
            n = rng.integers(1, 40)
            errs = rng.uniform(0, 30, n)
            if trial % 3 == 0:
                errs[rng.integers(0, n)] = np.inf
            for T in (5.0, 10.0, 20.0):
                exact = pose_auc(errs, thresholds=(T,))[0]
                assert abs(exact - dense_grid_auc(errs, T)) < 0.01

    def test_monotone_in_threshold(self, rng):
        errs = rng.uniform(0, 40, 25)
        a5, a10, a20 = pose_auc(errs)
        assert a5 <= a10 <= a20

    def test_empty_input(self):
        with pytest.raises(errors.EmptyInput):
            pose_auc([])


class TestMatchingPrecision:
    def test_exact_matches_100(self, rng):
        from conftest import project_hom, random_camera_pair, visible_points

        cam1, cam2, pose = random_camera_pair(rng, same_k=True)
        pts = visible_points(rng, cam1, cam2, 30)
        x1 = project_hom(cam1, pts)[:, :2]
        x2 = project_hom(cam2, pts)[:, :2]
        assert matching_precision(x1, x2, pose, cam1.intrinsics, cam2.intrinsics) == 100.0

    def test_empty_matches_zero(self):
        K = CameraIntrinsics(1, 1, 0, 0)
        pose = RelativePose(np.eye(3), [1, 0, 0])
        assert matching_precision(np.zeros((0, 2)), np.zeros((0, 2)), pose, K, K) == 0.0

    def test_threshold_side_of_constructed_match(self):
        # identity K, sideways motion: the epipolar line of (u, v) is v' = v;
        # a match offset vertically by dv has symmetric distance 2*dv^2
        K = CameraIntrinsics(1, 1, 0, 0)
        pose = RelativePose(np.eye(3), [1.0, 0, 0])
        thr = 5e-4
        dv_in = np.sqrt(thr / 2.0) * 0.99
        dv_out = np.sqrt(thr / 2.0) * 1.01
        x1 = np.array([[0.2, 0.3]])
        assert matching_precision(x1, np.array([[0.5, 0.3 + dv_in]]), pose, K, K, thr) == 100.0
        assert matching_precision(x1, np.array([[0.5, 0.3 + dv_out]]), pose, K, K, thr) == 0.0

    def test_pose_gt_agrees_with_fundamental_matrix(self, rng):
        # distinct intrinsics: the pose's E = [t]x R and the E = K2^T F K1 of
        # its F give the same distances, so a pair's pose is all the truth
        # precision needs
        from conftest import project_hom, random_camera_pair, visible_points

        cam1, cam2, pose = random_camera_pair(rng)
        K1, K2 = cam1.intrinsics, cam2.intrinsics
        F = fundamental_from_pose(K1, K2, pose)
        pts = visible_points(rng, cam1, cam2, 10)
        x1 = project_hom(cam1, pts)[:, :2]
        x2 = project_hom(cam2, pts)[:, :2]
        assert matching_precision(x1, x2, pose, K1, K2) == 100.0
        x2 = x2 + rng.normal(0.0, 3.0, x2.shape)
        via_f = symmetric_epipolar_distance_sq(fundamental_to_essential(F, K1, K2),
                                               normalize_points(K1, x1), normalize_points(K2, x2))
        assert np.allclose(gt_epipolar_distance_sq(x1, x2, pose, K1, K2), via_f, rtol=1e-9, atol=0.0)

    def test_monotone_in_threshold(self, rng):
        from conftest import project_hom, random_camera_pair, visible_points

        cam1, cam2, pose = random_camera_pair(rng, same_k=True)
        pts = visible_points(rng, cam1, cam2, 50)
        x1 = project_hom(cam1, pts)[:, :2] + rng.normal(0, 2.0, (50, 2))
        x2 = project_hom(cam2, pts)[:, :2] + rng.normal(0, 2.0, (50, 2))
        p_lo = matching_precision(x1, x2, pose, cam1.intrinsics, cam2.intrinsics, 1e-5)
        p_hi = matching_precision(x1, x2, pose, cam1.intrinsics, cam2.intrinsics, 1e-3)
        assert p_lo <= p_hi

    def test_vanishing_epipolar_line_is_imprecise_and_a_ransac_outlier(self, monkeypatch):
        # forward motion along the optical axis: the principal point is the
        # epipole of both images, and its epipolar lines vanish exactly
        from conftest import project_hom, visible_points
        from epimatch import estimation

        K = CameraIntrinsics(1, 1, 0, 0)
        pose = RelativePose(np.eye(3), [0.0, 0.0, 1.0])
        cam1, cam2 = Camera(K, RelativePose.identity()), Camera(K, pose)
        pts = visible_points(np.random.default_rng(3), cam1, cam2, 20)
        x1 = np.vstack([project_hom(cam1, pts)[:, :2], [0.0, 0.0]])
        x2 = np.vstack([project_hom(cam2, pts)[:, :2], [0.0, 0.0]])
        assert matching_precision(x1, x2, pose, K, K) == pytest.approx(100.0 * 20 / 21)
        # every hypothesis and the refit are the exact F, so only the
        # scoring decides the mask
        F = essential_from_pose(pose)
        monkeypatch.setattr(estimation, "_eight_point_batch",
                            lambda p1, p2: (np.repeat(F[None], len(p1), axis=0), np.ones(len(p1), bool)))
        monkeypatch.setattr(estimation, "eight_point", lambda p1, p2: FundamentalMatrix(F))
        res = estimation.ransac_fundamental(x1, x2, K, K, RansacConfig(iterations=5, seed=0))
        assert res.inlier_mask.tolist() == [True] * 20 + [False]


class TestEvaluate:
    def test_report_invariants_on_synthetic_data(self):
        from epimatch.synth import make_domain, sample_pair

        pairs = [sample_pair(make_domain("A", seed=3), i) for i in range(4)]
        params = init_params(MatcherConfig(), seed=0)
        report = evaluate(params, pairs, RansacConfig(iterations=50, inlier_threshold=5e-4, seed=0))
        assert report.auc5 <= report.auc10 <= report.auc20
        assert 0 <= report.precision <= 100
        assert report.n_pairs == 4

    def test_json_and_table_consistent(self):
        report = EvalReport(1.0, 2.0, 3.0, 44.4, 1.5, 2.5, 10, 2, 33.0)
        import json

        parsed = json.loads(report.to_json())
        assert parsed["auc20"] == 3.0
        table = report.to_table()
        assert "44.4" in table and "AUC@20" in table

    def test_non_finite_medians_are_null_in_json_and_inf_in_table(self):
        import json

        report = EvalReport(0.0, 0.0, 0.0, 0.0, np.inf, float("nan"), 4, 4)
        parsed = json.loads(report.to_json())
        assert parsed["median_rot_deg"] is None and parsed["median_trans_deg"] is None
        assert parsed["n_failed"] == 4
        assert "median rot inf deg" in report.to_table()

    def test_deterministic(self):
        from epimatch.synth import make_domain, sample_pair

        pairs = [sample_pair(make_domain("A", seed=5), i) for i in range(3)]
        params = init_params(MatcherConfig(), seed=1)
        cfg = RansacConfig(iterations=50, inlier_threshold=5e-4, seed=3)
        a = evaluate(params, pairs, cfg)
        b = evaluate(params, pairs, cfg)
        assert a == b

    @pytest.mark.parametrize("exc, counted", [(errors.NotEnoughMatches, True),
                                              (np.linalg.LinAlgError, True),
                                              (TypeError, False)])
    def test_estimation_errors_counted_by_type(self, monkeypatch, exc, counted):
        # an EpimatchError or LinAlgError is a failed pair; anything else is a
        # defect and propagates
        from epimatch import metrics
        from epimatch.synth import make_domain, sample_pair

        pairs = [sample_pair(make_domain("A", seed=3), i) for i in range(2)]
        x = np.random.default_rng(0).uniform(8.0, 56.0, (10, 2))
        pred = SimpleNamespace(fine_x1=x, fine_x2=x + 1.0)
        monkeypatch.setattr(metrics, "forward", lambda *args, **kwargs: (pred, None))

        def estimate(*args, **kwargs):
            raise exc("injected")

        monkeypatch.setattr(metrics, "estimate_relative_pose", estimate)
        params = init_params(MatcherConfig(), seed=0)
        if counted:
            report = evaluate(params, pairs, RansacConfig(seed=0))
            assert report.n_failed == 2 and report.mean_matches == 10
        else:
            with pytest.raises(exc):
                evaluate(params, pairs, RansacConfig(seed=0))

    def test_pure_rotation_pair_fails_with_precision_zero(self):
        # synth renders a pure rotation; the pair has no epipolar geometry,
        # so it fails instead of aborting the evaluation
        from epimatch.synth import make_domain, sample_pair

        spec = make_domain("A", seed=1)
        R = rotation_from_axis_angle([0, 1, 0], np.radians(5.0))
        rotation = sample_pair(spec, 0, pose_override=RelativePose(R, np.zeros(3)))
        with pytest.raises(errors.DegenerateBaseline):
            fundamental_from_pose(rotation.K, rotation.K, rotation.pose)
        other = sample_pair(spec, 1)
        params = init_params(MatcherConfig(), seed=0)
        mcfg = MatcherConfig(match_threshold=0.0)
        cfg = RansacConfig(iterations=50, inlier_threshold=5e-4, seed=0)
        report = evaluate(params, [rotation, other], cfg, mcfg)
        alone = evaluate(params, [other], cfg, mcfg)
        assert report.n_pairs == 2 and report.n_failed == alone.n_failed + 1
        assert report.precision == alone.precision / 2
        assert report.mean_matches > alone.mean_matches / 2
