import numpy as np
import pytest

from epimatch import errors
from epimatch.geometry import canonicalize, cross_matrix, fundamental_from_pose
from epimatch.grid import GridSpec
from epimatch.losses import (
    LossConfig,
    coarse_loss_grad,
    d_epi,
    epipolar_classification_mask,
    epipolar_line_set,
    fine_loss_grad,
    gt_classification_mask,
    gt_fine_loss_grad,
    naive_epipolar_mask,
)
from epimatch.matcher import MatcherConfig, init_params
from epimatch.pipeline import _pair_grads
from epimatch.synth import make_domain, sample_pair


def horizontal_line_f():
    """F with F x1 = (0, -1, 0) for x1 = (0, 0, 1): the line v = 0."""
    return cross_matrix([1.0, 0.0, 0.0])


def random_f(rng):
    return canonicalize(rng.normal(size=(3, 3)))


def random_line_instance(rng, min_resid=1e-2):
    """(F, x1, x2) with x2 clearly off the epipolar line of x1; x1 and x2 are
    (1, 2) pixel arrays."""
    while True:
        F = random_f(rng)
        x1 = rng.uniform(0, 100, (1, 2))
        x2 = rng.uniform(0, 100, (1, 2))
        line = F @ [*x1[0], 1.0]
        n = np.hypot(line[0], line[1])
        if n < 1e-6:
            continue
        if abs(line @ [*x2[0], 1.0]) / n > min_resid:
            return F, x1, x2


class TestEpipolarLineSet:
    def test_horizontal_line_through_4x4_grid(self):
        # centres at v = 4, 12, 20, 28; band = sqrt(2)*8/2 = 5.657:
        # only the top row (v = 4) is admitted
        grid = GridSpec(4, 4, 8)
        F = horizontal_line_f()
        sets = epipolar_line_set(F, GridSpec(1, 1, 8), grid, np.sqrt(2.0))
        # the single query cell of grid1 has centre (4, 4); its line is v = 0?
        # F x1 for x1=(4,4,1): t x x1 = (1,0,0) x (4,4,1) = (0*1-0*4, 0*4-1*1, 1*4-0*4)
        line = F @ [4.0, 4.0, 1.0]
        assert np.allclose(line, [0.0, -1.0, 4.0])  # v = 4 line
        dists = np.abs(grid.cell_centers()[:, 1] - 4.0)
        expected = dists <= np.sqrt(2.0) * 4.0
        assert np.array_equal(sets[0], expected)
        assert expected.reshape(4, 4)[0].all() and not expected.reshape(4, 4)[1:].any()

    def test_theta_to_zero_keeps_only_exact_hits(self):
        grid = GridSpec(4, 4, 8)
        F = horizontal_line_f()
        sets = epipolar_line_set(F, GridSpec(1, 1, 8), grid, 1e-12)
        # line v = 4 passes exactly through the centres of row 0
        assert np.array_equal(sets[0].reshape(4, 4)[0], np.ones(4, bool))
        assert not sets[0].reshape(4, 4)[1:].any()

    def test_theta_monotonicity(self, rng):
        grid1 = GridSpec(4, 4, 8)
        grid2 = GridSpec(4, 4, 8)
        for _ in range(20):
            F = random_f(rng)
            narrow = epipolar_line_set(F, grid1, grid2, np.sqrt(2.0))
            wide = epipolar_line_set(F, grid1, grid2, 3.0 * np.sqrt(2.0))
            assert np.all(wide[narrow])  # narrow is a subset

    def test_epipole_row_is_empty(self):
        # x1 = epipole of [t]x with t = (12, 12, 1): F x1 = 0
        F = cross_matrix([12.0, 12.0, 1.0])
        grid = GridSpec(2, 2, 8)
        sets = epipolar_line_set(F, grid, grid, np.sqrt(2.0))
        # grid cell (1, 1) has centre (12, 12), exactly the epipole
        assert not sets[3].any()


def positives(mask):
    return mask.rows.tolist(), mask.cols.tolist()


class TestClassificationMask:
    def test_argmax_restricted_to_line_set(self):
        C = np.array([[0.1, 0.9, 0.3, 0.2]])
        sets = np.array([[True, False, True, True]])
        assert positives(epipolar_classification_mask(C, sets)) == ([0], [2])

    def test_tie_break_lowest_column(self):
        C = np.array([[0.5, 0.5]])
        mask = epipolar_classification_mask(C, np.array([[True, True]]))
        assert positives(mask) == ([0], [0])

    def test_empty_set_excluded(self):
        C = np.array([[0.5, 0.5]])
        mask = epipolar_classification_mask(C, np.array([[False, False]]))
        assert positives(mask) == ([], [])

    def test_row_sums_zero_or_one(self, rng):
        C = rng.uniform(0, 1, (16, 16))
        sets = rng.uniform(0, 1, (16, 16)) > 0.7
        mask = epipolar_classification_mask(C, sets)
        sums = np.bincount(mask.rows, minlength=16)
        assert np.array_equal(sums, sets.any(axis=1))
        assert sets[mask.rows, mask.cols].all()


class TestNaiveMask:
    def test_all_online_cells_positive(self):
        sets = np.array([[True, False, True, True]])
        assert positives(naive_epipolar_mask(sets)) == ([0, 0, 0], [0, 2, 3])

    def test_empty_row(self):
        assert positives(naive_epipolar_mask(np.array([[False, False]]))) == ([], [])

    def test_row_sum_equals_set_size(self, rng):
        sets = rng.uniform(0, 1, (8, 8)) > 0.5
        mask = naive_epipolar_mask(sets)
        assert np.array_equal(np.bincount(mask.rows, minlength=8), sets.sum(axis=1))
        dense = np.zeros((8, 8), bool)
        dense[mask.rows, mask.cols] = True
        assert np.array_equal(dense, sets)
        assert np.all(np.diff(mask.rows * 8 + mask.cols) > 0)


class TestGtMask:
    def test_identity_warp(self):
        assert positives(gt_classification_mask(np.arange(4))) == ([0, 1, 2, 3], [0, 1, 2, 3])

    def test_occluded_cell(self):
        assert positives(gt_classification_mask([0, -1, 2])) == ([0, 2], [0, 2])

    def test_shift_by_one_cell(self):
        # warp sending cell i to cell i+1 (last cell leaves the image)
        mask = gt_classification_mask(np.array([1, 2, 3, -1]))
        assert positives(mask) == ([0, 1, 2], [1, 2, 3])


class TestMaskValues:
    """values is one weight per positive, all ones: the number of its non-zero
    entries is the number of positives, and it has none on an empty mask."""

    @pytest.mark.parametrize("build, n", [
        (lambda: gt_classification_mask([-1, -1]), 0),
        (lambda: gt_classification_mask([3, -1, 0]), 2),
        (lambda: epipolar_classification_mask(np.full((2, 3), 0.5), np.zeros((2, 3), bool)), 0),
        (lambda: epipolar_classification_mask(np.full((2, 3), 0.5), np.array([[0, 1, 1], [0, 0, 0]], bool)), 1),
        (lambda: naive_epipolar_mask(np.zeros((2, 3), bool)), 0),
        (lambda: naive_epipolar_mask(np.array([[0, 1, 1], [1, 0, 0]], bool)), 3),
    ])
    def test_one_unit_weight_per_positive(self, build, n):
        mask = build()
        assert mask.rows.shape == mask.cols.shape == mask.values.shape == (n,)
        assert mask.values.dtype == float and np.all(mask.values == 1.0)
        assert np.count_nonzero(mask.values) == n
        assert bool(np.any(mask.values)) == (n > 0)

    def test_zeroed_weights_leave_no_positive(self):
        mask = gt_classification_mask(np.arange(3))
        mask.values[:] = 0.0
        with pytest.raises(errors.EmptySupervision):
            coarse_loss_grad(np.full((3, 3), 0.5), mask)


def dense_grad(grad, shape):
    rows, cols, g = grad
    dense = np.zeros(shape)
    dense[rows, cols] = g
    return dense


class TestCoarseLoss:
    def test_perfect_confidence(self):
        M = gt_classification_mask(np.arange(4))
        assert coarse_loss_grad(np.eye(4), M)[0] == pytest.approx(0.0, abs=1e-10)

    def test_uniform_confidence_analytic(self):
        C = np.full((16, 16), 1.0 / 16.0)
        M = gt_classification_mask(np.arange(16))
        assert coarse_loss_grad(C, M)[0] == pytest.approx(np.log(16.0))

    def test_naive_mask_mean_over_positives(self, rng):
        # independent oracle: explicit per-entry sum
        C = rng.uniform(0.05, 0.95, (4, 4))
        sets = rng.uniform(0, 1, (4, 4)) > 0.4
        sets[0] = [True, True, False, True]  # ensure non-empty
        mask = naive_epipolar_mask(sets)
        expected = np.mean([-np.log(C[i, j]) for i in range(4) for j in range(4) if sets[i, j]])
        assert coarse_loss_grad(C, mask)[0] == pytest.approx(expected)

    def test_empty_supervision(self):
        mask = naive_epipolar_mask(np.zeros((3, 3), bool))
        with pytest.raises(errors.EmptySupervision):
            coarse_loss_grad(np.full((3, 3), 0.5), mask)

    def test_gradient_matches_finite_differences(self, rng):
        C = rng.uniform(0.05, 0.95, (6, 6))
        sets = rng.uniform(0, 1, (6, 6)) > 0.5
        sets[:, 0] = True
        mask = naive_epipolar_mask(sets)
        loss, grad = coarse_loss_grad(C, mask)
        assert np.array_equal(grad[0], mask.rows) and np.array_equal(grad[1], mask.cols)
        grad = dense_grad(grad, C.shape)
        h = 1e-7
        for i in range(6):
            for j in range(6):
                Cp, Cm = C.copy(), C.copy()
                Cp[i, j] += h
                Cm[i, j] -= h
                fd = (coarse_loss_grad(Cp, mask)[0] - coarse_loss_grad(Cm, mask)[0]) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestDEpi:
    def test_worked_instance(self):
        F = horizontal_line_f()
        d, g = d_epi(F, [[0, 0]], [[0.3, 0.5]])
        assert d == pytest.approx([0.5])
        assert np.allclose(g, [[0.0, 1.0]])

    def test_on_line_zero_subgradient(self):
        F = horizontal_line_f()
        d, g = d_epi(F, [[0, 0]], [[0.7, 0.0]])
        assert d[0] == 0.0
        assert np.array_equal(g, [[0.0, 0.0]])

    def test_scaling_f_leaves_distance_unchanged(self, rng):
        F, x1, x2 = random_line_instance(rng)
        d1, _ = d_epi(F, x1, x2)
        d2, _ = d_epi(10.0 * F, x1, x2)
        assert d1 == pytest.approx(d2)

    def test_gradient_against_central_differences(self, rng):
        h = 1e-6
        for _ in range(200):
            F, x1, x2 = random_line_instance(rng)
            d, g = d_epi(F, x1, x2)
            fd = np.empty(2)
            for k in range(2):
                xp, xm = x2.copy(), x2.copy()
                xp[0, k] += h
                xm[0, k] -= h
                fd[k] = (d_epi(F, x1, xp)[0][0] - d_epi(F, x1, xm)[0][0]) / (2 * h)
            assert np.linalg.norm(g[0] - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-6

    def test_batch_matches_scalar(self, rng):
        # each row is scored alone: the batch equals one-row calls
        F = random_f(rng)
        x1s = rng.uniform(0, 100, (10, 2))
        x2s = rng.uniform(0, 100, (10, 2))
        d, g = d_epi(F, x1s, x2s)
        for i in range(10):
            ds, gs = d_epi(F, x1s[i:i + 1], x2s[i:i + 1])
            assert d[i] == pytest.approx(ds[0])
            assert np.allclose(g[i], gs[0])

    def test_line_distance_lower_bounds_point_distance(self, rng):
        # d_epi(x2) <= ||x2 - xg|| for any xg on the epipolar line
        for _ in range(50):
            F, x1, x2 = random_line_instance(rng)
            a, b, c = F @ [*x1[0], 1.0]
            # param point on the line
            if abs(b) > abs(a):
                u = rng.uniform(-50, 150)
                xg = np.array([u, -(a * u + c) / b])
            else:
                v = rng.uniform(-50, 150)
                xg = np.array([-(b * v + c) / a, v])
            d, _ = d_epi(F, x1, x2)
            assert d[0] <= np.linalg.norm(x2[0] - xg) + 1e-9

    def test_inner_product_property(self, rng):
        # grad of distance-to-gt and grad of distance-to-line agree in sign
        for _ in range(200):
            F, x1, x2 = random_line_instance(rng)
            a, b, c = F @ [*x1[0], 1.0]
            if abs(b) > abs(a):
                u = rng.uniform(-50, 150)
                xg = np.array([u, -(a * u + c) / b])
            else:
                v = rng.uniform(-50, 150)
                xg = np.array([-(b * v + c) / a, v])
            if np.linalg.norm(x2[0] - xg) < 1e-9:
                continue
            _, g_epi = d_epi(F, x1, x2)
            g_gt = (x2[0] - xg) / np.linalg.norm(x2[0] - xg)
            assert g_gt @ g_epi[0] > 0.0


class TestFineLoss:
    def test_zero_on_lines(self, rng):
        F = horizontal_line_f()
        x1s = np.zeros((5, 2))
        x2s = np.column_stack([rng.uniform(0, 10, 5), np.zeros(5)])
        assert fine_loss_grad(F, x1s, x2s)[0] == pytest.approx(0.0)

    def test_mean_of_two_distances(self):
        F = horizontal_line_f()
        x1s = np.zeros((2, 2))
        x2s = np.array([[1.0, 0.2], [3.0, -0.4]])
        assert fine_loss_grad(F, x1s, x2s)[0] == pytest.approx(0.3)

    def test_matches_gt_loss_at_perpendicular_foot(self, rng):
        # when the gt point is the foot of the perpendicular the two losses agree
        F = horizontal_line_f()
        x1s = np.zeros((4, 2))
        x2s = np.column_stack([rng.uniform(0, 10, 4), rng.uniform(-3, 3, 4)])
        feet = np.column_stack([x2s[:, 0], np.zeros(4)])
        assert fine_loss_grad(F, x1s, x2s)[0] == pytest.approx(gt_fine_loss_grad(x2s, feet)[0])

    def test_empty_supervision(self):
        with pytest.raises(errors.EmptySupervision):
            fine_loss_grad(horizontal_line_f(), np.zeros((0, 2)), np.zeros((0, 2)))

    def test_grad_matches_finite_differences(self, rng):
        F = random_f(rng)
        x1s = rng.uniform(0, 100, (6, 2))
        x2s = rng.uniform(0, 100, (6, 2))
        loss, grad = fine_loss_grad(F, x1s, x2s)
        h = 1e-6
        for i in range(6):
            for k in range(2):
                xp, xm = x2s.copy(), x2s.copy()
                xp[i, k] += h
                xm[i, k] -= h
                fd = (fine_loss_grad(F, x1s, xp)[0] - fine_loss_grad(F, x1s, xm)[0]) / (2 * h)
                assert grad[i, k] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestGtFineLoss:
    def test_exact_prediction(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert gt_fine_loss_grad(pts, pts)[0] == 0.0

    def test_three_four_five(self):
        assert gt_fine_loss_grad(np.array([[3.0, 4.0]]), np.zeros((1, 2)))[0] == pytest.approx(5.0)

    def test_grad_matches_finite_differences(self, rng):
        x2s = rng.uniform(0, 10, (5, 2))
        gts = rng.uniform(0, 10, (5, 2))
        _, grad = gt_fine_loss_grad(x2s, gts)
        h = 1e-6
        for i in range(5):
            for k in range(2):
                xp, xm = x2s.copy(), x2s.copy()
                xp[i, k] += h
                xm[i, k] -= h
                fd = (gt_fine_loss_grad(xp, gts)[0] - gt_fine_loss_grad(xm, gts)[0]) / (2 * h)
                assert grad[i, k] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestTotalLoss:
    """The per-pair step of the training loop with an epipolar target."""

    # threshold 0 keeps every mutual nearest neighbour, so an untrained
    # matcher yields fine matches and both loss terms are live
    MCFG = MatcherConfig(match_threshold=0.0)

    @pytest.fixture(scope="class")
    def instance(self):
        pair = sample_pair(make_domain("B", seed=3), 0)
        F = fundamental_from_pose(pair.K, pair.K, pair.pose)
        return pair, F, init_params(self.MCFG, seed=3)

    def _step(self, instance, cfg, F=None):
        pair, F0, params = instance
        out = _pair_grads(pair, F0 if F is None else F, params, self.MCFG, cfg, False, [0])
        assert out is not None
        return out[:4]

    def test_lambda_zero_is_coarse_only(self, instance):
        grads, total, lc, lf = self._step(instance, LossConfig(lam=0.0))
        assert lf > 0.0
        assert total == pytest.approx(lc)
        assert np.all(grads.W_fine == 0.0) and grads.tau_fine == 0.0

    def test_lambda_one_is_fine_only(self, instance):
        grads, total, lc, lf = self._step(instance, LossConfig(lam=1.0))
        assert lc > 0.0
        assert total == pytest.approx(lf)
        assert np.all(grads.W_coarse == 0.0) and grads.tau_coarse == 0.0

    def test_convex_combination(self, instance):
        _, total, lc, lf = self._step(instance, LossConfig(lam=0.5))
        assert total == pytest.approx(0.5 * lc + 0.5 * lf)
        # spec arithmetic: coarse 2.0, fine 0.3 at lam 0.5 -> 1.15
        assert 0.5 * 2.0 + 0.5 * 0.3 == pytest.approx(1.15)

    def test_invariant_to_f_rescaling(self, instance):
        cfg = LossConfig(lam=0.5)
        _, t1, *_ = self._step(instance, cfg)
        _, t2, *_ = self._step(instance, cfg, -7.0 * instance[1])
        assert t1 == pytest.approx(t2)
