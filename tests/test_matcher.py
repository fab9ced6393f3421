import re
import warnings

import numpy as np
import pytest

from epimatch import errors
from epimatch.errors import write_arrays
from epimatch.gradcheck import matcher_suite
from epimatch.losses import (coarse_loss_grad, epipolar_classification_mask, gt_classification_mask,
                             naive_epipolar_mask)
from epimatch.matcher import (
    MatcherConfig,
    MatcherParams,
    backward,
    confidence_matrix,
    extract_features,
    fine_in_bounds,
    forward,
    init_params,
    load_checkpoint,
    refine_fine,
    save_checkpoint,
    select_coarse,
    sgd_step,
)
from epimatch.matcher import _NORM_EPS, _embed_normalized, _normalize_backward, _patch_rows, _softmax
from epimatch.synth import make_domain, sample_pair, save_pair_file

from conftest import record_ends

SMALL = MatcherConfig(patch_width=8, fine_patch=4, fine_stride=2, d=8, d_fine=6,
                      window_radius=2, match_threshold=0.2)


def random_image(rng, h=32, w=32):
    return rng.uniform(0.0, 1.0, (h, w))


def masked_embed_normalized(X, W):
    """Reference row normalization that copies the rows above _NORM_EPS out
    through a boolean mask."""
    Y = X @ W
    n = np.linalg.norm(Y, axis=1)
    D = np.zeros_like(Y)
    good = n > _NORM_EPS
    D[good] = Y[good] / n[good][:, None]
    return D, n


def masked_normalize_backward(dD, D, n):
    dY = np.zeros_like(dD)
    good = n > _NORM_EPS
    dot = np.einsum("ij,ij->i", dD[good], D[good])
    dY[good] = (dD[good] - D[good] * dot[:, None]) / n[good][:, None]
    return dY


def fine_table(feats, cfg):
    """Every stride-s fine patch of an image, normalized, with its centre
    pixel: (rows, cols, (rows * cols, fp * fp) patches, (rows * cols, 2))."""
    fp, s = cfg.fine_patch, cfg.fine_stride
    fr, fc = feats.fine_windows.shape[:2]
    fine = _patch_rows(feats.fine_windows.reshape(fr * fc, fp * fp).copy())
    uu, vv = np.meshgrid(np.arange(fc) * s + fp // 2, np.arange(fr) * s + fp // 2)
    centers = np.column_stack([uu.ravel(), vv.ravel()]).astype(float)
    return fr, fc, fine, centers


def refine_fine_loop(feats1, feats2, params, cfg, i_idx, j_idx, conf):
    """Per-match reference for refine_fine over each image's full fine table:
    the fine cell under each coarse centre by scalar rounding, one window
    meshgrid per match."""
    fp, s, r = cfg.fine_patch, cfg.fine_stride, cfg.window_radius
    fr1, fc1, fine1, _ = fine_table(feats1, cfg)
    fr2, fc2, fine2, centers2 = fine_table(feats2, cfg)

    def fine_cell(feats, fr, fc, index):
        row, col = divmod(int(index), feats.grid.cols)
        w = feats.grid.patch_width
        u, v = float(col * w + w // 2), float(row * w + w // 2)
        q, p = int(round((u - fp // 2) / s)), int(round((v - fp // 2) / s))
        inside = 0 <= p < fr and 0 <= q < fc
        return (u, v), (p * fc + q if inside else -1)

    kept, centers1, cidx, widx = [], [], [], []
    for k, (i, j) in enumerate(zip(i_idx, j_idx)):
        uv1, c1 = fine_cell(feats1, fr1, fc1, i)
        _, c2 = fine_cell(feats2, fr2, fc2, j)
        if c1 < 0 or c2 < 0:
            continue
        p2, q2 = divmod(c2, fc2)
        if p2 - r < 0 or p2 + r >= fr2 or q2 - r < 0 or q2 + r >= fc2:
            continue
        pp, qq = np.meshgrid(np.arange(p2 - r, p2 + r + 1), np.arange(q2 - r, q2 + r + 1), indexing="ij")
        widx.append((pp * fc2 + qq).ravel())
        cidx.append(c1)
        centers1.append(uv1)
        kept.append(k)
    dropped = len(i_idx) - len(kept)
    if not kept:
        return np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0), dict(M=0), dropped
    kept, widx, cidx = np.array(kept, int), np.array(widx, int), np.array(cidx, int)
    e1, _ = masked_embed_normalized(fine1[cidx], params.W_fine)
    E2w, _ = masked_embed_normalized(fine2[widx].reshape(widx.size, -1), params.W_fine)
    corr = np.einsum("mkd,md->mk", E2w.reshape(*widx.shape, -1), e1)
    p = _softmax(corr / params.tau_fine, axis=1)
    x2s = np.einsum("mk,mkc->mc", p, centers2[widx])
    cache = dict(M=len(kept), kept=kept)
    return np.array(centers1, dtype=float), x2s, np.asarray(conf)[kept], cache, dropped


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestExtractFeatures:
    def test_constant_image_all_textureless(self):
        feats = extract_features(np.full((32, 32), 0.5), SMALL)
        assert np.all(feats.coarse == 0.0)

    def test_grid_arithmetic(self, rng):
        feats = extract_features(random_image(rng, 64, 64), MatcherConfig())
        assert (feats.grid.rows, feats.grid.cols) == (8, 8)
        assert feats.coarse.shape == (64, 64)

    def test_unit_norm_rows(self, rng):
        feats = extract_features(random_image(rng), SMALL)
        norms = np.linalg.norm(feats.coarse, axis=1)
        assert np.allclose(norms[feats.coarse.any(axis=1)], 1.0)

    def test_fine_windows_are_a_read_only_view(self, rng):
        img = random_image(rng)
        feats = extract_features(img, SMALL)
        fp, s = SMALL.fine_patch, SMALL.fine_stride
        assert feats.fine_windows.shape == (15, 15, fp, fp)
        assert np.shares_memory(feats.fine_windows, img)
        assert not feats.fine_windows.flags.writeable
        assert np.array_equal(feats.fine_windows[3, 5], img[3 * s:3 * s + fp, 5 * s:5 * s + fp])

    def test_shift_by_patch_width_shifts_grid(self, rng):
        img = random_image(rng, 40, 40)
        shifted = np.roll(img, (8, 8), axis=(0, 1))
        f = extract_features(img, SMALL)
        g = extract_features(shifted, SMALL)
        # interior cell (r, c) of img equals cell (r+1, c+1) of shifted
        for r in range(3):
            for c in range(3):
                a = f.coarse[r * 5 + c]
                b = g.coarse[(r + 1) * 5 + (c + 1)]
                assert np.allclose(a, b)

    def test_bad_dimensions(self):
        with pytest.raises(errors.BadDimensions):
            extract_features(np.zeros((30, 32)), SMALL)


class TestConfidenceMatrix:
    def test_identical_images_sharp_diagonal(self, rng):
        img = random_image(rng)
        f = extract_features(img, SMALL)
        params = init_params(SMALL, seed=3)
        params.tau_coarse = 0.01
        C, _ = confidence_matrix(f, f, params)
        assert np.mean(np.diag(C)) > 0.99

    def test_textureless_grids_uniform(self):
        f = extract_features(np.zeros((32, 32)), SMALL)
        params = init_params(SMALL, seed=0)
        C, _ = confidence_matrix(f, f, params)
        m = f.grid.m
        assert np.allclose(C, 1.0 / m ** 2)

    def test_entries_in_unit_interval_and_factors_normalized(self, rng):
        f1 = extract_features(random_image(rng), SMALL)
        f2 = extract_features(random_image(rng), SMALL)
        params = init_params(SMALL, seed=1)
        C, cache = confidence_matrix(f1, f2, params)
        assert np.all(C >= 0.0) and np.all(C <= 1.0)
        assert np.allclose(cache["RS"].sum(axis=1), 1.0)
        assert np.allclose(cache["CS"].sum(axis=0), 1.0)

    def test_column_permutation_equivariance(self, rng):
        f1 = extract_features(random_image(rng), SMALL)
        f2 = extract_features(random_image(rng), SMALL)
        params = init_params(SMALL, seed=2)
        C, _ = confidence_matrix(f1, f2, params)
        perm = rng.permutation(f2.grid.m)
        import copy

        f2p = copy.deepcopy(f2)
        f2p.coarse = f2.coarse[perm]
        Cp, _ = confidence_matrix(f1, f2p, params)
        assert np.allclose(Cp, C[:, perm])


class TestSelectCoarse:
    def test_identity_confidence(self):
        C = np.eye(5) * 0.9 + 0.01
        i, j, conf = select_coarse(C, 0.2)
        assert np.array_equal(i, np.arange(5))
        assert np.array_equal(j, np.arange(5))

    def test_uniform_below_threshold_empty(self):
        C = np.full((4, 4), 0.05)
        i, j, _ = select_coarse(C, 0.2)
        assert i.size == 0

    def test_threshold_zero_identity_gives_all(self):
        C = np.eye(6)
        i, j, _ = select_coarse(C, 0.0)
        assert i.size == 6


# coarse cells 4 px wide under 6 px fine patches: coarse centres fall half
# way between fine centres (so rounding is half to even) and the last coarse
# row and column of image 1 have no fine cell
ODD = MatcherConfig(patch_width=4, fine_patch=6, fine_stride=2, d=8, d_fine=6,
                    window_radius=1, match_threshold=0.2)


class TestRefineFine:
    @pytest.mark.parametrize("cfg,shape", [(SMALL, (32, 32)), (SMALL, (48, 80)),
                                           (MatcherConfig(), (64, 96)), (ODD, (32, 48))])
    def test_matches_per_match_loop(self, rng, cfg, shape):
        f1 = extract_features(random_image(rng, *shape), cfg)
        f2 = extract_features(random_image(rng, *shape), cfg)
        params = init_params(cfg, seed=3)
        m, cols = f1.grid.m, f1.grid.cols
        border = np.array([0, cols - 1, m - cols, m - 1, cols, 2 * cols - 1])
        interior = np.array([2 * cols + 2, 2 * cols + 3])
        i_idx = np.concatenate([rng.integers(0, m, 60), border, interior, [interior[0]] * 3])
        j_idx = np.concatenate([rng.integers(0, m, 60), interior[[0, 1, 0, 1, 0, 1]], border[:2],
                                [interior[1]] * 3])
        conf = rng.uniform(0.0, 1.0, i_idx.size)
        got = refine_fine(f1, f2, params, cfg, i_idx, j_idx, conf)
        want = refine_fine_loop(f1, f2, params, cfg, i_idx, j_idx, conf)
        for a, b in zip(got[:3], want[:3]):
            assert_same_bytes(a, b)
        assert got[4] == want[4] and 0 < got[4] < i_idx.size
        assert_same_bytes(got[3]["kept"], want[3]["kept"])

    @pytest.mark.parametrize("cfg", [SMALL, ODD])
    def test_empty_and_all_dropped(self, rng, cfg):
        f1 = extract_features(random_image(rng), cfg)
        f2 = extract_features(random_image(rng), cfg)
        params = init_params(cfg, seed=3)
        for idx in (np.zeros(0, int), np.array([0, 0])):
            x1s, x2s, conf, cache, dropped = refine_fine(f1, f2, params, cfg, idx, idx, np.ones(idx.size))
            assert x1s.shape == x2s.shape == (0, 2) and conf.shape == (0,)
            assert cache == dict(M=0) and dropped == idx.size

    def test_flat_window_gives_window_centre(self, rng):
        # textureless image 2: uniform heatmap, soft-argmax = window centre
        img1 = random_image(rng)
        img2 = np.zeros((32, 32))
        f1 = extract_features(img1, SMALL)
        f2 = extract_features(img2, SMALL)
        params = init_params(SMALL, seed=0)
        i_idx = np.array([5])  # cell (1,1): centre (12,12), interior
        j_idx = np.array([5])
        x1s, x2s, conf, cache, dropped = refine_fine(f1, f2, params, SMALL, i_idx, j_idx, np.ones(1))
        assert dropped == 0
        assert np.allclose(x2s[0], [12.0, 12.0])

    def test_shifted_copy_recovers_offset(self, rng):
        # content moves right 2 and up 2: a one-hot heatmap at offset (+2, -2)
        img1 = random_image(rng, 48, 48)
        img2 = np.roll(img1, (-2, 2), axis=(0, 1))
        params = init_params(SMALL, seed=1)
        params.tau_fine = 0.01
        f1 = extract_features(img1, SMALL)
        f2 = extract_features(img2, SMALL)
        # interior coarse cells refined at their own index (offset < one cell)
        interior = [r * 6 + c for r in range(2, 4) for c in range(2, 4)]
        i_idx = np.array(interior)
        x1s, x2s, conf, cache, dropped = refine_fine(
            f1, f2, params, SMALL, i_idx, i_idx, np.ones(len(interior)))
        assert dropped == 0
        err = x2s - (x1s + np.array([2.0, -2.0]))
        assert np.max(np.abs(err)) < 0.5

    def test_refined_point_inside_window_hull(self, rng):
        img1, img2 = random_image(rng), random_image(rng)
        f1 = extract_features(img1, SMALL)
        f2 = extract_features(img2, SMALL)
        params = init_params(SMALL, seed=4)
        i_idx = np.array([5, 6, 9, 10])
        x1s, x2s, conf, cache, dropped = refine_fine(f1, f2, params, SMALL, i_idx, i_idx, np.ones(4))
        for k in range(x2s.shape[0]):
            lo = cache["coords"][k].min(axis=0)
            hi = cache["coords"][k].max(axis=0)
            assert np.all(x2s[k] >= lo - 1e-12) and np.all(x2s[k] <= hi + 1e-12)

    def test_border_windows_dropped_with_counter(self, rng):
        f1 = extract_features(random_image(rng), SMALL)
        f2 = extract_features(random_image(rng), SMALL)
        params = init_params(SMALL, seed=4)
        i_idx = np.array([0])  # corner cell: window leaves the fine grid
        *_, dropped = refine_fine(f1, f2, params, SMALL, i_idx, i_idx, np.ones(1))
        assert dropped == 1


    @pytest.mark.parametrize("cfg,shape", [(SMALL, (32, 32)), (SMALL, (48, 80)), (MatcherConfig(), (64, 96))])
    def test_one_drop_rule_on_every_border(self, rng, cfg, shape):
        # image 2 cells on the top, bottom, left and right borders: their
        # windows leave the fine grid; interior cells keep theirs
        f1 = extract_features(random_image(rng, *shape), cfg)
        f2 = extract_features(random_image(rng, *shape), cfg)
        rows, cols = f2.grid.rows, f2.grid.cols
        cells = np.arange(f2.grid.m).reshape(rows, cols)
        borders = [cells[0], cells[-1], cells[:, 0], cells[:, -1]]
        j_idx = np.concatenate(borders + [cells[1:-1, 1:-1].ravel()])
        i_idx = rng.integers(0, f1.grid.m, j_idx.size)
        ok = fine_in_bounds(f1, f2, cfg, i_idx, j_idx)
        n_border = sum(b.size for b in borders)
        assert not ok[:n_border].any() and ok[n_border:].all()
        params = init_params(cfg, seed=3)
        *_, cache, dropped = refine_fine(f1, f2, params, cfg, i_idx, j_idx, np.ones(j_idx.size))
        assert dropped == np.count_nonzero(~ok) == n_border
        assert_same_bytes(cache["kept"], np.flatnonzero(ok))


class TestRowNormalization:
    BAD = [1, 3, 6, 8]

    def rows(self, rng):
        X = rng.normal(size=(10, 5))
        X[[1, 6]] = 0.0
        X[3] = np.nan
        X[8] = 1e-15
        return X, rng.normal(size=(5, 4))

    def test_embed_matches_masked_reference(self, rng):
        X, W = self.rows(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            D, n = _embed_normalized(X, W)
        D_ref, n_ref = masked_embed_normalized(X, W)
        assert np.all(D[self.BAD] == 0.0)
        assert_same_bytes(D, D_ref)
        assert_same_bytes(n, n_ref)

    def test_backward_matches_masked_reference(self, rng):
        X, W = self.rows(rng)
        D, n = masked_embed_normalized(X, W)
        dD = rng.normal(size=D.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dY = _normalize_backward(dD.copy(), D, n)
        assert np.all(dY[self.BAD] == 0.0)
        assert_same_bytes(dY, masked_normalize_backward(dD, D, n))


class TestForward:
    def test_deterministic(self, rng):
        img1, img2 = random_image(rng), random_image(rng)
        params = init_params(SMALL, seed=7)
        a, _ = forward(img1, img2, params, SMALL)
        b, _ = forward(img1, img2, params, SMALL)
        assert a.C.tobytes() == b.C.tobytes()
        assert np.array_equal(a.coarse_i, b.coarse_i)
        assert a.fine_x2.tobytes() == b.fine_x2.tobytes()

    def test_identical_images_match_diagonally(self, rng):
        img = random_image(rng, 48, 48)
        params = init_params(SMALL, seed=7)
        params.tau_coarse = 0.02
        pred, _ = forward(img, img, params, SMALL)
        assert pred.coarse_i.size >= 0.9 * 36
        assert np.array_equal(pred.coarse_i, pred.coarse_j)

    def test_translation_equivariance(self, rng):
        img1 = random_image(rng, 48, 48)
        img2 = random_image(rng, 48, 48)
        params = init_params(SMALL, seed=8)
        pred, _ = forward(img1, img2, params, SMALL)
        t1 = np.roll(img1, (8, 8), axis=(0, 1))
        t2 = np.roll(img2, (8, 8), axis=(0, 1))
        pred_t, _ = forward(t1, t2, params, SMALL)
        cols = 6
        shifted = set()
        for i, j in zip(pred.coarse_i, pred.coarse_j):
            ri, ci = divmod(int(i), cols)
            rj, cj = divmod(int(j), cols)
            if ri < cols - 1 and ci < cols - 1 and rj < cols - 1 and cj < cols - 1:
                shifted.add(((ri + 1) * cols + ci + 1, (rj + 1) * cols + cj + 1))
        got = set(zip(pred_t.coarse_i.tolist(), pred_t.coarse_j.tolist()))
        assert shifted <= got


def every_entry(G):
    """A dense upstream gradient as the (rows, cols, values) triple backward
    takes, over every entry in row-major order."""
    rows, cols = np.divmod(np.arange(G.size), G.shape[1])
    return rows, cols, G.ravel()


def dense_coarse_backward(cache, dC):
    """Reference coarse backward over a dense (m1, m2) upstream gradient dC:
    the full dual-softmax Jacobian-vector product, every sum over whole rows
    and columns. Returns (dW_coarse, dtau_coarse)."""
    tau = cache["params"].tau_coarse
    cc = cache["coarse"]
    RS, CS, S = cc["RS"], cc["CS"], cc["S"]
    G_RS = dC * CS
    G_CS = dC * RS
    dS = RS * (G_RS - np.sum(G_RS * RS, axis=1, keepdims=True))
    dS += CS * (G_CS - np.sum(G_CS * CS, axis=0, keepdims=True))
    dtau = -float(np.sum(dS * S)) / tau
    dA = dS / tau
    dY1 = masked_normalize_backward(dA @ cc["D2"], cc["D1"], cc["n1"])
    dY2 = masked_normalize_backward(dA.T @ cc["D1"], cc["D2"], cc["n2"])
    return cc["X1"].T @ dY1 + cc["X2"].T @ dY2, dtau


class TestBackward:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_jacobian_finite_differences(self, seed):
        assert matcher_suite(seed) < 1e-4

    def test_zero_upstream_gives_zero_grads(self, rng):
        img1, img2 = random_image(rng), random_image(rng)
        params = init_params(SMALL, seed=11)
        pred, cache = forward(img1, img2, params, SMALL,
                              coarse_override=(np.array([5]), np.array([5])))
        grads = backward(cache, dC=every_entry(np.zeros((16, 16))), dfine=np.zeros((1, 2)))
        assert np.allclose(grads.W_coarse, 0.0)
        assert np.allclose(grads.W_fine, 0.0)
        assert grads.tau_coarse == 0.0 and grads.tau_fine == 0.0

    def test_upstream_linearity(self, rng):
        img1, img2 = random_image(rng), random_image(rng)
        params = init_params(SMALL, seed=12)
        pred, cache = forward(img1, img2, params, SMALL,
                              coarse_override=(np.array([5, 6]), np.array([6, 5])))
        G = rng.normal(size=(16, 16))
        g = rng.normal(size=(pred.fine_x2.shape[0], 2))
        g1 = backward(cache, dC=every_entry(G), dfine=g)
        g3 = backward(cache, dC=every_entry(3.0 * G), dfine=3.0 * g)
        assert np.allclose(g3.W_coarse, 3.0 * g1.W_coarse)
        assert np.allclose(g3.W_fine, 3.0 * g1.W_fine)
        assert g3.tau_coarse == pytest.approx(3.0 * g1.tau_coarse)
        assert g3.tau_fine == pytest.approx(3.0 * g1.tau_fine)


class TestSparseCoarseBackward:
    """backward's coarse block reads only the upstream entries it is given and
    equals the dense reference: byte for byte with one entry per row, within
    a summation-order tolerance when rows repeat."""

    @staticmethod
    def coarse_cache(seed):
        rng = np.random.default_rng(seed)
        f1 = extract_features(random_image(rng, 64, 64), SMALL)
        f2 = extract_features(random_image(rng, 64, 64), SMALL)
        params = init_params(SMALL, seed=seed)
        C, ccache = confidence_matrix(f1, f2, params)
        return rng, C, dict(params=params, coarse=ccache, fine=dict(M=0))

    @staticmethod
    def compare(cache, rows, cols, g):
        dense = np.zeros_like(cache["coarse"]["S"])
        dense[rows, cols] = g
        grads = backward(cache, dC=(rows, cols, g))
        return (grads.W_coarse, grads.tau_coarse), dense_coarse_backward(cache, dense)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_entry_per_row_is_byte_equal(self, seed):
        rng, C, cache = self.coarse_cache(seed)
        m1, m2 = C.shape
        # gt and classification masks: one column per row, columns repeat,
        # some rows empty
        targets = np.where(rng.uniform(size=m1) < 0.8, rng.integers(0, m2 // 4, m1), -1)
        sets = rng.uniform(size=C.shape) > 0.6
        for mask in (gt_classification_mask(targets), epipolar_classification_mask(C, sets)):
            _, (rows, cols, g) = coarse_loss_grad(C, mask)
            (dW, dtau), (ref_dW, ref_dtau) = self.compare(cache, rows, cols, 0.5 * g)
            assert_same_bytes(dW, ref_dW)
            assert dtau == ref_dtau

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_repeated_rows_match_within_summation_order(self, seed):
        rng, C, cache = self.coarse_cache(seed)
        _, naive = coarse_loss_grad(C, naive_epipolar_mask(rng.uniform(size=C.shape) > 0.6))
        for rows, cols, g in (naive, every_entry(rng.normal(size=C.shape))):
            (dW, dtau), (ref_dW, ref_dtau) = self.compare(cache, rows, cols, g)
            assert np.max(np.abs(dW - ref_dW)) <= 1e-12 * np.max(np.abs(ref_dW))
            assert dtau == pytest.approx(ref_dtau, rel=1e-12, abs=0.0)


class TestSgdStep:
    def test_zero_lr_is_identity(self, rng):
        params = init_params(SMALL, seed=0)
        before = params.copy()
        grads = params.zeros_like()
        grads.W_coarse += rng.normal(size=grads.W_coarse.shape)
        sgd_step(params, grads, params.zeros_like(), lr=0.0)
        assert np.array_equal(params.W_coarse, before.W_coarse)

    def test_weight_decay_shrinks(self):
        params = init_params(SMALL, seed=0)
        before = params.copy()
        sgd_step(params, params.zeros_like(), params.zeros_like(), lr=0.1, weight_decay=0.5)
        assert np.allclose(params.W_coarse, before.W_coarse * (1 - 0.1 * 0.5))

    def test_step_decreases_quadratic_toy_loss(self):
        # L = 0.5 * |W_coarse|^2, gradient = W_coarse
        params = init_params(SMALL, seed=1)
        state = params.zeros_like()
        loss0 = 0.5 * np.sum(params.W_coarse ** 2)
        grads = params.zeros_like()
        grads.W_coarse += params.W_coarse
        sgd_step(params, grads, state, lr=0.1)
        assert 0.5 * np.sum(params.W_coarse ** 2) < loss0

    def test_non_finite_gradient_rejected(self):
        params = init_params(SMALL, seed=2)
        grads = params.zeros_like()
        grads.W_fine[0, 0] = np.nan
        with pytest.raises(errors.NonFiniteGradient):
            sgd_step(params, grads, params.zeros_like(), lr=0.1)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(MatcherConfig(), seed=5)
        params.tau_coarse = 0.07
        params.tau_fine = 0.21
        path = tmp_path / "params.bin"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.W_coarse, params.W_coarse)
        assert np.array_equal(loaded.W_fine, params.W_fine)
        assert loaded.tau_coarse == params.tau_coarse
        assert loaded.tau_fine == params.tau_fine

    @pytest.mark.parametrize("where", ["header", "data", "boundary"])
    def test_cut_file_names_itself(self, tmp_path, where):
        path = tmp_path / "params.bin"
        save_checkpoint(path, init_params(MatcherConfig(), seed=5))
        ends = record_ends(path)
        assert len(ends) == 3
        # inside W_fine's header, inside W_fine's data, or just after it
        size = {"header": ends[0] + 20, "data": ends[1] - 100, "boundary": ends[1]}[where]
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["W_coarse", "tau_fine"])
    def test_non_finite_weights_are_refused(self, tmp_path, field):
        params = init_params(MatcherConfig(), seed=5)
        if field == "W_coarse":
            params.W_coarse[3, 1] = np.nan
        else:
            params.tau_fine = np.inf
        with pytest.raises(ValueError, match="checkpoint weights must be finite"):
            save_checkpoint(tmp_path / "refused.bin", params)
        assert not (tmp_path / "refused.bin").exists()
        path = tmp_path / "params.bin"
        write_arrays(path, (params.W_coarse, params.W_fine, (params.tau_coarse, params.tau_fine)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path)

    def test_pair_file_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "pair.bin"
        save_pair_file(path, sample_pair(make_domain("A", seed=0), 0))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(path)
