import re
import warnings
from dataclasses import FrozenInstanceError, asdict, astuple, replace

import numpy as np
import pytest

from epimatch import errors, gradcheck, matcher
from epimatch.errors import write_arrays
from epimatch.gradcheck import WIDE_FINE_CFG, matcher_suite
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
from epimatch.matcher import _NORM_EPS, _TAU_MIN, _embed_normalized, _normalize_backward, _patch_rows, _softmax
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
    n = np.sqrt(np.einsum("ij,ij->i", Y, Y))
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
    """Every stride-s raw fine patch of an image with its centre pixel:
    (rows, cols, (rows * cols, fp * fp) patches, (rows * cols, 2))."""
    fp, s = cfg.fine_patch, cfg.fine_stride
    fr, fc = feats.fine_windows.shape[:2]
    fine = feats.fine_windows.reshape(fr * fc, fp * fp)
    uu, vv = np.meshgrid(np.arange(fc) * s + fp // 2, np.arange(fr) * s + fp // 2)
    centers = np.column_stack([uu.ravel(), vv.ravel()]).astype(float)
    return fr, fc, fine, centers


def refine_fine_loop(feats1, feats2, params, cfg, i_idx, j_idx, conf):
    """Per-match reference for refine_fine over each image's full fine table:
    the fine cell under each coarse centre by scalar rounding, one window
    meshgrid per match, raw windows embedded through the column-centred
    W_fine."""
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
    Wc = params.W_fine - params.W_fine.mean(axis=0)
    e1, _ = masked_embed_normalized(fine1[cidx], Wc)
    E2w, _ = masked_embed_normalized(fine2[widx].reshape(widx.size, -1), Wc)
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
        E = cache["E"]
        assert np.allclose((E / cache["zr"][:, None]).sum(axis=1), 1.0)
        assert np.allclose((E / cache["zc"]).sum(axis=0), 1.0)

    @staticmethod
    def pair_at(kind, tau, seed=0):
        """A 64 x 64 random image against another ("random") or against its
        own negative ("inverted"), whose matching cells have S = -1/tau: the
        shared exponential's smallest entries, exp(-2/tau)."""
        rng = np.random.default_rng(seed)
        img = random_image(rng, 64, 64)
        other = random_image(rng, 64, 64) if kind == "random" else 1.0 - img
        params = init_params(SMALL, seed=seed)
        params.tau_coarse = tau
        return extract_features(img, SMALL), extract_features(other, SMALL), params

    @pytest.mark.parametrize("kind", ["random", "inverted"])
    @pytest.mark.parametrize("tau", [_TAU_MIN, 0.01, 0.1, 1.0, 10.0])
    def test_shared_exponential_equals_the_two_shift_reference(self, kind, tau):
        f1, f2, params = self.pair_at(kind, tau)
        C, cache = confidence_matrix(f1, f2, params)
        RS, CS = textbook_dual_softmax(dict(params=params, coarse=cache))
        want = RS * CS
        assert np.isfinite(C).all()
        big = want > 1e-200
        assert np.max(np.abs(C[big] - want[big]) / want[big]) <= 1e-12
        assert np.all(np.abs(C[~big]) <= 1e-199)

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


# the fine stage at its widest tested setting: 8 px patches at stride 1 and
# 11 x 11 correlation windows
WIDE = MatcherConfig(fine_patch=8, fine_stride=1, window_radius=5)


class TestRefineFine:
    @pytest.mark.parametrize("cfg,shape", [(SMALL, (32, 32)), (SMALL, (48, 80)),
                                           (MatcherConfig(), (64, 96)), (ODD, (32, 48)), (WIDE, (64, 96))])
    def test_matches_per_match_loop(self, rng, cfg, shape):
        img1, img2 = random_image(rng, *shape), random_image(rng, *shape)
        f1, f2 = extract_features(img1, cfg), extract_features(img2, cfg)
        params = init_params(cfg, seed=3)
        m, cols = f1.grid.m, f1.grid.cols
        border = np.array([0, cols - 1, m - cols, m - 1, cols, 2 * cols - 1])
        interior = np.array([2 * cols + 2, 2 * cols + 3])
        i_idx = np.concatenate([rng.integers(0, m, 60), border, interior, [interior[0]] * 3])
        j_idx = np.concatenate([rng.integers(0, m, 60), interior[[0, 1, 0, 1, 0, 1]], border[:2],
                                [interior[1]] * 3])
        pred, _ = forward(img1, img2, params, cfg, coarse_override=(i_idx, j_idx))
        want = refine_fine_loop(f1, f2, params, cfg, i_idx, j_idx, pred.C[i_idx, j_idx])
        ok = fine_in_bounds(f1, f2, cfg, i_idx, j_idx)
        assert_same_bytes(np.flatnonzero(ok), want[3]["kept"])
        x1s, x2s, cache = refine_fine(f1, f2, params, cfg, i_idx[ok], j_idx[ok])
        assert cache["M"] == np.count_nonzero(ok)
        for got in ((x1s, x2s), (pred.fine_x1, pred.fine_x2)):
            assert_same_bytes(got[0], want[0])
            assert_same_bytes(got[1], want[1])
        assert_same_bytes(pred.fine_conf, want[2])
        assert pred.dropped == want[4] and 0 < pred.dropped < i_idx.size

    @pytest.mark.parametrize("cfg", [SMALL, WIDE])
    def test_gathers_only_the_rows_the_matches_read(self, rng, cfg, monkeypatch):
        # one centre window per match in image 1 and (2r + 1)^2 windows per
        # match in image 2, not image 2's whole fine grid, and no normalized
        # copy of any of them
        img1, img2 = random_image(rng, 64, 64), random_image(rng, 64, 64)
        f1, f2 = extract_features(img1, cfg), extract_features(img2, cfg)
        i_idx = np.flatnonzero(fine_in_bounds(f1, f2, cfg, np.arange(f1.grid.m), np.arange(f2.grid.m)))
        M = i_idx.size
        assert M > 1
        calls = []
        monkeypatch.setattr(matcher, "_patch_rows", lambda stack: calls.append(len(stack)))
        _, _, cache = refine_fine(f1, f2, init_params(cfg, seed=3), cfg, i_idx, i_idx)
        assert not calls
        assert cache["Xf1"].shape == (M, cfg.d_in_fine)
        assert cache["Xf2"].shape == (M * (2 * cfg.window_radius + 1) ** 2, cfg.d_in_fine)

    @pytest.mark.parametrize("cfg", [SMALL, ODD])
    def test_empty_and_all_dropped(self, rng, cfg):
        img1, img2 = random_image(rng), random_image(rng)
        f1, f2 = extract_features(img1, cfg), extract_features(img2, cfg)
        params = init_params(cfg, seed=3)
        for idx in (np.zeros(0, int), np.array([0, 0])):
            assert not fine_in_bounds(f1, f2, cfg, idx, idx).any()
            pred, cache = forward(img1, img2, params, cfg, coarse_override=(idx, idx))
            assert pred.fine_x1.shape == pred.fine_x2.shape == (0, 2) and pred.fine_conf.shape == (0,)
            assert cache["fine"] == dict(M=0) and pred.dropped == idx.size

    def test_flat_window_gives_window_centre(self, rng):
        # textureless image 2: uniform heatmap, soft-argmax = window centre
        img1 = random_image(rng)
        img2 = np.zeros((32, 32))
        f1 = extract_features(img1, SMALL)
        f2 = extract_features(img2, SMALL)
        params = init_params(SMALL, seed=0)
        i_idx = np.array([5])  # cell (1,1): centre (12,12), interior
        j_idx = np.array([5])
        assert fine_in_bounds(f1, f2, SMALL, i_idx, j_idx).all()
        x1s, x2s, cache = refine_fine(f1, f2, params, SMALL, i_idx, j_idx)
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
        assert fine_in_bounds(f1, f2, SMALL, i_idx, i_idx).all()
        x1s, x2s, cache = refine_fine(f1, f2, params, SMALL, i_idx, i_idx)
        err = x2s - (x1s + np.array([2.0, -2.0]))
        assert np.max(np.abs(err)) < 0.5

    def test_refined_point_inside_window_hull(self, rng):
        img1, img2 = random_image(rng), random_image(rng)
        f1 = extract_features(img1, SMALL)
        f2 = extract_features(img2, SMALL)
        params = init_params(SMALL, seed=4)
        i_idx = np.array([5, 6, 9, 10])
        x1s, x2s, cache = refine_fine(f1, f2, params, SMALL, i_idx, i_idx)
        for k in range(x2s.shape[0]):
            lo = cache["coords"][k].min(axis=0)
            hi = cache["coords"][k].max(axis=0)
            assert np.all(x2s[k] >= lo - 1e-12) and np.all(x2s[k] <= hi + 1e-12)

    def test_border_windows_dropped_with_counter(self, rng):
        img1, img2 = random_image(rng), random_image(rng)
        f1, f2 = extract_features(img1, SMALL), extract_features(img2, SMALL)
        i_idx = np.array([0])  # corner cell: window leaves the fine grid
        assert not fine_in_bounds(f1, f2, SMALL, i_idx, i_idx).any()
        pred, _ = forward(img1, img2, init_params(SMALL, seed=4), SMALL, coarse_override=(i_idx, i_idx))
        assert pred.dropped == 1 and len(pred.fine_x2) == 0
        assert type(pred.dropped) is int

    @pytest.mark.parametrize("cfg,shape", [(SMALL, (32, 32)), (SMALL, (48, 80)), (MatcherConfig(), (64, 96))])
    def test_one_drop_rule_on_every_border(self, rng, cfg, shape):
        # image 2 cells on the top, bottom, left and right borders: their
        # windows leave the fine grid; interior cells keep theirs
        img1, img2 = random_image(rng, *shape), random_image(rng, *shape)
        f1, f2 = extract_features(img1, cfg), extract_features(img2, cfg)
        rows, cols = f2.grid.rows, f2.grid.cols
        cells = np.arange(f2.grid.m).reshape(rows, cols)
        borders = [cells[0], cells[-1], cells[:, 0], cells[:, -1]]
        j_idx = np.concatenate(borders + [cells[1:-1, 1:-1].ravel()])
        i_idx = rng.integers(0, f1.grid.m, j_idx.size)
        ok = fine_in_bounds(f1, f2, cfg, i_idx, j_idx)
        n_border = sum(b.size for b in borders)
        assert not ok[:n_border].any() and ok[n_border:].all()
        params = init_params(cfg, seed=3)
        pred, _ = forward(img1, img2, params, cfg, coarse_override=(i_idx, j_idx))
        assert pred.dropped == np.count_nonzero(~ok) == n_border
        assert_same_bytes(pred.fine_x1, f1.grid.cell_centers()[i_idx[ok]])


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


class TestFoldedFineEmbedding:
    """refine_fine embeds raw windows through W_c = W - W.mean(axis=0), which
    equals embedding the mean-subtracted, unit-norm windows through W."""

    @staticmethod
    def both_forms(X, W):
        folded, _ = _embed_normalized(X, W - W.mean(axis=0))
        reference, _ = _embed_normalized(_patch_rows(X), W)
        return folded, reference

    @pytest.mark.parametrize("cfg", [SMALL, ODD, WIDE])
    def test_random_windows(self, rng, cfg):
        X = rng.uniform(0.0, 1.0, (200, cfg.d_in_fine))
        folded, reference = self.both_forms(X, init_params(cfg, seed=5).W_fine)
        assert np.max(np.abs(folded - reference)) <= 1e-12

    @pytest.mark.parametrize("cfg", [SMALL, ODD, WIDE])
    def test_near_flat_windows(self, rng, cfg):
        # both forms lose about 9 of their 16 digits to cancellation here
        X = 0.5 + 1e-9 * rng.uniform(0.0, 1.0, (200, cfg.d_in_fine))
        folded, reference = self.both_forms(X, init_params(cfg, seed=5).W_fine)
        assert np.isfinite(folded).all()
        assert np.allclose(np.linalg.norm(folded, axis=1), 1.0)
        assert np.max(np.abs(folded - reference)) <= 1e-5

    @pytest.mark.parametrize("cfg", [SMALL, ODD, WIDE])
    def test_constant_windows_give_zero_rows(self, cfg):
        X = np.repeat([0.0, 0.3, 0.5, 1.0], cfg.d_in_fine).reshape(4, -1)
        folded, reference = self.both_forms(X, init_params(cfg, seed=5).W_fine)
        assert np.all(folded == 0.0) and np.all(reference == 0.0)


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


def textbook_dual_softmax(cache):
    """The row and column softmaxes RS and CS of S = D1 D2^T / tau_coarse,
    each shifted by its own row or column maximum."""
    cc = cache["coarse"]
    S = (cc["D1"] / cache["params"].tau_coarse) @ cc["D2"].T
    return _softmax(S, axis=1), _softmax(S, axis=0)


def dense_dS(cache, dC):
    """The gradient on the scaled similarities S = D1 D2^T / tau_coarse under
    a dense (m1, m2) upstream gradient dC: the textbook dual-softmax
    Jacobian-vector product, every sum over whole rows and columns."""
    RS, CS = textbook_dual_softmax(cache)
    G_RS = dC * CS
    G_CS = dC * RS
    dS = RS * (G_RS - np.sum(G_RS * RS, axis=1, keepdims=True))
    dS += CS * (G_CS - np.sum(G_CS * CS, axis=0, keepdims=True))
    return dS


def dense_coarse_backward(cache, dC):
    """Reference coarse backward over a dense (m1, m2) upstream gradient dC,
    with tau_coarse's gradient from the (m, d) products:
    sum(dS * S) = sum((dS @ D2) * D1) / tau. Returns (dW_coarse, dtau_coarse)."""
    tau = cache["params"].tau_coarse
    cc = cache["coarse"]
    dS = dense_dS(cache, dC)
    dD1 = dS @ cc["D2"]
    dtau = -float(np.einsum("ij,ij->", dD1, cc["D1"])) / (tau * tau)
    dY1 = masked_normalize_backward(dD1 / tau, cc["D1"], cc["n1"])
    dY2 = masked_normalize_backward(dS.T @ cc["D1"] / tau, cc["D2"], cc["n2"])
    return cc["X1"].T @ dY1 + cc["X2"].T @ dY2, dtau


class TestBackward:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_jacobian_finite_differences(self, seed):
        assert max(matcher_suite(seed)) < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_jacobian_at_wide_fine_settings(self, seed):
        assert (WIDE_FINE_CFG.fine_patch, WIDE_FINE_CFG.fine_stride, WIDE_FINE_CFG.window_radius) == (8, 1, 5)
        assert max(matcher_suite(seed, cfg=WIDE_FINE_CFG)) < 1e-4

    @pytest.mark.parametrize("stage", ["coarse", "fine"])
    def test_each_stage_reports_its_own_error(self, monkeypatch, stage):
        # a sign flip in one stage's weight gradient shows in that stage's
        # error and in that stage's gradcheck rows only
        def flipped(*args, **kwargs):
            grads = backward(*args, **kwargs)
            setattr(grads, f"W_{stage}", -getattr(grads, f"W_{stage}"))
            return grads

        monkeypatch.setattr(gradcheck, "backward", flipped)
        errs = dict(zip(("coarse", "fine"), matcher_suite(0)))
        assert errs[stage] > 1e-4 and max(v for k, v in errs.items() if k != stage) < 1e-4
        rows = gradcheck.run_gradcheck(d_epi_instances=50, matcher_seeds=1)["components"][1:]
        assert [name for name, _, _ in rows] == [
            "matcher coarse backward jacobian", "matcher fine backward jacobian",
            "matcher coarse backward jacobian, 8/1/5 fine stage", "matcher fine backward jacobian, 8/1/5 fine stage"]
        assert [name.startswith(f"matcher {stage} ") for name, _, _ in rows] == [err >= bound for _, err, bound in rows]

    def test_fine_gradient_matches_the_outer_product_form(self, rng):
        # backward takes each window row's gradient in closed form; the
        # reference forms the (M * Kw, d_fine) outer product dcorr_mk e1_m and
        # runs it through the masked normalization backward. A flat block in
        # image 2 gives zero window rows, whose gradient is zero
        img1, img2 = random_image(rng), random_image(rng)
        img2[8:24, 8:24] = 0.5
        params = init_params(SMALL, seed=6)
        pins = (np.array([5, 6, 9, 10]), np.array([5, 10, 6, 9]))
        pred, cache = forward(img1, img2, params, SMALL, coarse_override=pins)
        fc = cache["fine"]
        zero_rows = fc["n2w"] <= _NORM_EPS
        assert pred.dropped == 0 and 0 < np.count_nonzero(zero_rows) < zero_rows.size
        g = rng.normal(size=(4, 2))
        got = backward(cache, dfine=g).W_fine

        tau, p, e1, E2w = params.tau_fine, fc["p"], fc["e1"], fc["E2w"]
        dp = np.einsum("mc,mkc->mk", g, fc["coords"])
        dcorr = p * (dp - np.sum(dp * p, axis=1, keepdims=True)) / tau
        de1 = np.einsum("mk,mkd->md", dcorr, E2w.reshape(*dcorr.shape, -1))
        dE2w = (dcorr[:, :, None] * e1[:, None, :]).reshape(E2w.shape)
        want = (fc["Xf1"].T @ masked_normalize_backward(de1, e1, fc["nf1"])
                + fc["Xf2"].T @ masked_normalize_backward(dE2w, E2w, fc["n2w"]))
        want -= want.mean(axis=0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

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
    equals the textbook dense reference to 1e-12 of its largest entry, with
    one entry per row and when rows repeat: off the entries backward forms
    dS as E * (-a / zr - b / zc), the reference as RS * (-a) + CS * (-b)."""

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
        dense = np.zeros_like(cache["coarse"]["E"])
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
            assert np.max(np.abs(dW - ref_dW)) <= 1e-12 * np.max(np.abs(ref_dW))
            assert dtau == pytest.approx(ref_dtau, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_repeated_rows_match_within_summation_order(self, seed):
        rng, C, cache = self.coarse_cache(seed)
        _, naive = coarse_loss_grad(C, naive_epipolar_mask(rng.uniform(size=C.shape) > 0.6))
        for rows, cols, g in (naive, every_entry(rng.normal(size=C.shape))):
            (dW, dtau), (ref_dW, ref_dtau) = self.compare(cache, rows, cols, g)
            assert np.max(np.abs(dW - ref_dW)) <= 1e-12 * np.max(np.abs(ref_dW))
            assert dtau == pytest.approx(ref_dtau, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", ["random", "inverted"])
    @pytest.mark.parametrize("tau", [_TAU_MIN, 0.01, 0.1, 1.0, 10.0])
    def test_dense_upstream_at_every_temperature(self, kind, tau):
        f1, f2, params = TestConfidenceMatrix.pair_at(kind, tau)
        C, ccache = confidence_matrix(f1, f2, params)
        cache = dict(params=params, coarse=ccache, fine=dict(M=0))
        G = np.random.default_rng(5).normal(size=C.shape)
        (dW, dtau), (ref_dW, ref_dtau) = self.compare(cache, *every_entry(G))
        assert np.max(np.abs(dW - ref_dW)) <= 1e-12 * np.max(np.abs(ref_dW))
        assert dtau == pytest.approx(ref_dtau, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tau_gradient_equals_dense_similarity_sum(self, seed):
        # backward never forms S; its tau_coarse gradient equals the dense
        # -sum(dS * S) / tau over the (m1, m2) similarities
        rng, C, cache = self.coarse_cache(seed)
        cc, tau = cache["coarse"], cache["params"].tau_coarse
        G = rng.normal(size=C.shape)
        S = cc["D1"] @ cc["D2"].T / tau
        want = -float(np.sum(dense_dS(cache, G) * S)) / tau
        got = backward(cache, dC=every_entry(G)).tau_coarse
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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

    def test_temperatures_clamp_at_the_floor_and_ceiling(self):
        params = init_params(SMALL, seed=2)
        params.tau_coarse = 0.006
        params.tau_fine = 9.0
        grads = params.zeros_like()
        grads.tau_coarse, grads.tau_fine = 1e5, -1e3  # drive tau_coarse down, tau_fine up
        sgd_step(params, grads, params.zeros_like(), lr=0.1)
        assert (params.tau_coarse, params.tau_fine) == (_TAU_MIN, 10.0) == (5e-3, 10.0)


class TestMatcherConfig:
    # unchecked, fine_patch=0 gave NaN matches, fine_stride=0 a zero slice
    # step, patch_width=0 a ZeroDivisionError, and d=0 or a threshold above 1
    # silently gave no match
    @pytest.mark.parametrize("change", [dict(fine_patch=0), dict(fine_stride=0), dict(patch_width=0), dict(d=0),
                                        dict(window_radius=-1), dict(match_threshold=2.0), dict(d_fine=True)],
                             ids=["fine_patch", "fine_stride", "patch_width", "d", "window_radius",
                                  "match_threshold", "bool_size"])
    def test_bad_config_is_refused_when_built(self, change):
        with pytest.raises(ValueError, match=f"^{next(iter(change))} must "):
            MatcherConfig(**change)

    def test_config_is_frozen(self):
        mcfg = MatcherConfig()
        with pytest.raises(FrozenInstanceError):
            mcfg.d = 8


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(SMALL, seed=5)
        params.tau_coarse = 0.07
        params.tau_fine = 0.21
        path = tmp_path / "params.bin"
        save_checkpoint(path, params, SMALL)
        loaded, mcfg = load_checkpoint(path)
        assert np.array_equal(loaded.W_coarse, params.W_coarse)
        assert np.array_equal(loaded.W_fine, params.W_fine)
        assert loaded.tau_coarse == params.tau_coarse
        assert loaded.tau_fine == params.tau_fine
        assert mcfg == SMALL
        assert [type(v) for v in astuple(mcfg)] == [type(v) for v in astuple(SMALL)]

    @pytest.mark.parametrize("where", ["header", "data", "boundary"])
    def test_cut_file_names_itself(self, tmp_path, where):
        path = tmp_path / "params.bin"
        save_checkpoint(path, init_params(MatcherConfig(), seed=5), MatcherConfig())
        ends = record_ends(path)
        assert len(ends) == 4
        # inside W_fine's header, inside W_fine's data, or just after it
        size = {"header": ends[0] + 20, "data": ends[1] - 100, "boundary": ends[1]}[where]
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path)

    @staticmethod
    def write_records(path, params, mcfg_values):
        write_arrays(path, (params.W_coarse, params.W_fine, (params.tau_coarse, params.tau_fine), mcfg_values))

    @pytest.mark.parametrize("field", ["W_coarse", "tau_fine"])
    def test_non_finite_weights_are_refused(self, tmp_path, field):
        params = init_params(MatcherConfig(), seed=5)
        if field == "W_coarse":
            params.W_coarse[3, 1] = np.nan
        else:
            params.tau_fine = np.inf
        with pytest.raises(ValueError, match="checkpoint weights must be finite"):
            save_checkpoint(tmp_path / "refused.bin", params, MatcherConfig())
        assert not (tmp_path / "refused.bin").exists()
        path = tmp_path / "params.bin"
        self.write_records(path, params, astuple(MatcherConfig()))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint weights must be finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["tau_coarse", "tau_fine"])
    @pytest.mark.parametrize("value", [0.0, -0.5, 1e-4, 1e-3, 10.5, 1e6])
    def test_temperature_outside_the_clamp_is_refused(self, tmp_path, field, value):
        # a zero tau_coarse makes forward's C non-finite, with no match; below
        # 5e-3 confidence_matrix's shared exponential exp(S - 1/tau) can
        # underflow past the normal doubles
        params = init_params(MatcherConfig(), seed=5)
        setattr(params, field, value)
        with pytest.raises(ValueError, match=r"checkpoint temperatures must lie in \[0.005, 10.0\]"):
            save_checkpoint(tmp_path / "refused.bin", params, MatcherConfig())
        assert not (tmp_path / "refused.bin").exists()
        path = tmp_path / "params.bin"
        self.write_records(path, params, astuple(MatcherConfig()))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint temperatures must lie"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [_TAU_MIN, 10.0])
    def test_temperatures_at_the_clamp_are_kept(self, tmp_path, value):
        params = init_params(MatcherConfig(), seed=5)
        params.tau_coarse = params.tau_fine = value
        save_checkpoint(tmp_path / "params.bin", params, MatcherConfig())
        loaded, _ = load_checkpoint(tmp_path / "params.bin")
        assert loaded.tau_coarse == loaded.tau_fine == value

    @pytest.mark.parametrize("change", [dict(d=8), dict(patch_width=4), dict(fine_patch=3), dict(d_fine=6)])
    def test_weights_shaped_by_another_config_are_refused(self, tmp_path, change):
        params = init_params(MatcherConfig(), seed=5)
        other = replace(MatcherConfig(), **change)
        with pytest.raises(ValueError, match="weight shapes .* disagree with"):
            save_checkpoint(tmp_path / "refused.bin", params, other)
        assert not (tmp_path / "refused.bin").exists()
        path = tmp_path / "params.bin"
        self.write_records(path, params, astuple(other))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: weight shapes .* disagree with"):
            load_checkpoint(path)

    def refused_record(self, tmp_path, change, message):
        """Assert that MatcherConfig(**change) is refused, and that a
        checkpoint whose config record is the default one with `change`
        swapped in is refused on load with `message`, naming the file."""
        with pytest.raises(ValueError):
            MatcherConfig(**change)
        path = tmp_path / "params.bin"
        self.write_records(path, init_params(MatcherConfig(), seed=5),
                           tuple({**asdict(MatcherConfig()), **change}.values()))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint {message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [2.5, np.nan, np.inf])
    def test_size_field_that_is_not_a_whole_number_is_refused(self, tmp_path, value):
        self.refused_record(tmp_path, dict(window_radius=value), "size fields must be whole numbers")

    @pytest.mark.parametrize("change", [dict(patch_width=0), dict(fine_patch=0), dict(fine_stride=0),
                                        dict(d=0), dict(d_fine=-2), dict(window_radius=-1)],
                             ids=["patch_width", "fine_patch", "fine_stride", "d", "d_fine", "window_radius"])
    def test_size_below_its_minimum_is_refused(self, tmp_path, change):
        (name, value), = change.items()
        minimum = 0 if name == "window_radius" else 1
        self.refused_record(tmp_path, change, f"{name} must be a whole number >= {minimum}, got {value}")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.1, 1.5])
    def test_match_threshold_outside_the_unit_interval_is_refused(self, tmp_path, value):
        self.refused_record(tmp_path, dict(match_threshold=value), r"match_threshold must lie in \[0, 1\]")

    @pytest.mark.parametrize("change", [dict(window_radius=0), dict(match_threshold=0.0),
                                        dict(match_threshold=1.0)])
    def test_sizes_and_threshold_at_their_limits_are_kept(self, tmp_path, change):
        mcfg = replace(MatcherConfig(), **change)
        save_checkpoint(tmp_path / "params.bin", init_params(mcfg, seed=5), mcfg)
        assert load_checkpoint(tmp_path / "params.bin")[1] == mcfg

    def test_three_record_checkpoint_is_refused(self, tmp_path):
        # the weights-only layout that had no config record
        params = init_params(MatcherConfig(), seed=5)
        path = tmp_path / "params.bin"
        write_arrays(path, (params.W_coarse, params.W_fine, (params.tau_coarse, params.tau_fine)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a file of 4 array records"):
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
