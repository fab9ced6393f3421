"""Minimal trainable coarse-to-fine matcher.

Coarse stage: raw w x w intensity patches (mean-subtracted, unit-norm) are
linearly embedded, re-normalized and compared by dual-softmax over scaled
inner products. Fine stage: around each coarse match, a correlation heatmap
between fine-patch embeddings feeds a soft-argmax that yields a subpixel
match. Both stages backpropagate exactly into the two embedding matrices and
their own softmax temperatures. `MatcherParams` is the one parameter-shaped
type: the weights, `backward`'s gradients and `sgd_step`'s momentum velocity
are all `MatcherParams`.

A coarse match is refined only when `fine_in_bounds` holds for it, the one
drop rule. `forward` runs every stage on the matches it selects; the training
step calls the stages itself and refines only the rows its fine loss reads,
so `backward` takes a fine gradient for exactly the rows `refine_fine` got.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions, NonFiniteGradient, read_arrays, write_arrays
from .grid import GridSpec

_NORM_EPS = 1e-12
_TAU_MIN = 1e-3


@dataclass
class MatcherConfig:
    patch_width: int = 8
    fine_patch: int = 4
    fine_stride: int = 2
    d: int = 32
    d_fine: int = 16
    window_radius: int = 3
    match_threshold: float = 0.2

    @property
    def d_in(self):
        return self.patch_width ** 2

    @property
    def d_in_fine(self):
        return self.fine_patch ** 2


@dataclass
class MatcherParams:
    """Two linear embeddings plus per-stage softmax temperatures; gradients
    and SGD velocities have the same shape and are MatcherParams too.

    A single shared temperature would set the stages against each other: the
    fine stage prefers flatter heatmaps on weak texture, which would also
    flatten the coarse selection, so each stage owns its temperature.
    """

    W_coarse: np.ndarray  # (d_in, d)
    W_fine: np.ndarray  # (d_in_fine, d_fine)
    tau_coarse: float
    tau_fine: float

    def copy(self):
        return MatcherParams(self.W_coarse.copy(), self.W_fine.copy(),
                             float(self.tau_coarse), float(self.tau_fine))

    def zeros_like(self):
        return MatcherParams(np.zeros_like(self.W_coarse), np.zeros_like(self.W_fine), 0.0, 0.0)

    def scaled(self, c):
        return MatcherParams(c * self.W_coarse, c * self.W_fine,
                             c * self.tau_coarse, c * self.tau_fine)

    def add_(self, other):
        self.W_coarse += other.W_coarse
        self.W_fine += other.W_fine
        self.tau_coarse += other.tau_coarse
        self.tau_fine += other.tau_fine
        return self

    def finite(self):
        return all(np.isfinite(a).all() for a in (self.W_coarse, self.W_fine, self.tau_coarse, self.tau_fine))


def init_params(cfg: MatcherConfig, seed=0) -> MatcherParams:
    rng = np.random.default_rng(seed)
    Wc = rng.normal(0.0, 1.0 / np.sqrt(cfg.d_in), (cfg.d_in, cfg.d))
    Wf = rng.normal(0.0, 1.0 / np.sqrt(cfg.d_in_fine), (cfg.d_in_fine, cfg.d_fine))
    return MatcherParams(Wc, Wf, tau_coarse=0.1, tau_fine=0.1)


@dataclass
class ImageFeatures:
    """Coarse descriptors of one image and its fine windows: a read-only
    strided view of the image (no copy), which refine_fine normalizes per
    call where it reads them."""

    coarse: np.ndarray  # (m, d_in)
    grid: GridSpec
    fine_windows: np.ndarray  # (fr, fc, fp, fp) view, stride fine_stride


def _patch_rows(stack):
    """Mean-subtract and unit-normalize flattened (N, k) patches; flat
    patches come out as zero rows."""
    x = stack - stack.mean(axis=1, keepdims=True)
    n = np.linalg.norm(x, axis=1)
    flat = n < _NORM_EPS
    x /= np.where(flat, 1.0, n)[:, None]
    x[flat] = 0.0
    return x


def extract_features(image, cfg: MatcherConfig) -> ImageFeatures:
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise BadDimensions("expected a 2D intensity grid")
    H, W = image.shape
    w = cfg.patch_width
    if H % w or W % w:
        raise BadDimensions(f"image {H}x{W} not a multiple of patch width {w}")
    grid = GridSpec.for_image(H, W, w)
    blocks = image.reshape(grid.rows, w, grid.cols, w).transpose(0, 2, 1, 3)
    coarse = _patch_rows(blocks.reshape(grid.m, w * w))
    fp, s = cfg.fine_patch, cfg.fine_stride
    windows = np.lib.stride_tricks.sliding_window_view(image, (fp, fp))[::s, ::s]
    return ImageFeatures(coarse, grid, windows)


def _embed_normalized(X, W):
    """Rows of (N, d_in) X @ W scaled to unit norm; returns (D, norms).

    Rows whose norm is not above _NORM_EPS (zero or NaN) come out as zeros.
    """
    D = X @ W
    n = np.linalg.norm(D, axis=1)
    good = n > _NORM_EPS
    D /= np.where(good, n, 1.0)[:, None]
    D[~good] = 0.0
    return D, n


def _softmax(z, axis):
    """Softmax of z along axis in one fresh array; z is left unchanged."""
    e = z - z.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def confidence_matrix(feats1: ImageFeatures, feats2: ImageFeatures, params: MatcherParams):
    """Dual-softmax confidence over embedded coarse descriptors.

    Returns the (m1, m2) confidence array, in [0, 1], and the cache dict for
    backward.
    """
    D1, n1 = _embed_normalized(feats1.coarse, params.W_coarse)
    D2, n2 = _embed_normalized(feats2.coarse, params.W_coarse)
    S = D1 @ D2.T
    S /= params.tau_coarse
    RS = _softmax(S, axis=1)
    CS = _softmax(S, axis=0)
    C = RS * CS
    cache = dict(D1=D1, D2=D2, n1=n1, n2=n2, S=S, RS=RS, CS=CS,
                 X1=feats1.coarse, X2=feats2.coarse)
    return C, cache


def select_coarse(C_values, match_threshold):
    """Mutual-argmax matches with confidence >= threshold, ordered by row."""
    if C_values.size == 0:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    row_best = np.argmax(C_values, axis=1)
    col_best = np.argmax(C_values, axis=0)
    rows = np.arange(C_values.shape[0])
    mutual = col_best[row_best] == rows
    conf = C_values[rows, row_best]
    keep = mutual & (conf >= match_threshold)
    return rows[keep], row_best[keep], conf[keep]


def _fine_cells(feats: ImageFeatures, idx, cfg: MatcherConfig):
    """The fine cell (row p, column q) centred on each coarse cell centre."""
    uv = feats.grid.cell_centers()[np.asarray(idx, int)]
    q, p = np.rint((uv - cfg.fine_patch // 2) / cfg.fine_stride).astype(int).T
    return p, q


def fine_in_bounds(feats1: ImageFeatures, feats2: ImageFeatures, cfg: MatcherConfig, i_idx, j_idx):
    """True for each coarse match the fine stage can refine: image 1's centre
    cell lies on its fine grid and image 2's whole correlation window on its
    own. The single drop rule of refine_fine and of the training step."""
    r = cfg.window_radius
    fr1, fc1 = feats1.fine_windows.shape[:2]
    fr2, fc2 = feats2.fine_windows.shape[:2]
    p1, q1 = _fine_cells(feats1, i_idx, cfg)
    p2, q2 = _fine_cells(feats2, j_idx, cfg)
    return ((p1 >= 0) & (p1 < fr1) & (q1 >= 0) & (q1 < fc1)
            & (p2 >= r) & (p2 + r < fr2) & (q2 >= r) & (q2 + r < fc2))


def refine_fine(feats1: ImageFeatures, feats2: ImageFeatures, params: MatcherParams,
                cfg: MatcherConfig, i_idx, j_idx, conf):
    """Soft-argmax refinement of coarse matches.

    Returns (x1s, x2s, conf_kept, cache, dropped) where x1s are coarse cell
    centres in image 1 and x2s the refined subpixel matches in image 2.
    Matches that fail fine_in_bounds are dropped. Fine rows are built per
    call: image 1's kept centre patches, and image 2's whole window grid
    once, only when a match is kept.
    """
    r = cfg.window_radius
    fp, s = cfg.fine_patch, cfg.fine_stride
    fr2, fc2 = feats2.fine_windows.shape[:2]
    kept = np.flatnonzero(fine_in_bounds(feats1, feats2, cfg, i_idx, j_idx))
    dropped = len(i_idx) - len(kept)
    if not len(kept):
        return np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0), dict(M=0), dropped

    i_kept = np.asarray(i_idx, int)[kept]
    p1, q1 = _fine_cells(feats1, i_kept, cfg)
    p2, q2 = _fine_cells(feats2, np.asarray(j_idx, int)[kept], cfg)
    dp, dq = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    pw = p2[:, None] + dp.ravel()  # (M, Kw) window cells in image 2
    qw = q2[:, None] + dq.ravel()
    M, Kw = pw.shape
    Xf1 = _patch_rows(feats1.fine_windows[p1, q1].reshape(M, -1))
    Xf2 = _patch_rows(feats2.fine_windows.reshape(fr2 * fc2, -1))[pw * fc2 + qw]  # (M, Kw, d_in_f)
    e1, nf1 = _embed_normalized(Xf1, params.W_fine)
    E2w, n2w = _embed_normalized(Xf2.reshape(M * Kw, -1), params.W_fine)
    E2w = E2w.reshape(M, Kw, -1)
    corr = np.einsum("mkd,md->mk", E2w, e1)
    logits = corr / params.tau_fine
    p = _softmax(logits, axis=1)
    coords = np.stack([qw * s + fp // 2, pw * s + fp // 2], axis=-1).astype(float)  # (M, Kw, 2)
    x2s = np.einsum("mk,mkc->mc", p, coords)
    x1s = feats1.grid.cell_centers()[i_kept]
    cache = dict(M=M, kept=kept, Xf1=Xf1, Xf2=Xf2,
                 e1=e1, nf1=nf1, E2w=E2w, n2w=n2w, corr=corr, p=p, coords=coords)
    return x1s, x2s, np.asarray(conf)[kept], cache, dropped


@dataclass
class MatchPrediction:
    C: np.ndarray  # (m1, m2) coarse confidence
    coarse_i: np.ndarray
    coarse_j: np.ndarray
    fine_x1: np.ndarray  # (M, 2) coarse cell centres, image 1
    fine_x2: np.ndarray  # (M, 2) refined subpixel matches, image 2
    fine_conf: np.ndarray
    dropped: int = 0


def forward(image1, image2, params: MatcherParams, cfg: MatcherConfig, coarse_override=None):
    """Full two-stage pass. Returns (MatchPrediction, cache).

    coarse_override: optional (i_idx, j_idx) arrays to refine instead of the
    mutual-argmax selection (teacher forcing, as in gradcheck).
    """
    f1 = extract_features(image1, cfg)
    f2 = extract_features(image2, cfg)
    C, ccache = confidence_matrix(f1, f2, params)
    if coarse_override is None:
        i_idx, j_idx, conf = select_coarse(C, cfg.match_threshold)
    else:
        i_idx, j_idx = (np.asarray(a, int) for a in coarse_override)
        conf = C[i_idx, j_idx]
    x1s, x2s, conf_kept, fcache, dropped = refine_fine(f1, f2, params, cfg, i_idx, j_idx, conf)
    pred = MatchPrediction(C, i_idx, j_idx, x1s, x2s, conf_kept, dropped)
    cache = dict(params=params, coarse=ccache, fine=fcache)
    return pred, cache


def _normalize_backward(dD, D, n):
    """Backward through row normalization d = y / |y| (zero rows pass zeros),
    computed in dD's own buffer, which it returns."""
    good = n > _NORM_EPS
    dot = np.einsum("ij,ij->i", dD, D)
    dD -= D * dot[:, None]
    dD /= np.where(good, n, 1.0)[:, None]
    dD[~good] = 0.0
    return dD


def backward(cache, dC=None, dfine=None) -> MatcherParams:
    """Exact reverse-mode gradients of the forward pass, as a MatcherParams
    whose fields are the gradients of the same-named parameters.

    dC: upstream gradient on the confidence matrix as a (rows, cols, g)
    triple: g[k] is the gradient on entry (rows[k], cols[k]), every other
    entry has gradient zero, and no entry appears twice. Row sums add a row's
    entries in the order given, so one entry per row reproduces the dense
    dual-softmax backward bit for bit.
    dfine: (M, 2) upstream gradient on the refined match coordinates, in the
    order of the prediction's fine matches.
    """
    params: MatcherParams = cache["params"]
    grads = params.zeros_like()

    if dC is not None and np.any(dC[2]):
        tau = params.tau_coarse
        cc = cache["coarse"]
        RS, CS, S = cc["RS"], cc["CS"], cc["S"]
        rows, cols, g = dC
        rs, cs = RS[rows, cols], CS[rows, cols]
        g_rs = g * cs  # dC * CS and dC * RS at the entries
        g_cs = g * rs
        # a = sum(dC * CS * RS, axis=1), b = sum(dC * RS * CS, axis=0)
        a = np.bincount(rows, weights=g_rs * rs, minlength=RS.shape[0])
        b = np.bincount(cols, weights=g_cs * cs, minlength=RS.shape[1])
        # off the entries dC is 0, so dS = RS * (-a) + CS * (-b) there
        dS = RS * -a[:, None]
        tmp = CS * -b
        dS += tmp
        dS[rows, cols] = rs * (g_rs - a[rows]) + cs * (g_cs - b[cols])
        np.multiply(dS, S, out=tmp)
        grads.tau_coarse += -float(np.sum(tmp)) / tau
        dS /= tau
        dD1 = dS @ cc["D2"]
        dD2 = dS.T @ cc["D1"]
        dY1 = _normalize_backward(dD1, cc["D1"], cc["n1"])
        dY2 = _normalize_backward(dD2, cc["D2"], cc["n2"])
        grads.W_coarse += cc["X1"].T @ dY1 + cc["X2"].T @ dY2

    fc = cache["fine"]
    if dfine is not None and fc["M"] > 0 and np.any(dfine):
        tau = params.tau_fine
        p, coords, corr = fc["p"], fc["coords"], fc["corr"]
        dp = np.einsum("mc,mkc->mk", dfine, coords)
        dlogits = p * (dp - np.sum(dp * p, axis=1, keepdims=True))
        grads.tau_fine += -float(np.sum(dlogits * corr)) / (tau * tau)
        dcorr = dlogits / tau
        de1 = np.einsum("mk,mkd->md", dcorr, fc["E2w"])
        dE2w = dcorr[:, :, None] * fc["e1"][:, None, :]
        M, Kw, d_in_f = fc["Xf2"].shape
        dY1f = _normalize_backward(de1, fc["e1"], fc["nf1"])
        dY2w = _normalize_backward(dE2w.reshape(M * Kw, -1), fc["E2w"].reshape(M * Kw, -1), fc["n2w"])
        grads.W_fine += fc["Xf1"].T @ dY1f
        grads.W_fine += fc["Xf2"].reshape(M * Kw, d_in_f).T @ dY2w

    return grads


def sgd_step(params: MatcherParams, grads: MatcherParams, velocity: MatcherParams,
             lr, momentum=0.9, weight_decay=0.0) -> MatcherParams:
    """Momentum SGD: v = mu*v + g + wd*p, then p -= lr*v, where the gradient
    g and the velocity v, updated in place, are MatcherParams.

    Temperatures update multiplicatively (log-space step with rate lr/10)
    and are clamped positive; their scale differs from the embedding
    weights by orders of magnitude, so they get their own rate.
    """
    if not grads.finite():
        raise NonFiniteGradient("non-finite entries in parameter gradient")
    tau_lr = 0.1 * lr
    velocity.W_coarse = momentum * velocity.W_coarse + grads.W_coarse + weight_decay * params.W_coarse
    velocity.W_fine = momentum * velocity.W_fine + grads.W_fine + weight_decay * params.W_fine
    velocity.tau_coarse = momentum * velocity.tau_coarse + grads.tau_coarse * params.tau_coarse
    velocity.tau_fine = momentum * velocity.tau_fine + grads.tau_fine * params.tau_fine
    params.W_coarse = params.W_coarse - lr * velocity.W_coarse
    params.W_fine = params.W_fine - lr * velocity.W_fine
    params.tau_coarse = float(np.clip(params.tau_coarse * np.exp(-tau_lr * velocity.tau_coarse), _TAU_MIN, 10.0))
    params.tau_fine = float(np.clip(params.tau_fine * np.exp(-tau_lr * velocity.tau_fine), _TAU_MIN, 10.0))
    return params


def save_checkpoint(path, params: MatcherParams):
    """Three float64 records: W_coarse, W_fine and (tau_coarse, tau_fine).
    Non-finite weights raise ValueError, on saving and on loading."""
    if not params.finite():
        raise ValueError(f"{path}: checkpoint weights must be finite")
    write_arrays(path, (params.W_coarse, params.W_fine, (params.tau_coarse, params.tau_fine)))


def load_checkpoint(path) -> MatcherParams:
    Wc, Wf, (tau_coarse, tau_fine) = read_arrays(path, [(None, None), (None, None), (2,)])
    params = MatcherParams(Wc, Wf, float(tau_coarse), float(tau_fine))
    if not params.finite():
        raise ValueError(f"{path}: checkpoint weights must be finite")
    return params
