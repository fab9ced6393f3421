"""Minimal trainable coarse-to-fine matcher.

Coarse stage: raw w x w intensity patches (mean-subtracted, unit-norm) are
linearly embedded, re-normalized and compared by dual-softmax over scaled
inner products. Fine stage: around each coarse match, a correlation heatmap
between fine-patch embeddings feeds a soft-argmax that yields a subpixel
match. Both stages backpropagate exactly into the two embedding matrices and
their own softmax temperatures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions, NonFiniteGradient, read_exact
from .grid import GridSpec

_NORM_EPS = 1e-12
_TAU_MIN = 1e-3
_CHECKPOINT_MAGIC = b"EPMATCH1"
_CHECKPOINT_VERSION = 1


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
    """Two linear embeddings plus per-stage softmax temperatures.

    A single shared temperature couples the stages destructively: the fine
    stage prefers flatter heatmaps on weak texture, which would also flatten
    the coarse selection, so each stage owns its temperature.
    """

    W_coarse: np.ndarray  # (d_in, d)
    W_fine: np.ndarray  # (d_in_fine, d_fine)
    tau_coarse: float
    tau_fine: float

    def copy(self):
        return MatcherParams(self.W_coarse.copy(), self.W_fine.copy(),
                             float(self.tau_coarse), float(self.tau_fine))


@dataclass
class MatcherGrads:
    dW_coarse: np.ndarray
    dW_fine: np.ndarray
    dtau_coarse: float
    dtau_fine: float

    def scaled(self, c):
        return MatcherGrads(c * self.dW_coarse, c * self.dW_fine,
                            c * self.dtau_coarse, c * self.dtau_fine)

    def add_(self, other):
        self.dW_coarse += other.dW_coarse
        self.dW_fine += other.dW_fine
        self.dtau_coarse += other.dtau_coarse
        self.dtau_fine += other.dtau_fine
        return self


def zero_grads(params: MatcherParams) -> MatcherGrads:
    return MatcherGrads(np.zeros_like(params.W_coarse), np.zeros_like(params.W_fine), 0.0, 0.0)


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
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def confidence_matrix(feats1: ImageFeatures, feats2: ImageFeatures, params: MatcherParams):
    """Dual-softmax confidence over embedded coarse descriptors.

    Returns the (m1, m2) confidence array, in [0, 1], and the cache dict for
    backward.
    """
    D1, n1 = _embed_normalized(feats1.coarse, params.W_coarse)
    D2, n2 = _embed_normalized(feats2.coarse, params.W_coarse)
    S = (D1 @ D2.T) / params.tau_coarse
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


def refine_fine(feats1: ImageFeatures, feats2: ImageFeatures, params: MatcherParams,
                cfg: MatcherConfig, i_idx, j_idx, conf):
    """Soft-argmax refinement of coarse matches.

    Returns (x1s, x2s, conf_kept, cache, dropped) where x1s are coarse cell
    centres in image 1 and x2s the refined subpixel matches in image 2.
    Matches whose correlation window leaves the fine grid are dropped. Fine
    rows are built per call: image 1's kept centre patches, and image 2's
    whole window grid once, only when a match is kept.
    """
    r = cfg.window_radius
    fp, s = cfg.fine_patch, cfg.fine_stride
    fr1, fc1 = feats1.fine_windows.shape[:2]
    fr2, fc2 = feats2.fine_windows.shape[:2]
    uv1 = feats1.grid.cell_centers()[np.asarray(i_idx, int)]
    uv2 = feats2.grid.cell_centers()[np.asarray(j_idx, int)]
    # the fine cell (row p, column q) centred on each coarse centre
    q1, p1 = np.rint((uv1 - fp // 2) / s).astype(int).T
    q2, p2 = np.rint((uv2 - fp // 2) / s).astype(int).T
    ok = ((p1 >= 0) & (p1 < fr1) & (q1 >= 0) & (q1 < fc1)
          & (p2 >= r) & (p2 + r < fr2) & (q2 >= r) & (q2 + r < fc2))
    kept = np.flatnonzero(ok)
    dropped = len(uv1) - len(kept)
    if not len(kept):
        return np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0), dict(M=0), dropped

    dp, dq = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    pw = p2[kept, None] + dp.ravel()  # (M, Kw) window cells in image 2
    qw = q2[kept, None] + dq.ravel()
    M, Kw = pw.shape
    Xf1 = _patch_rows(feats1.fine_windows[p1[kept], q1[kept]].reshape(M, -1))
    Xf2 = _patch_rows(feats2.fine_windows.reshape(fr2 * fc2, -1))[pw * fc2 + qw]  # (M, Kw, d_in_f)
    e1, nf1 = _embed_normalized(Xf1, params.W_fine)
    E2w, n2w = _embed_normalized(Xf2.reshape(M * Kw, -1), params.W_fine)
    E2w = E2w.reshape(M, Kw, -1)
    corr = np.einsum("mkd,md->mk", E2w, e1)
    logits = corr / params.tau_fine
    p = _softmax(logits, axis=1)
    coords = np.stack([qw * s + fp // 2, pw * s + fp // 2], axis=-1).astype(float)  # (M, Kw, 2)
    x2s = np.einsum("mk,mkc->mc", p, coords)
    x1s = uv1[kept]
    cache = dict(M=M, kept=kept, Xf1=Xf1, Xf2=Xf2,
                 e1=e1, nf1=nf1, E2w=E2w, n2w=n2w, corr=corr, p=p, coords=coords)
    return x1s, x2s, np.asarray(conf)[kept], cache, dropped


@dataclass
class MatchPrediction:
    C: np.ndarray  # (m1, m2) coarse confidence
    coarse_i: np.ndarray
    coarse_j: np.ndarray
    coarse_conf: np.ndarray
    fine_x1: np.ndarray  # (M, 2) coarse cell centres, image 1
    fine_x2: np.ndarray  # (M, 2) refined subpixel matches, image 2
    fine_conf: np.ndarray
    dropped: int = 0


def forward(image1, image2, params: MatcherParams, cfg: MatcherConfig, coarse_override=None):
    """Full two-stage pass. Returns (MatchPrediction, cache).

    coarse_override: optional (i_idx, j_idx) arrays to refine instead of the
    mutual-argmax selection (used for teacher-forced training).
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
    pred = MatchPrediction(C, i_idx, j_idx, conf, x1s, x2s, conf_kept, dropped)
    cache = dict(params=params, coarse=ccache, fine=fcache)
    return pred, cache


def _normalize_backward(dD, D, n):
    """Backward through row normalization d = y / |y| (zero rows pass zeros)."""
    good = n > _NORM_EPS
    dot = np.einsum("ij,ij->i", dD, D)
    dY = (dD - D * dot[:, None]) / np.where(good, n, 1.0)[:, None]
    dY[~good] = 0.0
    return dY


def backward(cache, dC=None, dfine=None) -> MatcherGrads:
    """Exact reverse-mode gradients of the forward pass.

    dC: (m1, m2) upstream gradient on the confidence matrix.
    dfine: (M, 2) upstream gradient on the refined match coordinates, in the
    order of the prediction's fine matches.
    """
    params: MatcherParams = cache["params"]
    grads = zero_grads(params)

    if dC is not None and np.any(dC):
        tau = params.tau_coarse
        cc = cache["coarse"]
        RS, CS, S = cc["RS"], cc["CS"], cc["S"]
        G_RS = dC * CS
        G_CS = dC * RS
        dS = RS * (G_RS - np.sum(G_RS * RS, axis=1, keepdims=True))
        dS += CS * (G_CS - np.sum(G_CS * CS, axis=0, keepdims=True))
        grads.dtau_coarse += -float(np.sum(dS * S)) / tau
        dA = dS / tau
        dD1 = dA @ cc["D2"]
        dD2 = dA.T @ cc["D1"]
        dY1 = _normalize_backward(dD1, cc["D1"], cc["n1"])
        dY2 = _normalize_backward(dD2, cc["D2"], cc["n2"])
        grads.dW_coarse += cc["X1"].T @ dY1 + cc["X2"].T @ dY2

    fc = cache["fine"]
    if dfine is not None and fc["M"] > 0 and np.any(dfine):
        tau = params.tau_fine
        p, coords, corr = fc["p"], fc["coords"], fc["corr"]
        dp = np.einsum("mc,mkc->mk", dfine, coords)
        dlogits = p * (dp - np.sum(dp * p, axis=1, keepdims=True))
        grads.dtau_fine += -float(np.sum(dlogits * corr)) / (tau * tau)
        dcorr = dlogits / tau
        de1 = np.einsum("mk,mkd->md", dcorr, fc["E2w"])
        dE2w = dcorr[:, :, None] * fc["e1"][:, None, :]
        M, Kw, d_in_f = fc["Xf2"].shape
        dY1f = _normalize_backward(de1, fc["e1"], fc["nf1"])
        dY2w = _normalize_backward(dE2w.reshape(M * Kw, -1), fc["E2w"].reshape(M * Kw, -1), fc["n2w"])
        grads.dW_fine += fc["Xf1"].T @ dY1f
        grads.dW_fine += fc["Xf2"].reshape(M * Kw, d_in_f).T @ dY2w

    return grads


@dataclass
class SgdState:
    v_coarse: np.ndarray
    v_fine: np.ndarray
    v_tau_coarse: float = 0.0
    v_tau_fine: float = 0.0

    @staticmethod
    def zeros(params: MatcherParams):
        return SgdState(np.zeros_like(params.W_coarse), np.zeros_like(params.W_fine), 0.0, 0.0)


def sgd_step(params: MatcherParams, grads: MatcherGrads, state: SgdState,
             lr, momentum=0.9, weight_decay=0.0) -> MatcherParams:
    """Momentum SGD: v = mu*v + g + wd*p, then p -= lr*v.

    Temperatures update multiplicatively (log-space step with rate lr/10)
    and are clamped positive; their scale differs from the
    embedding weights by orders of magnitude, so they get their own rate.
    """
    for g in (grads.dW_coarse, grads.dW_fine):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient("non-finite entries in parameter gradient")
    if not (np.isfinite(grads.dtau_coarse) and np.isfinite(grads.dtau_fine)):
        raise NonFiniteGradient("non-finite temperature gradient")
    tau_lr = 0.1 * lr
    state.v_coarse = momentum * state.v_coarse + grads.dW_coarse + weight_decay * params.W_coarse
    state.v_fine = momentum * state.v_fine + grads.dW_fine + weight_decay * params.W_fine
    state.v_tau_coarse = momentum * state.v_tau_coarse + grads.dtau_coarse * params.tau_coarse
    state.v_tau_fine = momentum * state.v_tau_fine + grads.dtau_fine * params.tau_fine
    params.W_coarse = params.W_coarse - lr * state.v_coarse
    params.W_fine = params.W_fine - lr * state.v_fine
    params.tau_coarse = float(np.clip(params.tau_coarse * np.exp(-tau_lr * state.v_tau_coarse), _TAU_MIN, 10.0))
    params.tau_fine = float(np.clip(params.tau_fine * np.exp(-tau_lr * state.v_tau_fine), _TAU_MIN, 10.0))
    return params


def save_checkpoint(path, params: MatcherParams):
    """Flat binary: magic, version, dims, tau, then row-major float64 data."""
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIIII", _CHECKPOINT_VERSION,
                             params.W_coarse.shape[0], params.W_coarse.shape[1],
                             params.W_fine.shape[0], params.W_fine.shape[1]))
        fh.write(struct.pack("<dd", params.tau_coarse, params.tau_fine))
        fh.write(np.ascontiguousarray(params.W_coarse, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(params.W_fine, dtype="<f8").tobytes())


def load_checkpoint(path) -> MatcherParams:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _CHECKPOINT_MAGIC:
            raise ValueError("not a matcher checkpoint (bad magic)")
        version, a, b, c, d = struct.unpack("<IIIII", read_exact(fh, 20))
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        tau_coarse, tau_fine = struct.unpack("<dd", read_exact(fh, 16))
        Wc = np.frombuffer(read_exact(fh, a * b * 8), dtype="<f8").reshape(a, b).copy()
        Wf = np.frombuffer(read_exact(fh, c * d * 8), dtype="<f8").reshape(c, d).copy()
    return MatcherParams(Wc, Wf, tau_coarse, tau_fine)
