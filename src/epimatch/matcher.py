"""Minimal trainable coarse-to-fine matcher.

Coarse stage: raw w x w intensity patches (mean-subtracted, unit-norm) are
linearly embedded, re-normalized and compared by dual-softmax over scaled
inner products S. Both softmaxes come from one shared exponential
E = exp(S - 1/tau_coarse) and its row and column sums, which the forward
pass caches for backward in place of the two softmax arrays. Fine stage:
around each coarse match, a correlation heatmap between fine-patch
embeddings feeds a soft-argmax that yields a subpixel match. The fine stage
embeds raw windows x through W_fine with its columns centred,
W_c = W_fine - W_fine.mean(axis=0): x W_c is the mean-subtracted window
times W_fine, and the row normalization that follows cancels the window's
scale, so no normalized copy of the windows is made. Both stages
backpropagate exactly into the two embedding matrices and their own softmax
temperatures; the fine backward takes each window row's gradient in closed
form from its correlation, with no (M * Kw, d_fine) outer product.
`MatcherParams` is the one parameter-shaped type: the weights, `backward`'s
gradients and `sgd_step`'s momentum velocity are all `MatcherParams`. A
checkpoint holds the weights and the `MatcherConfig` they were trained
under.

A coarse match is refined only when `fine_in_bounds` holds for it, the one
drop rule; `forward` and the training step apply it, and `refine_fine`
refines exactly the matches it is given. The training step refines only the
in-bound rows its fine loss reads, so `backward` takes a fine gradient for
exactly the rows `refine_fine` got.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import BadDimensions, NonFiniteGradient, check_count, read_arrays, write_arrays
from .grid import GridSpec

_NORM_EPS = 1e-12
# confidence_matrix's exp(S - 1/tau) is at least exp(-2/tau), a normal
# double (about 1.9e-174) for tau >= 5e-3
_TAU_MIN = 5e-3
_TAU_MAX = 10.0


@dataclass(frozen=True)
class MatcherConfig:
    patch_width: int = 8
    fine_patch: int = 4
    fine_stride: int = 2
    d: int = 32
    d_fine: int = 16
    window_radius: int = 3
    match_threshold: float = 0.2

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int":
                check_count(f.name, getattr(self, f.name), 0 if f.name == "window_radius" else 1)
        if not 0.0 <= self.match_threshold <= 1.0:
            raise ValueError(f"match_threshold must lie in [0, 1], got {self.match_threshold!r}")

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
    strided view of the image (no copy). refine_fine gathers, per call, only
    the raw windows its matches read and embeds them through the centred
    W_fine."""

    coarse: np.ndarray  # (m, d_in)
    grid: GridSpec
    fine_windows: np.ndarray  # (fr, fc, fp, fp) view, stride fine_stride


def _patch_rows(stack):
    """Mean-subtract and unit-normalize flattened (N, k) patches; flat
    patches come out as zero rows."""
    x = stack - stack.mean(axis=1, keepdims=True)
    n = np.sqrt(np.einsum("ij,ij->i", x, x))
    flat = n < _NORM_EPS
    x /= np.where(flat, 1.0, n)[:, None]
    x[flat] = 0.0
    return x


def extract_features(image, cfg: MatcherConfig) -> ImageFeatures:
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise BadDimensions("expected a 2D intensity grid")
    w = cfg.patch_width
    grid = GridSpec.for_image(*image.shape, w)
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
    n = np.sqrt(np.einsum("ij,ij->i", D, D))
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

    Both softmaxes share one exponential E = exp(S - 1/tau) of the scaled
    similarities S = D1 D2^T / tau: every row of D is unit or zero, so
    |S| <= 1/tau and the constant shift replaces both max passes, and at
    tau >= _TAU_MIN every entry of E is a normal double. With zr and zc the
    row and column sums of E, C = (E / zr) * (E / zc), formed without E * E,
    which would underflow where C does not.

    Returns the (m1, m2) confidence array, in [0, 1], and the cache dict for
    backward.
    """
    D1, n1 = _embed_normalized(feats1.coarse, params.W_coarse)
    D2, n2 = _embed_normalized(feats2.coarse, params.W_coarse)
    E = (D1 / params.tau_coarse) @ D2.T
    E -= 1.0 / params.tau_coarse
    np.exp(E, out=E)
    zr, zc = E.sum(axis=1), E.sum(axis=0)
    C = E / zr[:, None]
    C *= E
    C /= zc
    cache = dict(D1=D1, D2=D2, n1=n1, n2=n2, E=E, zr=zr, zc=zc,
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
    own. The single drop rule, which refine_fine's callers apply."""
    r = cfg.window_radius
    fr1, fc1 = feats1.fine_windows.shape[:2]
    fr2, fc2 = feats2.fine_windows.shape[:2]
    p1, q1 = _fine_cells(feats1, i_idx, cfg)
    p2, q2 = _fine_cells(feats2, j_idx, cfg)
    return ((p1 >= 0) & (p1 < fr1) & (q1 >= 0) & (q1 < fc1)
            & (p2 >= r) & (p2 + r < fr2) & (q2 >= r) & (q2 + r < fc2))


def refine_fine(feats1: ImageFeatures, feats2: ImageFeatures, params: MatcherParams,
                cfg: MatcherConfig, i_idx, j_idx):
    """Soft-argmax refinement of every coarse match given; callers pass only
    matches for which fine_in_bounds holds.

    Returns (x1s, x2s, cache) where x1s are coarse cell centres in image 1
    and x2s the refined subpixel matches in image 2. Only the raw windows the
    matches read are gathered, per call: image 1's centre window and image
    2's (2r+1)^2 correlation windows of each match. They are embedded through
    the column-centred W_fine, which equals embedding each window
    mean-subtracted and unit-normalized; a constant window embeds to a zero
    row.
    """
    r = cfg.window_radius
    fp, s = cfg.fine_patch, cfg.fine_stride
    M = len(i_idx)
    if not M:
        return np.zeros((0, 2)), np.zeros((0, 2)), dict(M=0)

    p1, q1 = _fine_cells(feats1, i_idx, cfg)
    p2, q2 = _fine_cells(feats2, j_idx, cfg)
    dp, dq = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    pw = p2[:, None] + dp.ravel()  # (M, Kw) window cells in image 2
    qw = q2[:, None] + dq.ravel()
    Xf1 = feats1.fine_windows[p1, q1].reshape(M, -1)
    Xf2 = feats2.fine_windows[pw, qw].reshape(pw.size, -1)  # (M * Kw, d_in_f)
    Wc = params.W_fine - params.W_fine.mean(axis=0)
    e1, nf1 = _embed_normalized(Xf1, Wc)
    E2w, n2w = _embed_normalized(Xf2, Wc)
    corr = np.einsum("mkd,md->mk", E2w.reshape(*pw.shape, -1), e1)
    p = _softmax(corr / params.tau_fine, axis=1)
    coords = np.stack([qw * s + fp // 2, pw * s + fp // 2], axis=-1).astype(float)  # (M, Kw, 2)
    x2s = np.einsum("mk,mkc->mc", p, coords)
    x1s = feats1.grid.cell_centers()[i_idx]
    cache = dict(M=M, Xf1=Xf1, Xf2=Xf2, e1=e1, nf1=nf1, E2w=E2w, n2w=n2w, corr=corr, p=p, coords=coords)
    return x1s, x2s, cache


@dataclass
class MatchPrediction:
    C: np.ndarray  # (m1, m2) coarse confidence
    coarse_i: np.ndarray
    coarse_j: np.ndarray
    fine_x1: np.ndarray  # (M, 2) coarse cell centres, image 1
    fine_x2: np.ndarray  # (M, 2) refined subpixel matches, image 2
    fine_conf: np.ndarray  # coarse confidence of the refined matches
    dropped: int = 0  # coarse matches that fail fine_in_bounds


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
    ok = fine_in_bounds(f1, f2, cfg, i_idx, j_idx)
    x1s, x2s, fcache = refine_fine(f1, f2, params, cfg, i_idx[ok], j_idx[ok])
    pred = MatchPrediction(C, i_idx, j_idx, x1s, x2s, conf[ok], int(len(ok) - np.count_nonzero(ok)))
    return pred, dict(params=params, coarse=ccache, fine=fcache)


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
    entry has gradient zero, and no entry appears twice. Off those entries
    the gradient on S is E * (-a / zr - b / zc), from the cached shared
    exponential, which equals the textbook RS * (-a) + CS * (-b) up to
    rounding.
    dfine: (M, 2) upstream gradient on the refined match coordinates, in the
    order of the prediction's fine matches.
    """
    params: MatcherParams = cache["params"]
    grads = params.zeros_like()

    if dC is not None and np.any(dC[2]):
        tau = params.tau_coarse
        cc = cache["coarse"]
        E, zr, zc, D1, D2 = cc["E"], cc["zr"], cc["zc"], cc["D1"], cc["D2"]
        rows, cols, g = dC
        e = E[rows, cols]
        rs, cs = e / zr[rows], e / zc[cols]  # RS and CS at the entries
        g_rs = g * cs  # dC * CS and dC * RS at the entries
        g_cs = g * rs
        # a = sum(dC * CS * RS, axis=1), b = sum(dC * RS * CS, axis=0)
        a = np.bincount(rows, weights=g_rs * rs, minlength=E.shape[0])
        b = np.bincount(cols, weights=g_cs * cs, minlength=E.shape[1])
        # off the entries dC is 0, so dS = RS * (-a) + CS * (-b) there,
        # which is E * (-a / zr - b / zc)
        dS = np.add.outer(-a / zr, -b / zc)
        dS *= E
        dS[rows, cols] = rs * (g_rs - a[rows]) + cs * (g_cs - b[cols])
        # S = D1 D2^T / tau, so sum(dS * S) = sum((dS @ D2) * D1) / tau
        dD1 = dS @ D2
        grads.tau_coarse += -float(np.einsum("ij,ij->", dD1, D1)) / (tau * tau)
        dD1 /= tau
        dD2 = dS.T @ D1
        dD2 /= tau
        dY1 = _normalize_backward(dD1, D1, cc["n1"])
        dY2 = _normalize_backward(dD2, D2, cc["n2"])
        grads.W_coarse += cc["X1"].T @ dY1 + cc["X2"].T @ dY2

    fc = cache["fine"]
    if dfine is not None and fc["M"] > 0 and np.any(dfine):
        tau = params.tau_fine
        p, coords, corr = fc["p"], fc["coords"], fc["corr"]
        dp = np.einsum("mc,mkc->mk", dfine, coords)
        dlogits = p * (dp - np.sum(dp * p, axis=1, keepdims=True))
        grads.tau_fine += -float(np.sum(dlogits * corr)) / (tau * tau)
        dcorr = dlogits / tau
        e1, E2w, Xf2 = fc["e1"], fc["E2w"], fc["Xf2"]  # E2w, Xf2: (M * Kw, .)
        de1 = np.einsum("mk,mkd->md", dcorr, E2w.reshape(*dcorr.shape, -1))
        dY1f = _normalize_backward(de1, e1, fc["nf1"])
        # window row mk gets dcorr_mk * e1_m, whose component along E2w_mk is
        # dcorr_mk * corr_mk, so through the normalization its gradient is
        # a_mk (e1_m - corr_mk E2w_mk), a = dcorr / n2w and 0 on zero rows
        n2w = fc["n2w"].reshape(dcorr.shape)
        good = n2w > _NORM_EPS
        a = dcorr / np.where(good, n2w, 1.0)
        a[~good] = 0.0
        # the forward pass embeds through W_c = P W_fine, P the centring
        # projection, so the W_fine gradient is P times the W_c gradient
        G = fc["Xf1"].T @ dY1f
        G += np.einsum("mk,mkd->dm", a, Xf2.reshape(*a.shape, -1)) @ e1
        G -= Xf2.T @ (E2w * (a * corr).reshape(-1, 1))
        G -= G.mean(axis=0)
        grads.W_fine = G

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
    params.tau_coarse = float(np.clip(params.tau_coarse * np.exp(-tau_lr * velocity.tau_coarse), _TAU_MIN, _TAU_MAX))
    params.tau_fine = float(np.clip(params.tau_fine * np.exp(-tau_lr * velocity.tau_fine), _TAU_MIN, _TAU_MAX))
    return params


def _check_checkpoint(path, params: MatcherParams, mcfg: MatcherConfig):
    """The checks a checkpoint adds to MatcherConfig's own: a ValueError
    naming `path` unless the weights are finite and shaped by mcfg and both
    temperatures lie in sgd_step's clamp."""
    if not params.finite():
        raise ValueError(f"{path}: checkpoint weights must be finite")
    taus = (params.tau_coarse, params.tau_fine)
    if not all(_TAU_MIN <= tau <= _TAU_MAX for tau in taus):
        raise ValueError(f"{path}: checkpoint temperatures must lie in [{_TAU_MIN}, {_TAU_MAX}], got {taus}")
    shapes = (params.W_coarse.shape, params.W_fine.shape)
    if shapes != ((mcfg.d_in, mcfg.d), (mcfg.d_in_fine, mcfg.d_fine)):
        raise ValueError(f"{path}: weight shapes {shapes} disagree with {mcfg}")


def save_checkpoint(path, params: MatcherParams, mcfg: MatcherConfig):
    """Four float64 records: W_coarse, W_fine, (tau_coarse, tau_fine) and
    the MatcherConfig fields in declaration order."""
    _check_checkpoint(path, params, mcfg)
    write_arrays(path, (params.W_coarse, params.W_fine, (params.tau_coarse, params.tau_fine), astuple(mcfg)))


def load_checkpoint(path):
    """The (params, mcfg) that save_checkpoint wrote; a config record that
    MatcherConfig refuses, or a failed _check_checkpoint, names `path`."""
    Wc, Wf, (tau_coarse, tau_fine), values = read_arrays(
        path, [(None, None), (None, None), (2,), (len(fields(MatcherConfig)),)])
    params = MatcherParams(Wc, Wf, float(tau_coarse), float(tau_fine))
    record = dict(zip((f.name for f in fields(MatcherConfig)), values.tolist()))
    sizes = {f.name: record[f.name] for f in fields(MatcherConfig) if f.type == "int"}
    if not all(v.is_integer() for v in sizes.values()):
        raise ValueError(f"{path}: checkpoint size fields must be whole numbers, got {sizes}")
    try:
        mcfg = MatcherConfig(**{**record, **{k: int(v) for k, v in sizes.items()}})
    except ValueError as exc:
        raise ValueError(f"{path}: checkpoint {exc}") from None
    _check_checkpoint(path, params, mcfg)
    return params, mcfg
