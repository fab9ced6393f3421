"""Match-overlay rendering with a minimal dependency-free PNG writer."""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import DegenerateBaseline
from .metrics import PRECISION_THRESHOLD_INDOOR, gt_epipolar_distance_sq

GREEN = (60, 200, 60)
RED = (220, 60, 60)


def write_png(path, rgb):
    """Write an (H, W, 3) uint8 array as an RGB PNG."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    H, W, _ = rgb.shape
    raw = b"".join(b"\x00" + rgb[i].tobytes() for i in range(H))

    def chunk(tag, data):
        body = tag + data
        return struct.pack(">I", len(data)) + body + struct.pack(">I", zlib.crc32(body))

    header = struct.pack(">IIBBBBB", W, H, 8, 2, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        fh.write(chunk(b"IHDR", header))
        fh.write(chunk(b"IDAT", zlib.compress(raw, 6)))
        fh.write(chunk(b"IEND", b""))


def _to_rgb(image):
    g = np.clip(np.asarray(image, dtype=float), 0.0, 1.0)
    g8 = (g * 255).astype(np.uint8)
    return np.stack([g8, g8, g8], axis=-1)


def _draw_line(canvas, p0, p1, color):
    """Bresenham line; endpoints clipped to the canvas."""
    H, W, _ = canvas.shape
    x0, y0 = int(round(p0[0])), int(round(p0[1]))
    x1, y1 = int(round(p1[0])), int(round(p1[1]))
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        if 0 <= x0 < W and 0 <= y0 < H:
            canvas[y0, x0] = color
        if x0 == x1 and y0 == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def _draw_dot(canvas, p, color, r=1):
    H, W, _ = canvas.shape
    x, y = int(round(p[0])), int(round(p[1]))
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if 0 <= x + dx < W and 0 <= y + dy < H:
                canvas[y + dy, x + dx] = color


def match_overlay(image1, image2, x1s, x2s, pose, K, threshold=PRECISION_THRESHOLD_INDOOR):
    """Side-by-side pair with match lines coloured by whether each match's
    squared symmetric epipolar distance under the ground-truth pose clears
    the threshold, as `metrics.matching_precision` counts it. A pure-rotation
    pose has no epipolar geometry, so all its matches are red, as
    `metrics.evaluate` scores such a pair at precision 0."""
    left = _to_rgb(image1)
    right = _to_rgb(image2)
    H = max(left.shape[0], right.shape[0])
    W = left.shape[1] + right.shape[1]
    canvas = np.zeros((H, W, 3), dtype=np.uint8)
    canvas[: left.shape[0], : left.shape[1]] = left
    canvas[: right.shape[0], left.shape[1]:] = right
    x1s = np.asarray(x1s, dtype=float)
    x2s = np.asarray(x2s, dtype=float)
    if x1s.shape[0]:
        try:
            precise = gt_epipolar_distance_sq(x1s, x2s, pose, K, K) < threshold
        except DegenerateBaseline:
            precise = np.zeros(x1s.shape[0], dtype=bool)
        offset = np.array([left.shape[1], 0.0])
        for k in range(x1s.shape[0]):
            color = GREEN if precise[k] else RED
            _draw_line(canvas, x1s[k], x2s[k] + offset, color)
            _draw_dot(canvas, x1s[k], color)
            _draw_dot(canvas, x2s[k] + offset, color)
    return canvas
