import numpy as np

from epimatch.geometry import RelativePose
from epimatch.metrics import matching_precision
from epimatch.viz import GREEN, RED, match_overlay

from conftest import project_hom, random_camera_pair, visible_points


def test_match_is_green_exactly_when_precise(rng):
    cam1, cam2, pose = random_camera_pair(rng, same_k=True)
    K = cam1.intrinsics
    pts = visible_points(rng, cam1, cam2, 40)
    x1 = project_hom(cam1, pts)[:, :2]
    x2 = project_hom(cam2, pts)[:, :2]
    inside = np.all((x1 >= 0) & (x1 < (640, 480)) & (x2 >= 0) & (x2 < (640, 480)), axis=1)
    x1, x2 = x1[inside][:16], x2[inside][:16]
    # every other match moves off its epipolar line by a few to tens of pixels
    x2[1::2] += rng.normal(0.0, 15.0, x2[1::2].shape)
    x2 = np.clip(x2, 0, (639, 479))
    image = np.zeros((480, 640))
    precise = []
    for k in range(len(x1)):
        canvas = match_overlay(image, image, x1[k:k + 1], x2[k:k + 1], pose, K)
        u, v = np.round(x1[k]).astype(int)
        precise.append(matching_precision(x1[k:k + 1], x2[k:k + 1], pose, K, K) == 100.0)
        assert tuple(canvas[v, u]) == (GREEN if precise[-1] else RED)
    assert len(precise) == 16 and 0 < sum(precise) < 16
    assert matching_precision(x1, x2, pose, K, K) == 100.0 * np.mean(precise)


def test_pure_rotation_draws_every_match_red(rng):
    cam1, _, _ = random_camera_pair(rng, same_k=True)
    x1 = rng.uniform((0, 0), (640, 480), (8, 2))
    x2 = x1.copy()  # on their epipolar lines under any pose with a baseline
    canvas = match_overlay(np.zeros((480, 640)), np.zeros((480, 640)), x1, x2,
                           RelativePose(np.eye(3), np.zeros(3)), cam1.intrinsics)
    for u, v in np.round(x1).astype(int):
        assert tuple(canvas[v, u]) == RED
