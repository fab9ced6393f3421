import numpy as np
import pytest

from epimatch.grid import GridSpec


def meshgrid_centers(rows, cols, w):
    us = np.arange(cols) * w + w // 2
    vs = np.arange(rows) * w + w // 2
    uu, vv = np.meshgrid(us, vs)
    return np.column_stack([uu.ravel(), vv.ravel()]).astype(float)


class TestCellCenters:
    @pytest.mark.parametrize("rows,cols,w", [(1, 1, 8), (4, 4, 8), (6, 10, 8), (8, 12, 4), (3, 5, 7)])
    def test_equals_meshgrid_construction(self, rows, cols, w):
        got = GridSpec(rows, cols, w).cell_centers()
        want = meshgrid_centers(rows, cols, w)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_one_read_only_array_per_grid(self):
        centers = GridSpec(4, 6, 8).cell_centers()
        assert GridSpec(4, 6, 8).cell_centers() is centers
        assert not centers.flags.writeable
        with pytest.raises(ValueError):
            centers[0, 0] = 1.0
