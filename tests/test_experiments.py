import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cbolab.experiments import (CSV_BLOCK_ROWS, _GridAxis, _write_csv,
                                _write_snapshots)
from cbolab.galerkin import SpectralField

B = CSV_BLOCK_ROWS
EDGES = [-0.0, np.inf, np.nan, 1e-300, 5e-324, -np.inf, 0.1]


@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_block_writer_matches_one_pass(tmp_path, rows):
    ints = np.arange(rows) - rows // 2
    names = [("a", "", 7)[i % 3] for i in range(rows)]
    floats = np.resize(np.array(EDGES), rows) * np.resize([1.0, -1.0, 3.0], rows)
    fmt = "%d,%s,%.17g,%.17g"
    columns = [ints, names, floats, list(floats[::-1])]
    path = tmp_path / "t.csv"
    _write_csv(str(path), ["i", "s", "x", "y"], fmt, columns)
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    one_pass = "i,s,x,y\r\n" + "".join(map((fmt + "\r\n").__mod__, zip(*lists)))
    assert path.read_bytes() == one_pass.encode()


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_axis_columns_are_the_grid_points(dim):
    f = SpectralField.zeros(dim, 3.0, 4, 16)
    points = f.grid_points().reshape(-1, dim)
    for j in range(dim):
        axis = _GridAxis(f.axis_points(), dim, j)
        assert len(axis) == len(points)
        for rows in (slice(0, len(points)), slice(5, 29), slice(140, 200)):
            assert np.array_equal(axis[rows], points[rows, j])


def test_snapshot_writer_streams_the_grid(tmp_path):
    # one production-size 2-D snapshot (K = 64, M = 256): the writer holds
    # a block of rows at a time, not the whole grid as Python objects
    x = SpectralField.zeros(2, 8.0, 64, 256).axis_points()
    bump = np.exp(-np.add.outer((x - 2.0) ** 2, (x - 2.0) ** 2))
    res = SimpleNamespace(snapshots=[(0.0, SpectralField.from_grid(bump, 8.0, 64))])
    tracemalloc.start()
    try:
        _write_snapshots(str(tmp_path), res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    grid = (tmp_path / "grid_0000.csv").read_text().splitlines()
    assert len(grid) == 1 + 256**2 and grid[0] == "v1,v2,rho"
    assert len((tmp_path / "snapshot_coeffs_0000.csv").read_text().splitlines()) \
        == 1 + 129**2
