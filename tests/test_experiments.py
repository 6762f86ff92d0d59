import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cbolab.experiments import CSV_BLOCK_ROWS, _write_csv, _write_snapshots
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


def _one_pass(header, fmt, columns):
    lists = [np.asarray(c).ravel().tolist() for c in columns]
    line = fmt + "\r\n"
    return (",".join(header) + "\r\n"
            + "".join(line % row for row in zip(*lists))).encode()


@pytest.mark.parametrize("dim, modes, grid", [(1, 4, 16), (1, 4, 18),
                                              (2, 4, 16), (2, 4, 18)])
def test_streamed_snapshot_equals_one_pass(tmp_path, dim, modes, grid):
    # the row-streamed snapshot files hold the bytes of the whole table
    # written in one pass from grid_points, grid_values and coefficients
    rng = np.random.default_rng(dim * 100 + grid)
    f = SpectralField.from_grid(rng.standard_normal((grid,) * dim), 3.0, modes)
    _write_snapshots(str(tmp_path), SimpleNamespace(snapshots=[(0.0, f)]))
    points = f.grid_points().reshape(-1, dim)
    grid_ref = _one_pass([f"v{j + 1}" for j in range(dim)] + ["rho"],
                         ",".join(["%.17g"] * (dim + 1)),
                         [*points.T, f.grid_values()])
    assert (tmp_path / "grid_0000.csv").read_bytes() == grid_ref
    ks = np.arange(-modes, modes + 1)
    k_grid = np.meshgrid(*[ks] * dim, indexing="ij")
    c = f.coefficients
    assert c.shape == (2 * modes + 1,) * dim
    coeff_ref = _one_pass([f"k{j + 1}" for j in range(dim)] + ["re", "im"],
                          "%d," * dim + "%.17g,%.17g", [*k_grid, c.real, c.imag])
    assert (tmp_path / "snapshot_coeffs_0000.csv").read_bytes() == coeff_ref


def test_snapshot_writer_streams_the_grid(tmp_path):
    # one production-size 2-D snapshot (K = 64, M = 256): the writer holds
    # one grid row at a time, neither the whole grid as Python objects
    # (1.7 MB) nor its synthesized (M, M) array (0.8 MB); it holds 0.6 MB
    x = SpectralField.zeros(2, 8.0, 64, 256).axis_points()
    bump = np.exp(-np.add.outer((x - 2.0) ** 2, (x - 2.0) ** 2))
    res = SimpleNamespace(snapshots=[(0.0, SpectralField.from_grid(bump, 8.0, 64))])
    tracemalloc.start()
    try:
        _write_snapshots(str(tmp_path), res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5e5
    grid = (tmp_path / "grid_0000.csv").read_text().splitlines()
    assert len(grid) == 1 + 256**2 and grid[0] == "v1,v2,rho"
    assert len((tmp_path / "snapshot_coeffs_0000.csv").read_text().splitlines()) \
        == 1 + 129**2
