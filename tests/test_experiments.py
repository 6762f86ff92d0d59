import json
import pathlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cbolab.config import SCHEMA, load_config
from cbolab.experiments import (CSV_BLOCK_ROWS, DRIVERS, _write_csv,
                                _write_snapshots, write_summary)
from cbolab.galerkin import SpectralField

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

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


class _Reads(dict):
    """A config section that records each key read from it, by `[]` or
    `.get`, as a (section, key) pair in `seen`."""

    def __init__(self, section, items, seen):
        super().__init__(items)
        self.section, self.seen = section, seen

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if not isinstance(value, _Reads):
            self.seen.add((self.section, key))
        return value

    def get(self, key, default=None):
        self.seen.add((self.section, key))
        return super().get(key, default)


# each experiment's run, shrunk to a fraction of a second
SHRINK = {
    "optimize": ["cbo.n_particles=8", "cbo.horizon=0.1"],
    "success-prob": ["success.runs=2", "cbo.n_particles=8", "cbo.horizon=0.1"],
    "mfl-scaling": ["coupling.sizes=[4, 8, 16]", "coupling.reference_size=64",
                    "coupling.horizon=0.05"],
    "pde-run": ["pde.K=32", "pde.M=128", "pde.horizon=0.01",
                "pde.snapshot_times=[0.0]"],
    "cutoff-check": ["cutoff.samples=64"],
}


def test_every_config_key_is_read_by_a_driver(tmp_path):
    # a key that no shipped config's run reads is an option nothing obeys
    assert set(SHRINK) == set(DRIVERS)
    seen = set()
    for path in sorted(CONFIGS.glob("*.json")):
        experiment = json.loads(path.read_text())["experiment"]
        cfg = load_config(str(path), SHRINK[experiment])
        cfg = _Reads("", {key: _Reads(key, value, seen) if isinstance(value, dict)
                          else value for key, value in cfg.items()}, seen)
        out = tmp_path / path.stem
        out.mkdir()
        lines, measured = DRIVERS[experiment](cfg, str(out))
        write_summary(cfg, str(out), lines, measured)
    schema = {(section, key) for section, keys in SCHEMA.items() for key in keys}
    assert schema - seen == set()       # the keys no driver read
    assert seen == schema
