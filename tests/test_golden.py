"""Golden digests of the particle experiments' CSVs.

Reduced-size runs of optimize, success-prob and mfl-scaling: the sha256 of
each CSV pins every bit that the particle layers produce (noise streams,
objective, consensus sums, Euler update, recording).  A speed-up must
leave these digests as they are; a change that moves a bit on purpose
bumps the package version (see docs/formats.md) and records new digests.
"""

import hashlib
import pathlib

import pytest

from cbolab.cli import main

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    # d = 3 with noise: an odd dimension takes a view of the Box-Muller pairs
    "optimize": ("trajectory.csv", (
        "objective.name=rastrigin", "objective.dim=3", "cbo.sigma=0.8",
        "cbo.n_particles=300", "cbo.dt=0.02", "cbo.horizon=1.0",
        "cbo.init_spread=1.5", "cbo.init_center=[1.0, -0.5, 0.25]"),
        "5678319ca79cc1e5cb671890f94754c209d4367860d8af15210a4da39308602c"),
    "success-prob": ("success.csv", (
        "success.runs=5", "cbo.n_particles=64", "cbo.horizon=2.0"),
        "8ea0b8581f65b627b350431d71a63e2b77c8376641267772d489c4a228b210b3"),
    "mfl-scaling": ("scaling.csv", (
        "coupling.sizes=[16, 32, 64, 128]", "coupling.reference_size=512",
        "coupling.horizon=0.3"),
        "1b1f9cc9a928774008e23e773d8a5c2fba0314f7165a2cf2c03c0c9cdabb40f9"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_particle_csv_digest(tmp_path, name):
    csv_name, sets, digest = GOLDEN[name]
    argv = ["run", "--config", str(CONFIGS / f"{name}.json"),
            "--output", str(tmp_path / "run")]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 0
    data = (tmp_path / "run" / csv_name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
