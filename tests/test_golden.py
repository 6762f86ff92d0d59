"""Golden digests of the experiments' CSVs.

Reduced-size runs of optimize, success-prob and mfl-scaling: the sha256 of
each CSV pins every bit that the particle layers produce (noise streams,
objective, consensus sums, Euler update, recording).  Reduced pde-run
solves, one per coefficient route of the spectral solver, pin every CSV
the density view writes.  A speed-up must leave these digests as they
are; a change that moves a bit on purpose bumps the package version (see
docs/formats.md) and records new digests.
"""

import hashlib
import pathlib

import pytest

from cbolab.cli import main
from cbolab.config import load_config, manifest_text

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    # d = 3 with noise: an odd dimension takes a view of the Box-Muller pairs
    "optimize": ("trajectory.csv", (
        "objective.name=rastrigin", "cbo.sigma=0.8",
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


_REDUCED_2D = ("pde.K=16", "pde.M=64", "pde.horizon=0.02")
_TRUNCATED_2D = _REDUCED_2D + ("cutoff.R=6", "cutoff.n=4",
                               "pde.snapshot_times=[0.02]")

# one run per coefficient route: run name -> (config, overrides, digests)
SPECTRAL = {
    # 2-D, truncation inactive on the box: products formed in mode space
    "mode-space-2d": ("pde-run",
                      _REDUCED_2D + ("pde.snapshot_times=[0.0, 0.02]",), {
        "grid_0000.csv":
            "eadb8a60d041c869c855c7a6743578e8542c3582750c5a936fc5128eeb142e90",
        "grid_0001.csv":
            "d1da92f36b33b8c0c2af57697ffe7abb2006e7702542790368ba6a68c689f05b",
        "series.csv":
            "1e2d7d2292a14d943c18570f72e23178a1311974de8037378319f1527a8645e6",
        "snapshot_coeffs_0000.csv":
            "41ff26be67dec8947f0ada3daeebd83f1fa655bbe4b2298cc4619ab627c0424d",
        "snapshot_coeffs_0001.csv":
            "4ac5a5530f541e6bd9849d1716876f24947dbc60f03ba29784c24a180e0c299b",
    }),
    # 1-D grid route, both transforms at half length (M = 4K: the modes K
    # and -K share an entry of the synthesis), with the right_mass column
    # of a frozen, actively truncated run
    "grid-1d": ("confinement-1d", ("pde.K=224", "pde.M=896",
                                   "pde.horizon=0.02"), {
        "series.csv":
            "a5d797c1fe7fb9e4ddfab0543b0a323263c8222166767a3905574766a96e8274",
    }),
    # 1-D grid route, self-consistent consensus: the one-entry centre alone
    # makes the run 1-D.  The t = 0 files are those 0.16.0 wrote with
    # objective.dim and pde.dim set to 1 as well; the half-length
    # transforms of 0.18.0 moved the others at rounding, and so did the
    # consensus of 0.19.0, read on the core of its weight box from the
    # half-length synthesis
    "grid-1d-self-consistent": ("pde-run", _REDUCED_2D + (
        "pde.init_center=[2.0]", "pde.snapshot_times=[0.0, 0.02]"), {
        "grid_0000.csv":
            "d3a121c4fb18f1eac4ce9ac5b01afe5203a1e6292d252f201f997c723ed22b65",
        "grid_0001.csv":
            "43eb091f282f62e29a42c4bf1237ba12fcc15596620e1256e5630929e5db2ec5",
        "series.csv":
            "c203d11c5dcbb2eb5e7dabbabd1a2182553a779368425c6ab0e6396954f36cf1",
        "snapshot_coeffs_0000.csv":
            "5363e8a528573793a5b397a0bebcdb99d483c417ef49a3d151a9fb7109c8126f",
        "snapshot_coeffs_0001.csv":
            "c094a918ac71e30569caddcae16422ee479feab6ffe6eadbf75ae6860c3ac3e9",
    }),
    # 2-D grid route, active truncation, self-consistent consensus
    "grid-2d": ("pde-run", _TRUNCATED_2D, {
        "grid_0000.csv":
            "8cddd750f79da01b1418b6aea1ed1a3c4eb5c5dba931500d995a572eafd7b546",
        "series.csv":
            "e247d250fb5e6455b4474f1a60e03f7c5d891a27aee536a9ed62a720e76578ee",
        "snapshot_coeffs_0000.csv":
            "d4d0776024543c21663ca643d334e0a69bda06be580cc2c02a20ae47902f9b95",
    }),
    # 2-D grid route, active truncation, frozen consensus
    "grid-2d-frozen": ("pde-run",
                       _TRUNCATED_2D + ("pde.valpha_const=[0.5, 0.5]",), {
        "grid_0000.csv":
            "274af9ff70ec3fe1401fbba997e90edf19f4fc49dc734aa712727b55e5552e0e",
        "series.csv":
            "59aec55413a0ee9e1084e1c17a4da56981ebf02b5e540aad25e2d6d547b0ff6b",
        "snapshot_coeffs_0000.csv":
            "ceaac4b539564d8186783282f3d33ec04f485e78f0dceccb032d2b65b9c5eb5e",
    }),
}


def _assert_digests(out, digests):
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(digests)
    for csv_name, digest in digests.items():
        data = (out / csv_name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, csv_name


@pytest.mark.parametrize("name", sorted(SPECTRAL))
def test_spectral_csv_digests(tmp_path, name):
    config, sets, digests = SPECTRAL[name]
    out = tmp_path / "run"
    argv = ["run", "--config", str(CONFIGS / f"{config}.json"),
            "--output", str(out)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 0
    _assert_digests(out, digests)


def test_manifest_of_0_16_0_replays_without_its_dim_keys(tmp_path, capsys):
    # 0.16.0 echoed objective.dim and pde.dim, which 0.17.0 deleted: such a
    # manifest ends in one error, and with both keys deleted it runs and
    # writes this version's CSVs, byte for byte
    config, sets, digests = SPECTRAL["grid-1d-self-consistent"]
    cfg = load_config(str(CONFIGS / f"{config}.json"), sets)
    cfg["objective"]["dim"] = cfg["pde"]["dim"] = 1
    old = tmp_path / "manifest.json"
    old.write_text(manifest_text(cfg, "0.16.0"))
    argv = ["run", "--config", str(old), "--output"]
    assert main(argv + [str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("warning: ") and "0.16.0" in err[0]
    assert err[1] == "error: unknown config key: objective.dim"
    assert not (tmp_path / "a").exists()
    del cfg["objective"]["dim"], cfg["pde"]["dim"]
    old.write_text(manifest_text(cfg, "0.16.0"))
    assert main(argv + [str(tmp_path / "b")]) == 0
    _assert_digests(tmp_path / "b", digests)
