"""Strict experiment configuration: schema, defaults, overrides, manifest.

Configs are JSON objects with one section per module plus an `experiment`
selector.  Parsing is strict: unknown sections or keys are rejected with
the offending path, so a typo cannot silently fall back to a default.
Every run echoes its fully resolved configuration into `manifest.json`,
which can be fed back to `run` to reproduce the run byte for byte.
"""

from __future__ import annotations

import copy
import json
from typing import Any

from .objectives import ConfigurationError


class ConfigError(ConfigurationError):
    """Configuration problem, annotated with the key path."""


EXPERIMENTS = (
    "optimize", "pde-run", "positivity", "confinement-1d", "mfl-scaling",
    "decay-fit", "assumptions-check", "lemma-check", "success-prob",
)

_NUM = (int, float)

# check key -> (reported name, measured quantity, comparison); this table
# defines the `check` section, and `experiments.write_summary` evaluates
# it.  `_min` bounds hold with >=, `_max` bounds with <=, the positivity
# floor strictly.  `all_satisfied` is a switch (no comparison) that asks
# only for finite sups, so it reports under the name of what it tests.
CHECKS = {
    "final_w2_max": ("final_w2_max", "final_w2", "<="),
    "rate_min": ("rate_min", "rate", ">="),
    "rate_max": ("rate_max", "rate", "<="),
    "r2_min": ("r2_min", "r2", ">="),
    "slope_min": ("slope_min", "slope", ">="),
    "slope_max": ("slope_max", "slope", "<="),
    "fraction_min": ("fraction_min", "fraction", ">="),
    "mass_drift_max": ("mass_drift_max", "mass_drift", "<="),
    "positivity_floor": ("positivity_floor", "min_density", ">"),
    "confinement_max": ("confinement_max", "right_mass_sup", "<="),
    "stability_max": ("stability_max", "worst_rel_change", "<="),
    "all_satisfied": ("all_finite", "all_finite", None),
}

# section -> key -> (validator type(s), default).  A default of None means
# "required when the experiment reads it".
SCHEMA: dict = {
    "": {
        "experiment": (str, None),
        "seed": (int, 0),
        "output_dir": (str, "runs/out"),
    },
    "objective": {
        "name": (str, "quadratic"),
        "dim": (int, 2),
    },
    "cbo": {
        "lambda": (_NUM, 1.0),
        "sigma": (_NUM, 0.1),
        "alpha": (_NUM, 20.0),
        "dt": (_NUM, 0.01),
        "n_particles": (int, 200),
        "horizon": (_NUM, 4.0),
        "seed": (int, None),
        "init_center": (list, [0.0, 0.0]),
        "init_spread": (_NUM, 1.0),
        "record_every": (int, 1),
    },
    "coupling": {
        "sizes": (list, [64, 256, 1024, 4096]),
        "reference_size": (int, 16384),
        "horizon": (_NUM, 1.0),
        "dt": (_NUM, 0.01),
        "init_center": (list, [1.0, 1.0]),
        "init_spread": (_NUM, 1.0),
        "lambda": (_NUM, 1.0),
        "sigma": (_NUM, 0.5),
        "alpha": (_NUM, 10.0),
    },
    "pde": {
        "dim": (int, 2),
        "L": (_NUM, 8.0),
        "K": (int, 64),
        "M": (int, 256),
        "dt": (_NUM, 2e-3),
        "horizon": (_NUM, 0.5),
        "valpha_mode": (str, "self_consistent"),
        "valpha_const": (list, [0.0, 0.0]),
        "init_center": (list, [2.0, 2.0]),
        "init_radius": (_NUM, 1.0),
        "record_every": (int, 5),
        "snapshot_times": (list, []),
        "annulus_inner": (_NUM, 0.25),
        "annulus_outer": (_NUM, 5.0),
        "v_star": (_NUM, 0.0),
    },
    "cutoff": {
        "R": (_NUM, 14.0),
        "n": (_NUM, 324.0),
        "h_table": (_NUM, 1e-3),
        "h_fd": (_NUM, 1e-5),
        "samples": (int, 10000),
        "field": (str, "cbo"),          # cbo | quartic
        "valpha_const": (list, [0.3, -0.2]),
        "box": (_NUM, 3.0),
    },
    "diagnostics": {
        "fit_window": (list, []),       # empty -> [5*dt, horizon]
        "transient_steps": (int, 5),
    },
    "success": {
        "runs": (int, 20),
        "epsilon": (_NUM, 0.25),
    },
    "check": {key: (_NUM if op else bool, None)
              for key, (_, _, op) in CHECKS.items()},
}


def _check_key(section: str, key: str, value: Any) -> Any:
    path = f"{section}.{key}" if section else key
    if section not in SCHEMA or key not in SCHEMA[section]:
        raise ConfigError(f"unknown config key: {path}")
    expected, _ = SCHEMA[section][key]
    if expected is int and isinstance(value, bool):
        raise ConfigError(f"{path}: expected int, got bool")
    if expected is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, expected):
        raise ConfigError(
            f"{path}: expected {getattr(expected, '__name__', expected)}, "
            f"got {type(value).__name__}")
    return value


def default_config() -> dict:
    cfg: dict = {}
    for section, keys in SCHEMA.items():
        target = cfg.setdefault(section, {}) if section else cfg
        for key, (_, default) in keys.items():
            if default is not None:
                target[key] = copy.deepcopy(default)
    return cfg


def _merge(base: dict, override: dict, section: str = "") -> None:
    for key, value in override.items():
        if isinstance(value, dict):
            sub = f"{section}.{key}" if section else key
            if sub not in SCHEMA:
                raise ConfigError(f"unknown config section: {sub}")
            base.setdefault(key, {})
            _merge(base[key], value, sub)
        else:
            base[key] = _check_key(section, key, value)


def load_config(path: str, overrides=()) -> dict:
    """Read a JSON config, apply key=value overrides, return resolved dict.

    A run's manifest.json is accepted directly: its embedded resolved
    config is unwrapped, so any finished run can be replayed verbatim.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if set(raw.keys()) == {"package_version", "config"}:
        raw = raw["config"]
    return resolve_config(raw, overrides)


def resolve_config(raw: dict, overrides=()) -> dict:
    cfg = default_config()
    _merge(cfg, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key_path, _, text = item.partition("=")
        value = _parse_override(text)
        parts = key_path.split(".")
        section = ".".join(parts[:-1])
        target = cfg
        for part in parts[:-1]:
            if not isinstance(target.get(part), dict):
                if f"{section}" not in SCHEMA:
                    raise ConfigError(f"unknown config section: {section}")
                target[part] = {}
            target = target[part]
        target[parts[-1]] = _check_key(section, parts[-1], value)
    if "experiment" not in cfg:
        raise ConfigError("config is missing the 'experiment' key")
    if cfg["experiment"] not in EXPERIMENTS:
        raise ConfigError(
            f"experiment: unknown experiment {cfg['experiment']!r}; "
            f"choose from {', '.join(EXPERIMENTS)}")
    return cfg


def _parse_override(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare string


def manifest_text(cfg: dict, version: str) -> str:
    doc = {"package_version": version, "config": cfg}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
