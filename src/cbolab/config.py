"""Strict experiment configuration: schema, defaults, overrides, manifest.

Configs are JSON objects with one section per module plus an `experiment`
selector.  Parsing is strict: unknown sections or keys are rejected with
the offending path, so a typo cannot silently fall back to a default, and
each value must have its key's type and bound (see SCHEMA).
Every run echoes its fully resolved configuration into `manifest.json`,
which can be fed back to `run` to reproduce the run byte for byte.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from typing import Any

from . import __version__
from .objectives import BUILTINS, ConfigurationError


EXPERIMENTS = (
    "optimize", "pde-run", "mfl-scaling", "cutoff-check", "success-prob",
)

_NUM = (int, float)

# check key -> (measured quantity, comparison); this table defines the
# `check` section, and `experiments.write_summary` evaluates it.  `_min`
# bounds hold with >=, `_max` bounds with <=, the positivity floor strictly.
CHECKS = {
    "final_w2_max": ("final_w2", "<="),
    "rate_min": ("rate", ">="),
    "rate_max": ("rate", "<="),
    "r2_min": ("r2", ">="),
    "slope_min": ("slope", ">="),
    "slope_max": ("slope", "<="),
    "fraction_min": ("fraction", ">="),
    "mass_drift_max": ("mass_drift", "<="),
    "positivity_floor": ("min_density", ">"),
    "confinement_max": ("right_mass_sup", "<="),
    "stability_max": ("worst_rel_change", "<="),
}

# Rules: (test, phrase).  A value that fails its key's test ends in
# `<key>: need <phrase>, got <value>`.
_NONNEGATIVE = (lambda v: v >= 0, "a non-negative value")
_POSITIVE = (lambda v: v > 0, "a positive value")
_AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
# the noise streams hash a seed as one 64-bit word: a larger seed would run
# the particles of its value mod 2**64 while the manifest records another
_SEED = (lambda v: 0 <= v < 2**64, "a non-negative value below 2**64")
# a run's dimension is the length of the point it starts from
_POINT = (lambda v: len(v) >= 1, "a point of one or more numbers")


def _one_of(*choices):
    return (lambda v: v in choices, "one of " + ", ".join(choices))


# section -> key -> (type(s), default[, rule]).  A default of None means
# "required" for `experiment`, "off" for `pde.valpha_const` (then the
# consensus is self-consistent), a `pde` probe key and `cutoff.box`, and
# "no threshold" for a `check` key.  A list holds numbers.  Every number
# must be finite, and every value loaded, read by its experiment or not,
# must pass its key's rule; a rule checks one key, and the drivers check
# the relations between keys.
SCHEMA: dict = {
    "": {
        "experiment": (str, None, _one_of(*EXPERIMENTS)),
        "seed": (int, 0, _SEED),
    },
    "objective": {
        "name": (str, "quadratic", _one_of(*sorted(BUILTINS))),
    },
    "cbo": {
        "lambda": (_NUM, 1.0, _NONNEGATIVE),
        "sigma": (_NUM, 0.1, _NONNEGATIVE),
        "alpha": (_NUM, 20.0, _NONNEGATIVE),
        "dt": (_NUM, 0.01, _POSITIVE),
        "n_particles": (int, 200, _AT_LEAST_1),
        "horizon": (_NUM, 4.0, _POSITIVE),
        "init_center": (list, [0.0, 0.0], _POINT),
        "init_spread": (_NUM, 1.0, _NONNEGATIVE),
    },
    "coupling": {
        "sizes": (list, [64, 256, 1024, 4096],
                  (lambda v: len(v) >= 3 and all(type(n) is int and n >= 1
                                                 for n in v),
                   "at least 3 integer sizes, each at least 1")),
        "reference_size": (int, 16384, _AT_LEAST_1),
        "horizon": (_NUM, 1.0, _POSITIVE),
        "dt": (_NUM, 0.01, _POSITIVE),
        "init_center": (list, [1.0, 1.0], _POINT),
        "init_spread": (_NUM, 1.0, _NONNEGATIVE),
        "lambda": (_NUM, 1.0, _NONNEGATIVE),
        "sigma": (_NUM, 0.5, _NONNEGATIVE),
        "alpha": (_NUM, 10.0, _NONNEGATIVE),
    },
    "pde": {
        "L": (_NUM, 8.0, _POSITIVE),
        "K": (int, 64, _AT_LEAST_1),
        "M": (int, 256),
        "dt": (_NUM, 2e-3, _POSITIVE),
        "horizon": (_NUM, 0.5, _POSITIVE),
        "valpha_const": (list, None),
        "init_center": (list, [2.0, 2.0], (lambda v: len(v) in (1, 2),
                                           "1 or 2 numbers")),
        "init_radius": (_NUM, 1.0, _POSITIVE),
        "record_every": (int, 5, _AT_LEAST_1),
        "snapshot_times": (list, [], (lambda v: all(t >= 0 for t in v),
                                      "non-negative times")),
        "annulus_inner": (_NUM, None, _NONNEGATIVE),
        "annulus_outer": (_NUM, None),
        "v_star": (_NUM, None),
    },
    "cutoff": {
        "R": (_NUM, 14.0, (lambda v: v > 1, "a value above 1")),
        "n": (_NUM, 324.0, _POSITIVE),
        "samples": (int, 10000, _AT_LEAST_1),
        "field": (str, "cbo", _one_of("cbo", "quartic")),
        "valpha_const": (list, [0.3, -0.2], _POINT),
        "box": (_NUM, None, _POSITIVE),  # set: the raw field on [-box, box]^d
    },
    "success": {
        "runs": (int, 20, _AT_LEAST_1),
        "epsilon": (_NUM, 0.25, _NONNEGATIVE),
    },
    "check": {key: (_NUM, None) for key in CHECKS},
}


def _check_key(section: str, key: str, value: Any) -> Any:
    # an empty key name is shown as "", like an empty section name
    shown = key or '""'
    path = f"{section}.{shown}" if section else shown
    if section not in SCHEMA or key not in SCHEMA[section]:
        raise ConfigurationError(f"unknown config key: {path}")
    expected, _, *rule = SCHEMA[section][key]
    if expected is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    # no key is a switch, and to isinstance a bool is an int
    if isinstance(value, bool) or not isinstance(value, expected):
        name = "number" if expected is _NUM else expected.__name__
        raise ConfigurationError(
            f"{path}: expected {name}, got {type(value).__name__}")
    entries = value if expected is list else [value]
    if expected is list and not all(type(v) in _NUM for v in entries):
        raise ConfigurationError(f"{path}: need a list of numbers, got {value!r}")
    if expected is not str and not all(map(math.isfinite, entries)):
        raise ConfigurationError(f"{path}: need a finite number, got {value!r}")
    for test, phrase in rule:
        if not test(value):
            raise ConfigurationError(f"{path}: need {phrase}, got {value!r}")
    return value


def default_config() -> dict:
    cfg: dict = {}
    for section, keys in SCHEMA.items():
        target = cfg.setdefault(section, {}) if section else cfg
        for key, (_, default, *_) in keys.items():
            if default is not None:
                target[key] = copy.deepcopy(default)
    return cfg


def _merge(base: dict, override: dict, section: str = "") -> None:
    for key, value in override.items():
        if isinstance(value, dict):
            sub = f"{section}.{key}" if section else key
            if not sub or sub not in SCHEMA:
                # the root section has no name: its keys go without a dot
                shown = sub or '""'
                raise ConfigurationError(f"unknown config section: {shown}")
            base.setdefault(key, {})
            _merge(base[key], value, sub)
        else:
            base[key] = _check_key(section, key, value)


def load_config(path: str, overrides=()) -> dict:
    """Read a JSON config, apply key=value overrides, return resolved dict.

    A run's manifest.json is accepted directly: its embedded resolved
    config is unwrapped, so any finished run can be replayed verbatim.  A
    manifest written by another package version still runs, after one
    `warning:` line on stderr, since its bytes need not replay.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read ({exc.strerror})") from None
    except ValueError as exc:       # bad JSON, or bytes that are no text
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from None
    if isinstance(raw, dict) and set(raw) == {"package_version", "config"}:
        if raw["package_version"] != __version__:
            print(f"warning: {path} was written by cbolab "
                  f"{raw['package_version']}, this is {__version__}; the "
                  f"run may differ from the recorded one", file=sys.stderr)
        raw = raw["config"]
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"{path}: need a JSON object, got {type(raw).__name__}")
    return resolve_config(raw, overrides)


def resolve_config(raw: dict, overrides=()) -> dict:
    cfg = default_config()
    _merge(cfg, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(
                f"override {item!r} is not of the form key=value")
        key_path, _, text = item.partition("=")
        value = _parse_override(text)
        # `a.b=v` reads as {"a": {"b": v}} in a config file, `b=v` as {"b": v}
        section, dot, key = key_path.rpartition(".")
        _merge(cfg, {section: {key: value}} if dot else {key: value})
    if "experiment" not in cfg:
        raise ConfigurationError("config is missing the 'experiment' key")
    return cfg


def _parse_override(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare string


def manifest_text(cfg: dict, version: str) -> str:
    doc = {"package_version": version, "config": cfg}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
