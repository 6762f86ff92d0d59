"""The closed-form oracle of the 1-D equation at a frozen consensus 0.

`reference.lognormal_oracle` is checked against what holds exactly for the
law of X_t = X_0 exp(-2t + sqrt(2) W_t): mass 1, mean exp(-t) times the
initial mean, a constant second moment, no mass right of 0, and the
equation itself.  The initial density is confinement-1d's bump, whose
support lies left of its frozen consensus point v* = 0.
"""

import json
import pathlib

import numpy as np
import pytest

import reference

CONFIG = json.loads((pathlib.Path(__file__).resolve().parents[1]
                     / "configs" / "confinement-1d.json").read_text())


def _bump(n=701):
    """confinement-1d's bump on n nodes spanning its support, of mass 1."""
    p = CONFIG["pde"]
    assert p["valpha_const"] == [0.0] and p["v_star"] == 0.0
    center, radius = p["init_center"][0], p["init_radius"]
    x0 = np.linspace(center - radius, center + radius, n)
    r2 = ((x0 - center) / radius) ** 2
    rho0 = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)
    rho0 /= rho0.sum() * (x0[1] - x0[0])
    return rho0, x0


def _moments(rho0, x0, t, y):
    """Mass, mean and second moment of the oracle left of 0, by the
    trapezoidal rule in y = ln|x| on the uniform nodes y."""
    x = -np.exp(y)
    w = reference.lognormal_oracle(rho0, x0, t, x) * np.exp(y) * (y[1] - y[0])
    return w.sum(), w @ x, w @ (x * x)


@pytest.mark.parametrize("t,span", [(0.02, 4.0), (0.5, 14.0)])
def test_moments_are_the_closed_forms(t, span):
    # the second moment weighs the far tail of the log-normal, so the y
    # range grows with t
    rho0, x0 = _bump()
    h = x0[1] - x0[0]
    mean0, second0 = (x0 * rho0).sum() * h, (x0 * x0 * rho0).sum() * h
    mass, mean, second = _moments(rho0, x0, t, np.arange(-span, span, 0.02))
    assert mass == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert mean == pytest.approx(np.exp(-t) * mean0, rel=1e-12, abs=0.0)
    assert second == pytest.approx(second0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t", [0.02, 0.5, 1.0])
def test_no_mass_right_of_the_consensus(t):
    rho0, x0 = _bump()
    x = np.concatenate([[0.0], np.geomspace(1e-6, 60.0, 50)])
    assert np.all(reference.lognormal_oracle(rho0, x0, t, x) == 0.0)


def test_oracle_solves_the_equation():
    # centred differences of d rho/dt against d(x rho)/dx + d^2(x^2 rho)/dx^2
    rho0, x0 = _bump()
    t, dt, h = 0.05, 1e-4, 2e-3
    x = np.arange(-6.0, -0.1, h)
    before, now, after = (reference.lognormal_oracle(rho0, x0, s, x)
                          for s in (t - dt, t, t + dt))
    lhs = (after - before)[1:-1] / (2.0 * dt)
    flux, spread = x * now, x * x * now
    rhs = ((flux[2:] - flux[:-2]) / (2.0 * h)
           + (spread[2:] - 2.0 * spread[1:-1] + spread[:-2]) / h**2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-4 * np.max(np.abs(lhs))
