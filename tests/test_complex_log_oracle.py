"""The closed-form oracle of the 2-D equation at a frozen consensus 0.

`reference.complex_log_oracle` is checked against what holds exactly for
the law of Y_t = Y_0 e^w, w = a + i b with a ~ N(-t, 2t) and b ~ N(0, 2t):
mass 1, mean e^{-t} times the initial mean, second moment E|Y|^2 =
e^{2t} E|Y_0|^2, and the equation itself.  The initial density is a
Gaussian of width 0.3 about (0.8, 0.4).  The 2-D solver, on its production
route, is then checked against the oracle under refinement of its modes.
"""

import numpy as np
import pytest

import reference
from cbolab import galerkin
from cbolab.cutoffs import CutoffSpec

CENTER, WIDTH = np.array([0.8, 0.4]), 0.3


def _rho0(p):
    return (np.exp(-np.sum(np.square(p - CENTER), axis=-1) / (2 * WIDTH**2))
            / (2 * np.pi * WIDTH**2))


def _moments(t, nodes):
    """Mass, complex mean and E|Y|^2 of the oracle by the rectangle rule in
    log-polar coordinates y = e^{s + i theta}, where dy = e^{2s} ds dtheta.
    Multiplying by e^w translates (s, theta), so every node's image of
    rho0 is resolved on the same grid, however far it is scaled; the range
    of s holds the tails of e^{2s} rho0(0) near the origin and of the
    scaled images far out."""
    s = np.arange(-17.0 - 3.0 * t, 5.0 + 12.0 * t, 0.1)
    theta = 2 * np.pi * np.arange(64) / 64
    z = np.exp(s[:, None] + 1j * theta)
    rho = reference.complex_log_oracle(
        _rho0, t, np.stack([z.real, z.imag], axis=-1), nodes)
    mass = rho * np.abs(z) ** 2 * (0.1 * 2 * np.pi / 64)
    return mass.sum(), (mass * z).sum(), (mass * np.abs(z) ** 2).sum()


@pytest.mark.parametrize("t", [0.05, 0.1, 0.3])
def test_moments_are_the_closed_forms(t):
    # the moments are Gauss-Hermite integrals of 1, e^a e^{ib} and e^{2a},
    # which 24 nodes take to rounding; the nodes' pointwise accuracy is the
    # equation test's.  Measured errors: at most 3e-14
    mass, mean, second = _moments(t, nodes=24)
    mean0 = complex(*CENTER)
    second0 = CENTER @ CENTER + 2 * WIDTH**2
    assert mass == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert abs(mean - np.exp(-t) * mean0) <= 1e-12 * abs(mean0)
    assert second == pytest.approx(np.exp(2 * t) * second0, rel=1e-12, abs=0.0)


def _residual(t, dt, h, points):
    """|d rho/dt - div(y rho) - Lap(|y|^2 rho)| at each point by centred
    differences, over the largest of the three terms there."""
    stencil = np.array([[0, 0], [h, 0], [-h, 0], [0, h], [0, -h]])
    grid = points[:, None] + stencil
    before, now, after = (reference.complex_log_oracle(_rho0, s, grid)
                          for s in (t - dt, t, t + dt))
    dt_rho = (after - before)[:, 0] / (2 * dt)
    flux = grid * now[..., None]
    div = (flux[:, 1, 0] - flux[:, 2, 0] + flux[:, 3, 1] - flux[:, 4, 1]) / (2 * h)
    spread = np.sum(grid**2, axis=-1) * now
    lap = (spread[:, 1:].sum(axis=1) - 4 * spread[:, 0]) / h**2
    largest = np.max(np.abs([dt_rho, div, lap]), axis=0)
    return np.abs(dt_rho - div - lap) / largest


def test_oracle_solves_the_equation():
    # at t = 0.1 with 96 nodes the residual is the differences' own
    # truncation error: measured at most 2.3e-5 of the largest term, and
    # 4.0-4.1 times larger at doubled steps, as second-order differences are
    points = np.array([[0.8, 0.4], [0.3, 0.9], [1.2, -0.2], [-0.4, 0.5]])
    fine = _residual(0.1, 1e-4, 1e-3, points)
    coarse = _residual(0.1, 2e-4, 2e-3, points)
    assert np.max(fine) <= 1e-4
    assert np.all(coarse >= 3.0 * fine)


def _solver_error(modes, grid, t=0.1):
    """L1 distance over the grid between the solver's density at time t,
    from rho0 projected on K = `modes`, M = `grid` on the box L = 8, and
    the oracle with 24 nodes; and the oracle's mass on that grid."""
    # no truncation on the box and a frozen consensus: the mode-space route
    problem = galerkin.PDEProblem(
        cutoff=CutoffSpec(shell_radius=1e6, plateau_scale=1e7),
        valpha=[0.0, 0.0])
    f = galerkin.project_initial(_rho0, problem, 2, 8.0, modes, grid)
    assert galerkin._workspace(problem, f).products is not None
    final = galerkin.evolve(f, problem, t, 1e-3, record_every=1000).final
    exact = reference.complex_log_oracle(_rho0, t, final.grid_points(), 24)
    cell = final.cell_volume
    return (np.abs(final.grid_values() - exact).sum() * cell,
            exact.sum() * cell)


def test_2d_solver_converges_to_the_oracle():
    # the error is spatial: dt = 2.5e-4 reads the same to 4 digits, and 48
    # nodes move the fine error by 0.2%.  Measured: L1 errors 0.2384 at
    # K = 16, M = 64 and 0.02190 at K = 32, M = 128, a 10.9x drop, with the
    # oracle's mass on the two grids 1.0004 and 1.000002, so the box holds
    # the solution.  A diffusion 1% too strong reads 0.02372 at K = 32
    coarse, coarse_mass = _solver_error(16, 64)
    fine, fine_mass = _solver_error(32, 128)
    assert abs(coarse_mass - 1.0) <= 1e-3 and abs(fine_mass - 1.0) <= 1e-5
    assert fine <= 0.0225
    assert coarse >= 10.0 * fine
