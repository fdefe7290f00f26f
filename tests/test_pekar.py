"""Ground-state solvers: closed-form Gaussian values, descent convergence,
virial identities, and the discrete self-consistent model."""

import numpy as np
import pytest

from polaronlab.grid import Field, Grid3, gaussian, inner
from polaronlab.modes import ModeSet, axis_pair, mode_preset
from polaronlab.pekar import (
    GAUSSIAN_BOUND,
    GAUSSIAN_OPT_SIGMA,
    DelocalizedError,
    NotNormalizedError,
    PekarSolution,
    delta_g_field,
    minimize_pekar,
    pekar_energy,
    solve_discrete_pekar,
)


def test_gaussian_energy_matches_closed_form():
    # for the width-sigma Gaussian: T = 3/(4 sigma^2), D = 1/(sigma sqrt(pi))
    grid = Grid3(40, 64.0)
    sigma = 4.0
    T, D, E = pekar_energy(gaussian(grid, sigma))
    assert abs(T - 3.0 / (4.0 * sigma**2)) < 1e-10
    assert abs(D - 1.0 / (sigma * np.sqrt(np.pi))) / D < 1e-3
    assert abs(E - (T - 0.5 * D)) < 1e-14


def test_optimal_gaussian_attains_bound():
    # sigma = 3 sqrt(pi) minimizes over Gaussians, giving E = -1/(12 pi)
    sigma = GAUSSIAN_OPT_SIGMA
    T = 3.0 / (4.0 * sigma**2)
    D = 1.0 / (sigma * np.sqrt(np.pi))
    assert abs((T - 0.5 * D) - GAUSSIAN_BOUND) < 1e-15


def test_pekar_energy_rejects_unnormalized():
    grid = Grid3(8, 4 * np.pi)
    with pytest.raises(NotNormalizedError):
        pekar_energy(gaussian(grid, 1.0) * 2.0)


def test_minimize_beats_gaussian_and_satisfies_virial():
    sol = minimize_pekar(Grid3(40, 80.0))
    assert sol.energy < GAUSSIAN_BOUND
    assert abs(sol.D - 4.0 * sol.T) / sol.D < 1e-3
    assert abs(sol.lam - 3.0 * sol.energy) / abs(sol.energy) < 1e-3
    assert sol.residual <= 1e-6


def test_minimize_detects_delocalized_collapse():
    # on a small box the uniform state wins and the solver must refuse it
    with pytest.raises(DelocalizedError):
        minimize_pekar(Grid3(16, 16.0))


def test_solution_roundtrip(tmp_path):
    sol = minimize_pekar(Grid3(40, 80.0))
    sol.save(str(tmp_path))
    back = PekarSolution.load(str(tmp_path))
    assert back.grid == sol.grid
    assert np.array_equal(back.phi0.values, sol.phi0.values)
    assert back.energy == sol.energy
    assert back.lam == sol.lam


@pytest.fixture(scope="module")
def dsol():
    grid = Grid3(8, 4 * np.pi)
    return solve_discrete_pekar(grid, mode_preset("pair-x", grid.box_length))


class TestDiscreteModel:
    def test_normalized_real_ground_state(self, dsol):
        assert abs(dsol.phi0.norm() - 1.0) < 1e-10
        assert dsol.phi0.is_real(1e-10)

    def test_self_consistency(self, dsol):
        # lambda is the ground eigenvalue of p^2 + V built from f0
        from polaronlab.resolvent import apply_h

        hphi = apply_h(dsol, dsol.phi0)
        resid = Field(hphi.values - dsol.lam * dsol.phi0.values, dsol.grid).norm()
        assert resid < 1e-7

    def test_exactly_constant_along_uncoupled_axes(self, dsol):
        # pair-x couples only x; the coupled sector relies on phi0 being
        # constant along y and z to the last bit
        p = dsol.phi0.values
        assert np.array_equal(p, np.broadcast_to(p[:, :1, :1], p.shape))

    def test_energy_decomposition(self, dsol):
        # E = T - sum_i w_i |f_i|^2 and lambda = T - 2 sum_i w_i |f_i|^2
        s = float(np.sum(dsol.modes.weights * np.abs(dsol.f0) ** 2))
        assert abs(dsol.energy - (dsol.T - s)) < 1e-9
        assert abs(dsol.lam - (dsol.T - 2.0 * s)) < 1e-9

    def test_energy_trace_monotone(self, dsol):
        trace = np.asarray(dsol.energy_trace)
        assert np.all(np.diff(trace) <= 1e-10)

    def test_delta_g_orthogonal_to_ground(self, dsol):
        # <phi0, delta G phi0> = 0 by construction of f0
        for i in range(dsol.modes.M):
            dg = delta_g_field(dsol, i)
            val = inner(dsol.phi0, Field(dg.values * dsol.phi0.values, dsol.grid))
            assert abs(val) < 1e-9

    def test_unbound_modes_rejected(self):
        # |k| = 1 with a weak weight does not self-trap on this box
        grid = Grid3(8, 4 * np.pi)
        ks, ws = axis_pair(1.0, 0, 6.0)
        with pytest.raises(DelocalizedError):
            solve_discrete_pekar(grid, ModeSet(ks, ws))

    def test_roundtrip(self, dsol, tmp_path):
        from polaronlab.pekar import DiscretePekarSolution

        dsol.save(str(tmp_path))
        back = DiscretePekarSolution.load(str(tmp_path))
        assert np.array_equal(back.phi0.values, dsol.phi0.values)
        assert np.array_equal(back.f0, dsol.f0)
        assert back.lam == dsol.lam
