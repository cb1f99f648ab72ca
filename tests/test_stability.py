"""Von Neumann stability of the step at the time steps the runs take.

With gamma frozen and equal in every element, a step of periodic linear
convection is linear and translation invariant.  Each of its three explicit
stages reaches one element further downwind, so element e's new state is
sum_j U[e - j] @ S_j over j = 0..3.  Row i of S_j is read off `imex_step` by
stepping basis function i of element 0 alone.  The step is stable when the
symbol G(theta) = sum_j S_j e^{-ij theta} has spectral radius at most 1 for
every theta (theta and -theta give conjugate symbols, so [0, pi] suffices).

A run's dt enters as its Courant number dt lambda / h_sub; the symbol
depends on nothing else, since the operator scales as 1/h.  For shu-osher,
an Euler preset, lambda is the largest wave speed of its initial state, and
the convection symbol stands in for the step of its fastest characteristic.
"""

import numpy as np
import pytest

from subgrid_dg.harness import (
    RunConfig,
    build_problem,
    default_dt,
    spatial_accuracy_dt_rule,
)
from subgrid_dg.mesh import build_uniform_mesh
from subgrid_dg.physics import BoundaryCondition, Convection
from subgrid_dg.sensor import DEFAULT_C_PEN
from subgrid_dg.solver import Discretization, FieldState, imex_step

E = 16
THETA = np.linspace(0.0, np.pi, 181)
GAMMAS = (0.0, DEFAULT_C_PEN)
LEVELS = (8, 16, 32, 64)          # criteria 1 and 2's refinement levels

# The limit in h_sub / lambda at gamma = 0 and at gamma = C_pen for each
# (p, n) a run below takes, bisected on the symbol and rounded down.
LIMITS = {
    (0, 5): (1.256, 1.256),
    (1, 8): (0.418, 0.176),
    (2, 8): (0.425, 0.179),
    (3, 8): (0.420, 0.177),
    (4, 8): (0.423, 0.179),
    (3, 5): (0.422, 0.179),
}


def symbol_radius(p, n, courant, gamma):
    """max over theta of |eig G(theta)| at dt = courant h_sub / |beta|."""
    bc = BoundaryCondition("periodic")
    disc = Discretization(build_uniform_mesh(0.0, 1.0, E, n), p, Convection(beta=1.0), bc, bc)
    S = np.empty((4, disc.dof, disc.dof))
    for i in range(disc.dof):
        probe = np.zeros((1, E, disc.dof))
        probe[0, 0, i] = 1.0
        U = imex_step(disc, FieldState(probe, 0.0), courant / (E * n), np.full(E, gamma)).U[0]
        assert not U[4:].any()
        S[:, i] = U[:4]
    G = np.einsum("tj,jab->tab", np.exp(-1j * np.outer(THETA, np.arange(4))), S)
    return np.abs(np.linalg.eigvals(G)).max()


def courant_number(disc, state, dt):
    return dt * disc.max_wave_speed(state.U) / (np.min(disc.h) / disc.n)


def preset_courant(case):
    """(p, n, Courant number) of a CFL preset."""
    config, disc, state = build_problem(RunConfig(case=case))
    return config.p, config.n, courant_number(disc, state, default_dt(disc, state.U, config.cfl))


def study_courant(criterion, p):
    """The largest Courant number over the levels of criterion 1's study (the
    h^((p+1)/2) rule) or criterion 2's (the CFL step of each level)."""
    case = "convection-gaussian" if criterion == 1 else "convection-heaviside"
    rule = spatial_accuracy_dt_rule(LEVELS[0])
    courants = []
    for level in LEVELS:
        config, disc, state = build_problem(RunConfig(case=case, p=p, n=8, n_elements=level))
        dt = rule(config) if criterion == 1 else default_dt(disc, state.U, config.cfl)
        courants.append(courant_number(disc, state, dt))
    return max(courants)


def check_stable(run, p, n, courant, gamma):
    radius = symbol_radius(p, n, courant, gamma)
    limit = LIMITS[p, n][gamma > 0]
    print(f"{run} p={p} n={n} gamma={gamma:g}: dt = {courant:.4f} h_sub/lambda, "
          f"limit {limit} ({limit / courant:.2f}x margin), radius - 1 = {radius - 1:.1e}")
    assert radius <= 1.0 + 1e-10


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("case", ["convection-gaussian", "convection-heaviside",
                                  "convection-recovery", "shu-osher", "fv-comparison"])
def test_step_is_stable_at_the_dt_of_each_cfl_preset(case, gamma):
    check_stable(case, *preset_courant(case), gamma)


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("criterion", [1, 2])
def test_step_is_stable_at_the_dt_of_criteria_1_and_2(criterion, p, gamma):
    check_stable(f"criterion {criterion}", p, 8, study_courant(criterion, p), gamma)


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("p, n", sorted(LIMITS))
def test_tabulated_limit_is_the_symbol_limit(p, n, gamma):
    # stable at the tabulated limit, unstable 10% beyond it: the check above
    # sees a step that is too long
    limit = LIMITS[p, n][gamma > 0]
    assert symbol_radius(p, n, limit, gamma) <= 1.0 + 1e-10
    assert symbol_radius(p, n, 1.1 * limit, gamma) > 1.0 + 1e-10
