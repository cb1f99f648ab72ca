"""Von Neumann stability of the step at the time steps the runs take.

With gamma frozen and equal in every element, a step of periodic linear
convection is linear and translation invariant.  Each of its three explicit
stages reaches one element further downwind, so element e's new state is
sum_j U[e - j] @ S_j over j = 0..3.  Row i of S_j is read off `imex_step` by
stepping basis function i of element 0 alone.  The step is stable when the
symbol G(theta) = sum_j S_j e^{-ij theta} has spectral radius at most 1 for
every theta (theta and -theta give conjugate symbols, so [0, pi] suffices).

A run's dt enters as its Courant number dt lambda / h_sub; the symbol
depends on nothing else, since the operator scales as 1/h.  For the
presets of other laws (burgers, nozzle, shu-osher), lambda is the largest
wave speed of the initial state, and the convection symbol stands in for
the step of the fastest characteristic.

With gamma in some elements only, the step is not translation invariant,
so its limit is read off the spectral radius of the whole step matrix.
"""

import numpy as np
import pytest

from subgrid_dg.harness import (
    CASES,
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
# (p, n) a run below takes, bisected on the symbol and rounded down.  With the
# penalty in every element the step is the sub-cell FV step, so its limit is
# p = 0's.
LIMITS = {
    (0, 5): (1.256, 1.256),
    (1, 8): (0.418, 1.256),
    (2, 8): (0.425, 1.256),
    (3, 8): (0.420, 1.256),
    (4, 8): (0.423, 1.256),
    (3, 5): (0.422, 1.256),
}
# The limit with gamma = C_pen in the first 1, 4 or 8 of the E elements and 0
# elsewhere: the smallest of the three, bisected on the step matrix (0.434,
# 0.445, 0.446 at p = 1; 0.424, 0.429, 0.429 at p = 3) and rounded down.
MIXED_LIMITS = {(1, 8): 0.434, (3, 8): 0.424}
MIXED_COUNTS = (1, 4, 8)
# every run at p >= 1 keeps this margin against the smallest limit above
MARGIN = 2.0
SMALLEST_LIMIT = min(min(min(row) for row in LIMITS.values()), *MIXED_LIMITS.values())


def step_matrix(p, n, courant, gammas):
    """The step at dt = courant h_sub / |beta| as an (E dof, E dof) matrix: row
    e dof + i is the new state of basis function i of element e alone, read
    off `imex_step` with the E dof probes stacked on the component axis."""
    bc = BoundaryCondition("periodic")
    disc = Discretization(build_uniform_mesh(0.0, 1.0, E, n), p, Convection(beta=1.0), bc, bc)
    size = E * disc.dof
    probes = np.eye(size).reshape(size, E, disc.dof)
    return imex_step(disc, FieldState(probes, 0.0), courant / (E * n), gammas).U.reshape(size, size)


def symbol_radius(p, n, courant, gamma):
    """max over theta of |eig G(theta)| at dt = courant h_sub / |beta|."""
    dof = p + n
    rows = step_matrix(p, n, courant, np.full(E, gamma))[:dof].reshape(dof, E, dof)
    assert not rows[:, 4:].any()
    S = rows[:, :4].transpose(1, 0, 2)
    G = np.einsum("tj,jab->tab", np.exp(-1j * np.outer(THETA, np.arange(4))), S)
    return np.abs(np.linalg.eigvals(G)).max()


def matrix_radius(p, n, courant, gammas):
    return np.abs(np.linalg.eigvals(step_matrix(p, n, courant, gammas))).max()


def courant_number(disc, state, dt):
    return dt * disc.max_wave_speed(state.U) / (np.min(disc.h) / disc.n)


def preset_courant(case, **overrides):
    """(p, n, Courant number) of a preset."""
    config, disc, state = build_problem(RunConfig(case=case, **overrides))
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
    smallest = min(LIMITS[p, n]) if p == 0 else SMALLEST_LIMIT
    print(f"{run} p={p} n={n} gamma={gamma:g}: dt = {courant:.4f} h_sub/lambda, "
          f"limit {LIMITS[p, n][gamma > 0]}, {smallest / courant:.2f}x margin to the smallest "
          f"limit {smallest}, radius - 1 = {radius - 1:.1e}")
    assert radius <= 1.0 + 1e-10
    assert MARGIN * courant <= smallest


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("case, overrides", [pytest.param(c, {}, id=c) for c in CASES] + [
    pytest.param("shu-osher", dict(p=0), id="shu-osher-p0"),   # the FV limit
])
def test_step_is_stable_at_the_dt_of_each_cfl_preset(case, overrides, gamma):
    check_stable(case, *preset_courant(case, **overrides), gamma)


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


@pytest.mark.parametrize("p, n", sorted(MIXED_LIMITS))
def test_tabulated_mixed_limit_is_the_step_matrix_limit(p, n):
    # stable at the tabulated limit whichever elements are penalized, and
    # unstable 10% beyond it with one
    limit = MIXED_LIMITS[p, n]
    for count in MIXED_COUNTS:
        gammas = np.where(np.arange(E) < count, DEFAULT_C_PEN, 0.0)
        assert matrix_radius(p, n, limit, gammas) <= 1.0 + 1e-10
        if count == 1:
            assert matrix_radius(p, n, 1.1 * limit, gammas) > 1.0 + 1e-10
