import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgrid_dg import harness
from subgrid_dg.basis import penalty_stage_rate
from subgrid_dg.harness import (
    NOZZLE_INLET,
    NOZZLE_OUTLET,
    SHU_OSHER_LEFT,
    RunConfig,
    build_problem,
    burgers_profile,
    convergence_study,
    default_dt,
    error_norm,
    fv_reference,
    gaussian_profile,
    heaviside_profile,
    nozzle_initial,
    project_initial,
    run_case,
    shu_osher_initial,
    sod_like_initial,
    spatial_accuracy_dt_rule,
)
from subgrid_dg.mesh import Mesh, build_uniform_mesh
from subgrid_dg.physics import (
    BoundaryCondition,
    Euler1D,
    euler_state_from_primitives,
    nozzle_area,
)
from subgrid_dg.projections import project_l2, project_lo
from subgrid_dg.sensor import DEFAULT_S_EPS
from subgrid_dg.solver import Discretization, SolverAbort, advance

# The presets and defaults the README's case table lists:
# case: (domain, p, n, n_elements, dt, t_final)
README_PRESETS = {
    "convection-gaussian": ((0.0, 1.0), 4, 8, 16, None, 1.0),
    "convection-heaviside": ((0.0, 1.0), 4, 8, 16, None, 1.0),
    "burgers": ((0.0, 1.0), 4, 8, 9, None, 0.88),
    "nozzle": ((0.0, 1.0), 4, 8, 9, None, 0.4),
    "shu-osher": ((-5.0, 5.0), 3, 5, 64, None, 1.78),
}


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(case="kelvin-helmholtz")
    # exactly the README's presets; the FV-only one is not a DG run, and the
    # message names every DG preset
    assert harness.CASES == tuple(README_PRESETS)
    with pytest.raises(ValueError, match=re.escape(f"choose from {harness.CASES}")):
        RunConfig(case="sod-like")
    cfg = RunConfig(case="burgers")
    assert cfg.force_gamma is None
    cfg = RunConfig(case="burgers", force_gamma_element=3)
    assert cfg.force_gamma == (3, 1.0e7)
    # sensor settings that would give a NaN or negative penalty are rejected
    # where they enter
    for bad in (dict(c_pen=-1.0), dict(c_pen=float("nan")), dict(tau=-0.01),
                dict(tau=float("inf"))):
        with pytest.raises(ValueError):
            RunConfig(case="burgers", **bad)
    # the s0 floor is the sensor's default in every run, not a run setting
    assert RunConfig(case="burgers").sensor_config.s_eps == DEFAULT_S_EPS
    with pytest.raises(TypeError):
        RunConfig(case="burgers", s_eps=1e-9)
    assert RunConfig(case="burgers", c_pen=0.0, tau=0.0).sensor_config.c_pen == 0.0


def test_case_defaults_applied():
    config, disc, state = build_problem(RunConfig(case="burgers"))
    assert (disc.p, disc.n, disc.n_elements) == (4, 8, 9)
    assert config.t_final == 0.88
    config, disc, _ = build_problem(RunConfig(case="shu-osher", p=1, n=3))
    assert (disc.p, disc.n, disc.n_elements) == (1, 3, 64)


@pytest.mark.parametrize("case", harness.CASES)
def test_run_config_carries_the_case_defaults_when_made(case):
    # the case row's defaults fill the unset fields, as the fill step applied
    # before each build did: {k: v for k, v in defaults if the field is None}
    defaults = harness._CASES[case].defaults
    config = RunConfig(case=case)
    assert {k: getattr(config, k) for k in defaults} == defaults
    _, p, n, n_elements, _, t_final = README_PRESETS[case]
    assert (config.p, config.n, config.n_elements, config.t_final) == (p, n, n_elements, t_final)
    # an explicit field wins over its default; the others still fill
    explicit = RunConfig(case=case, p=1, n_elements=5)
    assert (explicit.p, explicit.n, explicit.n_elements, explicit.t_final) == (1, n, 5, t_final)
    # a copy with a new element count keeps p, n and t_final
    finer = replace(explicit, n_elements=12)
    assert (finer.p, finer.n, finer.n_elements, finer.t_final) == (1, n, 12, t_final)
    assert build_problem(config)[0] is config


@pytest.mark.parametrize("case", harness.CASES)
def test_every_preset_builds_with_its_defaults(case):
    config, disc, state = build_problem(RunConfig(case=case))
    domain, p, n, n_elements, dt, t_final = README_PRESETS[case]
    assert (disc.mesh.a, disc.mesh.b) == domain
    assert (disc.p, disc.n, disc.n_elements) == (p, n, n_elements)
    assert (config.dt, config.t_final) == (dt, t_final)
    assert state.U.shape == (disc.law.m, n_elements, p + n)
    assert np.all(disc.law.admissible(disc.eval_at_quad(state.U)))


def test_nozzle_steady_params_computed_once_per_build():
    harness._nozzle_steady_params.cache_clear()
    build_problem(RunConfig(case="nozzle", p=1, n=2, n_elements=3))
    assert harness._nozzle_steady_params.cache_info().misses == 1


@pytest.mark.parametrize("overrides", [{}, dict(p=1, n=2, n_elements=3), dict(n_elements=32),
                                       dict(n_elements=5), dict(n_elements=16),
                                       dict(n_elements=64)])
def test_relaxed_shock_element_is_discrete_steady_state(overrides):
    # the built nozzle's shock element solves its one-element steady problem
    # with gamma from its own sensor; every other element is the projection
    config, disc, state = build_problem(RunConfig(case="nozzle", **overrides))
    x_shock = harness._nozzle_steady_params()[-1]
    element = disc.mesh.element_of(x_shock)
    xl, xr = disc.mesh.element_bounds(element)
    traces = [BoundaryCondition("prescribed", state=tuple(nozzle_initial(np.array([x]))[:, 0]))
              for x in (xl, xr)]
    disc1 = Discretization(Mesh(np.array([xl, xr]), disc.n), disc.p, disc.law, *traces,
                           disc.sensor_config)
    U = state.U[:, element:element + 1]
    gamma = disc1.evaluate_sensor(U).gamma
    penalty_rate = penalty_stage_rate(disc1.p, disc1.n, U, gamma, 0.0)   # -M^-1 gamma M_pp U
    F = disc1.solve_mass(disc1.residual(U, 0.0)) + penalty_rate
    assert np.linalg.norm(F) <= 1e-10 * max(1.0, np.linalg.norm(penalty_rate))
    u0 = project_initial(disc, harness._CASES["nozzle"].initial, (x_shock,))
    others = np.arange(disc.n_elements) != element
    assert np.array_equal(state.U[:, others], u0.U[:, others])
    assert not np.array_equal(state.U[:, element], u0.U[:, element])


def test_shock_relaxation_on_a_nonuniform_mesh_solves_the_element_holding_the_shock():
    # x_shock = 0.6649 lies in element 4, [0.62, 1]: element 3 ends at 0.62,
    # short of x_shock * E = 3.32
    case = harness._CASES["nozzle"]
    mesh = Mesh(element_boundaries=np.array([0.0, 0.3, 0.5, 0.6, 0.62, 1.0]), n_sub=8)
    disc = Discretization(mesh, 4, case.law(), case.bc_left, case.bc_right)
    x_shock = harness._nozzle_steady_params()[-1]
    u0 = project_initial(disc, case.initial, (x_shock,))
    state = harness._relax_shock_element(disc, u0, x_shock)
    changed = [e for e in range(5) if not np.array_equal(state.U[:, e], u0.U[:, e])]
    assert changed == [4]


def test_shock_relaxation_without_steady_state_aborts(monkeypatch):
    class Shifted(harness.Discretization):
        def residual(self, U, t):        # M^-1 (R + 1 - penalty) has no root
            return super().residual(U, t) + 1.0

    monkeypatch.setattr(harness, "Discretization", Shifted)
    with pytest.raises(SolverAbort, match=r"shock element 5 on x in \[0\.555556, 0\.666667\]"
                                          r": \|F\| = .* after \d+ Newton iterations"):
        build_problem(RunConfig(case="nozzle"))


def test_shock_relaxation_at_three_elements_ends_in_named_abort():
    # at p = 4, n = 8 the shock element of a 3-element nozzle has no
    # discrete steady state; the abort names it, not a Jacobian probe
    with pytest.raises(SolverAbort, match=r"no discrete steady state for shock element 1 on x "
                                          r"in \[0\.333333, 0\.666667\]: \|F\| = "):
        build_problem(RunConfig(case="nozzle", n_elements=3))


def test_shock_relaxation_differences_an_inadmissible_probe_backwards(monkeypatch):
    _, _, plain = build_problem(RunConfig(case="nozzle"))
    states = []

    class ProbeRejecting(harness.Discretization):
        def residual(self, U, t):
            states.append(U.copy())
            if U.ndim == 4 and sum(V.ndim == 4 for V in states) == 1:   # the first probe stack
                raise SolverAbort("inadmissible state at t=0: non-positive pressure")
            return super().residual(U, t)

    monkeypatch.setattr(harness, "Discretization", ProbeRejecting)
    _, _, state = build_problem(RunConfig(case="nozzle"))
    # the rejected stack of forward probes is followed by its mirror image;
    # the Newton iterate is the last single state before it
    first = next(i for i, V in enumerate(states) if V.ndim == 4)
    iterate = states[first - 1][:, None]
    forward, backward = states[first] - iterate, states[first + 1] - iterate
    assert forward.shape == backward.shape == (3, 36, 1, 12)
    for f, b in zip(np.moveaxis(forward, 1, 0), np.moveaxis(backward, 1, 0)):
        assert np.count_nonzero(f) == np.count_nonzero(b) == 1
        assert np.array_equal(np.sign(b), -np.sign(f))
    assert np.max(np.abs(state.U - plain.U)) <= 1e-9 * np.max(np.abs(plain.U))


def counting_bisect(monkeypatch):
    calls = []
    real = harness._bisect
    monkeypatch.setattr(harness, "_bisect", lambda *a: calls.append(a) or real(*a))
    return calls


def test_nozzle_steady_params_makes_three_flat_solves(monkeypatch):
    # inlet Mach number, pre-shock Mach number, shock position: no density
    # solve inside the shock search
    calls = counting_bisect(monkeypatch)
    harness._nozzle_steady_params.cache_clear()
    try:
        harness._nozzle_steady_params()
    finally:
        harness._nozzle_steady_params.cache_clear()
    assert len(calls) == 3


def test_nozzle_inlet_iteration_matches_200_damped_steps_bit_for_bit():
    # the inlet fixed-point loop stops once an iterate repeats; the state it
    # stops at is the one all 200 iterations of the former loop reach
    gamma_a = harness.GAS_GAMMA
    rho_a, u_a, m_a = NOZZLE_INLET
    p_a = rho_a * (u_a / m_a) ** 2 / gamma_a
    a_throat = float(nozzle_area(np.array([0.5]))[0][0])

    def area_ratio(mach):
        t = (2.0 / (gamma_a + 1.0)) * (1.0 + 0.5 * (gamma_a - 1.0) * mach * mach)
        return t ** ((gamma_a + 1.0) / (2.0 * (gamma_a - 1.0))) / mach

    mach_in = float(harness._bisect(lambda m: area_ratio(m) - 1.0 / a_throat, 1e-3, 1.0))
    rho_d, u_d, p_d = rho_a, u_a, p_a
    for _ in range(200):
        c_d = np.sqrt(gamma_a * p_d / rho_d)
        p_new = p_a - rho_d * c_d * (u_d - u_a)
        rho_new = rho_a + (p_new - p_a) / (c_d * c_d)
        u_new = mach_in * np.sqrt(gamma_a * p_new / rho_new)
        rho_d = 0.5 * (rho_d + rho_new)
        u_d = 0.5 * (u_d + u_new)
        p_d = 0.5 * (p_d + p_new)
    mdot, sigma1, _, enthalpy, _ = harness._nozzle_steady_params()
    assert mdot == rho_d * u_d
    assert sigma1 == p_d / rho_d ** gamma_a
    assert enthalpy == gamma_a * p_d / ((gamma_a - 1.0) * rho_d) + 0.5 * u_d * u_d


def test_nozzle_initial_makes_one_bisection(monkeypatch):
    harness._nozzle_steady_params()
    calls = counting_bisect(monkeypatch)
    nozzle_initial(np.linspace(0.0, 1.0, 101))
    assert len(calls) == 1


def nozzle_density_on_branch(area, mdot, sigma, enthalpy, branch):
    """The steady duct-flow density on one branch for every point, as the
    set-up solved it before one masked bisection did."""
    gamma_a = harness.GAS_GAMMA

    def f(rho):
        c2 = gamma_a * sigma * rho ** (gamma_a - 1.0)
        return c2 / (gamma_a - 1.0) + mdot ** 2 / (2.0 * area ** 2 * rho ** 2) - enthalpy

    rho_sonic = (mdot ** 2 / (gamma_a * sigma * area ** 2)) ** (1.0 / (gamma_a + 1.0))
    lo, hi = (rho_sonic, 10.0) if branch == "subsonic" else (1e-3, rho_sonic)
    return bisect_200(f, lo, hi)


def nested_shock_position():
    """The shock position as a bisection over x of the entropy jump behind
    a normal shock, with the supersonic density bisected at every x."""
    gamma_a = harness.GAS_GAMMA
    mdot, sigma1, sigma2, enthalpy, _ = harness._nozzle_steady_params()

    def post_shock_entropy(x):
        area = nozzle_area(np.array([x]))[0][0]
        rho1 = nozzle_density_on_branch(area, mdot, sigma1, enthalpy, "supersonic")
        u1 = mdot / (rho1 * area)
        p1 = sigma1 * rho1 ** gamma_a
        msq = rho1 * u1 * u1 / (gamma_a * p1)
        p2 = p1 * (2.0 * gamma_a * msq - (gamma_a - 1.0)) / (gamma_a + 1.0)
        rho2 = rho1 * (gamma_a + 1.0) * msq / ((gamma_a - 1.0) * msq + 2.0)
        return p2 / rho2 ** gamma_a

    return bisect_200(lambda x: sigma2 - post_shock_entropy(x), 0.5 + 1e-9, 1.0 - 1e-9)


def test_flat_shock_position_matches_nested_bisection():
    x_shock = harness._nozzle_steady_params()[-1]
    assert isinstance(x_shock, float)
    assert abs(x_shock - nested_shock_position()) <= 1e-13 * x_shock
    assert x_shock == pytest.approx(0.66489327197981507, rel=1e-13)


@settings(max_examples=100, deadline=None)
@given(x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
       supersonic=st.lists(st.booleans(), min_size=20, max_size=20),
       downstream=st.lists(st.booleans(), min_size=20, max_size=20))
def test_nozzle_density_mask_matches_both_branches(x, supersonic, downstream):
    # one bisection with per-point brackets equals the subsonic and the
    # supersonic bisection over every point, picked per point
    mdot, sigma1, sigma2, enthalpy, _ = harness._nozzle_steady_params()
    area = nozzle_area(np.array(x))[0]
    k = len(x)
    mask = np.array(supersonic[:k])
    sigma = np.where(downstream[:k], sigma2, sigma1)
    dense, light = (nozzle_density_on_branch(area, mdot, sigma, enthalpy, branch)
                    for branch in ("subsonic", "supersonic"))
    assert np.array_equal(harness._nozzle_density(area, mdot, sigma, enthalpy, mask),
                          np.where(mask, light, dense))


def bisect_200(g, lo, hi):
    """_bisect as it was: always 200 halvings."""
    lo_positive = g(lo) > 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = (g(mid) > 0) == lo_positive
        if isinstance(up, np.ndarray):
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        else:
            lo, hi = (mid, hi) if up else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("g, lo, hi", [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: np.exp(-x) - x, 1.0, 0.0),
    (lambda x: x ** 3 - np.arange(1.0, 6.0), np.zeros(5), np.linspace(1.0, 3.0, 5)),
    (lambda x: np.sin(x) - 0.5, 0.0, np.linspace(1.0, 3.0, 4)),
    (lambda x: x - np.nan, 0.0, 1.0),
    (lambda x: x - 0.5, np.array([np.nan, 0.0]), np.array([1.0, 1.0])),
])
def test_bisect_matches_200_halvings(g, lo, hi):
    assert np.array_equal(harness._bisect(g, lo, hi), bisect_200(g, lo, hi), equal_nan=True)


def test_nozzle_profile_matches_200_halvings(monkeypatch):
    x = np.linspace(0.0, 1.0, 2001)
    harness._nozzle_steady_params.cache_clear()
    params, profile = harness._nozzle_steady_params(), nozzle_initial(x)
    monkeypatch.setattr(harness, "_bisect", bisect_200)
    harness._nozzle_steady_params.cache_clear()
    try:
        assert harness._nozzle_steady_params() == params
        assert np.array_equal(nozzle_initial(x), profile)
    finally:
        harness._nozzle_steady_params.cache_clear()


def project_initial_per_element(disc, f, breakpoints):
    """Reference: project_l2 on every element and component, sub-cells split
    at the breakpoints, and sub-cell averages where the result is
    inadmissible at a quadrature node."""
    m = disc.law.m
    U = np.zeros((m, disc.n_elements, disc.dof))
    for e in range(disc.n_elements):
        xl, xr = disc.mesh.element_bounds(e)
        element = Mesh(np.array([xl, xr]), disc.n)
        local = [b for b in breakpoints if xl < b < xr]
        for c in range(m):
            U[c, e] = project_l2(lambda x, c=c: np.atleast_2d(f(x))[c], element, disc.p,
                                 breakpoints=local)
        vals = np.einsum("md,dsq->msq", U[:, e], disc.ref.phi)
        if not np.all(disc.law.admissible(vals)):
            for c in range(m):
                U[c, e, disc.p:] = project_lo(U[c, e], disc.p, disc.n)
                U[c, e, :disc.p] = 0.0
    return U


@pytest.mark.parametrize("case, overrides", [
    ("convection-gaussian", {}),
    ("convection-heaviside", {}),
    ("convection-gaussian", dict(p=1, n=2)),      # the fewest sub-cells at p = 1
    ("burgers", {}),
    ("nozzle", {}),
    ("shu-osher", {}),
    ("shu-osher", dict(p=0)),                     # the FV scheme on the same sub-grid
    ("shu-osher", dict(p=1, n=3)),                # Gibbs fallback in the jump element
    ("shu-osher", dict(n_elements=47)),           # jump inside a sub-cell
    ("convection-heaviside", dict(n_elements=10, n=3)),   # both jumps inside sub-cells
])
def test_project_initial_matches_per_element_projection(case, overrides):
    config = RunConfig(case=case, **overrides)
    row = harness._CASES[case]
    mesh = build_uniform_mesh(*row.domain, config.n_elements, config.n)
    disc = Discretization(mesh, config.p, row.law(), row.bc_left, row.bc_right)
    breakpoints = row.breakpoints
    if case == "nozzle":                          # the steady shock, inside a sub-cell
        breakpoints = (harness._nozzle_steady_params()[-1],)
    U = project_initial(disc, row.initial, breakpoints).U
    U_ref = project_initial_per_element(disc, row.initial, breakpoints)
    assert np.max(np.abs(U - U_ref)) <= 1e-12 * np.max(np.abs(U_ref))


def test_profiles():
    assert gaussian_profile(0.5) == pytest.approx(1.0)
    assert gaussian_profile(0.0) < 1e-10
    np.testing.assert_allclose(heaviside_profile(np.array([0.1, 0.5, 0.9])), [0, 1, 0])
    assert burgers_profile(0.25) == pytest.approx(1.5)
    left = shu_osher_initial(np.array([-4.5]))
    assert left[0, 0] == pytest.approx(3.857143)
    right = shu_osher_initial(np.array([0.0]))
    assert right[0, 0] == pytest.approx(1.0)  # sin(0) term vanishes


def two_branch_initial(x, right):
    """The Shu-Osher inflow state left of its jump and the primitives
    right(x) right of it, each branch converted at every x."""
    left = euler_state_from_primitives(*(np.full_like(x, v) for v in SHU_OSHER_LEFT), 1.4)
    return np.where(x < -4.0, left, euler_state_from_primitives(*right(x), 1.4))


def _shu_osher_right(x):
    return 1.0 + 0.2 * np.sin(5.0 * x), np.zeros_like(x), np.ones_like(x)


def _at_rest(x):
    return np.ones_like(x), np.zeros_like(x), np.ones_like(x)


@pytest.mark.parametrize("initial, right", [(shu_osher_initial, _shu_osher_right),
                                            (sod_like_initial, _at_rest)])
def test_jump_initial_states_equal_their_two_branch_forms(initial, right):
    # on both sides of the jump and at it, where the right state holds
    jump = np.array([np.nextafter(-4.0, -np.inf), -4.0, np.nextafter(-4.0, np.inf)])
    for x in (np.linspace(-5.0, 5.0, 4097), -4.0 + np.linspace(-1e-3, 1e-3, 41), jump,
              np.array(-4.0), np.array(-4.5)):
        assert np.array_equal(initial(x), two_branch_initial(x, right))
    assert initial(jump)[0, 0] == SHU_OSHER_LEFT[0] and initial(-4.0).shape == (3,)


@pytest.mark.parametrize("config, q", [(RunConfig(case="shu-osher", n=4), 5),
                                       (RunConfig(case="nozzle"), 6)],
                         ids=["shu-osher-n4", "nozzle"])
def test_build_problem_builds_one_gauss_rule(monkeypatch, config, q):
    # the projection of the element with the jump (x = -4 inside a sub-cell at
    # n = 4; on a sub-cell face in the shu-osher preset) or the nozzle's shock
    # reads the rule its reference element holds
    from numpy.polynomial import legendre

    from subgrid_dg.basis import reference_element

    calls = []
    leggauss = legendre.leggauss
    monkeypatch.setattr(legendre, "leggauss", lambda k: calls.append(k) or leggauss(k))
    reference_element.cache_clear()
    build_problem(config)
    assert calls == [q]


def test_projected_initial_states_are_admissible():
    # the jump-straddling element of the flow cases must not carry Gibbs
    # undershoots into negative pressure at quadrature points
    for p in (1, 2, 3):
        config, disc, state = build_problem(RunConfig(case="shu-osher", p=p, n=p + 2))
        vals = disc.eval_at_quad(state.U)
        assert np.all(disc.law.admissible(vals))


def test_nozzle_initial_profile():
    x = np.linspace(0.005, 0.995, 200)
    U = nozzle_initial(x)
    A, _ = nozzle_area(x)
    rho = U[0] / A
    u = U[1] / U[0]
    p = 0.4 * (U[2] / A - 0.5 * rho * u * u)
    assert np.all(rho > 0) and np.all(p > 0)
    # constant mass flux A rho u through the whole duct
    np.testing.assert_allclose(U[1], U[1][0], rtol=1e-9)
    mach = u / np.sqrt(1.4 * p / rho)
    # subsonic inlet, supersonic pocket past the throat, subsonic exit
    assert mach[0] < 1.0 and mach[-1] < 1.0
    assert mach.max() > 1.0
    x_super = x[mach > 1.0]
    assert 0.5 < x_super.min() and x_super.max() < 1.0
    # exit pressure matches the back pressure implied by the outlet data
    rho_o, u_o, m_o = NOZZLE_OUTLET
    assert p[-1] == pytest.approx(rho_o * (u_o / m_o) ** 2 / 1.4, rel=1e-3)


def test_error_norm_on_projected_function():
    config, disc, state = build_problem(
        RunConfig(case="convection-gaussian", p=4, n=4, n_elements=16)
    )
    assert error_norm(disc, state.U, gaussian_profile, "L2") < 1e-4
    assert error_norm(disc, state.U, gaussian_profile, "L1") < 1e-4
    # against a shifted profile the norm reflects the actual difference
    shifted = lambda x: gaussian_profile(x - 0.1)
    assert error_norm(disc, state.U, shifted, "L2") > 1e-2
    with pytest.raises(ValueError):
        error_norm(disc, state.U, gaussian_profile, "Linf")


@pytest.mark.parametrize("norm_kind", ["L2", "L1"])
def test_convergence_study_error_is_the_largest_field_norm_of_the_change(monkeypatch,
                                                                        norm_kind):
    # each level's error is max over components of the norm of final - initial,
    # here with the per-component quadrature loop written out
    runs = []
    run = harness.run_case
    monkeypatch.setattr(harness, "run_case", lambda cfg: runs.append(run(cfg)) or runs[-1])
    records = convergence_study(RunConfig(case="convection-gaussian", p=2, n=3),
                                [4, 8, 16], norm_kind)
    for record, result in zip(records, runs, strict=True):
        disc = result.disc
        diff = disc.eval_at_quad(result.trajectory.final.U - result.initial.U)
        if norm_kind == "L2":
            norms = [np.sqrt(np.sum(v_q**2 * disc.wq)) for v_q in diff]
        else:
            norms = [np.sum(np.abs(v_q) * disc.wq) for v_q in diff]
        assert record.error == float(np.max(np.array(norms))) > 0.0


def test_default_dt_scaling():
    config, disc, state = build_problem(
        RunConfig(case="convection-gaussian", p=2, n=4, n_elements=8)
    )
    dt = default_dt(disc, state.U, cfl=0.3)
    # cfl * h_sub / (wave speed * KAPPA), whatever p >= 1 is
    assert harness.KAPPA == 1.5
    assert dt == pytest.approx(0.3 * (1.0 / 32.0) / 1.5)
    config2, disc2, state2 = build_problem(
        RunConfig(case="convection-gaussian", p=2, n=4, n_elements=16)
    )
    assert default_dt(disc2, state2.U, cfl=0.3) == pytest.approx(0.5 * dt)
    config4, disc4, state4 = build_problem(
        RunConfig(case="convection-gaussian", p=4, n=4, n_elements=8)
    )
    assert default_dt(disc4, state4.U, cfl=0.3) == dt
    # p = 0 keeps the finite volume step cfl * h_sub / (wave speed)
    config0, disc0, state0 = build_problem(
        RunConfig(case="convection-gaussian", p=0, n=4, n_elements=8)
    )
    assert default_dt(disc0, state0.U, cfl=0.3) == pytest.approx(0.3 * (1.0 / 32.0))


def test_spatial_accuracy_dt_rule():
    rule = spatial_accuracy_dt_rule(8)
    coarse = RunConfig(case="convection-gaussian", p=3, n=5, n_elements=8)
    fine = RunConfig(case="convection-gaussian", p=3, n=5, n_elements=32)
    stable_coarse = 0.3 * ((1.0 / 8.0) / 5) / 1.5
    assert rule(coarse) == pytest.approx(stable_coarse)
    # on finer grids the h^((p+1)/2) scaling is stricter than the CFL bound
    expected = stable_coarse * (8.0 / 32.0) ** 2.0
    assert rule(fine) == pytest.approx(expected)


@pytest.mark.parametrize("case", ["nozzle", "burgers", "shu-osher"])
def test_spatial_accuracy_dt_rule_is_default_dt_at_the_coarsest_level(case):
    # h from the case's domain and the wave speed of its built initial state
    config, disc, state = build_problem(RunConfig(case=case))
    rule = spatial_accuracy_dt_rule(config.n_elements)
    assert rule(config) == pytest.approx(default_dt(disc, state.U, config.cfl), rel=1e-12)


def entropy_wave(x, t):
    """rho = 1 + 0.2 sin 2 pi (x - t) carried at v = p = 1: an exact Euler solution."""
    x = np.asarray(x, dtype=float)
    rho = 1.0 + 0.2 * np.sin(2.0 * np.pi * (x - t))
    return euler_state_from_primitives(rho, np.ones_like(x), np.ones_like(x), harness.GAS_GAMMA)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_euler_entropy_wave_converges_at_order_p_plus_one(p):
    # the nonlinear chain (primitives, Roe flux, admissibility) at n = p + 2 on
    # 8, 16 and 32 periodic elements to t = 0.25; dt is the CFL step at E = 8
    # scaled by h^((p+1)/2), as spatial_accuracy_dt_rule scales it, so the time
    # error does not cap the density's order
    n, errors = p + 2, []
    periodic = BoundaryCondition("periodic")
    for level in (8, 16, 32):
        disc = Discretization(build_uniform_mesh(0.0, 1.0, level, n), p, Euler1D(),
                              periodic, periodic)
        state = project_initial(disc, lambda x: entropy_wave(x, 0.0))
        if level == 8:
            dt_coarse = harness._cfl_dt(0.3, 1.0 / (8 * n), p, disc.max_wave_speed(state.U))
        final = advance(disc, state, dt_coarse * (8 / level) ** (0.5 * (p + 1)), 0.25).final
        errors.append(error_norm(disc, final.U, lambda x: entropy_wave(x, 0.25)[0], "L2"))
    order = np.log2(errors[1] / errors[2])
    assert order >= p + 0.7, errors


def test_convergence_study_requires_three_levels(monkeypatch):
    # a repeated or falling level gives no order (log(h/h) = 0): refused
    # before a level runs
    monkeypatch.setattr(harness, "run_case", lambda cfg: pytest.fail("a level ran"))
    for levels, message in [
        ([8, 16], "need at least 3 refinement levels"),
        ([8, 8, 16], r"refinement levels must strictly increase: \[8, 8, 16\]"),
        ([16, 8, 32], r"refinement levels must strictly increase: \[16, 8, 32\]"),
    ]:
        with pytest.raises(ValueError, match=message):
            convergence_study(RunConfig(case="convection-gaussian", p=1, n=2), levels)


@pytest.mark.parametrize("case, t_final", [
    ("burgers", 0.1), ("nozzle", None), ("shu-osher", None),
    ("convection-gaussian", 0.5), ("convection-heaviside", 1.5), ("convection-gaussian", np.nan),
])
def test_convergence_study_refuses_case_without_exact_end_state(monkeypatch, case, t_final):
    # only periodic convection over whole periods returns to its initial
    # state; anything else is refused before a level runs
    monkeypatch.setattr(harness, "run_case", lambda cfg: pytest.fail("a level ran"))
    with pytest.raises(ValueError, match=f"no exact end state for case '{case}'"):
        convergence_study(RunConfig(case=case, t_final=t_final), [4, 8, 16])


def test_convergence_study_refuses_snapshot_times(monkeypatch):
    # a level writes no snapshot, but its steps would still land on each mark
    # and so move its error: refused before a level runs
    monkeypatch.setattr(harness, "run_case", lambda cfg: pytest.fail("a level ran"))
    base = RunConfig(case="convection-gaussian", p=1, n=2, snapshot_times=(0.123, 0.5))
    with pytest.raises(ValueError, match=re.escape(
            "a convergence study takes no snapshot_times: (0.123, 0.5)")):
        convergence_study(base, [8, 16, 32])


def test_convergence_study_records():
    # full advection period: the exact solution returns to the initial state,
    # so the study's error against the projected start is meaningful
    cfg = RunConfig(case="convection-gaussian", p=1, n=2, t_final=1.0)
    records = convergence_study(cfg, [8, 16, 32], dt_rule=spatial_accuracy_dt_rule(8))
    assert len(records) == 3
    assert records[0].observed_order is None
    assert records[1].error < records[0].error
    assert records[2].observed_order is not None


def test_convergence_study_records_an_aborted_level_as_nan_without_an_order(monkeypatch):
    # a level whose run aborts has a NaN error; neither it nor the level
    # after it has an order, and the study goes on
    run = harness.run_case

    def aborting_at_16(cfg):
        if cfg.n_elements == 16:
            raise SolverAbort("non-finite state")
        return run(cfg)

    monkeypatch.setattr(harness, "run_case", aborting_at_16)
    records = convergence_study(RunConfig(case="convection-gaussian", p=1, n=2),
                                [8, 16, 32, 64])
    assert [np.isnan(r.error) for r in records] == [False, True, False, False]
    assert [r.observed_order is None for r in records] == [True, True, True, False]
    assert records[3].observed_order > 1.0


def test_run_case_flags_the_first_step_of_a_steady_state(monkeypatch):
    # a uniform state does not move, so it is steady from its first step;
    # the convected Gaussian never is
    cfg = RunConfig(case="convection-gaussian", p=1, n=2, n_elements=4, t_final=0.05)
    moving = run_case(cfg).summary
    assert (moving["steady"], moving["steady_time"]) == (False, None)
    monkeypatch.setitem(harness._CASES, "convection-gaussian",
                        replace(harness._CASES["convection-gaussian"],
                                initial=lambda x: np.ones_like(x)[None]))
    uniform = run_case(cfg).summary
    assert uniform["n_steps"] > 1
    assert (uniform["steady"], uniform["steady_time"]) == (True, uniform["dt"])


def test_fv_reference_cache_and_sampler(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sampler, x, U = fv_reference("convection-gaussian", 64, t_final=0.25)
    assert (tmp_path / "subgrid_dg").exists()
    cached = list((tmp_path / "subgrid_dg").glob("fvref_*.npz"))
    assert len(cached) == 1
    # piecewise-constant sampling returns the stored cell values
    centers = 0.5 * (x[:-1] + x[1:])
    np.testing.assert_allclose(sampler(centers), U[0])
    # second call hits the cache (same result, no new files)
    sampler2, _, U2 = fv_reference("convection-gaussian", 64, t_final=0.25)
    np.testing.assert_allclose(U2, U)
    assert len(list((tmp_path / "subgrid_dg").glob("fvref_*.npz"))) == 1


@pytest.mark.parametrize("keep", [0.0, 0.5])
def test_fv_reference_truncated_cache_is_recomputed(tmp_path, monkeypatch, keep):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _, _, U = fv_reference("convection-gaussian", 64, t_final=0.25)
    (path,) = (tmp_path / "subgrid_dg").glob("fvref_*.npz")
    data = path.read_bytes()
    path.write_bytes(data[: int(keep * len(data))])   # an interrupted write
    _, _, U2 = fv_reference("convection-gaussian", 64, t_final=0.25)
    np.testing.assert_array_equal(U2, U)
    with np.load(path) as stored:                       # rewritten in full
        np.testing.assert_array_equal(stored["U"], U)
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


def test_fv_reference_cache_key_carries_source_digest(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _, x, U = fv_reference("convection-gaussian", 64, t_final=0.25)
    (old,) = (tmp_path / "subgrid_dg").glob("fvref_*.npz")
    assert old.name == f"fvref_{harness.SOURCE_DIGEST}_convection-gaussian_64_0.25.npz"
    # a wrong reference under that key stands for one that other code wrote:
    # code with another digest does not read it, and deletes it once its own
    # reference is written
    np.savez_compressed(old, x=x, U=np.zeros_like(U))
    monkeypatch.setattr(harness, "SOURCE_DIGEST", "0123456789abcdef")
    _, _, U2 = fv_reference("convection-gaussian", 64, t_final=0.25)
    np.testing.assert_array_equal(U2, U)
    (new,) = (tmp_path / "subgrid_dg").glob("fvref_*.npz")
    assert new.name == "fvref_0123456789abcdef_convection-gaussian_64_0.25.npz"
    with np.load(new) as stored:
        np.testing.assert_array_equal(stored["U"], U)


def test_fv_reference_prunes_only_superseded_copies_of_the_reference_it_writes(
        tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "subgrid_dg"
    cache.mkdir()
    same = ["fvref_v4_shu-osher_64_0.01.npz", "fvref_v5_shu-osher_64_0.01.npz",
            "fvref_00000000deadbeef_shu-osher_64_0.01.npz"]
    others = ["fvref_v4_shu-osher_32_0.01.npz",                # other cells
              "fvref_v4_shu-osher_64_0.02.npz",                # other end time
              "fvref_v4_shu-osher_64_0.010000000000000002.npz",
              "fvref_v4_sod-like_64_0.01.npz",                 # other case
              "fvref_v4_x_shu-osher_64_0.01.npz",              # not one key
              "fvref_v4_shu-osher_64_0.01.npz_ab12.tmp",       # writes in progress
              f"fvref_{harness.SOURCE_DIGEST}_shu-osher_64_0.01ab12.tmp"]
    for name in same + others:
        (cache / name).write_bytes(b"")
    # without the cache nothing is written, so nothing is pruned
    fv_reference("shu-osher", 64, t_final=0.01, cache=False)
    assert sorted(p.name for p in cache.iterdir()) == sorted(same + others)
    fv_reference("shu-osher", 64, t_final=0.01)
    kept = others + [f"fvref_{harness.SOURCE_DIGEST}_shu-osher_64_0.01.npz"]
    assert sorted(p.name for p in cache.iterdir()) == sorted(kept)
    # a cache hit writes nothing, so it prunes nothing either
    stale = cache / "fvref_v6_shu-osher_64_0.01.npz"
    stale.write_bytes(b"")
    fv_reference("shu-osher", 64, t_final=0.01)
    assert stale.exists()


def test_source_digest_follows_every_byte_of_the_package(tmp_path):
    for path in Path(harness.__file__).parent.glob("*.py"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    assert harness._source_digest(tmp_path) == harness.SOURCE_DIGEST
    target = tmp_path / "physics.py"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01                          # one byte changes
    target.write_bytes(bytes(data))
    assert harness._source_digest(tmp_path) != harness.SOURCE_DIGEST


def test_fv_reference_cache_key_carries_exact_end_time(tmp_path, monkeypatch):
    # end times that agree to 6 digits are two references, and a numpy
    # scalar end time names the same file as the Python float
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _, _, U = fv_reference("convection-gaussian", 64, t_final=0.25)
    _, _, U_near = fv_reference("convection-gaussian", 64, t_final=np.float64(0.2500004))
    _, _, fresh = fv_reference("convection-gaussian", 64, t_final=0.2500004, cache=False)
    np.testing.assert_array_equal(U_near, fresh)
    assert not np.array_equal(U_near, U)
    names = sorted(p.name for p in (tmp_path / "subgrid_dg").iterdir())
    assert names == [f"fvref_{harness.SOURCE_DIGEST}_convection-gaussian_64_{t}.npz"
                     for t in ("0.25", "0.2500004")]


def test_fv_reference_transports_profile(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    # after a quarter period the (smeared) bump peak sits near x = 0.75
    sampler, x, U = fv_reference("convection-gaussian", 512, t_final=0.25)
    centers = 0.5 * (x[:-1] + x[1:])
    assert centers[np.argmax(U[0])] == pytest.approx(0.75, abs=0.02)


def test_fv_reference_stays_in_bounds_at_its_courant_number():
    # upwind is monotone up to the Courant number 1: a heaviside carried once
    # round the period keeps its values in [0, 1]
    _, _, U = fv_reference("convection-heaviside", 64, t_final=1.0, cache=False)
    assert U.min() >= -1e-12 and U.max() <= 1.0 + 1e-12


def _roe_speed(uL, uR, gamma_a=1.4):
    """The largest Roe-averaged |v~| + c~ over the faces (uL, uR)."""
    sL, sR = np.sqrt(uL[0]), np.sqrt(uR[0])
    vL, vR = uL[1] / uL[0], uR[1] / uR[0]
    pL = (gamma_a - 1.0) * (uL[2] - 0.5 * uL[1] * vL)
    pR = (gamma_a - 1.0) * (uR[2] - 0.5 * uR[1] * vR)
    vt = (sL * vL + sR * vR) / (sL + sR)
    Ht = ((uL[2] + pL) / sL + (uR[2] + pR) / sR) / (sL + sR)
    return float(np.max(np.abs(vt) + np.sqrt((gamma_a - 1.0) * (Ht - 0.5 * vt * vt))))


@pytest.mark.parametrize("case", ["shu-osher", "sod-like"])
def test_fv_reference_step_holds_the_roe_speeds_it_reaches(monkeypatch, case):
    # dt comes from the cells' largest |v| + c; the faces move at the
    # Roe-averaged speeds, which must stay within the upwind limit 1 too
    lams, speeds = [], []
    wave_speed, interface_fluxes = Euler1D.max_wave_speed, Euler1D.interface_fluxes

    def recording_wave_speed(law, u, x=None):
        lams.append(wave_speed(law, u, x))
        return lams[-1]

    def recording_interface_fluxes(law, u):
        speeds.append(_roe_speed(u[:, :-1], u[:, 1:]))
        return interface_fluxes(law, u)

    monkeypatch.setattr(Euler1D, "max_wave_speed", recording_wave_speed)
    monkeypatch.setattr(Euler1D, "interface_fluxes", recording_interface_fluxes)
    fv_reference(case, 512, cache=False)
    assert len(lams) == len(speeds) > 100
    assert max(harness.FV_CFL * s / lam for s, lam in zip(speeds, lams)) <= 1.0


@pytest.mark.parametrize("case, cells, jump_cells", [
    ("shu-osher", 32, 1), ("sod-like", 32, 1), ("shu-osher", 30, 0),
    ("convection-heaviside", 30, 2), ("convection-heaviside", 32, 0),
    ("convection-gaussian", 30, 0)])
def test_fv_march_evaluates_the_initial_state_once(monkeypatch, case, cells, jump_cells):
    # on the cell centres and each jump cell's 2 x 64 samples together; a
    # jump on a cell face (x = -4 at 30 cells, 0.25 and 0.75 at 32) straddles none
    calls = []
    row = harness._CASES[case]
    monkeypatch.setitem(harness._CASES, case, replace(
        row, initial=lambda x: calls.append(np.shape(x)) or row.initial(x)))
    harness._fv_march(case, cells, 0.0)
    assert calls == [(cells + jump_cells * 128,)]


def test_fv_march_takes_each_step_from_one_row_flux_call(monkeypatch):
    # max_wave_speed opens every step, and one row call gives all its faces
    order = []
    wave_speed, interface_fluxes = Euler1D.max_wave_speed, Euler1D.interface_fluxes
    monkeypatch.setattr(Euler1D, "max_wave_speed",
                        lambda law, u, x=None: order.append("lam") or wave_speed(law, u, x))
    monkeypatch.setattr(Euler1D, "interface_fluxes",
                        lambda law, u: order.append(u.shape) or interface_fluxes(law, u))
    monkeypatch.setattr(Euler1D, "roe_flux", None)      # the march calls no other flux
    harness._fv_march("shu-osher", 64, 0.1)
    assert len(order) > 2 and order == ["lam", (3, 66)] * (len(order) // 2)


def test_fv_reference_euler_shock_speed(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    # pure shock tube: the jump between the two uniform states must travel at
    # the speed given by the jump conditions, s = [rho u] / [rho]
    sampler, x, U = fv_reference("sod-like", 800, t_final=0.5)
    centers = 0.5 * (x[:-1] + x[1:])
    mid = 0.5 * (3.857143 + 1.0)
    x_shock = centers[np.argmin(np.abs(U[0] - mid))]
    rho_l, u_l = 3.857143, 2.629369
    s = (rho_l * u_l - 0.0) / (rho_l - 1.0)
    assert x_shock == pytest.approx(-4.0 + s * 0.5, abs=0.05)


@pytest.mark.parametrize("case", ["burgers", "fv-comparison", "convection-typo"])
def test_fv_reference_unknown_case(tmp_path, monkeypatch, case):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with pytest.raises(ValueError, match="no finite volume reference"):
        fv_reference(case, 16, t_final=0.1)
    assert not (tmp_path / "subgrid_dg").exists()


@pytest.mark.parametrize("cells, t_final, message", [
    (0, 0.1, "cells=0"),
    (-4, 0.1, "cells=-4"),
    (16, -1.0, "t_final .* -1.0"),
    (16, float("nan"), "t_final .* nan"),
    (16, float("inf"), "t_final .* inf"),
])
def test_fv_reference_rejects_bad_cells_and_end_time(tmp_path, monkeypatch, cells, t_final,
                                                     message):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with pytest.raises(ValueError, match=message):
        fv_reference("shu-osher", cells, t_final=t_final)
    assert not (tmp_path / "subgrid_dg").exists()


def test_fv_reference_without_cache_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    fv_reference("convection-gaussian", 16, t_final=0.05, cache=False)
    assert list(tmp_path.iterdir()) == []


def test_project_initial_projects_split_element_once(monkeypatch):
    # one vector-valued projection for the nozzle's shock element, not one
    # per component
    config = RunConfig(case="nozzle")
    row = harness._CASES["nozzle"]
    mesh = build_uniform_mesh(*row.domain, config.n_elements, config.n)
    disc = Discretization(mesh, config.p, row.law(), row.bc_left, row.bc_right)
    projections, profiles = [], []
    real = harness.project_l2
    monkeypatch.setattr(harness, "project_l2",
                        lambda *a, **kw: projections.append(a) or real(*a, **kw))

    def profile(x):
        profiles.append(x)
        return row.initial(x)

    project_initial(disc, profile, (harness._nozzle_steady_params()[-1],))
    assert len(projections) == 1
    # the nodes of the whole mesh, then those of every piece of the shock
    # element, its sub-cells with the one split at the shock
    assert len(profiles) == 2


def test_fv_reference_initial_cell_averages():
    # a cell that straddles a jump holds the average of its two sides
    _, x, U = fv_reference("shu-osher", 4096, t_final=0.0, cache=False)
    centers = 0.5 * (x[:-1] + x[1:])
    (c,) = np.flatnonzero((x[:-1] < -4.0) & (x[1:] > -4.0))
    wl = (-4.0 - x[c]) / (x[c + 1] - x[c])
    xs = np.linspace(-4.0, x[c + 1], 65)
    right = shu_osher_initial(0.5 * (xs[:-1] + xs[1:])).mean(axis=1)
    left = euler_state_from_primitives(*SHU_OSHER_LEFT, 1.4)
    np.testing.assert_array_equal(U[:, c], wl * left + (1.0 - wl) * right)
    others = np.arange(x.size - 1) != c
    np.testing.assert_array_equal(U[:, others], shu_osher_initial(centers[others]))
    # 0.25 and 0.75 lie in the middle of cells 7 and 22 of 30 (to round-off)
    _, x, U = fv_reference("convection-heaviside", 30, t_final=0.0, cache=False)
    straddled = [7, 22]
    assert U[0, 7] == 0.5
    assert U[0, 22] == (0.75 - x[22]) / (x[23] - x[22]) == pytest.approx(0.5, rel=1e-14)
    others = np.delete(np.arange(30), straddled)
    np.testing.assert_array_equal(U[0, others], heaviside_profile(0.5 * (x[:-1] + x[1:]))[others])


def test_run_case_writes_outputs(tmp_path):
    cfg = RunConfig(
        case="convection-gaussian", p=1, n=2, n_elements=4, t_final=0.02,
        snapshot_times=(0.01,), output_dir=str(tmp_path / "out"),
    )
    result = run_case(cfg)
    out = tmp_path / "out"
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["case"] == "convection-gaussian"
    assert summary["n_steps"] > 0
    snapshots = sorted(out.glob("snapshot_t*.csv"))
    sensors = sorted(out.glob("sensor_t*.csv"))
    assert len(snapshots) == 3  # t = 0, 0.01, 0.02
    assert len(sensors) == 3
    header = snapshots[0].read_text().splitlines()[0]
    assert header.split(",") == ["x", "u0", "s", "s0", "gamma"]


def test_run_case_names_each_snapshot_by_its_exact_time(tmp_path):
    # two marks that agree to 6 digits write two files, each named by the
    # shortest text that reads back as its time
    out = tmp_path / "out"
    result = run_case(RunConfig(case="burgers", p=1, n=3, n_elements=4, t_final=0.01,
                                snapshot_times=(0.0050000001, 0.0050000002),
                                output_dir=str(out)))
    times = [s.time for s in result.trajectory.states]
    assert times == [0.0, 0.0050000001, 0.0050000002, 0.01]
    for kind in ("snapshot", "sensor"):
        assert sorted(p.name for p in out.glob(f"{kind}_t*.csv")) == sorted(
            f"{kind}_t{t!r}.csv" for t in times)
    assert (out / "snapshot_t0.0.csv").exists()


def test_run_case_summary_fields():
    result = run_case(RunConfig(case="convection-gaussian", p=1, n=2,
                                n_elements=4, t_final=0.02))
    s = result.summary
    assert s["t_final"] == pytest.approx(0.02)
    # set-up (problem build and dt choice) is timed apart from the march
    assert isinstance(s["setup_time_s"], float) and s["setup_time_s"] > 0.0
    assert isinstance(s["wall_time_s"], float) and s["wall_time_s"] > 0.0
    assert s["mass_drift_rel"] < 1e-12
    assert isinstance(s["steady"], bool)


def test_penalized_run_at_a_fifth_of_the_subcell_width_stays_bounded():
    # dt = 0.2 h_sub / lambda: within the unpenalized limit, 0.42, but above the
    # 0.18 that a step ending on an explicit rate after its last penalty solve
    # allowed; that step ran this case to a norm of 2.9e31 and exited 0
    result = run_case(RunConfig(case="convection-heaviside", p=1, n=8, n_elements=16,
                                dt=0.2 / (16 * 8)))
    s = result.summary
    assert s["n_steps"] == 640
    assert s["final_norm_l2"][0] < 1.0
    assert s["mass_drift_rel"] < 1e-13


def test_run_case_output_files_are_the_csv_writer_rows(tmp_path):
    # the oracle is a csv.writer loop that formats each value with "%.12g"
    out = tmp_path / "out"
    result = run_case(RunConfig(case="shu-osher", p=2, n=4, n_elements=8, t_final=0.002,
                                snapshot_times=(0.001,), output_dir=str(out)))
    disc = result.disc
    states = result.trajectory.states
    assert [s.time for s in states] == [0.0, 0.001, 0.002]
    for state, rep in zip(states, result.trajectory.sensors):
        avg = disc.subcell_averages(state.U)
        m, E, n = avg.shape
        assert m == 3
        centers = 0.5 * (disc.xfaces[:-1] + disc.xfaces[1:]).reshape(E, n)
        sensor = [[f"{v:.12g}" for v in (rep.s[e], rep.s0[e], rep.gamma[e])] for e in range(E)]
        snapshot, per_element = tmp_path / "snapshot.csv", tmp_path / "sensor.csv"
        with open(snapshot, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x"] + [f"u{c}" for c in range(m)] + ["s", "s0", "gamma"])
            for e in range(E):
                for s in range(n):
                    w.writerow([f"{centers[e, s]:.12g}"]
                               + [f"{avg[c, e, s]:.12g}" for c in range(m)] + sensor[e])
        with open(per_element, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["element", "s", "s0", "gamma"])
            for e in range(E):
                w.writerow([e] + sensor[e])
        tag = repr(float(state.time))
        assert (out / f"snapshot_t{tag}.csv").read_bytes() == snapshot.read_bytes()
        assert (out / f"sensor_t{tag}.csv").read_bytes() == per_element.read_bytes()


def test_fv_reference_interrupted_cache_write_leaves_no_file(tmp_path, monkeypatch):
    # the write stops after a partial archive: the interrupt propagates, and
    # neither the temporary file nor a file under the cache key is left
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "subgrid_dg"

    def interrupted(fh, **arrays):
        fh.write(b"PK\x03\x04 partial archive")
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(np, "savez_compressed", interrupted)
        with pytest.raises(KeyboardInterrupt):
            fv_reference("convection-gaussian", 64, t_final=0.25)
    assert list(cache.iterdir()) == []
    # the next call computes the reference again and caches it whole
    _, _, U = fv_reference("convection-gaussian", 64, t_final=0.25)
    (path,) = cache.iterdir()
    assert path.name == f"fvref_{harness.SOURCE_DIGEST}_convection-gaussian_64_0.25.npz"
    with np.load(path) as stored:
        np.testing.assert_array_equal(stored["U"], U)
