"""Experiment runner: case definitions, error norms, convergence studies,
the fine-grid finite volume reference, and file output."""

from __future__ import annotations

import csv
import json
import os
import tempfile
import time
import zipfile
import zlib
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .basis import penalty_stage_rate
from .mesh import Mesh, build_uniform_mesh
from .physics import (
    BoundaryCondition,
    Burgers,
    Convection,
    Euler1D,
    NozzleEuler,
    boundary_ghost,
    euler_state_from_primitives,
    nozzle_area,
)
from .projections import project_l2
from .sensor import DEFAULT_C_PEN, SensorConfig
from .solver import Discretization, FieldState, SolverAbort, Trajectory, advance

GAUSSIAN_CENTER = 0.5
GAUSSIAN_WIDTH2 = 0.01   # 2 sigma^2
SHU_OSHER_LEFT = (3.857143, 2.629369, 10.3333)
SHU_OSHER_JUMP = -4.0
NOZZLE_INLET = (1.0, 1.0, 0.40)
NOZZLE_OUTLET = (1.0, 1.0, 0.45)
GAS_GAMMA = Euler1D.gamma_a     # ratio of specific heats of every Euler preset
# steady flag: relative drift rate ||U_{n+1}-U_n|| / (dt ||U_n||) below this
STEADY_RATE_TOL = 1e-4


@dataclass
class RunConfig:
    """Flat experiment configuration; unset fields take the case's defaults when made."""

    case: str
    p: int | None = None
    n: int | None = None
    n_elements: int | None = None
    dt: float | None = None
    t_final: float | None = None
    c_pen: float = DEFAULT_C_PEN
    tau: float | None = None
    cfl: float = 0.3
    force_gamma_element: int | None = None     # penalized at DEFAULT_C_PEN every step
    snapshot_times: tuple = ()
    output_dir: str | None = None

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}; choose from {CASES}")
        for key, value in _CASES[self.case].defaults.items():
            if getattr(self, key) is None:
                setattr(self, key, value)
        self.sensor_config    # validates c_pen and tau
        if self.dt is not None and not 0.0 < self.dt < np.inf:
            raise ValueError(f"need dt > 0 and a finite t_final: dt = {self.dt} is not finite and > 0")
        if not 0.0 < self.cfl < np.inf:
            raise ValueError(f"cfl must be finite and > 0: {self.cfl}")
        if self.force_gamma_element is not None and self.force_gamma_element < 0:
            raise ValueError(f"force_gamma_element must be >= 0: {self.force_gamma_element}")

    @property
    def sensor_config(self) -> SensorConfig:
        return SensorConfig(c_pen=self.c_pen, tau=self.tau)

    @property
    def force_gamma(self) -> tuple[int, float] | None:
        return None if self.force_gamma_element is None else (self.force_gamma_element, DEFAULT_C_PEN)


@dataclass
class ErrorRecord:
    h: float
    p: int
    n: int
    norm_kind: str
    error: float
    observed_order: float | None = None


@dataclass
class RunResult:
    config: RunConfig
    disc: Discretization
    trajectory: Trajectory
    summary: dict
    initial: FieldState


# -- initial conditions -----------------------------------------------------


def gaussian_profile(x):
    return np.exp(-((np.asarray(x) - GAUSSIAN_CENTER) ** 2) / GAUSSIAN_WIDTH2)


def heaviside_profile(x):
    x = np.asarray(x, dtype=float)
    return np.where((x >= 0.25) & (x < 0.75), 1.0, 0.0)


def burgers_profile(x):
    return 0.5 + np.sin(2.0 * np.pi * np.asarray(x))


def _inflow_left_of_jump(x, rho, vel, p):
    """Conserved states at x: the Shu-Osher inflow left of its jump, the
    primitives (rho, vel, p) right of it; one where per primitive, then one
    conversion."""
    left = x < SHU_OSHER_JUMP
    return euler_state_from_primitives(
        *(np.where(left, a, b) for a, b in zip(SHU_OSHER_LEFT, (rho, vel, p))), GAS_GAMMA)


def shu_osher_initial(x):
    x = np.asarray(x, dtype=float)
    return _inflow_left_of_jump(x, 1.0 + 0.2 * np.sin(5.0 * x), 0.0, 1.0)


def sod_like_initial(x):
    """Shock tube: the Shu-Osher inflow state left of its jump, gas at rest
    with unit density and pressure right of it."""
    return _inflow_left_of_jump(np.asarray(x, dtype=float), 1.0, 0.0, 1.0)


def _bisect(g, lo, hi):
    """Root of g between lo and hi, across which g changes sign once, by up to
    200 halvings; elementwise, and a 0-d array for a scalar bracket.

    A halving that leaves the bracket as it was repeats itself from then on
    (doubles reach adjacent floats after about 55), so the search stops
    there with the value 200 halvings give.  A NaN never compares equal, so
    it never stops the search early."""
    lo_positive = g(lo) > 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = (g(mid) > 0) == lo_positive
        new_lo, new_hi = np.where(up, mid, lo), np.where(up, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def _nozzle_density(area, mdot, sigma, enthalpy, supersonic):
    """Density of steady duct flow, elementwise over array arguments.

    Roots of  gamma*sigma*rho^(gamma-1)/(gamma-1) + mdot^2/(2 A^2 rho^2) = H;
    the supersonic (light) one where the mask ``supersonic`` holds, else the dense one.
    """
    gamma_a = GAS_GAMMA

    def f(rho):
        c2 = gamma_a * sigma * rho ** (gamma_a - 1.0)
        return c2 / (gamma_a - 1.0) + mdot ** 2 / (2.0 * area ** 2 * rho ** 2) - enthalpy

    rho_sonic = (mdot ** 2 / (gamma_a * sigma * area ** 2)) ** (1.0 / (gamma_a + 1.0))
    return _bisect(f, np.where(supersonic, 1e-3, rho_sonic),
                   np.where(supersonic, rho_sonic, 10.0))


@lru_cache(maxsize=1)
def _nozzle_steady_params():
    """Choked mass flow, entropies, and shock position of the transonic flow.

    The throat chokes the mass flow and the outlet back pressure places a
    normal shock in the diverging section.  The inlet state is the fixed
    point of the linearized characteristic inflow condition: it differs from
    the farfield data only along the outgoing acoustic wave (in the
    linearized sense used by the boundary ghost), which shifts entropy and
    stagnation enthalpy slightly from their farfield values.
    The normal-shock entropy jump sigma2/sigma1 = (p2/p1) / (rho2/rho1)^gamma
    fixes the pre-shock Mach number M1, and the shock sits where the area
    ratio of the sonic throat reaches M1, A(x) = A_t * area_ratio(M1)
    (Anderson, Modern Compressible Flow, 3rd ed., chs. 3 and 5): with the
    inlet Mach number, three scalar bisections and no density solve.
    """
    gamma_a = GAS_GAMMA
    rho_a, u_a, m_a = NOZZLE_INLET
    c_a = u_a / m_a
    p_a = rho_a * c_a * c_a / gamma_a
    rho_o, u_o, m_o = NOZZLE_OUTLET
    p_back = rho_o * (u_o / m_o) ** 2 / gamma_a

    # subsonic inlet Mach number of choked flow from the area ratio A_in/A_t
    a_throat = float(nozzle_area(np.array([0.5]))[0][0])

    def area_ratio(mach):
        t = (2.0 / (gamma_a + 1.0)) * (1.0 + 0.5 * (gamma_a - 1.0) * mach * mach)
        return t ** ((gamma_a + 1.0) / (2.0 * (gamma_a - 1.0))) / mach

    mach_in = float(_bisect(lambda mach: area_ratio(mach) - 1.0 / a_throat, 1e-3, 1.0))

    # inlet state: farfield plus a jump along the outgoing acoustic wave, damped;
    # an iterate equal to its predecessor repeats forever, so the loop stops there
    rho_d, u_d, p_d = rho_a, u_a, p_a
    for _ in range(200):
        c_d = np.sqrt(gamma_a * p_d / rho_d)
        p_new = p_a - rho_d * c_d * (u_d - u_a)
        rho_new = rho_a + (p_new - p_a) / (c_d * c_d)
        u_new = mach_in * np.sqrt(gamma_a * p_new / rho_new)
        state = (0.5 * (rho_d + rho_new), 0.5 * (u_d + u_new), 0.5 * (p_d + p_new))
        if state == (rho_d, u_d, p_d):
            break
        rho_d, u_d, p_d = state
    sigma1 = p_d / rho_d ** gamma_a
    enthalpy = gamma_a * p_d / ((gamma_a - 1.0) * rho_d) + 0.5 * u_d * u_d
    mdot = rho_d * u_d  # inlet area is 1

    # exit state at the prescribed back pressure (subsonic root)
    b = gamma_a / (gamma_a - 1.0) * p_back / mdot
    u_e = -b + np.sqrt(b * b + 2.0 * enthalpy)
    rho_e = mdot / u_e
    sigma2 = p_back / rho_e ** gamma_a

    def entropy_jump(mach):          # sigma2 / sigma1 across a normal shock at M1
        msq = mach * mach
        p_ratio = (2.0 * gamma_a * msq - (gamma_a - 1.0)) / (gamma_a + 1.0)
        rho_ratio = (gamma_a + 1.0) * msq / ((gamma_a - 1.0) * msq + 2.0)
        return p_ratio / rho_ratio ** gamma_a

    mach_1 = _bisect(lambda mach: entropy_jump(mach) - sigma2 / sigma1, 1.0, 10.0)
    area_1 = a_throat * area_ratio(mach_1)
    x_shock = float(_bisect(lambda x: nozzle_area(x)[0] - area_1, 0.5, 0.9))
    return mdot, sigma1, sigma2, enthalpy, x_shock


def nozzle_initial(x):
    """Analytic quasi-1D transonic profile (area-weighted conserved state)."""
    x = np.asarray(x, dtype=float)
    mdot, sigma1, sigma2, enthalpy, x_shock = _nozzle_steady_params()
    A, _ = nozzle_area(x)
    upstream = x < x_shock
    sigma = np.where(upstream, sigma1, sigma2)
    rho = _nozzle_density(A, mdot, sigma, enthalpy, upstream & (x >= 0.5))
    u = mdot / (rho * A)
    p = sigma * rho ** GAS_GAMMA
    return euler_state_from_primitives(rho, u, p, GAS_GAMMA) * A


def _relax_shock_element(disc, state, x_shock) -> FieldState:
    """Replace the shock element's content with its local discrete steady state.

    A sharp projected jump is not a steady structure of the scheme; solving
    the single shock-containing element against frozen analytic boundary
    traces (the upstream face is supersonic, so the coupling is exact) gives
    the captured-shock profile and removes most of the start-up transient of
    the steady-state run.  The solve is pseudo-transient continuation
    (Kelley & Keyes, SIAM J. Numer. Anal. 35, 1998): a short march, then
    damped Newton on F(U) = M^-1 (R(U) - gamma M_pp U) = 0 with gamma from
    the sensor of each iterate, so the result is steady under its own gamma.
    The march is one IMEX step of dt = 4e-4, the shortest start tried that
    Newton solves in a few iterations (measured: 6 on the default nozzle,
    with 16 single residual calls, the march's 3 among them, and 6 batched
    ones of 36 probe states; 4-5 at 5 to 64 elements).  The Jacobian is
    forward differences from one residual call on the stack of all m * dof
    probe states, or backward ones for every column if the residual rejects
    that stack; a step is halved until it lowers |F|, and a trial state the
    residual rejects is halved, never accepted.  The
    tolerance is 1e-10, times the penalty rate |M^-1 gamma M_pp U| where
    that exceeds 1, since the round-off floor of F grows with the penalty
    term that R balances (4e-11 against a rate of 190 on the default
    nozzle).  No convergence in 100 iterations, or a failed line search, is
    a SolverAbort.
    """
    element = disc.mesh.element_of(x_shock)
    xl, xr = disc.mesh.element_bounds(element)
    traces = [BoundaryCondition("prescribed", state=tuple(u))
              for u in nozzle_initial(np.array([xl, xr])).T]
    disc1 = Discretization(Mesh(np.array([xl, xr]), disc.n), disc.p, disc.law, *traces,
                           disc.sensor_config)

    def penalty_rate(V, gamma):      # -M^-1 gamma M_pp V, the penalty filter at c = 0
        return penalty_stage_rate(disc1.p, disc1.n, V, gamma, 0.0)

    def rate(V, gamma):
        return disc1.rate(V, 0.0) + penalty_rate(V, gamma)

    local = FieldState(state.U[:, element:element + 1].copy(), 0.0)
    U = advance(disc1, local, dt=4e-4, t_final=4e-4).final.U
    for iterations in range(100):
        gamma = disc1.evaluate_sensor(U).gamma
        F = rate(U, gamma)
        norm = np.linalg.norm(F)
        if norm <= 1e-10 * max(1.0, np.linalg.norm(penalty_rate(U, gamma))):
            out = state.U.copy()
            out[:, element] = U[:, 0]
            return FieldState(U=out, time=state.time)
        u = U.ravel()
        h = 1e-7 * np.maximum(1.0, np.abs(u))
        probes = np.moveaxis(np.diag(h).reshape(u.size, *U.shape), 0, 1)  # (m, m*dof, 1, dof)
        try:
            dF = rate(U[:, None] + probes, gamma) - F[:, None]
        except SolverAbort:          # an inadmissible probe state: all backward
            dF = F[:, None] - rate(U[:, None] - probes, gamma)
        J = np.moveaxis(dF, 1, 0).reshape(u.size, u.size).T / h
        step = np.linalg.solve(J, -F.ravel()).reshape(U.shape)
        for lam in 0.5 ** np.arange(20):
            try:
                trial = rate(U + lam * step, gamma)
            except SolverAbort:
                continue
            if np.linalg.norm(trial) < (1.0 - 1e-4 * lam) * norm:
                U = U + lam * step
                break
        else:
            break
    raise SolverAbort(
        f"no discrete steady state for shock element {element} on x in "
        f"[{xl:.6g}, {xr:.6g}]: |F| = {norm:.3e} after {iterations + 1} Newton iterations"
    )


def project_initial(disc: Discretization, f, breakpoints=()) -> FieldState:
    """L2 projection of a vector-valued initial profile onto the global space.

    One quadrature over the Discretization's nodes and weights gives the
    moments, and its mass solve the coefficients.  An element with a jump of
    f (a breakpoint) inside one of its sub-cells is projected again with
    `project_l2`, which splits that sub-cell's quadrature at the jump.
    """
    m, E = disc.law.m, disc.n_elements
    f_w = np.asarray(f(disc.xq), dtype=float) * disc.wq
    U = disc.solve_mass(f_w.reshape(m, E, -1) @ disc.ref.phi_q.T)
    mesh = disc.mesh
    inside = [b for b in breakpoints if mesh.a < b < mesh.b and b not in disc.xfaces]
    for e in np.unique(mesh.element_of(inside)):
        element = Mesh(np.array(mesh.element_bounds(int(e))), disc.n)
        U[:, e] = project_l2(lambda x: np.atleast_2d(f(x)), element, disc.p, breakpoints)
    # Gibbs undershoot in a jump-straddling element can leave the projected
    # state unphysical; fall back to sub-cell averages there (the sensor
    # would penalize the polynomial part away regardless).
    bad = ~np.all(disc.law.admissible(disc.eval_at_quad(U)), axis=(1, 2))
    U[:, bad, disc.p:] = disc.subcell_averages(U)[:, bad]
    U[:, bad, :disc.p] = 0.0
    return FieldState(U=U, time=0.0)


# -- case assembly ----------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One preset.  `initial` maps x to the conserved state, shape
    (m,) + x.shape, with jumps at `breakpoints`; `defaults` fill the unset
    fields of a RunConfig.  RunConfig accepts the `dg` presets, and
    `fv_reference` the `fv` ones."""

    domain: tuple[float, float]
    law: type
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition
    initial: Callable
    breakpoints: tuple
    defaults: dict
    dg: bool = True
    fv: bool = False


_PERIODIC = BoundaryCondition("periodic")
# the profiles are looked up at call time, so one swapped or wrapped on this
# module is the one projected
_GAUSSIAN = Case((0.0, 1.0), Convection, _PERIODIC, _PERIODIC,
                 lambda x: gaussian_profile(x)[None], (),
                 dict(p=4, n=8, n_elements=16, t_final=1.0), fv=True)
_SHU_OSHER = Case(
    (-5.0, 5.0), Euler1D,
    BoundaryCondition("prescribed",
                      state=tuple(euler_state_from_primitives(*SHU_OSHER_LEFT, GAS_GAMMA))),
    BoundaryCondition("wall"),
    shu_osher_initial, (SHU_OSHER_JUMP,), dict(p=3, n=5, n_elements=64, t_final=1.78),
    fv=True,
)
_CASES = {
    "convection-gaussian": _GAUSSIAN,
    "convection-heaviside": replace(_GAUSSIAN, initial=lambda x: heaviside_profile(x)[None],
                                    breakpoints=(0.25, 0.75)),
    "burgers": Case((0.0, 1.0), Burgers, _PERIODIC, _PERIODIC,
                    lambda x: burgers_profile(x)[None], (),
                    dict(p=4, n=8, n_elements=9, t_final=0.88)),
    # build_problem adds the shock position as a breakpoint and relaxes the
    # shock element
    "nozzle": Case((0.0, 1.0), NozzleEuler,
                   BoundaryCondition("farfield", farfield=NOZZLE_INLET),
                   BoundaryCondition("farfield", farfield=NOZZLE_OUTLET),
                   lambda x: nozzle_initial(x), (),
                   dict(p=4, n=8, n_elements=9, t_final=0.4)),
    "shu-osher": _SHU_OSHER,
    "sod-like": replace(_SHU_OSHER, initial=sod_like_initial, defaults=dict(t_final=1.0),
                        dg=False),
}
CASES = tuple(name for name, case in _CASES.items() if case.dg)


def build_problem(config: RunConfig):
    """Discretization and projected initial state for a case."""
    case = _CASES[config.case]
    mesh = build_uniform_mesh(*case.domain, config.n_elements, config.n)
    disc = Discretization(mesh, config.p, case.law(), case.bc_left, case.bc_right,
                          config.sensor_config)
    if config.case != "nozzle":
        return config, disc, project_initial(disc, case.initial, case.breakpoints)
    x_shock = _nozzle_steady_params()[-1]
    u0 = project_initial(disc, case.initial, [x_shock])
    return config, disc, _relax_shock_element(disc, u0, x_shock)


# The step of the combined space is limited by its sub-cell width h_sub,
# whatever p is.  `imex_step` ends on a penalty solve of the finished state,
# so it is globally stiffly accurate (Ascher, Ruuth & Spiteri, Appl. Numer.
# Math. 25, 1997, section 2; Boscarino, Pareschi & Russo, SIAM J. Sci. Comput.
# 35, 2013), and the penalty no longer binds the step.  On periodic convection
# (tests/test_stability.py), for p = 1..4 at n = 8 and at (p, n) = (3, 5), the
# limit is 0.418 to 0.425 h_sub/lambda unpenalized, 1.256 (the FV limit of
# p = 0) with the penalty in every element, and 0.424 to 0.446 with it in 1, 4
# or 8 of 16 elements.  KAPPA puts the default cfl = 0.3 at 0.2 h_sub/lambda
# for p >= 1, 2x below the smallest of these, 0.418.  The Euler presets abort
# below the symbol's limit (measured): shu-osher first at 0.34 h_sub/lambda,
# the nozzle at 0.6, so against shu-osher the margin is 1.7x.
KAPPA = 1.5

# The FV reference's Courant number.  Forward-Euler upwind (Roe) has the
# symbol 1 - nu + nu e^{-i theta}, of modulus <= 1 exactly when nu <= 1, so
# the limit is 1 (LeVeque, Finite Volume Methods for Hyperbolic Problems,
# 4.4); 0.8 leaves a 1.25x margin.  dt is set from the cells' largest
# |v| + c; the largest Roe-averaged face speed stays within 1e-5 of it
# (relative) on every step, so the realized Courant number on the faces reads
# 0.800 on shu-osher at 4,096 and 8,192 cells, sod-like and both convection
# cases, and 0.800005 on shu-osher at 512 cells (tests/test_harness.py).
FV_CFL = 0.8


def _cfl_dt(cfl: float, h_sub: float, p: int, wave_speed: float) -> float:
    """The CFL step cfl h_sub / (kappa lambda), kappa = KAPPA at p >= 1 and 1 at
    p = 0, lambda floored at 1e-12, of DG runs (`default_dt`) and FV (`_fv_march`)."""
    return cfl * h_sub / ((KAPPA if p else 1.0) * max(wave_speed, 1e-12))


def default_dt(disc: Discretization, U0: np.ndarray, cfl: float) -> float:
    """The CFL step (`_cfl_dt`) on the smallest sub-cell and the initial wave speed."""
    return _cfl_dt(cfl, float(np.min(disc.h)) / disc.n, disc.p, disc.max_wave_speed(U0))


def run_case(config: RunConfig) -> RunResult:
    """Execute one configured experiment; write outputs if output_dir is set.

    The summary's `setup_time_s` covers building the problem and choosing
    dt; `wall_time_s` covers the march alone."""
    if config.output_dir is not None:       # refused before any work
        make_output_dir(config.output_dir)
    setup_start = time.perf_counter()
    config, disc, state0 = build_problem(config)
    dt = config.dt if config.dt is not None else default_dt(disc, state0.U, config.cfl)
    wall_start = time.perf_counter()
    steady_info = {"steady": False, "steady_time": None}

    def on_step(st, traj):
        d = traj.step_diffs[-1]
        if not steady_info["steady"] and d < STEADY_RATE_TOL * np.linalg.norm(st.U):
            steady_info["steady"] = True
            steady_info["steady_time"] = st.time

    traj = advance(
        disc,
        state0,
        dt,
        config.t_final,
        snapshot_times=config.snapshot_times,
        force_gamma=config.force_gamma,
        on_step=on_step,
    )
    wall = time.perf_counter() - wall_start
    mass0 = disc.total_mass(state0.U)
    mass1 = disc.total_mass(traj.final.U)
    scale = np.maximum(np.abs(mass0), 1e-30)
    summary = {
        "case": config.case,
        "p": disc.p,
        "n": disc.n,
        "n_elements": disc.n_elements,
        "dt": dt,
        "t_final": traj.final.time,
        "n_steps": traj.n_steps,
        "setup_time_s": wall_start - setup_start,
        "wall_time_s": wall,
        "mass_initial": mass0.tolist(),
        "mass_final": mass1.tolist(),
        "mass_drift_rel": float(np.max(np.abs(mass1 - mass0) / scale)),
        "final_norm_l2": disc.field_norm(traj.final.U, "L2").tolist(),
        "steady": steady_info["steady"],
        "steady_time": steady_info["steady_time"],
        "max_gamma_final": float(np.max(traj.sensors[-1].gamma)),
    }
    result = RunResult(config=config, disc=disc, trajectory=traj,
                       summary=summary, initial=state0)
    if config.output_dir is not None:
        write_outputs(result)
    return result


# -- error norms and studies --------------------------------------------------


def error_norm(disc: Discretization, U: np.ndarray, reference,
               norm_kind: str = "L2", component: int = 0) -> float:
    """Global norm of u_delta - reference with the reference evaluated at the
    quadrature points.  `reference` maps x arrays to values."""
    return float(disc.quad_norm(disc.eval_at_quad(U)[component] - reference(disc.xq), norm_kind))


def spatial_accuracy_dt_rule(coarsest_elements: int):
    """Time-step rule for mesh-refinement studies: dt = c * h^((p+1)/2).

    The second-order time error then scales like the O(h^(p+1)) spatial
    error, so observed orders are not capped at 2.  The constant c is set by
    the explicit stability limit on the coarsest grid, where the rule and the
    CFL bound coincide: h is the case's domain length over the element count
    and the wave speed that of the case's initial state built on the coarsest
    grid, as `default_dt` takes them.  On finer grids the rule is the
    stricter of the two.
    """
    def rule(cfg: RunConfig) -> float:
        a, b = _CASES[cfg.case].domain
        _, disc, state0 = build_problem(replace(cfg, n_elements=coarsest_elements))
        wave_speed = disc.max_wave_speed(state0.U)

        def stable_dt(n_elements: int) -> float:
            return _cfl_dt(cfg.cfl, (b - a) / n_elements / cfg.n, cfg.p, wave_speed)

        exponent = 0.5 * (cfg.p + 1)
        c = stable_dt(coarsest_elements) / ((b - a) / coarsest_elements) ** exponent
        h = (b - a) / cfg.n_elements
        return min(stable_dt(cfg.n_elements), c * h ** exponent)

    return rule


def _observed_order(records: list[ErrorRecord], h: float, error: float) -> float | None:
    """log(e_prev / e) / log(h_prev / h) against the last record; None when
    there is none or either error is not a finite positive number."""
    if not records or not all(0.0 < e < np.inf for e in (records[-1].error, error)):
        return None
    prev = records[-1]
    return float(np.log(prev.error / error) / np.log(prev.h / h))


def convergence_study(base: RunConfig, refinements, norm_kind: str = "L2",
                      dt_rule=None) -> list[ErrorRecord]:
    """Run `base` at each element count and report errors against the projected
    initial condition, the exact end state only of periodic linear convection
    over whole periods; anything else, or snapshot times, is a ValueError up front."""
    if base.snapshot_times:     # a level writes none, yet its steps would land on each mark
        raise ValueError(f"a convergence study takes no snapshot_times: {base.snapshot_times}")
    if len(refinements) < 3:
        raise ValueError("need at least 3 refinement levels")
    if any(a >= b for a, b in zip(refinements, refinements[1:])):
        raise ValueError(f"refinement levels must strictly increase: {list(refinements)}")
    t_final, case = base.t_final, _CASES[base.case]
    law, (a, b) = case.law(), case.domain
    periods = t_final * abs(law.beta) / (b - a) if isinstance(law, Convection) else np.nan
    whole = abs(periods - np.round(periods)) <= 1e-12 * abs(periods)     # False for NaN
    if case.bc_left.kind != "periodic" or not whole:
        raise ValueError(f"no exact end state for case {base.case!r} at t_final={t_final:g}"
                         ": needs periodic convection over a whole number of periods")
    records: list[ErrorRecord] = []
    for n_el in refinements:
        cfg = replace(base, n_elements=int(n_el), output_dir=None)
        if dt_rule is not None:
            cfg = replace(cfg, dt=dt_rule(cfg))
        h = (b - a) / cfg.n_elements
        try:
            result = run_case(cfg)
            err = float(np.max(result.disc.field_norm(
                result.trajectory.final.U - result.initial.U, norm_kind)))
        except SolverAbort:
            err = float("nan")
        records.append(ErrorRecord(h=h, p=cfg.p, n=cfg.n, norm_kind=norm_kind, error=err,
                                   observed_order=_observed_order(records, h, err)))
    return records


def projection_convergence(p: int, n: int, refinements) -> list[ErrorRecord]:
    """Projection-only study: no time stepping, L2 error of the global L2
    projection of sin(2 pi x)."""
    f = lambda x: np.sin(2.0 * np.pi * x)
    records: list[ErrorRecord] = []
    for n_el in refinements:
        mesh = build_uniform_mesh(0.0, 1.0, int(n_el), n)
        disc = Discretization(mesh, p, Convection(), _PERIODIC, _PERIODIC)
        state = project_initial(disc, lambda x: f(x)[None])
        err = error_norm(disc, state.U, f)
        h = 1.0 / n_el
        records.append(ErrorRecord(h=h, p=p, n=n, norm_kind="L2", error=err,
                                   observed_order=_observed_order(records, h, err)))
    return records


# -- finite volume reference ---------------------------------------------------


def _source_digest(directory: Path) -> str:
    """16 hex digits: the CRC-32 and the Adler-32 of the name and bytes of
    every `*.py` file in `directory`, in sorted order.  zlib's checksums,
    not hashlib's: importing hashlib loads OpenSSL, about 3.4 MB of resident
    memory in every process that imports the package."""
    crc, adler = 0, 1                    # zlib's starting values
    for path in sorted(directory.glob("*.py")):
        data = path.read_bytes()
        for chunk in (f"{path.name}\0{len(data)}\0".encode(), data):
            crc, adler = zlib.crc32(chunk, crc), zlib.adler32(chunk, adler)
    return f"{crc:08x}{adler:08x}"


# Part of the reference cache key, computed once at import: any change to the
# package's code keys a new reference, so a cache written by other code is
# never read.
SOURCE_DIGEST = _source_digest(Path(__file__).parent)

# What np.load and reading a member raise on a truncated or corrupt .npz.
_CACHE_READ_ERRORS = (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile,
                      zlib.error)


def _fv_cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    d = Path(root) / "subgrid_dg"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _fv_march(name: str, cells: int, t_final: float):
    """First-order FV (piecewise constant, Roe flux, forward Euler) on a
    preset's domain, law, boundaries and initial state, stepped at `_cfl_dt`
    with p = 0 and cfl = FV_CFL (see there), not at a run's `cfl`."""
    case = _CASES[name]
    a, b = case.domain
    law = case.law()
    x = np.linspace(a, b, cells + 1)
    # a cell that straddles a jump, x[c] < jump < x[c + 1], holds the average
    # of each side, taken with a 64-point midpoint rule, weighted by the
    # side's share of the cell; the initial state is evaluated once, on the
    # cell centres and those cells' samples
    straddled = []
    for jump in case.breakpoints:
        c = int(np.searchsorted(x, jump, side="right")) - 1
        if 0 <= c < cells and x[c] < jump:
            straddled.append((c, jump))
    xs = np.array([[np.linspace(x[c], jump, 65), np.linspace(jump, x[c + 1], 65)]
                   for c, jump in straddled]).reshape(-1, 2, 65)
    u0 = case.initial(np.concatenate([0.5 * (x[:-1] + x[1:]),
                                      0.5 * (xs[..., :-1] + xs[..., 1:]).ravel()]))
    avg = u0[:, cells:].reshape(len(u0), -1, 2, 64).mean(axis=-1)

    # the cells with a ghost at each end; the march updates the cells in place
    buf = np.empty((len(u0), cells + 2))
    buf[:, 1:-1] = u0[:, :cells]
    U = buf[:, 1:-1]
    for k, (c, jump) in enumerate(straddled):
        wl = (jump - x[c]) / (x[c + 1] - x[c])
        U[:, c] = wl * avg[:, k, 0] + (1.0 - wl) * avg[:, k, 1]
    h = (b - a) / cells
    t = 0.0
    while t < t_final - 1e-14:
        dt = min(_cfl_dt(FV_CFL, h, 0, law.max_wave_speed(U)), t_final - t)
        if case.bc_left.kind == "periodic":
            buf[:, 0], buf[:, -1] = U[:, -1], U[:, 0]
        else:
            buf[:, :1] = boundary_ghost(case.bc_left, U[:, :1], law, side=-1)
            buf[:, -1:] = boundary_ghost(case.bc_right, U[:, -1:], law, side=1)
        F = law.interface_fluxes(buf)
        U -= (dt / h) * (F[:, 1:] - F[:, :-1])
        t += dt
    return x, U


def fv_reference(case: str, cells: int, t_final: float | None = None,
                 cache: bool = True):
    """Fine-grid first-order FV solution as a piecewise-constant sampler.

    Returns (sampler, edges, states) where sampler(x) evaluates component 0
    unless called as sampler(x, component).
    """
    if case not in _CASES or not _CASES[case].fv:
        names = tuple(name for name, c in _CASES.items() if c.fv)
        raise ValueError(f"no finite volume reference for case {case!r}; choose from {names}")
    if t_final is None:
        t_final = _CASES[case].defaults["t_final"]
    if cells < 1:
        raise ValueError(f"need at least one cell, got cells={cells}")
    if not 0.0 <= t_final < np.inf:
        raise ValueError(f"t_final must be finite and non-negative, got {t_final}")
    # the exact end time: repr of a Python float is the shortest text that
    # reads back as it (numpy 2's repr of an np.float64 also names the type)
    suffix = f"_{case}_{cells}_{float(t_final)!r}.npz"
    path = _fv_cache_dir() / f"fvref_{SOURCE_DIGEST}{suffix}" if cache else None
    x = U = None
    if path is not None and path.exists():
        try:
            # opened here: np.load leaves a file it opened open on a cut-off zip
            with open(path, "rb") as fh, np.load(fh) as data:
                x, U = data["x"], data["U"]
        except _CACHE_READ_ERRORS:
            x = U = None  # truncated or corrupt cache: recompute
    if x is None:
        x, U = _fv_march(case, cells, t_final)
        if path is not None:
            _write_atomic(path, x=x, U=U)
            # delete this reference under any other key (a key holds no "_")
            for old in path.parent.glob(f"fvref_*{suffix}"):
                if old != path and "_" not in old.name[len("fvref_"):-len(suffix)]:
                    old.unlink(missing_ok=True)

    def sampler(xs, component: int = 0):
        idx = np.clip(np.searchsorted(x, np.asarray(xs), side="right") - 1,
                      0, U.shape[1] - 1)
        return U[component][idx]

    return sampler, x, U


def _write_atomic(path: Path, **arrays) -> None:
    """Write an .npz next to `path` and rename it into place, so that an
    interrupted write never leaves a partial file under the cache key."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# -- output ---------------------------------------------------------------------


def make_output_dir(path) -> Path:
    """Directory `path`, made with its parents; one that cannot be is a ValueError."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot make output directory {path}: {exc.strerror}") from None
    return Path(path)


def write_outputs(result: RunResult) -> None:
    out = Path(result.config.output_dir)       # made by run_case before the run
    disc = result.disc
    centers = 0.5 * (disc.xfaces[:-1] + disc.xfaces[1:])

    def save(path, header, rows):
        with open(path, "w", newline="") as fh:     # "\r\n" on every platform
            np.savetxt(fh, rows, fmt="%.12g", delimiter=",", newline="\r\n",
                       header=",".join(header + ["s", "s0", "gamma"]), comments="")

    for state, rep in zip(result.trajectory.states, result.trajectory.sensors):
        avg = disc.subcell_averages(state.U)        # (m, E, n)
        m, E, n = avg.shape
        sensor = np.column_stack([rep.s, rep.s0, rep.gamma])
        tag = repr(float(state.time))    # shortest text that reads back as it
        save(out / f"snapshot_t{tag}.csv", ["x"] + [f"u{c}" for c in range(m)],
             np.column_stack([centers, *avg.reshape(m, E * n), sensor.repeat(n, axis=0)]))
        save(out / f"sensor_t{tag}.csv", ["element"], np.column_stack([np.arange(E), sensor]))
    with open(out / "summary.json", "w") as fh:
        json.dump(result.summary, fh, indent=2)


def write_convergence_csv(records: list[ErrorRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["h", "p", "n", "norm", "error", "observed_order"])
        for r in records:
            w.writerow([f"{r.h:.12g}", r.p, r.n, r.norm_kind, f"{r.error:.12g}",
                        "" if r.observed_order is None else f"{r.observed_order:.6g}"])
