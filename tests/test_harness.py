import json

import numpy as np
import pytest

from subgrid_dg import harness
from subgrid_dg.basis import ElementSpace
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
    spatial_accuracy_dt_rule,
    state_error_norm,
)
from subgrid_dg.mesh import Mesh, build_uniform_mesh
from subgrid_dg.physics import BoundaryCondition, euler_state_from_primitives, nozzle_area
from subgrid_dg.projections import project_l2, project_lo
from subgrid_dg.solver import Discretization, SolverAbort

# The presets and defaults the README's case table lists:
# case: (domain, p, n, n_elements, dt, t_final)
README_PRESETS = {
    "convection-gaussian": ((0.0, 1.0), 4, 8, 16, None, 1.0),
    "convection-heaviside": ((0.0, 1.0), 4, 8, 16, None, 1.0),
    "convection-recovery": ((0.0, 1.0), 4, 8, 16, None, 1.0),
    "burgers": ((0.0, 1.0), 4, 8, 9, 1e-3, 0.88),
    "nozzle": ((0.0, 1.0), 4, 8, 9, 2e-4, 0.4),
    "shu-osher": ((-5.0, 5.0), 3, 5, 64, None, 1.78),
    "fv-comparison": ((-5.0, 5.0), 0, 5, 64, None, 1.78),
}


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(case="kelvin-helmholtz")
    # exactly the README's presets; the FV-only one is not a DG run, and the
    # message names every DG preset
    assert harness.CASES == tuple(README_PRESETS)
    with pytest.raises(ValueError, match="'fv-comparison'"):
        RunConfig(case="sod-like")
    cfg = RunConfig(case="burgers")
    assert cfg.force_gamma is None
    cfg = RunConfig(case="burgers", force_gamma_element=3)
    assert cfg.force_gamma == (3, 1.0e7)
    cfg = RunConfig(case="burgers", force_gamma_element=3, force_gamma_value=5.0)
    assert cfg.force_gamma == (3, 5.0)
    # sensor settings that would give a NaN or negative penalty, and a
    # negative forced penalty, are rejected where they enter
    for bad in (dict(s_eps=0.0), dict(s_eps=-1e-10), dict(s_eps=float("inf")),
                dict(c_pen=-1.0), dict(c_pen=float("nan")), dict(tau=-0.01),
                dict(tau=float("inf")), dict(force_gamma_element=3, force_gamma_value=-1.0),
                dict(force_gamma_value=float("nan"))):
        with pytest.raises(ValueError):
            RunConfig(case="burgers", **bad)
    assert RunConfig(case="burgers", c_pen=0.0, tau=0.0).sensor_config.c_pen == 0.0


def test_case_defaults_applied():
    config, disc, state = build_problem(RunConfig(case="burgers"))
    assert (disc.p, disc.n, disc.n_elements) == (4, 8, 9)
    assert config.t_final == 0.88
    config, disc, _ = build_problem(RunConfig(case="shu-osher", p=1, n=3))
    assert (disc.p, disc.n, disc.n_elements) == (1, 3, 64)


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


@pytest.mark.parametrize("overrides", [{}, dict(p=1, n=2, n_elements=3), dict(n_elements=32)])
def test_relaxed_shock_element_is_discrete_steady_state(overrides):
    # the built nozzle's shock element solves its one-element steady problem
    # with gamma from its own sensor; every other element is the projection
    config, disc, state = build_problem(RunConfig(case="nozzle", **overrides))
    x_shock = harness._nozzle_steady_params()[-1]
    element = min(int(x_shock * disc.n_elements), disc.n_elements - 1)
    xl, xr = disc.mesh.element_bounds(element)
    traces = [BoundaryCondition("prescribed", state=tuple(nozzle_initial(np.array([x]))[:, 0]))
              for x in (xl, xr)]
    disc1 = Discretization(Mesh(np.array([xl, xr]), disc.n), disc.p, disc.law, *traces,
                           disc.sensor_config, disc.entropy_fix)
    U = state.U[:, element:element + 1]
    gamma = disc1.evaluate_sensor(U).gamma
    penalty_rate = disc1.solve_mass(disc1.apply_penalty(U, gamma))
    F = disc1.solve_mass(disc1.residual(U, 0.0)) - penalty_rate
    assert np.linalg.norm(F) <= 1e-10 * max(1.0, np.linalg.norm(penalty_rate))
    u0 = project_initial(disc, harness._CASES["nozzle"].initial, (x_shock,))
    others = np.arange(disc.n_elements) != element
    assert np.array_equal(state.U[:, others], u0.U[:, others])
    assert not np.array_equal(state.U[:, element], u0.U[:, element])


def test_shock_relaxation_without_steady_state_aborts(monkeypatch):
    class Shifted(harness.Discretization):
        def residual(self, U, t):        # M^-1 (R + 1 - penalty) has no root
            return super().residual(U, t) + 1.0

    monkeypatch.setattr(harness, "Discretization", Shifted)
    with pytest.raises(SolverAbort, match=r"shock element 5 on x in \[0\.555556, 0\.666667\]"
                                          r": \|F\| = .* after \d+ Newton iterations"):
        build_problem(RunConfig(case="nozzle"))


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
        space = ElementSpace(disc.p, disc.n, xl, xr)
        local = [b for b in breakpoints if xl < b < xr]
        for c in range(m):
            U[c, e] = project_l2(lambda x, c=c: np.atleast_2d(f(x))[c], space,
                                 breakpoints=local)
        vals = np.einsum("md,dsq->msq", U[:, e], space.ref.phi)
        if not np.all(disc.law.admissible(vals)):
            for c in range(m):
                U[c, e, disc.p:] = project_lo(U[c, e], space)
                U[c, e, :disc.p] = 0.0
    return U


@pytest.mark.parametrize("case, overrides", [(c, {}) for c in harness.CASES] + [
    ("shu-osher", dict(p=1, n=3)),                # Gibbs fallback in the jump element
    ("shu-osher", dict(n_elements=47)),           # jump inside a sub-cell
    ("convection-heaviside", dict(n_elements=10, n=3)),   # both jumps inside sub-cells
])
def test_project_initial_matches_per_element_projection(case, overrides):
    config = harness._filled(RunConfig(case=case, **overrides))
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


def test_state_error_norm():
    config, disc, state = build_problem(
        RunConfig(case="convection-gaussian", p=2, n=3, n_elements=8)
    )
    assert state_error_norm(disc, state.U, state.U) == 0.0
    assert state_error_norm(disc, state.U, 0.5 * state.U) > 0.0


def test_default_dt_scaling():
    config, disc, state = build_problem(
        RunConfig(case="convection-gaussian", p=2, n=4, n_elements=8)
    )
    dt = default_dt(disc, state.U, cfl=0.3)
    # cfl * h_sub / (wave speed * (2p + 1))
    assert dt == pytest.approx(0.3 * (1.0 / 32.0) / 5.0)
    config2, disc2, state2 = build_problem(
        RunConfig(case="convection-gaussian", p=2, n=4, n_elements=16)
    )
    assert default_dt(disc2, state2.U, cfl=0.3) == pytest.approx(0.5 * dt)


def test_spatial_accuracy_dt_rule():
    rule = spatial_accuracy_dt_rule(8)
    coarse = RunConfig(case="convection-gaussian", p=3, n=5, n_elements=8)
    fine = RunConfig(case="convection-gaussian", p=3, n=5, n_elements=32)
    stable_coarse = 0.3 * ((1.0 / 8.0) / 5) / 7.0
    assert rule(coarse) == pytest.approx(stable_coarse)
    # on finer grids the h^((p+1)/2) scaling is stricter than the CFL bound
    expected = stable_coarse * (8.0 / 32.0) ** 2.0
    assert rule(fine) == pytest.approx(expected)


def test_convergence_study_requires_three_levels():
    with pytest.raises(ValueError):
        convergence_study(RunConfig(case="convection-gaussian"), [8, 16])


def test_convergence_study_records():
    # full advection period: the exact solution returns to the initial state,
    # so the study's error against the projected start is meaningful
    cfg = RunConfig(case="convection-gaussian", p=1, n=2, t_final=1.0)
    records = convergence_study(cfg, [8, 16, 32], dt_rule=spatial_accuracy_dt_rule(8))
    assert len(records) == 3
    assert records[0].observed_order is None
    assert records[1].error < records[0].error
    assert records[2].observed_order is not None


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


def test_fv_reference_cache_key_carries_scheme_version(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    fv_reference("convection-gaussian", 64, t_final=0.25)
    (old,) = (tmp_path / "subgrid_dg").glob("fvref_*.npz")
    assert f"_v{harness.FV_SCHEME_VERSION}_" in old.name
    # code with another scheme version neither reuses nor overwrites it
    monkeypatch.setattr(harness, "FV_SCHEME_VERSION", harness.FV_SCHEME_VERSION + 1)
    stamp = old.stat().st_mtime_ns
    fv_reference("convection-gaussian", 64, t_final=0.25)
    assert len(list((tmp_path / "subgrid_dg").glob("fvref_*.npz"))) == 2
    assert old.stat().st_mtime_ns == stamp


def test_fv_reference_transports_profile(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    # after a quarter period the (smeared) bump peak sits near x = 0.75
    sampler, x, U = fv_reference("convection-gaussian", 512, t_final=0.25)
    centers = 0.5 * (x[:-1] + x[1:])
    assert centers[np.argmax(U[0])] == pytest.approx(0.75, abs=0.02)


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
    config = harness._filled(RunConfig(case="nozzle"))
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
    # the nodes of the whole mesh, then each sub-cell of the shock element
    # with the one split at the shock
    assert len(profiles) == 1 + config.n + 1


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
