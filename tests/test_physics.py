import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subgrid_dg.physics import (
    AdmissibilityError,
    BoundaryCondition,
    Burgers,
    Convection,
    Euler1D,
    NozzleEuler,
    _any_nonpositive,
    _require_positive,
    boundary_area,
    boundary_ghost,
    euler_state_from_primitives,
    farfield_state,
    make_law,
    nozzle_area,
)

GAMMA = 1.4


def random_admissible_states(rng, count):
    rho = rng.uniform(0.2, 3.0, count)
    vel = rng.uniform(-2.0, 2.0, count)
    p = rng.uniform(0.2, 5.0, count)
    return euler_state_from_primitives(rho, vel, p, GAMMA)


def test_convection_upwind():
    law = Convection(beta=2.0)
    uL, uR = np.array([[1.0]]), np.array([[5.0]])
    np.testing.assert_allclose(law.roe_flux(uL, uR), 2.0 * uL)
    law_neg = Convection(beta=-2.0)
    np.testing.assert_allclose(law_neg.roe_flux(uL, uR), -2.0 * uR)
    assert law.max_wave_speed(uR) == 2.0


def convection_roe_central(beta, uL, uR):
    """The central flux plus Roe dissipation, as Convection.roe_flux once
    computed it."""
    return 0.5 * beta * (uL + uR) - 0.5 * abs(beta) * (uR - uL)


_face_value = st.floats(-1e6, 1e6, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(
    beta=st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6)),
    faces=st.lists(st.tuples(_face_value, _face_value), min_size=1, max_size=8),
)
def test_convection_roe_flux_is_the_upwind_state(beta, faces):
    uL, uR = (np.array([side]) for side in zip(*faces))
    before = uL.copy(), uR.copy()
    flux = Convection(beta=beta).roe_flux(uL, uR)
    assert flux.shape == uL.shape
    # within 4 ulp of the size of the terms, per face
    size = abs(beta) * np.maximum(np.abs(uL), np.abs(uR))
    assert np.all(np.abs(flux - convection_roe_central(beta, uL, uR)) <= 4 * np.spacing(size))
    # a fresh array, not a view of either side
    flux[...] = np.nan
    assert np.array_equal(uL, before[0]) and np.array_equal(uR, before[1])


def test_burgers_flux_and_consistency():
    law = Burgers()
    u = np.array([[0.3, -1.2, 2.0]])
    np.testing.assert_allclose(law.flux(u), 0.5 * u * u)
    np.testing.assert_allclose(law.roe_flux(u, u), law.flux(u))
    # supersonic-right pair: pure upwinding from the left
    uL, uR = np.array([[2.0]]), np.array([[1.0]])
    np.testing.assert_allclose(law.roe_flux(uL, uR), law.flux(uL))
    assert law.max_wave_speed(u) == pytest.approx(2.0)


def test_burgers_stationary_shock():
    # equal-and-opposite states: Roe speed 0, central flux is exact there
    law = Burgers()
    uL, uR = np.array([[1.0]]), np.array([[-1.0]])
    np.testing.assert_allclose(law.roe_flux(uL, uR), 0.5)


def test_euler_primitives_roundtrip():
    law = Euler1D()
    rng = np.random.default_rng(0)
    u = random_admissible_states(rng, 20)
    rho, vel, p = law.primitives(u)
    np.testing.assert_allclose(
        euler_state_from_primitives(rho, vel, p, GAMMA), u, atol=1e-13
    )


@pytest.mark.parametrize("shape", [(), (1,), (7,), (2, 3)])
def test_euler_state_from_primitives_bits_of_the_stacked_formula(shape):
    # written into one (3, ...) array, the state keeps the bits of the
    # np.stack of its three rows
    rng = np.random.default_rng(16)
    rho, vel, p = (rng.uniform(lo, hi, shape) for lo, hi in ((0.2, 3.0), (-2.0, 2.0), (0.2, 5.0)))
    stacked = np.stack([rho, rho * vel, p / (GAMMA - 1.0) + 0.5 * rho * vel ** 2])
    got = euler_state_from_primitives(rho, vel, p, GAMMA)
    assert got.shape == (3,) + shape and np.array_equal(got, stacked)
    point = euler_state_from_primitives(*(float(a.flat[0]) for a in (rho, vel, p)), GAMMA)
    assert np.array_equal(point, stacked.reshape(3, -1)[:, 0])


def test_euler_flux_values():
    law = Euler1D()
    u = euler_state_from_primitives(1.0, 2.0, 3.0, GAMMA)[:, None]
    F = law.flux(u)[:, 0]
    E = 3.0 / 0.4 + 0.5 * 1.0 * 4.0
    np.testing.assert_allclose(F, [2.0, 1.0 * 4.0 + 3.0, (E + 3.0) * 2.0])


def test_euler_roe_consistency():
    law = Euler1D()
    rng = np.random.default_rng(5)
    u = random_admissible_states(rng, 50)
    np.testing.assert_allclose(law.roe_flux(u, u), law.flux(u), atol=1e-12)


def test_euler_roe_supersonic_upwinding():
    # both states and the Roe average move supersonically to the right:
    # the numerical flux reduces to the exact left flux
    law = Euler1D()
    uL = euler_state_from_primitives(1.0, 5.0, 1.0, GAMMA)[:, None]
    uR = euler_state_from_primitives(0.9, 5.2, 1.1, GAMMA)[:, None]
    np.testing.assert_allclose(law.roe_flux(uL, uR), law.flux(uL), atol=1e-12)


@pytest.mark.parametrize("law", [Euler1D(), NozzleEuler()], ids=["euler1d", "nozzle"])
def test_euler_roe_flux_refuses_the_removed_entropy_fix(law):
    u = euler_state_from_primitives(1.0, 0.5, 2.0, GAMMA)[:, None]
    with pytest.raises(ValueError, match="Harten entropy fix was removed"):
        law.roe_flux(u, u, entropy_fix=True)


def test_euler_admissibility_errors():
    law = Euler1D()
    bad_rho = np.array([[-1.0], [0.0], [1.0]])
    with pytest.raises(AdmissibilityError):
        law.flux(bad_rho)
    bad_p = np.array([[1.0], [10.0], [1.0]])  # kinetic energy exceeds total
    with pytest.raises(AdmissibilityError):
        law.flux(bad_p)
    assert not law.admissible(bad_p[:, 0])
    good = euler_state_from_primitives(1.0, 0.5, 2.0, GAMMA)
    assert law.admissible(good)


@pytest.mark.parametrize("law", [Euler1D(), NozzleEuler()])
def test_euler_admissible_mask_is_false_exactly_where_the_check_raises(law):
    # near-vacuum states, E = rho v^2 / 2 (1 + d), |d| <= 1e-15: round-off alone
    # decides the sign of the pressure, so the mask and the check that the
    # fluxes make must round alike, point by point
    rng = np.random.default_rng(17)
    count = 20_000
    rho = rng.uniform(0.1, 2.0, count)
    vel = rng.uniform(-3.0, 3.0, count)
    energy = 0.5 * rho * vel * vel * (1.0 + rng.uniform(-1e-15, 1e-15, count))
    u = np.stack([rho, rho * vel, energy])
    mask = law.admissible(u)
    raises = np.zeros(count, dtype=bool)
    for i in range(count):
        try:
            law.flux(u[:, i:i + 1])
        except AdmissibilityError:
            raises[i] = True
    assert 0 < raises.sum() < count
    assert np.array_equal(mask, ~raises)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("bad,message", [
    (np.array([[-1.0], [0.0], [1.0]]), "density"),
    (np.array([[1.0], [10.0], [1.0]]), "pressure"),
])
def test_euler_roe_flux_rejects_inadmissible_side(side, bad, message):
    law = Euler1D()
    good = euler_state_from_primitives(1.0, 0.5, 2.0, GAMMA)[:, None]
    uL, uR = (bad, good) if side == "left" else (good, bad)
    with pytest.raises(AdmissibilityError, match=message):
        law.roe_flux(uL, uR)
    with pytest.raises(AdmissibilityError, match=message):
        NozzleEuler().roe_flux(uL, uR, x=np.array([0.5]))


@pytest.mark.parametrize("law", [Euler1D(), NozzleEuler()])
def test_roe_flux_density_check_not_hidden_by_nan(law):
    # (rho <= 0).any() still sees face 2's negative density past face 0's
    # NaN; a min()-based test would see only the NaN
    uL = euler_state_from_primitives(np.ones(3), 0.5 * np.ones(3), 2.0 * np.ones(3), GAMMA)
    uR = uL.copy()
    uR[:, 0] = np.nan
    uR[0, 2] = -1.0
    with pytest.raises(AdmissibilityError, match="non-positive density"):
        law.roe_flux(uL, uR, x=np.full(3, 0.5))
    with pytest.raises(AdmissibilityError, match="non-positive density"):
        law.roe_flux(uR, uL, x=np.full(3, 0.5))


# two states that pass the density and pressure checks (their pressures are
# 3.6e-13 and 7.8e-17) but whose Roe average has c~^2 <= 0
ROE_BAD_C_LEFT = np.array([218.47778534684, 1172.2519791615955, 3144.8842738558865])
ROE_BAD_C_RIGHT = np.array([0.01395506135484705, 0.07487648351328163, 0.20087650067433863])


@pytest.mark.parametrize("law", [Euler1D(), NozzleEuler()])
def test_roe_flux_rejects_a_negative_roe_averaged_sound_speed(law):
    uL, uR = ROE_BAD_C_LEFT[:, None], ROE_BAD_C_RIGHT[:, None]
    assert law.admissible(uL).all() and law.admissible(uR).all()
    row = np.concatenate([uL, uR], axis=1)
    for call in (lambda: law.roe_flux(uL, uR), lambda: law.roe_flux(uR, uL),
                 lambda: law.interface_fluxes(row), lambda: law.fluxes(row, uL, uR)):
        with pytest.raises(AdmissibilityError, match="^negative Roe-averaged sound speed$"):
            call()


def roe_flux_waves(uL, uR, gamma_a=GAMMA):
    """Roe flux summed wave by wave, 0.5 (F(uL) + F(uR)) - 0.5 sum_k
    |lambda_k| alpha_k r_k, with the wave strengths alpha_k from the
    conserved jumps: the oracle for the compact form of `Euler1D.roe_flux`.

    Also returns, per face, the size of the terms it sums: the same formulas
    with every term taken in absolute value.  Its own round-off is a few
    ulps of that, and it can be far above the flux itself."""
    def primitives(u):
        vel = u[1] / u[0]
        return u[0], vel, (gamma_a - 1.0) * (u[2] - 0.5 * u[0] * vel * vel)

    rhoL, vL, pL = primitives(uL)
    rhoR, vR, pR = primitives(uR)
    EpL, EpR = uL[2] + pL, uR[2] + pR
    sL, sR = np.sqrt(rhoL), np.sqrt(rhoR)
    w = sL / (sL + sR)
    vt = w * vL + (1.0 - w) * vR
    Ht = w * (EpL / rhoL) + (1.0 - w) * (EpR / rhoR)
    c2 = (gamma_a - 1.0) * (Ht - 0.5 * vt * vt)
    ct = np.sqrt(c2)
    lam1, lam3, vct = vt - ct, vt + ct, vt * ct

    d0, d1, d2 = uR[0] - uL[0], uR[1] - uL[1], uR[2] - uL[2]
    a2 = (gamma_a - 1.0) / c2 * (d0 * (Ht - vt * vt) + vt * d1 - d2)
    a1 = (d0 * lam3 - d1 - ct * a2) / (2.0 * ct)
    a3 = d0 - a1 - a2

    l1, l2, l3 = np.abs(lam1), np.abs(vt), np.abs(lam3)
    w1, w2, w3 = a1 * l1, a2 * l2, a3 * l3
    FL = np.stack([uL[1], uL[1] * vL + pL, EpL * vL])
    FR = np.stack([uR[1], uR[1] * vR + pR, EpR * vR])
    r1 = np.stack([np.ones_like(vt), lam1, Ht - vct])
    r2 = np.stack([np.ones_like(vt), vt, 0.5 * vt * vt])
    r3 = np.stack([np.ones_like(vt), lam3, Ht + vct])
    flux = np.stack([
        0.5 * (uL[1] + uR[1]) - 0.5 * (w1 + w2 + w3),
        0.5 * ((uL[1] * vL + pL) + (uR[1] * vR + pR)) - 0.5 * (w1 * lam1 + w2 * vt + w3 * lam3),
        0.5 * (EpL * vL + EpR * vR)
        - 0.5 * (w1 * (Ht - vct) + w2 * 0.5 * vt * vt + w3 * (Ht + vct)),
    ])

    A2 = (gamma_a - 1.0) / c2 * (np.abs(d0 * (Ht - vt * vt)) + np.abs(vt * d1) + np.abs(d2))
    A1 = (np.abs(d0 * lam3) + np.abs(d1) + ct * A2) / (2.0 * ct)
    A3 = np.abs(d0) + A1 + A2
    size = 0.5 * (np.abs(FL) + np.abs(FR)
                  + A1 * l1 * np.abs(r1) + A2 * l2 * np.abs(r2) + A3 * l3 * np.abs(r3))
    return flux, size.max(axis=0)


_log_uniform = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
_side = st.tuples(_log_uniform, st.floats(-5.0, 5.0), _log_uniform)   # (rho, v, p)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_side, _side), min_size=1, max_size=8))
def test_euler_roe_flux_matches_wave_by_wave_sum(pairs):
    law = Euler1D()
    left, right = (np.array(side, dtype=float).T for side in zip(*pairs))
    uL = euler_state_from_primitives(*left, GAMMA)
    uR = euler_state_from_primitives(*right, GAMMA)
    oracle, size = roe_flux_waves(uL, uR)
    got = law.roe_flux(uL, uR)
    # per face, normwise, against the size of the terms the oracle sums:
    # against the oracle's own max-norm it is meaningless where a flux of
    # 1e-3 comes out of terms of 1e4 (both formulas then sit up to 4e-9,
    # relative, from a 60-digit evaluation of the same flux)
    assert np.all(np.abs(got - oracle).max(axis=0) <= 1e-12 * size)
    # a point-shaped call gives the first face's column
    assert np.array_equal(law.roe_flux(uL[:, 0], uR[:, 0]), got[:, 0])


def test_euler_max_wave_speed():
    law = Euler1D()
    u = euler_state_from_primitives(1.0, 2.0, 1.4, GAMMA)[:, None]
    assert law.max_wave_speed(u) == pytest.approx(2.0 + np.sqrt(1.4 * 1.4 / 1.0))
    # a point-shaped call gives the same speed
    assert law.max_wave_speed(u[:, 0]) == law.max_wave_speed(u)


# -- one checked pass per residual ---------------------------------------------


_edge_floats = st.one_of(
    st.floats(width=64),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                     -2.2e-308, 1.0, -1.0]),
)


@settings(max_examples=500, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
                  elements=_edge_floats),
       st.data())
def test_any_nonpositive_equals_comparison(a, data):
    assert _any_nonpositive(a) is bool((a <= 0).any())
    # strided views, forwards and backwards, of every axis
    steps = data.draw(st.tuples(*[st.sampled_from([1, 2, 3, -1, -2])] * a.ndim))
    view = a[tuple(slice(None, None, k) for k in steps)]
    assert _any_nonpositive(view) is bool((view <= 0).any())


@settings(max_examples=500, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
                  elements=_edge_floats),
       st.data())
def test_require_positive_names_the_first_entry_at_most_zero(a, data):
    # NaNs before it are skipped and -0.0 is named, as `a <= 0` reads them,
    # in C order of the array, of strided views and of 0-d arrays alike
    steps = data.draw(st.tuples(*[st.sampled_from([1, 2, 3, -1, -2])] * a.ndim))
    for b in (a, a[tuple(slice(None, None, k) for k in steps)]):
        first = next((i for i, v in enumerate(b.ravel().tolist()) if v <= 0), None)
        if first is None:
            _require_positive(b, "non-positive density")
            continue
        with pytest.raises(AdmissibilityError, match="^non-positive density$") as err:
            _require_positive(b, "non-positive density")
        assert type(err.value.column) is int and err.value.column == first


def test_require_positive_corner_cases():
    for a, column in ((np.array([np.nan, 1.0, -0.0, -1.0]), 2),
                      (np.array([[1.0, np.nan], [-0.0, -1.0]]).T, 1),     # a view: 1, -0.0, ...
                      (np.array(-5e-324), 0), (np.float64(0.0), 0)):
        with pytest.raises(AdmissibilityError) as err:
            _require_positive(a, "non-positive pressure")
        assert err.value.column == column
    for a in (np.empty(0), np.array([np.nan, np.inf]), np.array(5e-324)):
        _require_positive(a, "non-positive pressure")
    assert AdmissibilityError("a ghost state").column is None


def test_any_nonpositive_corner_cases():
    assert not _any_nonpositive(np.empty(0))
    assert not _any_nonpositive(np.empty((3, 0)))
    assert _any_nonpositive(np.array([np.nan, -0.0, np.nan]))
    assert _any_nonpositive(np.array([np.nan, 1.0, -5e-324]))
    assert not _any_nonpositive(np.array([np.nan, np.nan]))
    assert not _any_nonpositive(np.array([5e-324, np.inf]))
    assert _any_nonpositive(np.array([np.inf, -np.inf]))
    assert _any_nonpositive(np.float64(-1.0)) and not _any_nonpositive(np.float64(1.0))


LAWS = (Convection, Burgers, Euler1D, NozzleEuler)


def test_law_facts_are_class_constants():
    # m, name and gamma_a belong to the law, so no constructor takes them;
    # make_law finds each law under its class's name
    for build in (lambda: Convection(m=3), lambda: Burgers(name="x"),
                  lambda: Euler1D(gamma_a=1.67), lambda: make_law("euler1d", m=1)):
        with pytest.raises(TypeError):
            build()
    for law in LAWS:
        assert type(make_law(law.name)) is law
    assert make_law("convection", beta=-2.0).beta == -2.0


def test_unknown_law_error_lists_the_valid_names():
    names = ", ".join(law.name for law in LAWS)
    with pytest.raises(ValueError, match=f"unknown conservation law 'euler'; valid: {names}$"):
        make_law("euler")


@settings(max_examples=300, deadline=None)
@given(law_name=st.sampled_from(["convection", "burgers", "euler1d", "nozzle"]),
       shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)),
       faces=st.integers(1, 9), data=st.data())
def test_fluxes_equal_flux_and_roe_flux(law_name, shape, faces, data):
    law = make_law(law_name)
    nq = int(np.prod(shape))
    count = nq + 2 * faces
    if law.m == 1:
        values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=count, max_size=count))
        u = np.array([values])
    else:
        sides = data.draw(st.lists(_side, min_size=count, max_size=count))
        u = euler_state_from_primitives(*np.array(sides).T, GAMMA)
    u_q = u[:, :nq].reshape((law.m,) + shape)
    uL, uR = u[:, nq:nq + faces].copy(), u[:, nq + faces:].copy()
    geom = law.geometry(np.linspace(0.0, 1.0, nq).reshape(shape))
    F_q, F_hat, S_q = law.fluxes(u_q, uL, uR, geom=geom)
    assert F_q.shape == u_q.shape and F_hat.shape == uL.shape
    assert np.array_equal(F_q, law.flux(u_q))
    assert np.array_equal(F_hat, law.roe_flux(uL, uR))
    if law.has_source():
        assert np.array_equal(S_q, law.source(u_q, geom=geom))
    else:
        assert S_q is None


def fluxes_case(where, bad):
    """(u_q, uL, uR) of admissible states, but for the state `bad` at
    u_q[:, 1, 2, 3], uL[:, 4] or uR[:, 0] (`where`)."""
    good = euler_state_from_primitives(1.0, 0.5, 2.0, GAMMA)
    u_q = np.tile(good[:, None, None, None], (1, 2, 3, 4))
    uL = np.tile(good[:, None], (1, 7))
    uR = uL.copy()
    {"quadrature": u_q[:, 1, 2, 3], "left": uL[:, 4], "right": uR[:, 0]}[where][...] = bad
    return u_q, uL, uR


@pytest.mark.parametrize("law", [Euler1D(), NozzleEuler()])
@pytest.mark.parametrize("where", ["quadrature", "left", "right"])
@pytest.mark.parametrize("bad, message", [
    ((-1.0, 0.0, 1.0), "non-positive density"),
    ((1.0, 10.0, 1.0), "non-positive pressure"),
])
def test_fluxes_reject_inadmissible_state(law, where, bad, message):
    u_q, uL, uR = fluxes_case(where, bad)
    with pytest.raises(AdmissibilityError, match=message):
        law.fluxes(u_q, uL, uR)
    # the message of the separate call that sees the state
    with pytest.raises(AdmissibilityError, match=message):
        law.flux(u_q) if where == "quadrature" else law.roe_flux(uL, uR)


@pytest.mark.parametrize("law", [Euler1D(), NozzleEuler()])
@pytest.mark.parametrize("where, column", [("quadrature", 23), ("left", 28), ("right", 31)])
@pytest.mark.parametrize("bad", [(-1.0, 0.0, 1.0), (1.0, 10.0, 1.0)])
def test_fluxes_name_the_failing_column(law, where, column, bad):
    # the columns [u_q | uL | uR], each flattened after the component axis:
    # u_q[:, 1, 2, 3] is column 1*12 + 2*4 + 3, uL[:, 4] is 24 + 4, uR[:, 0] is 24 + 7
    u_q, uL, uR = fluxes_case(where, bad)
    with pytest.raises(AdmissibilityError) as err:
        law.fluxes(u_q, uL, uR)
    assert err.value.column == column


@pytest.mark.parametrize("law", [Euler1D(), NozzleEuler()])
def test_a_failed_roe_average_names_its_faces_left_column(law):
    good = euler_state_from_primitives(1.0, 0.5, 2.0, GAMMA)
    uL, uR = np.tile(good[:, None], (1, 7)), np.tile(good[:, None], (1, 7))
    uL[:, 5], uR[:, 5] = ROE_BAD_C_LEFT, ROE_BAD_C_RIGHT
    row = np.concatenate([np.tile(good[:, None], (1, 3)), uL[:, 5:6], uR[:, 5:6], good[:, None]],
                         axis=1)
    u_q = np.tile(good[:, None, None], (1, 2, 4))
    for call, column in ((lambda: law.fluxes(u_q, uL, uR), 8 + 5),
                         (lambda: law.roe_flux(uL, uR), 5),
                         (lambda: law.roe_flux(uL[:, None], uR[:, None]), 5),
                         (lambda: law.interface_fluxes(row), 3)):
        with pytest.raises(AdmissibilityError, match="^negative Roe-averaged sound speed$") as err:
            call()
        assert err.value.column == column


def roe_flux_before_shared_sides(uL, uR, g=GAMMA):
    """`Euler1D.roe_flux` as written before it shared its side pass and its
    central part with the volume flux (admissibility checks left out): the
    oracle for the finite volume reference, whose cache key promises the
    same bits from the same scheme version."""
    def side(u):
        vel = u[1] / u[0]
        q = u[1] * vel
        return u[0], vel, q, (g - 1.0) * (u[2] - 0.5 * q)

    rhoL, vL, qL, pL = side(uL)
    rhoR, vR, qR, pR = side(uR)
    EpL, EpR = uL[2] + pL, uR[2] + pR
    sL, sR = np.sqrt(rhoL), np.sqrt(rhoR)
    inv = 1.0 / (sL + sR)
    vt = (sL * vL + sR * vR) * inv
    Ht = (EpL / sL + EpR / sR) * inv
    ct = np.sqrt((g - 1.0) * (Ht - 0.5 * (vt * vt)))
    ic = 1.0 / ct
    lam1, lam3 = vt - ct, vt + ct
    a1, a2, a3 = np.abs(lam1), np.abs(vt), np.abs(lam3)
    k1 = 0.5 * (a1 + a3) - a2
    k2 = 0.5 * (a3 - a1)
    rdv = sL * sR * (vR - vL)
    dpc = (pR - pL) * ic
    d1 = (k1 * dpc + k2 * rdv) * ic
    d2 = k2 * dpc + k1 * rdv
    out = np.empty((3,) + vt.shape)
    np.multiply(0.5, (uL[1] + uR[1]) - (a2 * (rhoR - rhoL) + d1), out=out[0, ...])
    np.multiply(0.5, ((qL + pL) + (qR + pR)) - (a2 * (uR[1] - uL[1]) + d1 * vt + d2),
                out=out[1, ...])
    np.multiply(0.5, (EpL * vL + EpR * vR) - (a2 * (uR[2] - uL[2]) + d1 * Ht + d2 * vt),
                out=out[2, ...])
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_side, _side), min_size=1, max_size=8))
def test_euler_roe_flux_bits_unchanged(pairs):
    left, right = (np.array(side, dtype=float).T for side in zip(*pairs))
    uL = euler_state_from_primitives(*left, GAMMA)
    uR = euler_state_from_primitives(*right, GAMMA)
    law = Euler1D()
    assert np.array_equal(law.roe_flux(uL, uR), roe_flux_before_shared_sides(uL, uR))
    assert np.array_equal(law.roe_flux(uL[:, 0], uR[:, 0]),
                          roe_flux_before_shared_sides(uL[:, 0], uR[:, 0]))


@pytest.mark.parametrize("entropy_fix", [False])     # as perfbench/micro.py passes it
def test_euler_roe_flux_bits_unchanged_on_a_reference_sized_grid(entropy_fix):
    # 4,097 faces, as the fv-reference march's, through every vector loop
    uL = random_admissible_states(np.random.default_rng(11), 4097)
    uR = random_admissible_states(np.random.default_rng(12), 4097)
    assert np.array_equal(Euler1D().roe_flux(uL, uR, entropy_fix=entropy_fix),
                          roe_flux_before_shared_sides(uL, uR))


_ROW_LAWS = {"convection+": Convection(beta=1.5), "convection-": Convection(beta=-0.7),
             "burgers": Burgers(), "euler1d": Euler1D(), "nozzle": NozzleEuler()}


@settings(max_examples=200, deadline=None)
@given(law_name=st.sampled_from(sorted(_ROW_LAWS)), cells=st.integers(1, 9), data=st.data())
def test_interface_fluxes_equal_roe_flux_of_the_shifted_row(law_name, cells, data):
    law = _ROW_LAWS[law_name]
    if law.m == 1:
        values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=cells, max_size=cells))
        u = np.array([values])
    else:
        sides = data.draw(st.lists(_side, min_size=cells, max_size=cells))
        u = euler_state_from_primitives(*np.array(sides).T, GAMMA)
    before = u.copy()
    F = law.interface_fluxes(u)
    assert F.shape == (law.m, cells - 1)
    assert np.array_equal(F, law.roe_flux(u[:, :-1], u[:, 1:]))
    assert np.array_equal(u, before)


@pytest.mark.parametrize("law", [Euler1D(), NozzleEuler()], ids=["euler1d", "nozzle"])
def test_interface_fluxes_bits_on_a_reference_sized_row(law):
    # the ghosted row of the fv-reference march's 4,096 cells
    u = random_admissible_states(np.random.default_rng(13), 4098)
    assert np.array_equal(law.interface_fluxes(u), roe_flux_before_shared_sides(u[:, :-1], u[:, 1:]))


_BAD_DENSITY, _BAD_PRESSURE = (-1.0, 0.0, 1.0), (1.0, 10.0, 1.0)


@pytest.mark.parametrize("law", [Euler1D(), NozzleEuler()], ids=["euler1d", "nozzle"])
@pytest.mark.parametrize("bad", [
    {0: _BAD_DENSITY}, {3: _BAD_DENSITY}, {6: _BAD_DENSITY},
    {0: _BAD_PRESSURE}, {3: _BAD_PRESSURE}, {6: _BAD_PRESSURE},
    # every call checks the density of all its columns before any pressure
    {2: _BAD_PRESSURE, 6: _BAD_DENSITY},
    {0: (np.nan, 1.0, 1.0), 4: _BAD_DENSITY},
], ids=["density-first", "density-mid", "density-last", "pressure-first", "pressure-mid",
        "pressure-last", "pressure-left-density-last", "nan-then-density"])
def test_interface_fluxes_reject_an_inadmissible_row_as_roe_flux_does(law, bad):
    u = random_admissible_states(np.random.default_rng(14), 7)
    for cell, state in bad.items():
        u[:, cell] = state
    with pytest.raises(AdmissibilityError) as expected:
        law.roe_flux(u[:, :-1], u[:, 1:])
    with pytest.raises(AdmissibilityError) as got:
        law.interface_fluxes(u)
    assert str(got.value) == str(expected.value)


def _outcome(call):
    """(call(), None), or (None, the text of the AdmissibilityError it raised)."""
    try:
        return call(), None
    except AdmissibilityError as exc:
        return None, str(exc)


_row_state = st.one_of(_side.map(lambda side: tuple(euler_state_from_primitives(*side, GAMMA))),
                       st.sampled_from([_BAD_DENSITY, _BAD_PRESSURE, (np.nan, 1.0, 1.0),
                                        (1.0, np.nan, 1.0)]))


@settings(max_examples=300, deadline=None)
@given(law=st.sampled_from([Euler1D(), NozzleEuler()]),
       row=st.lists(_row_state, min_size=2, max_size=9))
def test_the_three_euler_flux_calls_agree_on_bits_and_errors(law, row):
    # roe_flux, the face part of fluxes and interface_fluxes on the faces of
    # one row: the same bits, or the same AdmissibilityError text (a row of
    # two cells or more, so that every cell is a side of a face)
    u = np.array(row, dtype=float).T
    uL, uR = u[:, :-1], u[:, 1:]
    u_q = random_admissible_states(np.random.default_rng(15), 6).reshape(3, 2, 3)
    geom = law.geometry(np.full(u_q.shape[1:], 0.5))
    (expected, error), *others = [_outcome(lambda: law.roe_flux(uL, uR)),
                                  _outcome(lambda: law.fluxes(u_q, uL, uR, geom=geom)[1]),
                                  _outcome(lambda: law.interface_fluxes(u))]
    for got, got_error in others:
        assert got_error == error
        assert error is not None or np.array_equal(got, expected, equal_nan=True)


# -- nozzle -------------------------------------------------------------------


def test_nozzle_area_profile():
    x = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
    A, dA = nozzle_area(x)
    np.testing.assert_allclose(A, [1.0, 1.0, 0.8, 1.0, 1.0], atol=1e-14)
    assert dA[2] == pytest.approx(0.0, abs=1e-14)   # throat is a minimum
    assert dA[0] == dA[-1] == 0.0                   # straight ducts outside
    # derivative matches a central difference inside the contoured section
    xs = np.linspace(0.15, 0.85, 41)
    eps = 1e-6
    fd = (nozzle_area(xs + eps)[0] - nozzle_area(xs - eps)[0]) / (2 * eps)
    np.testing.assert_allclose(nozzle_area(xs)[1], fd, atol=1e-8)


def test_nozzle_flux_reduces_to_euler_in_straight_duct():
    law = NozzleEuler()
    euler = Euler1D()
    u = euler_state_from_primitives(1.0, 0.8, 2.0, GAMMA)[:, None]
    x = np.array([0.05])  # A = 1 there
    np.testing.assert_allclose(law.flux(u, x=x), euler.flux(u), atol=1e-14)
    np.testing.assert_allclose(
        law.roe_flux(u, u, x=x), euler.flux(u), atol=1e-12
    )


def area_scaled_nozzle(u, v, A, dA):
    """The quasi-1D terms from the Euler ones on the state per unit area,
    w = u / A, scaled back by A: A F(w), A Roe(u / A, v / A), p(w) dA/dx and
    the max speed of w; the oracles for `NozzleEuler`, which applies the
    Euler calls to u itself.

    Also returns, per face, the size of the terms the flux and the source
    sum (the same formulas with every term in absolute value, the pressure
    as (gamma - 1)(|E| + rho v v / 2)), and the Roe flux's from
    `roe_flux_waves`: the pressure of a state whose kinetic energy dwarfs
    it is a cancellation, so its rounding is a few ulps of that size."""
    euler = Euler1D()
    w = u / A
    rho, vel, p = euler.primitives(w)
    p_size = (GAMMA - 1.0) * (np.abs(w[2]) + 0.5 * rho * vel * vel)
    terms = {
        "flux": (A * euler.flux(w),
                 A * np.maximum.reduce([np.abs(w[1]), np.abs(w[1] * vel) + p_size,
                                        (np.abs(w[2]) + p_size) * np.abs(vel)])),
        "roe_flux": (A * euler.roe_flux(w, v / A), A * roe_flux_waves(w, v / A)[1]),
        "source": (np.stack([np.zeros_like(p), p * dA, np.zeros_like(p)]),
                   np.abs(dA) * p_size),
    }
    return terms, euler.max_wave_speed(w)


_area = st.floats(np.log10(0.5), np.log10(2.0)).map(lambda e: 10.0 ** e)
# dA/dx is 0 or log-uniform in [1e-3, 1] in size: a subnormal slope would make
# the relative check meaningless
_slope = st.one_of(st.just(0.0), st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 0.0))
                   .map(lambda s: s[0] * 10.0 ** s[1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_side, _side, _area, _slope), min_size=1, max_size=8))
def test_nozzle_law_matches_area_scaled_euler(faces):
    # one area A and one dA/dx per face, shared by both of its sides
    law = NozzleEuler()
    left, right, A, dA = (np.array(c, dtype=float) for c in zip(*faces))
    u = euler_state_from_primitives(*left.T, GAMMA) * A
    v = euler_state_from_primitives(*right.T, GAMMA) * A
    geom = (A, dA / A)
    terms, speed = area_scaled_nozzle(u, v, A, dA)
    got = {
        "flux": law.flux(u),
        "roe_flux": law.roe_flux(u, v),
        "source": law.source(u, geom=geom),
    }
    for name, (oracle, size) in terms.items():
        # per face, normwise, against the size of the oracle's terms (see
        # test_euler_roe_flux_matches_wave_by_wave_sum)
        assert np.all(np.abs(got[name] - oracle).max(axis=0) <= 1e-12 * size), name
    assert np.all(got["source"][[0, 2]] == 0.0)
    assert abs(law.max_wave_speed(u) - speed) <= 1e-12 * speed


@pytest.mark.parametrize("bad, message", [
    (np.array([-1.0, 0.0, 1.0]), "non-positive density"),
    (np.array([1.0, 10.0, 1.0]), "non-positive pressure"),
])
def test_nozzle_calls_reject_inadmissible_state(bad, message):
    # the Euler checks of the weighted state: A > 0 keeps every sign
    law = NozzleEuler()
    x = np.array([0.3, 0.5, 0.7])
    good = euler_state_from_primitives(np.ones(3), 0.5 * np.ones(3), 2.0 * np.ones(3), GAMMA)
    good = good * nozzle_area(x)[0]
    u = good.copy()
    u[:, 1] = bad * nozzle_area(x[1])[0]
    calls = [lambda: law.flux(u, x=x), lambda: law.source(u, x),
             lambda: law.max_wave_speed(u, x=x),
             lambda: law.roe_flux(u, good, x=x), lambda: law.roe_flux(good, u, x=x)]
    for call in calls:
        with pytest.raises(AdmissibilityError, match=message):
            call()


def test_nozzle_source_momentum_only():
    law = NozzleEuler()
    x = np.array([0.3, 0.7])
    A, dA = nozzle_area(x)
    u = euler_state_from_primitives(
        np.full(2, 1.2), np.full(2, 0.5), np.full(2, 2.0), GAMMA
    ) * A
    S = law.source(u, x)
    assert np.all(S[0] == 0.0)
    assert np.all(S[2] == 0.0)
    np.testing.assert_allclose(S[1], 2.0 * dA, atol=1e-12)
    assert law.has_source()


def test_farfield_state_values():
    # (rho, u, M) = (1, 1, 0.4): c = 2.5, p = rho c^2 / gamma = 6.25 / 1.4
    state = farfield_state(1.0, 1.0, 0.4, GAMMA)
    rho, vel, p = Euler1D().primitives(state[:, None])
    assert rho[0] == pytest.approx(1.0)
    assert vel[0] == pytest.approx(1.0)
    assert p[0] == pytest.approx(6.25 / 1.4)
    with pytest.raises(ValueError):
        farfield_state(1.0, 1.0, 0.0, GAMMA)


# -- boundary ghosts ------------------------------------------------------------


def euler_primitives(state):
    rho = state[0]
    vel = state[1] / rho
    p = (GAMMA - 1.0) * (state[2] - 0.5 * rho * vel * vel)
    return rho, vel, p


def test_wall_ghost_mirrors_momentum():
    law = Euler1D()
    u = euler_state_from_primitives(1.0, 0.7, 2.0, GAMMA)[:, None]
    ghost = boundary_ghost(BoundaryCondition("wall"), u, law)
    np.testing.assert_allclose(ghost[0], u[0])
    np.testing.assert_allclose(ghost[1], -u[1])
    np.testing.assert_allclose(ghost[2], u[2])


def test_prescribed_ghost_returns_state():
    law = Euler1D()
    state = tuple(euler_state_from_primitives(2.0, 0.1, 1.0, GAMMA))
    u = euler_state_from_primitives(1.0, 0.7, 2.0, GAMMA)[:, None]
    ghost = boundary_ghost(BoundaryCondition("prescribed", state=state), u, law)
    np.testing.assert_allclose(ghost[:, 0], state)


def test_periodic_ghost_rejected():
    with pytest.raises(ValueError):
        boundary_ghost(BoundaryCondition("periodic"), np.zeros((3, 1)), Euler1D())


@pytest.mark.parametrize("law", [Burgers(), Convection()], ids=["burgers", "convection"])
@pytest.mark.parametrize("bc, side, end", [
    (BoundaryCondition("wall"), -1, "left"),
    (BoundaryCondition("farfield", farfield=(1.0, 1.0, 0.45)), 1, "right"),
], ids=["wall", "farfield"])
def test_ghost_refuses_a_wall_or_farfield_on_a_non_euler_law(law, bc, side, end):
    # the same refusal as a Discretization's, not a bare IndexError or AttributeError
    with pytest.raises(ValueError, match=f"^the {end} {bc.kind} boundary needs an "
                                         f"Euler law, not '{law.name}'$"):
        boundary_ghost(bc, np.array([[0.5]]), law, side=side)


def test_subsonic_outflow_ghost_pins_farfield_pressure():
    law = Euler1D()
    bc = BoundaryCondition("farfield", farfield=(1.0, 1.0, 0.45))
    p_far = 1.0 * (1.0 / 0.45) ** 2 / GAMMA
    interior = euler_state_from_primitives(0.9, 0.8, 3.2, GAMMA)[:, None]
    ghost = boundary_ghost(bc, interior, law, side=1)  # outflow at the right end
    _, _, p_b = euler_primitives(ghost[:, 0])
    assert p_b == pytest.approx(p_far)


def test_supersonic_outflow_ghost_extrapolates_interior():
    law = Euler1D()
    bc = BoundaryCondition("farfield", farfield=(1.0, 1.0, 0.45))
    interior = euler_state_from_primitives(1.0, 5.0, 1.0, GAMMA)[:, None]
    ghost = boundary_ghost(bc, interior, law, side=1)
    np.testing.assert_allclose(ghost, interior, atol=1e-12)


def test_supersonic_inflow_ghost_is_farfield():
    law = Euler1D()
    bc = BoundaryCondition("farfield", farfield=(1.0, 5.0, 2.5))
    interior = euler_state_from_primitives(0.7, 4.0, 0.9, GAMMA)[:, None]
    ghost = boundary_ghost(bc, interior, law, side=-1)  # inflow at the left end
    np.testing.assert_allclose(ghost[:, 0], farfield_state(1.0, 5.0, 2.5, GAMMA))


def test_subsonic_inflow_ghost_consistency():
    # when the interior already equals the farfield, the ghost reproduces it
    law = Euler1D()
    bc = BoundaryCondition("farfield", farfield=(1.0, 1.0, 0.40))
    far = farfield_state(1.0, 1.0, 0.40, GAMMA)
    ghost = boundary_ghost(bc, far[:, None], law, side=-1)
    np.testing.assert_allclose(ghost[:, 0], far, atol=1e-12)


def test_nozzle_farfield_ghost_is_area_weighted():
    law = NozzleEuler()
    bc = BoundaryCondition("farfield", farfield=(1.0, 1.0, 0.40))
    far = farfield_state(1.0, 1.0, 0.40, GAMMA)
    x = 0.0  # A = 1 at the inlet plane
    ghost = boundary_ghost(bc, far[:, None], law, x=x, side=-1)
    np.testing.assert_allclose(ghost[:, 0], far, atol=1e-12)


@pytest.mark.parametrize("law", [Euler1D(), NozzleEuler()])
@pytest.mark.parametrize("interior,message", [
    (np.array([[-0.1], [0.0], [2.0]]), "density"),
    (np.array([[1.0], [10.0], [1.0]]), "pressure"),
])
def test_farfield_ghost_rejects_nonphysical_interior(law, interior, message):
    # the characteristic ghost needs the interior sound speed: a non-physical
    # trace must stop the march instead of producing a NaN ghost state
    bc = BoundaryCondition("farfield", farfield=(1.0, 1.0, 0.40))
    for side in (-1, 1):
        with pytest.raises(AdmissibilityError, match=message):
            boundary_ghost(bc, interior, law, x=0.0, side=side)


def array_farfield_ghost(bc, interior, law, x, side):
    """The farfield ghost as it was written with 1-element numpy arrays, as
    a reference for the float code: farfield state stacked per call, area
    taken from nozzle_area for the nozzle only."""
    g = law.gamma_a
    rho_f, vel_f, mach_f = bc.farfield
    c_f = vel_f / mach_f

    def state(rho, vel, p):
        rho = np.asarray(rho, dtype=float)
        return np.stack([rho, rho * vel, np.asarray(p) / (g - 1.0)
                         + 0.5 * rho * np.asarray(vel) ** 2])

    def primitives(u):
        rho = u[0]
        vel = u[1] / rho
        return rho, vel, (g - 1.0) * (u[2] - 0.5 * rho * vel * vel)

    far = state(rho_f, vel_f, rho_f * c_f * c_f / g)
    area = 1.0
    u = interior.reshape(3)
    if isinstance(law, NozzleEuler):
        area = float(nozzle_area(x)[0])
        u = u / area
    rho_d, u_d, p_d = primitives(u)
    rho_a, u_a, p_a = primitives(far)
    c_d = np.sqrt(g * p_d / rho_d)
    rc = rho_d * c_d
    qn_d = side * u_d
    if qn_d >= c_d:
        rho_b, u_b, p_b = rho_d, u_d, p_d
    elif qn_d <= -c_d:
        rho_b, u_b, p_b = rho_a, u_a, p_a
    elif qn_d >= 0.0:
        p_b = p_a
        rho_b = rho_d + (p_b - p_d) / (c_d * c_d)
        u_b = u_d + side * (p_d - p_b) / rc
    else:
        p_b = 0.5 * (p_a + p_d - rc * side * (u_a - u_d))
        rho_b = rho_a + (p_b - p_a) / (c_d * c_d)
        u_b = u_a - side * (p_a - p_b) / rc
    return (state(rho_b, u_b, p_b) * area).reshape(3, 1)


@pytest.mark.parametrize("law, x", [(Euler1D(), 0.3), (NozzleEuler(), 0.3),
                                    (NozzleEuler(), 0.77)])
@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("normal_mach", [2.0, -2.0, 0.5, -0.5, 0.0])
def test_farfield_ghost_matches_array_implementation(law, x, side, normal_mach):
    # normal Mach number side * u / c of the interior: supersonic out, in,
    # subsonic out, in, and rest (the subsonic outflow branch)
    assert float(nozzle_area(x)[0]) != 1.0
    rho, p = 0.9, 1.3
    c = np.sqrt(GAMMA * p / rho)
    interior = euler_state_from_primitives(rho, side * normal_mach * c, p, GAMMA)[:, None]
    if isinstance(law, NozzleEuler):
        interior = interior * nozzle_area(x)[0]
    for far in [(1.0, 1.0, 0.40), (1.0, 1.0, 0.45), (1.0, 5.0, 2.5)]:
        bc = BoundaryCondition("farfield", farfield=far)
        ghost = boundary_ghost(bc, interior, law, x=x, side=side)
        assert ghost.shape == (3, 1)
        assert np.array_equal(ghost, array_farfield_ghost(bc, interior, law, x, side))
    rng = np.random.default_rng(11)
    for u in random_admissible_states(rng, 40).T:
        u = u[:, None] * (nozzle_area(x)[0] if isinstance(law, NozzleEuler) else 1.0)
        assert np.array_equal(boundary_ghost(bc, u, law, x=x, side=side),
                              array_farfield_ghost(bc, u, law, x, side))


def test_farfield_ghost_area_from_caller():
    # the area a caller passes replaces the one the law computes from x
    law = NozzleEuler()
    bc = BoundaryCondition("farfield", farfield=(1.0, 1.0, 0.40))
    u = farfield_state(1.0, 1.0, 0.40, GAMMA)[:, None] * nozzle_area(0.3)[0]
    area = float(nozzle_area(0.3)[0])
    assert np.array_equal(boundary_ghost(bc, u, law, x=0.3, side=-1),
                          boundary_ghost(bc, u, law, side=-1, area=area))


@pytest.mark.parametrize("interior, message", [
    (np.array([[-0.1], [0.0], [2.0]]), "density"),
    (np.array([[1.0], [10.0], [1.0]]), "pressure"),
])
def test_farfield_ghost_abort_names_side_and_x(interior, message):
    bc = BoundaryCondition("farfield", farfield=(1.0, 1.0, 0.40))
    for side, where, x in [(-1, "left", 0.0), (1, "right", 1.0)]:
        with pytest.raises(AdmissibilityError,
                           match=f"{message} .* {where} farfield boundary at x={x:g}"):
            boundary_ghost(bc, interior, NozzleEuler(), x=x, side=side)


def test_nozzle_calls_match_from_coordinates_and_geometry():
    law = NozzleEuler()
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 1.0, (4, 7)), axis=None).reshape(4, 7)
    geom = law.geometry(x)
    A = nozzle_area(x)[0]
    u = random_admissible_states(rng, x.size).reshape(3, *x.shape) * A
    assert np.array_equal(law.source(u, x), law.source(u, geom=geom))


NO_POSITION = "the nozzle law needs the position x"


def test_nozzle_source_without_position_is_refused():
    # read as NaN, a missing x gave A = 1 and dA/dx = 0: a zero source
    law = NozzleEuler()
    u = farfield_state(1.0, 1.0, 0.40, GAMMA)[:, None] * np.ones(3)
    with pytest.raises(ValueError, match=NO_POSITION):
        law.source(u)
    with pytest.raises(ValueError, match=NO_POSITION):
        law.geometry(None)
    x = np.array([0.2, 0.4, 0.7])
    S = law.source(u, x)
    assert np.array_equal(S, law.source(u, geom=law.geometry(x)))
    assert np.all(S[1] != 0.0)


def test_nozzle_fluxes_without_geometry_are_refused():
    law = NozzleEuler()
    u = farfield_state(1.0, 1.0, 0.40, GAMMA)[:, None] * np.ones(4)
    with pytest.raises(ValueError, match=NO_POSITION):
        law.fluxes(u, u[:, :2], u[:, :2])


@pytest.mark.parametrize("side", [-1, 1])
def test_nozzle_farfield_ghost_without_position_or_area_is_refused(side):
    # it took area 1 without x, wherever the face is
    bc = BoundaryCondition("farfield", farfield=(1.0, 1.0, 0.40))
    u = farfield_state(1.0, 1.0, 0.40, GAMMA)[:, None]
    with pytest.raises(ValueError, match=NO_POSITION):
        boundary_ghost(bc, u, NozzleEuler(), side=side)
    with pytest.raises(ValueError, match=NO_POSITION):
        boundary_area(NozzleEuler(), None)


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("normal_mach", [2.0, -2.0, 0.5, -0.5])
def test_euler_farfield_ghost_without_position_takes_unit_area(side, normal_mach):
    # the FV march passes no x: an Euler law has no duct, so its area is 1
    law = Euler1D()
    bc = BoundaryCondition("farfield", farfield=(1.0, 1.0, 0.40))
    rho, p = 0.9, 1.3
    c = np.sqrt(GAMMA * p / rho)
    u = euler_state_from_primitives(rho, side * normal_mach * c, p, GAMMA)[:, None]
    ghost = boundary_ghost(bc, u, law, side=side)
    assert boundary_area(law, None) == 1.0
    assert np.array_equal(ghost, boundary_ghost(bc, u, law, side=side, area=1.0))
    assert np.array_equal(ghost, array_farfield_ghost(bc, u, law, None, side))


def test_laws_without_geometry():
    for law in (Convection(), Burgers(), Euler1D()):
        assert law.geometry(np.linspace(0.0, 1.0, 5)) is None


def test_boundary_condition_validation():
    with pytest.raises(ValueError):
        BoundaryCondition("unknown")
    with pytest.raises(ValueError):
        BoundaryCondition("farfield")
    with pytest.raises(ValueError):
        BoundaryCondition("farfield", farfield=(1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        BoundaryCondition("prescribed")


def test_make_law():
    assert isinstance(make_law("convection", beta=2.0), Convection)
    assert isinstance(make_law("burgers"), Burgers)
    assert isinstance(make_law("euler1d"), Euler1D)
    assert isinstance(make_law("nozzle"), NozzleEuler)
    with pytest.raises(ValueError):
        make_law("magnetohydrodynamics")
