import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgrid_dg.basis import reference_element
from subgrid_dg.mesh import Mesh
from subgrid_dg.projections import NonInjectiveError, project_l2, project_lo
from subgrid_dg.sensor import DEFAULT_S_EPS, SensorConfig, default_tau, evaluate_field_sensor


def lstsq_sensor(c, p, n, s_eps):
    """Independent scalar sensor: fit L_0..L_p to the sub-cell averages of c
    by least squares and return (max fit residual, max |average| + s_eps)."""
    avgs = project_lo(c, p, n)
    G = reference_element(p, n).leg_sub_avg.T  # (n, p+1) sub-cell averages of L_0..L_p
    fit, _, rank, _ = np.linalg.lstsq(G, avgs, rcond=1e-10)
    assert rank == p + 1
    return float(np.max(np.abs(G @ fit - avgs))), float(np.max(np.abs(avgs))) + s_eps


def polynomial_states(rng, count, p, n):
    """States representing pure polynomials: random zero-average Legendre
    coefficients plus a constant carried by the indicator block."""
    U = np.zeros((1, count, p + n))
    U[0, :, :p] = rng.standard_normal((count, p))
    U[0, :, p:] = rng.standard_normal((count, 1))
    return U


def test_pure_polynomials_are_invisible():
    rng = np.random.default_rng(42)
    U = polynomial_states(rng, 1000, 4, 9)
    rep = evaluate_field_sensor(U, 4, 9, SensorConfig())
    assert np.all(rep.s < 1e-10 * rep.s0)
    assert np.all(rep.gamma == 0.0)


def test_subcell_averages_of_polynomial_are_invisible():
    # piecewise-constant state whose values are sub-cell averages of a
    # degree-4 polynomial: the average-preserving fit reproduces it exactly
    p, n = 4, 9
    rng = np.random.default_rng(1)
    poly = np.zeros(p + n)
    poly[:p] = rng.standard_normal(p)
    c = np.zeros(p + n)
    c[p:] = project_lo(poly, p, n)
    assert evaluate_field_sensor(c[None, None], p, n).s[0] < 1e-10


def test_heaviside_triggers_sensor():
    mesh = Mesh(np.array([0.0, 1.0]), 9)
    c = project_l2(lambda x: np.where(x < 0.47, 1.0, 0.0), mesh, 4, breakpoints=[0.47])
    rep = evaluate_field_sensor(c[None, None], 4, 9)
    assert rep.s[0] > default_tau(4) * rep.s0[0]


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_sensor_ratio_scale_invariant(scale):
    # s and s0 are both 1-homogeneous, so gamma depends only on the shape;
    # with three components the driving one is the same at every scale
    config = SensorConfig(s_eps=1e-300)
    rng = np.random.default_rng(11)
    for m in (1, 3):
        U = rng.standard_normal((m, 6, 3 + 5))
        r1 = evaluate_field_sensor(U, 3, 5, config)
        r2 = evaluate_field_sensor(scale * U, 3, 5, config)
        np.testing.assert_allclose(r2.s / r2.s0, r1.s / r1.s0, rtol=1e-9, atol=0)
        np.testing.assert_allclose(r2.gamma, r1.gamma, rtol=1e-9, atol=0)


def test_penalty_formula():
    # a p = 1, n = 3 element with sub-cell averages (1, 1 - 1.5 r, 1): the
    # residual of their best linear fit is r (1, -2, 1) / 3, so s = r and
    # s0 = 1 + s_eps
    config = SensorConfig(c_pen=100.0, tau=0.01, s_eps=1e-300)

    def gamma(ratio):
        c = np.array([0.0, 1.0, 1.0 - 1.5 * ratio, 1.0])
        rep = evaluate_field_sensor(c[None, None], 1, 3, config)
        assert rep.s[0] / rep.s0[0] == pytest.approx(ratio, rel=1e-12, abs=1e-15)
        return rep.gamma[0]

    assert gamma(0.0) == 0.0
    assert gamma(0.005) == 0.0  # below threshold
    assert gamma(0.03) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        SensorConfig(s_eps=0.0)  # s0 >= s_eps > 0: no zero scale reaches gamma


def test_default_tau():
    assert default_tau(4) == pytest.approx(0.0025)
    assert default_tau(1) == pytest.approx(0.01)
    assert default_tau(0) == np.inf


def test_sensor_config_validation():
    for bad in (dict(s_eps=0.0), dict(s_eps=float("nan")), dict(c_pen=-1.0),
                dict(c_pen=float("inf")), dict(tau=-1e-3), dict(tau=float("nan"))):
        with pytest.raises(ValueError):
            SensorConfig(**bad)
    # a zero state is a zero sensor with a finite normalization, never NaN
    rep = evaluate_field_sensor(np.zeros((1, 3, 2 + 4)), 2, 4, SensorConfig(tau=0.0))
    assert np.all(rep.gamma == 0.0) and np.all(rep.s0 == DEFAULT_S_EPS)


def test_sensor_scale_guard():
    rep = evaluate_field_sensor(np.zeros((1, 1, 2 + 3)), 2, 3, SensorConfig(s_eps=1e-10))
    assert rep.s0[0] == pytest.approx(1e-10)
    with pytest.raises(ValueError):
        SensorConfig(s_eps=0.0)


def test_field_sensor_p0_never_fires():
    U = np.random.default_rng(0).standard_normal((1, 7, 0 + 5))
    rep = evaluate_field_sensor(U, 0, 5)
    assert np.all(rep.gamma == 0.0)
    assert np.all(rep.s == 0.0)


def test_field_sensor_takes_worst_component():
    # component 0 smooth, component 1 oscillatory: the element's penalty is
    # driven by the oscillatory component
    mesh = Mesh(np.array([0.0, 1.0]), 4)
    smooth = project_l2(lambda x: 1.0 + 0.1 * x, mesh, 2)
    rough = project_l2(lambda x: np.where(x < 0.55, 1.0, -1.0), mesh, 2, breakpoints=[0.55])
    U = np.stack([smooth[None], rough[None]])  # (m=2, E=1, dof)
    rep = evaluate_field_sensor(U, 2, 4, SensorConfig(c_pen=1.0, tau=0.01))
    only_rough = evaluate_field_sensor(rough[None, None], 2, 4, SensorConfig(c_pen=1.0, tau=0.01))
    assert rep.gamma[0] == pytest.approx(only_rough.gamma[0])
    assert rep.gamma[0] > 0.0


@pytest.mark.parametrize("p,n", [(1, 2), (2, 3), (3, 5), (4, 8), (4, 9)])
@pytest.mark.parametrize("m", [1, 3])
def test_field_sensor_matches_scalar_sensor(p, n, m):
    # the all-element sensor, of all components and of each one alone,
    # against a least-squares fit of each element's sub-cell averages and
    # gamma = c_pen max(0, s/s0 - tau); some elements are pure polynomials,
    # so both branches of gamma show up
    config = SensorConfig(c_pen=1e3, s_eps=1e-10)
    rng = np.random.default_rng(10 * p + n + m)
    U = rng.standard_normal((m, 12, p + n))
    U[:, ::3] = polynomial_states(rng, 4 * m, p, n)[0].reshape(m, 4, p + n)
    rep = evaluate_field_sensor(U, p, n, config)
    each = [evaluate_field_sensor(U[c:c + 1], p, n, config) for c in range(m)]
    tau = config.tau_for(p)
    for e in range(U.shape[1]):
        s, s0 = np.array([lstsq_sensor(U[c, e], p, n, config.s_eps) for c in range(m)]).T
        for c in range(m):
            assert each[c].s[e] == pytest.approx(s[c], rel=1e-9, abs=1e-13)
            assert each[c].s0[e] == pytest.approx(s0[c], rel=1e-12)
        if np.max(s / s0) < 1e-10:
            # a pure polynomial in every component: which component drives
            # is decided by round-off, and nothing is penalized
            assert rep.s[e] < 1e-10 * rep.s0[e] and rep.gamma[e] == 0.0
            continue
        c = int(np.argmax(s / s0))
        assert rep.s[e] == pytest.approx(s[c], rel=1e-9)
        assert rep.s0[e] == pytest.approx(s0[c], rel=1e-12)
        expected = config.c_pen * max(0.0, s[c] / s0[c] - tau)
        assert rep.gamma[e] == pytest.approx(expected, rel=1e-9)


def test_field_sensor_rejects_mismatched_dof():
    with pytest.raises(ValueError):
        evaluate_field_sensor(np.zeros((1, 2, 4)), 2, 3)


def test_sensor_undefined_when_averaging_not_injective():
    with pytest.raises(NonInjectiveError):
        evaluate_field_sensor(np.zeros((1, 2, 3 + 2)), 3, 2)
