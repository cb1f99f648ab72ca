import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgrid_dg.basis import ElementSpace
from subgrid_dg.projections import NonInjectiveError, avg_matrix, project_l2, project_lo
from subgrid_dg.sensor import (
    DEFAULT_S_EPS,
    SensorConfig,
    default_tau,
    evaluate_field_sensor,
    penalty,
    sensor_scale,
    sensor_value,
)


def lstsq_sensor(c, space, s_eps):
    """Independent scalar sensor: fit L_0..L_p to the sub-cell averages of c
    by least squares and return (max fit residual, max |average| + s_eps)."""
    avgs = project_lo(c, space)
    G = avg_matrix(space)
    fit, _, rank, _ = np.linalg.lstsq(G, avgs, rcond=1e-10)
    assert rank == space.p + 1
    return float(np.max(np.abs(G @ fit - avgs))), float(np.max(np.abs(avgs))) + s_eps


def polynomial_states(rng, count, space):
    """States representing pure polynomials: random zero-average Legendre
    coefficients plus a constant carried by the indicator block."""
    U = np.zeros((1, count, space.dof))
    U[0, :, : space.p] = rng.standard_normal((count, space.p))
    U[0, :, space.p:] = rng.standard_normal((count, 1))
    return U


def test_pure_polynomials_are_invisible():
    space = ElementSpace(4, 9)
    rng = np.random.default_rng(42)
    U = polynomial_states(rng, 1000, space)
    rep = evaluate_field_sensor(U, space, SensorConfig())
    assert np.all(rep.s < 1e-10 * rep.s0)
    assert np.all(rep.gamma == 0.0)


def test_subcell_averages_of_polynomial_are_invisible():
    # piecewise-constant state whose values are sub-cell averages of a
    # degree-4 polynomial: the average-preserving fit reproduces it exactly
    space = ElementSpace(4, 9)
    rng = np.random.default_rng(1)
    poly = np.zeros(space.dof)
    poly[: space.p] = rng.standard_normal(space.p)
    c = np.zeros(space.dof)
    c[space.p:] = project_lo(poly, space)
    assert sensor_value(c, space) < 1e-10


def test_heaviside_triggers_sensor():
    space = ElementSpace(4, 9, 0.0, 1.0)
    c = project_l2(lambda x: np.where(x < 0.47, 1.0, 0.0), space, breakpoints=[0.47])
    s = sensor_value(c, space)
    s0 = sensor_scale(c, space)
    assert s > default_tau(space.p) * s0


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_sensor_ratio_scale_invariant(scale):
    # s and s0 are both 1-homogeneous, so gamma depends only on the shape
    space = ElementSpace(3, 5)
    rng = np.random.default_rng(11)
    c = rng.standard_normal(space.dof)
    s1, s01 = sensor_value(c, space), sensor_scale(c, space, s_eps=1e-300)
    s2, s02 = sensor_value(scale * c, space), sensor_scale(scale * c, space, s_eps=1e-300)
    assert s2 / s02 == pytest.approx(s1 / s01, rel=1e-9)


def test_penalty_formula():
    assert penalty(0.0, 1.0, c_pen=100.0, tau=0.01) == 0.0
    assert penalty(0.005, 1.0, c_pen=100.0, tau=0.01) == 0.0  # below threshold
    assert penalty(0.03, 1.0, c_pen=100.0, tau=0.01) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        penalty(1.0, 0.0)


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
    space = ElementSpace(2, 4)
    rep = evaluate_field_sensor(np.zeros((1, 3, space.dof)), space, SensorConfig(tau=0.0))
    assert np.all(rep.gamma == 0.0) and np.all(rep.s0 == DEFAULT_S_EPS)


def test_sensor_scale_guard():
    space = ElementSpace(2, 3)
    assert sensor_scale(np.zeros(space.dof), space, s_eps=1e-10) == pytest.approx(1e-10)
    with pytest.raises(ValueError):
        sensor_scale(np.zeros(space.dof), space, s_eps=0.0)


def test_field_sensor_p0_never_fires():
    space = ElementSpace(0, 5)
    U = np.random.default_rng(0).standard_normal((1, 7, space.dof))
    rep = evaluate_field_sensor(U, space)
    assert np.all(rep.gamma == 0.0)
    assert np.all(rep.s == 0.0)


def test_field_sensor_takes_worst_component():
    # component 0 smooth, component 1 oscillatory: the element's penalty is
    # driven by the oscillatory component
    space = ElementSpace(2, 4, 0.0, 1.0)
    smooth = project_l2(lambda x: 1.0 + 0.1 * x, space)
    rough = project_l2(lambda x: np.where(x < 0.55, 1.0, -1.0), space, breakpoints=[0.55])
    U = np.stack([smooth[None], rough[None]])  # (m=2, E=1, dof)
    rep = evaluate_field_sensor(U, space, SensorConfig(c_pen=1.0, tau=0.01))
    only_rough = evaluate_field_sensor(rough[None, None], space, SensorConfig(c_pen=1.0, tau=0.01))
    assert rep.gamma[0] == pytest.approx(only_rough.gamma[0])
    assert rep.gamma[0] > 0.0


@pytest.mark.parametrize("p,n", [(1, 2), (2, 3), (3, 5), (4, 8), (4, 9)])
@pytest.mark.parametrize("m", [1, 3])
def test_field_sensor_matches_scalar_sensor(p, n, m):
    # the fused all-element sensor, and the scalar readers of its operator,
    # against a least-squares fit of each element's sub-cell averages; some
    # elements are pure polynomials, so both branches of gamma show up
    space = ElementSpace(p, n)
    config = SensorConfig(c_pen=1e3, s_eps=1e-10)
    rng = np.random.default_rng(10 * p + n + m)
    U = rng.standard_normal((m, 12, space.dof))
    U[:, ::3] = polynomial_states(rng, 4 * m, space)[0].reshape(m, 4, space.dof)
    rep = evaluate_field_sensor(U, space, config)
    tau = config.tau_for(p)
    for e in range(U.shape[1]):
        s, s0 = np.array([lstsq_sensor(U[c, e], space, config.s_eps) for c in range(m)]).T
        for c in range(m):
            assert sensor_value(U[c, e], space) == pytest.approx(s[c], rel=1e-9, abs=1e-13)
            assert sensor_scale(U[c, e], space, config.s_eps) == pytest.approx(s0[c], rel=1e-12)
        if np.max(s / s0) < 1e-10:
            # a pure polynomial in every component: which component drives
            # is decided by round-off, and nothing is penalized
            assert rep.s[e] < 1e-10 * rep.s0[e] and rep.gamma[e] == 0.0
            continue
        c = int(np.argmax(s / s0))
        assert rep.s[e] == pytest.approx(s[c], rel=1e-9)
        assert rep.s0[e] == pytest.approx(s0[c], rel=1e-12)
        expected = penalty(s[c], s0[c], config.c_pen, tau)
        assert rep.gamma[e] == pytest.approx(expected, rel=1e-9)


def test_field_sensor_rejects_mismatched_dof():
    space = ElementSpace(2, 3)
    with pytest.raises(ValueError):
        evaluate_field_sensor(np.zeros((1, 2, 4)), space)


def test_sensor_undefined_when_averaging_not_injective():
    space = ElementSpace(3, 2)
    with pytest.raises(NonInjectiveError):
        evaluate_field_sensor(np.zeros((1, 2, space.dof)), space)
