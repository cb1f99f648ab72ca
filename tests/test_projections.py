import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgrid_dg.basis import (
    ElementSpace,
    assemble_mass,
    assemble_penalty_mass,
    basis_eval,
    gauss_rule,
    legendre_eval,
)
from subgrid_dg.projections import (
    NonInjectiveError,
    _quad_rhs,
    check_injectivity,
    project_avg_preserving,
    project_ho,
    project_l2,
    project_lo,
    project_penalized,
)


def evaluate(c, space, x):
    return sum(c[i] * basis_eval(space, i, x) for i in range(space.dof))


def exact_subcell_averages(f, space, n_quad=30):
    g, w = gauss_rule(n_quad)
    edges = space.to_physical(space.ref.sub_edges)
    out = np.empty(space.n)
    for s in range(space.n):
        xl, xr = edges[s], edges[s + 1]
        xq = 0.5 * (xl + xr) + 0.5 * (xr - xl) * g
        out[s] = 0.5 * np.sum(w * f(xq))
    return out


coeff_arrays = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=7, max_size=7
)


@settings(max_examples=50, deadline=None)
@given(coeff_arrays)
def test_idempotence_on_representable_functions(coeffs):
    # projecting a function already in the space returns its own coefficients
    space = ElementSpace(3, 4, 0.1, 0.8)
    c = np.asarray(coeffs)
    c2 = project_l2(lambda x: evaluate(c, space, x), space)
    scale = max(1.0, np.max(np.abs(c)))
    assert np.max(np.abs(c2 - c)) < 1e-12 * scale


@pytest.mark.parametrize("p,n", [(1, 2), (2, 3), (4, 8), (0, 5)])
def test_average_preservation_algebraic(p, n):
    # sub-cell averages of the projection equal the averages of f computed
    # with the projection's own quadrature rule, exactly
    space = ElementSpace(p, n, -0.3, 1.7)
    f = lambda x: np.sin(3.0 * x) + 0.4 * x**2
    c = project_l2(f, space)
    quad_avgs = exact_subcell_averages(f, space, n_quad=space.ref.n_quad)
    np.testing.assert_allclose(project_lo(c, space), quad_avgs, atol=1e-12)


def test_average_preservation_exact_for_resolved_profile(tol=1e-11):
    space = ElementSpace(4, 8, -0.3, 1.7)
    f = lambda x: np.sin(3.0 * x) + 0.4 * x**2
    c = project_l2(f, space)
    np.testing.assert_allclose(
        project_lo(c, space), exact_subcell_averages(f, space), atol=tol
    )


@pytest.mark.parametrize("gamma", [0.0, 1.0, 1e4, 1e12])
def test_penalized_projection_preserves_averages(gamma):
    # the penalty acts only on the zero-average polynomial modes, so sub-cell
    # averages of the projection stay locked to the averages of f
    space = ElementSpace(4, 8, 0.0, 1.0)
    f = lambda x: np.where(x < 0.47, 1.0, 0.0)
    c = project_penalized(f, space, gamma, breakpoints=[0.47])
    np.testing.assert_allclose(
        project_lo(c, space), exact_subcell_averages_split(f, space, 0.47), atol=1e-11
    )


def exact_subcell_averages_split(f, space, cut, n_quad=30):
    g, w = gauss_rule(n_quad)
    edges = space.to_physical(space.ref.sub_edges)
    out = np.empty(space.n)
    for s in range(space.n):
        pieces = sorted({edges[s], edges[s + 1]} | ({cut} if edges[s] < cut < edges[s + 1] else set()))
        acc = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            xq = 0.5 * (a + b) + 0.5 * (b - a) * g
            acc += 0.5 * (b - a) * np.sum(w * f(xq))
        out[s] = acc / (edges[s + 1] - edges[s])
    return out


def quad_rhs_piece_by_piece(f, space, breakpoints=None):
    """_quad_rhs written as a loop over the (sub-cell, cut) pieces: one call
    of f and one Legendre evaluation per mode for each piece."""
    ref = space.ref
    g, w = gauss_rule(ref.n_quad)
    b = None
    edges = space.to_physical(ref.sub_edges)
    for s in range(space.n):
        xl, xr = edges[s], edges[s + 1]
        cuts = [xl, xr]
        if breakpoints is not None:
            cuts += [float(c) for c in breakpoints if xl < c < xr]
        cuts = sorted(cuts)
        for a, c in zip(cuts[:-1], cuts[1:]):
            xq = 0.5 * (a + c) + 0.5 * (c - a) * g
            wq = 0.5 * (c - a) * w
            fv = np.asarray(f(xq), dtype=float)
            if b is None:
                b = np.zeros(fv.shape[:-1] + (space.dof,))
            xi = space.to_reference(xq)
            for i in range(space.p):
                b[..., i] += np.sum(wq * fv * legendre_eval(i + 1, xi), axis=-1)
            b[..., space.p + s] += np.sum(wq * fv, axis=-1)
    return b


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(0, 7),
    n=st.integers(1, 9),
    x_left=st.floats(-5.0, 5.0),
    width=st.floats(1e-3, 10.0),
    m=st.sampled_from([None, 1, 3]),
    k=st.floats(0.5, 20.0),
    cut_kinds=st.lists(st.tuples(st.sampled_from(["inside", "outside", "edge", "twice"]),
                                 st.floats(0.0, 1.0)), max_size=4),
)
def test_quad_rhs_equals_piece_by_piece_loop(p, n, x_left, width, m, k, cut_kinds):
    # one call of f on all pieces gives the same bits as a call per piece
    space = ElementSpace(p, n, x_left, x_left + width)
    edges = space.to_physical(space.ref.sub_edges)
    cuts = []
    for kind, u in cut_kinds:
        if kind == "inside":
            cuts.append(x_left + u * width)
        elif kind == "outside":
            cuts.append(x_left - u * width if u < 0.5 else x_left + (0.5 + u) * width)
        elif kind == "edge":
            cuts.append(float(edges[int(u * n)]))
        else:
            cuts += [x_left + u * width] * 2
    jump = cuts[0] if cuts else x_left + 0.5 * width

    def f(x):
        base = np.sin(k * x) + np.where(x < jump, 1.0, -0.5)
        if m is None:
            return base
        return np.stack([base * (c + 1.0) + c * np.cos(x) for c in range(m)])

    for breakpoints in (cuts, None):
        new = _quad_rhs(f, space, breakpoints)
        old = quad_rhs_piece_by_piece(f, space, breakpoints)
        assert new.shape == old.shape
        assert np.array_equal(new, old)


def test_quad_rhs_calls_f_once():
    calls = []
    space = ElementSpace(3, 4, 0.0, 1.0)
    _quad_rhs(lambda x: calls.append(x.shape) or np.sin(x), space, [0.3, 0.3, 0.6])
    # 4 sub-cells, one split at 0.6 and one at 0.3 twice: 7 pieces of 5 nodes
    assert calls == [(35,)]


def test_projection_gamma_zero_matches_plain_l2():
    space = ElementSpace(3, 5, 0.0, 1.0)
    f = lambda x: np.cos(4.0 * x)
    np.testing.assert_allclose(
        project_penalized(f, space, 0.0), project_l2(f, space), atol=1e-13
    )


@settings(max_examples=100, deadline=None)
@given(
    pn=st.sampled_from([(1, 1), (1, 3), (2, 4), (3, 5), (4, 8)]),
    gamma=st.one_of(st.just(0.0), st.floats(-12.0, 12.0).map(lambda e: 10.0**e)),
    width=st.floats(0.01, 3.0),
    k=st.floats(0.5, 12.0),
    cut=st.floats(0.0, 1.0),
)
def test_project_penalized_matches_assembled_solve(pn, gamma, width, k, cut):
    # the eigenbasis filter against solving (M + gamma M_pp) c = b directly,
    # to 1e-11 of the coefficients' max-norm
    space = ElementSpace(*pn, 0.2, 0.2 + width)
    x_cut = 0.2 + cut * width
    f = lambda x: np.sin(k * x) + np.where(x < x_cut, 1.0, -0.5)
    c = project_penalized(f, space, gamma, breakpoints=[x_cut])
    b = _quad_rhs(f, space, [x_cut])
    expected = np.linalg.solve(
        assemble_mass(space) + gamma * assemble_penalty_mass(space), b
    )
    assert np.max(np.abs(c - expected)) <= 1e-11 * np.max(np.abs(expected))
    if gamma == 0.0:
        assert np.array_equal(c, project_l2(f, space, breakpoints=[x_cut]))


def test_project_penalized_vector_valued():
    # a vector-valued profile is projected component by component
    space = ElementSpace(3, 5, 0.0, 1.0)
    parts = [lambda x: np.sin(3.0 * x), lambda x: np.where(x < 0.4, 1.0, 0.0)]
    c = project_penalized(lambda x: np.stack([g(x) for g in parts]), space, 10.0, [0.4])
    for row, g in zip(c, parts):
        np.testing.assert_allclose(row, project_penalized(g, space, 10.0, [0.4]), atol=1e-14)


def test_penalized_polynomial_norm_monotone_in_gamma():
    space = ElementSpace(4, 8, 0.0, 1.0)
    f = lambda x: np.where(x < 0.47, 1.0, 0.0)
    norms = []
    leg_norms = 2.0 / (2.0 * np.arange(1, space.p + 1) + 1.0)
    for gamma in [0.0, 0.05, 0.5, 5.0, 50.0, 5e3, 5e6, 1e12]:
        c = project_penalized(f, space, gamma, breakpoints=[0.47])
        ho = project_ho(c, space)
        norms.append(np.sqrt(np.sum(ho**2 * leg_norms)))
    for a, b in zip(norms[:-1], norms[1:]):
        assert b <= a + 1e-12


def test_large_gamma_limit_is_subcell_average_projection():
    space = ElementSpace(4, 8, 0.0, 1.0)
    f = lambda x: np.where(x < 0.47, 1.0, 0.0)
    c = project_penalized(f, space, 1e12, breakpoints=[0.47])
    # polynomial modes annihilated, indicator part = sub-cell averages of f
    assert np.max(np.abs(c[: space.p])) < 1e-10
    np.testing.assert_allclose(
        c[space.p:], exact_subcell_averages_split(f, space, 0.47), atol=1e-8
    )


def test_negative_gamma_rejected():
    space = ElementSpace(1, 2)
    with pytest.raises(ValueError):
        project_penalized(lambda x: x, space, -1.0)


def test_project_ho_extracts_polynomial_part():
    # for a state whose indicator part is constant, the function is the
    # polynomial plus that constant; pi_ho returns exactly the poly coefficients
    space = ElementSpace(3, 4, 0.0, 1.0)
    c = np.zeros(space.dof)
    c[: space.p] = [0.7, -0.3, 0.2]
    c[space.p:] = 2.5
    np.testing.assert_allclose(project_ho(c, space), c[: space.p], atol=1e-13)


def test_project_ho_kills_mean_zero_oscillation():
    # an indicator pattern orthogonal to all polynomials of degree <= p
    space = ElementSpace(1, 2, 0.0, 1.0)
    c = np.zeros(space.dof)
    c[space.p:] = [1.0, -1.0]
    # (sign pattern, x) != 0 so the projection onto span{L_1} is not zero
    ho = project_ho(c, space)
    assert ho[0] == pytest.approx(-1.5)  # (u, L1)/(L1, L1) = (-1)/(2/3)


def test_project_lo_of_polynomial_gives_averages():
    space = ElementSpace(4, 9, 0.0, 1.0)
    rng = np.random.default_rng(7)
    c = np.zeros(space.dof)
    c[: space.p] = rng.standard_normal(space.p)
    avgs = project_lo(c, space)
    np.testing.assert_allclose(
        avgs, exact_subcell_averages(lambda x: evaluate(c, space, x), space), atol=1e-12
    )


def test_coefficient_length_validation():
    space = ElementSpace(2, 3)
    with pytest.raises(ValueError):
        project_lo(np.zeros(4), space)
    with pytest.raises(ValueError):
        project_ho(np.zeros(6), space)


def test_avg_preserving_fit_recovers_polynomial():
    # when the field is a polynomial of degree <= p, the weighted fit is exact
    space = ElementSpace(3, 6, 0.0, 1.0)
    rng = np.random.default_rng(3)
    c = np.zeros(space.dof)
    c[: space.p] = rng.standard_normal(space.p)
    c[space.p:] = 1.3  # constant = L_0 coefficient
    fit = project_avg_preserving(c, space)  # coefficients of L_0..L_p
    np.testing.assert_allclose(fit, np.concatenate([[1.3], c[: space.p]]), atol=1e-11)


def test_avg_preserving_raises_when_rank_deficient():
    space = ElementSpace(3, 2)  # n < p + 1: averaging cannot be injective
    with pytest.raises(NonInjectiveError):
        project_avg_preserving(np.zeros(space.dof), space)


def test_subcell_average_matrix_shape_and_constants():
    # G = leg_sub_avg.T, whose pseudo-inverse is `average_fit`
    space = ElementSpace(2, 5)
    G = space.ref.leg_sub_avg.T
    assert G.shape == (5, 3)
    np.testing.assert_allclose(G[:, 0], 1.0)


# -- numerical injectivity checker -------------------------------------------


def test_injectivity_1d_threshold():
    report = check_injectivity(p=3, r=3, d=1)
    assert report.injective
    assert report.n == 4
    assert report.dofs == 4
    assert not check_injectivity(p=3, r=2, d=1).injective  # 3 cells < 4 dofs


def test_injectivity_2d_reference_configuration():
    report = check_injectivity(p=4, r=3, d=2)
    assert report.injective
    assert report.n == 16
    assert report.dofs == 15


def test_injectivity_2d_underdetermined():
    assert not check_injectivity(p=1, r=0, d=2).injective  # 1 cell, 3 dofs


def test_injectivity_validation():
    with pytest.raises(ValueError):
        check_injectivity(1, 1, 3)
    with pytest.raises(ValueError):
        check_injectivity(-1, 1, 1)


def test_projection_convergence_order():
    # L2 projection error of sin(2 pi x) decays at order p + 1
    from subgrid_dg.harness import projection_convergence

    for p, n in [(1, 3), (2, 4), (3, 5)]:
        records = projection_convergence(p, n, [8, 16, 32])
        assert abs(records[-1].observed_order - (p + 1)) < 0.2
