import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgrid_dg.basis import (
    assemble_mass,
    assemble_penalty_mass,
    basis_eval,
    gauss_rule,
    legendre_eval,
    reference_element,
)
from subgrid_dg.mesh import Mesh, build_uniform_mesh, reference_subcell_edges
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


def evaluate(c, mesh, p, x):
    return sum(c[i] * basis_eval(mesh, p, i, x) for i in range(p + mesh.n_sub))


def exact_subcell_averages(f, mesh, n_quad=30):
    g, w = gauss_rule(n_quad)
    edges = mesh.nodes(reference_subcell_edges(mesh.n_sub))[0]
    out = np.empty(mesh.n_sub)
    for s in range(mesh.n_sub):
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
    mesh = Mesh(np.array([0.1, 0.8]), 4)
    c = np.asarray(coeffs)
    c2 = project_l2(lambda x: evaluate(c, mesh, 3, x), mesh, 3)
    scale = max(1.0, np.max(np.abs(c)))
    assert np.max(np.abs(c2 - c)) < 1e-12 * scale


@pytest.mark.parametrize("p,n", [(1, 2), (2, 3), (4, 8), (0, 5)])
def test_average_preservation_algebraic(p, n):
    # sub-cell averages of the projection equal the averages of f computed
    # with the projection's own quadrature rule, exactly
    mesh = Mesh(np.array([-0.3, 1.7]), n)
    f = lambda x: np.sin(3.0 * x) + 0.4 * x**2
    c = project_l2(f, mesh, p)
    quad_avgs = exact_subcell_averages(f, mesh, n_quad=reference_element(p, n).quad_ref.shape[1])
    np.testing.assert_allclose(project_lo(c, p, n), quad_avgs, atol=1e-12)


def test_average_preservation_exact_for_resolved_profile(tol=1e-11):
    mesh = Mesh(np.array([-0.3, 1.7]), 8)
    f = lambda x: np.sin(3.0 * x) + 0.4 * x**2
    c = project_l2(f, mesh, 4)
    np.testing.assert_allclose(
        project_lo(c, 4, 8), exact_subcell_averages(f, mesh), atol=tol
    )


@pytest.mark.parametrize("gamma", [0.0, 1.0, 1e4, 1e12])
def test_penalized_projection_preserves_averages(gamma):
    # the penalty acts only on the zero-average polynomial modes, so sub-cell
    # averages of the projection stay locked to the averages of f
    mesh = Mesh(np.array([0.0, 1.0]), 8)
    f = lambda x: np.where(x < 0.47, 1.0, 0.0)
    c = project_penalized(f, mesh, 4, gamma, breakpoints=[0.47])
    np.testing.assert_allclose(
        project_lo(c, 4, 8), exact_subcell_averages_split(f, mesh, 0.47), atol=1e-11
    )


def exact_subcell_averages_split(f, mesh, cut, n_quad=30):
    g, w = gauss_rule(n_quad)
    edges = mesh.nodes(reference_subcell_edges(mesh.n_sub))[0]
    out = np.empty(mesh.n_sub)
    for s in range(mesh.n_sub):
        pieces = sorted({edges[s], edges[s + 1]} | ({cut} if edges[s] < cut < edges[s + 1] else set()))
        acc = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            xq = 0.5 * (a + b) + 0.5 * (b - a) * g
            acc += 0.5 * (b - a) * np.sum(w * f(xq))
        out[s] = acc / (edges[s + 1] - edges[s])
    return out


def quad_rhs_piece_by_piece(f, mesh, p, breakpoints=None):
    """_quad_rhs written as a loop over the (sub-cell, cut) pieces: one call
    of f and one Legendre evaluation per mode for each piece."""
    ref = reference_element(p, mesh.n_sub)
    g, w = gauss_rule(ref.quad_ref.shape[1])
    b = None
    edges = mesh.nodes(ref.sub_edges)[0]
    for s in range(ref.n):
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
                b = np.zeros(fv.shape[:-1] + (ref.dof,))
            xi = mesh.reference_coords(xq[None])[0]
            for i in range(p):
                b[..., i] += np.sum(wq * fv * legendre_eval(i + 1, xi), axis=-1)
            b[..., p + s] += np.sum(wq * fv, axis=-1)
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
    mesh = Mesh(np.array([x_left, x_left + width]), n)
    edges = mesh.nodes(reference_subcell_edges(n))[0]
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
        new = _quad_rhs(f, mesh, p, breakpoints)
        old = quad_rhs_piece_by_piece(f, mesh, p, breakpoints)
        assert new.shape == old.shape
        assert np.array_equal(new, old)


def test_quad_rhs_calls_f_once():
    calls = []
    mesh = Mesh(np.array([0.0, 1.0]), 4)
    _quad_rhs(lambda x: calls.append(x.shape) or np.sin(x), mesh, 3, [0.3, 0.3, 0.6])
    # 4 sub-cells, one split at 0.6 and one at 0.3 twice: 7 pieces of 5 nodes
    assert calls == [(35,)]


@pytest.mark.parametrize("call", [
    lambda mesh: _quad_rhs(np.sin, mesh, 2),
    lambda mesh: project_l2(np.sin, mesh, 2),
    lambda mesh: project_penalized(np.sin, mesh, 2, 1.0),
    lambda mesh: basis_eval(mesh, 2, 0, 0.5),
    lambda mesh: assemble_mass(mesh, 2),
    lambda mesh: assemble_penalty_mass(mesh, 2),
], ids=["_quad_rhs", "project_l2", "project_penalized", "basis_eval", "assemble_mass",
        "assemble_penalty_mass"])
def test_single_element_functions_refuse_a_two_element_mesh(call):
    # each reads one element's geometry, so any other mesh is refused by name
    with pytest.raises(ValueError, match="takes a one-element mesh, not 2 elements"):
        call(build_uniform_mesh(0.0, 1.0, 2, 3))


def test_projection_gamma_zero_matches_plain_l2():
    mesh = Mesh(np.array([0.0, 1.0]), 5)
    f = lambda x: np.cos(4.0 * x)
    np.testing.assert_allclose(
        project_penalized(f, mesh, 3, 0.0), project_l2(f, mesh, 3), atol=1e-13
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
    p, n = pn
    mesh = Mesh(np.array([0.2, 0.2 + width]), n)
    x_cut = 0.2 + cut * width
    f = lambda x: np.sin(k * x) + np.where(x < x_cut, 1.0, -0.5)
    c = project_penalized(f, mesh, p, gamma, breakpoints=[x_cut])
    b = _quad_rhs(f, mesh, p, [x_cut])
    expected = np.linalg.solve(
        assemble_mass(mesh, p) + gamma * assemble_penalty_mass(mesh, p), b
    )
    assert np.max(np.abs(c - expected)) <= 1e-11 * np.max(np.abs(expected))
    if gamma == 0.0:
        assert np.array_equal(c, project_l2(f, mesh, p, breakpoints=[x_cut]))


def test_project_penalized_vector_valued():
    # a vector-valued profile is projected component by component
    mesh = Mesh(np.array([0.0, 1.0]), 5)
    parts = [lambda x: np.sin(3.0 * x), lambda x: np.where(x < 0.4, 1.0, 0.0)]
    c = project_penalized(lambda x: np.stack([g(x) for g in parts]), mesh, 3, 10.0, [0.4])
    for row, g in zip(c, parts):
        np.testing.assert_allclose(row, project_penalized(g, mesh, 3, 10.0, [0.4]), atol=1e-14)


def test_penalized_polynomial_norm_monotone_in_gamma():
    mesh, p = Mesh(np.array([0.0, 1.0]), 8), 4
    f = lambda x: np.where(x < 0.47, 1.0, 0.0)
    norms = []
    leg_norms = 2.0 / (2.0 * np.arange(1, p + 1) + 1.0)
    for gamma in [0.0, 0.05, 0.5, 5.0, 50.0, 5e3, 5e6, 1e12]:
        c = project_penalized(f, mesh, p, gamma, breakpoints=[0.47])
        ho = project_ho(c, p, 8)
        norms.append(np.sqrt(np.sum(ho**2 * leg_norms)))
    for a, b in zip(norms[:-1], norms[1:]):
        assert b <= a + 1e-12


def test_large_gamma_limit_is_subcell_average_projection():
    mesh, p = Mesh(np.array([0.0, 1.0]), 8), 4
    f = lambda x: np.where(x < 0.47, 1.0, 0.0)
    c = project_penalized(f, mesh, p, 1e12, breakpoints=[0.47])
    # polynomial modes annihilated, indicator part = sub-cell averages of f
    assert np.max(np.abs(c[:p])) < 1e-10
    np.testing.assert_allclose(
        c[p:], exact_subcell_averages_split(f, mesh, 0.47), atol=1e-8
    )


def test_negative_gamma_rejected():
    mesh = Mesh(np.array([-1.0, 1.0]), 2)
    with pytest.raises(ValueError):
        project_penalized(lambda x: x, mesh, 1, -1.0)


def test_project_ho_extracts_polynomial_part():
    # for a state whose indicator part is constant, the function is the
    # polynomial plus that constant; pi_ho returns exactly the poly coefficients
    p, n = 3, 4
    c = np.zeros(p + n)
    c[:p] = [0.7, -0.3, 0.2]
    c[p:] = 2.5
    np.testing.assert_allclose(project_ho(c, p, n), c[:p], atol=1e-13)


def test_project_ho_kills_mean_zero_oscillation():
    # an indicator pattern orthogonal to all polynomials of degree <= p
    p, n = 1, 2
    c = np.zeros(p + n)
    c[p:] = [1.0, -1.0]
    # (sign pattern, x) != 0 so the projection onto span{L_1} is not zero
    ho = project_ho(c, p, n)
    assert ho[0] == pytest.approx(-1.5)  # (u, L1)/(L1, L1) = (-1)/(2/3)


def test_project_lo_of_polynomial_gives_averages():
    mesh, p, n = Mesh(np.array([0.0, 1.0]), 9), 4, 9
    rng = np.random.default_rng(7)
    c = np.zeros(p + n)
    c[:p] = rng.standard_normal(p)
    avgs = project_lo(c, p, n)
    np.testing.assert_allclose(
        avgs, exact_subcell_averages(lambda x: evaluate(c, mesh, p, x), mesh), atol=1e-12
    )


def test_coefficient_length_validation():
    with pytest.raises(ValueError):
        project_lo(np.zeros(4), 2, 3)
    with pytest.raises(ValueError):
        project_ho(np.zeros(6), 2, 3)


def test_avg_preserving_fit_recovers_polynomial():
    # when the field is a polynomial of degree <= p, the weighted fit is exact
    p, n = 3, 6
    rng = np.random.default_rng(3)
    c = np.zeros(p + n)
    c[:p] = rng.standard_normal(p)
    c[p:] = 1.3  # constant = L_0 coefficient
    fit = project_avg_preserving(c, p, n)  # coefficients of L_0..L_p
    np.testing.assert_allclose(fit, np.concatenate([[1.3], c[:p]]), atol=1e-11)


def test_avg_preserving_raises_when_rank_deficient():
    p, n = 3, 2  # n < p + 1: averaging cannot be injective
    with pytest.raises(NonInjectiveError):
        project_avg_preserving(np.zeros(p + n), p, n)


def test_subcell_average_matrix_shape_and_constants():
    # G = leg_sub_avg.T, whose pseudo-inverse is `average_fit`
    G = reference_element(2, 5).leg_sub_avg.T
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
