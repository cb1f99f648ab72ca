import re

import numpy as np
from numpy.polynomial import legendre as npleg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgrid_dg import solver
from subgrid_dg.basis import reference_element
from subgrid_dg.harness import (
    NOZZLE_INLET,
    NOZZLE_OUTLET,
    RunConfig,
    build_problem,
    gaussian_profile,
    project_initial,
)
from subgrid_dg.mesh import Mesh, build_uniform_mesh
from subgrid_dg.physics import (
    BoundaryCondition,
    Burgers,
    Convection,
    Euler1D,
    NozzleEuler,
    boundary_ghost,
    euler_state_from_primitives,
    farfield_state,
    nozzle_area,
)
from subgrid_dg.projections import NonInjectiveError
from subgrid_dg.sensor import SensorConfig
from subgrid_dg.solver import (
    Discretization,
    FieldState,
    SolverAbort,
    Trajectory,
    advance,
    ars222,
    imex_step,
    penalty_stage_rate,
)

from imex_oracles import closed_ars232, scalar_additive_rk


def make_convection_disc(n_elements=8, p=3, n=5):
    mesh = build_uniform_mesh(0.0, 1.0, n_elements, n)
    bc = BoundaryCondition("periodic")
    return Discretization(mesh, p, Convection(beta=1.0), bc, bc)


# -- tableau ------------------------------------------------------------------


def test_ars222_order_conditions():
    tab = ars222()
    alpha = 1.0 - 1.0 / np.sqrt(2.0)
    assert tab.A[1, 1] == pytest.approx(alpha)
    assert tab.stages == 3
    c = tab.A.sum(axis=1)
    c_hat = tab.A_hat.sum(axis=1)
    np.testing.assert_allclose(c, c_hat, atol=1e-14)   # stage times agree
    # first and second order conditions for both parts and the coupling
    assert tab.b.sum() == pytest.approx(1.0)
    assert tab.b_hat.sum() == pytest.approx(1.0)
    assert tab.b @ c == pytest.approx(0.5)
    assert tab.b_hat @ c_hat == pytest.approx(0.5)
    # explicit part is explicit, implicit part is diagonally implicit
    assert np.all(np.triu(tab.A_hat) == 0.0)
    assert np.all(np.triu(tab.A, 1) == 0.0)


def test_scalar_split_ode_second_order():
    tab = closed_ars232()
    lam_imp, lam_exp = -40.0, 2.0
    t_end = 0.5
    errors = []
    for n_steps in (50, 100, 200):
        y = scalar_additive_rk(tab, 1.0, lam_imp, lam_exp, t_end / n_steps, n_steps)
        errors.append(abs(y - np.exp((lam_imp + lam_exp) * t_end)))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert abs(order - 2.0) < 0.1


def test_scalar_split_ode_stiff_stability():
    # implicit treatment keeps a very stiff decay stable at a step far beyond
    # the explicit limit
    tab = closed_ars232()
    y = scalar_additive_rk(tab, 1.0, -1e6, 0.0, dt=0.1, n_steps=20)
    assert abs(y) < 1e-6


# -- spatial operator ---------------------------------------------------------


def test_free_stream_preservation():
    disc = make_convection_disc()
    U = np.zeros((1, disc.n_elements, disc.dof))
    U[:, :, disc.p:] = 3.7
    R = disc.residual(U, 0.0)
    assert np.max(np.abs(R)) < 1e-13


def test_free_stream_preservation_euler_periodic():
    mesh = build_uniform_mesh(0.0, 1.0, 6, 4)
    bc = BoundaryCondition("periodic")
    disc = Discretization(mesh, 2, Euler1D(), bc, bc)
    state = euler_state_from_primitives(1.2, 0.4, 2.0, 1.4)
    U = np.zeros((3, disc.n_elements, disc.dof))
    U[:, :, disc.p:] = state[:, None, None]
    R = disc.residual(U, 0.0)
    assert np.max(np.abs(R)) < 1e-12


SHU_OSHER_INFLOW = tuple(euler_state_from_primitives(3.857143, 2.629369, 10.3333, 1.4))
# law, boundaries, and the state that the random cell values perturb
P0_CASES = {
    "convection-periodic": (Convection(beta=1.0), BoundaryCondition("periodic"),
                            BoundaryCondition("periodic"), np.array([1.0])),
    "burgers-periodic": (Burgers(), BoundaryCondition("periodic"),
                         BoundaryCondition("periodic"), np.array([0.5])),
    "euler-prescribed-wall": (Euler1D(), BoundaryCondition("prescribed", state=SHU_OSHER_INFLOW),
                              BoundaryCondition("wall"),
                              euler_state_from_primitives(1.0, 0.3, 1.0, 1.4)),
    "euler-farfield": (Euler1D(), BoundaryCondition("farfield", farfield=NOZZLE_INLET),
                       BoundaryCondition("farfield", farfield=NOZZLE_OUTLET),
                       euler_state_from_primitives(1.0, 1.0, 4.0, 1.4)),
}


def test_residual_matches_p0_finite_volume_update():
    # with p = 0 the scheme is a first-order FV method: M^{-1} R equals the
    # Roe flux difference over the sub-cells, with boundary ghosts,
    # assembled independently here
    E, n = 4, 3
    h_sub = 1.0 / (E * n)
    rng = np.random.default_rng(2)
    for name, (law, bc_left, bc_right, base) in P0_CASES.items():
        disc = Discretization(build_uniform_mesh(0.0, 1.0, E, n), 0, law, bc_left, bc_right)
        U = base[:, None, None] * (1.0 + 0.2 * rng.standard_normal((law.m, E, n)))
        rate = disc.solve_mass(disc.residual(U, 0.0))

        cells = U.reshape(law.m, E * n)
        if disc.periodic:
            ghost_l, ghost_r = cells[:, -1:], cells[:, :1]
        else:
            ghost_l = boundary_ghost(bc_left, cells[:, :1], law, x=0.0, side=-1)
            ghost_r = boundary_ghost(bc_right, cells[:, -1:], law, x=1.0, side=1)
        ext = np.concatenate([ghost_l, cells, ghost_r], axis=1)
        F = law.roe_flux(ext[:, :-1], ext[:, 1:])
        expected = -(F[:, 1:] - F[:, :-1]) / h_sub
        np.testing.assert_allclose(rate.reshape(law.m, E * n), expected, rtol=1e-12,
                                   atol=1e-12, err_msg=name)


# law, domain, boundaries, and the state whose Legendre modes are perturbed;
# the nozzle's domain ends inside the duct, where the area is not 1
N1_CASES = {
    "convection-periodic": (Convection(beta=1.0), (0.0, 1.0), BoundaryCondition("periodic"),
                            BoundaryCondition("periodic"), np.array([1.0])),
    "convection-prescribed": (Convection(beta=-0.7), (0.0, 1.0),
                              BoundaryCondition("prescribed", state=(0.3,)),
                              BoundaryCondition("prescribed", state=(1.2,)), np.array([1.0])),
    "burgers-periodic": (Burgers(), (0.0, 1.0), BoundaryCondition("periodic"),
                         BoundaryCondition("periodic"), np.array([0.5])),
    "burgers-prescribed": (Burgers(), (-1.0, 1.0), BoundaryCondition("prescribed", state=(0.8,)),
                           BoundaryCondition("prescribed", state=(-0.3,)), np.array([0.4])),
    "euler-periodic": (Euler1D(), (0.0, 1.0), BoundaryCondition("periodic"),
                       BoundaryCondition("periodic"),
                       euler_state_from_primitives(1.0, 0.3, 1.0, 1.4)),
    "euler-prescribed-wall": (Euler1D(), (-5.0, 5.0),
                              BoundaryCondition("prescribed", state=SHU_OSHER_INFLOW),
                              BoundaryCondition("wall"),
                              euler_state_from_primitives(1.0, 0.3, 1.0, 1.4)),
    "euler-farfield": (Euler1D(), (0.0, 1.0), BoundaryCondition("farfield", farfield=NOZZLE_INLET),
                       BoundaryCondition("farfield", farfield=NOZZLE_OUTLET),
                       euler_state_from_primitives(1.0, 1.0, 4.0, 1.4)),
    "nozzle-farfield": (NozzleEuler(), (0.2, 0.8),
                        BoundaryCondition("farfield", farfield=NOZZLE_INLET),
                        BoundaryCondition("farfield", farfield=NOZZLE_OUTLET),
                        euler_state_from_primitives(1.0, 1.0, 4.0, 1.4)),
    "nozzle-wall-prescribed": (NozzleEuler(), (0.0, 1.0), BoundaryCondition("wall"),
                               BoundaryCondition("prescribed", state=SHU_OSHER_INFLOW),
                               euler_state_from_primitives(1.0, 0.3, 1.0, 1.4)),
}


def modal_dg_residual(law, edges, bc_left, bc_right, c):
    """Textbook modal DG residual (Cockburn & Shu, J. Sci. Comput. 16, 2001)
    of u = sum_k c_k L_k on each element, c of shape (m, E, p + 1): for each
    test function L_j, the volume integral of F(u) dL_j/dx and of S(u) L_j
    by (p + 2)-point Gauss quadrature, minus the Roe flux at the element
    faces times L_j there."""
    p1 = c.shape[-1]
    h = np.diff(edges)
    xi, w = np.polynomial.legendre.leggauss(p1 + 1)
    modes = [np.polynomial.Legendre.basis(k) for k in range(p1)]
    L = np.array([mode(xi) for mode in modes])                  # (p+1, q)
    dL = np.array([mode.deriv()(xi) for mode in modes])
    sign = (-1.0) ** np.arange(p1)                              # L_k(-1); L_k(1) = 1
    u_q = c @ L                                                 # (m, E, q)
    left, right = c @ sign, c.sum(-1)                           # element traces, (m, E)
    if bc_left.kind == "periodic":
        ghost_l, ghost_r = right[:, -1:], left[:, :1]
    else:
        ghost_l = boundary_ghost(bc_left, left[:, :1], law, x=edges[0], side=-1)
        ghost_r = boundary_ghost(bc_right, right[:, -1:], law, x=edges[-1], side=1)
    F_hat = law.roe_flux(np.concatenate([ghost_l, right], axis=1),
                         np.concatenate([left, ghost_r], axis=1))   # (m, E + 1)
    R = (law.flux(u_q) * w) @ dL.T
    R -= F_hat[:, 1:, None] - F_hat[:, :-1, None] * sign
    if law.has_source():
        x_q = edges[:-1, None] + 0.5 * (xi + 1.0) * h[:, None]
        A, dA = nozzle_area(x_q)
        S = np.zeros_like(u_q)
        S[1] = law.primitives(u_q)[2] / A * dA                     # p dA/dx
        R += 0.5 * h[:, None] * ((S * w) @ L.T)
    return R


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(N1_CASES))
def test_residual_matches_modal_dg_at_n1(name, p):
    # with n = 1 the single indicator is L_0, so the scheme is modal DG in
    # the basis (L_1, ..., L_p, L_0): its residual equals the textbook one
    law, (a, b), bc_left, bc_right, base = N1_CASES[name]
    E = 5
    rng = np.random.default_rng(p)
    widths = rng.uniform(0.5, 1.5, E)                           # a non-uniform mesh
    edges = a + (b - a) * np.cumsum(np.r_[0.0, widths]) / widths.sum()
    c = base[:, None, None] * np.concatenate(
        [1.0 + 0.1 * rng.standard_normal((law.m, E, 1)),
         0.05 * rng.standard_normal((law.m, E, p)) / np.arange(1, p + 1)], axis=-1)
    disc = Discretization(Mesh(element_boundaries=edges, n_sub=1), p, law, bc_left, bc_right)
    U = np.concatenate([c[..., 1:], c[..., :1]], axis=-1)
    R = disc.residual(U, 0.0)

    expected = modal_dg_residual(law, edges, bc_left, bc_right, c)
    scale = max(np.abs(law.flux(c[..., 0])).max(), np.abs(expected).max())
    np.testing.assert_allclose(np.concatenate([R[..., -1:], R[..., :-1]], axis=-1), expected,
                               rtol=0, atol=1e-13 * scale, err_msg=name)


@pytest.mark.parametrize("kind", ["prescribed", "wall", "farfield"])
def test_free_stream_preservation_at_each_boundary_kind(kind):
    # a uniform state that the boundary reproduces: the prescribed state
    # itself, gas at rest at a wall, the farfield state of the farfield data
    if kind == "farfield":
        bc = BoundaryCondition("farfield", farfield=NOZZLE_INLET)
        state = farfield_state(*NOZZLE_INLET, 1.4)
    else:
        state = euler_state_from_primitives(1.2, 0.0 if kind == "wall" else 0.4, 2.0, 1.4)
        bc = BoundaryCondition(kind, state=tuple(state) if kind == "prescribed" else None)
    disc = Discretization(build_uniform_mesh(0.0, 1.0, 6, 4), 2, Euler1D(), bc, bc)
    U = np.zeros((3, disc.n_elements, disc.dof))
    U[:, :, disc.p:] = state[:, None, None]
    assert np.max(np.abs(disc.residual(U, 0.0))) < 1e-12


def test_polynomial_modes_see_only_element_boundary_fluxes():
    # a pure sub-cell perturbation away from element boundaries must not
    # influence polynomial modes of *other* elements within one residual call
    disc = make_convection_disc(n_elements=4, p=2, n=5)
    U = np.zeros((1, 4, disc.dof))
    U[0, 1, disc.p + 2] = 1.0  # interior sub-cell of element 1
    R = disc.residual(U, 0.0)
    # elements 0 and 3 are untouched (only element 2 receives the upwind flux)
    assert np.max(np.abs(R[0, 0])) == 0.0
    assert np.max(np.abs(R[0, 3])) == 0.0


# -- precomputed operators against the term-by-term residual -------------------


def einsum_residual(disc, U, t):
    """The residual assembled term by term with einsum from the reference
    element, as a reference for the precomputed operators: volume term,
    indicator flux differences, telescoped element-boundary terms, source."""
    ref, law = disc.ref, disc.law
    m, E, _ = U.shape
    n, p = disc.n, disc.p
    modes = np.eye(p + 1)[:, 1:]        # coefficient columns of L_1..L_p
    leg_face = npleg.legval(ref.sub_edges, modes)                    # (p, n + 1)
    # reference derivatives of the basis; the indicators' are zero
    dphi = np.concatenate([npleg.legval(ref.quad_ref, npleg.legder(modes)),
                           np.zeros((n,) + ref.quad_ref.shape)])
    u_q = np.einsum("med,dsq->mesq", U, ref.phi)
    poly_face = np.einsum("mei,ik->mek", U[:, :, :p], leg_face)
    ind = U[:, :, p:]
    trace_l = (poly_face[:, :, :-1] + ind).reshape(m, E * n)
    trace_r = (poly_face[:, :, 1:] + ind).reshape(m, E * n)
    if disc.periodic:
        ghost_l, ghost_r = trace_r[:, -1:], trace_l[:, :1]
    else:
        ghost_l = boundary_ghost(disc.bc_left, trace_l[:, :1], law, t,
                                 x=disc.xfaces[0], side=-1)
        ghost_r = boundary_ghost(disc.bc_right, trace_r[:, -1:], law, t,
                                 x=disc.xfaces[-1], side=1)
    uL = np.concatenate([ghost_l, trace_r], axis=1)
    uR = np.concatenate([trace_l, ghost_r], axis=1)
    F_q = law.flux(u_q, x=disc.xq)
    F_hat = law.roe_flux(uL, uR, x=disc.xfaces, entropy_fix=disc.entropy_fix)

    R = np.einsum("mesq,dsq->med", F_q, dphi * ref.quad_w[None])
    R[:, :, p:] += F_hat[:, :-1].reshape(m, E, n) - F_hat[:, 1:].reshape(m, E, n)
    if p > 0:
        R[:, :, :p] += (F_hat[:, 0:E * n:n, None] * leg_face[:, 0]
                        - F_hat[:, n::n, None] * leg_face[:, n])
    if law.has_source():
        S_q = law.source(u_q, disc.xq)
        R += np.einsum("mesq,esq,dsq->med", S_q, disc.wq, ref.phi)
    return R


def einsum_solve_mass(disc, R):
    out = np.einsum("med,cd->mec", R, np.linalg.inv(disc.ref.mass))
    return out * (2.0 / disc.h)[None, :, None]


def operator_case(law_name, periodic, p, n, rng, beta=-0.7, n_elements=6):
    """A Discretization on an uneven mesh and a random admissible state."""
    edges = np.cumsum(np.r_[0.0, rng.uniform(0.5, 1.5, n_elements)])
    mesh = Mesh(element_boundaries=edges / edges[-1], n_sub=n)
    pbc = BoundaryCondition("periodic")
    if law_name in ("convection", "burgers"):
        law = Convection(beta=beta) if law_name == "convection" else Burgers()
        bcs = (pbc, pbc) if periodic else (
            BoundaryCondition("prescribed", state=(0.3,)),
            BoundaryCondition("prescribed", state=(-0.2,)))
        base = np.array([0.4])
    elif law_name == "euler":
        law = Euler1D()
        inlet = tuple(euler_state_from_primitives(1.2, 0.5, 1.5, 1.4))
        bcs = (pbc, pbc) if periodic else (
            BoundaryCondition("prescribed", state=inlet), BoundaryCondition("wall"))
        base = euler_state_from_primitives(1.0, 0.3, 1.0, 1.4)
    else:
        law = NozzleEuler()
        bcs = (pbc, pbc) if periodic else (
            BoundaryCondition("farfield", farfield=NOZZLE_INLET),
            BoundaryCondition("farfield", farfield=NOZZLE_OUTLET))
        base = euler_state_from_primitives(1.0, 1.0, 4.0, 1.4)
    disc = Discretization(mesh, p, law, *bcs)
    U = np.empty((law.m, disc.n_elements, disc.dof))
    U[:, :, :p] = 0.02 * base[:, None, None] * rng.standard_normal(U[:, :, :p].shape)
    U[:, :, p:] = base[:, None, None] * (1.0 + 0.05 * rng.standard_normal(U[:, :, p:].shape))
    return disc, U


def test_discretizations_of_one_pair_share_the_reference_operators():
    # a Discretization builds no operator: two of (p, n) = (2, 3) on
    # different meshes and laws read the same arrays, and differ only in
    # what their meshes fix
    operators = ["phi_q", "trace_left", "trace_right", "volume", "lift_left",
                 "lift_right", "source", "mass_inv_t"]
    a = Discretization(build_uniform_mesh(0.0, 1.0, 4, 3), 2, Convection(1.0),
                       BoundaryCondition("periodic"), BoundaryCondition("periodic"))
    b = Discretization(build_uniform_mesh(-5.0, 5.0, 7, 3), 2, Burgers(),
                       BoundaryCondition("periodic"), BoundaryCondition("periodic"))
    assert a.ref is b.ref is reference_element(2, 3)
    for name in operators:
        assert getattr(a.ref, name) is getattr(b.ref, name)
    for disc in (a, b):     # each array it holds runs over its elements or faces
        E = disc.n_elements
        assert {v.shape[0] for v in vars(disc).values()
                if isinstance(v, np.ndarray)} == {E, E * disc.n + 1}


def test_non_injective_space_builds_and_its_first_sensor_call_raises():
    # n < p + 1: the space steps, but the sensor cannot fit the averages
    disc = Discretization(build_uniform_mesh(0.0, 1.0, 4, 2), 3, Convection(1.0),
                          BoundaryCondition("periodic"), BoundaryCondition("periodic"))
    U = np.zeros((1, 4, 5))
    assert np.array_equal(disc.rate(U, 0.0), U)
    with pytest.raises(NonInjectiveError, match="p=3, n=2"):
        disc.evaluate_sensor(U)


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("p,n", [(0, 5), (1, 1), (3, 5), (4, 8)])
@pytest.mark.parametrize("law_name", ["convection", "burgers", "euler", "nozzle"])
def test_operators_match_einsum_residual(law_name, periodic, p, n):
    rng = np.random.default_rng(7 * p + n)
    disc, U = operator_case(law_name, periodic, p, n, rng)
    R_ref = einsum_residual(disc, U, 0.1)
    R = disc.residual(U, 0.1)
    np.testing.assert_allclose(R, R_ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(R_ref)))
    rate_ref = einsum_solve_mass(disc, R_ref)
    np.testing.assert_allclose(disc.solve_mass(R_ref), rate_ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(rate_ref)))
    u_q = disc.eval_at_quad(U)
    np.testing.assert_allclose(u_q, np.einsum("med,dsq->mesq", U, disc.ref.phi),
                               rtol=1e-12, atol=1e-12 * np.max(np.abs(U)))


@pytest.mark.parametrize("n_elements", [6, 2, 1])
@pytest.mark.parametrize("p,n", [(0, 5), (1, 1), (4, 8)])
@pytest.mark.parametrize("beta", [0.7, 0.0, -0.7])
def test_periodic_convection_pair_matches_einsum_residual(beta, p, n, n_elements):
    # the precomputed (B_self, B_nbr) pair in both upwind directions and at
    # beta = 0; with one element, that element is its own upwind neighbour
    rng = np.random.default_rng(7 * p + n + n_elements)
    disc, U = operator_case("convection", True, p, n, rng, beta=beta, n_elements=n_elements)
    R_ref = einsum_residual(disc, U, 0.1)
    R = disc.residual(U, 0.1)
    assert disc._linear_pair is not None
    atol = 1e-12 * np.max(np.abs(R_ref))
    np.testing.assert_allclose(R, R_ref, rtol=1e-12, atol=atol)
    if beta == 0.0:
        assert not R.any()
    disc._linear_pair = None    # the general chain that every other law takes
    np.testing.assert_allclose(disc.residual(U, 0.1), R, rtol=1e-12, atol=atol)


def test_only_periodic_convection_takes_the_linear_pair():
    # the first periodic convection residual builds the pair with one
    # evaluation of the general chain, so the Discretization does not; later
    # residuals evaluate no quadrature values, face traces or fluxes
    disc, U = operator_case("convection", True, 2, 3, np.random.default_rng(6))
    assert "_linear_pair" not in vars(disc)
    calls = []
    for owner, name in ((disc, "eval_at_quad"), (disc, "face_traces"), (disc.law, "fluxes")):
        real = getattr(owner, name)
        setattr(owner, name, lambda *a, _real=real, _name=name, **kw:
                calls.append(_name) or _real(*a, **kw))
    R = disc.residual(U, 0.0)
    assert calls == ["eval_at_quad", "face_traces", "fluxes"] and "_linear_pair" in vars(disc)
    calls.clear()
    assert np.array_equal(disc.residual(U, 0.0), R) and calls == []
    for law_name, periodic in [("convection", False), ("burgers", True), ("euler", True),
                               ("nozzle", False)]:
        disc, U = operator_case(law_name, periodic, 2, 3, np.random.default_rng(6))
        disc.residual(U, 0.0)
        assert disc._linear_pair is None


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("law_name", ["convection", "burgers", "euler", "nozzle"])
def test_rate_is_mass_solve_of_residual(law_name, periodic):
    # bit for bit, on one state and on a stack of perturbed copies; a farfield
    # ghost takes one state, so the nozzle's farfield stack is one deep
    rng = np.random.default_rng(9)
    disc, U = operator_case(law_name, periodic, 2, 3, rng)
    depth = 1 if law_name == "nozzle" and not periodic else 3
    stack = U[:, None] * (1.0 + 0.01 * rng.standard_normal((U.shape[0], depth) + U.shape[1:]))
    for V in (U, stack):
        assert np.array_equal(disc.rate(V, 0.1), disc.solve_mass(disc.residual(V, 0.1)))


def batched_case(law_name, kind, rng):
    """`operator_case`'s law, uneven mesh and state with `kind` boundaries at
    both ends, and a stack (m, 4, E, dof) of perturbed copies of the state."""
    disc, U = operator_case(law_name, True, 3, 5, rng)
    inflow = (0.3,) if disc.law.m == 1 else tuple(euler_state_from_primitives(1.2, 0.5, 1.5, 1.4))
    bc = BoundaryCondition(kind, state=inflow if kind == "prescribed" else None)
    disc = Discretization(disc.mesh, disc.p, disc.law, bc, bc)
    stack = U[:, None] * (1.0 + 0.01 * rng.standard_normal((U.shape[0], 4) + U.shape[1:]))
    return disc, stack


@pytest.mark.parametrize("law_name, kind", [
    (law_name, kind) for law_name in ("convection", "burgers", "euler", "nozzle")
    for kind in ("periodic", "prescribed", "wall")
    if kind != "wall" or law_name in ("euler", "nozzle")     # a wall reflects a momentum
])
def test_batched_residual_matches_each_state(law_name, kind):
    disc, stack = batched_case(law_name, kind, np.random.default_rng(11))
    R = disc.residual(stack, 0.1)
    R_each = np.stack([disc.residual(stack[:, b], 0.1) for b in range(stack.shape[1])], axis=1)
    scale = np.max(np.abs(R_each))
    assert R.shape == stack.shape
    np.testing.assert_allclose(R, R_each, rtol=0, atol=1e-14 * scale)
    rate_each = np.stack([disc.solve_mass(R_each[:, b]) for b in range(stack.shape[1])], axis=1)
    np.testing.assert_allclose(disc.solve_mass(R_each), rate_each, rtol=0,
                               atol=1e-14 * np.max(np.abs(rate_each)))


def test_batched_farfield_ghost_raises():
    # the farfield ghost works on the Python floats of one face: a batch of
    # one is that face, a larger batch is refused, not read as one state
    disc, U = operator_case("nozzle", False, 3, 5, np.random.default_rng(12))
    stack = np.stack([U, 1.01 * U], axis=1)
    np.testing.assert_array_equal(disc.residual(stack[:, :1], 0.0)[:, 0], disc.residual(U, 0.0))
    with pytest.raises(ValueError, match=r"left farfield boundary takes one state, "
                                         r"not a batch of shape \(2, 1\)"):
        disc.residual(stack, 0.0)
    with pytest.raises(ValueError, match=r"right farfield boundary takes one state, "
                                         r"not a batch of shape \(2, 1\)"):
        boundary_ghost(disc.bc_right, stack[..., -1, -1:], disc.law, side=1)


def farfield_loss_case():
    """(disc, U): admissible at every quadrature node, but the linear mode
    drives the density at the left domain face negative."""
    mesh = build_uniform_mesh(0.0, 1.0, 3, 1)
    disc = Discretization(mesh, 1, NozzleEuler(),
                          BoundaryCondition("farfield", farfield=NOZZLE_INLET),
                          BoundaryCondition("farfield", farfield=NOZZLE_OUTLET))
    U = np.zeros((3, 3, disc.dof))
    U[:, :, 1] = euler_state_from_primitives(1.0, 0.0, 1.0, 1.4)[:, None]
    U[0, 0, 0] = 1.1
    return disc, U


def test_farfield_ghost_admissibility_loss_aborts():
    # the farfield ghost refuses the state
    disc, U = farfield_loss_case()
    assert np.all(disc.law.admissible(disc.eval_at_quad(U)))
    with pytest.raises(SolverAbort, match="density"):
        disc.residual(U, 0.0)


@pytest.mark.parametrize("law_name", ["euler", "nozzle"])
@pytest.mark.parametrize("component, value, message", [
    (0, -1.0, "non-positive density"),
    (2, 1e-3, "non-positive pressure"),
])
def test_residual_turns_inadmissible_state_into_abort(law_name, component, value, message):
    # element 3's sub-cell values make its quadrature and face states inadmissible
    disc, U = operator_case(law_name, True, 2, 3, np.random.default_rng(5))
    U[component, 3] = 0.0
    U[component, 3, disc.p:] = value
    with pytest.raises(SolverAbort, match=f"inadmissible state at t=0.25: {message}"):
        disc.residual(U, 0.25)


@pytest.mark.parametrize("element", [0, 9, 39])
def test_inadmissible_abort_names_the_first_bad_element(element):
    # a negative density in one element of a shu-osher state, and in the last
    # element as well: the message names the first
    _, disc, state = build_problem(RunConfig(case="shu-osher"))
    U = state.U.copy()
    for e in (element, disc.n_elements - 1):
        U[0, e] = 0.0
        U[0, e, disc.p:] = -1.0
    xl, xr = disc.mesh.element_bounds(element)
    where = f"non-positive density in element {element} on x in [{xl:.6g}, {xr:.6g}]"
    with pytest.raises(SolverAbort, match=f"^inadmissible state at t=0.1: {re.escape(where)}$"):
        disc.residual(U, 0.1)


def bad_face_case(periodic, element, face):
    """(disc, U, f): quadrature states all admissible, and the trace at face f
    not: at rest with unit pressure, the density 1 + c L_3 reaches 1 -/+ c at
    the element's right/left edge; with sub-cell averages 1.5, ..., 1.5, 0.35
    and c = 1 it is -0.01 on the right of the sub-cell face xi = 0.6, where
    L_3 = -0.36."""
    if periodic:
        disc, U = operator_case("euler", True, 3, 5, np.random.default_rng(7))
    else:
        _, disc, state = build_problem(RunConfig(case="shu-osher"))
        U = state.U.copy()
    n = disc.n
    U[:, element] = 0.0
    U[2, element, disc.p:] = 1.0 / 0.4
    U[0, element, disc.p:] = 1.0
    if face == "right edge":
        U[0, element, 2], f = -1.05, (element + 1) * n
    elif face == "left edge":
        U[0, element, 2], f = 1.05, element * n
    else:
        U[0, element, 2], f = 1.0, element * n + n - 1
        U[0, element, disc.p:] = 1.5
        U[0, element, -1] = 0.35
    return disc, U, f


@pytest.mark.parametrize("periodic, element, face, sides", [
    (False, 9, "right edge", "between element 9 and element 10"),
    (False, 63, "right edge", "between element 63 and the right boundary"),
    (False, 0, "left edge", "between the left boundary and element 0"),
    (False, 39, "left edge", "between element 38 and element 39"),
    (False, 9, "sub-cell face", "inside element 9"),
    (True, 0, "left edge", "between element 5 and element 0"),
])
def test_inadmissible_abort_names_the_first_bad_face(periodic, element, face, sides):
    disc, U, f = bad_face_case(periodic, element, face)
    assert disc.law.admissible(disc.eval_at_quad(U)).all()
    where = f"non-positive density at the face x={disc.xfaces[f]:.6g} {sides}"
    with pytest.raises(SolverAbort, match=f"^inadmissible state at t=0.1: {re.escape(where)}$"):
        disc.residual(U, 0.1)


def test_inadmissible_roe_average_abort_names_its_face():
    # every state passes the density and pressure checks, and the Roe average
    # at the face between the two elements has c~^2 <= 0: the abort names
    # that face and the elements on its two sides
    uL = (218.47778534684, 1172.2519791615955, 3144.8842738558865)
    uR = (0.01395506135484705, 0.07487648351328163, 0.20087650067433863)
    disc = Discretization(build_uniform_mesh(0.0, 1.0, 2, 1), 0, Euler1D(),
                          BoundaryCondition("prescribed", uL), BoundaryCondition("prescribed", uR))
    U = np.array([uL, uR]).T[:, :, None]
    with pytest.raises(SolverAbort, match="^inadmissible state at t=0.25: negative Roe-averaged "
                                          "sound speed at the face x=0.5 between element 0 and "
                                          "element 1$") as err:
        disc.residual(U, 0.25)
    assert err.value.elements == (0, 1) and err.value.x == (0.5, 0.5)


def test_inadmissible_abort_names_the_state_whose_check_raised():
    # a shu-osher state with pressure <= 0 in element 5 (energy averages 1e-6)
    # and density <= 0 in element 20: the density check of all states runs
    # first, so it raises, and names element 20; element 5's densities are
    # the inflow's 3.857
    _, disc, state = build_problem(RunConfig(case="shu-osher"))
    U = state.U.copy()
    U[2, 5] = 0.0
    U[2, 5, disc.p:] = 1e-6
    U[0, 20] = 0.0
    U[0, 20, disc.p:] = -1.0
    assert disc.eval_at_quad(U)[0, 5].min() > 3.8
    xl, xr = disc.mesh.element_bounds(20)
    where = f"non-positive density in element 20 on x in [{xl:.6g}, {xr:.6g}]"
    with pytest.raises(SolverAbort, match=f"^inadmissible state at t=0.1: {re.escape(where)}$") as err:
        disc.residual(U, 0.1)
    assert err.value.elements == (20,) and err.value.x == (xl, xr)


@pytest.mark.parametrize("n_elements, element", [(1, 0), (16, 11)])
def test_inadmissible_abort_on_a_stack_names_the_failing_states_element(n_elements, element):
    # the shock relaxation's probe stack, (m, m * dof, E, dof) = (3, 36, E, 12):
    # state 17 holds a negative density in `element`, state 30 one in element
    # 0; the first failing state is 17, so the abort names its element
    disc = Discretization(build_uniform_mesh(-5.0, 5.0, n_elements, 8), 4, Euler1D(),
                          BoundaryCondition("prescribed", SHU_OSHER_INFLOW),
                          BoundaryCondition("wall"))
    U = np.zeros((3, 36, n_elements, disc.dof))
    U[:, :, :, disc.p:] = euler_state_from_primitives(1.0, 0.2, 1.0, 1.4)[:, None, None, None]
    for k, e in ((17, element), (30, 0)):
        U[0, k, e, disc.p:] = -0.5
    xl, xr = disc.mesh.element_bounds(element)
    where = f"non-positive density in element {element} on x in [{xl:.6g}, {xr:.6g}]"
    with pytest.raises(SolverAbort, match=f"^inadmissible state at t=0: {re.escape(where)}$") as err:
        disc.residual(U, 0.0)
    assert err.value.elements == (element,) and err.value.x == (xl, xr)
    disc.residual(U[:, :17], 0.0)       # the states before 17 pass


@pytest.mark.parametrize("periodic, element, face, sides", [
    (False, 9, "right edge", (9, 10)),
    (False, 63, "right edge", (63,)),
    (False, 0, "left edge", (0,)),
    (False, 9, "sub-cell face", (9,)),
    (True, 0, "left edge", (5, 0)),
])
def test_inadmissible_face_abort_names_the_face_as_data(periodic, element, face, sides):
    # the elements on the face's two sides, and its x at both ends of the interval
    disc, U, f = bad_face_case(periodic, element, face)
    with pytest.raises(SolverAbort) as err:
        disc.residual(U, 0.1)
    assert err.value.elements == sides and err.value.x == (disc.xfaces[f], disc.xfaces[f])


def test_farfield_ghost_abort_names_no_elements_as_data():
    # the ghost names its boundary and x in the text; no column, so no data
    disc, U = farfield_loss_case()
    with pytest.raises(SolverAbort, match="left farfield boundary at x=0$") as err:
        disc.residual(U, 0.0)
    assert err.value.elements is None and err.value.x is None


@pytest.mark.parametrize("law_name", ["convection", "burgers", "euler", "nozzle"])
def test_residual_calls_each_layer_once(law_name):
    # the quadrature values, the face traces and the one fluxes call per
    # residual, each through its own method
    disc, U = operator_case(law_name, False, 2, 3, np.random.default_rng(6))
    calls = []
    for owner, name in ((disc, "eval_at_quad"), (disc, "face_traces"), (disc.law, "fluxes")):
        real = getattr(owner, name)
        setattr(owner, name, lambda *a, _real=real, _name=name, **kw:
                calls.append(_name) or _real(*a, **kw))
    disc.residual(U, 0.0)
    assert calls == ["eval_at_quad", "face_traces", "fluxes"]


def test_nozzle_residual_source_is_the_law_source_bit_for_bit(monkeypatch):
    # the residual's source reads the pressure of the flux pass, and is the
    # source the law derives on its own from the quadrature states
    disc, U = operator_case("nozzle", False, 2, 3, np.random.default_rng(7))
    real, seen = disc.law.source, []

    def spy(u, x=None, geom=None, pressure=None):
        seen.append((pressure, real(u, x, geom=geom, pressure=pressure)))
        return seen[-1][1]

    monkeypatch.setattr(disc.law, "source", spy)
    disc.residual(U, 0.0)
    [(pressure, S_q)] = seen
    assert pressure is not None
    assert np.array_equal(S_q, real(disc.eval_at_quad(U), geom=disc.geom_q))


def test_nozzle_step_evaluates_no_area(monkeypatch):
    # the nozzle's A and dA/dx are built with the Discretization; a residual
    # and an IMEX step evaluate none
    from subgrid_dg import physics

    rng = np.random.default_rng(3)
    disc, U = operator_case("nozzle", False, 2, 3, rng)
    calls = []
    real = physics.nozzle_area
    monkeypatch.setattr(physics, "nozzle_area", lambda x: calls.append(x) or real(x))
    disc.residual(U, 0.0)
    gammas = np.zeros(disc.n_elements)
    gammas[1] = 0.5
    imex_step(disc, FieldState(U, 0.0), 1e-4, gammas)
    assert calls == []


def test_subcell_averages_and_total_mass():
    disc = make_convection_disc(n_elements=4, p=3, n=4)
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    exact_mass = np.sqrt(np.pi * 0.01)  # integral of the Gaussian profile
    assert disc.total_mass(state.U)[0] == pytest.approx(exact_mass, rel=1e-6)
    avg = disc.subcell_averages(state.U)
    assert avg.shape == (1, 4, 4)


def test_poly_energy_vanishes_for_piecewise_constant_state():
    disc = make_convection_disc(n_elements=3, p=2, n=4)
    U = np.zeros((1, 3, disc.dof))
    U[:, :, disc.p:] = np.arange(12).reshape(1, 3, 4)
    assert np.all(disc.poly_energy(U) == 0.0)


def test_field_norm_of_known_function():
    disc = make_convection_disc(n_elements=16, p=4, n=4)
    state = project_initial(disc, lambda x: np.sin(2 * np.pi * x)[None])
    assert disc.field_norm(state.U, "L2")[0] == pytest.approx(np.sqrt(0.5), rel=1e-8)
    assert disc.field_norm(state.U, "L1")[0] == pytest.approx(2.0 / np.pi, rel=1e-6)
    with pytest.raises(ValueError):
        disc.field_norm(state.U, "Linf")


@pytest.mark.parametrize("case", ["convection-gaussian", "convection-heaviside", "burgers",
                                  "nozzle", "shu-osher"])
@pytest.mark.parametrize("kind", ["L2", "L1"])
def test_quad_norm_of_a_stack_is_the_per_field_loop_bit_for_bit(case, kind):
    # one reduction over the last three axes of the (m, E, n, q) stack gives
    # each field the norm the loop over fields gave it
    _, disc, state = build_problem(RunConfig(case=case))
    v_q = disc.eval_at_quad(state.U)
    if kind == "L2":
        loop = np.array([np.sqrt(np.sum(u_q**2 * disc.wq)) for u_q in v_q])
    else:
        loop = np.array([np.sum(np.abs(u_q) * disc.wq) for u_q in v_q])
    assert disc.quad_norm(v_q, kind).tobytes() == loop.tobytes()
    assert disc.field_norm(state.U, kind).tobytes() == loop.tobytes()
    assert disc.quad_norm(v_q[-1], kind) == loop[-1]      # one field: a scalar


def test_periodic_bc_must_be_paired():
    mesh = build_uniform_mesh(0.0, 1.0, 4, 2)
    with pytest.raises(ValueError):
        Discretization(mesh, 1, Convection(), BoundaryCondition("periodic"),
                       BoundaryCondition("wall"))


@pytest.mark.parametrize("law, bc_left, bc_right, message", [
    (Burgers(), BoundaryCondition("wall"), BoundaryCondition("prescribed", state=(0.5,)),
     "the left wall boundary needs an Euler law, not 'burgers'"),
    (Convection(), BoundaryCondition("prescribed", state=(0.5,)),
     BoundaryCondition("farfield", farfield=NOZZLE_OUTLET),
     "the right farfield boundary needs an Euler law, not 'convection'"),
    (Burgers(), BoundaryCondition("prescribed", state=(1.0, 0.0, 2.5)),
     BoundaryCondition("prescribed", state=(0.5,)),
     "the left prescribed boundary state has 3 components; 'burgers' has 1"),
], ids=["wall-on-burgers", "farfield-on-convection", "euler-state-on-burgers"])
def test_boundary_the_law_cannot_take_is_refused(law, bc_left, bc_right, message):
    # refused when the Discretization is built, not at the first residual
    with pytest.raises(ValueError, match=f"^{message}$"):
        Discretization(build_uniform_mesh(0.0, 1.0, 4, 2), 1, law, bc_left, bc_right)


# -- time stepping -------------------------------------------------------------


def test_zero_gamma_step_bit_matches_explicit_tableau_path():
    disc = make_convection_disc()
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    dt = 2e-4
    stepped = imex_step(disc, state, dt, np.zeros(disc.n_elements))

    # independent explicit-only evaluation of the same tableau
    tab = ars222()
    U0 = state.U
    r_hat = []
    for i in range(tab.stages):
        Ui = U0.copy()
        for j in range(i):
            if tab.A_hat[i, j] != 0.0:
                Ui += dt * tab.A_hat[i, j] * r_hat[j]
        r_hat.append(disc.solve_mass(disc.residual(Ui, state.time)))
    U1 = U0.copy()
    for j in range(tab.stages):
        if tab.b_hat[j] != 0.0:
            U1 += dt * tab.b_hat[j] * r_hat[j]

    assert np.array_equal(stepped.U, U1)
    # a second step from the same state repeats it: the input is untouched
    repeated = imex_step(disc, state, dt, np.zeros(disc.n_elements))
    assert np.array_equal(stepped.U, repeated.U)


def lu_stage_rate(p, n, U, gammas, c):
    """Frozen penalty stage by a batched LU solve of the assembled element
    systems (M + c gamma M_pp) r = -gamma M_pp U on the reference element."""
    ref = reference_element(p, n)
    A = ref.mass[None] + (c * gammas)[:, None, None] * ref.mass_pp[None]
    rhs = -(U @ ref.mass_pp.T).transpose(1, 2, 0) * gammas[:, None, None]
    return np.linalg.solve(A, rhs).transpose(2, 0, 1)


@settings(max_examples=150, deadline=None)
@given(
    pn=st.sampled_from([(1, 1), (1, 3), (2, 4), (3, 5), (4, 8)]),
    gammas=st.lists(st.one_of(st.just(0.0), st.floats(-12.0, 12.0).map(lambda e: 10.0**e)),
                    min_size=1, max_size=6),
    c=st.sampled_from([0.0, 1e-7, 1e-4, 2.9e-3, 0.05, 1.0]),
    m=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_penalty_stage_rate_matches_batched_lu(pn, gammas, c, m, seed):
    # the closed-form eigenbasis filter against the assembled solve, to
    # 1e-11 of the rate's max-norm
    p, n = pn
    gammas = np.array(gammas)
    U = np.random.default_rng(seed).standard_normal((m, gammas.size, p + n))
    rate = penalty_stage_rate(p, n, U, gammas, c)
    expected = lu_stage_rate(p, n, U, gammas, c)
    assert rate.shape == expected.shape
    assert np.max(np.abs(rate - expected)) <= 1e-11 * np.max(np.abs(expected))


def gather_scatter_step(disc, state, dt, gammas):
    """The step of `closed_ars232` with the implicit stage rates kept on the
    penalized elements alone, gathered and scattered by fancy indexing: the
    reference for the block view of `imex_step`."""
    tab = closed_ars232()
    U0 = state.U
    active = np.flatnonzero(gammas > 0.0)
    r = [None] * tab.stages
    r_hat = []
    for i in range(tab.stages):
        Ui = U0.copy()
        for j in range(i):
            if tab.A[i, j] != 0.0 and r[j] is not None:
                Ui[:, active] += dt * tab.A[i, j] * r[j]
            if tab.A_hat[i, j] != 0.0:
                Ui += dt * tab.A_hat[i, j] * r_hat[j]
        aii = tab.A[i, i]
        if active.size and aii != 0.0:
            r[i] = penalty_stage_rate(disc.p, disc.n, Ui[:, active], gammas[active], dt * aii)
            Ui[:, active] += dt * aii * r[i]
        r_hat.append(disc.solve_mass(disc.residual(Ui, state.time)))
    U1 = U0.copy()
    for j in range(tab.stages):
        if tab.b[j] != 0.0 and r[j] is not None:
            U1[:, active] += dt * tab.b[j] * r[j]
        if tab.b_hat[j] != 0.0:
            U1 += dt * tab.b_hat[j] * r_hat[j]
    return U1


@pytest.mark.parametrize("case", ["convection-heaviside", "shu-osher", "nozzle"])
@pytest.mark.parametrize("active", [[3, 4, 5], [1, 6], [2], list(range(8)), []])
def test_block_view_step_matches_gather_scatter(case, active):
    # contiguous, gapped, single, eight and no penalized elements: the
    # elements of the block with gamma = 0 get a rate of exactly 0, so the
    # step is the same bit for bit; the nozzle, at its preset's element
    # count, adds the source term and the farfield ghosts
    n_elements = None if case == "nozzle" else 8
    _, disc, state = build_problem(RunConfig(case=case, n_elements=n_elements))
    dt = 1e-3 if case == "convection-heaviside" else 2e-4
    gammas = np.zeros(disc.n_elements)
    gammas[active] = np.geomspace(1e-2, 1e8, len(active))
    stepped = imex_step(disc, state, dt, gammas)
    expected = gather_scatter_step(disc, state, dt, gammas)
    assert np.array_equal(stepped.U, expected)
    unpenalized = imex_step(disc, state, dt, np.zeros(disc.n_elements))
    assert np.array_equal(stepped.U, unpenalized.U) == (not active)


def test_penalty_stage_rate_is_exactly_zero_where_gamma_is_zero():
    rng = np.random.default_rng(4)
    gammas = np.array([3.0, 0.0, 0.0, 1e9, 0.0, 2e-3])
    U = rng.standard_normal((3, gammas.size, 9))
    rate = penalty_stage_rate(4, 5, U, gammas, 2.9e-4)
    assert np.all(rate[:, gammas == 0.0] == 0.0)
    assert np.all(np.any(rate[:, gammas > 0.0] != 0.0, axis=-1))


def test_penalty_stage_is_exactly_zero_at_p0():
    # p = 0 has no polynomial modes: a forced penalty changes nothing
    U = np.random.default_rng(3).standard_normal((2, 4, 5))
    rate = penalty_stage_rate(0, 5, U, np.full(4, 1e7), 1e-3)
    assert rate.shape == U.shape and np.all(rate == 0.0)
    disc = make_convection_disc(n_elements=6, p=0, n=5)
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    forced = imex_step(disc, state, 1e-3, np.full(disc.n_elements, 1e7))
    assert np.array_equal(forced.U, imex_step(disc, state, 1e-3, np.zeros(disc.n_elements)).U)


def test_imex_step_second_order_with_frozen_penalty():
    disc = make_convection_disc(n_elements=8, p=3, n=5)
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    gammas = np.zeros(disc.n_elements)
    gammas[4] = 50.0
    t_end = 4e-3

    def march(dt):
        st = state
        for _ in range(round(t_end / dt)):
            st = imex_step(disc, st, dt, gammas)
        return st.U

    ref = march(1.25e-5)
    errors = [np.linalg.norm(march(dt) - ref) for dt in (4e-4, 2e-4, 1e-4)]
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert abs(order - 2.0) < 0.1


def test_large_penalty_contracts_polynomial_modes():
    disc = make_convection_disc(n_elements=8, p=3, n=5)
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    gammas = np.zeros(disc.n_elements)
    gammas[:] = 1e10
    before = disc.poly_energy(state.U).sum()
    stepped = imex_step(disc, state, 1e-3, gammas)
    assert disc.poly_energy(stepped.U).sum() < 0.1 * before
    # the contraction compounds: a few steps reach the sub-cell-average limit
    for _ in range(5):
        stepped = imex_step(disc, stepped, 1e-3, gammas)
    assert disc.poly_energy(stepped.U).sum() < 1e-6 * before
    # while the sub-cell averages (the conserved content) barely move
    np.testing.assert_allclose(
        disc.total_mass(stepped.U), disc.total_mass(state.U), atol=1e-12
    )


# every law and boundary kind of N1_CASES but the nozzle's: its source
# quadrature (p + 2 points a sub-cell) differs between p = 0 and p > 0
LIMIT_CASES = [name for name in N1_CASES if not name.startswith("nozzle")]


def limit_step(name, dt, gamma, p=2, E=4, n=3):
    """One imex_step of dt times the domain length from piecewise-constant data
    with gamma forced in every element, and the p = 0 step from the same cell
    values, both over the data's scale: (max |polynomial coefficient| of the
    new state, max |its sub-cell averages - the p = 0 state|)."""
    law, (a, b), bc_left, bc_right, base = N1_CASES[name]
    mesh = build_uniform_mesh(a, b, E, n)
    rng = np.random.default_rng(5)
    cells = base[:, None, None] * (1.0 + 0.2 * rng.standard_normal((law.m, E, n)))
    dg = Discretization(mesh, p, law, bc_left, bc_right)
    U = np.concatenate([np.zeros((law.m, E, p)), cells], axis=2)
    new = imex_step(dg, FieldState(U, 0.0), dt * (b - a), np.full(E, gamma)).U
    fv = Discretization(mesh, 0, law, bc_left, bc_right)
    ref = imex_step(fv, FieldState(cells, 0.0), dt * (b - a), np.zeros(E)).U
    scale = np.abs(cells).max()
    return (np.abs(new[..., :p]).max() / scale,
            np.abs(dg.subcell_averages(new) - ref).max() / scale)


@pytest.mark.parametrize("name", LIMIT_CASES)
def test_large_penalty_step_is_the_subcell_fv_step(name):
    # gamma -> infinity leaves the p = 0 scheme on the same sub-grid: the
    # sub-cell averages of a penalized step reach the p = 0 step as O(1/gamma)
    gaps = [limit_step(name, 1e-3, gamma)[1] for gamma in (1e6, 1e9, 1e12)]
    assert gaps[0] < 1e-5
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 800 < coarse / fine < 1250, gaps


@pytest.mark.parametrize("name", LIMIT_CASES)
def test_large_penalty_step_leaves_no_polynomial_residue(name):
    # the step ends on a penalty solve of the finished state, so what is left of
    # its polynomial part is that solve's O(1/gamma), whatever dt is: 1e-11 of
    # the data's scale at gamma = 1e13 and round-off at 1e16 (an explicit rate
    # added after the last solve would leave an O(dt^2) residue, 1e-9 to 1e-5 here)
    for dt in (1e-4, 5e-5, 2.5e-5):
        assert limit_step(name, dt, 1e13)[0] < 1e-11
        assert limit_step(name, dt, 1e16)[0] < 1e-14


@pytest.mark.parametrize("penalized", [False, True])
def test_imex_step_takes_three_stage_rates(penalized):
    # one `rate` per stage, each one `residual`, with and without a
    # penalized block
    disc = make_convection_disc()
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    gammas = np.zeros(disc.n_elements)
    if penalized:
        gammas[[2, 5]] = 1e3
    expected = imex_step(disc, state, 1e-3, gammas).U
    calls = []
    for name in ("rate", "residual"):
        real = getattr(disc, name)
        setattr(disc, name, lambda *a, _real=real, _name=name, **kw:
                calls.append(_name) or _real(*a, **kw))
    assert np.array_equal(imex_step(disc, state, 1e-3, gammas).U, expected)
    assert calls == ["rate", "residual"] * 3


@pytest.mark.parametrize("penalized", [False, True])
def test_imex_step_returns_fresh_arrays(penalized):
    disc = make_convection_disc()
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    gammas = np.zeros(disc.n_elements)
    if penalized:
        gammas[[2, 5]] = 1e3
    U0 = state.U.copy()
    first = imex_step(disc, state, 1e-3, gammas)
    U1 = first.U.copy()
    second = imex_step(disc, first, 1e-3, gammas)
    assert not np.shares_memory(first.U, state.U)
    assert not np.shares_memory(second.U, state.U)
    assert not np.shares_memory(second.U, first.U)
    assert np.array_equal(state.U, U0)
    assert np.array_equal(first.U, U1)


def test_advance_recorded_states_unchanged_by_later_steps():
    disc = make_convection_disc(n_elements=6, p=2, n=4)
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    seen = []
    traj = advance(disc, state, dt=2e-3, t_final=0.02, snapshot_times=(0.01,),
                   force_gamma=(3, 1e3),
                   on_step=lambda st, tr: seen.append((st, st.U.copy())))
    assert len(seen) == traj.n_steps
    for st, U in seen:
        assert np.array_equal(st.U, U)
    assert np.array_equal(traj.states[0].U, state.U)
    assert traj.states[1] is seen[4][0] and traj.states[2] is seen[-1][0]


def test_step_validation():
    disc = make_convection_disc()
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    for dt in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match=rf"dt must be finite and > 0: {dt}"):
            imex_step(disc, state, dt, np.zeros(disc.n_elements))
    # one gamma per element: a longer array would drop penalties, a shorter
    # one leave elements unpenalized
    for shape in [(disc.n_elements + 3,), (2,), (1, disc.n_elements)]:
        with pytest.raises(ValueError, match=rf"gammas of shape {re.escape(str(shape))}, "
                                             rf"not \({disc.n_elements},\)"):
            imex_step(disc, state, 1e-3, np.full(shape, 1e3))
    for dt, t_final in [(-1.0, 1.0), (1e-3, 0.0), (1e-3, np.nan), (1e-3, np.inf), (np.nan, 0.1),
                        (np.inf, 0.1)]:
        with pytest.raises(ValueError, match="need dt > 0 and a finite t_final"):
            advance(disc, state, dt=dt, t_final=t_final)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_imex_step_refuses_a_gamma_that_is_not_finite_and_non_negative(bad):
    # a NaN gamma would step that element unpenalized, an infinite one fill it
    # with NaN; the first bad element is named, also behind a penalized one
    disc = make_convection_disc()
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    gammas = np.zeros(disc.n_elements)
    gammas[[3, 6]] = bad
    gammas[1] = 5.0
    with pytest.raises(ValueError, match=rf"gamma of element 3 must be finite and >= 0: {bad}"):
        imex_step(disc, state, 1e-3, gammas)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.01, 0.1 + 1e-9])
def test_advance_refuses_snapshot_time_outside_the_march(monkeypatch, bad):
    # a time before the start, after the end or not finite is named, not
    # dropped, before a step runs
    disc = make_convection_disc(n_elements=4, p=1, n=2)
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    monkeypatch.setattr(solver, "imex_step", lambda *a: pytest.fail("a step ran"))
    with pytest.raises(ValueError, match=rf"snapshot time {bad} is not in \[0\.0, 0\.1\]"):
        advance(disc, state, dt=7e-3, t_final=0.1, snapshot_times=(0.05, bad))


def test_advance_hits_snapshot_times_exactly():
    # a mark at t_final, or within the step tolerance of another, is the same
    # state: it is recorded, and its sensor evaluated, once
    disc = make_convection_disc(n_elements=4, p=1, n=2)
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    sensor_calls = []
    real = disc.evaluate_sensor
    disc.evaluate_sensor = lambda U: sensor_calls.append(U) or real(U)
    # the start, and a time past t_final within the step tolerance, add no record
    for snapshot_times in [(0.03, 0.05), (0.03, 0.05, 0.1), (0.03, 0.03 + 1e-15, 0.05),
                           (0.0, 0.03, 0.05, 0.1 + 1e-14)]:
        sensor_calls.clear()
        traj = advance(disc, state, dt=7e-3, t_final=0.1, snapshot_times=snapshot_times)
        times = [st.time for st in traj.states]
        assert times == pytest.approx([0.0, 0.03, 0.05, 0.1], abs=1e-12)
        assert len({id(st) for st in traj.states}) == 4
        assert traj.final.time == pytest.approx(0.1)
        assert len(traj.sensors) == len(traj.states)
        assert len(traj.step_diffs) == traj.n_steps
        assert len(sensor_calls) == traj.n_steps + 4    # each step's state, and each record


def test_advance_forced_gamma_recorded():
    disc = make_convection_disc(n_elements=4, p=1, n=2)
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    traj = advance(disc, state, dt=5e-3, t_final=0.02, force_gamma=(2, 123.0))
    for rep in traj.sensors:
        assert rep.gamma[2] == 123.0


@pytest.mark.parametrize("element", [4, -1])
def test_advance_refuses_forced_element_off_the_mesh(monkeypatch, element):
    # element 4 is past the last of 4; -1 would index the last one
    disc = make_convection_disc(n_elements=4, p=1, n=2)
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    monkeypatch.setattr(solver, "imex_step", lambda *a: pytest.fail("a step ran"))
    with pytest.raises(ValueError, match=rf"force_gamma_element {element} is not one of the 4 "
                                         r"elements \(0 to 3\)"):
        advance(disc, state, dt=5e-3, t_final=0.02, force_gamma=(element, 5.0))


def test_mass_conservation_burgers_with_active_sensor():
    config, disc, state = build_problem(RunConfig(case="burgers"))
    traj = advance(disc, state, dt=1e-3, t_final=0.3)
    drift = abs(disc.total_mass(traj.final.U)[0] - disc.total_mass(state.U)[0])
    assert drift < 1e-12
    # the sensor does fire during this window (shock has formed by t = 0.3)
    assert np.max(traj.sensors[-1].gamma) > 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_advance_aborts_on_injected_non_finite_value(monkeypatch, bad):
    disc = make_convection_disc(n_elements=4, p=1, n=2)
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])
    steps = []

    def poisoned(disc, state, dt, gammas):
        new = imex_step(disc, state, dt, gammas)
        steps.append(new)
        if len(steps) == 3:
            new.U[0, 2, 1] = new.U[0, 3, 0] = bad       # the first is element 2
        return new

    monkeypatch.setattr(solver, "imex_step", poisoned)
    with pytest.raises(SolverAbort, match=r"non-finite state after step 3 at t=0\.03\b") as err:
        advance(disc, state, dt=1e-2, t_final=0.1)
    assert str(err.value).endswith("in element 2 on x in [0.5, 0.75]")


def test_non_finite_abort_names_the_element_as_data(monkeypatch):
    disc = make_convection_disc(n_elements=4, p=1, n=2)
    state = project_initial(disc, lambda x: gaussian_profile(x)[None])

    def poisoned(disc, state, dt, gammas):
        new = imex_step(disc, state, dt, gammas)
        new.U[0, 3, 0] = new.U[0, 2, 1] = np.nan        # the first is element 2
        return new

    monkeypatch.setattr(solver, "imex_step", poisoned)
    with pytest.raises(SolverAbort, match=r"^non-finite state after step 1 at t=0\.01 in "
                                          r"element 2 on x in \[0\.5, 0\.75\]$") as err:
        advance(disc, state, dt=1e-2, t_final=0.1)
    assert err.value.elements == (2,) and err.value.x == (0.5, 0.75)


def test_a_shared_reference_matrix_cannot_be_written():
    # two Burgers Discretizations of (2, 3) on different meshes share one
    # reference element: a write through one is refused, the other's
    # residual keeps its bits
    bc = BoundaryCondition("periodic")
    a = Discretization(build_uniform_mesh(0.0, 1.0, 4, 3), 2, Burgers(), bc, bc)
    b = Discretization(build_uniform_mesh(0.0, 2.0, 5, 3), 2, Burgers(), bc, bc)
    assert a.ref is b.ref
    U = project_initial(b, lambda x: (0.5 + np.sin(np.pi * x))[None]).U
    before = b.residual(U, 0.0)
    with pytest.raises(ValueError, match="read-only"):
        a.ref.trace_left[0, 0] += 1
    assert np.array_equal(b.residual(U, 0.0), before)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_advance_keeps_finite_state_whose_drift_norm_overflows():
    disc = make_convection_disc(n_elements=4, p=1, n=2)
    state = project_initial(disc, lambda x: 1e200 * gaussian_profile(x)[None])
    traj = advance(disc, state, dt=1e-2, t_final=0.05)
    assert traj.n_steps == len(traj.step_diffs) == 5
    assert np.isinf(traj.step_diffs).all()      # the norm's squares overflow
    assert np.isfinite(traj.final.U).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_advance_aborts_on_blowup():
    mesh = build_uniform_mesh(0.0, 1.0, 4, 3)
    bc = BoundaryCondition("periodic")
    disc = Discretization(mesh, 2, Burgers(), bc, bc)
    state = project_initial(disc, lambda x: (0.5 + np.sin(2 * np.pi * x))[None])
    with pytest.raises(SolverAbort):
        advance(disc, state, dt=10.0, t_final=100.0)
