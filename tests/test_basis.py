import dataclasses

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from subgrid_dg.basis import (
    NonInjectiveError,
    assemble_mass,
    assemble_penalty_mass,
    basis_eval,
    gauss_rule,
    legendre_eval,
    reference_element,
)
from subgrid_dg.mesh import Mesh


def brute_force_mass(mesh, p, n_quad=20):
    """Independent Gram matrix oracle: high-order Gauss rule on every sub-cell,
    basis values taken from the scalar point-evaluation routine."""
    g, w = gauss_rule(n_quad)
    n = mesh.n_sub
    edges = mesh.nodes(reference_element(p, n).sub_edges)[0]
    M = np.zeros((p + n, p + n))
    for s in range(n):
        xl, xr = edges[s], edges[s + 1]
        xq = 0.5 * (xl + xr) + 0.5 * (xr - xl) * g
        wq = 0.5 * (xr - xl) * w
        vals = np.array([basis_eval(mesh, p, i, xq) for i in range(p + n)])
        M += (vals * wq) @ vals.T
    return M


def test_gauss_rule_exactness():
    for q in range(1, 8):
        g, w = gauss_rule(q)
        assert w.sum() == pytest.approx(2.0)
        for deg in range(2 * q):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            assert np.sum(w * g**deg) == pytest.approx(exact, abs=1e-13)


def test_gauss_rule_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        gauss_rule(0)


def test_legendre_normalization_and_orthogonality():
    g, w = gauss_rule(12)
    for i in range(6):
        assert legendre_eval(i, 1.0) == pytest.approx(1.0)
        for j in range(6):
            inner = np.sum(w * legendre_eval(i, g) * legendre_eval(j, g))
            exact = 2.0 / (2 * i + 1) if i == j else 0.0
            assert inner == pytest.approx(exact, abs=1e-13)


def test_legendre_eval_rejects_a_negative_index():
    with pytest.raises(ValueError, match="mode index must be non-negative"):
        legendre_eval(-1, 0.0)


@pytest.mark.parametrize("p,n", [(0, 1), (0, 4), (1, 1), (1, 2), (2, 3), (3, 5), (4, 8)])
def test_mass_matrix_against_brute_force(p, n):
    mesh = Mesh(np.array([0.3, 1.1]), n)
    M = assemble_mass(mesh, p)
    np.testing.assert_allclose(M, brute_force_mass(mesh, p), atol=1e-12)
    # symmetric positive definite
    np.testing.assert_allclose(M, M.T, atol=1e-14)
    assert np.all(np.linalg.eigvalsh(M) > 0)


def test_mass_matrix_hand_computed_p1_n2():
    # On [-1, 1] with basis (x, 1_{[-1,0)}, 1_{[0,1]}):
    # (x, x) = 2/3, (x, 1_left) = -1/2, (x, 1_right) = 1/2, indicators orthonormal.
    mesh = Mesh(np.array([-1.0, 1.0]), 2)
    expected = np.array([
        [2.0 / 3.0, -0.5, 0.5],
        [-0.5, 1.0, 0.0],
        [0.5, 0.0, 1.0],
    ])
    np.testing.assert_allclose(assemble_mass(mesh, 1), expected, atol=1e-14)


def test_mass_scales_with_element_width():
    ref = assemble_mass(Mesh(np.array([-1.0, 1.0]), 3), 2)
    phys = assemble_mass(Mesh(np.array([0.0, 0.5]), 3), 2)
    np.testing.assert_allclose(phys, 0.25 * ref, atol=1e-14)


@pytest.mark.parametrize("p,n", [(1, 2), (2, 3), (4, 8), (4, 9)])
def test_penalty_mass_structure(p, n):
    mesh = Mesh(np.array([0.0, 1.0]), n)
    Mpp = assemble_penalty_mass(mesh, p)
    half = mesh.widths[0] / 2.0
    # Legendre Gram block in the polynomial corner, zero elsewhere
    np.testing.assert_allclose(
        Mpp[:p, :p], half * np.diag(2.0 / (2.0 * np.arange(1, p + 1) + 1.0))
    )
    assert np.all(Mpp[p:, :] == 0.0)
    assert np.all(Mpp[:, p:] == 0.0)
    # positive semi-definite with rank p: penalizes exactly the polynomial modes
    eigs = np.linalg.eigvalsh(Mpp)
    assert np.all(eigs > -1e-14)
    assert np.sum(eigs > 1e-12) == p


def test_penalty_mass_ignores_piecewise_constant_part():
    p, n = 3, 4
    c = np.zeros(p + n)
    c[p:] = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.all(assemble_penalty_mass(Mesh(np.array([-1.0, 1.0]), n), p) @ c == 0.0)


@pytest.mark.parametrize("p", range(9))
def test_reference_tables_equal_per_mode_oracles(p):
    # every Legendre table of the reference element, and the face traces and
    # the volume term's derivatives, bit for bit against one mode at a time;
    # the indicators are 1 on their own sub-cell, else 0, with zero derivative
    for n in range(1, 13):
        ref = reference_element(p, n)
        x, edges = ref.quad_ref, ref.sub_edges
        weighted_dphi = ref.volume.T.reshape(p + n, n, p + 2)
        for i in range(1, p + 1):
            assert np.array_equal(ref.phi[i - 1], legendre_eval(i, x))
            e_i = np.eye(i + 1)[i]            # L_i alone: no trailing zeros
            dphi = npleg.legval(x, npleg.legder(e_i))
            assert np.array_equal(weighted_dphi[i - 1], dphi * ref.quad_w)
            assert np.array_equal(ref.trace_left[i - 1], legendre_eval(i, edges[:-1]))
            assert np.array_equal(ref.trace_right[i - 1], legendre_eval(i, edges[1:]))
        for i in range(p + 1):
            avg = np.einsum("sq,sq->s", legendre_eval(i, x), ref.quad_w) / (2.0 / n)
            assert np.array_equal(ref.leg_sub_avg[i], avg)
        assert np.array_equal(ref.phi[p:], np.eye(n)[:, :, None] * np.ones_like(x))
        assert np.array_equal(ref.trace_left[p:], np.eye(n))
        assert np.array_equal(ref.trace_right[p:], np.eye(n))
        assert not weighted_dphi[p:].any()
        shapes = [(p + n, n, p + 2), (p + n, n), (p + n, n), (p + 1, n),
                  (p + n, p + n), (p + n, p + n), (p, p + n)]
        tables = ["phi", "trace_left", "trace_right", "leg_sub_avg", "mass", "mass_pp",
                  "proj_ho"]
        assert [getattr(ref, t).shape for t in tables] == shapes
        if p == 0:                     # nothing polynomial to project or penalize
            assert ref.proj_ho.shape == (0, n)
            assert not ref.mass_pp.any()


def test_reference_element_sub_averages():
    ref = reference_element(2, 4)
    # averages of L_0 are 1; averages of L_1 = x over [-1+k/2, -1/2+k/2]
    np.testing.assert_allclose(ref.leg_sub_avg[0], 1.0)
    np.testing.assert_allclose(ref.leg_sub_avg[1], [-0.75, -0.25, 0.25, 0.75])


def test_quadrature_covers_element():
    mesh, ref = Mesh(np.array([-2.0, 4.0]), 5), reference_element(3, 5)
    assert ref.quad_w.sum() == pytest.approx(2.0)
    xq = mesh.nodes(ref.quad_ref)[0]
    assert xq.min() > mesh.a
    assert xq.max() < mesh.b
    # nodes of sub-cell s stay inside sub-cell s
    edges = mesh.nodes(ref.sub_edges)[0]
    for s in range(ref.n):
        assert np.all(xq[s] > edges[s])
        assert np.all(xq[s] < edges[s + 1])


def test_basis_eval_indicators_partition_unity():
    mesh, p = Mesh(np.array([0.0, 1.0]), 3), 2
    x = np.linspace(0.01, 0.99, 97)
    total = sum(basis_eval(mesh, p, p + j, x) for j in range(mesh.n_sub))
    np.testing.assert_allclose(total, 1.0)


def test_basis_eval_matches_cached_quad_values():
    mesh, ref = Mesh(np.array([0.2, 0.9]), 4), reference_element(3, 4)
    xq = mesh.nodes(ref.quad_ref)[0]
    for i in range(ref.dof):
        np.testing.assert_allclose(
            basis_eval(mesh, 3, i, xq), ref.phi[i], atol=1e-13
        )


def test_invalid_space_parameters_rejected():
    with pytest.raises(ValueError):
        reference_element(-1, 4)
    with pytest.raises(ValueError):
        reference_element(2, 0)
    with pytest.raises(ValueError):
        Mesh(np.array([1.0, 1.0]), 3)
    with pytest.raises(IndexError):
        basis_eval(Mesh(np.array([-1.0, 1.0]), 2), 1, 3, 0.0)


def written_out_operators(p, n):
    """The step operators, penalty eigenbasis, average fit and sensor operator,
    each written out from the Legendre tables one formula at a time: the
    reference the cached members are held to."""
    ref = reference_element(p, n)
    dof, nq = p + n, ref.phi[0].size
    # Legendre modes 0..p at the sub-cell faces and the basis's reference derivatives
    modes = np.eye(p + 1)
    leg_face = npleg.legval(ref.sub_edges, modes)
    dphi_ref = np.concatenate([npleg.legval(ref.quad_ref, npleg.legder(modes))[1:],
                               np.zeros((n,) + ref.quad_ref.shape)])
    trace_left = np.vstack([leg_face[1:, :-1], np.eye(n)])
    trace_right = np.vstack([leg_face[1:, 1:], np.eye(n)])
    lift_left = trace_left.T.copy()
    lift_left[1:, :p] = 0.0
    lift_right = -trace_right.T.copy()
    lift_right[:-1, :p] = 0.0
    ops = {
        "phi_q": ref.phi.reshape(dof, nq),
        "trace_left": trace_left, "trace_right": trace_right,
        "volume": (dphi_ref * ref.quad_w[None]).reshape(dof, nq).T.copy(),
        "lift_left": lift_left, "lift_right": lift_right,
        "source": (ref.phi * ref.quad_w[None]).reshape(dof, nq).T.copy(),
        "mass_inv_t": np.linalg.inv(ref.mass).T.copy(),
    }
    l_inv = np.linalg.inv(np.linalg.cholesky(ref.mass))
    lam, V = np.linalg.eigh(l_inv @ ref.mass_pp @ l_inv.T)
    W = l_inv.T @ V[:, n:]
    ops["penalty_eigenbasis"] = (lam[n:], W, ref.mass @ W)
    if n >= p + 1:
        fit = np.linalg.pinv(ref.leg_sub_avg.T)
        averages = np.hstack([ref.leg_sub_avg[1:].T, np.eye(n)])
        ops["average_fit"] = fit
        ops["sensor_operator"] = np.vstack(
            [averages, (ref.leg_sub_avg.T @ fit - np.eye(n)) @ averages])
    return ops


def arrays(member):
    """A member's arrays: the penalty eigenbasis is a tuple of three."""
    return member if isinstance(member, tuple) else (member,)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("p", range(5))
def test_reference_operators_equal_their_written_out_formulas_bit_for_bit(p, n):
    ref = reference_element(p, n)
    for name, want in written_out_operators(p, n).items():
        for g, w in zip(arrays(getattr(ref, name)), arrays(want), strict=True):
            # the same bits in the same memory order, so every matmul is unchanged
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
            assert g.flags.c_contiguous == w.flags.c_contiguous, name
    if n < p + 1:
        for name in ("average_fit", "sensor_operator"):
            with pytest.raises(NonInjectiveError, match=f"p={p}, n={n}"):
                getattr(ref, name)


def test_clearing_the_reference_cache_rebuilds_every_member():
    old = reference_element(3, 5)
    lazy = ["penalty_eigenbasis", "average_fit", "sensor_operator"]
    members = [f.name for f in dataclasses.fields(old) if f.name not in ("p", "n", "dof")]
    before = {name: getattr(old, name) for name in members + lazy}
    reference_element.cache_clear()
    new = reference_element(3, 5)
    assert new is not old
    assert not set(lazy) & set(vars(new))     # the lazy members wait for first use
    for name in members + lazy:
        for g, w in zip(arrays(getattr(new, name)), arrays(before[name]), strict=True):
            assert g is not w and g.tobytes() == w.tobytes(), name
    assert reference_element(3, 5) is new and set(lazy) <= set(vars(new))


@pytest.mark.parametrize("p, n", [(0, 1), (2, 3), (4, 8)])
def test_every_reference_array_is_read_only(p, n):
    # shared by every caller of (p, n), so a write through one is refused
    ref = reference_element(p, n)
    members = [f.name for f in dataclasses.fields(ref) if f.name not in ("p", "n", "dof")]
    for name in members + ["penalty_eigenbasis", "average_fit", "sensor_operator"]:
        for a in arrays(getattr(ref, name)):
            assert not a.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                a[...] += 1.0
