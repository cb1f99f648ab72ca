"""Modal Legendre + sub-cell indicator basis, quadrature, and mass matrices.

The local space on an element combines zero-average Legendre modes of degree
1..p with the characteristic functions of the n sub-cells.  For p = 0 this is
the piecewise-constant finite volume space; for n = 1 it is standard modal DG.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from .mesh import Mesh, reference_subcell_edges


def legendre_eval(i: int, x) -> np.ndarray | float:
    """Value of the i-th Legendre polynomial, normalized so L_i(1) = 1."""
    if i < 0:
        raise ValueError("mode index must be non-negative")
    coeffs = np.zeros(i + 1)
    coeffs[i] = 1.0
    return npleg.legval(x, coeffs)


def gauss_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], exact up to degree 2q-1;
    numpy's ValueError for q < 1."""
    return npleg.leggauss(q)


@dataclass(frozen=True)
class ReferenceElement:
    """Cached quantities on [-1, 1] shared by all elements with the same (p, n).

    Basis ordering: Legendre modes 1..p first, then sub-cell indicators
    left to right.  All mass-type matrices scale to a physical element of
    width h by the factor h/2.
    """

    p: int
    n: int
    n_quad: int
    gauss: tuple                # (nodes, weights) of the q-point Gauss rule on [-1, 1]
    quad_ref: np.ndarray        # (n, q) quadrature nodes per sub-cell, in [-1, 1]
    quad_w: np.ndarray          # (n, q) weights, summing to 2
    phi: np.ndarray             # (dof, n, q) basis values at quadrature nodes
    dphi_ref: np.ndarray        # (dof, n, q) reference derivatives (0 for indicators)
    sub_edges: np.ndarray       # (n+1,) sub-cell boundaries in [-1, 1]
    leg_face: np.ndarray        # (p+1, n+1) Legendre values (modes 0..p) at sub_edges
    leg_sub_avg: np.ndarray     # (p+1, n) sub-cell averages of Legendre modes 0..p
    mass: np.ndarray            # (dof, dof) Gram matrix on [-1, 1]
    mass_pp: np.ndarray         # (dof, dof) penalty mass: polynomial block only
    proj_ho: np.ndarray         # (p, dof) coefficients of pi_ho of each basis function

    @property
    def dof(self) -> int:
        return self.p + self.n


@lru_cache(maxsize=None)
def reference_element(p: int, n: int) -> ReferenceElement:
    if p < 0:
        raise ValueError("polynomial degree must be >= 0")
    if n < 1:
        raise ValueError("sub-cell count must be >= 1")
    q = p + 2

    g, w = gauss = gauss_rule(q)
    edges = reference_subcell_edges(n)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 1.0 / n
    quad_ref = mid[:, None] + half * g[None, :]
    quad_w = np.broadcast_to(w[None, :] * half, (n, q)).copy()

    # Legendre modes 0..p at the quadrature nodes and faces, one identity column of
    # coefficients each: trailing zeros leave Clenshaw's recurrence exact
    modes = np.eye(p + 1)
    leg_q = npleg.legval(quad_ref, modes)                       # (p+1, n, q)
    dleg_q = npleg.legval(quad_ref, npleg.legder(modes))
    leg_face = npleg.legval(edges, modes)                       # (p+1, n+1)
    leg_sub_avg = np.einsum("isq,sq->is", leg_q, quad_w) / (2.0 / n)

    phi = np.concatenate([leg_q[1:], np.eye(n)[:, :, None].repeat(q, axis=2)])
    dphi = np.concatenate([dleg_q[1:], np.zeros((n, n, q))])
    mass = np.einsum("isq,jsq,sq->ij", phi, phi, quad_w)   # exactly symmetric

    # pi_ho coefficients of each basis function (zero-average Legendre modes)
    leg_norms = 2.0 / (2.0 * np.arange(1, p + 1) + 1.0)  # (L_i, L_i) on [-1, 1]
    proj_ho = mass[:p] / leg_norms[:, None]       # mass[:p] = (L_i, phi_j), i = 1..p
    # Penalty mass: Gram matrix of the high-order component of the direct-sum
    # decomposition (polynomial coefficients only).  Penalizing the L2
    # projection pi_ho instead would leave oscillatory piecewise-constant /
    # polynomial combinations unpenalized and the large-gamma limit would not
    # be the monotone sub-cell-average representation.
    mass_pp = np.diag(np.concatenate([leg_norms, np.zeros(n)]))

    return ReferenceElement(
        p=p, n=n, n_quad=q, gauss=gauss,
        quad_ref=quad_ref, quad_w=quad_w,
        phi=phi, dphi_ref=dphi,
        sub_edges=edges, leg_face=leg_face, leg_sub_avg=leg_sub_avg,
        mass=mass, mass_pp=mass_pp, proj_ho=proj_ho,
    )


@lru_cache(maxsize=None)
def penalty_eigenbasis(p: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, W, M W): the p eigenpairs M_pp w = lam M w with lam > 0, W^T M W = I
    and W^T M_pp W = diag(lam) (Golub & Van Loan, Matrix Computations, 8.7).
    M_pp has rank p, so (M + c M_pp)^{-1} = M^{-1} - W diag(c lam/(1 + c lam)) W^T
    for c >= 0.  Built on first use: only penalized elements need it."""
    ref = reference_element(p, n)
    l_inv = np.linalg.inv(np.linalg.cholesky(ref.mass))
    lam, V = np.linalg.eigh(l_inv @ ref.mass_pp @ l_inv.T)   # ascending
    W = l_inv.T @ V[:, n:]
    return lam[n:], W, ref.mass @ W


def penalty_stage_rate(p: int, n: int, U: np.ndarray, gammas: np.ndarray,
                       c: float) -> np.ndarray:
    """Rate r of the frozen penalty stage (M + c gamma M_pp) r = -gamma M_pp U
    on each element of U (m, E, dof), gammas (E,):
    r = -W diag(gamma lam / (1 + c gamma lam)) W^T M U; h cancels; r = 0 where
    gamma = 0.  The stage weight c = dt a_ii gives an implicit stage, c = 0 the penalty rate
    -M^{-1} gamma M_pp U, and U + r at c = 1 the penalized projection of the
    function whose L2 projection is U."""
    lam, W, MW = penalty_eigenbasis(p, n)
    glam = gammas[:, None] * lam                       # (E, p)
    return -((U @ MW) * (glam / (1.0 + c * glam))) @ W.T


def element_reference(mesh: Mesh, p: int) -> ReferenceElement:
    """The reference element of a one-element mesh at degree p; ValueError
    for a mesh of any other size."""
    if mesh.n_elements != 1:
        raise ValueError(f"a single-element function takes a one-element mesh, "
                         f"not {mesh.n_elements} elements")
    return reference_element(p, mesh.n_sub)


def basis_eval(mesh: Mesh, p: int, i: int, x) -> np.ndarray | float:
    """Value of local basis function i of a one-element mesh at physical
    coordinate(s) x."""
    n = element_reference(mesh, p).n
    if not 0 <= i < p + n:
        raise IndexError(f"basis index {i} out of range for dof={p + n}")
    xi = mesh.reference_coords(np.asarray(x, dtype=float)[None])[0]
    if i < p:
        return legendre_eval(i + 1, xi)
    sub = np.clip(np.floor((xi + 1.0) * n / 2.0), 0, n - 1)   # x's sub-cell
    return np.where(sub == i - p, 1.0, 0.0)


def assemble_mass(mesh: Mesh, p: int) -> np.ndarray:
    """Mass matrix M_ij = (phi_j, phi_i)_K of a one-element mesh."""
    return element_reference(mesh, p).mass * (mesh.widths[0] / 2.0)


def assemble_penalty_mass(mesh: Mesh, p: int) -> np.ndarray:
    """Singular penalty mass matrix of a one-element mesh: the Legendre Gram
    block of the polynomial coefficients in the upper-left corner, else zero."""
    return element_reference(mesh, p).mass_pp * (mesh.widths[0] / 2.0)
