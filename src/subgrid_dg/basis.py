"""Modal Legendre + sub-cell indicator basis, quadrature, and mass matrices.

The local space on an element combines zero-average Legendre modes of degree
1..p with the characteristic functions of the n sub-cells.  For p = 0 this is
the piecewise-constant finite volume space; for n = 1 it is standard modal DG.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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


class NonInjectiveError(ValueError):
    """Sub-cell averaging is rank deficient on the polynomial space."""


def _combined(leg: np.ndarray) -> np.ndarray:
    """Legendre rows 0..p over the n sub-cells, (p+1, n, ...), to the combined
    basis's rows, (p+n, n, ...): modes 1..p, then the n sub-cell indicators."""
    n = leg.shape[1]
    eye = np.eye(n).reshape((n, n) + (1,) * (leg.ndim - 2))
    return np.concatenate([leg[1:], np.broadcast_to(eye, (n,) + leg.shape[1:])])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ReferenceElement:
    """Every matrix on [-1, 1] that (p, n) fixes and the package reads, shared
    by all elements with that pair (Hesthaven & Warburton, 2008, `StartUp1D`).
    Basis ordering: Legendre modes 1..p, then sub-cell indicators left to
    right.  Mass-type matrices scale to an element of width h by h/2.  The
    step operators, `phi_q` to `mass_inv_t`, apply as `X @ op` to (m, E, .)
    arrays; only the source and the mass solve carry h.  The last three
    members are built on first use.  Every array is read-only, since every
    caller of (p, n) shares it."""

    p: int
    n: int
    dof: int                    # p + n
    gauss: tuple                # (nodes, weights) of the q-point Gauss rule on [-1, 1]
    quad_ref: np.ndarray        # (n, q) quadrature nodes per sub-cell, in [-1, 1]
    quad_w: np.ndarray          # (n, q) weights, summing to 2
    phi: np.ndarray             # (dof, n, q) basis values at quadrature nodes
    sub_edges: np.ndarray       # (n+1,) sub-cell boundaries in [-1, 1]
    leg_sub_avg: np.ndarray     # (p+1, n) sub-cell averages of Legendre modes 0..p
    mass: np.ndarray            # (dof, dof) Gram matrix on [-1, 1]
    mass_pp: np.ndarray         # (dof, dof) penalty mass: polynomial block only
    proj_ho: np.ndarray         # (p, dof) coefficients of pi_ho of each basis function
    phi_q: np.ndarray           # (dof, n*q) basis values at the quadrature nodes
    trace_left: np.ndarray      # (dof, n) traces at the left face of each sub-cell
    trace_right: np.ndarray     # (dof, n) and at its right face
    volume: np.ndarray          # (n*q, dof) w_ref * d(phi)/d(xi) at the quadrature nodes
    lift_left: np.ndarray       # (n, dof) lift of the flux at each sub-cell's left face
    lift_right: np.ndarray      # (n, dof) and at its right face
    source: np.ndarray          # (n*q, dof) w_ref * phi at the quadrature nodes, times h/2
    mass_inv_t: np.ndarray      # (dof, dof) M_ref^{-1} transposed; the physical mass is (h/2) M_ref

    def __post_init__(self):
        for a in (*self.gauss, *(v for v in vars(self).values() if isinstance(v, np.ndarray))):
            _read_only(a)

    @cached_property
    def penalty_eigenbasis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lam, W, M W): the p eigenpairs M_pp w = lam M w with lam > 0, W^T M W = I
        and W^T M_pp W = diag(lam) (Golub & Van Loan, Matrix Computations, 8.7).
        M_pp has rank p, so (M + c M_pp)^{-1} = M^{-1} - W diag(c lam/(1 + c lam)) W^T
        for c >= 0.  Only penalized elements need it."""
        l_inv = np.linalg.inv(np.linalg.cholesky(self.mass))
        lam, V = np.linalg.eigh(l_inv @ self.mass_pp @ l_inv.T)   # ascending
        W = l_inv.T @ V[:, self.n:]
        return tuple(map(_read_only, (lam[self.n:], W, self.mass @ W)))

    @cached_property
    def average_fit(self) -> np.ndarray:
        """pinv(leg_sub_avg.T): maps sub-cell averages to the L_0..L_p coefficients
        of their least-squares polynomial fit (equal sub-cell measures, so no
        weights); NonInjectiveError if n < p + 1, where averaging is rank deficient."""
        if self.n < self.p + 1:
            raise NonInjectiveError(
                f"sub-cell averaging is rank deficient for (p={self.p}, n={self.n})")
        return _read_only(np.linalg.pinv(self.leg_sub_avg.T))

    @cached_property
    def sensor_operator(self) -> np.ndarray:
        """(2n, dof) matrix mapping coefficients to the sub-cell averages (first
        n rows) and to the residual of the best average-preserving polynomial
        fit of those averages (last n): res = (G pinv(G) - I) avg, G = leg_sub_avg.T."""
        fit_residual = self.leg_sub_avg.T @ self.average_fit - np.eye(self.n)
        averages = _combined(self.leg_sub_avg).T                  # (n, dof)
        return _read_only(np.vstack([averages, fit_residual @ averages]))


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

    phi = _combined(leg_q)
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

    trace_left, trace_right = _combined(leg_face[:, :-1]), _combined(leg_face[:, 1:])
    # the lifts are the transposed traces, but the polynomial modes, continuous
    # across sub-cell faces, see only the element boundaries
    lift_left, lift_right = trace_left.T.copy(), -trace_right.T.copy()
    lift_left[1:, :p] = lift_right[:-1, :p] = 0.0

    return ReferenceElement(
        p=p, n=n, dof=p + n, gauss=gauss,
        quad_ref=quad_ref, quad_w=quad_w,
        phi=phi, sub_edges=edges, leg_sub_avg=leg_sub_avg,
        mass=mass, mass_pp=mass_pp, proj_ho=proj_ho,
        phi_q=phi.reshape(p + n, n * q),
        trace_left=trace_left, trace_right=trace_right,
        volume=(dphi * quad_w[None]).reshape(p + n, n * q).T.copy(),
        lift_left=lift_left, lift_right=lift_right,
        source=(phi * quad_w[None]).reshape(p + n, n * q).T.copy(),
        mass_inv_t=np.linalg.inv(mass).T.copy(),
    )


def penalty_filter(p: int, n: int, gammas: np.ndarray, c: float):
    """The map U (m, ..., E, dof) -> r, the rate of the frozen penalty stage
    (M + c gamma M_pp) r = -gamma M_pp U with gammas (E,): r = W diag(f) W^T M U,
    f = -gamma lam / (1 + c gamma lam) formed once; h cancels; r = 0 where gamma = 0.
    c = dt a_ii gives an implicit stage, c = 0 the penalty rate -M^{-1} gamma M_pp U,
    and U + r at c = 1 the penalized projection of the function whose L2 projection is U."""
    lam, W, MW = reference_element(p, n).penalty_eigenbasis
    glam = gammas[:, None] * lam                       # (E, p)
    f = -glam / (1.0 + c * glam)
    return lambda U: ((U @ MW) * f) @ W.T


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
