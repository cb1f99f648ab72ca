"""Local projections onto the combined space and the injectivity checker.

Coefficient vectors follow the basis ordering of `basis`: p zero-average
Legendre modes first, then the n sub-cell indicator coefficients.  A
projection of a function (`project_l2`, `project_penalized`) reads its
element's geometry and takes a one-element `Mesh` and the degree p; a map
between coefficients (`project_lo`, `project_ho`, `project_avg_preserving`)
reads only the reference element and takes (p, n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from .basis import (  # NonInjectiveError re-exported
    NonInjectiveError,
    assemble_mass,
    element_reference,
    gauss_rule,
    penalty_stage_rate,
    reference_element,
)
from .mesh import Mesh

RANK_TOL = 1e-10         # relative singular-value cutoff for injectivity


def _quad_rhs(f, mesh: Mesh, p: int, breakpoints=None) -> np.ndarray:
    """Inner products (f, phi_i)_K via per-sub-cell Gauss quadrature on K, the
    one element of `mesh`.

    `breakpoints` lists known discontinuity locations of f; sub-cells that
    straddle one are integrated piecewise so the rule never crosses a jump.
    f is called once, on the nodes of all pieces; it may be vector-valued,
    returning shape (m, q) at q points, and the result then has shape
    (m, dof).  The pieces' sums are added in order, piece by piece.
    """
    ref = element_reference(mesh, p)
    g, w = ref.gauss
    edges = mesh.nodes(ref.sub_edges)[0]
    inside = [] if breakpoints is None else [
        float(c) for c in breakpoints if edges[0] < c < edges[-1] and c not in edges]
    cuts = np.sort(np.concatenate([edges, inside]))
    a, c = cuts[:-1, None], cuts[1:, None]                 # (pieces, 1)
    owner = np.searchsorted(edges, cuts[:-1], side="right") - 1
    xq = 0.5 * (a + c) + 0.5 * (c - a) * g
    fv = np.asarray(f(xq.ravel()), dtype=float)
    fw = (0.5 * (c - a) * w) * fv.reshape(fv.shape[:-1] + xq.shape)
    xi = mesh.reference_coords(xq[None])[0]
    # (..., p + 1, pieces): the moments of the Legendre modes 0..p, mode 0 the plain sum
    sums = np.sum(fw[..., None, :, :] * npleg.legval(xi, np.eye(p + 1)), axis=-1)
    b = np.zeros(fv.shape[:-1] + (ref.dof,))
    for k, s in enumerate(owner):
        b[..., :p] += sums[..., 1:, k]
        b[..., p + s] += sums[..., 0, k]
    return b


def project_l2(f, mesh: Mesh, p: int, breakpoints=None) -> np.ndarray:
    """L2 projection of f onto the degree-p space of the one element of
    `mesh`; solves M c = b.  A vector-valued f gives shape (m, dof)."""
    b = _quad_rhs(f, mesh, p, breakpoints)
    return np.linalg.solve(assemble_mass(mesh, p), b[..., None])[..., 0]


def project_ho(c: np.ndarray, p: int, n: int) -> np.ndarray:
    """Coefficients (Legendre modes 1..p) of the zero-average polynomial
    L2 projection of the function represented by c in the (p, n) space."""
    c = np.asarray(c, dtype=float)
    if c.shape[-1] != p + n:
        raise ValueError(f"coefficient length {c.shape[-1]} is not p + n = {p + n}")
    return c @ reference_element(p, n).proj_ho.T


def project_lo(c: np.ndarray, p: int, n: int) -> np.ndarray:
    """Sub-cell averages of the function represented by c in the (p, n) space."""
    c = np.asarray(c, dtype=float)
    if c.shape[-1] != p + n:
        raise ValueError(f"coefficient length {c.shape[-1]} is not p + n = {p + n}")
    poly_avg = c[..., :p] @ reference_element(p, n).leg_sub_avg[1:]
    return poly_avg + c[..., p:]


def project_penalized(f, mesh: Mesh, p: int, gamma: float, breakpoints=None) -> np.ndarray:
    """Penalized L2 projection: solves (M + gamma * M_pp) u = b as the L2
    projection u_0 plus the penalty filter of u_0 at stage weight 1
    (`penalty_stage_rate`).  gamma = 0 is exactly project_l2; gamma ->
    infinity drives the polynomial modes to zero, leaving the monotone
    sub-cell-average projection.
    """
    if gamma < 0:
        raise ValueError("penalty parameter must be non-negative")
    u0 = project_l2(f, mesh, p, breakpoints)
    rate = penalty_stage_rate(p, mesh.n_sub, u0[..., None, :], np.array([gamma]), 1.0)
    return u0 + rate[..., 0, :]


def project_avg_preserving(c: np.ndarray, p: int, n: int) -> np.ndarray:
    """Best full polynomial (L_0..L_p coefficients) matching the sub-cell
    averages of c in the (p, n) space by least squares (`ReferenceElement.average_fit`)."""
    return project_lo(c, p, n) @ reference_element(p, n).average_fit.T


@dataclass(frozen=True)
class InjectivityReport:
    p: int
    r: int
    d: int
    n: int
    dofs: int
    injective: bool
    smin: float
    smax: float


def _simplex_subdivision_2d(r: int) -> list[np.ndarray]:
    """Uniform tiling of the unit triangle into (r+1)^2 congruent triangles."""
    k = r + 1
    tris = []
    for j in range(k):
        for i in range(k - j):
            v = np.array([[i, j], [i + 1, j], [i, j + 1]], dtype=float) / k
            tris.append(v)
            if i + j <= r - 1:
                w = np.array([[i + 1, j], [i + 1, j + 1], [i, j + 1]], dtype=float) / k
                tris.append(w)
    return tris


def _triangle_monomial_averages(tri: np.ndarray, exponents) -> np.ndarray:
    """Averages of x^a y^b over a triangle via a Duffy-mapped Gauss rule."""
    g, w = gauss_rule(12)
    a = 0.5 * (g + 1.0)
    wa = 0.5 * w
    # Duffy map of the unit square onto the reference triangle
    xi = a[:, None] * (1.0 - a[None, :])
    eta = np.broadcast_to(a[None, :], xi.shape)
    jac = (1.0 - a[None, :])
    wq = (wa[:, None] * wa[None, :] * jac).ravel()
    v0, v1, v2 = tri
    x = v0[0] + (v1[0] - v0[0]) * xi + (v2[0] - v0[0]) * eta
    y = v0[1] + (v1[1] - v0[1]) * xi + (v2[1] - v0[1]) * eta
    x, y = x.ravel(), y.ravel()
    # wq integrates over the reference triangle (area 1/2); averages need 1/area_ref
    out = np.array([np.sum(wq * x**ax * y**ay) for ax, ay in exponents])
    return out / 0.5


def check_injectivity(p: int, r: int, d: int) -> InjectivityReport:
    """Numerical rank check of sub-cell averaging on the full polynomial space.

    Builds the matrix of averages of a monomial basis of total degree <= p over
    the uniform sub-division of the unit simplex into (r+1)^d congruent cells
    and inspects its singular values.
    """
    if p < 0 or r < 0:
        raise ValueError("p and r must be non-negative")
    if d not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if d == 1:
        k = r + 1
        dofs = p + 1
        edges = np.linspace(0.0, 1.0, k + 1)
        powers = np.arange(p + 1)
        # average of x^m over [a, b] = (b^{m+1} - a^{m+1}) / ((m+1)(b-a))
        upper = edges[1:, None] ** (powers[None, :] + 1)
        lower = edges[:-1, None] ** (powers[None, :] + 1)
        A = (upper - lower) / ((powers[None, :] + 1) * (1.0 / k))
        n = k
    else:
        tris = _simplex_subdivision_2d(r)
        exponents = [(ax, ay) for tot in range(p + 1)
                     for ax in range(tot + 1) for ay in [tot - ax]]
        dofs = (p + 1) * (p + 2) // 2
        A = np.array([_triangle_monomial_averages(t, exponents) for t in tris])
        n = len(tris)

    sv = np.linalg.svd(A, compute_uv=False)
    smax = float(sv[0])
    smin = float(sv[-1]) if A.shape[0] >= A.shape[1] else 0.0
    injective = A.shape[0] >= A.shape[1] and smin > RANK_TOL * smax
    return InjectivityReport(p=p, r=r, d=d, n=n, dofs=dofs,
                             injective=injective, smin=smin, smax=smax)
