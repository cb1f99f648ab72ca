"""Conservation laws, Roe numerical fluxes, and boundary conditions.

All state arguments are arrays of shape (m, ...) so the same code path serves
point evaluations and whole-face batches.

A residual takes its three terms from one `fluxes(u_q, uL, uR, geom)` call,
exactly `(flux(u_q), roe_flux(uL, uR), source(u_q, geom=geom))` (the source
None without one), and the FV march its faces from `interface_fluxes(u)`,
exactly `roe_flux(u[:, :-1], u[:, 1:])`.  The Euler laws answer all three from
one column routine, one checked pass whose pressure the nozzle source reads
and one Roe flux between two slices of the columns, so each call checks the
density, then the pressure, then the Roe sound speed of all its columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class AdmissibilityError(RuntimeError):
    """State left the admissible set (e.g. non-positive density or pressure)."""


def _as_state(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return u[None] if u.ndim == 0 else u


class ConservationLaw:
    """Base interface: flux, Roe flux, wave speeds, optional source.

    A law whose terms depend on position builds its fixed per-point data
    with `geometry(x)`.  Only `source` reads position, from `x` or from that
    data as `geom`, which a caller with fixed points computes once; the other
    calls' `x` is unread, kept only because perfbench/ passes it.
    """

    m = 1           # state components; `m` and `name` are class constants

    def geometry(self, x):
        """Per-point data at x that the law's calls take as `geom`: for a
        law posed in a duct its first entry is the area A(x); None for a
        law that does not depend on position."""
        return None

    def flux(self, u, x=None) -> np.ndarray:
        raise NotImplementedError

    def roe_flux(self, uL, uR, x=None, entropy_fix: bool = False) -> np.ndarray:
        raise NotImplementedError

    def fluxes(self, u_q, uL, uR, geom=None):
        """(flux(u_q), roe_flux(uL, uR), source(u_q, geom=geom)) of quadrature
        states u_q (m, ...) and face states uL, uR (m, F): the three terms of
        one residual, the source None for a law without one."""
        source = self.source(u_q, geom=geom) if self.has_source() else None
        return self.flux(u_q), self.roe_flux(uL, uR), source

    def interface_fluxes(self, u):
        """roe_flux(u[:, :-1], u[:, 1:]): the Roe flux at the N faces between
        neighbours of a row of states u (m, N + 1)."""
        return self.roe_flux(u[:, :-1], u[:, 1:])

    def max_wave_speed(self, u, x=None) -> float:
        raise NotImplementedError

    def source(self, u, x=None, geom=None) -> np.ndarray:
        return np.zeros_like(_as_state(u))

    def has_source(self) -> bool:
        return False

    def admissible(self, u) -> np.ndarray:
        """Pointwise physical-admissibility mask (shape of u without the
        component axis)."""
        return np.ones(_as_state(u).shape[1:], dtype=bool)


@dataclass
class Convection(ConservationLaw):
    """Scalar linear convection with constant velocity beta."""

    name = "convection"
    beta: float = 1.0

    def flux(self, u, x=None):
        return self.beta * _as_state(u)

    def roe_flux(self, uL, uR, x=None, entropy_fix: bool = False):
        """The upwind flux, which is the Roe flux of a linear law (a new array)."""
        return self.beta * _as_state(uL if self.beta >= 0 else uR)

    def max_wave_speed(self, u, x=None):
        return abs(self.beta)


class Burgers(ConservationLaw):
    """Inviscid Burgers equation, F(u) = u^2 / 2."""

    name = "burgers"

    def flux(self, u, x=None):
        u = _as_state(u)
        return 0.5 * u * u

    def roe_flux(self, uL, uR, x=None, entropy_fix: bool = False):
        uL, uR = _as_state(uL), _as_state(uR)
        a = 0.5 * (uL + uR)  # Roe speed
        return 0.5 * (self.flux(uL) + self.flux(uR)) - 0.5 * np.abs(a) * (uR - uL)

    def max_wave_speed(self, u, x=None):
        return float(np.max(np.abs(u)))


def _any_nonpositive(a) -> bool:
    """(a <= 0).any() as one reduction: fmin skips a NaN as the comparison
    does, so a NaN hides no non-positive entry; -0.0 counts as one."""
    return bool(np.fmin.reduce(a, axis=None, initial=np.inf) <= 0.0)


def _euler_primitives(u, gamma_a):
    """Checked (rho, v, q, p) of states u (3, ...), with q = m v, which
    serves both the pressure and the momentum flux."""
    rho = u[0]
    if _any_nonpositive(rho):
        raise AdmissibilityError("non-positive density")
    vel = u[1] / rho
    q = u[1] * vel
    p = (gamma_a - 1.0) * (u[2] - 0.5 * q)
    if _any_nonpositive(p):
        raise AdmissibilityError("non-positive pressure")
    return rho, vel, q, p


def euler_state_from_primitives(rho, vel, p, gamma_a) -> np.ndarray:
    rho, vel, p = np.asarray(rho, dtype=float), np.asarray(vel), np.asarray(p)
    u = np.empty((3,) + np.broadcast_shapes(rho.shape, vel.shape, p.shape))
    u[0] = rho
    np.multiply(rho, vel, out=u[1, ...])
    u[2] = p / (gamma_a - 1.0) + 0.5 * rho * vel ** 2
    return u


def _euler_side(u, gamma_a):
    """The flux F = (m, m v + p, (E + p) v) of states u (3, ...), with their
    checked (rho, v, p, E + p)."""
    rho, vel, q, p = _euler_primitives(u, gamma_a)
    Ep = u[2] + p
    F = np.empty(u.shape)
    F[0] = u[1]
    np.add(q, p, out=F[1, ...])
    np.multiply(Ep, vel, out=F[2, ...])
    return F, rho, vel, p, Ep


def _roe_side(rho, vel, p, Ep):
    """What the Roe flux reads of one side's states: (v, p, s, s v, (E + p)/s)
    with s = sqrt(rho), the weights of Roe's averages."""
    s = np.sqrt(rho)
    return vel, p, s, s * vel, Ep / s


def _roe(uL, uR, FL, FR, sideL, sideR, gamma_a):
    """Roe flux 0.5 (F(uL) + F(uR)) - 0.5 |A~| (uR - uL) from the side
    fluxes FL, FR and sides (v, p, s, s v, (E + p)/s) of `_roe_side`, with the
    dissipation in the compact form (Roe, J. Comput. Phys. 43, 1981; Toro,
    Riemann Solvers and Numerical Methods for Fluid Dynamics, 3rd ed., 11.3)

        |A~| du = |l2| du + d1 (1, v~, H~) + d2 (0, 1, v~),
        d1 = (k1 dp / c~ + k2 rho~ dv) / c~,   d2 = k2 dp / c~ + k1 rho~ dv,

    with k1 = (|l1| + |l3|)/2 - |l2|, k2 = (|l3| - |l1|)/2 and
    rho~ = sL sR: the three waves summed in closed form."""
    vL, pL, sL, svL, hsL = sideL
    vR, pR, sR, svR, hsR = sideR
    inv = 1.0 / (sL + sR)
    vt = (svL + svR) * inv
    Ht = (hsL + hsR) * inv
    c2 = (gamma_a - 1.0) * (Ht - 0.5 * (vt * vt))
    if _any_nonpositive(c2):
        raise AdmissibilityError("negative Roe-averaged sound speed")
    ct = np.sqrt(c2)
    ic = 1.0 / ct
    lam1, lam3 = vt - ct, vt + ct
    a1, a2, a3 = np.abs(lam1), np.abs(vt), np.abs(lam3)
    k1 = 0.5 * (a1 + a3) - a2
    k2 = 0.5 * (a3 - a1)
    rdv = sL * sR * (vR - vL)
    dpc = (pR - pL) * ic
    d1 = (k1 * dpc + k2 * rdv) * ic
    d2 = k2 * dpc + k1 * rdv

    # row k: 0.5 (F_k(uL) + F_k(uR) - (|A~| du)_k)
    out = FL + FR
    out[0] -= a2 * (uR[0] - uL[0]) + d1
    out[1] -= a2 * (uR[1] - uL[1]) + d1 * vt + d2
    out[2] -= a2 * (uR[2] - uL[2]) + d1 * Ht + d2 * vt
    out *= 0.5
    return out


class Euler1D(ConservationLaw):
    """1D compressible Euler equations for an ideal gas."""

    m = 3
    name = "euler1d"
    gamma_a = 1.4

    def primitives(self, u):
        rho, vel, _, p = _euler_primitives(_as_state(u), self.gamma_a)
        return rho, vel, p

    def admissible(self, u):
        u = _as_state(u)        # _euler_primitives' pressure, so false where it raises
        with np.errstate(divide="ignore", invalid="ignore"):
            p = (self.gamma_a - 1.0) * (u[2] - 0.5 * (u[1] * (u[1] / u[0])))
        return (u[0] > 0.0) & (p > 0.0)

    def flux(self, u, x=None):
        return _euler_side(_as_state(u), self.gamma_a)[0]

    def _columns(self, u, nq, L, R):
        """(F, p, F_hat) of the columns of u (3, K): F and p of every column
        from one checked `_euler_side` pass, and the Roe flux between the
        face columns L and R (slices of u[:, nq:]) from one `_roe_side` pass."""
        F, rho, vel, p, Ep = _euler_side(u, self.gamma_a)
        side = _roe_side(rho[nq:], vel[nq:], p[nq:], Ep[nq:])
        uf, Ff = u[:, nq:], F[:, nq:]
        F_hat = _roe(uf[:, L], uf[:, R], Ff[:, L], Ff[:, R], [a[L] for a in side],
                     [a[R] for a in side], self.gamma_a)
        return F, p, F_hat

    def roe_flux(self, uL, uR, x=None, entropy_fix: bool = False):
        """The Roe flux on the columns [uL | uR]; `entropy_fix`, kept only
        because perfbench/micro.py passes it, must be False."""
        if entropy_fix:
            raise ValueError("the Harten entropy fix was removed from the Roe flux")
        uL, uR = _as_state(uL), _as_state(uR)
        nf = uL[0].size
        u = np.concatenate([uL.reshape(3, nf), uR.reshape(3, nf)], axis=1)
        return self._columns(u, 0, slice(None, nf), slice(nf, None))[2].reshape(uL.shape)

    def fluxes(self, u_q, uL, uR, geom=None):
        """The three terms on the columns [u_q | uL | uR]; the faces of a
        stack of states, (3, *batch, F), are flattened into columns."""
        nq, nf = u_q[0].size, uL[0].size
        u = np.concatenate([u_q.reshape(3, nq), uL.reshape(3, nf), uR.reshape(3, nf)], axis=1)
        F, p, F_hat = self._columns(u, nq, slice(None, nf), slice(nf, None))
        source = (self.source(u_q, geom=geom, pressure=p[:nq].reshape(u_q.shape[1:]))
                  if self.has_source() else None)
        return F[:, :nq].reshape(u_q.shape), F_hat.reshape(uL.shape), source

    def interface_fluxes(self, u):
        """The Roe flux on the row u, its columns [:-1] against [1:]."""
        return self._columns(u, 0, slice(None, -1), slice(1, None))[2]

    def max_wave_speed(self, u, x=None):   # x unread, kept for perfbench's FV clock
        u = _as_state(u)
        # |v| + sqrt(gamma p / rho), in place in the fresh v and p arrays (a
        # point state is viewed as (3, 1), so that they are arrays)
        rho, vel, _, p = _euler_primitives(u.reshape(len(u), -1), self.gamma_a)
        p *= self.gamma_a
        p /= rho
        return float(np.add(np.abs(vel, out=vel), np.sqrt(p, out=p), out=vel).max())


def nozzle_area(x) -> tuple[np.ndarray, np.ndarray]:
    """Nozzle cross-section A(x) with throat height 0.8, and its derivative."""
    x = np.asarray(x, dtype=float)
    throat = 0.8
    theta = np.pi * (x - 0.5) / 0.8
    inside = (x >= 0.1) & (x <= 0.9)
    A = np.where(inside, 1.0 - (1.0 - throat) * np.cos(theta) ** 2, 1.0)
    dA = np.where(inside, (1.0 - throat) * (np.pi / 0.8) * np.sin(2.0 * theta), 0.0)
    return A, dA


class NozzleEuler(Euler1D):
    """Quasi-1D Euler flow in a duct of area A(x): area-weighted state
    u = A (rho, rho v, rho E), momentum source p dA/dx.

    The Euler flux is homogeneous of degree one, F(lambda w) = lambda F(w)
    (Toro, Riemann Solvers and Numerical Methods for Fluid Dynamics, 3rd
    ed., 3.1.2), and so is the Roe flux of two sides scaled by one lambda,
    whose Roe averages and wave speeds do not change (Roe,
    J. Comput. Phys. 43, 1981).  So A F(u/A) = F(u): the flux, Roe flux,
    wave speed and admissibility (A > 0 keeps every sign) are `Euler1D`'s,
    and the inherited `primitives` returns (A rho, v, A p).  The area enters
    only the source and the farfield ghost.
    """

    name = "nozzle"

    def geometry(self, x):
        """(A, (dA/dx) / A) at x; ValueError without x."""
        if x is None:
            raise ValueError("the nozzle law needs the position x of its area A(x)")
        A, dA = nozzle_area(x)
        return A, dA / A

    def source(self, u, x=None, geom=None, pressure=None):
        u = _as_state(u)
        _, dlogA = self.geometry(x) if geom is None else geom
        # the pressure of the weighted state is A p, `pressure` when the caller
        # has already derived and checked it: (A p) (dA/dx) / A
        Ap = _euler_primitives(u, self.gamma_a)[3] if pressure is None else pressure
        out = np.zeros_like(u)
        out[1] = Ap * dlogA
        return out

    def has_source(self):
        return True


@dataclass(frozen=True)
class BoundaryCondition:
    """One of periodic | prescribed | wall | farfield.

    prescribed carries a full conserved state; farfield carries (rho, u, M)
    from which the full state is reconstructed via c = u/M, p = rho c^2 / gamma.
    """

    kind: str
    state: tuple | None = None          # conserved state, for "prescribed"
    farfield: tuple | None = None       # (rho, u, M), for "farfield"

    def __post_init__(self):
        if self.kind not in ("periodic", "prescribed", "wall", "farfield"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "farfield":
            if self.farfield is None or self.farfield[2] == 0:
                raise ValueError("farfield needs (rho, u, M) with M != 0")
        if self.kind == "prescribed" and self.state is None:
            raise ValueError("prescribed boundary needs a conserved state")


def farfield_state(rho: float, vel: float, mach: float, gamma_a: float) -> np.ndarray:
    """Full conserved state from (rho, u, M): c = u/M, p = rho c^2 / gamma."""
    if mach == 0:
        raise ValueError("farfield Mach number must be non-zero")
    c = vel / mach
    p = rho * c * c / gamma_a
    return euler_state_from_primitives(rho, vel, p, gamma_a)


@lru_cache(maxsize=8)
def _farfield_primitives(farfield: tuple, gamma_a: float) -> tuple[float, float, float]:
    """(rho, u, p) of a farfield boundary, as the checked primitives of its
    conserved state, once per farfield data and gamma."""
    rho, vel, _, p = _euler_primitives(farfield_state(*farfield, gamma_a), gamma_a)
    return float(rho), float(vel), float(p)


def _characteristic_farfield(u_int, far, side: int, gamma_a: float,
                             x: float | None = None) -> list[float]:
    """Boundary state from linearized characteristic relations.

    Outgoing invariants are extrapolated from the interior; incoming ones are
    taken from the farfield data.  For subsonic outflow this pins the boundary
    pressure to the farfield pressure, which is what selects the choked,
    shock-carrying branch of a transonic duct flow.  ``side`` is the outward
    normal direction (-1 left boundary, +1 right).  ``u_int`` is the interior
    conserved state and ``far`` the farfield primitives (rho, u, p), as
    Python floats: one face costs less in float arithmetic than in numpy
    calls.  Squares are written ``v * v``, never ``v ** 2``, so that every
    operation rounds as in the numpy form of the same formulas
    (`euler_state_from_primitives`).  A non-physical interior state raises
    AdmissibilityError naming the boundary and x.
    """
    rho_d, mom_d, ene_d = u_int
    if rho_d <= 0.0:
        raise _farfield_abort("density", side, x)
    u_d = mom_d / rho_d
    p_d = (gamma_a - 1.0) * (ene_d - 0.5 * rho_d * u_d * u_d)
    if p_d <= 0.0:
        raise _farfield_abort("pressure", side, x)
    rho_a, u_a, p_a = far
    c_d = math.sqrt(gamma_a * p_d / rho_d)
    rc = rho_d * c_d
    qn_d = side * u_d
    if qn_d >= c_d:                      # supersonic outflow: pure extrapolation
        rho_b, u_b, p_b = rho_d, u_d, p_d
    elif qn_d <= -c_d:                   # supersonic inflow: pure farfield
        rho_b, u_b, p_b = rho_a, u_a, p_a
    elif qn_d >= 0.0:                    # subsonic outflow
        p_b = p_a
        rho_b = rho_d + (p_b - p_d) / (c_d * c_d)
        u_b = u_d + side * (p_d - p_b) / rc
    else:                                # subsonic inflow
        p_b = 0.5 * (p_a + p_d - rc * side * (u_a - u_d))
        rho_b = rho_a + (p_b - p_a) / (c_d * c_d)
        u_b = u_a - side * (p_a - p_b) / rc
    return [rho_b, rho_b * u_b, p_b / (gamma_a - 1.0) + 0.5 * rho_b * (u_b * u_b)]


def _farfield_abort(what: str, side: int, x) -> AdmissibilityError:
    where = "left" if side < 0 else "right"
    at = "" if x is None else f" at x={float(x):.6g}"
    return AdmissibilityError(
        f"non-positive {what} of the interior trace at the {where} farfield boundary{at}")


def check_boundary_law(bc: BoundaryCondition, law: ConservationLaw, end: str) -> None:
    """A wall or farfield ghost is an Euler state: ValueError naming the end,
    the kind and the law for those boundaries on any other law."""
    if bc.kind in ("wall", "farfield") and not isinstance(law, Euler1D):
        raise ValueError(f"the {end} {bc.kind} boundary needs an Euler law, not {law.name!r}")


def boundary_area(law: ConservationLaw, x) -> float:
    """Area of the law's duct at the point x (1 for a law without a duct)."""
    geom = law.geometry(x)
    return 1.0 if geom is None else float(geom[0])


def boundary_ghost(bc: BoundaryCondition, u_interior, law: ConservationLaw,
                   t: float = 0.0, x: float | None = None,
                   side: int = 1, area: float | None = None) -> np.ndarray:
    """Ghost state seen across a domain boundary face.

    A wall or farfield ghost needs an Euler law (`check_boundary_law`).  A
    farfield ghost of a law posed in a duct is built from the state per unit
    area, ``area`` the duct's area at the face (`boundary_area(law, x)` when
    not given).  It takes one face's state; a batch of more than one raises
    ValueError naming the side.  ``t`` is unread: perfbench/micro.py passes it.
    """
    u_interior = _as_state(u_interior)
    if bc.kind == "periodic":
        raise ValueError("periodic boundaries are handled by wrap-around, not ghosts")
    check_boundary_law(bc, law, "left" if side < 0 else "right")
    if bc.kind == "wall":
        ghost = u_interior.copy()
        ghost[1] = -ghost[1]
        return ghost
    shape = (u_interior.shape[0],) + (1,) * (u_interior.ndim - 1)
    if bc.kind == "prescribed":
        return np.asarray(bc.state, dtype=float).reshape(shape)
    if u_interior.size != u_interior.shape[0]:
        raise ValueError(f"the {'left' if side < 0 else 'right'} farfield boundary takes "
                         f"one state, not a batch of shape {u_interior.shape[1:]}")
    if area is None:
        area = boundary_area(law, x)
    u_int = [v / area for v in u_interior.ravel().tolist()]
    far = _farfield_primitives(tuple(bc.farfield), law.gamma_a)
    ghost = _characteristic_farfield(u_int, far, side, law.gamma_a, x)
    return np.array([v * area for v in ghost]).reshape(shape)


_LAWS = {law.name: law for law in (Convection, Burgers, Euler1D, NozzleEuler)}


def make_law(name: str, **kwargs) -> ConservationLaw:
    if name not in _LAWS:
        raise ValueError(f"unknown conservation law {name!r}; valid: {', '.join(_LAWS)}")
    return _LAWS[name](**kwargs)
