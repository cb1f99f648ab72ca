"""Semi-discrete DG residual on the combined space and IMEX time stepping.

The state is a dense array U of shape (m, n_elements, dof) with the basis
ordering of `basis` (p Legendre modes, then n indicator coefficients).

The reference operators of a step are built once per Discretization, as the
volume and LIFT matrices of nodal DG codes are (Hesthaven & Warburton,
2008), so each stage is a few small matmuls over all components and
elements at once: basis values at the quadrature nodes, sub-cell face
traces, the volume term (indicators have zero derivative, so only the
polynomial modes see it), one lift matrix each for the flux at the left and
right face of every sub-cell, the source moment and M_ref^{-1}.  Every
sub-cell face flux is computed once and shared.  Surface contributions of
the continuous polynomial test modes telescope across interior sub-cell
faces, so they only see the element-boundary fluxes.

The Discretization also holds the law's geometry (`law.geometry`, e.g. the
nozzle's A and (dA/dx)/A) at the quadrature nodes only, and the duct area at
the two domain ends for the ghosts, so a step evaluates no geometry.

`imex_step` is ARS(2,2,2) (Ascher, Ruuth & Spiteri, 1997) written out as its
three stages.  It keeps the implicit stage rates on the slice of elements
from the first to the last penalized one and does no implicit work when none
is penalized.  A stage's penalty solve is a closed-form filter of the
polynomial modes in the penalty eigenbasis (`basis.penalty_eigenbasis`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import ElementSpace, penalty_eigenbasis, reference_element
from .mesh import Mesh
from .physics import (
    AdmissibilityError,
    BoundaryCondition,
    ConservationLaw,
    boundary_area,
    boundary_ghost,
)
from .projections import project_lo
from .sensor import SensorConfig, SensorReport, evaluate_field_sensor


class SolverAbort(RuntimeError):
    """Time integration failed (NaN/Inf or admissibility loss)."""


@dataclass(frozen=True)
class FieldState:
    """Global coefficient vector with its time stamp."""

    U: np.ndarray    # (m, n_elements, dof)
    time: float

    def copy(self) -> "FieldState":
        return FieldState(U=self.U.copy(), time=self.time)


@dataclass(frozen=True)
class IMEXTableau:
    """Additive Runge-Kutta tableau: implicit A/b, explicit A_hat/b_hat."""

    A: np.ndarray
    A_hat: np.ndarray
    b: np.ndarray
    b_hat: np.ndarray

    @property
    def stages(self) -> int:
        return len(self.b)


def ars222() -> IMEXTableau:
    """ARS(2,2,2) with alpha = 1 - 1/sqrt(2), delta = -2 sqrt(2)/3."""
    alpha = 1.0 - 1.0 / np.sqrt(2.0)
    delta = -2.0 * np.sqrt(2.0) / 3.0
    A = np.array([
        [0.0, 0.0, 0.0],
        [0.0, alpha, 0.0],
        [0.0, 1.0 - alpha, alpha],
    ])
    A_hat = np.array([
        [0.0, 0.0, 0.0],
        [alpha, 0.0, 0.0],
        [delta, 1.0 - delta, 0.0],
    ])
    b = np.array([0.0, 1.0 - alpha, alpha])
    return IMEXTableau(A=A, A_hat=A_hat, b=b, b_hat=b.copy())


_ARS222 = ars222()
# its coefficients as Python floats; alpha = A_hat[1, 0] = A[2, 2] and b = b_hat = A[2]
_ALPHA, _DELTA = float(_ARS222.A[1, 1]), float(_ARS222.A_hat[2, 0])
_A_32, _A_HAT_32 = float(_ARS222.A[2, 1]), float(_ARS222.A_hat[2, 1])


class Discretization:
    """Mesh + space + law + boundary conditions, with cached geometry."""

    def __init__(
        self,
        mesh: Mesh,
        p: int,
        law: ConservationLaw,
        bc_left: BoundaryCondition,
        bc_right: BoundaryCondition,
        sensor_config: SensorConfig = SensorConfig(),
        entropy_fix: bool = False,
    ):
        if (bc_left.kind == "periodic") != (bc_right.kind == "periodic"):
            raise ValueError("periodic boundaries must be applied to both ends")
        self.mesh = mesh
        self.law = law
        self.bc_left = bc_left
        self.bc_right = bc_right
        self.sensor_config = sensor_config
        self.entropy_fix = entropy_fix
        self.periodic = bc_left.kind == "periodic"

        self.p = p
        self.n = mesh.n_sub
        self.ref = reference_element(p, self.n)
        self.dof = self.ref.dof
        self.n_elements = mesh.n_elements
        self.space = ElementSpace(p, self.n)

        h = mesh.widths
        xl = mesh.element_boundaries[:-1]
        self.h = h
        # physical quadrature nodes/weights, shape (E, n, q)
        self.xq = xl[:, None, None] + 0.5 * (self.ref.quad_ref + 1.0)[None] * h[:, None, None]
        self.wq = self.ref.quad_w[None] * (h[:, None, None] / 2.0)
        # all sub-cell face positions, shape (E*n + 1,)
        sub_edges_phys = xl[:, None] + 0.5 * (self.ref.sub_edges[None, :-1] + 1.0) * h[:, None]
        self.xfaces = np.append(sub_edges_phys.ravel(), mesh.b)
        # the law's geometry at the quadrature nodes (None for a law without
        # one), and its duct area at the two boundary faces
        self.geom_q = law.geometry(self.xq)
        self._ghost_area = (boundary_area(law, self.xfaces[0]),
                            boundary_area(law, self.xfaces[-1]))
        self._build_operators()

    def _build_operators(self) -> None:
        """Operators applied as `X @ op` to (m, E, .) arrays.  Only the mass
        solve and the source carry the element width: the h factors of
        weight and derivative in the volume term cancel."""
        ref, p, n, dof = self.ref, self.p, self.n, self.dof
        nq = ref.phi[0].size
        # basis values at the quadrature nodes, (dof, n*q)
        self._phi = ref.phi.reshape(dof, nq)
        # traces at the left / right face of each sub-cell, (dof, n)
        self._trace_left = np.vstack([ref.leg_face[1:, :-1], np.eye(n)])
        self._trace_right = np.vstack([ref.leg_face[1:, 1:], np.eye(n)])
        # volume term: w_ref * d(phi)/d(xi) at the quadrature nodes, (n*q, dof)
        self._volume = (ref.dphi_ref * ref.quad_w[None]).reshape(dof, nq).T.copy()
        # lift of the flux at each sub-cell's left / right face, (n, dof):
        # an indicator sees its own sub-cell's faces; the polynomial modes,
        # continuous across sub-cell faces, see only the element boundaries
        self._lift_left = np.zeros((n, dof))
        self._lift_left[:, p:] = np.eye(n)
        self._lift_left[0, :p] = ref.leg_face[1:, 0]
        self._lift_right = np.zeros((n, dof))
        self._lift_right[:, p:] = -np.eye(n)
        self._lift_right[-1, :p] = -ref.leg_face[1:, n]
        # source: w_ref * phi at the quadrature nodes, times h/2 per element
        self._source = (ref.phi * ref.quad_w[None]).reshape(dof, nq).T.copy()
        self._half_h = (self.h / 2.0)[:, None]
        # physical mass is (h/2) M_ref
        self._mass_inv_t = np.linalg.inv(ref.mass).T.copy()
        self._inv_half_h = (2.0 / self.h)[:, None]

    # -- spatial operator ---------------------------------------------------

    def eval_at_quad(self, U: np.ndarray) -> np.ndarray:
        """Field values at all quadrature nodes, shape (m, E, n, q)."""
        return (U @ self._phi).reshape(U.shape[0], self.n_elements, self.n, -1)

    def face_traces(self, U: np.ndarray, t: float):
        """Left/right states at every sub-cell face, shape (m, E*n + 1)."""
        m, E, n = U.shape[0], self.n_elements, self.n
        uL = np.empty((m, E * n + 1))
        uR = np.empty((m, E * n + 1))
        # traces from inside each sub-cell, written straight into the face
        # arrays (splitting the unit-stride last axis reshapes to a view)
        np.matmul(U, self._trace_left, out=uR[:, :-1].reshape(m, E, n))
        np.matmul(U, self._trace_right, out=uL[:, 1:].reshape(m, E, n))
        if self.periodic:
            uL[:, 0] = uL[:, -1]
            uR[:, -1] = uR[:, 0]
        else:
            area_l, area_r = self._ghost_area
            uL[:, 0] = boundary_ghost(
                self.bc_left, uR[:, :1], self.law, t, x=self.xfaces[0], side=-1, area=area_l
            )[:, 0]
            uR[:, -1] = boundary_ghost(
                self.bc_right, uL[:, -1:], self.law, t, x=self.xfaces[-1], side=1, area=area_r
            )[:, 0]
        return uL, uR

    def residual(self, U: np.ndarray, t: float) -> np.ndarray:
        """R(U) of the semi-discrete system M dU/dt = R(U) - penalty."""
        m, E, n = U.shape[0], self.n_elements, self.n
        try:
            u_q = self.eval_at_quad(U)
            uL, uR = self.face_traces(U, t)
            F_q, F_hat = self.law.fluxes(u_q, uL, uR, entropy_fix=self.entropy_fix)
        except AdmissibilityError as exc:
            raise SolverAbort(f"inadmissible state at t={t:.6g}: {exc}") from exc

        R = F_q.reshape(m, E, -1) @ self._volume
        R += F_hat[:, :-1].reshape(m, E, n) @ self._lift_left
        R += F_hat[:, 1:].reshape(m, E, n) @ self._lift_right
        if self.law.has_source():
            S_q = self.law.source(u_q, geom=self.geom_q)
            R += (S_q.reshape(m, E, -1) @ self._source) * self._half_h
        return R

    def solve_mass(self, R: np.ndarray) -> np.ndarray:
        """Apply M^{-1} elementwise: the physical mass is (h/2) * M_ref."""
        return (R @ self._mass_inv_t) * self._inv_half_h

    def apply_penalty(self, U: np.ndarray, gammas: np.ndarray) -> np.ndarray:
        """Gamma M_pp U, elementwise."""
        out = np.einsum("med,cd->mec", U, self.ref.mass_pp)
        return out * (gammas * self.h / 2.0)[None, :, None]

    # -- diagnostics ----------------------------------------------------------

    def subcell_averages(self, U: np.ndarray) -> np.ndarray:
        """(m, E, n) sub-cell averages of the field."""
        return project_lo(U, self.space)

    def total_mass(self, U: np.ndarray) -> np.ndarray:
        """Integral of each component over the domain."""
        avg = self.subcell_averages(U)
        w = (self.h / self.n)[None, :, None]
        return np.sum(avg * w, axis=(1, 2))

    def poly_energy(self, U: np.ndarray) -> np.ndarray:
        """(m, E) squared L2 norm of the polynomial part per element."""
        norms = 2.0 / (2.0 * np.arange(1, self.p + 1) + 1.0)
        return (U[:, :, : self.p] ** 2 * norms[None, None, :]).sum(-1) * (self.h / 2.0)

    def field_norm(self, U: np.ndarray, kind: str = "L2") -> np.ndarray:
        """Global L1 or L2 norm of each component."""
        u_q = self.eval_at_quad(U)
        if kind == "L2":
            return np.sqrt(np.einsum("mesq,esq->m", u_q**2, self.wq))
        if kind == "L1":
            return np.einsum("mesq,esq->m", np.abs(u_q), self.wq)
        raise ValueError(f"unknown norm kind {kind!r}")

    def evaluate_sensor(self, U: np.ndarray) -> SensorReport:
        return evaluate_field_sensor(U, self.space, self.sensor_config)

    def max_wave_speed(self, U: np.ndarray) -> float:
        return self.law.max_wave_speed(self.eval_at_quad(U))


def penalty_stage_rate(p: int, n: int, U: np.ndarray, gammas: np.ndarray,
                       c: float) -> np.ndarray:
    """Rate r of the frozen penalty stage (M + c gamma M_pp) r = -gamma M_pp U,
    c = dt a_ii, on each element of U (m, E, dof), gammas (E,):
    r = -W diag(gamma lam / (1 + c gamma lam)) W^T M U; h cancels; r = 0 where gamma = 0."""
    lam, W, MW = penalty_eigenbasis(p, n)
    glam = gammas[:, None] * lam                       # (E, p)
    return -((U @ MW) * (glam / (1.0 + c * glam))) @ W.T


def imex_step(
    disc: Discretization,
    state: FieldState,
    dt: float,
    gammas: np.ndarray,
) -> FieldState:
    """One ARS(2,2,2) step with the penalty frozen at the given gammas; per
    earlier stage, the implicit rate is added before the explicit one."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    t, U0 = state.time, state.U
    k1 = disc.solve_mass(disc.residual(U0, t))
    U2 = U0 + (dt * _ALPHA) * k1
    U3 = U0 + (dt * _DELTA) * k1
    active = np.flatnonzero(gammas > 0.0)
    if not active.size:
        k2 = disc.solve_mass(disc.residual(U2, t))
        U3 += (dt * _A_HAT_32) * k2
        k3 = disc.solve_mass(disc.residual(U3, t))
        U1 = U0 + (dt * _A_32) * k2
        U1 += (dt * _ALPHA) * k3
        return FieldState(U=U1, time=t + dt)
    # implicit stage rates are zero where gamma = 0, so they are kept and
    # added on the slice from the first to the last penalized element only
    blk = slice(active[0], active[-1] + 1)
    g, c = gammas[blk], dt * _ALPHA
    s2 = penalty_stage_rate(disc.p, disc.n, U2[:, blk], g, c)
    U2[:, blk] += c * s2
    k2 = disc.solve_mass(disc.residual(U2, t))
    U3[:, blk] += (dt * _A_32) * s2
    U3 += (dt * _A_HAT_32) * k2
    s3 = penalty_stage_rate(disc.p, disc.n, U3[:, blk], g, c)
    U3[:, blk] += c * s3
    k3 = disc.solve_mass(disc.residual(U3, t))
    U1 = U0.copy()
    U1[:, blk] += (dt * _A_32) * s2
    U1 += (dt * _A_32) * k2
    U1[:, blk] += c * s3
    U1 += c * k3
    return FieldState(U=U1, time=t + dt)


def explicit_step(disc: Discretization, state: FieldState, dt: float) -> FieldState:
    """Explicit-only path of the same tableau (the Gamma = 0 limit)."""
    return imex_step(disc, state, dt, np.zeros(disc.n_elements))


@dataclass
class Trajectory:
    states: list[FieldState] = field(default_factory=list)
    sensors: list[SensorReport] = field(default_factory=list)
    step_diffs: list[float] = field(default_factory=list)
    n_steps: int = 0

    @property
    def final(self) -> FieldState:
        return self.states[-1]


def advance(
    disc: Discretization,
    state: FieldState,
    dt: float,
    t_final: float,
    snapshot_times=(),
    force_gamma: tuple[int, float] | None = None,
    on_step=None,
) -> Trajectory:
    """Fixed-step march to t_final; steps are shortened to land exactly on
    snapshot times and on t_final.  Gamma is recomputed once per step."""
    if dt <= 0 or t_final <= state.time:
        raise ValueError("need dt > 0 and t_final beyond the current time")
    eps = 1e-12 * max(1.0, abs(t_final))
    marks = sorted({float(ts) for ts in snapshot_times if state.time < ts <= t_final})
    traj = Trajectory()

    def record(st: FieldState, rep: SensorReport):
        traj.states.append(st)
        traj.sensors.append(rep)

    current = state
    rep = disc.evaluate_sensor(current.U)
    record(current, _with_forced(rep, force_gamma))
    next_marks = marks + [t_final]
    for mark in next_marks:
        while current.time < mark - eps:
            step = min(dt, mark - current.time)
            rep = disc.evaluate_sensor(current.U)
            rep = _with_forced(rep, force_gamma)
            new = imex_step(disc, current, step, rep.gamma)
            drift = float(np.linalg.norm(new.U - current.U)) / step
            # a NaN or inf in the new state makes the drift non-finite, so
            # the state is scanned only then (a finite state can overflow it)
            if not math.isfinite(drift) and not np.isfinite(new.U).all():
                raise SolverAbort(
                    f"non-finite state after step {traj.n_steps + 1} at t={new.time:.6g}"
                )
            traj.step_diffs.append(drift)
            traj.n_steps += 1
            if on_step is not None:
                on_step(new, traj)
            current = new
        record(current, _with_forced(disc.evaluate_sensor(current.U), force_gamma))
    return traj


def _with_forced(rep: SensorReport, force_gamma) -> SensorReport:
    if force_gamma is None:
        return rep
    idx, value = force_gamma
    gamma = rep.gamma.copy()
    gamma[int(idx)] = float(value)
    return SensorReport(s=rep.s, s0=rep.s0, gamma=gamma)
