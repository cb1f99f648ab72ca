"""Semi-discrete DG residual on the combined space and IMEX time stepping.

The state is a dense array U of shape (m, n_elements, dof) with the basis
ordering of `basis` (p Legendre modes, then n indicator coefficients).

The reference operators of a step are built once per (p, n), in
`basis.reference_element`, as nodal DG codes build their volume and LIFT
matrices once per order (Hesthaven & Warburton, 2008), so each stage is a
few small matmuls over all components and elements at once: basis values at
the quadrature nodes, sub-cell face traces, the volume term (indicators have
zero derivative, so only the polynomial modes see it), one lift matrix each
for the flux at the left and right face of every sub-cell, the source moment
and M_ref^{-1}.  Every sub-cell face flux is computed once and shared.
Surface contributions of the continuous polynomial test modes telescope
across interior sub-cell faces, so they only see the element-boundary fluxes.

For periodic linear convection that whole chain is linear and couples an
element only to itself and its upwind neighbour, so `residual` applies it as
one precomputed pair, U @ B_self + U[upwind] @ B_nbr (Hesthaven & Warburton,
2008, ch. 4), read off the chain above by the first residual; every other
law or boundary takes the chain.

The Discretization also holds the law's geometry (`law.geometry`, e.g. the
nozzle's A and (dA/dx)/A) at the quadrature nodes only, and the duct area at
the two domain ends for the ghosts, so a step evaluates no geometry.

`imex_step` is ARS(2,3,2) (Ascher, Ruuth & Spiteri, 1997, section 2) closed
by a fourth, implicit-only stage that solves the penalty on the finished
state, so the step is globally stiffly accurate (Boscarino, Pareschi & Russo,
SIAM J. Sci. Comput. 35, 2013) and the penalty does not limit dt: its three
rate stages and the closing solve are written once, for penalized and
unpenalized steps alike.  `Discretization.rate`, M^{-1} R(U), is the one
stage rate.  Implicit stage rates are kept on the slice of elements from the
first to the last penalized one, none if none is.  A stage's penalty solve
is a closed-form filter of the polynomial modes in the penalty eigenbasis
(`basis.penalty_stage_rate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import penalty_stage_rate, reference_element
from .mesh import Mesh
from .physics import (
    AdmissibilityError,
    BoundaryCondition,
    ConservationLaw,
    Convection,
    boundary_area,
    boundary_ghost,
    check_boundary_law,
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
    """ARS(2,3,2) with alpha = 1 - 1/sqrt(2), delta = -2 sqrt(2)/3 and b_hat = b
    (Ascher, Ruuth & Spiteri, 1997, section 2; ARS(2,2,2) has delta = 1 - 1/(2
    alpha) and b_hat = A_hat[2]): the three rate stages of `imex_step`.  The
    step is the 4-stage scheme that appends the implicit row (0, 1 - alpha, 0,
    alpha) and the explicit row (0, 1 - alpha, alpha, 0), its weights; that
    stage makes no rate call.  Named `ars222` still: `perfbench/run.py` reads
    it, and counts `stages` residual calls a step."""
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


_TABLEAU = ars222()
# its coefficients as Python floats; alpha = A_hat[1, 0] = A[2, 2] and b = b_hat = A[2]
_ALPHA, _DELTA = float(_TABLEAU.A[1, 1]), float(_TABLEAU.A_hat[2, 0])
_A_32, _A_HAT_32 = float(_TABLEAU.A[2, 1]), float(_TABLEAU.A_hat[2, 1])


class Discretization:
    """Mesh + degree + law + boundary conditions.  It holds what its mesh fixes
    (nodes, weights, h/2, 2/h, the law's geometry); `ref` holds every (p, n) matrix."""

    entropy_fix = False     # not a setting: kept only because perfbench/micro.py reads it

    def __init__(
        self,
        mesh: Mesh,
        p: int,
        law: ConservationLaw,
        bc_left: BoundaryCondition,
        bc_right: BoundaryCondition,
        sensor_config: SensorConfig = SensorConfig(),
    ):
        if (bc_left.kind == "periodic") != (bc_right.kind == "periodic"):
            raise ValueError("periodic boundaries must be applied to both ends")
        for end, bc in (("left", bc_left), ("right", bc_right)):
            check_boundary_law(bc, law, end)
            if bc.kind == "prescribed" and (k := np.size(bc.state)) != law.m:
                raise ValueError(f"the {end} prescribed boundary state has {k} components; "
                                 f"{law.name!r} has {law.m}")
        self.mesh = mesh
        self.law = law
        self.bc_left = bc_left
        self.bc_right = bc_right
        self.sensor_config = sensor_config
        self.periodic = bc_left.kind == "periodic"

        self.p = p
        self.n = mesh.n_sub
        self.ref = reference_element(p, self.n)
        self.dof = self.ref.dof
        self.n_elements = mesh.n_elements

        self.h = mesh.widths
        # physical quadrature nodes/weights, shape (E, n, q)
        self.xq = mesh.nodes(self.ref.quad_ref)
        self.wq = self.ref.quad_w[None] * (self.h[:, None, None] / 2.0)
        # all sub-cell face positions, shape (E*n + 1,)
        self.xfaces = mesh.faces
        # the law's geometry at the quadrature nodes (None for a law without
        # one), and its duct area at the two boundary faces
        self.geom_q = law.geometry(self.xq)
        self._ghost_area = (boundary_area(law, self.xfaces[0]),
                            boundary_area(law, self.xfaces[-1]))
        # the element widths of the source (h/2) and of the mass solve (2/h)
        self._half_h = (self.h / 2.0)[:, None]
        self._inv_half_h = (2.0 / self.h)[:, None]

    @cached_property
    def _linear_pair(self):
        """(B_self, B_nbr, upwind) of periodic linear convection, whose residual
        is U @ B_self + U[..., upwind, :] @ B_nbr; None for any other law or
        boundary.  Row i of each is the chain's response to basis function i in
        element 0, read in element 0 and in the one downwind (zero if E = 1)."""
        if not (self.periodic and isinstance(self.law, Convection)):
            return None
        E, dof, i = self.n_elements, self.dof, np.arange(self.dof)
        step = -1 if self.law.beta >= 0 else 1      # the upwind element of e is e + step
        probes = np.zeros((1, dof, E, dof))
        probes[0, i, 0, i] = 1.0
        R = self._residual_chain(probes, 0.0)[0]
        B_self = R[:, 0].copy()
        B_nbr = R[:, -step % E].copy() if E > 1 else np.zeros_like(B_self)
        return B_self, B_nbr, (np.arange(E) + step) % E

    # -- spatial operator ---------------------------------------------------

    def eval_at_quad(self, U: np.ndarray) -> np.ndarray:
        """Field values at all quadrature nodes, shape (m, *batch, E, n, q)."""
        return (U @ self.ref.phi_q).reshape(U.shape[:-1] + (self.n, -1))

    def face_traces(self, U: np.ndarray, t: float):
        """Left/right states at every sub-cell face, shape (m, *batch, E*n + 1); a farfield
        ghost takes one face's Python floats, so it raises on a batch of more than one."""
        faces, subcells = U.shape[:-2] + self.xfaces.shape, U.shape[:-1] + (self.n,)
        uL = np.empty(faces)
        uR = np.empty(faces)
        # traces from inside each sub-cell, written straight into the face
        # arrays (splitting the unit-stride last axis reshapes to a view)
        np.matmul(U, self.ref.trace_left, out=uR[..., :-1].reshape(subcells))
        np.matmul(U, self.ref.trace_right, out=uL[..., 1:].reshape(subcells))
        if self.periodic:
            uL[..., 0] = uL[..., -1]
            uR[..., -1] = uR[..., 0]
        else:
            area_l, area_r = self._ghost_area
            uL[..., 0] = boundary_ghost(
                self.bc_left, uR[..., :1], self.law, t, x=self.xfaces[0], side=-1, area=area_l
            )[..., 0]
            uR[..., -1] = boundary_ghost(
                self.bc_right, uL[..., -1:], self.law, t, x=self.xfaces[-1], side=1, area=area_r
            )[..., 0]
        return uL, uR

    def residual(self, U: np.ndarray, t: float) -> np.ndarray:
        """R(U) of M dU/dt = R(U) - penalty for states U (m, *batch, E, dof): batch
        axes after the component axis stack states (not at a farfield boundary)."""
        if (pair := self._linear_pair) is not None:
            B_self, B_nbr, upwind = pair
            R = U @ B_self
            R += U[..., upwind, :] @ B_nbr
            return R
        return self._residual_chain(U, t)

    def _residual_chain(self, U: np.ndarray, t: float) -> np.ndarray:
        """`residual` of any law: traces and fluxes, then volume, lift, source."""
        elements = U.shape[:-1]
        faces = None                # unset if a ghost state failed
        try:
            u_q = self.eval_at_quad(U)
            faces = self.face_traces(U, t)
            F_q, F_hat, S_q = self.law.fluxes(u_q, *faces, geom=self.geom_q)
        except AdmissibilityError as exc:
            where = self._where(u_q, faces)
            raise SolverAbort(f"inadmissible state at t={t:.6g}: {exc}{where}") from exc

        R = F_q.reshape(elements + (-1,)) @ self.ref.volume
        subcells = elements + (self.n,)
        R += F_hat[..., :-1].reshape(subcells) @ self.ref.lift_left
        R += F_hat[..., 1:].reshape(subcells) @ self.ref.lift_right
        if S_q is not None:
            R += (S_q.reshape(elements + (-1,)) @ self.ref.source) * self._half_h
        return R

    def _where(self, u_q: np.ndarray, faces) -> str:
        """' in element e on x in [xl, xr]' for the first element with an
        inadmissible quadrature state, of any state of a batch; else ' at the
        face x=xf ...' naming the elements on the two sides of the first
        sub-cell face with an inadmissible trace (uL, uR) in `faces`; '' if
        neither failed (a ghost state or a Roe average did).  Run only after
        a check failed."""
        bad = (~self.law.admissible(u_q)).any(axis=(-2, -1)).reshape(-1, self.n_elements)
        if bad.any():
            e = int(np.argmax(bad.any(axis=0)))
            xl, xr = self.mesh.element_bounds(e)
            return f" in element {e} on x in [{xl:.6g}, {xr:.6g}]"
        if faces is None:
            return ""
        bad = ~(self.law.admissible(faces[0]) & self.law.admissible(faces[1]))
        bad = bad.reshape(-1, self.xfaces.size).any(axis=0)
        if not bad.any():
            return ""
        f = int(np.argmax(bad))
        n_sub = self.n_elements * self.n

        def owner(k):               # of the sub-cell k on one side of face f
            if self.periodic:
                k %= n_sub
            return f"element {k // self.n}" if 0 <= k < n_sub else \
                f"the {'left' if k < 0 else 'right'} boundary"

        left, right = owner(f - 1), owner(f)
        sides = f"inside {left}" if left == right else f"between {left} and {right}"
        return f" at the face x={self.xfaces[f]:.6g} {sides}"

    def solve_mass(self, R: np.ndarray) -> np.ndarray:
        """Apply M^{-1} elementwise: the physical mass is (h/2) * M_ref."""
        return (R @ self.ref.mass_inv_t) * self._inv_half_h

    def rate(self, U: np.ndarray, t: float) -> np.ndarray:
        """The explicit stage rate M^{-1} R(U), for states U (m, *batch, E, dof)."""
        return self.solve_mass(self.residual(U, t))

    # -- diagnostics ----------------------------------------------------------

    def subcell_averages(self, U: np.ndarray) -> np.ndarray:
        """(m, E, n) sub-cell averages of the field."""
        return project_lo(U, self.p, self.n)

    def total_mass(self, U: np.ndarray) -> np.ndarray:
        """Integral of each component over the domain."""
        avg = self.subcell_averages(U)
        w = (self.h / self.n)[None, :, None]
        return np.sum(avg * w, axis=(1, 2))

    def poly_energy(self, U: np.ndarray) -> np.ndarray:
        """(m, E) squared L2 norm of the polynomial part per element."""
        norms = np.diagonal(self.ref.mass_pp)[: self.p]
        return (U[:, :, : self.p] ** 2 * norms).sum(-1) * (self.h / 2.0)

    def quad_norm(self, v_q: np.ndarray, kind: str = "L2") -> np.ndarray:
        """Global L1 or L2 norm of each field at the quadrature nodes (..., E, n, q)."""
        if kind == "L2":
            return np.sqrt(np.sum(v_q**2 * self.wq, axis=(-3, -2, -1)))
        if kind == "L1":
            return np.sum(np.abs(v_q) * self.wq, axis=(-3, -2, -1))
        raise ValueError(f"unknown norm kind {kind!r}")

    def field_norm(self, U: np.ndarray, kind: str = "L2") -> np.ndarray:
        """Global L1 or L2 norm of each component."""
        return self.quad_norm(self.eval_at_quad(U), kind)

    def evaluate_sensor(self, U: np.ndarray) -> SensorReport:
        return evaluate_field_sensor(U, self.p, self.n, self.sensor_config)

    def max_wave_speed(self, U: np.ndarray) -> float:
        return self.law.max_wave_speed(self.eval_at_quad(U))


def imex_step(
    disc: Discretization,
    state: FieldState,
    dt: float,
    gammas: np.ndarray,
) -> FieldState:
    """One step with the penalty frozen at the given gammas, one per element: the
    three rate stages of ARS(2,3,2) (`ars222`), then a penalty solve of the finished
    state, so the step is globally stiffly accurate (Ascher, Ruuth & Spiteri, 1997;
    Boscarino, Pareschi & Russo, 2013); per earlier stage, the implicit rate is
    added before the explicit one."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0: {dt}")
    if np.shape(gammas) != (disc.n_elements,):
        raise ValueError(f"gammas of shape {np.shape(gammas)}, not ({disc.n_elements},)")
    # implicit stage rates are zero where gamma = 0, so they are kept and added
    # on the block from the first to the last penalized element only, if any;
    # a NaN, infinite or negative gamma is nonzero too, so it lies in the block
    nonzero = np.flatnonzero(gammas)
    blk = slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else None
    if blk and not (valid := (gammas[blk] >= 0.0) & (gammas[blk] < math.inf)).all():
        bad = blk.start + int(np.argmin(valid))
        raise ValueError(f"gamma of element {bad} must be finite and >= 0: {gammas[bad]}")
    t, U0, c = state.time, state.U, dt * _ALPHA
    k1 = disc.rate(U0, t)
    U2 = U0 + c * k1
    U3 = U0 + (dt * _DELTA) * k1
    if blk:
        s2 = penalty_stage_rate(disc.p, disc.n, U2[:, blk], gammas[blk], c)
        U2[:, blk] += c * s2
    k2 = disc.rate(U2, t)
    if blk:
        U3[:, blk] += (dt * _A_32) * s2
    U3 += (dt * _A_HAT_32) * k2
    if blk:
        s3 = penalty_stage_rate(disc.p, disc.n, U3[:, blk], gammas[blk], c)
        U3[:, blk] += c * s3
    k3 = disc.rate(U3, t)
    U1 = U0.copy()
    if blk:
        U1[:, blk] += (dt * _A_32) * s2
    U1 += (dt * _A_32) * k2
    U1 += c * k3
    if blk:     # the closing stage: the penalty solve on the finished state
        U1[:, blk] += c * penalty_stage_rate(disc.p, disc.n, U1[:, blk], gammas[blk], c)
    return FieldState(U=U1, time=t + dt)


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
    snapshot times and on t_final, each recorded once; a snapshot time outside
    [start, t_final] is a ValueError.  Gamma is recomputed once per step;
    `force_gamma` = (element, value) sets one element's."""
    if not (0 < dt < math.inf and state.time < t_final < math.inf):
        raise ValueError("need dt > 0 and a finite t_final beyond the current time, and a finite dt")
    if force_gamma is not None:
        forced, value = int(force_gamma[0]), float(force_gamma[1])
        if not 0 <= forced < disc.n_elements:
            raise ValueError(f"force_gamma_element {forced} is not one of the {disc.n_elements} "
                             f"elements (0 to {disc.n_elements - 1})")
    eps = 1e-12 * max(1.0, abs(t_final))
    times = [float(ts) for ts in snapshot_times]
    for ts in times:
        if not state.time <= ts <= t_final + eps:     # False for NaN
            raise ValueError(f"snapshot time {ts} is not in [{state.time}, {t_final}]")
    # the start is always recorded
    marks = sorted({min(ts, t_final) for ts in times if ts > state.time})
    traj = Trajectory()

    def sensor(U: np.ndarray) -> SensorReport:
        rep = disc.evaluate_sensor(U)
        if force_gamma is not None:
            rep.gamma[forced] = value       # each report's gamma is a fresh array
        return rep

    current = state
    for mark in [state.time] + marks + [t_final]:
        while current.time < mark - eps:
            step = min(dt, mark - current.time)
            new = imex_step(disc, current, step, sensor(current.U).gamma)
            drift = float(np.linalg.norm(new.U - current.U)) / step
            # a NaN or inf in the new state makes the drift non-finite, so
            # the state is scanned only then (a finite state can overflow it)
            if not math.isfinite(drift) and not (finite := np.isfinite(new.U)).all():
                bad = int(np.argmin(finite.all(axis=(0, 2))))   # first non-finite element
                xl, xr = disc.mesh.element_bounds(bad)
                raise SolverAbort(
                    f"non-finite state after step {traj.n_steps + 1} at t={new.time:.6g} "
                    f"in element {bad} on x in [{xl:.6g}, {xr:.6g}]"
                )
            traj.step_diffs.append(drift)
            traj.n_steps += 1
            if on_step is not None:
                on_step(new, traj)
            current = new
        if not traj.states or current is not traj.states[-1]:   # a step since the last record
            traj.states.append(current)
            traj.sensors.append(sensor(current.U))
    return traj
