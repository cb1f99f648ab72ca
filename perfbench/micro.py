"""Frozen-state micro timings: each public call of a step, timed alone on a
mid-run state, as a cross-check of the traced self times."""

from __future__ import annotations

from time import perf_counter

import numpy as np

from subgrid_dg import physics, solver

BUDGET_S = 0.05     # time spent on one call's repetitions
MIN_REPS = 5
MAX_REPS = 400


def per_call_us(fn) -> float:
    """Median wall time of one call, over as many calls as fit the budget."""
    t0 = perf_counter()
    fn()
    first = perf_counter() - t0
    reps = int(min(MAX_REPS, max(MIN_REPS, BUDGET_S / max(first, 1e-7))))
    times = np.empty(reps)
    for i in range(reps):
        t0 = perf_counter()
        fn()
        times[i] = perf_counter() - t0
    return float(np.median(times) * 1e6)


def dg_timings(disc, state, dt) -> dict[str, float]:
    """Per-call microseconds of the solver, physics and sensor calls on
    `state`; `solver.implicit` is an IMEX step with the state's penalties
    minus one with none, and reads 0 when no element is penalized."""
    U, t, law = state.U, state.time, disc.law
    u_q = disc.eval_at_quad(U)
    uL, uR = disc.face_traces(U, t)
    R = disc.residual(U, t)
    gammas = disc.evaluate_sensor(U).gamma
    zeros = np.zeros_like(gammas)
    out = {
        "solver.residual": per_call_us(lambda: disc.residual(U, t)),
        "solver.face_traces": per_call_us(lambda: disc.face_traces(U, t)),
        "solver.eval_at_quad": per_call_us(lambda: disc.eval_at_quad(U)),
        "solver.solve_mass": per_call_us(lambda: disc.solve_mass(R)),
        "physics.flux": per_call_us(lambda: law.flux(u_q, x=disc.xq)),
        "physics.roe_flux": per_call_us(
            lambda: law.roe_flux(uL, uR, x=disc.xfaces, entropy_fix=disc.entropy_fix)),
        "sensor.evaluate": per_call_us(lambda: disc.evaluate_sensor(U)),
        "solver.imex_step": per_call_us(lambda: solver.imex_step(disc, state, dt, gammas)),
    }
    if law.has_source():
        out["physics.source"] = per_call_us(lambda: law.source(u_q, disc.xq))
    if not disc.periodic:
        out["physics.boundary_ghost"] = per_call_us(lambda: physics.boundary_ghost(
            disc.bc_right, uL[:, -1:], law, t, x=disc.xfaces[-1], side=1))
    if np.any(gammas > 0.0):
        explicit = per_call_us(lambda: solver.imex_step(disc, state, dt, zeros))
        out["solver.implicit"] = out["solver.imex_step"] - explicit
    else:
        out["solver.implicit"] = 0.0
    return out


def fv_timings(U) -> dict[str, float]:
    """Per-call microseconds of the Roe flux on an FV state, with the wall
    ghost on the right and the state's own first cell on the left."""
    law = physics.Euler1D()
    ghost = U[:, -1:].copy()
    ghost[1] = -ghost[1]
    ul = np.concatenate([U[:, :1], U], axis=1)
    ur = np.concatenate([U, ghost], axis=1)
    return {"physics.roe_flux": per_call_us(lambda: law.roe_flux(ul, ur))}
