"""The benchmark's workloads.  Each solve is one closed-loop time to a checked
solution: set-up, march, then the correctness gate, single-threaded.

The package's functions are called through their modules (`harness.x`,
`solver.x`), so that a traced run can swap timing wrappers in for them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from subgrid_dg import harness, physics, solver
from subgrid_dg.harness import RunConfig

import micro

REFERENCE_CELLS = 8192


@dataclass
class Outcome:
    """What a march produced: enough for the gate to judge it."""

    U: np.ndarray
    time: float
    disc: object = None
    steady: bool = False
    x: np.ndarray | None = None        # FV cell edges, for fv-reference


@dataclass
class Solve:
    ok: bool
    detail: str
    setup_s: float = 0.0
    march_s: float = 0.0
    total_s: float = 0.0
    error: float = float("nan")
    steps: int = 0
    step_us: np.ndarray = field(default_factory=lambda: np.empty(0))
    setup_pieces: SetupPieces | None = None
    probe: object = None               # () -> frozen-state timings of this solve
    outcome: Outcome | None = None
    spans: tuple | None = None         # [first, last) span of this solve, traced runs
    n_elements: int = 0


def clear_package_caches() -> None:
    """Empty every functools cache of the package, so each set-up pays what
    a fresh process pays."""
    for name, mod in list(sys.modules.items()):
        if name == "subgrid_dg" or name.startswith("subgrid_dg."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@dataclass
class SetupPieces:
    """One set-up cut into pieces at fixed points.  `kind` names what each
    piece covers: "project" one projection onto an element, "step" one step
    of a march that the set-up runs, "other" anything else."""

    seconds: np.ndarray
    kind: np.ndarray

    def total(self) -> float:
        return float(self.seconds.sum())


class SetupClock:
    """Stamps a set-up at the entry and exit of every projection onto an
    element and at the end of every step of a march that the set-up runs,
    so that a deterministic set-up is cut into the same pieces every time."""

    def __init__(self):
        self.stamps: list[float] = []
        self.kinds: list[str] = []     # kind of the piece each stamp ends

    def stamp(self, kind: str) -> None:
        self.stamps.append(perf_counter())
        self.kinds.append(kind)

    def __enter__(self):
        project, march = harness.project_l2, harness.advance

        def projecting(*args, **kwargs):
            self.stamp("other")
            try:
                return project(*args, **kwargs)
            finally:
                self.stamp("project")

        def marching(*args, on_step=None, **kwargs):
            first = [True]

            def ticking(state, traj):
                self.stamp("other" if first[0] else "step")
                first[0] = False
                if on_step is not None:
                    on_step(state, traj)
            return march(*args, on_step=ticking, **kwargs)

        self._saved = project, march
        harness.project_l2, harness.advance = projecting, marching
        self.stamp("other")
        return self

    def __exit__(self, *exc):
        self.stamp("other")
        harness.project_l2, harness.advance = self._saved

    def pieces(self) -> SetupPieces:
        return SetupPieces(np.diff(np.asarray(self.stamps)), np.asarray(self.kinds[1:]))


def setup_estimate(samples: list[SetupPieces]) -> float:
    """Set-up time with the host's contention taken out.

    Pieces of one kind ("project", "step") are about the same work, so each
    counts at the 2nd percentile of the times of its kind over all the
    set-ups, as step_us.p2 does for the march; each "other" piece counts at
    its fastest over the set-ups.  Set-ups cut into differing pieces fall
    back to the fastest whole one.
    """
    kind = samples[0].kind
    if any(not np.array_equal(p.kind, kind) for p in samples):
        return min(p.total() for p in samples)
    times = np.vstack([p.seconds for p in samples])
    other = kind == "other"
    total = float(times[:, other].min(axis=0).sum())
    for k in ("project", "step"):
        sel = kind == k
        if sel.any():
            total += float(np.percentile(times[:, sel], 2)) * int(sel.sum())
    return total


class DGWorkload:
    """A preset marched by `solver.advance`, with step times from on_step."""

    name = ""
    min_solves = 1
    setups = 10              # set-ups per run that setup_s is estimated from
    tracks_steady = False    # raise the steady flag as run_case does

    def __init__(self, seed: int, tiny: bool):
        self.tiny = tiny

    def prepare(self) -> None:
        """One-off work outside every timed region."""

    def config(self) -> RunConfig:
        raise NotImplementedError

    def setup(self):
        return harness.build_problem(self.config())

    def time_step(self, cfg, disc, u0) -> float:
        return cfg.dt if cfg.dt is not None else harness.default_dt(disc, u0.U, cfg.cfl)

    def t_final(self, cfg, dt) -> float:
        return cfg.t_final

    def gate(self, out: Outcome) -> tuple[bool, float, str]:
        raise NotImplementedError

    def perturb(self, out: Outcome) -> Outcome:
        """A deliberately wrong copy of a good outcome, for the self-test."""
        raise NotImplementedError

    def sample_setup(self) -> SetupPieces:
        """One set-up alone, cut into its clock's pieces."""
        clear_package_caches()
        with SetupClock() as clock:
            self.setup()
        return clock.pieces()

    def solve(self, tracer=None, probe: bool = False) -> Solve:
        clear_package_caches()
        if tracer is not None:
            tracer.set_phase("setup")
        t0 = perf_counter()
        with SetupClock() as clock:
            cfg, disc, u0 = self.setup()
        t1 = perf_counter()
        dt = self.time_step(cfg, disc, u0)
        t_final = self.t_final(cfg, dt)
        if tracer is not None:
            since = tracer.installed()
            wrap_instance(tracer, disc)
            tracer.set_phase("march")
        stamps: list[float] = []
        mid = int(0.5 * (t_final - u0.time) / dt)
        kept = {}
        steady = [False]

        def on_step(state, traj):
            stamps.append(perf_counter())
            if self.tracks_steady and not steady[0]:
                if traj.step_diffs[-1] < harness.STEADY_RATE_TOL * np.linalg.norm(state.U):
                    steady[0] = True
            if probe and traj.n_steps == mid:
                kept["state"] = state

        t2 = perf_counter()
        try:
            traj = solver.advance(disc, u0, dt, t_final, on_step=on_step)
        except solver.SolverAbort as exc:
            return Solve(ok=False, detail=f"solver abort: {exc}")
        finally:
            if tracer is not None:
                tracer.set_phase("gate")
                tracer.unwrap_all(since)
        t3 = perf_counter()
        outcome = Outcome(traj.final.U, traj.final.time, disc, steady[0])
        ok, error, detail = self.gate(outcome)
        t4 = perf_counter()
        step_us = np.diff(np.asarray([t2] + stamps)) * 1e6
        return Solve(
            ok=ok, detail=detail, setup_s=t1 - t0, march_s=t3 - t2,
            total_s=t4 - t0, error=error, steps=traj.n_steps, step_us=step_us,
            setup_pieces=clock.pieces(),
            probe=(lambda: micro.dg_timings(disc, kept["state"], dt)) if "state" in kept else None,
            n_elements=disc.n_elements, outcome=outcome,
        )


def wrap_instance(tracer, disc) -> None:
    """Spans on the Discretization's and its law's own methods."""
    for attr in ("residual", "face_traces", "eval_at_quad", "solve_mass"):
        tracer.wrap(disc, attr, f"solver.{attr}")
    tracer.wrap(disc, "evaluate_sensor", "sensor.evaluate")
    for attr in ("roe_flux", "flux", "source"):
        tracer.wrap(disc.law, attr, f"physics.{attr}")


class SmoothP4(DGWorkload):
    """Gaussian convected at p=4, n=8, E=64 for a fixed number of steps.

    Seed 0 is the preset Gaussian; any other seed shifts its centre, with
    periodic wrap-around, by a fraction of the domain drawn from the seed.
    """

    name = "smooth-p4"
    steps = 2000
    tolerance = 1e-7

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.shift = 0.0 if seed == 0 else float(np.random.default_rng(seed).random())
        self.profile = harness.gaussian_profile
        if tiny:
            self.steps = 20

    def config(self):
        return RunConfig(case="convection-gaussian", p=4, n=8, n_elements=64)

    def setup(self):
        if self.shift == 0.0:
            return harness.build_problem(self.config())
        # build_problem projects harness.gaussian_profile; hand it the
        # shifted profile for the duration of the set-up only
        base, shift = self.profile, self.shift
        harness.gaussian_profile = lambda x: base((np.asarray(x) - shift) % 1.0)
        try:
            return harness.build_problem(self.config())
        finally:
            harness.gaussian_profile = base

    def time_step(self, cfg, disc, u0):
        return harness.spatial_accuracy_dt_rule(8)(cfg)

    def t_final(self, cfg, dt):
        return self.steps * dt

    def exact(self, x, t):
        return self.profile((np.asarray(x) - self.shift - t) % 1.0)

    def gate(self, out):
        err = harness.error_norm(out.disc, out.U, lambda x: self.exact(x, out.time), "L2")
        ok = bool(np.isfinite(err) and err < self.tolerance)
        return ok, err, (f"L2 error {err:.4g} vs exact shifted Gaussian "
                         f"(tolerance {self.tolerance:g})")

    def perturb(self, out):
        U = out.U.copy()
        U[0, out.disc.n_elements // 2, out.disc.p:] += 1e-3
        return Outcome(U, out.time, out.disc, out.steady)


class ShuOsher(DGWorkload):
    """The shu-osher preset, checked against the 8192-cell FV reference."""

    name = "shu-osher"
    setups = 40              # two solves: the other set-ups run alone
    tolerance = 0.40

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.t_end = 0.05 if tiny else 1.78     # 1.78 is the preset's end time

    def config(self):
        return RunConfig(case="shu-osher", t_final=self.t_end)

    def prepare(self):
        harness.fv_reference("shu-osher", REFERENCE_CELLS, self.t_end)

    def gate(self, out):
        sampler = harness.fv_reference("shu-osher", REFERENCE_CELLS, self.t_end)[0]
        err = harness.error_norm(out.disc, out.U, sampler, "L1", component=0)
        ok = bool(np.isfinite(err) and err < self.tolerance)
        return ok, err, (f"density L1 error {err:.4g} vs {REFERENCE_CELLS}-cell FV "
                         f"reference at t={out.time:.6g} (tolerance {self.tolerance:g})")

    def perturb(self, out):
        U = out.U.copy()
        E = out.disc.n_elements
        U[0, E // 2: E // 2 + E // 8, out.disc.p:] += 5.0
        return Outcome(U, out.time, out.disc, out.steady)


class Nozzle(DGWorkload):
    """The nozzle preset: set-up dominated, steady shock in one element."""

    name = "nozzle"
    min_solves = 2           # two march windows, for a steadier step_us.p2
    setups = 2               # a set-up takes about 10 s
    tracks_steady = True
    tolerance = 5e-3

    def config(self):
        return RunConfig(case="nozzle")

    def gate(self, out):
        disc = out.disc
        active = np.flatnonzero(disc.evaluate_sensor(out.U).gamma > 0.0).tolist()
        avg = disc.subcell_averages(out.U)[0]
        shock = int(np.argmax(np.max(np.abs(np.diff(avg, axis=1)), axis=1)))
        err = harness.error_norm(disc, out.U, lambda x: harness.nozzle_initial(x)[0],
                                 "L1", component=0)
        ok = bool(out.steady and active == [shock] and np.isfinite(err)
                  and err < self.tolerance)
        return ok, err, (f"steady={out.steady}, active set {active} vs shock element "
                         f"{shock}, L1 error {err:.4g} vs the analytic steady profile "
                         f"(tolerance {self.tolerance:g})")

    def perturb(self, out):
        U = out.U.copy()
        U[0, 1, out.disc.p:] *= 1.0 + 0.2 * (-1.0) ** np.arange(out.disc.n)
        return Outcome(U, out.time, out.disc, out.steady)


class SetupDone(Exception):
    """Stops an FV march at its first step, after its set-up."""


class FVReference:
    """`fv_reference` on the shu-osher case at a grid coarser than the
    reference, checked against the cached 8192-cell reference.

    A clock on `Euler1D.max_wave_speed`, which the FV march calls once at
    the start of every step, splits the call: set-up is the grid, the initial
    state and the jump cell's average, up to the first step; the march is
    the rest, and the clock's ticks give the step times.
    """

    name = "fv-reference"
    min_solves = 1
    setups = 5000            # a set-up takes under a millisecond
    cells = 4096
    t_final = 1.78
    tolerance = 0.2

    def __init__(self, seed: int, tiny: bool):
        # the FV workload has no seeded input: every seed runs the preset
        if tiny:
            self.cells, self.t_final = 512, 0.05

    def prepare(self):
        harness.fv_reference("shu-osher", REFERENCE_CELLS, self.t_final)

    def march(self, stamps: list, stop_at_first_step: bool = False):
        """Run the FV solver with its step clock on; `stamps` gets the call's
        start and the start of every step."""
        clock = physics.Euler1D.__dict__["max_wave_speed"]

        def ticking(law, u, x=None):
            stamps.append(perf_counter())
            if stop_at_first_step:
                raise SetupDone
            return clock(law, u, x)

        physics.Euler1D.max_wave_speed = ticking
        stamps.append(perf_counter())
        try:
            return harness.fv_reference("shu-osher", self.cells, self.t_final, cache=False)
        finally:
            physics.Euler1D.max_wave_speed = clock

    def sample_setup(self) -> SetupPieces:
        stamps: list[float] = []
        clear_package_caches()
        try:
            self.march(stamps, stop_at_first_step=True)
        except SetupDone:
            pass
        return SetupPieces(np.diff(np.asarray(stamps)), np.array(["other"]))

    def solve(self, tracer=None, probe: bool = False) -> Solve:
        if tracer is not None:
            tracer.set_phase("setup")
        _, x_ref, U_ref = harness.fv_reference("shu-osher", REFERENCE_CELLS, self.t_final)
        clear_package_caches()
        stamps: list[float] = []
        if tracer is not None:
            tracer.set_phase("march")
        try:
            _, x, U = self.march(stamps)
        except physics.AdmissibilityError as exc:
            return Solve(ok=False, detail=f"FV march aborted: {exc}")
        finally:
            if tracer is not None:
                tracer.set_phase("gate")
        t3 = perf_counter()
        t0, t1 = stamps[0], stamps[1]
        outcome = Outcome(U, self.t_final, x=x)
        ok, err, detail = self.gate(outcome, x_ref, U_ref)
        t4 = perf_counter()
        step_us = np.diff(np.asarray(stamps[1:] + [t3])) * 1e6
        return Solve(
            ok=ok, detail=detail, setup_s=t1 - t0, march_s=t3 - t1, total_s=t4 - t0,
            error=err, steps=len(stamps) - 1, step_us=step_us,
            setup_pieces=SetupPieces(np.array([t1 - t0]), np.array(["other"])),
            probe=(lambda: micro.fv_timings(U)) if probe else None,
            n_elements=self.cells, outcome=outcome,
        )

    def gate(self, out, x_ref=None, U_ref=None):
        if x_ref is None:
            _, x_ref, U_ref = harness.fv_reference("shu-osher", REFERENCE_CELLS, self.t_final)
        finite = bool(np.all(np.isfinite(out.U)))
        admissible = finite and bool(np.all(physics.Euler1D().admissible(out.U)))
        # the coarse solution sampled at the fine cell centres: the exact L1
        # distance of the two piecewise-constant densities
        xc = 0.5 * (x_ref[:-1] + x_ref[1:])
        idx = np.clip(np.searchsorted(out.x, xc, side="right") - 1, 0, out.U.shape[1] - 1)
        err = float(np.sum(np.abs(out.U[0, idx] - U_ref[0]) * np.diff(x_ref)))
        ok = admissible and np.isfinite(err) and err < self.tolerance
        return bool(ok), err, (f"finite={finite}, admissible={admissible}, density L1 "
                               f"error {err:.4g} vs {REFERENCE_CELLS}-cell reference "
                               f"(tolerance {self.tolerance:g})")

    def perturb(self, out):
        U = out.U.copy()
        U[0, U.shape[1] // 2] = -1.0
        return Outcome(U, out.time, x=out.x)


WORKLOADS = {w.name: w for w in (SmoothP4, ShuOsher, Nozzle, FVReference)}
