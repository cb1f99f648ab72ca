"""Solver benchmark: time to a checked solution on four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
`src/`.  A run is a closed loop of solves (set-up, march, correctness gate),
one at a time on one thread, started until `--seconds` have passed and at
least the workload's minimum count is done.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: the set-up
time, the 2nd percentile of step times and the march time it implies, peak
RSS and the solution error.  Set-up time is estimated from a fixed number
of set-ups (the solves' own, then set-ups alone until there are enough), cut
at fixed points: each kind of repeated piece counts at the 2nd percentile of
its times, every other piece at its fastest.  The run also prints the medians of march and total time and of step time,
which the traced run reports as diagnostics.  A failed solve (solver abort or
missed tolerance) is counted, not timed.

`--trace 1` reports the per-layer metrics.  It first runs untraced solves for
half the time, then traced ones (timing wrappers swapped in for the package's
functions, spans kept in memory and written to
`.perfbench/spans/<workload>-seed<n>.npz`), then times each call of a step
alone on a frozen mid-run state.  `.us` metrics are the median self time of
one call in the march; `.calls` and `.s` are per solve, `.s` inclusive.  The
Euler flux calls that the Roe flux makes count as Roe flux time, so
`physics.flux` is the volume flux alone.  Layers a workload never reaches
read 0.

`--tiny` shrinks every workload for the self-test (`perfbench/selftest.py`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# BLAS and OpenMP read these once, when numpy is first imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
MAX_TRACED_SOLVES = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def configure_process():
    """Keep the package's reference cache in the checkout, and import
    subgrid_dg from the checkout's src/ only."""
    os.environ["XDG_CACHE_HOME"] = str(STATE_DIR / "cache")
    if not (SRC / "subgrid_dg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'subgrid_dg'}")
    sys.path.insert(0, str(SRC))
    import subgrid_dg
    if Path(subgrid_dg.__file__).resolve().parent != (SRC / "subgrid_dg").resolve():
        raise SystemExit(f"perfbench: imported subgrid_dg from {subgrid_dg.__file__}")


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_solves(workload, seconds, min_solves, max_solves=None, tracer=None, probe=False):
    solves = []
    start = perf_counter()
    while len(solves) < min_solves or (
        perf_counter() - start < seconds
        and (max_solves is None or len(solves) < max_solves)
    ):
        mark = tracer.mark() if tracer is not None else 0
        s = workload.solve(tracer=tracer, probe=probe and not solves)
        s.spans = (mark, tracer.mark()) if tracer is not None else None
        s.outcome = None  # keeps memory, and so peak_rss_mb, flat across solves
        print(f"# solve {len(solves) + 1}: {'ok' if s.ok else 'FAILED'}  setup {s.setup_s:.4f} s"
              f"  march {s.march_s:.4f} s  total {s.total_s:.4f} s  steps {s.steps}"
              f"  {s.detail}", flush=True)
        solves.append(s)
    return solves


def median(values):
    return float(np.median(values)) if len(values) else None


def end_to_end(solves, setups=()) -> tuple[dict, dict]:
    """Time to solution over the run's passing solves, with sample counts.

    On a shared host, co-tenants can slow a core by up to 2x for minutes at
    a time, and only the fast tail of short pieces of work repeats from run
    to run.  So the bounded times are fast-tail estimates: `step_us.p2`, the
    2nd percentile of step times; `march_est_s`, that times the steps of a
    solve; and `setup_s`, from the fast tail of the pieces of the `setups`
    (see workloads.setup_estimate).  The medians are printed and kept as
    per-layer diagnostics.
    """
    from workloads import setup_estimate

    good = [s for s in solves if s.ok]
    steps = np.concatenate([s.step_us for s in good]) if good else np.empty(0)
    p2 = float(np.percentile(steps, 2)) if steps.size else None
    values = {
        "setup_s": setup_estimate(list(setups)) if setups else None,
        "march_est_s": p2 * 1e-6 * median([s.steps for s in good]) if good else None,
        "march_s": median([s.march_s for s in good]),
        "total_s": median([s.total_s for s in good]),
        "step_us.p50": median(steps),
        "step_us.p2": p2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solution_error": median([s.error for s in good]),
    }
    samples = {name: len(good) for name in ("march_s", "total_s", "solution_error")}
    samples.update({"setup_s": len(setups), "march_est_s": int(steps.size),
                    "step_us.p50": int(steps.size), "step_us.p2": int(steps.size),
                    "peak_rss_mb": 1})
    return values, samples


def collect_setups(workload, solves) -> list:
    """Clock pieces of the workload's first `setups` set-ups: the passing
    solves' own, then set-ups run alone."""
    setups = [s.setup_pieces for s in solves if s.ok][: workload.setups]
    while len(setups) < workload.setups:
        setups.append(workload.sample_setup())
    totals = [p.total() for p in setups]
    print(f"# set-ups {len(setups)}: fastest {min(totals):.6f} s, median "
          f"{median(totals):.6f} s", flush=True)
    return setups


def install_module_wrappers(tracer, workload_name):
    from subgrid_dg import harness, physics, solver

    def active(args, kwargs):
        gammas = args[3] if len(args) > 3 else kwargs["gammas"]
        return int(np.count_nonzero(np.asarray(gammas) > 0.0))

    tracer.wrap(solver, "advance", "solver.advance")
    tracer.wrap(solver, "imex_step", "solver.imex_step", note=active)
    tracer.wrap(solver, "boundary_ghost", "physics.boundary_ghost")
    tracer.wrap(physics, "nozzle_area", "physics.nozzle_area")
    tracer.wrap(harness, "nozzle_area", "physics.nozzle_area")
    tracer.wrap(harness, "project_initial", "harness.project_initial")
    tracer.wrap(harness, "nozzle_initial", "harness.nozzle_initial")
    tracer.wrap(harness, "_relax_shock_element", "harness.relax_shock")
    tracer.wrap(harness, "fv_reference", "harness.fv_reference")
    tracer.wrap(harness, "error_norm", "harness.error_norm")
    if workload_name == "fv-reference":
        # the FV march builds its own Euler1D, so wrap the class; it calls
        # Euler1D.flux only from inside the Roe flux
        tracer.wrap(physics.Euler1D, "roe_flux", "physics.roe_flux")


def per_layer(tracer, untraced, traced, micro) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced solves' spans; problems found in
    the call counts are returned as messages."""
    from subgrid_dg.solver import ars222

    stages = ars222().stages
    problems = []
    march_samples: dict[str, list] = {}
    counts: dict[str, list] = {}
    totals: dict[str, list] = {}
    active_steps, advance_self = [], []
    for s in traced:
        lo, hi = s.spans
        march = tracer.summary(lo, hi, "march")
        whole = tracer.summary(lo, hi)
        for name, rec in march.items():
            march_samples.setdefault(name, []).append(rec["self_us"])
        for name in tracer.names:
            counts.setdefault(name, []).append(march.get(name, {}).get("calls", 0))
            totals.setdefault(name, []).append(whole.get(name, {}).get("inclusive_s", 0.0))
        n_all = whole.get("physics.nozzle_area", {}).get("calls", 0)
        counts.setdefault("physics.nozzle_area.all", []).append(n_all)
        in_march = tracer.phases.index("march")
        active_steps.append(sum(v for i, v in tracer.notes.get("solver.imex_step", [])
                                if lo <= i < hi and tracer.phase_id[i] == in_march))
        adv = march.get("solver.advance")
        advance_self.append(float(adv["self_us"].sum()) / max(s.steps, 1) if adv else 0.0)
        imex = march.get("solver.imex_step", {}).get("calls", 0)
        if imex:
            if imex != s.steps:
                problems.append(f"imex_step calls {imex} != steps {s.steps}")
            res = march.get("solver.residual", {}).get("calls", 0)
            if res != stages * imex:
                problems.append(f"residual calls {res} != {stages} per step x {imex} steps")
            sens = march.get("sensor.evaluate", {}).get("calls", 0)
            if sens != imex + 2:
                problems.append(f"sensor calls {sens} != 1 per step + 2 x {imex} steps")
    for name, per_solve in counts.items():
        if len(set(per_solve)) > 1:
            problems.append(f"{name} calls differ between solves: {per_solve}")

    def us(name):
        parts = march_samples.get(name)
        return float(np.median(np.concatenate(parts))) if parts else 0.0

    def calls(name):
        return float(counts.get(name, [0])[0])

    def total(name):
        return median(totals.get(name, [0.0]))

    steps = traced[0].steps
    plain, _ = end_to_end(untraced)
    untraced_steps = np.concatenate([s.step_us for s in untraced if s.ok] or [np.zeros(1)])
    values = {
        "march_s": plain["march_s"],
        "total_s": plain["total_s"],
        "step_us.p50": plain["step_us.p50"],
        "solver.residual.us": us("solver.residual"),
        "solver.residual.calls": calls("solver.residual"),
        "solver.face_traces.us": us("solver.face_traces"),
        "solver.eval_at_quad.us": us("solver.eval_at_quad"),
        "solver.solve_mass.us": us("solver.solve_mass"),
        "solver.imex_step.us": us("solver.imex_step"),
        "solver.imex_step.calls": calls("solver.imex_step"),
        "solver.implicit.us": micro.get("solver.implicit", 0.0),
        "solver.active_element_steps": float(active_steps[0]),
        "solver.active_frac": active_steps[0] / max(traced[0].n_elements * steps, 1),
        "solver.advance.self_us": median(advance_self),
        "step_us.p99": float(np.percentile(untraced_steps, 99)),
        "physics.roe_flux.us": us("physics.roe_flux"),
        "physics.roe_flux.calls": calls("physics.roe_flux"),
        "physics.flux.us": us("physics.flux"),
        "physics.source.us": us("physics.source"),
        "physics.boundary_ghost.us": us("physics.boundary_ghost"),
        "physics.boundary_ghost.calls": calls("physics.boundary_ghost"),
        "physics.nozzle_area.calls": calls("physics.nozzle_area.all"),
        "physics.nozzle_area.s": total("physics.nozzle_area"),
        "sensor.evaluate.us": us("sensor.evaluate"),
        "sensor.evaluate.calls": calls("sensor.evaluate"),
        "harness.project_initial.s": total("harness.project_initial"),
        "harness.nozzle_initial.s": total("harness.nozzle_initial"),
        "harness.relax_shock.s": total("harness.relax_shock"),
        "harness.fv_reference.s": total("harness.fv_reference"),
        "harness.error_norm.s": total("harness.error_norm"),
        "trace.overhead_frac": overhead(untraced, traced),
    }
    return values, problems


def overhead(untraced, traced) -> float:
    """Traced over untraced median march time, minus 1 (0 if either failed)."""
    plain = [s.march_s for s in untraced if s.ok]
    timed = [s.march_s for s in traced if s.ok]
    return float(np.median(timed) / np.median(plain) - 1.0) if plain and timed else 0.0


def cross_check(tracer, traced, micro) -> None:
    """Print frozen-state timings beside the traced inclusive medians."""
    lo, hi = traced[0].spans
    march = tracer.summary(lo, hi, "march")
    print("# call                       frozen us   traced incl us   traced self us")
    for name, frozen in micro.items():
        rec = march.get(name)
        incl = float(np.median(rec["incl_us"])) if rec else float("nan")
        own = float(np.median(rec["self_us"])) if rec else float("nan")
        print(f"# {name:<26} {frozen:10.1f} {incl:16.1f} {own:16.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload, for the self-test")
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    configure_process()
    from tracing import Tracer
    from workloads import WORKLOADS

    env = environment()
    load_before = os.getloadavg()
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace} tiny={args.tiny}", flush=True)
    t_prep = perf_counter()
    workload.prepare()
    print(f"# prepare (untimed) {perf_counter() - t_prep:.2f} s", flush=True)
    min_solves = 1 if args.tiny else workload.min_solves
    if args.tiny:
        workload.setups = 2

    problems = []
    if args.trace == 0:
        solves = run_solves(workload, seconds, min_solves)
        values, samples = end_to_end(solves, collect_setups(workload, solves))
        wanted = spec["end_to_end"]
    else:
        untraced = run_solves(workload, seconds / 2, 1, probe=True)
        # the Euler Roe flux calls the law's flux on its two face states:
        # that is Roe flux work, not the volume flux that physics.flux times
        tracer = Tracer(fold={"physics.flux": "physics.roe_flux"})
        install_module_wrappers(tracer, args.workload)
        try:
            traced = run_solves(workload, seconds / 2, 1, MAX_TRACED_SOLVES, tracer=tracer)
        finally:
            tracer.unwrap_all()
        micro = untraced[0].probe() if untraced[0].probe is not None else {}
        values, problems = per_layer(tracer, untraced, traced, micro)
        cross_check(tracer, traced, micro)
        for name in tracer.missing:
            print(f"# not traced: {name} is not in this version of the package")
        tracer.write(STATE_DIR / "spans" / f"{args.workload}-seed{args.seed}.npz")
        solves = untraced + traced
        samples = {}
        wanted = spec["per_layer"]

    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    env["seed"] = args.seed
    print("# env " + json.dumps(env), flush=True)
    attempted = len(solves)
    failed = sum(not s.ok for s in solves)
    for p in problems:
        print(f"# call count check failed: {p}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in values.items():
        n = samples.get(name)
        extra = f"   ({n} samples)" if n is not None else ""
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<30} {shown:>14} {units.get(name, '')}{extra}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{'failed_frac':<30} {failed / attempted:>14.6g}    ({failed} of {attempted} solves)")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
