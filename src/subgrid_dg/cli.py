"""Command line interface.

Exit codes: 0 success, 2 config error, 3 solver abort, 4 non-injective (p, n).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .harness import (
    RunConfig,
    convergence_study,
    fv_reference,
    run_case,
    spatial_accuracy_dt_rule,
    write_convergence_csv,
)
from .projections import NonInjectiveError, check_injectivity
from .solver import SolverAbort

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NONINJECTIVE = 4

_BOOL_KEYS = {"entropy_fix"}
_INT_KEYS = {"p", "n", "n_elements", "force_gamma_element"}
_FLOAT_KEYS = {"dt", "t_final", "c_pen", "tau", "s_eps", "cfl", "force_gamma_value"}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "snapshot_times":
        return tuple(float(v) for v in raw.replace(",", " ").split()) if raw else ()
    if key in _BOOL_KEYS:
        return raw.lower() in ("1", "true", "yes", "on")
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    return raw


def load_config(path: str) -> dict:
    """Flat key/value config: `key = value` lines or a flat JSON object."""
    text = Path(path).read_text()
    valid = {f.name for f in dataclasses.fields(RunConfig)}
    values: dict = {}
    if text.lstrip().startswith("{"):
        for key, val in json.loads(text).items():
            if key not in valid:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = tuple(val) if key == "snapshot_times" else val
        return values
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in valid:
            raise ValueError(f"line {line_no}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--case", choices=None)
    parser.add_argument("--p", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--n-elements", dest="n_elements", type=int)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--t-final", dest="t_final", type=float)
    parser.add_argument("--c-pen", dest="c_pen", type=float)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--s-eps", dest="s_eps", type=float)
    parser.add_argument("--cfl", type=float)
    parser.add_argument("--entropy-fix", dest="entropy_fix", action="store_true",
                        default=None)
    parser.add_argument("--force-gamma-element", dest="force_gamma_element", type=int)
    parser.add_argument("--force-gamma-value", dest="force_gamma_value", type=float)
    parser.add_argument("--snapshot-times", dest="snapshot_times",
                        help="comma-separated times")
    parser.add_argument("--output-dir", dest="output_dir")


def _build_run_config(args) -> RunConfig:
    values = load_config(args.config) if args.config else {}
    for f in dataclasses.fields(RunConfig):
        cli_val = getattr(args, f.name, None)
        if cli_val is not None:
            if f.name == "snapshot_times" and isinstance(cli_val, str):
                cli_val = _parse_value("snapshot_times", cli_val)
            values[f.name] = cli_val
    if "case" not in values:
        raise ValueError("a case must be given via config file or --case")
    return RunConfig(**values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="subgrid-dg")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config")
    _add_override_flags(p_run)

    p_conv = sub.add_parser("convergence", help="run a mesh refinement study")
    p_conv.add_argument("--config")
    p_conv.add_argument("--levels", required=True,
                        help="comma-separated element counts, e.g. 8,16,32,64")
    p_conv.add_argument("--norm", default="L2", choices=["L1", "L2"])
    _add_override_flags(p_conv)

    p_inj = sub.add_parser("check-injectivity",
                           help="numerical rank check of sub-cell averaging")
    p_inj.add_argument("--p", type=int, required=True)
    p_inj.add_argument("--r", type=int, required=True)
    p_inj.add_argument("--d", type=int, choices=[1, 2], required=True)

    p_ref = sub.add_parser("reference", help="fine-grid finite volume reference")
    p_ref.add_argument("--case", required=True)
    p_ref.add_argument("--cells", type=int, required=True)
    p_ref.add_argument("--t-final", dest="t_final", type=float)
    p_ref.add_argument("--output-dir", dest="output_dir", default=".")

    args = parser.parse_args(argv)

    if args.command == "check-injectivity":
        report = check_injectivity(args.p, args.r, args.d)
        print(json.dumps(report.as_dict()))
        return EXIT_OK

    if args.command == "reference":
        try:
            _, x, U = fv_reference(args.case, args.cells, args.t_final)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"reference_{args.case}_{args.cells}.csv"
        import numpy as np

        centers = 0.5 * (x[:-1] + x[1:])
        data = np.column_stack([centers] + [U[c] for c in range(U.shape[0])])
        header = "x," + ",".join(f"u{c}" for c in range(U.shape[0]))
        np.savetxt(path, data, delimiter=",", header=header, comments="")
        print(f"wrote {path}")
        return EXIT_OK

    try:
        config = _build_run_config(args)
    except (ValueError, TypeError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "run":
            result = run_case(config)
            print(json.dumps(result.summary, indent=2))
            return EXIT_OK
        if args.command == "convergence":
            levels = [int(v) for v in args.levels.split(",")]
            dt_rule = None
            if config.dt is None:
                dt_rule = spatial_accuracy_dt_rule(min(levels))
            records = convergence_study(config, levels, norm_kind=args.norm,
                                        dt_rule=dt_rule)
            out_dir = Path(config.output_dir or ".")
            out_dir.mkdir(parents=True, exist_ok=True)
            write_convergence_csv(records, out_dir / "convergence.csv")
            for r in records:
                order = "-" if r.observed_order is None else f"{r.observed_order:.3f}"
                print(f"h={r.h:.6g}  error={r.error:.6e}  order={order}")
            return EXIT_OK
    except NonInjectiveError as exc:
        print(f"non-injective configuration: {exc}", file=sys.stderr)
        return EXIT_NONINJECTIVE
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
