"""Command line interface.

Exit codes: 0 success, 2 config error, 3 solver abort, 4 non-injective (p, n).
A config file that cannot be read or an output directory that cannot be made
is a config error, found before any work; exit 1, a traceback, is a bug.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .harness import (
    RunConfig,
    convergence_study,
    fv_reference,
    make_output_dir,
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


def times(raw: str) -> tuple:   # named for argparse's "invalid times value" error
    return tuple(float(v) for v in raw.replace(",", " ").split())


def levels(raw: str) -> list:
    counts = [int(v) for v in raw.split(",")]
    if min(counts) < 1:
        raise ValueError(raw)
    return counts


def _text_parser(hint):
    """Parser of a RunConfig field's text value, from its type hint: the
    hint's one type other than None."""
    kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    return {tuple: times, str: str.strip}.get(kind, kind)


# every RunConfig field with the parser of its value in a config file or flag
_FIELDS = {name: _text_parser(hint) for name, hint in typing.get_type_hints(RunConfig).items()}
# every RunConfig field with the exact types of its JSON value (a bool is no int)
_JSON_TYPES = {name: sum(({float: (int, float), tuple: (list,)}.get(t, (t,))
                          for t in typing.get_args(hint) or (hint,)), ())
               for name, hint in typing.get_type_hints(RunConfig).items()}


def load_config(path: str) -> dict:
    """Flat key/value config: `key = value` lines or a flat JSON object."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        # a JSON object as its (key, value) pairs, so that no key given twice is lost
        pairs = json.loads(text, object_pairs_hook=tuple) if text.lstrip().startswith("{") else None
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    values: dict = {}
    if pairs is not None:
        for key, val in pairs:
            if key not in _FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            if key in values:
                raise ValueError(f"config key {key!r} is given twice")
            parse = _FIELDS[key]
            try:
                if type(val) not in _JSON_TYPES[key] or (    # snapshot_times: a list of numbers
                        type(val) is list and not all(type(v) in (int, float) for v in val)):
                    raise TypeError
                # a number as a float, so an integer too large for one is refused here
                values[key] = (tuple(map(float, val)) if parse is times
                               else float(val) if parse is float and val is not None else val)
            except (TypeError, OverflowError):
                raise ValueError(f"config key {key!r} cannot take {val!r}") from None
        return values
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ValueError(f"line {line_no}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"line {line_no}: config key {key!r} is given twice")
        try:
            values[key] = _FIELDS[key](raw)
        except ValueError:
            raise ValueError(f"line {line_no}: config key {key!r} cannot take {raw!r}") from None
    return values


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field, parsed as its config file value."""
    for name, parse in _FIELDS.items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=parse)


def _build_run_config(args) -> RunConfig:
    values = load_config(args.config) if args.config else {}
    values.update((name, v) for name in _FIELDS if (v := getattr(args, name)) is not None)
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
    p_conv.add_argument("--levels", required=True, type=levels,
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
    try:
        if args.command == "check-injectivity":
            print(json.dumps(dataclasses.asdict(check_injectivity(args.p, args.r, args.d))))
        elif args.command == "reference":
            out = make_output_dir(args.output_dir)
            _, x, U = fv_reference(args.case, args.cells, args.t_final)
            path = out / f"reference_{args.case}_{args.cells}.csv"
            data = np.column_stack([0.5 * (x[:-1] + x[1:]), *U])
            header = "x," + ",".join(f"u{c}" for c in range(U.shape[0]))
            np.savetxt(path, data, delimiter=",", header=header, comments="")
            print(f"wrote {path}")
        elif args.command == "run":
            print(json.dumps(run_case(_build_run_config(args)).summary, indent=2))
        else:
            config = _build_run_config(args)
            out = make_output_dir(config.output_dir or ".")
            dt_rule = None if config.dt is not None else spatial_accuracy_dt_rule(min(args.levels))
            records = convergence_study(config, args.levels, norm_kind=args.norm, dt_rule=dt_rule)
            write_convergence_csv(records, out / "convergence.csv")
            for r in records:
                order = "-" if r.observed_order is None else f"{r.observed_order:.3f}"
                print(f"h={r.h:.6g}  error={r.error:.6e}  order={order}")
    except NonInjectiveError as exc:      # a ValueError, so caught first
        print(f"non-injective configuration: {exc}", file=sys.stderr)
        return EXIT_NONINJECTIVE
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
