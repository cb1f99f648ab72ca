import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subgrid_dg import cli, harness
from subgrid_dg.cli import (
    EXIT_CONFIG,
    EXIT_NONINJECTIVE,
    EXIT_OK,
    EXIT_SOLVER,
    load_config,
    main,
)
from subgrid_dg.harness import RunConfig

TINY = ["--p", "1", "--n", "2", "--n-elements", "4", "--t-final", "0.02"]


def test_load_config_key_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
        # experiment setup
        case = burgers
        p = 3
        dt = 1e-3
        snapshot_times = 0.1, 0.2
        """
    )
    values = load_config(str(path))
    assert values == {
        "case": "burgers", "p": 3, "dt": 1e-3, "snapshot_times": (0.1, 0.2),
    }


def test_load_config_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"case": "nozzle", "dt": 2e-4, "snapshot_times": [0.4]}))
    values = load_config(str(path))
    assert values == {"case": "nozzle", "dt": 2e-4, "snapshot_times": (0.4,)}


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("case = burgers\nwavelet = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(str(path))
    path.write_text("case = burgers\nseed = 3\n")       # nothing is random
    with pytest.raises(ValueError, match="unknown config key 'seed'"):
        load_config(str(path))
    path.write_text("case burgers\n")
    with pytest.raises(ValueError, match="expected key = value"):
        load_config(str(path))


TINY_JSON = {"case": "burgers", "p": 1, "n": 2, "n_elements": 4, "t_final": 0.01}


@pytest.mark.parametrize("key, value", [
    ("n_elements", 4.0), ("cfl", None), ("c_pen", "1e7"),
    ("p", "1"), ("p", 1.5), ("p", True), ("t_final", "0.01"), ("t_final", False),
    ("case", 3), ("output_dir", 3), ("snapshot_times", 0.005), ("snapshot_times", [0.005, "x"]),
])
def test_run_command_json_value_of_another_type_is_config_error(tmp_path, capsys, key, value):
    # a JSON value must have its field's type already: a string that reads as
    # one, or a bool for a number, is not converted
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**TINY_JSON, key: value}))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: config key {key!r} cannot take {value!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key, raw", [
    ("n_elements", "4.0"), ("cfl", "fast"), ("p", "1.5"), ("t_final", "soon"),
    ("snapshot_times", "0.005, x"),
])
def test_run_command_text_value_that_does_not_parse_is_config_error(tmp_path, capsys, key, raw):
    path = tmp_path / "run.cfg"
    path.write_text(f"case = burgers\n{key} = {raw}\n")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: line 2: config key {key!r} cannot take {raw!r}" in captured.err
    assert captured.out == ""


# a flag value that does not parse, for every field whose parser can fail
BAD_FLAG_VALUES = {
    "p": "1.5", "n": "x", "n_elements": "4.0", "dt": "fast", "t_final": "soon", "c_pen": "1e7x",
    "tau": "high", "s_eps": "tiny", "cfl": "fast", "force_gamma_element": "1.5",
    "snapshot_times": "0.1,x",
}
STUDY = ["convergence", "--case", "convection-gaussian", "--p", "1", "--n", "2"]


@pytest.mark.parametrize("argv", [
    *(["run", "--case", "burgers", "--" + name.replace("_", "-"), raw]
      for name, raw in BAD_FLAG_VALUES.items()),
    STUDY + ["--levels", "8,16,x"], STUDY + ["--levels", "0,8,16"],
], ids=lambda argv: f"{argv[-2]} {argv[-1]}")
def test_flag_value_that_does_not_parse_exits_2_naming_the_flag(argv, capsys):
    # argparse refuses it before any work: SystemExit(2), the flag named on stderr
    assert set(BAD_FLAG_VALUES) == {n for n, parse in cli._FIELDS.items() if parse is not str.strip}
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"argument {argv[-2]}: invalid " in captured.err
    assert captured.out == ""


# dt, t_final, c_pen, tau, s_eps and cfl
FLOAT_FIELDS = [name for name, parse in cli._FIELDS.items() if parse is float]


@pytest.mark.parametrize("key", FLOAT_FIELDS + ["snapshot_times"])
def test_run_command_json_number_too_large_for_a_float_is_config_error(tmp_path, capsys, key):
    # a JSON integer is exact: one beyond the largest float would overflow
    # (or pass a finiteness check as a Python int)
    value = [0.005, 10 ** 400] if key == "snapshot_times" else 10 ** 400
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**TINY_JSON, key: value}))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: config key {key!r} cannot take {value!r}" in captured.err
    assert captured.out == ""


def test_run_command_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"case = burgers\np = \xff\n")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert (f"config error: cannot read config file {path}: 'utf-8' codec can't decode byte "
            "0xff in position 19") in captured.err
    assert captured.out == ""


def test_configs_from_flags_and_from_a_file_carry_the_case_defaults(tmp_path, monkeypatch):
    # the unset fields hold burgers' defaults as soon as the config is made
    built = []
    monkeypatch.setattr(cli, "run_case",
                        lambda config: built.append(config) or SimpleNamespace(summary={}))
    path = tmp_path / "run.cfg"
    path.write_text("case = burgers\nn = 3\n")
    for argv in (["run", "--case", "burgers", "--n", "3"], ["run", "--config", str(path)]):
        built.clear()
        assert main(argv) == EXIT_OK
        [config] = built
        assert (config.p, config.n, config.n_elements, config.t_final) == (4, 3, 9, 0.88)


def test_load_config_json_takes_its_own_types(tmp_path):
    path = tmp_path / "run.json"
    values = {**TINY_JSON, "dt": 1, "tau": None, "snapshot_times": [0.005, 1e-3],
              "output_dir": None}
    path.write_text(json.dumps(values))
    loaded = load_config(str(path))
    assert loaded == {**values, "snapshot_times": (0.005, 1e-3)}
    assert type(loaded["dt"]) is float          # a JSON integer for a float field
    RunConfig(**loaded)


# a value for every RunConfig field, none of them its default, as a flag or
# config-file text would give it
FIELD_VALUES = {
    "case": ("burgers", "burgers"),
    "p": (2, "2"),
    "n": (3, "3"),
    "n_elements": (5, "5"),
    "dt": (1e-3, "1e-3"),
    "t_final": (0.5, "0.5"),
    "c_pen": (2e6, "2e6"),
    "tau": (0.02, "0.02"),
    "s_eps": (1e-9, "1e-9"),
    "cfl": (0.2, "0.2"),
    "force_gamma_element": (1, "1"),
    "snapshot_times": ((0.1, 0.2), "0.1,0.2"),
    "output_dir": ("out", "out"),
}


def test_every_field_is_set_by_its_flag_and_by_a_config_file(tmp_path, monkeypatch):
    assert set(FIELD_VALUES) == {f.name for f in dataclasses.fields(RunConfig)}
    built = []
    monkeypatch.setattr(cli, "run_case",
                        lambda config: built.append(config) or SimpleNamespace(summary={}))
    expected = RunConfig(**{k: v for k, (v, _) in FIELD_VALUES.items()})
    flags = []
    for name, (_, text) in FIELD_VALUES.items():
        flags += ["--" + name.replace("_", "-"), text]
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{name} = {text}\n" for name, (_, text) in FIELD_VALUES.items()))
    for argv in (["run"] + flags, ["run", "--config", str(path)]):
        built.clear()
        assert main(argv) == EXIT_OK
        assert built == [expected]


def test_run_command_success(capsys):
    code = main(["run", "--case", "convection-gaussian"] + TINY)
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["case"] == "convection-gaussian"
    assert summary["n_steps"] > 0


def test_run_command_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = convection-gaussian\np = 2\nn = 3\n"
                   "n_elements = 4\nt_final = 0.05\n")
    code = main(["run", "--config", str(cfg), "--t-final", "0.02"])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["p"] == 2
    assert summary["t_final"] == pytest.approx(0.02)


def test_run_command_unknown_case_is_config_error(capsys):
    assert main(["run", "--case", "tornado"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_command_missing_case_is_config_error(capsys):
    assert main(["run", "--p", "1"]) == EXIT_CONFIG


@pytest.mark.parametrize("flags", [
    ["--s-eps", "0"], ["--c-pen", "-1"], ["--tau", "-0.01"],
])
def test_run_command_invalid_sensor_setting_is_config_error(flags, capsys):
    assert main(["run", "--case", "convection-heaviside"] + flags) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("element, message", [
    ("16", "force_gamma_element 16 is not one of the 16 elements"),
    ("-1", "force_gamma_element must be >= 0: -1"),
])
def test_run_command_forced_element_off_the_mesh_is_config_error(element, message, capsys):
    code = main(["run", "--case", "convection-gaussian", "--p", "2", "--n-elements", "16",
                 "--t-final", "0.01", "--force-gamma-element", element])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--t-final", "nan"], ["--t-final", "inf", "--dt", "1e-3"], ["--t-final", "0.02", "--dt", "nan"],
])
def test_run_command_non_finite_end_time_or_step_is_config_error(flags, capsys):
    code = main(["run", "--case", "convection-gaussian", "--p", "1", "--n", "2",
                 "--n-elements", "4", *flags])
    assert code == EXIT_CONFIG
    assert "need dt > 0 and a finite t_final" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--dt", "inf"], "need dt > 0 and a finite t_final: dt = inf is not finite and > 0"),
    (["--cfl", "inf"], "cfl must be finite and > 0: inf"),
])
def test_run_command_infinite_step_or_cfl_is_config_error(flags, message, capsys, tmp_path):
    # an infinite step would run one giant step and write "dt": Infinity
    code = main(["run", "--case", "convection-gaussian", "--t-final", "0.5",
                 "--output-dir", str(tmp_path), *flags])
    assert code == EXIT_CONFIG
    out = capsys.readouterr()
    assert message in out.err and out.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("times", ["0.01,0.05", "nan", "-0.01"])
def test_run_command_snapshot_time_outside_the_run_is_config_error(times, capsys, tmp_path):
    code = main(["run", "--case", "burgers", "--p", "1", "--n", "2", "--n-elements", "4",
                 "--t-final", "0.02", "--snapshot-times", times, "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    bad = times.split(",")[-1]
    assert f"snapshot time {float(bad)} is not in [0.0, 0.02]" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_command_solver_abort_exit_code(capsys):
    code = main(["run", "--case", "burgers", "--p", "1", "--n", "2",
                 "--n-elements", "4", "--dt", "10", "--t-final", "100"])
    assert code == EXIT_SOLVER
    assert "solver abort" in capsys.readouterr().err


def test_run_command_noninjective_exit_code(capsys):
    # n < p + 1: sub-cell averaging cannot separate the polynomial modes
    code = main(["run", "--case", "convection-gaussian", "--p", "3", "--n", "2",
                 "--n-elements", "4", "--t-final", "0.02"])
    assert code == EXIT_NONINJECTIVE
    assert "non-injective" in capsys.readouterr().err


def test_check_injectivity_command(capsys):
    assert main(["check-injectivity", "--p", "4", "--r", "3", "--d", "2"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["injective"] is True
    assert report["n"] == 16
    assert report["dofs"] == 15


@pytest.mark.parametrize("flags", [["--p", "-1", "--r", "2"], ["--p", "2", "--r", "-1"]])
def test_check_injectivity_command_negative_degree_or_refinement_is_config_error(flags, capsys):
    assert main(["check-injectivity", *flags, "--d", "1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: p and r must be non-negative" in captured.err
    assert captured.out == ""


def test_module_entry_point_exits_with_the_code_of_main():
    # `python -m subgrid_dg.cli` in its own process, the package found where
    # this one imported it
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "subgrid_dg.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = run("check-injectivity", "--p", "1", "--r", "2", "--d", "1")
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["injective"] is True
    done = run("run", "--case", "burgers", "--p", "x")
    assert done.returncode == EXIT_CONFIG
    assert "argument --p: invalid int value: 'x'" in done.stderr
    assert done.stdout == ""


def test_convergence_command(tmp_path, capsys):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("case = convection-gaussian\np = 1\nn = 2\n"
                   f"output_dir = {tmp_path / 'out'}\n")
    code = main(["convergence", "--config", str(cfg), "--levels", "8,16,32"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("order=") == 3
    csv_lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert csv_lines[0].startswith("h,")
    assert len(csv_lines) == 4


def test_convergence_command_at_zero_end_time_is_config_error(tmp_path, capsys):
    code = main(["convergence", "--case", "convection-gaussian", "--p", "1", "--n", "2",
                 "--t-final", "0", "--levels", "4,8,16", "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "t_final beyond the current time" in capsys.readouterr().err
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize("case, t_final", [("burgers", "0.1"), ("convection-gaussian", "0.5")])
def test_convergence_command_without_exact_end_state_is_config_error(tmp_path, capsys, case,
                                                                       t_final):
    code = main(["convergence", "--case", case, "--p", "1", "--n", "2", "--t-final", t_final,
                 "--levels", "4,8,16", "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"no exact end state for case '{case}' at t_final={t_final}" in err
    assert not (tmp_path / "convergence.csv").exists()


def test_convergence_command_with_snapshot_times_is_config_error(tmp_path, capsys):
    code = main(["convergence", "--case", "convection-gaussian", "--p", "1", "--n", "2",
                 "--levels", "4,8,16", "--snapshot-times", "0.5", "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: a convergence study takes no snapshot_times: (0.5,)" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "convergence.csv").exists()


def test_run_command_forced_value_without_element_is_config_error(capsys):
    # a forced element takes DEFAULT_C_PEN; no flag sets another value
    with pytest.raises(SystemExit) as exc:
        main(["run", "--case", "convection-heaviside", "--force-gamma-value", "5"])
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "unrecognized arguments: --force-gamma-value 5" in captured.err
    assert captured.out == ""


def test_reference_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    code = main(["reference", "--case", "convection-gaussian", "--cells", "32",
                 "--t-final", "0.1", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    path = tmp_path / "reference_convection-gaussian_32.csv"
    assert path.exists()
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u0"
    assert len(lines) == 33


def test_reference_command_unknown_case(tmp_path, capsys):
    code = main(["reference", "--case", "burgers", "--cells", "8",
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("flags, message", [
    (["--cells", "0"], "cells=0"),
    (["--cells", "-4"], "cells=-4"),
    (["--cells", "16", "--t-final", "-1"], "t_final must be finite and non-negative, got -1.0"),
    (["--cells", "16", "--t-final", "nan"], "got nan"),
])
def test_reference_command_bad_cells_or_end_time_is_config_error(tmp_path, monkeypatch, capsys,
                                                                 flags, message):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    code = main(["reference", "--case", "shu-osher", *flags, "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("reference_*.csv"))


@pytest.mark.parametrize("command", [
    ["run", "--case", "burgers"] + TINY,
    ["convergence", "--case", "convection-gaussian", "--p", "1", "--n", "2",
     "--levels", "8,16,32"],
    ["reference", "--case", "sod-like", "--cells", "16", "--t-final", "0.01"],
])
@pytest.mark.parametrize("below_file", [False, True])
def test_output_dir_that_cannot_be_made_is_config_error_before_any_work(
        tmp_path, monkeypatch, capsys, command, below_file):
    # a file in the directory's place, or a path below a file
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if below_file else blocker
    calls = []

    def recording(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(harness, "build_problem", recording("build_problem",
                                                            harness.build_problem))
    for name in ("convergence_study", "fv_reference"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    assert main(command + ["--output-dir", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: cannot make output directory {out}: " in captured.err
    assert captured.out == ""
    assert calls == []
    assert blocker.read_text() == ""


@pytest.mark.parametrize("name, reason", [("config-dir", "Is a directory"),
                                          ("missing.cfg", "No such file or directory")])
def test_run_command_config_file_that_cannot_be_read_is_config_error(tmp_path, capsys, name,
                                                                     reason):
    (tmp_path / "config-dir").mkdir()
    path = tmp_path / name
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: cannot read config file {path}: {reason}" in captured.err
    assert captured.out == ""


def test_run_command_json_unknown_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**TINY_JSON, "seed": 3}))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: unknown config key 'seed'" in captured.err
    assert captured.out == ""


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=4)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.dictionaries(st.sampled_from(sorted(cli._FIELDS)), _JSON_VALUES),
       text=st.booleans())
def test_config_building_raises_only_value_error(tmp_path, monkeypatch, values, text):
    # a config file of any keys and values, as JSON or as key = value text,
    # builds a RunConfig or is a config error: it raises no TypeError
    monkeypatch.setattr(cli, "run_case", lambda config: SimpleNamespace(summary={}))
    path = tmp_path / "run.cfg"
    if text:
        path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in values.items()))
    else:
        path.write_text(json.dumps({"case": "burgers", **values}))
    assert main(["run", "--config", str(path)]) in (EXIT_OK, EXIT_CONFIG)
