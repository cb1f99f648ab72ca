import json

import pytest

from subgrid_dg.cli import (
    EXIT_CONFIG,
    EXIT_NONINJECTIVE,
    EXIT_OK,
    EXIT_SOLVER,
    load_config,
    main,
)

TINY = ["--p", "1", "--n", "2", "--n-elements", "4", "--t-final", "0.02"]


def test_load_config_key_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
        # experiment setup
        case = burgers
        p = 3
        dt = 1e-3
        entropy_fix = true
        snapshot_times = 0.1, 0.2
        """
    )
    values = load_config(str(path))
    assert values == {
        "case": "burgers", "p": 3, "dt": 1e-3, "entropy_fix": True,
        "snapshot_times": (0.1, 0.2),
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
    ["--force-gamma-element", "3", "--force-gamma-value", "-1"],
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
