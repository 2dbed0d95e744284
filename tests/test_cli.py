import csv
import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from twonorm import cli
from twonorm.cli import (
    EXIT_BLOWUP,
    EXIT_ERROR,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
    parse_config,
    run_blowup_scan,
    run_solve,
    run_sweep,
)
from twonorm.core import NormedPairElement, Termination
from twonorm.grids import GridFunction1D

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def _decay_config(tmp_path, **overrides):
    cfg = {
        "instance": "ode.decay",
        "t_max": 5.0,
        "output_dir": str(tmp_path / "out"),
        "params": {"x0": 1.0},
        "solver": {},
        "emit": {"trajectory": True},
    }
    cfg.update(overrides)
    return cfg


# -- config parsing -------------------------------------------------------------

def test_invalid_json_diagnoses_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "instance": "ode.decay",\n  broken\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(str(path))


def test_unknown_instance_rejected(tmp_path):
    with pytest.raises(ConfigError, match="instance"):
        parse_config(_decay_config(tmp_path, instance="ode.unknown"))


def test_bad_t_max_rejected(tmp_path):
    with pytest.raises(ConfigError, match="t_max"):
        parse_config(_decay_config(tmp_path, t_max=-1.0))


def test_infinite_t_max_rejected(tmp_path):
    # JSON's Infinity parses to float("inf"); solving to it would never return
    raw = json.loads('{"instance": "ode.decay", "t_max": Infinity, "output_dir": "o"}')
    with pytest.raises(ConfigError, match="t_max"):
        parse_config(raw)


def _burgers_config(tmp_path, **params):
    return {"instance": "transport.burgers", "t_max": 1.0,
            "output_dir": str(tmp_path / "o"), "params": params}


@pytest.mark.parametrize("make_cfg,field", [
    (lambda p: _decay_config(p, t_max=True), "t_max"),
    (lambda p: _decay_config(p, t_max=10**400), "t_max"),
    (lambda p: _burgers_config(p, amplitude=float("nan")), "params.amplitude"),
    (lambda p: _burgers_config(p, amplitude=float("inf")), "params.amplitude"),
    (lambda p: _decay_config(p, params={"x0": float("nan")}), "params.x0"),
    (lambda p: _decay_config(p, params={"x0": float("-inf")}), "params.x0"),
    (lambda p: _burgers_config(p, length="abc"), "params.length"),
    (lambda p: _decay_config(p, emit={"report": "no"}), "emit.report"),
    (lambda p: _decay_config(p, solver={"max_picard_iters": 2.5}), "solver.max_picard_iters"),
    (lambda p: _decay_config(p, solver={"max_picard_iters": True}), "solver.max_picard_iters"),
    (lambda p: _decay_config(p, solver={"substeps_per_window": 8.5}),
     "solver.substeps_per_window"),
    (lambda p: _decay_config(p, solver={"max_windows": 1.5}), "solver.max_windows"),
    (lambda p: _decay_config(p, solver={"max_windows": "64"}), "solver.max_windows"),
    (lambda p: _decay_config(p, solver={"kappa": float("inf")}), "solver.kappa"),
    (lambda p: _decay_config(p, solver={"swap_roles": "no"}), "solver.swap_roles"),
    (lambda p: _decay_config(p, solver={"tol": float("inf")}), "solver.tol"),
    (lambda p: _decay_config(p, solver={"tol": True}), "solver.tol"),
    (lambda p: _decay_config(p, solver={"empirical_mode": 1}), "solver.empirical_mode"),
    (lambda p: _decay_config(p, solver={"strong_norm_cap": float("nan")}),
     "solver.strong_norm_cap"),
    (lambda p: _decay_config(p, solver={"strong_norm_cap": "100"}), "solver.strong_norm_cap"),
], ids=["t_max-true", "t_max-10**400", "amplitude-nan", "amplitude-inf", "x0-nan", "x0-inf",
        "length-str", "emit-str", "picard-iters-float", "picard-iters-true",
        "substeps-float", "max-windows-float", "max-windows-str", "kappa-inf",
        "swap-roles-str", "tol-inf", "tol-true", "empirical-mode-int",
        "cap-nan", "cap-str"])
def test_strict_numeric_and_boolean_fields(tmp_path, make_cfg, field):
    with pytest.raises(ConfigError, match=f"field '{field}'"):
        parse_config(make_cfg(tmp_path))


def test_null_strong_norm_cap_keeps_the_default(tmp_path):
    config = parse_config(_decay_config(tmp_path, solver={"strong_norm_cap": None}))
    assert config.solver.strong_norm_cap is None


def test_unknown_solver_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="solver"):
        parse_config(_decay_config(tmp_path, solver={"bogus": 1}))


def test_bad_solver_value_rejected(tmp_path):
    with pytest.raises(ConfigError, match="kappa"):
        parse_config(_decay_config(tmp_path, solver={"kappa": 0.5}))


def test_transport_param_validation(tmp_path):
    cfg = {
        "instance": "transport.burgers",
        "t_max": 1.0,
        "output_dir": str(tmp_path / "o"),
        "params": {"n": 8},
    }
    with pytest.raises(ConfigError, match="params.n"):
        parse_config(cfg)
    cfg["params"] = {"n": 64, "interpolation": "quintic"}
    with pytest.raises(ConfigError, match="interpolation"):
        parse_config(cfg)
    cfg["params"] = {"n": 64, "profile": "nosuch"}
    with pytest.raises(ConfigError, match="profile"):
        parse_config(cfg)


@pytest.mark.parametrize("overrides,field", [
    ({"solvr": {"kappa": 4}}, "solvr"),
    ({"instance": "ode.riccati", "params": {"x0": 1.0, "amplitude": 2.0}}, "params.amplitude"),
    ({"instance": "ode.riccati", "params": {"x0": 1.0, "rate": 2.0}}, "params.rate"),
    ({"instance": "transport.burgers", "params": {"n": 64, "x0": 1.0}}, "params.x0"),
    ({"emit": {"trajectroy": True}}, "emit.trajectroy"),
], ids=["top-level", "riccati-amplitude", "riccati-rate", "burgers-x0", "emit"])
def test_main_rejects_an_unknown_key_naming_it(tmp_path, capsys, overrides, field):
    path = _write(tmp_path, "cfg.json", _decay_config(tmp_path, **overrides))
    assert main(["solve", path]) == EXIT_ERROR
    assert f"field '{field}': unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_every_bundled_config_loads(path):
    assert load_config(str(path)).instance == json.loads(path.read_text())["instance"]


def test_config_that_is_not_utf8_exits_1_naming_the_file(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"instance": "ode.decay"}'.encode("utf-16-le"))
    assert main(["solve", str(path)]) == EXIT_ERROR
    assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", "null", "5"], ids=["array", "null", "number"])
def test_config_whose_top_level_is_not_an_object_exits_1(tmp_path, capsys, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["solve", str(path)]) == EXIT_ERROR
    assert f"error: {path}: top level must be a JSON object" in capsys.readouterr().err


def test_defaults_filled_in(tmp_path):
    config = parse_config(_decay_config(tmp_path))
    assert config.params["rate"] == 1.0
    assert config.solver.kappa == 2.0
    assert config.emit_norms and config.emit_report and config.emit_trajectory


# -- run_solve --------------------------------------------------------------------

def test_solve_decay_artifacts_and_exit_code(tmp_path):
    config = parse_config(_decay_config(tmp_path))
    code, report, segments = run_solve(config)
    assert code == EXIT_OK
    out = tmp_path / "out"
    assert (out / "report.json").exists()
    assert (out / "norms.csv").exists()
    assert (out / "windows.csv").exists()
    assert (out / "trajectory.csv").exists()

    norms = (out / "norms.csv").read_text().splitlines()
    assert norms[0] == "t,weak_norm,strong_norm"
    first = norms[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    last = norms[-1].split(",")
    assert float(last[0]) == 5.0
    assert float(last[1]) == pytest.approx(math.exp(-5.0), rel=1e-6)

    windows = (out / "windows.csv").read_text().splitlines()
    assert windows[0] == "t_start,t_end,iters,max_ratio"
    assert len(windows) - 1 == len(report.windows)

    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,x0"


def test_solve_report_round_trips_through_file(tmp_path):
    config = parse_config(_decay_config(tmp_path))
    _, report, _ = run_solve(config)
    loaded = json.loads((tmp_path / "out" / "report.json").read_text())
    assert loaded == report.to_dict()


@pytest.mark.parametrize("instance", ["ode.decay", "transport.burgers"])
def test_solve_exposes_the_attribute_paths_the_benchmark_reads(tmp_path, monkeypatch, instance):
    # the benchmark swaps an instance's step and weak_dist through build_instance,
    # reads the step's x0 and substeps, and checks the final state against an oracle
    seen = {"step": 0, "weak_dist": 0}
    build = cli.build_instance

    def traced(config):
        inst = build(config)

        def step(*args, **kwargs):
            assert isinstance(args[1], NormedPairElement) and isinstance(args[3], int)
            seg = inst.step(*args, **kwargs)
            seen["step"] += 1  # steps that return
            return seg

        def weak_dist(*args):
            seen["weak_dist"] += 1
            return inst.weak_dist(*args)
        return dataclasses.replace(inst, step=step, weak_dist=weak_dist)

    monkeypatch.setattr(cli, "build_instance", traced)
    params = {"x0": 1.0} if instance == "ode.decay" else {"n": 32}
    config = parse_config({"instance": instance, "t_max": 0.25, "params": params,
                           "output_dir": str(tmp_path / "o"),
                           "solver": {"substeps_per_window": 8, "empirical_mode": True}})
    _, report, segments = run_solve(config)
    assert report.termination is Termination.HORIZON_REACHED
    assert seen["step"] == seen["weak_dist"] > 0
    final = segments[-1].states[-1].state
    if instance == "ode.decay":
        assert isinstance(final, np.ndarray) and final.shape == (1,)
        assert float(final[0]) == pytest.approx(math.exp(-0.25), rel=1e-6)
    else:
        assert isinstance(final, GridFunction1D) and final.n == 32
        assert final.nodes().shape == final.values.shape == (32,)


def test_solve_riccati_exit_blowup(tmp_path):
    cfg = {
        "instance": "ode.riccati",
        "t_max": 2.0,
        "output_dir": str(tmp_path / "o"),
        "params": {"x0": 1.0},
    }
    code, report, _ = run_solve(parse_config(cfg))
    assert code == EXIT_BLOWUP
    assert 0.85 <= report.t_c_estimate <= 1.0


@pytest.mark.parametrize("n,t_c", [(256, 0.977640), (1024, 1.006636), (4096, 1.009282)])
def test_burgers_t_c_falls_on_either_side_of_t_star(tmp_path, n, t_c):
    # T* = 1; the saturating grid norm makes the detection time depend on n:
    # early at n = 256, late at n = 1024 and 4096
    raw = json.loads((CONFIGS / "burgers.json").read_text())
    raw.update(output_dir=str(tmp_path / "o"), params={**raw["params"], "n": n},
               solver={"strong_norm_cap": 0.5 * raw["params"]["amplitude"] * n / (2 * math.pi)})
    code, report, _ = run_solve(parse_config(raw))
    assert code == EXIT_BLOWUP
    assert report.t_c_estimate == pytest.approx(t_c, abs=1e-6)


def test_solve_burgers_writes_final_state_grid(tmp_path):
    cfg = {
        "instance": "transport.burgers",
        "t_max": 0.2,
        "output_dir": str(tmp_path / "o"),
        "params": {"n": 64},
        "solver": {"substeps_per_window": 16},
        "emit": {"trajectory": True},
    }
    code, _, _ = run_solve(parse_config(cfg))
    assert code == EXIT_OK
    lines = (tmp_path / "o" / "final_state.csv").read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 65


def test_final_state_csv_round_trip(tmp_path):
    cfg = {"instance": "transport.burgers", "t_max": 0.2, "output_dir": str(tmp_path / "o"),
           "params": {"n": 32}, "solver": {"substeps_per_window": 16},
           "emit": {"trajectory": True}}
    _, _, segments = run_solve(parse_config(cfg))
    final = segments[-1].end.state
    path = tmp_path / "o" / "final_state.csv"
    assert path.read_bytes().count(b"\r\n") == 33  # CRLF line ends
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["x", "value"]
    assert np.array_equal([float(x) for x, _ in rows], final.nodes())
    assert np.array_equal([float(v) for _, v in rows], final.values)


def test_stray_tmp_file_is_neither_clobbered_nor_used(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json.tmp").write_text("stray")
    _, report, _ = run_solve(parse_config(_decay_config(tmp_path)))
    assert (out / "report.json.tmp").read_text() == "stray"
    loaded = json.loads((out / "report.json").read_text())
    assert loaded == report.to_dict()
    assert sorted(p.name for p in out.iterdir() if p.name.endswith(".tmp")) == [
        "report.json.tmp"]


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("twonorm.cli.os.replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        run_solve(parse_config(_decay_config(tmp_path)))
    assert list((tmp_path / "out").iterdir()) == []


def test_failed_final_state_write_leaves_no_file(tmp_path, monkeypatch):
    real_replace = os.replace

    def refuse_final_state(src, dst):
        if os.path.basename(dst) == "final_state.csv":
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr("twonorm.cli.os.replace", refuse_final_state)
    cfg = {
        "instance": "transport.burgers",
        "t_max": 0.2,
        "output_dir": str(tmp_path / "o"),
        "params": {"n": 64},
        "solver": {"substeps_per_window": 16},
        "emit": {"trajectory": True},
    }
    with pytest.raises(OSError, match="disk full"):
        run_solve(parse_config(cfg))
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
        "norms.csv", "report.json", "windows.csv"]


def test_output_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TWONORM_OUTPUT_ROOT", str(tmp_path / "root"))
    cfg = _decay_config(tmp_path, output_dir="rel/decay")
    run_solve(parse_config(cfg))
    assert (tmp_path / "root" / "rel" / "decay" / "report.json").exists()


# -- run_sweep ----------------------------------------------------------------------

def test_sweep_decay_order_near_four(tmp_path):
    cfg = _decay_config(tmp_path, t_max=2.0,
                        solver={"substeps_per_window": 8, "tol": 1e-12})
    code, errors = run_sweep(parse_config(cfg), levels=3)
    assert code == EXIT_OK
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "level,error,observed_order"
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][2] == "na"
    for row in rows[1:]:
        assert float(row[2]) >= 3.8


def test_sweep_advect_order(tmp_path):
    cfg = {
        "instance": "transport.advect",
        "t_max": 0.5,
        "output_dir": str(tmp_path / "o"),
        "params": {"n": 128},
        "solver": {"substeps_per_window": 125},
    }
    code, errors = run_sweep(parse_config(cfg), levels=3)
    assert code == EXIT_OK
    assert all(b < a for a, b in zip(errors, errors[1:]))
    rows = [line.split(",") for line in
            (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]]
    for row in rows[1:]:
        assert float(row[2]) >= 1.8


def test_sweep_zero_data_marks_orders_na(tmp_path):
    cfg = {
        "instance": "transport.advect",
        "t_max": 0.5,
        "output_dir": str(tmp_path / "o"),
        "params": {"n": 64, "amplitude": 0.0},
        "solver": {"substeps_per_window": 16},
    }
    code, errors = run_sweep(parse_config(cfg), levels=2)
    assert code == EXIT_OK
    assert errors == [0.0, 0.0]
    rows = [line.split(",") for line in
            (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]]
    assert all(row[1] == "0.0" and row[2] == "na" for row in rows)


def test_main_sweep_burgers_errors_decrease(tmp_path, capsys):
    # errors observed: 9.88e-4, 2.18e-4, 4.12e-5 at n = 64, 128, 256
    path = _write(tmp_path, "b.json", {"instance": "transport.burgers", "t_max": 0.5,
                                       "output_dir": str(tmp_path / "o"),
                                       "params": {"n": 64}})
    assert main(["sweep", path, "--levels", "3"]) == EXIT_OK
    assert "transport.burgers: sweep errors" in capsys.readouterr().out
    errors = [float(line.split(",")[1]) for line in
              (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]]
    assert len(errors) == 3 and all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[0] < 2e-3


@pytest.mark.parametrize("instance,params,message", [
    # x' = x^2 from 1 blows up at t = 1
    ("ode.riccati", {}, "sweep level 0 did not reach the horizon (BlowUpDetected)"),
    # the discrete Lipschitz norm saturates, so the solve goes on past the shock at t = 1
    ("transport.burgers", {"n": 64}, "sweep level 0 has no oracle value (characteristics cross"),
], ids=["riccati-blowup", "burgers-past-shock"])
def test_sweep_level_without_an_error_past_t_c_names_t_max(tmp_path, capsys, instance, params,
                                                           message):
    path = _write(tmp_path, "c.json", {"instance": instance, "t_max": 2.0,
                                       "output_dir": str(tmp_path / "o"), "params": params})
    assert main(["sweep", path, "--levels", "1"]) == EXIT_ERROR
    assert f"error: field 't_max': {message}" in capsys.readouterr().err


# -- run_blowup_scan ------------------------------------------------------------------

def test_blowup_scan_riccati(tmp_path):
    cfg = {
        "instance": "ode.riccati",
        "t_max": 4.0,
        "output_dir": str(tmp_path / "o"),
        "params": {"x0": 1.0},
    }
    code, results = run_blowup_scan(parse_config(cfg), [2.0])
    assert code == EXIT_OK
    amp, t_c, oracle, _ = results[0]
    assert oracle == 0.5
    assert abs(t_c - 0.5) / 0.5 <= 0.10
    lines = (tmp_path / "o" / "blowup.csv").read_text().splitlines()
    assert lines[0] == "amplitude,t_c_estimate,oracle_T_star"


def test_blowup_scan_zero_amplitude_records_inf(tmp_path):
    cfg = {
        "instance": "ode.riccati",
        "t_max": 1.0,
        "output_dir": str(tmp_path / "o"),
        "params": {"x0": 1.0},
    }
    code, results = run_blowup_scan(parse_config(cfg), [0.0])
    assert code == EXIT_OK
    assert results[0][1] == math.inf
    row = (tmp_path / "o" / "blowup.csv").read_text().splitlines()[1]
    assert row.split(",")[1] == "inf"
    assert row.split(",")[2] == "inf"


def test_blowup_scan_rejects_other_instances(tmp_path):
    with pytest.raises(ConfigError):
        run_blowup_scan(parse_config(_decay_config(tmp_path)), [1.0])


# -- determinism and entry point ---------------------------------------------------------

def test_repeated_runs_byte_identical(tmp_path):
    cfg = {
        "instance": "ode.riccati",
        "t_max": 2.0,
        "output_dir": str(tmp_path / "a"),
        "params": {"x0": 1.0},
    }
    run_solve(parse_config(cfg))
    cfg["output_dir"] = str(tmp_path / "b")
    run_solve(parse_config(cfg))
    for name in ("report.json", "norms.csv", "windows.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_main_solve_and_errors(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _decay_config(tmp_path, t_max=1.0))
    assert main(["solve", path]) == EXIT_OK
    assert main(["solve", str(tmp_path / "missing.json")]) == EXIT_ERROR
    bad = _write(tmp_path, "bad.json", _decay_config(tmp_path, instance="nope"))
    assert main(["solve", bad]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "instance" in err


@pytest.mark.parametrize("solver_json,field", [('{"kappa": Infinity}', "solver.kappa"),
                                               ('{"swap_roles": "no"}', "solver.swap_roles")])
def test_main_solve_names_the_bad_solver_field(tmp_path, capsys, solver_json, field):
    path = tmp_path / "cfg.json"
    path.write_text('{"instance": "ode.decay", "t_max": 5.0, "output_dir": '
                    + json.dumps(str(tmp_path / "o")) + ', "solver": ' + solver_json + '}')
    assert main(["solve", str(path)]) == EXIT_ERROR
    assert f"field '{field}'" in capsys.readouterr().err


def test_main_blowup_parses_amplitudes(tmp_path):
    cfg = {
        "instance": "ode.riccati",
        "t_max": 1.5,
        "output_dir": str(tmp_path / "o"),
        "params": {"x0": 1.0},
    }
    path = _write(tmp_path, "r.json", cfg)
    assert main(["blowup", path, "--amplitudes", "0.0,2.0"]) == EXIT_OK
    lines = (tmp_path / "o" / "blowup.csv").read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("amplitudes", ["0.5,abc", "nan", "inf", ","])
def test_main_blowup_names_bad_amplitudes(capsys, amplitudes):
    path = str(CONFIGS / "riccati.json")
    assert main(["blowup", path, "--amplitudes", amplitudes]) == EXIT_ERROR
    assert "error: --amplitudes:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,name", [
    (["solve"], "field 'params.amplitude'"),
    (["sweep", "--levels", "1"], "field 'params.amplitude'"),
    (["blowup", "--amplitudes", "1e308"], "--amplitudes"),
], ids=["solve", "sweep", "blowup"])
def test_main_names_an_amplitude_whose_strong_norm_overflows(tmp_path, capsys, argv, name):
    # amplitude 1e308 is finite, but its Lipschitz norm at n = 64 is not
    path = _write(tmp_path, "b.json", {"instance": "transport.burgers", "t_max": 0.5,
                                       "output_dir": str(tmp_path / "b"),
                                       "params": {"n": 64, "amplitude": 1e308}})
    assert main([argv[0], path, *argv[1:]]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"error: {name}: the initial strong norm overflows" in err
    assert "Warning" not in err


@pytest.mark.parametrize("instance,argv,params,solver,message", [
    ("ode.decay", ["solve"], {"x0": 1.8e302}, {}, "field 'params.x0': the initial strong norm"),
    ("ode.decay", ["solve"], {"x0": 4e307}, {}, "field 'params.x0': the initial strong norm"),
    ("ode.decay", ["solve"], {"x0": 8.9e307}, {}, "field 'params.x0': the initial strong norm"),
    ("ode.decay", ["solve"], {"x0": 1e308}, {}, "field 'params.x0': the initial strong norm"),
    ("ode.decay", ["sweep", "--levels", "1"], {"x0": -1e308}, {},
     "field 'params.x0': the initial strong norm"),
    ("ode.riccati", ["blowup", "--amplitudes", "1,1e303"], {}, {},
     "--amplitudes: the initial strong norm"),
    ("ode.decay", ["solve"], {}, {"kappa": 1e308}, "field 'solver.kappa': 2 x kappa x"),
], ids=["decay-1.8e302", "decay-4e307", "decay-8.9e307", "decay-1e308", "sweep-decay--1e308",
        "riccati-scan-1e303", "kappa-1e308"])
def test_an_initial_norm_without_headroom_is_named_before_any_solve_or_directory(
        tmp_path, capsys, monkeypatch, instance, argv, params, solver, message):
    # 1e6 x the initial norm (the default blow-up threshold) or 2 x kappa x it (the
    # largest radius planning samples) is not finite; these runs used to end
    # BlowUpDetected at t_c = 0, leak numpy warnings or end ContractionFailure
    solves = []
    monkeypatch.setattr(cli, "continuation_solve", lambda *args: solves.append(args))
    path = _write(tmp_path, "c.json", {"instance": instance, "t_max": 5.0,
                                       "output_dir": str(tmp_path / "o"), "params": params,
                                       "solver": solver})
    assert main([argv[0], path, *argv[1:]]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "overflows" in err
    assert "Warning" not in err
    assert solves == [] and not (tmp_path / "o").exists()


def test_decay_from_the_largest_x0_with_headroom_reaches_the_horizon(tmp_path):
    # 1e6 x 1.7e302 is still finite
    code, report, _ = run_solve(parse_config(_decay_config(tmp_path, params={"x0": 1.7e302})))
    assert code == EXIT_OK and report.termination is Termination.HORIZON_REACHED


@pytest.mark.parametrize("argv,amplitude", [
    (["solve"], 1e308),
    (["blowup", "--amplitudes", "1,1e308"], 1.0),
], ids=["solve", "blowup"])
def test_an_overflowing_amplitude_is_named_before_any_solve_or_directory(
        tmp_path, capsys, monkeypatch, argv, amplitude):
    solves = []
    monkeypatch.setattr(cli, "continuation_solve", lambda *args: solves.append(args))
    path = _write(tmp_path, "b.json", {"instance": "transport.burgers", "t_max": 0.5,
                                       "output_dir": str(tmp_path / "b"),
                                       "params": {"n": 64, "amplitude": amplitude}})
    assert main([argv[0], path, *argv[1:]]) == EXIT_ERROR
    assert "overflows at amplitude 1e+308" in capsys.readouterr().err
    assert solves == [] and not (tmp_path / "b").exists()


@pytest.mark.parametrize("argv", [["solve"], ["sweep", "--levels", "1"],
                                  ["blowup", "--amplitudes", "1"]], ids=["solve", "sweep", "blowup"])
def test_a_length_whose_initial_samples_are_not_finite_is_named(tmp_path, capsys, monkeypatch,
                                                                argv):
    # 2 pi / 5e-324 is +inf, so the sampled sine is nan; it used to escape as
    # a ValueError from the grid
    solves = []
    monkeypatch.setattr(cli, "continuation_solve", lambda *args: solves.append(args))
    path = _write(tmp_path, "b.json", {"instance": "transport.burgers", "t_max": 0.5,
                                       "output_dir": str(tmp_path / "b"),
                                       "params": {"n": 64, "length": 5e-324}})
    assert main([argv[0], path, *argv[1:]]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "error: field 'params.length': the initial state is not finite" in err
    assert "Warning" not in err
    assert solves == [] and not (tmp_path / "b").exists()


@pytest.mark.parametrize("argv,code", [
    (["sweep", str(CONFIGS / "decay.json"), "--levels", "abc"], EXIT_ERROR),
    (["solve"], EXIT_ERROR),
    (["--help"], EXIT_OK),
], ids=["levels-not-int", "no-config", "help"])
def test_usage_errors_exit_1_not_the_blowup_code(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code


def test_main_solves_an_amplitude_whose_strong_norm_is_finite(tmp_path):
    path = _write(tmp_path, "b.json", {"instance": "transport.burgers", "t_max": 0.5,
                                       "output_dir": str(tmp_path / "b"),
                                       "params": {"n": 64, "amplitude": 1e300}})
    assert main(["solve", path]) == EXIT_BLOWUP


@pytest.mark.parametrize("output_dir", ["file", "file/sub"], ids=["is-a-file", "under-a-file"])
def test_output_dir_that_cannot_be_created_names_the_field(tmp_path, capsys, output_dir):
    (tmp_path / "file").write_text("")
    cfg = _decay_config(tmp_path, output_dir=str(tmp_path / output_dir))
    with pytest.raises(ConfigError, match="field 'output_dir'"):
        run_solve(parse_config(cfg))
    assert main(["solve", _write(tmp_path, "cfg.json", cfg)]) == EXIT_ERROR
    assert "field 'output_dir'" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2**20 + 1, 10**30], ids=["just-over", "1e30"])
def test_grid_size_past_the_bound_names_params_n(tmp_path, capsys, n):
    cfg = {"instance": "transport.advect", "t_max": 0.5,
           "output_dir": str(tmp_path / "a"), "params": {"n": n}}
    with pytest.raises(ConfigError, match=r"field .params.n.: must be an integer in \[16, 2"):
        parse_config(cfg)
    assert main(["solve", _write(tmp_path, "a.json", cfg)]) == EXIT_ERROR
    assert "field 'params.n'" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_grid_size_at_the_bound_parses(tmp_path):
    cfg = {"instance": "transport.advect", "t_max": 0.5,
           "output_dir": str(tmp_path / "a"), "params": {"n": 2**20}}
    assert parse_config(cfg).params["n"] == 2**20


@pytest.mark.parametrize("n,levels,message", [
    (64, 16, "the finest grid"), (2**20, 2, "the finest grid"), (16, 10**9, "the finest grid"),
    (64, 0, "must be >= 1, got 0"), (64, -3, "must be >= 1, got -3"),
], ids=["64x2^15", "bound-x2", "huge-levels", "zero", "negative"])
def test_sweep_whose_finest_grid_is_past_the_bound_names_levels(
        tmp_path, capsys, monkeypatch, n, levels, message):
    solves = []
    monkeypatch.setattr(cli, "continuation_solve", lambda *args: solves.append(args))
    path = _write(tmp_path, "a.json", {"instance": "transport.advect", "t_max": 0.5,
                                       "output_dir": str(tmp_path / "a"),
                                       "params": {"n": n}})
    assert main(["sweep", path, "--levels", str(levels)]) == EXIT_ERROR
    assert f"error: --levels: {message}" in capsys.readouterr().err
    assert solves == [] and not (tmp_path / "a").exists()


def test_sweep_checks_level_0_before_any_solve_or_directory(tmp_path, capsys, monkeypatch):
    solves = []
    monkeypatch.setattr(cli, "continuation_solve", lambda *args: solves.append(args))
    path = _write(tmp_path, "b.json", {"instance": "transport.burgers", "t_max": 0.5,
                                       "output_dir": str(tmp_path / "b"),
                                       "params": {"n": 64, "amplitude": 1e308}})
    assert main(["sweep", path, "--levels", "1"]) == EXIT_ERROR
    assert "error: field 'params.amplitude': the initial strong norm overflows" in (
        capsys.readouterr().err)
    assert solves == [] and not (tmp_path / "b").exists()


@pytest.mark.parametrize("instance,params,substeps", [
    ("ode.decay", {}, 10**13),
    ("ode.decay", {}, 2**27),
    ("transport.advect", {"n": 16}, 10**12),
    ("transport.advect", {"n": 2**20}, 128),
    ("transport.burgers", {"n": 2**17}, 1024),
], ids=["decay-1e13", "decay-just-over", "advect-16x1e12", "advect-2^20x129",
        "burgers-2^17x1025"])
def test_an_iterate_past_the_buffer_bound_names_substeps(tmp_path, capsys, instance, params,
                                                         substeps):
    # 10**13 substeps on decay used to die allocating the time grid
    cfg = {"instance": instance, "t_max": 0.5, "output_dir": str(tmp_path / "o"),
           "params": params, "solver": {"substeps_per_window": substeps}}
    with pytest.raises(ConfigError, match=r"field .solver.substeps_per_window.: "
                                          r"\(substeps_per_window \+ 1\) x state size"):
        parse_config(cfg)
    assert main(["solve", _write(tmp_path, "c.json", cfg)]) == EXIT_ERROR
    assert "field 'solver.substeps_per_window'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_an_iterate_at_the_buffer_bound_parses(tmp_path):
    cfg = _decay_config(tmp_path, solver={"substeps_per_window": 2**27 - 1})
    assert parse_config(cfg).solver.substeps_per_window == 2**27 - 1


@pytest.mark.parametrize("instance,params,substeps,levels", [
    ("ode.decay", {}, 64, 22),
    ("ode.riccati", {}, 1, 10**9),
    ("transport.advect", {"n": 2**19}, 200, 2),
], ids=["decay-64x2^21", "riccati-huge-levels", "advect-2^20x201"])
def test_sweep_whose_finest_iterate_is_past_the_bound_names_levels(
        tmp_path, capsys, monkeypatch, instance, params, substeps, levels):
    # ODE sweeps double the substeps per level, which the grid check never saw
    solves = []
    monkeypatch.setattr(cli, "continuation_solve", lambda *args: solves.append(args))
    path = _write(tmp_path, "c.json", {"instance": instance, "t_max": 0.5,
                                       "output_dir": str(tmp_path / "o"), "params": params,
                                       "solver": {"substeps_per_window": substeps}})
    assert main(["sweep", path, "--levels", str(levels)]) == EXIT_ERROR
    assert "error: --levels: at the finest level: (substeps_per_window + 1)" in (
        capsys.readouterr().err)
    assert solves == [] and not (tmp_path / "o").exists()
