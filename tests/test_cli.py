import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twonorm import cli
from twonorm.cli import (
    EXIT_BLOWUP,
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OK,
    OUTPUT_ROOT_ENV,
    ConfigError,
    load_config,
    main,
    parse_config,
    run_blowup_scan,
    run_solve,
    run_sweep,
)
from twonorm.core import NormedPairElement, SolverConfig, Termination, continuation_solve
from twonorm.grids import GridFunction1D
from twonorm.instances import make_decay_instance, make_element, make_linear_ode_instance

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


def test_null_tol_keeps_the_per_window_default(tmp_path):
    config = parse_config(_decay_config(tmp_path, solver={"tol": None}))
    assert config.solver.tol is None
    assert parse_config(_decay_config(tmp_path)).solver.tol is None


def test_zero_tol_exits_1_naming_it(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _decay_config(tmp_path, solver={"tol": 0}))
    assert main(["solve", path]) == EXIT_ERROR
    assert "field 'solver': tol must be positive" in capsys.readouterr().err


def test_window_shrink_past_the_retry_margin_exits_1_naming_it(tmp_path, capsys):
    # each retry is at most 0.9 x the attempt that failed: a larger shrink
    # snapped a retry back onto an attempt that ended on the horizon, and
    # riccati.json with 0.9999999999 ran past 20 s
    raw = json.loads((CONFIGS / "riccati.json").read_text())
    raw.update(output_dir=str(tmp_path / "out"), solver={"window_shrink": 0.9999999999})
    assert main(["solve", _write(tmp_path, "cfg.json", raw)]) == EXIT_ERROR
    assert "field 'solver': window_shrink must lie in (0,0.9]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("instance", list(cli._INSTANCES))
def test_every_instance_builds_and_an_amplitude_override_is_its_data_param(tmp_path, instance):
    # the benchmark's set-up probe builds a scan's first case through
    # build_initial_state's amplitude_override; it must give, bitwise, the state
    # of the config whose x0 (ODEs) or amplitude (transport) is that amplitude
    params = {} if instance.startswith("ode.") else {"n": 64}
    key = "x0" if instance.startswith("ode.") else "amplitude"

    def config(**extra):
        return parse_config({"instance": instance, "t_max": 1.0,
                             "output_dir": str(tmp_path / "o"), "params": {**params, **extra}})

    base = config()
    inst = cli.build_instance(base)
    assert inst.name == instance
    for amp in (0.5, -2.0, 0.0, 3):
        got = cli.build_initial_state(base, inst, amplitude_override=amp)
        case = config(**{key: amp})
        want = cli.build_initial_state(case, cli.build_instance(case))
        got_values, want_values = (np.asarray(getattr(e.state, "values", e.state))
                                   for e in (got, want))
        assert got_values.tobytes() == want_values.tobytes()
        assert (got.weak_norm, got.strong_norm) == (want.weak_norm, want.strong_norm)


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
            substeps = args[3] if len(args) > 3 else kwargs.get("substeps")  # as perfbench reads it
            assert isinstance(args[1], NormedPairElement) and isinstance(substeps, int)
            seg = inst.step(*args, **kwargs)
            seen["step"] += 1  # steps that return
            return seg

        def weak_dist(*args):
            seen["weak_dist"] += 1
            return inst.weak_dist(*args)
        return dataclasses.replace(inst, step=step, weak_dist=weak_dist)

    # the writers are reached through the module attributes, the path first,
    # since the benchmark counts the bytes written at args[0]
    written = []
    for name in ("write_norms_csv", "write_trajectory"):
        def writer(*args, _write=getattr(cli, name), _name=name, **kwargs):
            written.append((_name, args[0]))
            return _write(*args, **kwargs)
        monkeypatch.setattr(cli, name, writer)

    monkeypatch.setattr(cli, "build_instance", traced)
    params = {"x0": 1.0} if instance == "ode.decay" else {"n": 32}
    out = str(tmp_path / "o")
    config = parse_config({"instance": instance, "t_max": 0.25, "params": params,
                           "output_dir": out, "emit": {"trajectory": True},
                           "solver": {"substeps_per_window": 8, "empirical_mode": True}})
    _, report, segments = run_solve(config)
    assert report.termination is Termination.HORIZON_REACHED
    assert seen["step"] == seen["weak_dist"] > 0
    assert written == [("write_norms_csv", os.path.join(out, "norms.csv")),
                       ("write_trajectory", out)]
    final = segments[-1].states[-1].state
    if instance == "ode.decay":
        assert isinstance(final, np.ndarray) and final.shape == (1,)
        assert float(final[0]) == pytest.approx(math.exp(-0.25), rel=1e-6)
        # f is bitwise -rate * x, the sign of zero and an overflow included
        for rate in (1.0, 1e-3, 1e4):
            f = make_decay_instance(rate).spec.f
            for state in (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300):
                x = np.array([state])
                with np.errstate(over="ignore"):
                    got, want = f(0.0, x, x), -rate * x
                assert got.shape == (1,) and got.dtype == np.float64
                assert got.view(np.int64)[0] == want.view(np.int64)[0], (rate, state)
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


@pytest.mark.parametrize("n,t_c", [(256, 0.977429), (1024, 1.006542), (4096, 1.009090)])
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
    # every number in an artifact is the shortest repr that reads back as the
    # stored float64: final_state.csv, and norms.csv and trajectory.csv of an ODE
    cfg = {"instance": "transport.burgers", "t_max": 0.2, "output_dir": str(tmp_path / "o"),
           "params": {"n": 32}, "solver": {"substeps_per_window": 16},
           "emit": {"trajectory": True}}
    _, _, segments = run_solve(parse_config(cfg))
    final = segments[-1].end.state
    final_csv = tmp_path / "o" / "final_state.csv"
    assert final_csv.read_bytes().count(b"\r\n") == 33  # CRLF line ends
    _, _, ode = run_solve(parse_config(_decay_config(tmp_path, t_max=3.0,
                                                     params={"x0": 0.3, "rate": 1.7})))

    def stacked(columns):
        return [np.concatenate([col[1 if si else 0:] for si, col in enumerate(cols)])
                for cols in zip(*map(columns, ode))]

    for path, header, stored in (
            (final_csv, ["x", "value"], [final.nodes(), final.values]),
            (tmp_path / "out" / "norms.csv", ["t", "weak_norm", "strong_norm"],
             stacked(lambda seg: (seg.times, seg.weak, seg.strong))),
            (tmp_path / "out" / "trajectory.csv", ["t", "x0"],
             stacked(lambda seg: (seg.times, seg.values[:, 0])))):
        with open(path, newline="") as fh:
            got_header, *rows = list(csv.reader(fh))
        assert got_header == header
        for column, fields in zip(stored, zip(*rows)):
            assert np.array_equal([float(v) for v in fields], column), path.name
            assert list(fields) == [repr(v) for v in column.tolist()], path.name


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


def test_artifacts_take_the_umask_in_force_when_they_are_written(tmp_path):
    # set after twonorm.cli was imported, so only a mode taken at write time follows it
    old = os.umask(0o077)
    try:
        run_solve(parse_config(_decay_config(tmp_path)))
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in (tmp_path / "out").iterdir()}
    names = ["norms.csv", "report.json", "trajectory.csv", "windows.csv"]
    assert modes == dict.fromkeys(names, 0o600)


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
    with pytest.raises(ConfigError, match="need instance ode.riccati or transport.burgers$"):
        run_blowup_scan(parse_config(_decay_config(tmp_path)), [1.0])


def test_a_negative_amplitude_blows_up_when_its_magnitude_does(tmp_path):
    # u -> -u, x -> -x maps Burgers from -a sin x onto Burgers from a sin x, so
    # both blow up at 1/a; the configured cap was rescaled only for a positive
    # amplitude, and -2 ended at t_c 0.180 where 2 ended at 0.395
    n = 64
    raw = json.loads((CONFIGS / "burgers_scan.json").read_text())
    raw.update(output_dir=str(tmp_path / "o"), params={**raw["params"], "n": n},
               solver={"strong_norm_cap": 0.5 * n / (2 * math.pi)})
    _, results = run_blowup_scan(parse_config(raw), [0.5, -0.5, 2.0, -2.0])
    by_amp = {amp: (t_c, oracle) for amp, t_c, oracle, _ in results}
    for a in (0.5, 2.0):
        (t_c, oracle), (t_c_neg, oracle_neg) = by_amp[a], by_amp[-a]
        assert math.isfinite(t_c) and oracle_neg == oracle == pytest.approx(1.0 / a)
        assert t_c_neg == pytest.approx(t_c, rel=1e-9, abs=0.0)


# -- determinism and entry point ---------------------------------------------------------

def test_repeated_runs_byte_identical(tmp_path):
    # two solves in one process: nothing formatted by one run carries over to the next
    riccati = {"instance": "ode.riccati", "t_max": 2.0, "params": {"x0": 1.0}}
    decay = {"instance": "ode.decay", "t_max": 3.0, "params": {"x0": 0.7, "rate": 2.0},
             "emit": {"trajectory": True}}
    for name, cfg, files in (
            ("riccati", riccati, ("report.json", "norms.csv", "windows.csv")),
            ("decay", decay, ("report.json", "norms.csv", "windows.csv", "trajectory.csv"))):
        for run in "ab":
            run_solve(parse_config({**cfg, "output_dir": str(tmp_path / name / run)}))
        for file in files:
            a, b = (tmp_path / name / run / file for run in "ab")
            assert a.read_bytes() == b.read_bytes(), (name, file)


def _plain_csv(header, segments, columns) -> str:
    """The CSV text of columns(seg) of every segment, each float formatted by its own repr."""
    lines = [",".join(header)]
    for si, seg in enumerate(segments):
        rows = zip(*([repr(float(v)) for v in col] for col in columns(seg)))
        lines.extend(",".join(row) for row in list(rows)[1 if si else 0:])
    return "\n".join(lines) + "\n"


def test_writers_give_the_text_of_plain_per_column_repr(tmp_path):
    # a Riccati solve whose last window is cut at the blow-up threshold, so its
    # weak and strong norms are two views, and a 2-component linear ODE written
    # with one shared set of formatted arrays, as run_solve shares it
    code, _, riccati = run_solve(parse_config({
        "instance": "ode.riccati", "t_max": 2.0, "output_dir": str(tmp_path / "r"),
        "params": {"x0": 1.0}, "solver": {"strong_norm_cap": 50.0},
        "emit": {"trajectory": True}}))
    last = riccati[-1]
    assert code == EXIT_BLOWUP and last.weak is not last.strong
    assert len(last.times) < 65  # cut inside the window
    inst = make_linear_ode_instance(0.5, -1.0, forcing=0.25, dimension=2)
    linear, _ = continuation_solve(inst, make_element(inst, np.array([1.0, -2.0])), 2.0,
                                   SolverConfig(substeps_per_window=16))
    assert len(linear) > 1
    formatted = {}
    (tmp_path / "l").mkdir()
    cli.write_norms_csv(str(tmp_path / "l" / "norms.csv"), linear, formatted)
    cli.write_trajectory(str(tmp_path / "l"), parse_config(_decay_config(tmp_path)), linear,
                         formatted)
    for out, segments, header in ((tmp_path / "r", riccati, ["t", "x0"]),
                                  (tmp_path / "l", linear, ["t", "x0", "x1"])):
        assert (out / "norms.csv").read_text() == _plain_csv(
            ["t", "weak_norm", "strong_norm"], segments,
            lambda seg: (seg.times, seg.weak, seg.strong))
        assert (out / "trajectory.csv").read_text() == _plain_csv(
            header, segments, lambda seg: (seg.times, *seg.values.T))


def test_main_solve_and_errors(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _decay_config(tmp_path, t_max=1.0))
    assert main(["solve", path]) == EXIT_OK
    assert main(["solve", str(tmp_path / "missing.json")]) == EXIT_ERROR
    bad = _write(tmp_path, "bad.json", _decay_config(tmp_path, instance="nope"))
    assert main(["solve", bad]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "instance" in err


def test_the_module_run_as_a_process_exits_with_its_codes(tmp_path):
    # python -m twonorm.cli in a child process: its real exit status and
    # streams, with the bundled decay config's outputs under TWONORM_OUTPUT_ROOT
    root = CONFIGS.parent
    env = {**os.environ, OUTPUT_ROOT_ENV: str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "twonorm.cli", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=300)

    ok = run("solve", "configs/decay.json")
    assert (ok.returncode, ok.stdout, ok.stderr) == (EXIT_OK, "ode.decay: HorizonReached\n", "")
    assert (tmp_path / "out" / "decay" / "report.json").is_file()
    raw = json.loads((CONFIGS / "decay.json").read_text())
    bad = _write(tmp_path, "bad.json", {**raw, "bogus": 1})
    err = run("solve", bad)
    assert (err.returncode, err.stdout, err.stderr) == (
        EXIT_ERROR, "", f"error: {bad}: field 'bogus': unknown key, must be one of instance, "
                        "t_max, output_dir, params, solver, emit\n")


def test_a_solve_that_ends_in_contraction_failure_says_why_on_stderr(tmp_path, capsys):
    # the norm decays to about 7e-15, the cap sits on its floor, and no
    # contraction window of solver.min_window is left
    path = _write(tmp_path, "cfg.json", _decay_config(tmp_path, t_max=1.0,
                                                      params={"x0": 1.0, "rate": 1e4}))
    assert main(["solve", path]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "ode.decay: ContractionFailure\n"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    t_stop = report["windows"][-1]["t_end"]
    assert 0.003 < t_stop < 0.0035
    assert err == (f"error: the solve stopped at t={t_stop!r}: no window could be planned "
                   "that is at least solver.min_window (0.0001) long and holds "
                   "solver.substeps_per_window (64) distinct substeps\n")


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
    ("transport.burgers", ["solve"], {"n": 64, "amplitude": 1e308}, {"strong_norm_cap": 1e300},
     "field 'params.amplitude': the initial strong norm"),
], ids=["decay-1.8e302", "decay-4e307", "decay-8.9e307", "decay-1e308", "sweep-decay--1e308",
        "riccati-scan-1e303", "kappa-1e308", "burgers-capped-1e308"])
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


@pytest.mark.parametrize("x0,cap", [(1e303, 1e305), (-1e303, 1e305)])
def test_a_configured_cap_admits_an_initial_norm_whose_default_threshold_overflows(
        tmp_path, x0, cap):
    # 1e6 x 1e303 overflows, but that default threshold is not used when a
    # cap is given: the CLI admits what continuation_solve admits
    path = _write(tmp_path, "c.json", {"instance": "ode.decay", "t_max": 5.0,
                                       "output_dir": str(tmp_path / "o"), "params": {"x0": x0},
                                       "solver": {"strong_norm_cap": cap}})
    assert main(["solve", path]) == EXIT_OK
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["termination"]["kind"] == Termination.HORIZON_REACHED.value


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


@pytest.mark.parametrize("argv,t_max,length,solver,h", [
    (["solve"], 1.0, 2e-6, {}, "1.5625e-06"),
    (["sweep", "--levels", "1"], 1.0, 2e-6, {}, "1.5625e-06"),
    (["solve"], 1e-5, 3e-7, {}, "1.5625e-07"),
    (["solve"], 1.0, 3.13e-6, {"min_window": 2e-4}, "3.125e-06"),
    (["solve"], 1.0, 3.81e-6, {"min_window": 2e-4}, "3.125e-06"),
    (["solve"], 1.0, 6.8e-6, {"window_shrink": 0.3, "min_window": 2.2e-4}, "3.4375e-06"),
], ids=["solve", "sweep", "t_max-under-min_window", "3.13e-6", "3.81e-6", "shrink-0.3"])
def test_an_advect_length_under_two_substeps_of_the_shortest_window_is_named(
        tmp_path, capsys, monkeypatch, argv, t_max, length, solver, h):
    # the retries end on the shortest attempt, min(t_max, min_window); where
    # unit speed moves every foot past half the domain in one substep of it,
    # every attempt raised CharacteristicBlowup and the run exited 2 as a
    # blow-up. At t_max = 1 that substep is min_window / 64, 1e-4 / 64 by
    # default; the lengths 3.13e-6, 3.81e-6 and 6.8e-6 that run at the default
    # (see the test below) are refused once min_window is raised over them,
    # whatever window_shrink is
    solves = []
    monkeypatch.setattr(cli, "continuation_solve", lambda *args: solves.append(args))
    path = _write(tmp_path, "a.json", {"instance": "transport.advect", "t_max": t_max,
                                       "output_dir": str(tmp_path / "a"),
                                       "params": {"n": 16, "length": length},
                                       "solver": solver})
    assert main([argv[0], path, *argv[1:]]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"error: field 'params.length': unit-speed advection moves every foot {h} " in err
    assert solves == [] and not (tmp_path / "a").exists()


def test_an_advect_length_over_two_substeps_of_the_shortest_window_still_runs(tmp_path):
    # the shortest attempt, min(t_max, min_window), moves the feet less than
    # half the domain: the run gets going and ends on its window budget at any
    # window_shrink (3.13e-6 / 2 is just over 1e-4 / 64)
    for length, solver in [(4e-6, {}), (3.82e-6, {}), (3.81e-6, {}), (3.13e-6, {}),
                           (6.8e-6, {"window_shrink": 0.3})]:
        code, report, _ = run_solve(parse_config({
            "instance": "transport.advect", "t_max": 1.0, "output_dir": str(tmp_path / "a"),
            "params": {"n": 16, "length": length}, "solver": solver}))
        assert (length, code, report.termination) == (
            length, EXIT_BUDGET, Termination.BUDGET_EXHAUSTED)


@pytest.mark.parametrize("shrink,length", [(0.75, 3.14e-6), (0.3, 6.9e-6), (0.3, 1e-5)],
                         ids=["shrink-0.75-3.14e-6", "shrink-0.3-6.9e-6", "shrink-0.3-1e-5"])
def test_an_advect_run_tries_min_window_before_it_is_called_a_blowup(tmp_path, shrink, length):
    # a round's retries shrink its proposal by window_shrink; they ended the
    # run as a blow-up once the next would drop under min_window, without
    # trying min_window, so these exited 2 at t_c 1.0e-4, 7.0e-4 and 3.3e-3
    code, report, _ = run_solve(parse_config({
        "instance": "transport.advect", "t_max": 1.0, "output_dir": str(tmp_path / "a"),
        "params": {"n": 16, "length": length}, "solver": {"window_shrink": shrink}}))
    assert (code, report.termination) == (EXIT_BUDGET, Termination.BUDGET_EXHAUSTED)


@settings(max_examples=50)
@given(st.integers(16, 32), st.floats(0.05, 0.9), st.floats(1.0, 4.0))
@example(n=16, shrink=0.1, factor=1.0)
def test_no_advect_length_the_cli_admits_ends_as_a_blowup(n, shrink, factor):
    # advection at unit speed never blows up; the length is factor times twice
    # a substep of the shortest attempt, min(t_max, min_window) (t_max = 1,
    # 64 substeps), or the CLI refuses it. At factor 1 the substep is half
    # the length: with shrink 0.1, rounding moved every foot past it
    shortest = min(1.0, 1e-4)
    config = parse_config({
        "instance": "transport.advect", "t_max": 1.0, "output_dir": "unused",
        "params": {"n": n, "length": factor * 2.0 * shortest / 64},
        "solver": {"window_shrink": shrink, "max_windows": 8}})
    try:
        instance, x0 = cli._build_case(config)
    except ConfigError as exc:
        assert factor < 1.0 + 1e-8 and "field 'params.length'" in str(exc)
        return
    _, report = continuation_solve(instance, x0, config.t_max, config.solver)
    assert report.termination is not Termination.BLOW_UP_DETECTED


@pytest.mark.parametrize("x0,cap,amplitudes,message", [
    (1e100, 1e-300, "0.5,1", "at amplitude 0.5 the rescaled solver.strong_norm_cap is 0,"),
    (1e-10, 1e300, "1e20", "at amplitude 1e+20 the rescaled solver.strong_norm_cap is inf,"),
], ids=["underflow", "overflow"])
def test_a_rescaled_cap_that_is_not_finite_and_positive_is_named_before_any_solve_or_directory(
        tmp_path, capsys, monkeypatch, x0, cap, amplitudes, message):
    # cap x amplitude / x0 underflowed into a traceback from SolverConfig, or
    # overflowed into an infinite blow-up threshold
    solves = []
    monkeypatch.setattr(cli, "continuation_solve", lambda *args: solves.append(args))
    path = _write(tmp_path, "r.json", {"instance": "ode.riccati", "t_max": 2.0,
                                       "output_dir": str(tmp_path / "o"), "params": {"x0": x0},
                                       "solver": {"strong_norm_cap": cap}})
    assert main(["blowup", path, "--amplitudes", amplitudes]) == EXIT_ERROR
    assert f"error: --amplitudes: {message}" in capsys.readouterr().err
    assert solves == [] and not (tmp_path / "o").exists()


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
