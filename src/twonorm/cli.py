"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

Commands:
    solve <config>                      run one continuation solve
    sweep <config> --levels k           refinement study against an oracle
    blowup <config> --amplitudes a,...  map critical times over data sizes

Exit codes for solve: 0 horizon reached, 2 blow-up detected, 3 window
budget exhausted, 1 error (bad config, usage error or failed contraction planning).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace

import numpy as np

from . import grids, oracles
from .core import (
    BLOWUP_FACTOR,
    NormedPairElement,
    SolveReport,
    SolverConfig,
    Termination,
    continuation_solve,
)
from .instances import (
    ProblemInstance,
    make_advect_instance,
    make_burgers_instance,
    make_decay_instance,
    make_element,
    make_riccati_instance,
)

OUTPUT_ROOT_ENV = "TWONORM_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BLOWUP = 2
EXIT_BUDGET = 3

_EXIT_BY_TERMINATION = {
    Termination.HORIZON_REACHED: EXIT_OK,
    Termination.BLOW_UP_DETECTED: EXIT_BLOWUP,
    Termination.BUDGET_EXHAUSTED: EXIT_BUDGET,
    Termination.CONTRACTION_FAILURE: EXIT_ERROR,
}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    instance: str
    t_max: float
    output_dir: str
    params: dict
    solver: SolverConfig
    emit_trajectory: bool = False
    emit_norms: bool = True
    emit_report: bool = True


def _is_number(value) -> bool:
    """A finite JSON number that fits a float; true/false are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _one_of(names) -> tuple:
    return lambda v: isinstance(v, str) and v in names, "one of " + ", ".join(names)


_NUMBER = (_is_number, "a finite number")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a finite positive number")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_TYPE_CHECKS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": _NUMBER,
    "float | None": (lambda v: v is None or _is_number(v), "a finite number or null"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
}

# A section's table maps each key it accepts to (default, check, what the value
# must be). A default is checked like a given value, so a key whose default
# fails its check (None) must be given.
_TRANSPORT_PARAMS = {
    "n": (256, lambda v: isinstance(v, int) and 16 <= v <= 2**20, "an integer in [16, 2**20]"),
    "length": (2.0 * math.pi, *_POSITIVE),
    "interpolation": ("cubic", *_one_of(grids.INTERP_SCHEMES)),
    "profile": ("sine", *_one_of(oracles.PROFILES)),
    "amplitude": (1.0, *_NUMBER),
}
_PARAMS = {  # keyed by instance name: these are the instances a config can name
    "ode.decay": {"x0": (1.0, *_NUMBER), "rate": (1.0, *_POSITIVE)},
    "ode.riccati": {"x0": (1.0, *_NUMBER)},
    "transport.advect": _TRANSPORT_PARAMS,
    "transport.burgers": _TRANSPORT_PARAMS,
}
_CONFIG = {
    "instance": (None, *_one_of(_PARAMS)),
    "t_max": (None, *_POSITIVE),
    "output_dir": (None, lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "params": ({}, *_OBJECT),
    "solver": ({}, *_OBJECT),
    "emit": ({}, *_OBJECT),
}
# solver and emit defaults and checks come from the dataclass fields and their
# annotations (an annotation with no check fails at import)
_SOLVER = {f.name: (f.default, *_TYPE_CHECKS[f.type]) for f in fields(SolverConfig)}
_EMIT = {f.name.removeprefix("emit_"): (f.default, *_TYPE_CHECKS[f.type])
         for f in fields(RunConfig) if f.name.startswith("emit_")}
_MAX_ITERATE_FLOATS = 2**27  # one Picard iterate's buffer: 1 GiB; n = 2**20 at 64 substeps fits


def _check_section(source: str, section: str, raw: dict, table: dict) -> dict:
    """The section's values, defaults filled in; a ConfigError names its first bad key."""
    prefix = section + "." if section else ""
    for key in raw:
        if key not in table:
            raise ConfigError(f"{source}: field '{prefix}{key}': unknown key, "
                              f"must be one of {', '.join(table)}")
    values = {key: raw.get(key, default) for key, (default, _, _) in table.items()}
    for key, (_, accepts, what) in table.items():
        if not accepts(values[key]):
            raise ConfigError(
                f"{source}: field '{prefix}{key}': must be {what}, got {values[key]!r}")
    return values


def _check_iterate_size(config: RunConfig, name: str) -> None:
    """A ConfigError naming name if (substeps_per_window + 1) x state size passes the bound.

    The state size is 1 for the CLI's ODEs and n for transport.
    """
    size = 1 if config.instance.startswith("ode.") else config.params["n"]
    substeps = config.solver.substeps_per_window
    if (substeps + 1) * size > _MAX_ITERATE_FLOATS:
        raise ConfigError(f"{name}: (substeps_per_window + 1) x state size must be at most "
                          f"2**27 floats, got ({substeps} + 1) x {size}")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(raw, source=path)


def parse_config(raw: dict, source: str = "<config>") -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    top = _check_section(source, "", raw, _CONFIG)
    params = _check_section(source, "params", top["params"], _PARAMS[top["instance"]])
    solver = _check_section(source, "solver", top["solver"], _SOLVER)
    try:
        solver = SolverConfig(**solver)
    except ValueError as exc:
        raise ConfigError(f"{source}: field 'solver': {exc}") from exc
    emit = _check_section(source, "emit", top["emit"], _EMIT)
    config = RunConfig(instance=top["instance"], t_max=float(top["t_max"]),
                       output_dir=top["output_dir"], params=params, solver=solver,
                       **{"emit_" + key: value for key, value in emit.items()})
    _check_iterate_size(config, f"{source}: field 'solver.substeps_per_window'")
    return config


# -- problem assembly ---------------------------------------------------------

def build_instance(config: RunConfig) -> ProblemInstance:
    p = config.params
    if config.instance == "ode.decay":
        return make_decay_instance(rate=float(p["rate"]))
    if config.instance == "ode.riccati":
        return make_riccati_instance()
    make = make_advect_instance if config.instance == "transport.advect" else make_burgers_instance
    return make(int(p["n"]), length=float(p["length"]), interpolation=p["interpolation"])


def _transport_profile(config: RunConfig, amplitude: float | None = None) -> oracles.SmoothProfile:
    p = config.params
    amp = p["amplitude"] if amplitude is None else amplitude
    return oracles.PROFILES[p["profile"]](float(p["length"])).scaled(float(amp))


def build_initial_state(config: RunConfig, instance: ProblemInstance,
                        amplitude_override: float | None = None) -> NormedPairElement:
    p = config.params
    if config.instance.startswith("ode."):
        x0 = amplitude_override if amplitude_override is not None else p["x0"]
        state = np.array([float(x0)])
    else:
        profile = _transport_profile(config, amplitude_override)
        state = grids.from_callable(profile.value, instance.spec.n, instance.spec.length)
    return make_element(instance, state)


def _build_case(config: RunConfig, amplitude_override: float | None = None):
    """Build the configured instance and an initial state with headroom.

    The initial strong norm r0 must leave BLOWUP_FACTOR x r0 (the default
    blow-up threshold) and 2 x kappa x r0 (the largest radius window
    planning samples) finite.
    """
    instance = build_instance(config)
    # a finite amplitude can give an overflowing slope, and a tiny length an
    # infinite wavenumber, whose samples the grid rejects with a ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            x0 = build_initial_state(config, instance, amplitude_override=amplitude_override)
        except ValueError as exc:
            length = config.params["length"]
            raise ConfigError(f"field 'params.length': the initial state is not finite at "
                              f"length {length:g}; use a larger length") from exc
    r0 = x0.strong_norm
    if not math.isfinite(BLOWUP_FACTOR * r0):
        if amplitude_override is not None:
            name, key, amp = "--amplitudes", "amplitude", amplitude_override
        else:
            key = "x0" if config.instance.startswith("ode.") else "amplitude"
            name, amp = f"field 'params.{key}'", config.params[key]
        raise ConfigError(f"{name}: the initial strong norm overflows at {key} {amp:g} (the "
                          f"default blow-up threshold is {BLOWUP_FACTOR:g} times it); "
                          f"use a smaller {key}")
    kappa = config.solver.kappa
    if not math.isfinite(2.0 * kappa * r0):
        raise ConfigError(f"field 'solver.kappa': 2 x kappa x the initial strong norm {r0:g} "
                          f"overflows at kappa {kappa:g}; use a smaller kappa")
    return instance, x0


# -- artifact writing ---------------------------------------------------------

def resolve_output_dir(config: RunConfig) -> str:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    out = os.path.join(root, config.output_dir) if root else config.output_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"field 'output_dir': cannot create directory {out}: {exc}") from exc
    return out


# mkstemp creates files as 0600; artifacts get the mode open() would give
_UMASK = os.umask(0)
os.umask(_UMASK)


def _write_atomic(path: str, text: str) -> None:
    """Write text to a fresh temp file next to path, then rename it onto path.

    The temp name is unique, so concurrent runs into one directory never
    share or clobber a temp file; it is removed if anything fails.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with open(fd, "w", newline="") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows, line_end: str = "\n") -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return line_end.join(lines) + line_end


def write_report_json(path: str, report: SolveReport) -> None:
    _write_atomic(path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


def _segment_rows(segments, columns) -> list:
    """CSV rows of the 1-d arrays columns(seg) of every segment, formatted a column at a time."""
    rows = []
    for si, seg in enumerate(segments):
        start = 1 if si > 0 else 0  # junction states are shared with the previous window
        rows.extend(zip(*(map(repr, col[start:].tolist()) for col in columns(seg))))
    return rows


def write_norms_csv(path: str, segments) -> None:
    rows = _segment_rows(segments, lambda seg: (seg.times, seg.weak, seg.strong))
    _write_atomic(path, _csv_text(["t", "weak_norm", "strong_norm"], rows))


def write_windows_csv(path: str, report: SolveReport) -> None:
    rows = []
    for w in report.windows:
        max_ratio = repr(float(max(w.observed_ratios))) if w.observed_ratios else "na"
        rows.append([repr(w.t_start), repr(w.t_end), str(w.picard_iters), max_ratio])
    _write_atomic(path, _csv_text(["t_start", "t_end", "iters", "max_ratio"], rows))


def write_trajectory(out_dir: str, config: RunConfig, segments) -> None:
    if config.instance.startswith("ode."):
        header = ["t"] + [f"x{i}" for i in range(segments[0].values.shape[1])]
        rows = _segment_rows(segments, lambda seg: (seg.times, *seg.values.T))
        _write_atomic(os.path.join(out_dir, "trajectory.csv"), _csv_text(header, rows))
    else:
        final = segments[-1].end.state
        rows = zip(map(repr, final.nodes().tolist()), map(repr, final.values.tolist()))
        _write_atomic(os.path.join(out_dir, "final_state.csv"),
                      _csv_text(["x", "value"], rows, "\r\n"))


# -- commands ------------------------------------------------------------------

def run_solve(config: RunConfig):
    """Execute one continuation solve and write its artifacts.

    Returns (exit_code, report, segments).
    """
    instance, x0 = _build_case(config)
    out_dir = resolve_output_dir(config)
    segments, report = continuation_solve(instance, x0, config.t_max, config.solver)
    if config.emit_report:
        write_report_json(os.path.join(out_dir, "report.json"), report)
        write_windows_csv(os.path.join(out_dir, "windows.csv"), report)
    if config.emit_norms:
        write_norms_csv(os.path.join(out_dir, "norms.csv"), segments)
    if config.emit_trajectory and segments:
        write_trajectory(out_dir, config, segments)
    return _EXIT_BY_TERMINATION[report.termination], report, segments


def _oracle_final_error(config: RunConfig, instance, segments) -> float:
    """Weak-norm distance between the computed final state and the oracle."""
    final = segments[-1].end.state
    t_final = segments[-1].t_end
    if config.instance.startswith("ode."):
        _, ref = oracles.dense_reference(instance.spec, np.atleast_1d(config.params["x0"]),
                                         t_final, h_fine=1e-4 * t_final)
        return float(np.max(np.abs(final - ref[-1])))
    profile = _transport_profile(config)
    xs = final.nodes()
    if config.instance == "transport.advect":
        exact = profile.value(np.mod(xs + t_final, final.length))
    else:
        exact = oracles.burgers_profile_at(profile, t_final, xs)
    return float(np.max(np.abs(final.values - np.asarray(exact))))


def _sweep_level(config: RunConfig, lev: int) -> RunConfig:
    """Sweep level lev: 2**lev times the config's substeps (ODEs) or grid points (transport)."""
    if config.instance.startswith("ode."):
        substeps = config.solver.substeps_per_window * 2 ** lev
        return replace(config, solver=replace(config.solver, substeps_per_window=substeps))
    return replace(config, params={**config.params, "n": config.params["n"] * 2 ** lev})


def run_sweep(config: RunConfig, levels: int):
    """Refinement study: transport refines the grid, ODEs halve the substep.

    Writes sweep.csv with columns level, error, observed_order, where the
    order on row k+1 is log2(err_k / err_{k+1}) and 'na' marks the first
    row or degenerate (zero-error) ratios.
    """
    if levels < 1:
        raise ConfigError(f"--levels: must be >= 1, got {levels}")
    # 27 doublings already fail the checks below, so the level checked is capped there
    finest = _sweep_level(config, min(levels - 1, 27))
    if not config.instance.startswith("ode."):
        _, accepts, what = _TRANSPORT_PARAMS["n"]
        if not accepts(finest.params["n"]):
            raise ConfigError(f"--levels: the finest grid n * 2**(levels - 1) must be {what}, "
                              f"got n = {config.params['n']} and {levels} levels")
    _check_iterate_size(finest, "--levels: at the finest level")
    case = _build_case(config)  # level 0 is the config; checked before the directory exists
    out_dir = resolve_output_dir(config)
    errors = []
    for lev in range(levels):
        level = _sweep_level(config, lev)
        instance, x0 = _build_case(level) if lev else case
        segments, report = continuation_solve(instance, x0, level.t_max, level.solver)
        if report.termination is not Termination.HORIZON_REACHED:
            raise ConfigError(
                f"field 't_max': sweep level {lev} did not reach the horizon "
                f"({report.termination.value}); choose t_max before blow-up")
        try:
            errors.append(_oracle_final_error(level, instance, segments))
        except oracles.OracleError as exc:  # e.g. Burgers past its shock
            raise ConfigError(f"field 't_max': sweep level {lev} has no oracle value ({exc}); "
                              "choose t_max before blow-up") from exc

    rows = []
    for lev, err in enumerate(errors):
        if lev == 0 or errors[lev - 1] == 0.0 or err == 0.0:
            order = "na"
        else:
            order = repr(math.log2(errors[lev - 1] / err))
        rows.append([str(lev), repr(err), order])
    _write_atomic(os.path.join(out_dir, "sweep.csv"),
                  _csv_text(["level", "error", "observed_order"], rows))
    return EXIT_OK, errors


def _oracle_t_star(config: RunConfig, amplitude: float) -> float:
    if config.instance == "ode.riccati":
        return 1.0 / amplitude if amplitude > 0 else math.inf
    profile = _transport_profile(config, amplitude)
    return oracles.blowup_time(profile)


def run_blowup_scan(config: RunConfig, amplitudes):
    """Solve once per amplitude and record the critical-time estimates.

    A configured strong_norm_cap is interpreted relative to the config's
    base amplitude and rescaled per case, so the threshold tracks the
    data size (the auto cap already does).
    """
    if config.instance not in ("transport.burgers", "ode.riccati"):
        raise ConfigError("blow-up scans need instance transport.burgers or ode.riccati")
    if not amplitudes:
        raise ConfigError("--amplitudes: must list at least one number")
    base_amp = float(config.params.get("amplitude", config.params.get("x0", 1.0)))
    cases = []
    for amp in amplitudes:  # every case is built, and so checked, before the first solve
        solver = config.solver
        cap = solver.strong_norm_cap
        if cap is not None and amp > 0 and base_amp > 0:
            solver = replace(solver, strong_norm_cap=cap * (amp / base_amp))
        cases.append((amp, solver, *_build_case(config, amplitude_override=amp)))
    out_dir = resolve_output_dir(config)
    rows = []
    results = []
    for amp, solver, instance, x0 in cases:
        _, report = continuation_solve(instance, x0, config.t_max, solver)
        if report.termination is Termination.BLOW_UP_DETECTED:
            t_c = report.t_c_estimate
        else:
            t_c = math.inf
        oracle = _oracle_t_star(config, amp)
        rows.append([repr(float(amp)), repr(t_c), repr(oracle)])
        results.append((amp, t_c, oracle, report.termination))
    _write_atomic(os.path.join(out_dir, "blowup.csv"),
                  _csv_text(["amplitude", "t_c_estimate", "oracle_T_star"], rows))
    return EXIT_OK, results


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error; argparse's own exit code 2 means blow-up here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _ArgumentParser(prog="twonorm", description="windowed two-norm evolution solver")
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run one continuation solve")
    p_solve.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="refinement study against an oracle")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--levels", type=int, default=3)
    p_blow = sub.add_parser("blowup", help="critical-time scan over amplitudes")
    p_blow.add_argument("config")
    p_blow.add_argument("--amplitudes", required=True,
                        help="comma-separated list, e.g. 0.5,1,2")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.command == "solve":
            code, report, _ = run_solve(config)
            print(f"{config.instance}: {report.termination.value}"
                  + (f" (t_c ~ {report.t_c_estimate:.6g})"
                     if report.t_c_estimate is not None else ""))
            return code
        if args.command == "sweep":
            code, errors = run_sweep(config, args.levels)
            print(f"{config.instance}: sweep errors {[f'{e:.3e}' for e in errors]}")
            return code
        try:
            amplitudes = [float(a) for a in args.amplitudes.split(",") if a]
        except ValueError:
            amplitudes = [math.nan]  # not a number: reported with the non-finite ones
        if not all(map(math.isfinite, amplitudes)):
            raise ConfigError(f"--amplitudes: must be finite numbers, got {args.amplitudes!r}")
        code, results = run_blowup_scan(config, amplitudes)
        for amp, t_c, oracle, term in results:
            print(f"amplitude {amp:g}: t_c {t_c:g} (oracle {oracle:g}, {term.value})")
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
