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


def _transport(make):
    return lambda p: make(int(p["n"]), length=float(p["length"]), interpolation=p["interpolation"])


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
# each instance a config can name: (params table, maker of the checked params, and
# the oracle T* of the checked params for the instances a blow-up scan accepts, else None)
_INSTANCES = {
    "ode.decay": ({"x0": (1.0, *_NUMBER), "rate": (1.0, *_POSITIVE)},
                  lambda p: make_decay_instance(rate=float(p["rate"])), None),
    "ode.riccati": ({"x0": (1.0, *_NUMBER)}, lambda p: make_riccati_instance(),
                    lambda p: 1.0 / p["x0"] if p["x0"] > 0 else math.inf),
    "transport.advect": (_TRANSPORT_PARAMS, _transport(make_advect_instance), None),
    "transport.burgers": (_TRANSPORT_PARAMS, _transport(make_burgers_instance),
                          lambda p: oracles.blowup_time(_profile(p))),
}
_CONFIG = {
    "instance": (None, *_one_of(_INSTANCES)),
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
    size = config.params.get("n", 1)
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
    params = _check_section(source, "params", top["params"], _INSTANCES[top["instance"]][0])
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
    return _INSTANCES[config.instance][1](config.params)


def _profile(p: dict) -> oracles.SmoothProfile:
    return oracles.PROFILES[p["profile"]](float(p["length"])).scaled(float(p["amplitude"]))


def _data_key(config: RunConfig) -> str:  # the param a blow-up scan's amplitude replaces
    return "x0" if config.instance.startswith("ode.") else "amplitude"


def build_initial_state(config: RunConfig, instance: ProblemInstance,
                        amplitude_override: float | None = None) -> NormedPairElement:
    if amplitude_override is not None:  # a scan case, as the benchmark's set-up probe builds it
        config = replace(config, params={**config.params, _data_key(config): amplitude_override})
    p = config.params
    if config.instance.startswith("ode."):
        state = np.array([float(p["x0"])])
    else:
        state = grids.from_callable(_profile(p).value, instance.spec.n, instance.spec.length)
    return make_element(instance, state)


def _build_case(config: RunConfig, name: str | None = None):
    """Build the configured instance and an initial state with headroom.

    The initial strong norm r0 must leave 2 x kappa x r0 (the largest
    radius window planning samples) finite, and BLOWUP_FACTOR x r0 (the
    default blow-up threshold) too when no solver.strong_norm_cap is set.
    Advection must be able to move its feet less than half the domain in
    one substep of its shortest attempt, min(t_max, solver.min_window), the
    attempt continuation_solve's retries end on, or every attempt fails.
    A substep within 1e-9 of half the length is refused too: the feet are
    traced in floats over grid times whose spacing carries rounding, and at
    exactly half the length (window_shrink 0.1, length 3.125000000000001e-06)
    every attempt failed.
    """
    if config.instance == "transport.advect":
        solver, length = config.solver, config.params["length"]
        half = 0.5 * length * (1.0 - 1e-9)
        h = min(config.t_max, solver.min_window) / solver.substeps_per_window
        if h > half:
            raise ConfigError(f"field 'params.length': unit-speed advection moves every foot "
                              f"{h:g} in one substep of the shortest attempt, more than half "
                              f"the length {length:g}; use a length above {2.0 * h:g}")
    instance = build_instance(config)
    # a finite amplitude can give an overflowing slope, and a tiny length an
    # infinite wavenumber, whose samples the grid rejects with a ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            x0 = build_initial_state(config, instance)
        except ValueError as exc:
            length = config.params["length"]
            raise ConfigError(f"field 'params.length': the initial state is not finite at "
                              f"length {length:g}; use a larger length") from exc
    r0 = x0.strong_norm
    if not math.isfinite(r0 if config.solver.strong_norm_cap is not None else BLOWUP_FACTOR * r0):
        key = _data_key(config)
        name, amp = name or f"field 'params.{key}'", config.params[key]
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


def _write_atomic(path: str, text: str) -> None:
    """Write text to a fresh temp file next to path, then rename it onto path.

    The temp name is unique, so concurrent runs into one directory never
    share or clobber a temp file; it is removed if anything fails. The file
    gets the mode open() would give, 0o666 less the umask in force.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="") as fh:
            fh.write(text)
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


def _reprs(col: np.ndarray, formatted: dict) -> list[str]:
    """repr of each float of col, formatted once per array: formatted maps id(col)
    to (col, its reprs), and holding col keeps its id from being reused."""
    entry = formatted.get(id(col))
    if entry is None:
        entry = formatted[id(col)] = (col, list(map(repr, col.tolist())))
    return entry[1]


def _segment_rows(segments, columns, formatted: dict | None) -> list:
    """CSV rows of the 1-d arrays columns(seg) of every segment, formatted a column at a time.

    formatted, when given, is shared with the solve's other writers (see _reprs).
    """
    formatted = {} if formatted is None else formatted
    rows = []
    for si, seg in enumerate(segments):
        start = 1 if si > 0 else 0  # junction states are shared with the previous window
        rows.extend(zip(*(_reprs(col, formatted)[start:] for col in columns(seg))))
    return rows


def write_norms_csv(path: str, segments, formatted: dict | None = None) -> None:
    rows = _segment_rows(segments, lambda seg: (seg.times, seg.weak, seg.strong), formatted)
    _write_atomic(path, _csv_text(["t", "weak_norm", "strong_norm"], rows))


def write_windows_csv(path: str, report: SolveReport) -> None:
    rows = []
    for w in report.windows:
        max_ratio = repr(float(max(w.observed_ratios))) if w.observed_ratios else "na"
        rows.append([repr(w.t_start), repr(w.t_end), str(w.picard_iters), max_ratio])
    _write_atomic(path, _csv_text(["t_start", "t_end", "iters", "max_ratio"], rows))


def write_trajectory(out_dir: str, config: RunConfig, segments,
                     formatted: dict | None = None) -> None:
    if config.instance.startswith("ode."):
        header = ["t"] + [f"x{i}" for i in range(segments[0].values.shape[1])]
        rows = _segment_rows(segments, lambda seg: (seg.times, *seg.values.T), formatted)
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
    formatted = {}  # this solve's float arrays, each formatted once: times, and an ODE's norms
    if config.emit_report:
        write_report_json(os.path.join(out_dir, "report.json"), report)
        write_windows_csv(os.path.join(out_dir, "windows.csv"), report)
    if config.emit_norms:
        write_norms_csv(os.path.join(out_dir, "norms.csv"), segments, formatted)
    if config.emit_trajectory and segments:
        write_trajectory(out_dir, config, segments, formatted)
    return _EXIT_BY_TERMINATION[report.termination], report, segments


def _oracle_final_error(config: RunConfig, instance, segments) -> float:
    """Weak-norm distance between the computed final state and the oracle."""
    final = segments[-1].end.state
    t_final = segments[-1].t_end
    if config.instance.startswith("ode."):
        ref = oracles.dense_reference(instance.spec, np.atleast_1d(config.params["x0"]),
                                      t_final, h_fine=1e-4 * t_final)
        return float(np.max(np.abs(final - ref.values[-1])))
    profile = _profile(config.params)
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


def run_blowup_scan(config: RunConfig, amplitudes):
    """Solve once per amplitude and record the critical-time estimates.

    Each case is the config with the amplitude in place of its data param.
    A configured strong_norm_cap is interpreted relative to the config's
    base amplitude and rescaled per case by their ratio of magnitudes, so
    the threshold tracks the data size (the auto cap already does).
    """
    scanned = [name for name, (_, _, t_star) in _INSTANCES.items() if t_star is not None]
    if config.instance not in scanned:
        raise ConfigError(f"blow-up scans need instance {' or '.join(scanned)}")
    if not amplitudes:
        raise ConfigError("--amplitudes: must list at least one number")
    key = _data_key(config)
    base_amp = float(config.params[key])
    cases = []
    for amp in amplitudes:  # every case is built, and so checked, before the first solve
        solver = config.solver
        cap = solver.strong_norm_cap
        if cap is not None and amp != 0 and base_amp != 0:
            cap *= abs(amp / base_amp)
            if not 0 < cap < math.inf:
                raise ConfigError(f"--amplitudes: at amplitude {amp:g} the rescaled "
                                  f"solver.strong_norm_cap is {cap:g}, not finite and positive")
            solver = replace(solver, strong_norm_cap=cap)
        case = replace(config, params={**config.params, key: amp}, solver=solver)
        cases.append((amp, case, *_build_case(case, name="--amplitudes")))
    out_dir = resolve_output_dir(config)
    rows = []
    results = []
    for amp, case, instance, x0 in cases:
        _, report = continuation_solve(instance, x0, case.t_max, case.solver)
        if report.termination is Termination.BLOW_UP_DETECTED:
            t_c = report.t_c_estimate
        else:
            t_c = math.inf
        oracle = _INSTANCES[config.instance][2](case.params)
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
            if report.termination is Termination.CONTRACTION_FAILURE:
                t_stop = report.windows[-1].t_end if report.windows else 0.0
                solver = config.solver
                print(f"error: the solve stopped at t={t_stop!r}: no window could be planned "
                      f"that is at least solver.min_window ({solver.min_window!r}) long and "
                      f"holds solver.substeps_per_window ({solver.substeps_per_window}) "
                      f"distinct substeps", file=sys.stderr)
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
