"""Benchmark workloads: inputs from a seed, the commands they run, output checks.

Each workload is a list of jobs, and each job is one CLI command: a
`solve` of one config or a `blowup` scan over amplitudes. Seed 0 gives the
nominal inputs. Any other seed draws one factor s from [1 - JITTER,
1 + JITTER] and multiplies every amplitude (and the decay x0) by it; for
Burgers and Riccati the horizon is divided by s as well. Both equations
are invariant under u -> s u, t -> t / s, so every input and output float
changes with the seed while the windows, rejections and step calls (the
work being timed) stay those of seed 0.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("burgers-blowup", "burgers-preshock", "riccati-blowup", "decay-horizon")

# the reference pass (calibrate.PASSES) whose slow-down on a busy host
# tracks the workload's best. Chosen from the quartile spread of solve_s
# over five seeds of 25 s runs with each pass: burgers-preshock 0.016 to
# 0.023 with "array", 0.068 with "interpreted"; burgers-blowup 0.016 with
# "interpreted", 0.047 with "array". The scalar workloads spend their time
# in the interpreter; "interpreted" gave 0.014 to 0.031 on them.
REFERENCE_KIND = {
    "burgers-blowup": "interpreted",
    "burgers-preshock": "array",
    "riccati-blowup": "interpreted",
    "decay-horizon": "interpreted",
}
JITTER = 0.03

# acceptance thresholds of the outputs, checked outside the timed region
TC_REL_TOL = 0.15          # |t_c - T*| / T* on blow-up scans
BURGERS_FINAL_TOL = 1e-2   # sup |u - u*| at t_max before the shock
DECAY_REL_TOL = 1e-6       # |x - x0 exp(-rate t)| / (x0 exp(-rate t)) at t_max

ARTIFACTS = ("report.json", "windows.csv", "norms.csv", "blowup.csv")


@dataclass(frozen=True)
class Job:
    command: str                 # "solve" or "blowup"
    config: dict                 # raw config, parsed with cli.parse_config
    source: str = "<benchmark>"  # config file it came from, for messages
    amplitudes: tuple[float, ...] = ()


@dataclass
class Outcome:
    """Check results accumulated over every repetition of a workload."""

    solves: int = 0
    failed: int = 0
    errors: dict[str, float] = field(default_factory=dict)  # latest error per input
    messages: list[str] = field(default_factory=list)

    def record(self, label: str, err: float, problem: str | None) -> None:
        self.solves += 1
        self.errors[label] = err
        if problem is not None:
            self.failed += 1
            self.messages.append(problem)


def seed_factor(workload: str, seed: int) -> float:
    if seed == 0:
        return 1.0
    return random.Random(f"{workload}:{seed}").uniform(1.0 - JITTER, 1.0 + JITTER)


def _config_file(root: str, name: str) -> tuple[dict, str]:
    path = os.path.join(root, "configs", name)
    with open(path) as fh:
        return json.load(fh), path


def make_jobs(workload: str, seed: int, root: str) -> list[Job]:
    s = seed_factor(workload, seed)
    if workload in ("burgers-blowup", "riccati-blowup"):
        name, amps = {"burgers-blowup": ("burgers_scan.json", (0.5, 1.0, 2.0)),
                      "riccati-blowup": ("riccati.json", (0.6, 1.0, 2.0, 4.0))}[workload]
        raw, path = _config_file(root, name)
        raw["t_max"] = raw["t_max"] / s
        return [Job("blowup", raw, path, tuple(a * s for a in amps))]
    if workload == "burgers-preshock":
        return [Job("solve", {
            "instance": "transport.burgers",
            "t_max": 0.5 / s,
            "output_dir": f"burgers_preshock_n{n}",
            "params": {"n": n, "interpolation": "cubic", "profile": "sine", "amplitude": s},
        }) for n in (1024, 4096, 16384)]
    if workload == "decay-horizon":
        return [Job("solve", {
            "instance": "ode.decay",
            "t_max": 60.0,
            "output_dir": "decay_horizon",
            "params": {"x0": s, "rate": 1.0},
            "solver": {"max_windows": 1024},
            "emit": {"trajectory": True, "norms": True, "report": True},
        })]
    raise KeyError(f"unknown workload {workload!r}")


def describe_jobs(jobs: list[Job]) -> list[dict]:
    return [{"command": j.command, "config": j.config, "amplitudes": list(j.amplitudes)}
            for j in jobs]


def load(cli, job: Job):
    return cli.parse_config(job.config, source=job.source)


def run_job(cli, job: Job, config):
    """Run one command through the public CLI functions; return its raw result."""
    if job.command == "blowup":
        return cli.run_blowup_scan(config, list(job.amplitudes))
    return cli.run_solve(config)


class Checker:
    """Compares outputs against the oracles; caches oracle values per input."""

    def __init__(self, oracles, core):
        self._oracles = oracles
        self._core = core
        self._exact: dict = {}

    def check(self, job: Job, config, result, out: Outcome) -> None:
        if job.command == "blowup":
            _, rows = result
            for amp, t_c, _, termination in rows:
                out.record(f"tc_rel_err[amplitude={amp!r}]",
                           *self._check_blowup(config, amp, t_c, termination))
        else:
            out.record(f"final_err[{config.output_dir}]", *self._check_solve(config, result))

    def _profile(self, config, amplitude: float):
        p = config.params
        return self._oracles.PROFILES[p["profile"]](float(p["length"])).scaled(amplitude)

    def _check_blowup(self, config, amp, t_c, termination):
        if config.instance == "ode.riccati":
            t_star = 1.0 / amp  # x' = x^2 leaves every bound at 1 / x0
        else:
            t_star = self._oracles.blowup_time(self._profile(config, amp))
        err = abs(t_c - t_star) / t_star
        if termination is not self._core.Termination.BLOW_UP_DETECTED:
            return err, f"amplitude {amp}: verdict {termination.value}, expected blow-up"
        if not err <= TC_REL_TOL:
            return err, f"amplitude {amp}: t_c {t_c} vs T* {t_star} (rel {err:.3g})"
        return err, None

    def _check_solve(self, config, result):
        _, report, segments = result
        if report.termination is not self._core.Termination.HORIZON_REACHED:
            return math.inf, (f"{config.output_dir}: verdict {report.termination.value}, "
                              "expected horizon")
        final = segments[-1].states[-1].state
        t_final = segments[-1].t_end
        if config.instance == "ode.decay":
            p = config.params
            exact = float(p["x0"]) * math.exp(-float(p["rate"]) * t_final)
            err, tol = abs(float(final[0]) - exact) / abs(exact), DECAY_REL_TOL
        else:
            key = (config.params["amplitude"], final.n, t_final)
            if key not in self._exact:
                profile = self._profile(config, float(config.params["amplitude"]))
                self._exact[key] = self._oracles.burgers_profile_at(
                    profile, t_final, final.nodes())
            err = float(np.max(np.abs(final.values - self._exact[key])))
            tol = BURGERS_FINAL_TOL
        if not err <= tol:
            return err, f"{config.output_dir}: final error {err:.3g} > {tol:g}"
        return err, None


def artifact_hashes(out_root: str) -> dict[str, str]:
    """SHA-256 of every report/windows/norms/blowup file under out_root."""
    hashes = {}
    for dirpath, _, files in os.walk(out_root):
        for name in files:
            if name in ARTIFACTS:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    hashes[os.path.relpath(path, out_root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))
