"""Benchmark of the twonorm solver, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload burgers-blowup --seed 0 --seconds 25 --trace 0

With --trace 0 the commands run untraced and the end-to-end metrics are
reported; with --trace 1 untraced and traced repetitions alternate and the
per-layer metrics are reported. Passes of a fixed reference task
(calibrate.py) run around and during every timed repetition and around
every set-up probe, and times are reported at reference speed, so the
host's drift in speed cancels; the raw wall times go to the results
record. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The
package is imported from src/ of the checkout; a fuller record (inputs,
environment, artifact hashes, per-input errors) goes to
.perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import SpeedProbe
from envstamp import environment
from layers import LAYER_UNITS, WORK_COUNTERS, instrument, layer_metrics, rejection_names
from spans import Tracer
from workloads import (
    REFERENCE_KIND,
    WORKLOADS,
    Checker,
    Outcome,
    artifact_hashes,
    describe_jobs,
    load,
    make_jobs,
    run_job,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 9      # fresh processes per run; setup_s is their median
SETUP_PASSES = 4      # reference passes before and after each set-up probe
MIN_REPS = 3          # timed repetitions even when --seconds runs out first
MIN_TRACED_REPS = 2   # traced repetitions, so work counters can be compared
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "oracle_err": "1"}
PER_LAYER_UNITS = {**LAYER_UNITS, "oracles.check_s": "s", "trace.overhead_frac": "ratio",
                   "machine.reference_s": "s"}


def pin_to_one_cpu() -> None:
    """Keep this process, and the set-up probes it starts, on the CPU it runs on.

    The host's CPUs drift in speed independently, so the reference passes
    must run on the CPU that runs the work they normalize.
    """
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    os.sched_setaffinity(0, {cpu})


def import_package():
    """Import twonorm from the checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "twonorm", "__init__.py")):
        raise SystemExit(f"error: no twonorm package under {SRC}")
    sys.path.insert(0, SRC)
    import twonorm
    from twonorm import cli, core, instances, oracles

    if not os.path.abspath(twonorm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: twonorm imported from {twonorm.__file__}, not {SRC}")
    return cli, core, instances, oracles


def code_digest() -> str:
    """SHA-256 over the package, the bundled configs and the benchmark."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "twonorm"), os.path.join(ROOT, "configs"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith((".py", ".json")):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class Bench:
    """Runs repetitions of one workload and checks every output."""

    def __init__(self, packages, jobs, reference_kind: str, work_dir: str):
        self.cli, self.core, self.instances, oracles = packages
        self.jobs = jobs
        self.checker = Checker(oracles, self.core)
        self.outcome = Outcome()
        self.work_dir = work_dir
        self.check_s: list[float] = []
        self.hashes: dict[str, str] | None = None
        self._rep = 0
        self.probe = SpeedProbe(reference_kind)

    def rep(self, tracer: Tracer | None = None) -> tuple[float, float]:
        """One repetition: parse, run every job, check.

        Returns the time of the runs, as wall time and at reference speed.
        A tracer must use self.probe.clock, so its spans leave the passes out.
        """
        out_root = os.path.join(self.work_dir, f"rep{self._rep}")
        self._rep += 1
        os.environ[self.cli.OUTPUT_ROOT_ENV] = out_root
        traced = (contextlib.nullcontext() if tracer is None
                  else instrument(tracer, self.cli, self.core, self.instances))
        with traced:
            configs = [load(self.cli, j) for j in self.jobs]
            with self.probe.region() as passes:
                t0 = self.probe.clock()
                results = [run_job(self.cli, j, c) for j, c in zip(self.jobs, configs)]
                wall = self.probe.clock() - t0
        t0 = time.perf_counter()
        for job, config, result in zip(self.jobs, configs, results):
            self.checker.check(job, config, result, self.outcome)
        self.check_s.append(time.perf_counter() - t0)
        if self.hashes is None:
            self.hashes = artifact_hashes(out_root)
        shutil.rmtree(out_root)
        return wall, self.probe.normalize(wall, passes)


def measure_setup(jobs) -> tuple[list[float], list[float], list[float]]:
    """Set-up times of fresh processes: (wall s, s at reference speed, passes).

    Set-up is imports and small calls on every workload, so its passes are
    always the interpreted kind.
    """
    probe = SpeedProbe("interpreted")
    payload = json.dumps(describe_jobs(jobs))
    walls, normalized = [], []
    for _ in range(SETUP_PROBES):
        before = probe.sample(SETUP_PASSES)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, payload],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        passes = before + probe.sample(SETUP_PASSES)
        walls.append(float(proc.stdout.strip().splitlines()[-1]))
        normalized.append(probe.normalize(walls[-1], passes))
    return walls, normalized, probe.passes


def _repeat(seconds: float, rep, min_reps: int) -> None:
    """Warm up once, then call rep() while another one fits in the time left.

    The warm-up counts towards the time but not towards the statistics:
    first-call costs are not part of a steady run.
    """
    start = time.perf_counter()
    rep(warm_up=True)
    durations = [time.perf_counter() - start]
    while True:
        t0 = time.perf_counter()
        rep(warm_up=False)
        durations.append(time.perf_counter() - t0)
        left = seconds - (time.perf_counter() - start)
        if len(durations) > min_reps and left < statistics.median(durations):
            return


def run_untraced(bench: Bench, seconds: float) -> dict:
    setup_walls, setup, setup_passes = measure_setup(bench.jobs)
    walls, solve = [], []

    def rep(warm_up):
        wall, normalized = bench.rep()
        if not warm_up:
            walls.append(wall)
            solve.append(normalized)

    _repeat(seconds, rep, MIN_REPS)
    values = {
        "solve_s": statistics.median(solve),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_err": max(bench.outcome.errors.values()),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return {"metrics": metrics, "reps": len(walls), "solve_s_all": solve,
            "solve_wall_s_all": walls, "setup_s_all": setup, "setup_wall_s_all": setup_walls,
            "reference_s_all": bench.probe.passes, "setup_reference_s_all": setup_passes}


def run_traced(bench: Bench, seconds: float) -> dict:
    rejected = rejection_names(bench.core)
    plain, traced, per_rep = [], [], []

    def rep(warm_up):
        _, normalized = bench.rep()
        if warm_up:
            return
        plain.append(normalized)
        tracer = Tracer(clock=bench.probe.clock)
        wall, normalized = bench.rep(tracer)
        traced.append(normalized)
        # layer times are scaled to reference speed like the whole repetition
        scale = normalized / wall
        per_rep.append({name: value * scale if LAYER_UNITS[name] in ("s", "ns") else value
                        for name, value in layer_metrics(tracer, rejected).items()})

    _repeat(seconds, rep, MIN_TRACED_REPS)
    counters = {k: per_rep[0][k] for k in WORK_COUNTERS}
    unsteady = [k for k in WORK_COUNTERS if any(m[k] != counters[k] for m in per_rep)]
    # times vary between repetitions and take the median; counts and their
    # ratios must not vary, so the first repetition's value stands
    values = {name: statistics.median(m[name] for m in per_rep) if unit in ("s", "ns")
              else per_rep[0][name] for name, unit in LAYER_UNITS.items()}
    values["oracles.check_s"] = statistics.median(bench.check_s)
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    values["machine.reference_s"] = statistics.median(bench.probe.passes)
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    return {"metrics": metrics, "reps": len(traced), "counters": counters,
            "unsteady_counters": unsteady, "reference_s_all": bench.probe.passes}


def compare_with_previous(path: str, digest: str, counters: dict) -> list[str]:
    """Counters must repeat exactly between runs of the same code and seed."""
    differ = []
    if os.path.isfile(path):
        with open(path) as fh:
            prev = json.load(fh)
        if prev.get("code") == digest:
            differ = sorted(k for k in counters if prev["counters"].get(k) != counters[k])
    with open(path, "w") as fh:
        json.dump({"code": digest, "counters": counters}, fh, indent=1, sort_keys=True)
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()  # before pinning, so nproc counts the machine's usable CPUs
    pin_to_one_cpu()
    packages = import_package()
    os.makedirs(os.path.join(STATE_DIR, "results"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=STATE_DIR)
    try:
        bench = Bench(packages, make_jobs(args.workload, args.seed, ROOT),
                      REFERENCE_KIND[args.workload], work_dir)
        result = (run_traced if args.trace else run_untraced)(bench, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    out = bench.outcome
    problems = list(out.messages)
    if args.trace:
        digest = code_digest()
        state = os.path.join(STATE_DIR, f"counters-{args.workload}-seed{args.seed}.json")
        differ = compare_with_previous(state, digest, result["counters"])
        for k in result["unsteady_counters"]:
            problems.append(f"work counter {k} differs between repetitions of this run")
        for k in differ:
            problems.append(f"work counter {k} differs from the previous run of this code")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "jobs": describe_jobs(bench.jobs),
        "reference_kind": REFERENCE_KIND[args.workload],
        "environment": env, "artifact_sha256": bench.hashes,
        "oracle_errors": out.errors,
        "problems": problems,
        **{k: v for k, v in result.items() if k != "metrics"},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(STATE_DIR, "results", name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}, {result['reps']} repetitions")
    for key, value in sorted(record["environment"].items()):
        print(f"  env {key}: {value}")
    for path, digest in sorted((bench.hashes or {}).items()):
        print(f"  sha256 {path}: {digest}")
    for label, err in out.errors.items():
        print(f"  {label} = {err:.6g}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key} = {value:.6g} {unit}")
    for key in ("solve_wall_s_all", "setup_wall_s_all", "reference_s_all",
                "setup_reference_s_all"):
        if key in result:
            print(f"  median {key[:-4]} (raw wall time) = {statistics.median(result[key]):.6g} s")
    print(json.dumps({
        "correct": not problems,
        "attempted": out.solves,
        "failed": out.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
