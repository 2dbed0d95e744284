"""Tests of the benchmark's own helpers: span arithmetic, wasted-step
attribution, instrumentation, speed sampling and the metric names in
BENCHMARK.json."""

import json
import os
import re
import signal
import time

import pytest

from calibrate import INTERVAL_S, PASSES, SpeedProbe, normalize
from layers import FAILURE_CLASSES, LAYER_UNITS, instrument, layer_metrics, rejection_names
from run import END_TO_END_UNITS, PER_LAYER_UNITS
from spans import Span, Tracer, self_times, total_by_name, wasted_calls
from workloads import JITTER, REFERENCE_KIND, WORKLOADS, make_jobs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _ticks():
    t = iter(range(1000))
    return lambda: float(next(t))


def test_self_time_subtracts_direct_children_only():
    # root [0, 11] > a [1, 8] > b [2, 3], b [4, 5], b [6, 7]; root > c [9, 10]
    tr = Tracer(clock=_ticks())
    root = tr.open("root")
    a = tr.open("a")
    b = tr.open("b")
    tr.close(b)
    for _ in range(2):
        tr.open("b")
        tr.close(len(tr.spans) - 1)
    tr.close(a)
    c = tr.open("c")
    tr.close(c)
    tr.close(root)
    durations = [s.duration for s in tr.spans]
    assert durations == [11.0, 7.0, 1.0, 1.0, 1.0, 1.0]
    assert self_times(tr.spans) == [3.0, 4.0, 1.0, 1.0, 1.0, 1.0]
    assert total_by_name(tr.spans) == {"root": 11.0, "a": 7.0, "b": 3.0, "c": 1.0}
    assert total_by_name(tr.spans, self_times(tr.spans))["a"] == 4.0


def test_spans_must_close_in_order():
    tr = Tracer()
    outer = tr.open("outer")
    tr.open("inner")
    with pytest.raises(RuntimeError):
        tr.close(outer)


class CapExceeded(Exception):
    pass


def test_wasted_steps_belong_to_rejected_attempts():
    tr = Tracer()
    step = tr.wrap("instances.step", lambda: None)

    def attempt(n_steps, fail):
        for _ in range(n_steps):
            step()
        if fail:
            raise CapExceeded()

    picard = tr.wrap("core.picard_window", attempt)
    solve = tr.wrap("core.continuation_solve", lambda: [
        _swallow(picard, 3, True), _swallow(picard, 2, True), picard(4, False)])
    solve()
    step()  # a step outside any attempt is never wasted

    assert wasted_calls(tr.spans, "instances.step", "core.picard_window",
                        lambda err: err == "CapExceeded") == 5
    m = layer_metrics(tr, frozenset({"CapExceeded"}))
    assert m["instances.step_calls"] == 10
    assert m["instances.steps_wasted"] == 5
    assert m["instances.useful_step_ratio"] == 0.5
    assert m["core.attempts"] == 3
    assert m["core.attempts_rejected"] == 2
    assert m["core.rejected.CapExceeded"] == 2
    assert m["core.windows"] == 1
    assert m["core.accept_ratio"] == pytest.approx(1 / 3)


def _swallow(fn, *args):
    try:
        fn(*args)
    except CapExceeded:
        pass


def test_wasted_attribution_uses_nearest_attempt():
    spans = [
        Span("core.picard_window", 0.0, None, 9.0, "CapExceeded"),
        Span("core.picard_window", 1.0, 0, 8.0, None),   # nested, accepted
        Span("instances.step", 2.0, 1, 3.0),
        Span("instances.step", 4.0, 0, 5.0),
    ]
    assert wasted_calls(spans, "instances.step", "core.picard_window",
                        lambda err: True) == 1


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    assert {n: m["unit"] for n, m in e2e.items()} == END_TO_END_UNITS
    assert {n: m["unit"] for n, m in layer.items()} == PER_LAYER_UNITS
    names = [*e2e, *layer, *(w["name"] for w in bench["workloads"])]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in [*e2e.values(), *layer.values()]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert set(LAYER_UNITS) >= {f"core.rejected.{c}" for c in FAILURE_CLASSES}


def test_seed_zero_is_nominal_and_other_seeds_scale_together():
    nominal = make_jobs("burgers-blowup", 0, ROOT)[0]
    assert nominal.amplitudes == (0.5, 1.0, 2.0)
    assert nominal.config["t_max"] == 3.0
    jittered = make_jobs("burgers-blowup", 7, ROOT)[0]
    s = jittered.amplitudes[1]
    assert s != 1.0 and abs(s - 1.0) <= JITTER
    assert jittered.amplitudes == pytest.approx((0.5 * s, s, 2.0 * s))
    assert jittered.config["t_max"] == pytest.approx(3.0 / s)
    assert make_jobs("burgers-blowup", 7, ROOT) == make_jobs("burgers-blowup", 7, ROOT)
    assert make_jobs("decay-horizon", 0, ROOT)[0].config["params"]["x0"] == 1.0


def test_instrument_counts_a_small_solve_and_restores_the_package(tmp_path, monkeypatch):
    from twonorm import cli, core, instances

    originals = (cli.parse_config, cli.run_solve, core.picard_window, instances.interp_values)
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    raw = {"instance": "transport.burgers", "t_max": 0.1, "output_dir": "b",
           "params": {"n": 32}, "solver": {"substeps_per_window": 4}}
    tr = Tracer()
    with instrument(tr, cli, core, instances):
        _, report, _ = cli.run_solve(cli.parse_config(raw))
    assert (cli.parse_config, cli.run_solve, core.picard_window,
            instances.interp_values) == originals
    m = layer_metrics(tr, rejection_names(core))
    iters = sum(w.picard_iters for w in report.windows)
    assert m["core.windows"] == len(report.windows)
    assert m["core.picard_iters"] == iters
    assert m["instances.step_calls"] == iters + m["instances.steps_wasted"]
    assert m["instances.substeps"] == 4 * m["instances.step_calls"]
    assert m["instances.node_updates"] == 32 * m["instances.substeps"]
    assert m["grids.interp_calls"] == 2 * m["instances.substeps"]
    assert m["grids.interp_points"] == 32 * m["grids.interp_calls"]
    assert m["cli.write_bytes"] == sum(
        os.path.getsize(os.path.join(tmp_path, "b", f)) for f in ("report.json",
                                                                  "windows.csv", "norms.csv"))
    assert m["cli.parse_s"] > 0 and m["instances.step_self_s"] > 0


def test_normalize_scales_by_the_mean_pass_time():
    # passes of 1x and 3x the nominal time: the host ran at half reference speed
    assert normalize(2.0, [0.005, 0.015], 0.005) == pytest.approx(1.0)
    assert normalize(2.0, [0.008] * 3, 0.008) == pytest.approx(2.0)


def test_every_workload_has_a_reference_pass():
    assert set(REFERENCE_KIND) == set(WORKLOADS)
    assert set(REFERENCE_KIND.values()) <= set(PASSES)


def test_speed_probe_samples_during_a_region_and_leaves_its_passes_out():
    probe = SpeedProbe("interpreted", warm_up=0)
    with probe.region() as passes:
        t0, w0 = probe.clock(), time.perf_counter()
        while time.perf_counter() - w0 < 3.5 * INTERVAL_S:
            pass
        elapsed = probe.clock() - t0
    assert len(passes) >= 4 and passes == probe.passes  # before, >= 2 during, after
    assert elapsed < time.perf_counter() - w0 - sum(passes[1:-1]) + 1e-3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
