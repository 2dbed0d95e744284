"""Layer-boundary instrumentation of the twonorm package, applied from outside.

`instrument` swaps the public functions at each layer boundary for traced
wrappers and puts the originals back on exit; nothing under src/ changes.
`layer_metrics` turns the recorded spans and counters into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os

import numpy as np

from spans import Tracer, calls_by_name, self_times, total_by_name, wasted_calls

FAILURE_CLASSES = ("CapExceeded", "ContractionFailureError", "IterBudgetExceeded",
                   "NonFiniteState", "CharacteristicBlowup")

CLI_WRITERS = ("write_report_json", "write_norms_csv", "write_windows_csv",
               "write_trajectory")

# samples gathered per query point; with the query position, the result and
# one read of the n samples, 8 bytes each, they make interp_bytes_computed
_STENCIL = {"cubic": 4, "linear": 2}


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _state_size(element) -> int:
    state = element.state
    return int(np.size(getattr(state, "values", state)))


def _written_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    # write_trajectory takes the output directory and picks the file name
    return sum(os.path.getsize(os.path.join(path, f))
               for f in ("trajectory.csv", "final_state.csv")
               if os.path.isfile(os.path.join(path, f)))


def _patch(stack: contextlib.ExitStack, module, attr: str, replacement) -> None:
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    stack.callback(setattr, module, attr, original)


@contextlib.contextmanager
def instrument(tracer: Tracer, cli, core, instances):
    """Trace cli, core, step-operator and grids boundaries while active."""
    t = tracer

    def on_interp(args, kwargs, result):
        n = len(args[0])
        m = int(np.size(_arg(args, kwargs, 2, "x")))
        scheme = _arg(args, kwargs, 3, "scheme", "cubic")
        t.count("grids.interp_points", m)
        t.count("grids.interp_bytes_computed", 8 * (n + m * (2 + _STENCIL[scheme])))

    def on_step(args, kwargs, result):
        substeps = int(_arg(args, kwargs, 3, "substeps"))
        t.count("instances.substeps", substeps)
        t.count("instances.node_updates", substeps * _state_size(_arg(args, kwargs, 1, "x0")))

    def on_picard(args, kwargs, result):
        t.count("core.picard_iters", result[1].picard_iters)

    def on_write(args, kwargs, result):
        t.count("cli.write_bytes", _written_bytes(args[0]))

    def on_build(build_instance):
        def build(*args, **kwargs):
            inst = build_instance(*args, **kwargs)
            return dataclasses.replace(
                inst,
                step=t.wrap("instances.step", inst.step, on_step),
                weak_dist=t.wrap("instances.weak_dist", inst.weak_dist),
            )
        return build

    with contextlib.ExitStack() as stack:
        _patch(stack, cli, "parse_config", t.wrap("cli.parse_config", cli.parse_config))
        _patch(stack, cli, "build_instance",
               t.wrap("cli.build_instance", on_build(cli.build_instance)))
        _patch(stack, cli, "build_initial_state",
               t.wrap("cli.build_initial_state", cli.build_initial_state))
        for name in CLI_WRITERS:
            _patch(stack, cli, name, t.wrap(f"cli.{name}", getattr(cli, name), on_write))
        _patch(stack, cli, "continuation_solve",
               t.wrap("core.continuation_solve", cli.continuation_solve))
        for name in ("select_window", "select_contraction_window"):
            _patch(stack, core, name, t.wrap(f"core.{name}", getattr(core, name)))
        _patch(stack, core, "picard_window",
               t.wrap("core.picard_window", core.picard_window, on_picard))
        _patch(stack, instances, "interp_values",
               t.wrap("grids.interp_values", instances.interp_values, on_interp))
        for name in ("lip_norm_values", "sup_norm_values"):
            _patch(stack, instances, name, t.wrap(f"grids.{name}", getattr(instances, name)))
        yield t


def rejection_names(core) -> frozenset[str]:
    """Names of every WindowFailure subclass, i.e. failures the engine retries."""
    names, todo = set(), [core.WindowFailure]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            names.add(sub.__name__)
            todo.append(sub)
    return frozenset(names)


def layer_metrics(tracer: Tracer, rejected: frozenset[str]) -> dict[str, float]:
    """Per-layer times and work counters of one traced repetition."""
    spans = tracer.spans
    total = total_by_name(spans)
    own = total_by_name(spans, self_times(spans))
    calls = calls_by_name(spans)
    counters = tracer.counters

    def tot(*names):
        return sum(total.get(n, 0.0) for n in names)

    def num(*names):
        return sum(calls.get(n, 0) for n in names)

    attempts = num("core.picard_window")
    by_class = {name: 0 for name in FAILURE_CLASSES}
    for span in spans:
        if span.name == "core.picard_window" and span.error in rejected:
            by_class[span.error] = by_class.get(span.error, 0) + 1
    attempts_rejected = sum(by_class.values())
    step_calls = num("instances.step")
    wasted = wasted_calls(spans, "instances.step", "core.picard_window",
                          lambda err: err in rejected)
    step_s = tot("instances.step")
    node_updates = counters["instances.node_updates"]
    norms = ("grids.lip_norm_values", "grids.sup_norm_values")
    writers = tuple(f"cli.{w}" for w in CLI_WRITERS)

    values = {
        "grids.interp_s": tot("grids.interp_values"),
        "grids.interp_calls": num("grids.interp_values"),
        "grids.interp_points": counters["grids.interp_points"],
        "grids.interp_bytes_computed": counters["grids.interp_bytes_computed"],
        "grids.norm_s": tot(*norms),
        "grids.norm_calls": num(*norms),
        "instances.step_s": step_s,
        "instances.step_self_s": own.get("instances.step", 0.0),
        "instances.substeps": counters["instances.substeps"],
        "instances.node_updates": node_updates,
        "instances.ns_per_node_update": 1e9 * step_s / node_updates if node_updates else 0.0,
        "core.attempts": attempts,
        "core.attempts_rejected": attempts_rejected,
        **{f"core.rejected.{name}": count for name, count in by_class.items()},
        "core.accept_ratio": (attempts - attempts_rejected) / attempts if attempts else 0.0,
        "instances.step_calls": step_calls,
        "instances.steps_wasted": wasted,
        "instances.useful_step_ratio": (step_calls - wasted) / step_calls if step_calls else 0.0,
        "core.picard_self_s": own.get("core.picard_window", 0.0),
        "core.continuation_self_s": own.get("core.continuation_solve", 0.0),
        "core.weak_dist_s": tot("instances.weak_dist"),
        "core.weak_dist_calls": num("instances.weak_dist"),
        "core.windows": attempts - attempts_rejected,
        "core.picard_iters": counters["core.picard_iters"],
        "core.plan_s": tot("core.select_window", "core.select_contraction_window"),
        "core.plan_calls": num("core.select_window", "core.select_contraction_window"),
        "cli.write_s": tot(*writers),
        "cli.write_bytes": counters["cli.write_bytes"],
        "cli.parse_s": tot("cli.parse_config"),
        "cli.build_s": tot("cli.build_instance", "cli.build_initial_state"),
    }
    return {name: values[name] for name in LAYER_UNITS}


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_node_update"):
        return "ns"
    if "bytes" in name:
        return "bytes"
    return "count"


# every per-layer metric layer_metrics reports, in report order, with its unit
LAYER_UNITS = {name: _unit(name) for name in (
    "grids.interp_s", "grids.interp_calls", "grids.interp_points",
    "grids.interp_bytes_computed", "grids.norm_s", "grids.norm_calls",
    "instances.step_s", "instances.step_self_s", "instances.substeps",
    "instances.node_updates", "instances.ns_per_node_update",
    "core.attempts", "core.attempts_rejected",
    *(f"core.rejected.{n}" for n in FAILURE_CLASSES),
    "core.accept_ratio", "instances.step_calls", "instances.steps_wasted",
    "instances.useful_step_ratio", "core.picard_self_s", "core.continuation_self_s",
    "core.weak_dist_s", "core.weak_dist_calls", "core.windows", "core.picard_iters",
    "core.plan_s", "core.plan_calls", "cli.write_s", "cli.write_bytes",
    "cli.parse_s", "cli.build_s",
)}


# counters that must repeat exactly between runs of the same code and seed
WORK_COUNTERS = ("core.attempts", "core.attempts_rejected",
                 *(f"core.rejected.{n}" for n in FAILURE_CLASSES),
                 "instances.step_calls", "instances.steps_wasted", "core.windows",
                 "core.picard_iters", "instances.substeps", "grids.interp_calls")
