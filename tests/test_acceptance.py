"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figures once its assertions hold.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

from twonorm.cli import EXIT_BLOWUP, EXIT_OK, parse_config, run_blowup_scan, run_solve, run_sweep
from twonorm.core import (
    SolverConfig,
    StabilityBounds,
    Termination,
    continuation_solve,
    select_contraction_window,
    select_window,
)
from twonorm.grids import GridFunction1D, from_callable, lip_norm, sup_norm, sup_norm_values
from twonorm.instances import (
    make_advect_instance,
    make_burgers_instance,
    make_decay_instance,
    make_element,
    make_linear_ode_instance,
    make_riccati_instance,
)
from twonorm.oracles import blowup_time, burgers_profile_at, sine_profile

TWO_PI = 2.0 * math.pi


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _scalar(inst, x):
    return make_element(inst, np.array([float(x)]))


def test_criterion_1_riccati_blowup_and_value():
    inst = make_riccati_instance()
    t0 = time.perf_counter()
    _, rep = continuation_solve(inst, _scalar(inst, 1.0), 2.0, SolverConfig())
    elapsed = time.perf_counter() - t0
    assert rep.termination is Termination.BLOW_UP_DETECTED
    assert abs(rep.t_c_estimate - 1.0) <= 0.15
    assert elapsed < 1.0

    # value check at the 1e-3 substep resolution
    segs, rep2 = continuation_solve(inst, _scalar(inst, 1.0), 0.5,
                                    SolverConfig(substeps_per_window=500))
    assert rep2.termination is Termination.HORIZON_REACHED
    x_half = segs[-1].states[-1].state[0]
    rel = abs(x_half - 2.0) / 2.0
    assert rel <= 1e-6
    _report("1 riccati blow-up",
            f"t_c={rep.t_c_estimate:.4f}, x(0.5) rel err={rel:.2e}, {elapsed:.2f}s")


def test_criterion_2_contraction_evidence():
    theta = SolverConfig().theta_target
    checked = 0
    for inst in (make_decay_instance(), make_linear_ode_instance(1.0, 1.0)):
        _, rep = continuation_solve(inst, _scalar(inst, 1.0), 2.0, SolverConfig())
        assert rep.termination is Termination.HORIZON_REACHED
        for w in rep.windows:
            prod = 1.0
            for n, r in enumerate(w.observed_ratios, start=2):
                assert r <= theta + 0.05
                prod *= r  # prod = d_n / d_1
                assert prod <= theta ** (n - 1) * 1.1
                checked += 1
    assert checked > 0
    _report("2 contraction evidence", f"{checked} ratios within theta+0.05")


def test_criterion_3_window_selection_values():
    a_lin = lambda t, r, m: r + t * m
    t1 = select_window(a_lin, 1.0, 2.0, 10.0)
    assert abs(t1 - 0.5) <= 1e-10
    a_exp = lambda t, r, m: r * math.exp(m * t)
    t1e = select_window(a_exp, 1.0, math.e, 10.0)
    assert abs(t1e - 1.0 / math.e) <= 1e-8
    _report("3 window selection",
            f"linear |t1-0.5|={abs(t1 - 0.5):.1e}, exp |t1-1/e|={abs(t1e - 1/math.e):.1e}")


def _burgers_setup(n=1024):
    prof = sine_profile()
    inst = make_burgers_instance(n)
    u0 = from_callable(prof.value, n, TWO_PI)
    return prof, inst, make_element(inst, u0)


def test_criterion_4_burgers_preshock_accuracy():
    prof, inst, x0 = _burgers_setup()
    t0 = time.perf_counter()
    segs, rep = continuation_solve(inst, x0, 0.5, SolverConfig())
    elapsed = time.perf_counter() - t0
    assert rep.termination is Termination.HORIZON_REACHED
    final = segs[-1].states[-1].state
    oracle = burgers_profile_at(prof, 0.5, final.nodes())
    err = float(np.max(np.abs(final.values - oracle)))
    assert err <= 1e-2
    assert elapsed < 30.0
    _report("4 burgers pre-shock", f"sup err={err:.2e}, {elapsed:.1f}s")


def test_criterion_5_burgers_blowup_dichotomy():
    n = 1024
    cap = 0.5 * n / TWO_PI  # half the grid-representable slope at amplitude 1
    prof, inst, x0 = _burgers_setup(n)
    _, rep = continuation_solve(inst, x0, 2.0, SolverConfig(strong_norm_cap=cap))
    assert rep.termination is Termination.BLOW_UP_DETECTED
    assert abs(rep.t_c_estimate - 1.0) <= 0.15
    tail = [w.end_strong_norm for w in rep.windows[-5:]]
    assert len(tail) == 5
    assert all(a < b for a, b in zip(tail, tail[1:]))

    # amplitude scan; thresholds scale with the data, horizon past T*(0.5)=2
    estimates = {}
    for amp in (0.5, 1.0, 2.0):
        u0 = from_callable(lambda x, amp=amp: amp * np.sin(x), n, TWO_PI)
        _, rep_a = continuation_solve(inst, make_element(inst, u0), 3.0,
                                      SolverConfig(strong_norm_cap=cap * amp))
        oracle = blowup_time(prof.scaled(amp))
        assert rep_a.termination is Termination.BLOW_UP_DETECTED
        assert abs(rep_a.t_c_estimate - oracle) / oracle <= 0.15
        estimates[amp] = (rep_a.t_c_estimate, oracle)
    _report("5 burgers dichotomy",
            f"t_c={rep.t_c_estimate:.4f}, scan=" + ", ".join(
                f"a={a}: {e:.3f}/{o}" for a, (e, o) in estimates.items()))


def test_criterion_6_advection_refinement_order(tmp_path):
    cfg = parse_config({
        "instance": "transport.advect",
        "t_max": 0.5,
        "output_dir": str(tmp_path / "advect"),
        "params": {"n": 128},
        "solver": {"substeps_per_window": 125},
    })
    code, errors = run_sweep(cfg, levels=3)
    assert code == EXIT_OK
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    assert all(o >= 1.8 for o in orders)
    _report("6 advection order", f"orders={[f'{o:.2f}' for o in orders]}")


def test_criterion_7_discrete_fatou():
    rng = np.random.default_rng(2718)
    lip_checked = 0
    for _ in range(1000):
        n = int(rng.integers(8, 96))
        length = float(rng.uniform(0.5, 8.0))
        dx = length / n
        u = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        gu = GridFunction1D(n=n, length=length, values=u)
        # Lipschitz-in-sup bound against a random perturbation
        v = u + rng.normal(size=n) * rng.uniform(0.0, 0.5)
        gv = GridFunction1D(n=n, length=length, values=v)
        bound = (1.0 + 2.0 / dx) * sup_norm_values(gu.values - gv.values)
        assert abs(lip_norm(gu) - lip_norm(gv)) <= bound + 1e-9
        # sup-convergent sequence with bounded strong norms
        lims = [lip_norm(GridFunction1D(n=n, length=length,
                                        values=u + rng.normal(size=n) * 4.0 ** (-k)))
                for k in range(1, 29)]
        assert lip_norm(gu) <= min(lims[-3:]) + 1e-12
        lip_checked += 1
    assert lip_checked == 1000
    _report("7 discrete fatou", "1000 sequences, bound never violated")


def test_criterion_8_role_swap():
    sym = StabilityBounds(b=lambda t, r: t * r, c=lambda t, r: t * r)
    plain = select_contraction_window(sym, 1.0, 10.0, 0.5)
    swapped = select_contraction_window(sym, 1.0, 10.0, 0.5, swap_roles=True)
    assert plain == swapped

    asym = StabilityBounds(b=lambda t, r: 0.25 * t * r, c=lambda t, r: 3.0 * t * r)
    manual = StabilityBounds(b=asym.c, c=asym.b)
    got = select_contraction_window(asym, 2.0, 5.0, 0.4, swap_roles=True)
    want = select_contraction_window(manual, 2.0, 5.0, 0.4)
    assert got == want
    _report("8 role swap", f"symmetric {plain}, asymmetric swap == manual {got}")


def test_criterion_9_uniqueness_surrogate():
    finals = []
    for substeps in (8, 16, 32):
        inst = make_decay_instance()
        segs, _ = continuation_solve(inst, _scalar(inst, 1.0), 5.0,
                                     SolverConfig(substeps_per_window=substeps))
        finals.append(segs[-1].states[-1].state[0])
    ode_ratio = abs(finals[0] - finals[1]) / abs(finals[1] - finals[2])
    assert ode_ratio >= 12.0

    prof = sine_profile()
    fields = []
    for n, substeps in ((128, 50), (256, 100), (512, 200)):
        inst = make_advect_instance(n)
        x0 = make_element(inst, from_callable(prof.value, n, TWO_PI))
        segs, rep = continuation_solve(inst, x0, 0.5,
                                       SolverConfig(substeps_per_window=substeps))
        assert rep.termination is Termination.HORIZON_REACHED
        fields.append(segs[-1].states[-1].state.values)
    d1 = float(np.max(np.abs(fields[0] - fields[1][::2])))
    d2 = float(np.max(np.abs(fields[1] - fields[2][::2])))
    transport_ratio = d1 / d2
    assert transport_ratio >= 3.5
    _report("9 uniqueness surrogate",
            f"ode ratio={ode_ratio:.1f}, transport ratio={transport_ratio:.2f}")


def test_criterion_10_determinism(tmp_path):
    scenarios = {
        "decay": {
            "instance": "ode.decay", "t_max": 5.0, "params": {"x0": 1.0},
        },
        "riccati": {
            "instance": "ode.riccati", "t_max": 2.0, "params": {"x0": 1.0},
        },
        "burgers": {
            "instance": "transport.burgers", "t_max": 2.0,
            "params": {"n": 256},
            "solver": {"strong_norm_cap": 0.5 * 256 / TWO_PI},
        },
    }
    compared = []
    for name, raw in scenarios.items():
        codes, bodies = [], []
        for run in ("a", "b"):
            cfg = dict(raw, output_dir=str(tmp_path / name / run))
            code, _, _ = run_solve(parse_config(cfg))
            codes.append(code)
            out = tmp_path / name / run
            bodies.append(tuple((out / f).read_bytes()
                          for f in ("report.json", "norms.csv", "windows.csv")))
        assert codes[0] == codes[1]
        assert bodies[0] == bodies[1]
        compared.append(f"{name}:exit{codes[0]}")

    # sweep and scan artifacts as well
    sweep_raw = {
        "instance": "transport.advect", "t_max": 0.5,
        "params": {"n": 64}, "solver": {"substeps_per_window": 32},
    }
    sweeps = []
    for run in ("a", "b"):
        cfg = parse_config(dict(sweep_raw, output_dir=str(tmp_path / "sw" / run)))
        run_sweep(cfg, levels=2)
        sweeps.append((tmp_path / "sw" / run / "sweep.csv").read_bytes())
    assert sweeps[0] == sweeps[1]

    scan_raw = {
        "instance": "ode.riccati", "t_max": 2.0, "params": {"x0": 1.0},
    }
    scans = []
    for run in ("a", "b"):
        cfg = parse_config(dict(scan_raw, output_dir=str(tmp_path / "sc" / run)))
        run_blowup_scan(cfg, [0.5, 1.0, 2.0])
        scans.append((tmp_path / "sc" / run / "blowup.csv").read_bytes())
    assert scans[0] == scans[1]
    _report("10 determinism", ", ".join(compared) + ", sweep+scan byte-identical")
