"""Golden SHA-256 of the bundled configs' artifacts.

Any change to the float operations behind a solve (step operators,
interpolation, norms, window logic) or to the artifact writers shows up
here as a hash mismatch. Every solve emits all artifacts; the Burgers
scan runs a reduced amplitude list to keep the suite fast. The hashes
were recorded with Python 3.11 and numpy 2.4 on x86-64; another libm or
numpy build may round `sin` differently and needs its own record.

WORK_GOLDEN holds the work behind two of those runs: window attempts,
rejected attempts, step calls and accepted windows' Picard iterations,
counted in process, so a change that brings back wasted attempts fails
here even where it moves no byte.

`python tests/test_golden.py` (with the package importable) prints the
current hashes of every bundled config in the layout of GOLDEN,
EXPLICIT_TOL_GOLDEN and SWEEP_GOLDEN, and the counts of WORK_GOLDEN, to
re-record them after a change that moves bytes or work.
"""

import dataclasses
import hashlib
import json
import os
import pprint
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from twonorm import core
from twonorm.cli import (
    OUTPUT_ROOT_ENV,
    parse_config,
    run_blowup_scan,
    run_solve,
    run_sweep,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SCAN_AMPLITUDES = (0.5, 2.0)

SWEEP_LEVELS = 3

GOLDEN = {
    "decay.json": {
        "norms.csv": "7de1ce8efb255c9bfc6adbc731383d0d72af1e86d6a6fe472a30b301b4c000ca",
        "report.json": "14eb365b45ee8ad15ee7f0cf4b08df26d9ac107bc03ce5445a1a8145d575c58c",
        "trajectory.csv": "cd109c20e3511b13ea1a871c7804b329dcfe51c3a40893769ab20bcc1c45451d",
        "windows.csv": "83e6617f06c799b1cab5f99b5e6cf4d5d09d370b849e6a32b11a75704a246651",
    },
    "riccati.json": {
        "norms.csv": "c50ba30acc66bf80fb799f17c21535636924a5681f0e7ad1de26d29aeedd32af",
        "report.json": "3829a53d1dde500b8ae3a7bb31a87c868e4294766d0c7e35bda8ca32137f962d",
        "trajectory.csv": "d4d0c21488035a0d4ee776c97e8981bd9f8a355151c09bbb2d58379715ba3310",
        "windows.csv": "d1bfc4620ba2a9dc20ae8ce4429ba6f670fe95ce8726ed4f8616aea620a03225",
    },
    "advect.json": {
        "final_state.csv": "d343c1c9b556320380bee14b60bb0b76b245627a4bb7fa7358bffb977f678f38",
        "norms.csv": "0c8077e072b3f66803c9e469d591baa1ff3b1c7d596b3e3e1f4693b38a123323",
        "report.json": "1ec941affb7defa69af0ab345a9787fe756cd76a27cb2f347d24bf762b28d34b",
        "windows.csv": "4b97f296864a5ae4103af83aa404892e5b9fe8af3111c7ffa6a635d910e77968",
    },
    "burgers.json": {
        "final_state.csv": "a1dc25fa45292345269c8519b2b401642ec1352c9cd7833fdd605b7bb9583e94",
        "norms.csv": "b663b6717a6bcaec38b088f8a81129ece9b82f30f642f191f7468f95ea1a5e4c",
        "report.json": "ef281d75abe64835f207d81115a8b24c6c15af0aefc8340ee6b16ed05a2bbb27",
        "windows.csv": "65993eb6686a8a2634f3eff5c82e5655e8b9f0382ad8385b336a451c140ef10b",
    },
    "burgers_scan.json": {
        "blowup.csv": "9fb24f483b6d9dd317d2910cfa6d9fefb42772009d74f70bfd214443e6ba4956",
    },
}

# sweep.csv of `sweep --levels 3`: the grid doubles per level for
# transport, the substep count for ODEs
SWEEP_GOLDEN = {
    "advect.json": "e7e870ab0830d4db26b0943a7ab8bdd98586ee3103f32bcf3b2f0489282d1b1a",
    "decay.json": "4cb91d9e335058f658c0c208bfd2ea29ac0953730042cc4151180882b4f17b1c",
}


# riccati.json with solver.tol = 1e-9 set explicitly: the rule an explicit
# tol gives is the one every window used before the per-window default, so
# these are that rule's hashes and must not move with the default
EXPLICIT_TOL = 1e-9
EXPLICIT_TOL_GOLDEN = {
    "riccati.json": {
        "norms.csv": "aca1e1b771ba97a34460c68590d6aaf72c428b497f8f6eb091c6b6c7dccc62a4",
        "report.json": "716efc03d4b3140bd8aaf210cbc275332ff15c1274c62beff1f4a3d703d2464a",
        "trajectory.csv": "e1a7d7d459fa74008f829ad1983b56efc356bbc439b92379273d6e934bfef435",
        "windows.csv": "845f6da3cb9b495b289f558edaeb2dc70d589f67a5b8a762aefc63fa8344a346",
    },
}

# window attempts, rejected attempts, step calls and Picard iterations of
# the GOLDEN runs (burgers_scan.json at SCAN_AMPLITUDES)
WORK_GOLDEN = {
    "riccati.json": {"attempts": 19, "rejected": 4, "step_calls": 49, "picard_iters": 44},
    "burgers_scan.json": {"attempts": 22, "rejected": 6, "step_calls": 70, "picard_iters": 64},
}


def _config(name, **solver):
    raw = json.loads((CONFIGS / name).read_text())
    raw["emit"] = {"trajectory": True, "norms": True, "report": True}
    raw["solver"] = {**raw.get("solver", {}), **solver}
    return parse_config(raw, source=name)


def _hashes(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def _artifact_hashes(name, root: Path) -> dict:
    """Run name's config with its outputs under root; hash what it wrote."""
    config = _config(name)
    if name == "burgers_scan.json":
        run_blowup_scan(config, list(SCAN_AMPLITUDES))
    else:
        run_solve(config)
    return _hashes(root / config.output_dir)


def _explicit_tol_hashes(name, root: Path) -> dict:
    config = _config(name, tol=EXPLICIT_TOL)
    run_solve(config)
    return _hashes(root / config.output_dir)


def _sweep_hash(name, root: Path) -> str:
    config = _config(name)
    run_sweep(config, SWEEP_LEVELS)
    sweep = root / config.output_dir / "sweep.csv"
    return hashlib.sha256(sweep.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_hashes(name, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert _artifact_hashes(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(EXPLICIT_TOL_GOLDEN))
def test_explicit_tol_matches_golden_hashes(name, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert _explicit_tol_hashes(name, tmp_path) == EXPLICIT_TOL_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
def test_sweep_matches_golden_hash(name, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert _sweep_hash(name, tmp_path) == SWEEP_GOLDEN[name]


def _work_counts(name, root: Path) -> dict:
    """Run name's config as _artifact_hashes does, counting its attempts and step calls."""
    counts = {"attempts": 0, "rejected": 0, "step_calls": 0, "picard_iters": 0}
    picard_window = core.picard_window

    def counted(instance, x0, plan, cfg):
        def step(*args, **kwargs):
            counts["step_calls"] += 1
            return instance.step(*args, **kwargs)

        counts["attempts"] += 1
        try:
            seg, rec = picard_window(dataclasses.replace(instance, step=step), x0, plan, cfg)
        except core.WindowFailure:
            counts["rejected"] += 1
            raise
        counts["picard_iters"] += rec.picard_iters
        return seg, rec

    with mock.patch.object(core, "picard_window", counted):
        _artifact_hashes(name, root)
    return counts


@pytest.mark.parametrize("name", sorted(WORK_GOLDEN))
def test_work_matches_golden_counts(name, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert _work_counts(name, tmp_path) == WORK_GOLDEN[name]


def _record(hasher, names) -> dict:
    record = {}
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            os.environ[OUTPUT_ROOT_ENV] = tmp
            record[name] = hasher(name, Path(tmp))
    return record


if __name__ == "__main__":
    for label, hasher, names in (("GOLDEN", _artifact_hashes, GOLDEN),
                                 ("EXPLICIT_TOL_GOLDEN", _explicit_tol_hashes,
                                  EXPLICIT_TOL_GOLDEN),
                                 ("SWEEP_GOLDEN", _sweep_hash, SWEEP_GOLDEN),
                                 ("WORK_GOLDEN", _work_counts,
                                  ("riccati.json", "burgers_scan.json"))):
        print(f"{label} = " + pprint.pformat(_record(hasher, names), sort_dicts=False))
