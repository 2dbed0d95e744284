"""Golden SHA-256 of the bundled configs' artifacts.

Any change to the float operations behind a solve (step operators,
interpolation, norms, window logic) or to the artifact writers shows up
here as a hash mismatch. Every solve emits all artifacts; the Burgers
scan runs a reduced amplitude list to keep the suite fast. The hashes
were recorded with Python 3.11 and numpy 2.4 on x86-64; another libm or
numpy build may round `sin` differently and needs its own record.

`python tests/test_golden.py` (with the package importable) prints the
current hashes of every bundled config in the layout of GOLDEN,
EXPLICIT_TOL_GOLDEN and SWEEP_GOLDEN, to re-record them after a change
that moves bytes.
"""

import hashlib
import json
import os
import pprint
import tempfile
from pathlib import Path

import pytest

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
        "norms.csv": "4aee23fafb7b6d33193d813b6a9b323ff96b723c9f5105392f9eb595bd01c42e",
        "report.json": "da7bdf7cab1dd6bcd436984ca4f6cdf90b813bfcb2777a7259bf264160470ee3",
        "trajectory.csv": "46798c0592cf1190f88e92ee7784f7428c21f285a50dd01823d9e9af4f163467",
        "windows.csv": "9c5fa6f3505f91997a6c5977e20b1ccbe8df289cdf970112c0bc30daf622dd90",
    },
    "advect.json": {
        "final_state.csv": "d343c1c9b556320380bee14b60bb0b76b245627a4bb7fa7358bffb977f678f38",
        "norms.csv": "0c8077e072b3f66803c9e469d591baa1ff3b1c7d596b3e3e1f4693b38a123323",
        "report.json": "1ec941affb7defa69af0ab345a9787fe756cd76a27cb2f347d24bf762b28d34b",
        "windows.csv": "4b97f296864a5ae4103af83aa404892e5b9fe8af3111c7ffa6a635d910e77968",
    },
    "burgers.json": {
        "final_state.csv": "b5817aa49226a76ab5d7173e1e4ed028c5d8fd8e8a6d4272c3c09b384a29828d",
        "norms.csv": "faab2c741a9164d78f75ec2f035f64cfb986b75c450dcd80f6f2e45c8cebd515",
        "report.json": "94b190d0cabd46e5223b7e8c4dba38dc105b4762660b517d9d709fa548abf544",
        "windows.csv": "da7167f8549e0401ad179a1362cc1f6b6e7b4399208d77890d6bccc3580263b8",
    },
    "burgers_scan.json": {
        "blowup.csv": "519b9d9708e5bf45b98e251965701b5ef2b0ec1fd283c7dc782592502c762981",
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
        "norms.csv": "b8b3bd5682ad23804f7b5c7a6cac56197a93b90cb6b7e7b70264d1080320fd85",
        "report.json": "d2975dffd7c3913e2e8af3350c4ccb7d4fa778553ef342c79a8096383ed36f5c",
        "trajectory.csv": "1a03c1e2de2018572545d9f367b25e60eb651259af49780018393c07b39be498",
        "windows.csv": "3ee8665ef5dda3f572ab21bc83b7af8436f7e4da1b67ed5caf471da0d498fbd9",
    },
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
                                 ("SWEEP_GOLDEN", _sweep_hash, SWEEP_GOLDEN)):
        print(f"{label} = " + pprint.pformat(_record(hasher, names), sort_dicts=False))
