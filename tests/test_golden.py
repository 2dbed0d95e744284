"""Golden SHA-256 of the bundled configs' artifacts.

Any change to the float operations behind a solve (step operators,
interpolation, norms, window logic) or to the artifact writers shows up
here as a hash mismatch. Every solve emits all artifacts; the Burgers
scan runs a reduced amplitude list to keep the suite fast. The hashes
were recorded with Python 3.11 and numpy 2.4 on x86-64; another libm or
numpy build may round `sin` differently and needs its own record.
"""

import hashlib
import json
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
        "norms.csv": "7ad7bc7a8f9ce379ed1fc817e944749ebf362dfc65b48da6612a0d5ab789c9bb",
        "report.json": "1fcb389feb5eded49e43ebc8f84bcfc51993f4ac1ce2737777a6b02819ef1351",
        "trajectory.csv": "a14900ca76266dc8d822a233288700f1980a099ff44738cb7b9e0ccf1bfdb348",
        "windows.csv": "bb561aef5ed478287fc240a0c902484ab059cebd650bdc4eb586403a50fc1d54",
    },
    "advect.json": {
        "final_state.csv": "d343c1c9b556320380bee14b60bb0b76b245627a4bb7fa7358bffb977f678f38",
        "norms.csv": "0c8077e072b3f66803c9e469d591baa1ff3b1c7d596b3e3e1f4693b38a123323",
        "report.json": "1ec941affb7defa69af0ab345a9787fe756cd76a27cb2f347d24bf762b28d34b",
        "windows.csv": "4b97f296864a5ae4103af83aa404892e5b9fe8af3111c7ffa6a635d910e77968",
    },
    "burgers.json": {
        "final_state.csv": "61dbc58e6af20286efb2347d059d0ae1d2eaf838f2b109ae4bea7c722f391885",
        "norms.csv": "9d39580316f840fbb7c812fe93ebe6ef620ab7ef385e52f5f5ab5c93f94256fb",
        "report.json": "6c3138196e76db1549fdc495ac2575f4cc487f86106dbf2dd8f0115c55f645e6",
        "windows.csv": "60dabf6b46fca899fc62dffb143099b4a3cf88a69e70a49fa994cc19c4f3892e",
    },
    "burgers_scan.json": {
        "blowup.csv": "bd0df409844f63f624cea8c2c8f915a3a9881a7f40ba3666b637fc5cb50339a2",
    },
}

# sweep.csv of `sweep --levels 3`: the grid doubles per level for
# transport, the substep count for ODEs
SWEEP_GOLDEN = {
    "advect.json": "e7e870ab0830d4db26b0943a7ab8bdd98586ee3103f32bcf3b2f0489282d1b1a",
    "decay.json": "4cb91d9e335058f658c0c208bfd2ea29ac0953730042cc4151180882b4f17b1c",
}


def _config(name):
    raw = json.loads((CONFIGS / name).read_text())
    raw["emit"] = {"trajectory": True, "norms": True, "report": True}
    return parse_config(raw, source=name)


def _hashes(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_hashes(name, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    config = _config(name)
    if name == "burgers_scan.json":
        run_blowup_scan(config, list(SCAN_AMPLITUDES))
    else:
        run_solve(config)
    assert _hashes(tmp_path / config.output_dir) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
def test_sweep_matches_golden_hash(name, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    config = _config(name)
    run_sweep(config, SWEEP_LEVELS)
    sweep = tmp_path / config.output_dir / "sweep.csv"
    assert hashlib.sha256(sweep.read_bytes()).hexdigest() == SWEEP_GOLDEN[name]
