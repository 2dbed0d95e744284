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
        "norms.csv": "2a4089bda16174fb321ce360012b542cd02e094d585fb1a91192a67b19038cb7",
        "report.json": "a21654547a5336bb57331a21cc29b137bd2f8665b7411dc64c9bac45a2073820",
        "trajectory.csv": "63c19795871141f5728a61cfaf095833d11b8b53022aa773e42a5766790fd902",
        "windows.csv": "46a7e97424285db94dd45acd24455f81b49cb5b0fa6c31de96e0a63b26969cbc",
    },
    "advect.json": {
        "final_state.csv": "d343c1c9b556320380bee14b60bb0b76b245627a4bb7fa7358bffb977f678f38",
        "norms.csv": "0c8077e072b3f66803c9e469d591baa1ff3b1c7d596b3e3e1f4693b38a123323",
        "report.json": "1ec941affb7defa69af0ab345a9787fe756cd76a27cb2f347d24bf762b28d34b",
        "windows.csv": "4b97f296864a5ae4103af83aa404892e5b9fe8af3111c7ffa6a635d910e77968",
    },
    "burgers.json": {
        "final_state.csv": "7e7139229399e93623dd96439930b070fe23a75722b688f996c000e0a68059a7",
        "norms.csv": "e302058c7826418df08fd6d80b9637f24b2078009e358ef734d65a0133900e2a",
        "report.json": "9cbfd0441d558249d9f27c7895bf5f08979b650d07319f6f801985c0a0d49442",
        "windows.csv": "35de7670d106d14fe3819d3122c176577eb6bd91245f6af82c85e33b372dfff2",
    },
    "burgers_scan.json": {
        "blowup.csv": "0d883769bc9dcad90433f745548270aac3b1d8cff16c6c918ff6da39109bb2b9",
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
