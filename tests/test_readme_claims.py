"""The critical times that README.md quotes, solved again from the bundled configs.

Each claim solves a bundled config, Burgers at the README's n with the cap
at half of amplitude * n / length, and checks that the README states its
t_c to five digits. `python tests/test_readme_claims.py` (with the package
importable) prints each claim with the current value, to correct the
README after a change that moves them.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest

from twonorm.cli import parse_config, run_solve

ROOT = Path(__file__).resolve().parent.parent

# README fragment holding each solve's t_c, by (config, n)
CLAIMS = {
    ("riccati.json", None): "(Riccati: {:.5f} for T\\* = 1)",
    ("burgers.json", 256): "`t_c` is {:.5f} at n = 256",
    ("burgers.json", 1024): "{:.5f} at n = 1024",
    ("burgers.json", 4096): "{:.5f} at n = 4096",
}


def _t_c(out_dir: str, config_name: str, n: int | None) -> float:
    raw = json.loads((ROOT / "configs" / config_name).read_text())
    raw.update(output_dir=out_dir, emit={"norms": False, "report": False})
    config = parse_config(raw, source=config_name)
    if n is not None:
        params = {**config.params, "n": n}
        cap = 0.5 * params["amplitude"] * n / params["length"]
        config = dataclasses.replace(config, params=params,
                                     solver=dataclasses.replace(config.solver, strong_norm_cap=cap))
    _, report, _ = run_solve(config)
    return report.t_c_estimate


@pytest.mark.parametrize("claim", list(CLAIMS), ids=lambda c: c[0].removesuffix(".json") + (f"-{c[1]}" if c[1] else ""))
def test_readme_quotes_the_current_t_c(tmp_path, claim):
    readme = " ".join((ROOT / "README.md").read_text().split())
    assert CLAIMS[claim].format(_t_c(str(tmp_path), *claim)) in readme


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for claim, fragment in CLAIMS.items():
            print(fragment.format(_t_c(tmp, *claim)))
