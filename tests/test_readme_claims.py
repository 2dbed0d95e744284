"""README.md's claims and examples, checked against the code.

Each claim solves a bundled config, Burgers at the README's n with the cap
at half of amplitude * n / length, and checks that the README states its
t_c to five digits. `python tests/test_readme_claims.py` (with the package
importable) prints each claim with the current value, to correct the
README after a change that moves them. The README's Library example is
run as written, and its config example is parsed as the CLI parses a file.
"""

import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from twonorm import Termination
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


def _readme_block(language: str) -> str:
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, f"README.md holds {len(blocks)} {language} blocks"
    return blocks[0]


def test_readme_library_example_runs_as_written(capsys):
    namespace: dict = {}
    exec(_readme_block("python"), namespace)
    report, seg = namespace["report"], namespace["seg"]
    assert report.termination is Termination.BLOW_UP_DETECTED
    assert 0.99 < report.t_c_estimate < 1.0  # "blow-up near t = 1"
    assert seg.times[-1] == report.t_c_estimate
    assert np.array_equal(seg.end.state, seg.values[-1])  # "the same row"
    assert capsys.readouterr().out.startswith(f"Termination.BLOW_UP_DETECTED {report.t_c_estimate}\n")


def test_readme_config_example_parses():
    raw = json.loads(_readme_block("json"))
    config = parse_config(raw, source="README.md")
    assert (config.instance, config.t_max, config.params["n"]) == ("transport.burgers", 2.0, 1024)
    assert config.solver.strong_norm_cap == 81.487
    assert not config.emit_trajectory and config.emit_norms and config.emit_report


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for claim, fragment in CLAIMS.items():
            print(fragment.format(_t_c(tmp, *claim)))
