"""Byte-for-byte golden copies of the CLI's JSON output.

Each case runs `main(argv)` in process and compares stdout with
`tests/golden/<name>.json`, frozen from a known-good build. A refactor of
the group kernels or of the arithmetic kernels must leave every one of these
unchanged. The m = 2 census
is compared through the session's shared census instead of a second
100-second run, and the two long scans are compared under `-m extended`.
"""
import json
from pathlib import Path

import pytest

from sdrkit.cli import main
from sdrkit.matgroups import census_m3_incremental

GOLDEN = Path(__file__).resolve().parent / "golden"

GROUP_CRITERIA = [
    "form-census-and-orbits",
    "arf-coherence",
    "dihedral-pairs",
    "obstruction-subgroup",
    "impossibility-m1",
    "certifier",
]

# name -> (argv, exit code)
CASES = {
    "order-m1": (["order", "--m", "1"], 0),
    "order-m2": (["order", "--m", "2"], 0),
    "census-m1": (["census", "--m", "1"], 0),
    "forms-census-m3": (["forms-census", "--m", "3"], 0),
    "orbits-m2": (["orbits", "--m", "2"], 0),
    "orbits-m3": (["orbits", "--m", "3"], 0),
    "orbits-m3-gen": (
        ["orbits", "--m", "3", "--gen", "000100;010000;001000;100100;000010;000001"],
        0,
    ),
    "o-group-m1": (["o-group", "--m", "1"], 0),
    "o-group-m2": (["o-group", "--m", "2"], 0),
    "o-group-m3": (["o-group", "--m", "3"], 0),
    "lemma51": (["lemma51"], 0),
    "lemma51-gen": (["lemma51", "--gen", "11;01"], 0),
    **{f"lemma52-m{m}": (["lemma52", "--m", str(m)], 0) for m in range(1, 6)},
    "certify-demo-m3": (["certify", "--demo", "--m", "3"], 0),
    "certify-demo-m6": (["certify", "--demo", "--m", "6"], 0),
    "quartic-check": (["quartic-check"], 0),
    "reproduce-group-criteria": (
        ["reproduce"] + [arg for name in GROUP_CRITERIA for arg in ("--only", name)],
        0,
    ),
    "cubic-s3-1e5": (["cubic", "0", "-2", "--bound", "100000"], 0),
    "cubic-c3-1e5": (["cubic", "-3", "1", "--bound", "100000"], 0),
    "cubic-split": (["cubic", "-7", "6"], 0),
    # frozen with "--"; test_cli checks that "1/2 -3/5" without it agrees
    "cubic-rational": (["cubic", "--bound", "20000", "--", "1/2", "-3/5"], 0),
    "reproduce-cubic-densities": (["reproduce", "--only", "cubic-densities"], 0),
}


def golden_text(name: str) -> str:
    return (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def cli_payload_text(schema: str, body) -> str:
    """What `main` prints for a payload: the shared serialization."""
    return json.dumps({"schema": f"sdrkit/{schema}/v1", **body}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    argv, want_code = CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == want_code
    assert out == golden_text(name)


def test_census_m2_matches_golden(actx):
    got = cli_payload_text("census", actx.census(2).to_json())
    assert got == golden_text("census-m2")


@pytest.mark.extended
def test_scan_order6_matches_golden(order6_scan):
    assert cli_payload_text("scan-order6", order6_scan) == golden_text("scan-order6")


@pytest.mark.extended
def test_census_m3_seed_checkpoint_matches_golden(tmp_path):
    path = tmp_path / "census3.json"
    state = census_m3_incremental(str(path), max_seconds=0.0)
    assert state["cursor"] == [0, 0]
    assert path.read_text(encoding="utf-8") == golden_text("census-m3-seed")
