"""Byte-for-byte golden copies of the CLI's JSON output.

Each case runs `main(argv)` in process and compares stdout with
`tests/golden/<name>.json`, frozen from a known-good build. A refactor of
the group kernels or of the arithmetic kernels must leave every one of these
unchanged. The m = 2 census
is compared through the session's shared census instead of a second
minute-long run, and the order-6 scan through the session's shared scan,
which `tests/test_matgroups.py` also checks against the old element sweep
under `-m extended`.
"""
import json
from pathlib import Path

import pytest

from sdrkit.cli import main

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
    "order-m3": (["order", "--m", "3"], 0),
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
    **{f"lemma52-m{m}": (["lemma52", "--m", str(m)], 0) for m in range(1, 7)},
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
    # square discriminant with denominators: the integral model y^3 - 3y + 1
    "cubic-c3-rational": (["cubic", "--bound", "100000", "--", "-3/4", "1/8"], 0),
    "reproduce-cubic-densities": (["reproduce", "--only", "cubic-densities"], 0),
    # the 2-adic search oracle: a +1 pair, a -1 pair and fraction arguments
    "hilbert-2-plus": (["hilbert", "2", "7", "2", "--verify-search"], 0),
    "hilbert-2-minus": (["hilbert", "2", "3", "2", "--verify-search"], 0),
    "hilbert-2-fraction": (["hilbert", "1/2", "-5/3", "2", "--verify-search"], 0),
    "reproduce-hilbert-symbols": (["reproduce", "--only", "hilbert-symbols"], 0),
    "reproduce-conic-hasse-sweep": (["reproduce", "--only", "conic-hasse-sweep"], 0),
    "conic-diag": (["conic", "--diag", "2", "3", "-5"], 0),
    "conic-matrix": (["conic", "--matrix", "1,2,0;2,-3,1;0,1,5"], 0),
    "conic-matrix-rational": (["conic", "--matrix", "0,1/2,0;1/2,0,0;0,0,-3"], 0),
    "conic-degenerate": (["conic", "--diag", "1", "-1", "0"], 0),
    "conic-obstructed": (["conic", "--diag", "1", "1", "-3"], 1),
    "conic-heavy": (["conic", "--diag", "997", "1009", "-1013"], 0),
    "conic-heavy-obstructed": (["conic", "--diag", "998", "1001", "-1003"], 1),
    "conic-heavy-no-sdr": (["conic", "--diag", "1009", "-1013", "1019", "--no-sdr"], 0),
    # 1000033/1000037 is no square mod 1000003 (cs), and 1000003/1000037 none
    # mod 1000033 (c1), so the search steps u by both and visits only u = 0
    "conic-million-obstructed": (["conic", "--diag", "1000003", "1000033", "-1000037"], 1),
    # the obstructions 1000033 and 1000171 are primes of c1 and c2, not of
    # cs = 1000003: both are rootless and step u past the outer bound, so
    # only u = 0 is visited
    "conic-million-c1c2-obstructed": (["conic", "--diag", "1000003", "1000033", "-1000171"], 1),
    # the reduction removes the squares 10^2 of 300 and 7^2 of -147 and moves
    # the 3 they share onto -22: the reduced form is <1, -1, -66>
    "conic-reduced": (["conic", "--diag", "300", "-147", "-22"], 0),
    # 2^2 leaves 60 and -84, then 3, 5 and 7 each move: <7, -5, -3>, with
    # the obstructions 3 and 7
    "conic-reduced-obstructed": (["conic", "--diag", "60", "-84", "-35"], 1),
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


def test_scan_order6_matches_golden(order6_scan):
    assert cli_payload_text("scan-order6", order6_scan) == golden_text("scan-order6")
