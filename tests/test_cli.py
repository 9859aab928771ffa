import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sdrkit.cli import main
from sdrkit.constructions import demo_certificate
from sdrkit.f2core import standard_symplectic
from sdrkit.matgroups import symplectic_order_formula, transvection


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def run_process(argv, timeout):
    """The CLI in a fresh interpreter, killed after `timeout` seconds, so a
    hang fails the test (subprocess.TimeoutExpired) instead of the suite."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "sdrkit.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def test_order_materialized(capsys):
    code, payload, _ = run_json(capsys, ["order", "--m", "2"])
    assert code == 0
    assert payload["schema"] == "sdrkit/order/v1"
    assert payload["order"] == 720
    assert payload["formula_order"] == 720
    assert payload["materialized"] is True


def test_order_formula_only(capsys):
    code, payload, _ = run_json(capsys, ["order", "--m", "6", "--formula-only"])
    assert code == 0
    assert payload["materialized"] is False
    assert payload["order"] == symplectic_order_formula(6)
    assert "formula_order" not in payload


def test_order_usage_error(capsys):
    code, out, err = run(capsys, ["order", "--m", "0"])
    assert code == 2
    assert not out
    assert err.startswith("error:")


def test_forms_census(capsys):
    code, payload, _ = run_json(capsys, ["forms-census", "--m", "3"])
    assert code == 0
    assert payload["total"] == 64
    assert payload["arf0"] == 36
    assert payload["arf1"] == 28


def test_census_m1(capsys):
    code, payload, _ = run_json(capsys, ["census", "--m", "1"])
    assert code == 0
    assert payload["schema"] == "sdrkit/census/v1"
    assert payload["classes"] == 4
    assert payload["satisfying"] == 0
    assert len(payload["class_details"]) == 4


def test_census_m3_needs_explicit_optin(capsys):
    code, _, err = run(capsys, ["census", "--m", "3"])
    assert code == 2
    assert "--i-have-hours" in err


def test_orbits_full_group(capsys):
    code, payload, _ = run_json(capsys, ["orbits", "--m", "2"])
    assert code == 0
    assert payload["group"] == "full"
    assert payload["group_order"] == 720
    assert payload["orbit_count"] == 2
    sizes = [o["size"] for o in payload["orbits"]]
    assert sizes == [6, 10]
    for o in payload["orbits"]:
        assert len(o["arf"]) == 1  # orbits never mix arf classes
    assert payload["orbits"][0]["representative"] == 0


def test_orbits_generated_subgroup(capsys):
    gen = transvection(1, standard_symplectic(1)).to_text()
    code, payload, _ = run_json(capsys, ["orbits", "--m", "1", "--gen", gen])
    assert code == 0
    assert payload["group"] == "generated"
    assert payload["group_order"] == 2
    assert sum(o["size"] for o in payload["orbits"]) == 4


def test_orbits_large_m_needs_generators(capsys):
    code, _, err = run(capsys, ["orbits", "--m", "4"])
    assert code == 2
    assert "--gen" in err


def test_o_group(capsys):
    code, payload, _ = run_json(capsys, ["o-group", "--m", "2"])
    assert code == 0
    assert payload["order"] == 120
    assert payload["ambient_order"] == 720
    assert payload["index"] == 6
    assert payload["generators"]


def test_lemma51_scan(capsys):
    code, payload, _ = run_json(capsys, ["lemma51"])
    assert code == 0
    assert payload["scanned"] == 6
    assert payload["qualifying"] == 4
    for row in payload["subgroups"]:
        if row["qualifies"]:
            assert row["common_fixed_vector"] != 0
        else:
            assert row["order"] in (3, 6)


def test_lemma51_single_subgroup(capsys):
    gen = transvection(1, standard_symplectic(1)).to_text()
    code, payload, _ = run_json(capsys, ["lemma51", "--gen", gen])
    assert code == 0
    assert payload["qualifies"] is True
    assert payload["common_fixed_vector"] != 0


def test_lemma51_blocked_subgroup(capsys):
    sp = standard_symplectic(1)
    g = transvection(0b01, sp) * transvection(0b10, sp)  # order 3, acts freely
    code, payload, _ = run_json(capsys, ["lemma51", "--gen", g.to_text()])
    assert code == 1
    assert payload["qualifies"] is False
    assert "element_without_fixed_vector" in payload


def test_lemma52(capsys):
    code, payload, _ = run_json(capsys, ["lemma52", "--m", "2"])
    assert code == 0
    assert payload["verified"] is True
    assert payload["group_order"] == 10
    assert payload["sigma_order"] == 5
    assert set(payload["pair"]) == {"m", "sigma", "tau", "transport", "field_k"}
    code, _, err = run(capsys, ["lemma52", "--m", "0"])
    assert code == 2


def test_certify_demo(capsys):
    code, payload, _ = run_json(capsys, ["certify", "--demo", "--m", "3"])
    assert code == 0
    assert payload["certified"] is True
    assert all(payload["checks"].values())
    assert payload["certificate"]["degree_n"] == 4


def test_certify_from_file(capsys, tmp_path):
    cert = demo_certificate(3)
    good = tmp_path / "cert.json"
    good.write_text(json.dumps(cert.to_json()))
    code, payload, _ = run_json(capsys, ["certify", "--in", str(good)])
    assert code == 0
    assert payload["certified"] is True

    data = cert.to_json()
    data["has_local_points_everywhere"] = False
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, payload, _ = run_json(capsys, ["certify", "--in", str(bad)])
    assert code == 1
    assert payload["certified"] is False
    assert payload["checks"]["local_points"] is False


def test_certify_rejects_unsupported_m_without_traceback(tmp_path):
    data = demo_certificate(3).to_json()
    data["m"] = 9
    path = tmp_path / "m9.json"
    path.write_text(json.dumps(data))
    proc = run_process(["certify", "--in", str(path)], timeout=15)
    assert proc.returncode == 2
    assert "m = 9" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_certify_validates_before_closing(capsys, tmp_path):
    good = demo_certificate(3).to_json()
    for field, value, reason in [
        ("m", 0, "m = 0"),
        ("degree_n", 2, "degree_n = 2"),
        ("m", 2, "expected 2m = 4"),
    ]:
        data = dict(good, **{field: value})
        path = tmp_path / f"{field}-{value}.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, ["certify", "--in", str(path)])
        assert code == 2
        assert reason in err


def test_certify_usage(capsys, tmp_path):
    assert run(capsys, ["certify"])[0] == 2
    p = tmp_path / "x.json"
    p.write_text("{}")
    assert run(capsys, ["certify", "--in", str(p), "--demo"])[0] == 2
    assert run(capsys, ["certify", "--in", str(tmp_path / "missing.json")])[0] == 2


def test_conic_solvable(capsys):
    code, payload, _ = run_json(capsys, ["conic", "--diag", "1", "1", "-1"])
    assert code == 0
    assert payload["degenerate"] is False
    assert payload["obstructions"] == []
    assert payload["has_rational_point"] is True
    assert payload["point"] is not None
    assert payload["sdr"] is not None
    assert len(payload["sdr"]["matrices"]) == 3


def test_conic_obstructed(capsys):
    code, payload, _ = run_json(capsys, ["conic", "--diag", "1", "1", "1"])
    assert code == 1
    assert payload["has_rational_point"] is False
    assert payload["point"] is None
    assert payload["sdr"] is None
    assert payload["obstructions"] == [2, "real"]


def test_conic_degenerate(capsys):
    code, payload, _ = run_json(capsys, ["conic", "--diag", "1", "-1", "0"])
    assert code == 0
    assert payload["degenerate"] is True
    assert payload["obstructions"] is None
    assert payload["has_rational_point"] is True


def test_conic_matrix_and_file_inputs(capsys, tmp_path):
    code, payload, _ = run_json(
        capsys, ["conic", "--matrix", "0,1,0;1,0,0;0,0,-1", "--no-sdr"]
    )
    assert code == 0
    assert payload["sdr"] is None

    f = tmp_path / "conic.json"
    f.write_text(json.dumps({"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}))
    code, payload, _ = run_json(capsys, ["conic", "--in", str(f)])
    assert code == 0

    assert run(capsys, ["conic", "--matrix", "1,1,0;0,1,0;0,0,1"])[0] == 2
    assert run(capsys, ["conic", "--diag", "1", "1", "1", "--matrix", "x"])[0] == 2
    assert run(capsys, ["conic"])[0] == 2


def test_conic_near_a_million_finishes():
    proc = run_process(
        ["conic", "--diag", "1000003", "1000033", "-1000037", "--no-sdr"], timeout=15
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["has_rational_point"] is False
    assert payload["point"] is None


@pytest.mark.parametrize(
    "diag, limit",
    [
        (["2000003", "2000029", "-2000039"], "limit is 2000000"),
        (["8353", "4906103", "-4908941"], "limit is 5000000"),
        (["2", "3", "-1000000000000037"], "10^14"),
    ],
)
def test_conic_over_the_limits_is_usage_error(diag, limit):
    proc = run_process(["conic", "--diag", *diag], timeout=1)
    assert proc.returncode == 2
    assert not proc.stdout
    assert limit in proc.stderr


def test_cubic(capsys):
    code, payload, _ = run_json(capsys, ["cubic", "0", "-2", "--bound", "2000"])
    assert code == 0
    assert payload["splitting"] == "S3"
    assert payload["claim_ok"] is True
    assert payload["global_roots"] == []

    code, payload, _ = run_json(capsys, ["cubic", "-7", "6", "--bound", "500"])
    assert code == 0
    assert payload["splitting"] == "trivial"

    assert run(capsys, ["cubic", "0", "-2", "--bound", "50"])[0] == 2
    assert run(capsys, ["cubic", "-3", "2"])[0] == 2  # singular
    assert run(capsys, ["cubic", "1", str(10 ** 20 + 1)])[0] == 2  # too big to factor


def test_hilbert(capsys):
    code, payload, _ = run_json(capsys, ["hilbert", "-1", "-1", "2", "--verify-search"])
    assert code == 0
    assert payload["symbol"] == -1
    assert payload["search_symbol"] == -1
    assert payload["search_agrees"] is True

    code, payload, _ = run_json(capsys, ["hilbert", "1/2", "3", "2"])
    assert code == 0
    assert payload["a"] == "1/2"

    assert run(capsys, ["hilbert", "2", "3", "6"])[0] == 2
    assert run(capsys, ["hilbert", "0", "3", "2"])[0] == 2
    code, _, err = run(capsys, ["hilbert", "3", "5", str(10 ** 25 + 13)])
    assert code == 2
    assert "3.317e24" in err


def test_hilbert_at_a_large_prime_is_fast():
    proc = run_process(["hilbert", "3", "5", "1000000000000000003"], timeout=2)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["symbol"] == 1


def test_quartic_check_defaults(capsys):
    code, payload, _ = run_json(capsys, ["quartic-check"])
    assert code == 0
    assert payload["point"] == ["0", "0", "1"]
    assert payload["all_vanish"] is True
    assert [r["name"] for r in payload["results"]] == ["quartic-a", "quartic-b"]
    for r in payload["results"]:
        assert r["vanishes"] is True
        assert r["value"] == "0"


def test_quartic_check_named_and_file(capsys, tmp_path):
    code, payload, _ = run_json(
        capsys, ["quartic-check", "--name", "quartic-b", "--point", "1,1,1"]
    )
    assert code == 1
    assert payload["all_vanish"] is False

    f = tmp_path / "quartic.json"
    f.write_text(json.dumps({"coefficients": [[4, 0, 0, "1"], [0, 4, 0, "-1"]]}))
    code, payload, _ = run_json(
        capsys, ["quartic-check", "--in", str(f), "--point", "1,1,0"]
    )
    assert code == 0
    assert payload["all_vanish"] is True

    assert run(capsys, ["quartic-check", "--name", "nope"])[0] == 2
    assert run(capsys, ["quartic-check", "--point", "0,0,0"])[0] == 2


def test_reproduce_subset_is_deterministic(capsys):
    argv = [
        "reproduce",
        "--only",
        "quartic-points",
        "--only",
        "dihedral-pairs",
    ]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out1)
    assert payload["all_passed"] is True
    assert [c["name"] for c in payload["criteria"]] == [
        "dihedral-pairs",
        "quartic-points",
    ]
    assert all(c["passed"] for c in payload["criteria"])
    code, out2, _ = run(capsys, argv)
    assert code == 0
    assert out2 == out1  # byte-identical reruns


def test_reproduce_unknown_criterion(capsys):
    code, _, err = run(capsys, ["reproduce", "--only", "nope"])
    assert code == 2
    assert "unknown criteria" in err


def test_text_format_has_timings(capsys):
    code, out, _ = run(capsys, ["forms-census", "--m", "2", "--format", "text"])
    assert code == 0
    assert "total: 16" in out
    assert "elapsed-seconds:" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
