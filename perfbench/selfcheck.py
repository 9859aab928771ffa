"""Self-check of the benchmark itself (about a minute on two cores).

    python3 perfbench/selfcheck.py

1. The same seed gives identical inputs and another seed different ones,
   for every workload that uses its seed.
2. The metric names and units that ``run.py`` prints, traced and untraced,
   are exactly those listed in ``BENCHMARK.json``.
3. The correctness gate catches wrong answers: each check rejects a
   corrupted answer handed to it directly (census counts, a Hilbert symbol,
   a certificate verdict), and whole runs in which every answer of one
   sdrkit function is corrupted exit with code 1 and ``"correct": false``.

Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from typing import Callable, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as W  # noqa: E402
from child import _Corrupted  # noqa: E402
from spans import Tracer  # noqa: E402

PROBLEMS: List[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        PROBLEMS.append(what)


def gate_rejects(fn: Callable[[], None]) -> bool:
    try:
        fn()
    except W.Mismatch:
        return True
    return False


def run_bench(*args: str):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def check_inputs() -> None:
    for name in ("sp6-queries", "arith-sweep"):
        a = W.input_digest(W.make_inputs(name, 7))
        b = W.input_digest(W.make_inputs(name, 7))
        c = W.input_digest(W.make_inputs(name, 8))
        check(a == b, f"{name}: seed 7 gives identical inputs twice")
        check(a != c, f"{name}: seeds 7 and 8 give different inputs")


def check_metric_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        code, result = run_bench(
            "--workload", "arith-sweep", "--seed", "3", "--seconds", "1", "--trace", trace
        )
        check(code == 0 and result is not None and result["correct"], f"--trace {trace} run passes")
        got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
        check(got == want, f"--trace {trace} prints exactly the {key} metrics of BENCHMARK.json")


def check_gate() -> None:
    import sdrkit

    census = sdrkit.subgroup_census(1)
    W.check_census(census, 1)
    check(
        gate_rejects(
            lambda: W.check_census(
                dataclasses.replace(census, total_subgroups=census.total_subgroups + 1), 1
            )
        ),
        "a wrong census count is rejected",
    )

    untraced = Tracer(enabled=False, run_id="selfcheck")
    W._hilbert(sdrkit, untraced, None, 2, 5)()
    flipped = _Corrupted(sdrkit, "hilbert_symbol")
    check(
        gate_rejects(W._hilbert(flipped, untraced, None, 2, 5)),
        "a flipped Hilbert symbol is rejected",
    )

    verdict = sdrkit.CertificateVerdict(certified=True, checks={"no_invariant_arf0": True}, notes=())
    W.check_verdict("demo", verdict)
    check(
        gate_rejects(lambda: W.check_verdict("demo", dataclasses.replace(verdict, certified=False))),
        "a rejected genuine certificate is caught",
    )
    check(
        gate_rejects(lambda: W.check_verdict("wrong_degree", verdict)),
        "an accepted tampered certificate is caught",
    )

    state = {"cert": sdrkit.demo_certificate(3)}
    rec = W.Recorder(untraced)
    forged = _Corrupted(sdrkit, "certify_counterexample")
    g = list(W.random_symplectic(W.random.Random(0), 3, 8))
    rec.query("certify", W._cert_query(forged, untraced, rec, W.FormTables(3), state, "wrong_degree", 0, g))
    counts = rec.counts
    check(
        rec.failed == 1
        and counts.get("constructions.certify_counterexample.tampered") == 1
        and counts.get("constructions.certify_counterexample.rejected", 0) == 0,
        "an accepted tampered certificate counts as tampered and not as rejected",
    )

    for workload, fn in (("arith-sweep", "hilbert_symbol"), ("sp6-queries", "subgroup_census")):
        code, result = run_bench(
            "--workload", workload, "--seed", "3", "--seconds", "1", "--corrupt", fn
        )
        check(
            code == 1 and result is not None and not result["correct"] and result["failed"] > 0,
            f"{workload} with every {fn} answer corrupted exits 1 and counts failures",
        )


def main() -> int:
    check_inputs()
    check_gate()
    check_metric_names()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
