"""Benchmark harness for sdrkit: one workload, cold processes, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; sdrkit is imported from the ``src`` directory next to
this one, never from an installed copy, and the run fails with exit code 2
when that directory is missing.

Each measured run is a fresh interpreter (``child.py``) that imports sdrkit,
makes the seeded inputs, prints ``READY`` and then runs the workload, so no
``lru_cache`` or row-table cache carries over between runs. One caller, one
process at a time, no threads (a closed loop).

``--trace 0`` measures end to end. After one uncounted warm-up start that
compiles the bytecode, it times ``SETUP_SAMPLES`` set-up-only starts, then
makes ``--seconds`` // ``RUN_S[workload]`` measured runs (at least one).
``RUN_S`` is the nominal wall time of one run, so the number of runs per
invocation is fixed and does not depend on how fast the machine is at the
moment. It prints every end-to-end metric with its unit and sample count.
Every time is scaled to the reference speed of the machine (``speed.py``),
and the unscaled figures and speed factors are printed beside it:

* ``setup_s``: process start to ``READY`` (import sdrkit, make inputs);
  median over the set-up-only starts.
* ``wall_s``: ``READY`` to all answers verified; median over runs.
* ``query_p50_ms``, ``query_p90_ms``: latency of one public call plus its
  check; the percentile over the queries of each run, median over runs.
* ``peak_rss_mb``: the largest ``ru_maxrss`` of a measured run.

``--trace 1`` runs the workload once untraced and once with spans around
every call the benchmark makes into sdrkit (neither run samples the
machine's speed, and no figure is scaled), writes the spans as JSON lines
to ``.perfbench-out/`` and prints the per-layer metrics, including
``bench.trace_overhead_s`` (traced minus untraced ``wall_s``).

Any wrong answer or raise is a failed query: the run still prints its
numbers, reports ``"correct": false`` and exits with code 1. A child that
crashes, or does not finish inside the time budget, is killed; the run then
prints a result with ``"correct": false`` and no metrics, and exits with
code 1. The last line of stdout is the JSON result; the line before it
records the environment (Python, nproc, CPU, commit, source digest, seed).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import speed
from child import CORRUPTIONS
from workloads import RUN_S, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 11
# a whole run, set-up samples included, ends within this many seconds; the
# census workload is not in BENCHMARK.json and a traced run of it makes two
# runs of about 130 s each
RUN_BUDGET_S = {"lattice-m2": 600.0}
DEFAULT_BUDGET_S = 175.0


class RunFailed(Exception):
    pass


# -- per-layer metrics: name, unit, how to read it from the traced run --------

Layers = Dict[str, Dict[str, float]]
Counts = Dict[str, float]


def _span_s(key: str) -> Callable[[Layers, Counts], float]:
    return lambda layers, counts: layers.get(key, {}).get("s", 0.0)


def _self_s(layer: str) -> Callable[[Layers, Counts], float]:
    return lambda layers, counts: layers.get(layer, {}).get("self_s", 0.0)


def _calls(key: str) -> Callable[[Layers, Counts], float]:
    return lambda layers, counts: int(layers.get(key, {}).get("calls", 0))


def _count(key: str) -> Callable[[Layers, Counts], float]:
    return lambda layers, counts: int(counts.get(key, 0))


def _ratio(num: Callable, den: Callable) -> Callable[[Layers, Counts], float]:
    def get(layers: Layers, counts: Counts) -> float:
        d = den(layers, counts)
        return num(layers, counts) / d if d else 0.0

    return get


PER_LAYER: List[Tuple[str, str, Callable[[Layers, Counts], float]]] = [
    ("matgroups.subgroup_census.s", "s", _span_s("matgroups.subgroup_census")),
    ("matgroups.subgroup_census.subgroups", "count", _count("matgroups.subgroup_census.subgroups")),
    ("matgroups.subgroup_census.classes", "count", _count("matgroups.subgroup_census.classes")),
    ("matgroups.symplectic_group.s", "s", _span_s("matgroups.symplectic_group")),
    (
        "matgroups.closure_elements_per_s",
        "1/s",
        _ratio(_count("matgroups.symplectic_group.elements"), _span_s("matgroups.symplectic_group")),
    ),
    ("matgroups.orthogonal_group.s", "s", _span_s("matgroups.orthogonal_group")),
    ("matgroups.close.calls", "count", _calls("matgroups.close")),
    ("matgroups.close.s", "s", _span_s("matgroups.close")),
    ("matgroups.obstruction_conditions.calls", "count", _calls("matgroups.obstruction_conditions")),
    ("matgroups.obstruction_conditions.s", "s", _span_s("matgroups.obstruction_conditions")),
    ("quadforms.orbits.s", "s", _span_s("quadforms.orbits")),
    ("quadforms.arf_by_basis.calls", "count", _calls("quadforms.arf_by_basis")),
    ("quadforms.arf_by_basis.s", "s", _span_s("quadforms.arf_by_basis")),
    ("constructions.build_dihedral_pair.s", "s", _span_s("constructions.build_dihedral_pair")),
    ("constructions.verify_dihedral_pair.s", "s", _span_s("constructions.verify_dihedral_pair")),
    ("constructions.certify_counterexample.calls", "count", _calls("constructions.certify_counterexample")),
    ("constructions.certify_counterexample.s", "s", _span_s("constructions.certify_counterexample")),
    (
        "constructions.certify_counterexample.tampered",
        "count",
        _count("constructions.certify_counterexample.tampered"),
    ),
    (
        "constructions.certify_counterexample.rejected",
        "ratio",
        _ratio(
            _count("constructions.certify_counterexample.rejected"),
            _count("constructions.certify_counterexample.tampered"),
        ),
    ),
    ("localglobal.hilbert_symbol.calls", "count", _calls("localglobal.hilbert_symbol")),
    ("localglobal.hilbert_symbol.s", "s", _span_s("localglobal.hilbert_symbol")),
    ("localglobal.hilbert_symbol.large_prime.s", "s", _span_s("localglobal.hilbert_symbol.large_prime")),
    ("oracles.hilbert_symbol_by_search.calls", "count", _calls("oracles.hilbert_symbol_by_search")),
    ("oracles.hilbert_symbol_by_search.s", "s", _span_s("oracles.hilbert_symbol_by_search")),
    ("localglobal.conic_rational_point.calls", "count", _calls("localglobal.conic_rational_point")),
    ("localglobal.conic_rational_point.s", "s", _span_s("localglobal.conic_rational_point")),
    (
        "localglobal.conic_rational_point.heavy.s",
        "s",
        _span_s("localglobal.conic_rational_point.heavy"),
    ),
    (
        "localglobal.conic_rational_point.solvable_share",
        "ratio",
        _ratio(
            _count("localglobal.conic_rational_point.points"),
            _calls("localglobal.conic_rational_point"),
        ),
    ),
    ("localglobal.conic_sdr.calls", "count", _calls("localglobal.conic_sdr")),
    ("localglobal.conic_sdr.s", "s", _span_s("localglobal.conic_sdr")),
    ("localglobal.cubic_local_root_density.s", "s", _span_s("localglobal.cubic_local_root_density")),
    (
        "localglobal.cubic_local_root_density.primes",
        "count",
        _count("localglobal.cubic_local_root_density.primes"),
    ),
    (
        "localglobal.cubic_primes_per_s",
        "1/s",
        _ratio(
            _count("localglobal.cubic_local_root_density.primes"),
            _span_s("localglobal.cubic_local_root_density"),
        ),
    ),
    ("localglobal.cubic_local_global_verdict.calls", "count", _calls("localglobal.cubic_local_global_verdict")),
    ("localglobal.cubic_local_global_verdict.s", "s", _span_s("localglobal.cubic_local_global_verdict")),
    ("matgroups.self_s", "s", _self_s("matgroups")),
    ("quadforms.self_s", "s", _self_s("quadforms")),
    ("constructions.self_s", "s", _self_s("constructions")),
    ("localglobal.self_s", "s", _self_s("localglobal")),
    ("oracles.self_s", "s", _self_s("oracles")),
    ("bench.self_s", "s", _self_s("bench")),
]
TRACE_OVERHEAD = ("bench.trace_overhead_s", "s")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


# -- environment -----------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    """sha256 over src/sdrkit/*.py, which names the code when git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "sdrkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "source_digest": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- child processes -------------------------------------------------------

class Runner:
    """Starts child runs one at a time inside the run's time budget."""

    def __init__(self, workload: str, seed: int, corrupt: Optional[str] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.corrupt = corrupt
        self.started = time.perf_counter()
        self.budget = RUN_BUDGET_S.get(workload, DEFAULT_BUDGET_S)
        # bytecode is cached inside the checkout, so that every start after
        # the warm-up loads it the way an installed package would
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = SRC
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT_DIR, "pycache")
        self.env["PYTHONHASHSEED"] = "0"

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def start(self, setup_only: bool, trace_out: Optional[str] = None) -> Tuple[float, Dict[str, Any]]:
        """Set-up time (start to READY) and, unless setup_only, the run's numbers."""
        cmd = [
            sys.executable,
            os.path.join(HERE, "child.py"),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace_out:
            cmd += ["--trace-out", trace_out]
        if self.corrupt:
            cmd += ["--corrupt", self.corrupt]
        timeout = self.budget - self.elapsed()
        if timeout <= 0:
            raise RunFailed("time budget spent before the run could start")
        t0 = time.perf_counter()
        # unbuffered, so reading the READY line takes nothing after it
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=self.env, bufsize=0)
        try:
            first = _read_line(proc, t0 + timeout)
            ready = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=max(1.0, timeout - ready))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunFailed(f"{self.workload} run exceeded the {self.budget:.0f}s budget")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if first.strip() != b"READY" or proc.returncode != 0:
            raise RunFailed(f"{self.workload} child exited with code {proc.returncode}")
        if setup_only:
            return ready, {}
        return ready, json.loads(rest.decode().strip().splitlines()[-1])


def _read_line(proc: subprocess.Popen, deadline: float) -> bytes:
    """One line of the child's stdout, or TimeoutExpired at the deadline."""
    line = b""
    while not line.endswith(b"\n"):
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            raise subprocess.TimeoutExpired(proc.args, left)
        byte = proc.stdout.read(1)
        if not byte:  # the child closed stdout: it has ended
            break
        line += byte
    return line


def _quantile(values: List[float], q: int) -> float:
    """The q-th percentile, interpolated between the samples around it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_end_to_end(args: argparse.Namespace) -> Tuple[Dict[str, Any], List[str], int, int]:
    runner = Runner(args.workload, args.seed, args.corrupt)
    runner.start(setup_only=True)  # compiles the bytecode; not counted
    setups, raw_setups = [], []
    for _ in range(SETUP_SAMPLES):
        before = speed.burst()
        ready, _ = runner.start(setup_only=True)
        factor = speed.scale(before + speed.burst())
        raw_setups.append(ready)
        setups.append(ready * factor)
    count = max(1, int(args.seconds // RUN_S[args.workload]))
    runs = [runner.start(setup_only=False)[1] for _ in range(count)]
    # every time at the reference speed (see speed.py); the factors are
    # printed with the raw figures
    factors = [speed.scale(r["speed"]["kernel_s"]) for r in runs]
    raw_walls = [r["wall_s"] for r in runs]
    walls = [w * f for w, f in zip(raw_walls, factors)]
    latencies = [
        [
            ms * f
            for ms, f in zip(
                r["latencies_ms"],
                speed.local_scales(r["speed"]["kernel_t"], r["speed"]["kernel_s"], r["query_t"]),
            )
        ]
        for r in runs
    ]
    p50s = [_quantile(lat, 50) for lat in latencies]
    p90s = [_quantile(lat, 90) for lat in latencies]
    raw_p50s = [_quantile(r["latencies_ms"], 50) for r in runs]
    raw_p90s = [_quantile(r["latencies_ms"], 90) for r in runs]
    queries = len(runs[0]["latencies_ms"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "query_p50_ms": statistics.median(p50s),
        "query_p90_ms": statistics.median(p90s),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }
    samples = [len(r["speed"]["kernel_s"]) for r in runs]
    notes = {
        "setup_s": f"median of {len(setups)} starts; unscaled median {statistics.median(raw_setups):.4f} s",
        "wall_s": f"median of {len(runs)} runs; unscaled "
        + " ".join(f"{w:.3f}" for w in raw_walls)
        + " s, speed factors "
        + " ".join(f"{f:.3f}" for f in factors)
        + f" from {samples} kernel samples",
        "query_p50_ms": f"median over {len(runs)} runs of the p50 of {queries} queries; unscaled "
        + " ".join(f"{p:.4f}" for p in raw_p50s)
        + " ms",
        "query_p90_ms": f"median over {len(runs)} runs of the p90 of {queries} queries; unscaled "
        + " ".join(f"{p:.4f}" for p in raw_p90s)
        + " ms",
        "peak_rss_mb": f"max of {len(runs)} runs",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    lines = [f"{name} = {values[name]:.6g} {unit}  ({notes[name]})" for name, unit in END_TO_END]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lines.append(f"failed_share = {failed / attempted if attempted else 0:.6g} ratio  ({failed} failed of {attempted} attempted)")
    for r in runs:
        lines += [f"FAILED {msg}" for msg in r["failures"]]
    return metrics, lines, attempted, failed


def measure_per_layer(args: argparse.Namespace) -> Tuple[Dict[str, Any], List[str], int, int]:
    runner = Runner(args.workload, args.seed, args.corrupt)
    runner.start(setup_only=True)  # compiles the bytecode; not counted
    _, plain = runner.start(setup_only=False)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    _, traced = runner.start(setup_only=False, trace_out=trace_path)
    layers, counts = traced["layers"], traced["counts"]
    metrics: Dict[str, Any] = {}
    lines = []
    for name, unit, get in PER_LAYER:
        value = get(layers, counts)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name} = {value:.6g} {unit}")
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics[TRACE_OVERHEAD[0]] = {"value": overhead, "unit": TRACE_OVERHEAD[1]}
    lines.append(
        f"{TRACE_OVERHEAD[0]} = {overhead:.6g} s  (traced wall {traced['wall_s']:.4f} s"
        f" - untraced wall {plain['wall_s']:.4f} s)"
    )
    lines.append(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    for r in (plain, traced):
        lines += [f"FAILED {msg}" for msg in r["failures"]]
    return metrics, lines, attempted, failed


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--corrupt",
        choices=sorted(CORRUPTIONS),
        help="alter every answer of this sdrkit function (used by selfcheck.py)",
    )
    args = ap.parse_args(argv)

    # a terminated run still stops its child (see Runner.start's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "sdrkit", "__init__.py")):
        print(f"no sdrkit sources under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    measure = measure_per_layer if args.trace else measure_end_to_end
    try:
        metrics, lines, attempted, failed = measure(args)
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        metrics, lines, attempted, failed = {}, [], 1, 1
    for line in lines:
        print(line)
    print("env " + json.dumps(environment(args), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
