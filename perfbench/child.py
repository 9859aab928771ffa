"""One cold run of one workload in a fresh interpreter; started by run.py.

    python3 perfbench/child.py --workload NAME --seed N
        [--setup-only] [--trace-out FILE] [--corrupt FUNCTION]

Protocol on stdout: the line ``READY`` once sdrkit is imported and the
seeded inputs are made (the parent times set-up up to that line), then, unless
``--setup-only``, one JSON line with the run's numbers. ``--corrupt`` alters
every answer of one sdrkit function; the self-check uses it to show that the
correctness gate catches a wrong answer.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# wrong answers for the gate to catch, keyed by the sdrkit function altered
CORRUPTIONS = {
    "hilbert_symbol": lambda out: -out,
    "subgroup_census": lambda out: dataclasses.replace(
        out, total_subgroups=out.total_subgroups + 1
    ),
    "certify_counterexample": lambda out: dataclasses.replace(
        out, certified=not out.certified
    ),
}


class _Corrupted:
    """The sdrkit namespace with one function's answers altered."""

    def __init__(self, module, name: str) -> None:
        self._module = module
        fn, alter = getattr(module, name), CORRUPTIONS[name]
        self._override = {name: lambda *args: alter(fn(*args))}

    def __getattr__(self, attr: str):
        if attr in self._override:
            return self._override[attr]
        return getattr(self._module, attr)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--corrupt", choices=sorted(CORRUPTIONS))
    args = ap.parse_args()

    import sdrkit

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(sdrkit.__file__), src]) != src:
        print(f"sdrkit imported from {sdrkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    from speed import Sampler
    from spans import Tracer
    from workloads import Recorder, input_digest, make_inputs, run_workload

    inputs = make_inputs(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    run_id = f"{args.workload}:{args.seed}:{os.getpid()}"
    tracer = Tracer(enabled=args.trace_out is not None, run_id=run_id)
    # the machine's speed is sampled in untraced runs only, so that a traced
    # run and its untraced twin differ by the spans alone
    sampler = Sampler(enabled=args.trace_out is None)
    rec = Recorder(tracer, sampler)
    sd = _Corrupted(sdrkit, args.corrupt) if args.corrupt else sdrkit

    sampler.start()
    t0 = time.perf_counter()
    with tracer.span("bench.run"):
        run_workload(args.workload, sd, tracer, rec, inputs)
    wall = time.perf_counter() - t0 - sampler.spent
    sampler.stop()

    out = {
        "wall_s": wall,
        "latencies_ms": rec.latencies_ms,
        "query_t": rec.query_t,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "counts": rec.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "input_digest": input_digest(inputs),
        "speed": sampler.summary(),
    }
    if args.trace_out:
        out["layers"] = tracer.aggregate()
        tracer.write_jsonl(
            args.trace_out,
            {"workload": args.workload, "seed": args.seed, "run": run_id, "wall_s": wall},
        )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
