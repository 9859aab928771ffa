"""Command-line front end.

Every subcommand prints a single JSON document by default (stable keys,
versioned under a top-level "schema" field, no timings) so runs with the
same configuration are byte-identical; `--format text` trades that for a
human layout with elapsed times. Exit codes: 0 when the run's claim holds,
1 when a checked claim fails (no rational point, certificate rejected,
criterion failed), 2 for usage problems.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import localglobal as lg
from . import oracles as orc
from .acceptance import DEFAULT_SEED, AcceptanceContext, CRITERIA, run_one
from .constructions import (
    DihedralConditionError,
    ObstructionCertificate,
    build_dihedral_pair,
    certify_counterexample,
    demo_certificate,
    verify_dihedral_pair,
)
from .f2core import F2Matrix, standard_symplectic
from .matgroups import (
    ClosureCapExceeded,
    DEFAULT_CAP,
    census_m3_incremental,
    close,
    gl22_common_fixed_vector,
    has_nonzero_fixed_vector,
    order6_uniqueness_scan,
    orthogonal_group,
    subgroup_census,
    symplectic_group,
    symplectic_order_formula,
    _all_subgroups,
)
from .quadforms import all_forms, orbits, standard_base_form

SCHEMA_PREFIX = "sdrkit"


class UsageError(Exception):
    pass


def _schema(command: str) -> str:
    return f"{SCHEMA_PREFIX}/{command}/v1"


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r} ({exc})")


def _parse_place(text: str):
    if text == "real":
        return "real"
    try:
        p = int(text)
    except ValueError:
        raise UsageError(f"a place is 'real' or a prime, not {text!r}")
    try:
        prime = lg.is_prime(p)
    except ValueError as exc:
        raise UsageError(str(exc))
    if not prime:
        raise UsageError(f"{p} is not prime")
    return p


def _parse_generators(texts: Sequence[str], m: Optional[int]) -> List[F2Matrix]:
    gens = []
    for t in texts:
        try:
            gens.append(F2Matrix.from_text(t))
        except ValueError as exc:
            raise UsageError(f"bad generator {t!r}: {exc}")
    if m is not None:
        for g in gens:
            if g.dim != 2 * m:
                raise UsageError(
                    f"generator has dimension {g.dim}, expected {2 * m}"
                )
    return gens


def _close_or_usage(gens, space, cap):
    try:
        return close(gens, space, cap=cap)
    except (ValueError, ClosureCapExceeded) as exc:
        raise UsageError(str(exc))


def _read_json_file(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}")


def _frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# subcommand handlers: args -> (payload, exit_code)


def _cmd_order(args) -> Tuple[Dict[str, object], int]:
    m = args.m
    if m < 1:
        raise UsageError("--m must be at least 1")
    formula = symplectic_order_formula(m)
    materialize = m <= 3 and not args.formula_only
    payload: Dict[str, object] = {
        "schema": _schema("order"),
        "m": m,
        "order": formula,
        "materialized": materialize,
    }
    if materialize:
        group = symplectic_group(m)
        payload["order"] = group.order
        payload["formula_order"] = formula
        if group.order != formula:
            return payload, 1
    return payload, 0


def _cmd_census(args) -> Tuple[Dict[str, object], int]:
    m = args.m
    if m in (1, 2):
        census = subgroup_census(m)
        payload = {"schema": _schema("census"), **census.to_json()}
        return payload, 0
    if m == 3:
        if not args.i_have_hours:
            raise UsageError(
                "the m=3 census is far beyond desk scale; pass --i-have-hours "
                "to grind a checkpointed slice anyway"
            )
        progress = None
        if args.format == "text":
            progress = lambda msg: print(f"# {msg}", file=sys.stderr)
        state = census_m3_incremental(
            args.checkpoint, max_seconds=args.max_seconds, progress=progress
        )
        orders: Dict[str, int] = {}
        for cls in state["classes"]:
            key = str(cls["order"])
            orders[key] = orders.get(key, 0) + 1
        payload = {
            "schema": _schema("census-m3-partial"),
            "m": 3,
            "checkpoint": args.checkpoint,
            "done": bool(state["done"]),
            "classes_so_far": len(state["classes"]),
            "cursor": list(state["cursor"]),
            "class_orders": orders,
        }
        return payload, 0
    raise UsageError("--m must be 1, 2 or 3")


def _cmd_forms_census(args) -> Tuple[Dict[str, object], int]:
    if args.m < 1 or args.m > 12:
        raise UsageError("--m must be between 1 and 12")
    forms = all_forms(standard_base_form(args.m))
    arf0 = sum(1 for f in forms if f.arf == 0)
    payload = {
        "schema": _schema("forms-census"),
        "m": args.m,
        "total": len(forms),
        "arf0": arf0,
        "arf1": len(forms) - arf0,
    }
    return payload, 0


def _cmd_orbits(args) -> Tuple[Dict[str, object], int]:
    m = args.m
    if m < 1 or m > 6:
        raise UsageError("--m must be between 1 and 6")
    if m > 3 and not args.gen:
        raise UsageError("the full group is materialized only for m <= 3; pass --gen")
    base = standard_base_form(m)
    if args.gen:
        gens = _parse_generators(args.gen, m)
        group = _close_or_usage(gens, base.space, args.cap)
        label = "generated"
    else:
        group = symplectic_group(m)
        label = "full"
    parts = orbits(group, all_forms(base))
    parts.sort(key=lambda p: (len(p), min(f.v for f in p)))
    payload = {
        "schema": _schema("orbits"),
        "m": m,
        "group": label,
        "group_order": group.order,
        "orbit_count": len(parts),
        "orbits": [
            {
                "size": len(p),
                "arf": sorted({f.arf for f in p}),
                "representative": min(f.v for f in p),
            }
            for p in parts
        ],
    }
    return payload, 0


def _cmd_o_group(args) -> Tuple[Dict[str, object], int]:
    m = args.m
    if m < 1 or m > 3:
        raise UsageError("--m must be 1, 2 or 3 (the group is materialized)")
    base = standard_base_form(m)
    ambient = symplectic_group(m)
    group = orthogonal_group(base, ambient)
    payload = {
        "schema": _schema("o-group"),
        "m": m,
        "order": group.order,
        "ambient_order": ambient.order,
        "index": ambient.order // group.order,
        "generators": [F2Matrix.from_packed(p, group.dim).to_text() for p in group.core],
    }
    return payload, 0


def _cmd_lemma51(args) -> Tuple[Dict[str, object], int]:
    if args.gen:
        gens = _parse_generators(args.gen, 1)
        group = _close_or_usage(gens, standard_symplectic(1), args.cap)
        blocker = None
        for mat in group.matrices():
            if has_nonzero_fixed_vector(mat) is None:
                blocker = mat.to_text()
                break
        if blocker is not None:
            payload = {
                "schema": _schema("lemma51"),
                "qualifies": False,
                "element_without_fixed_vector": blocker,
            }
            return payload, 1
        witness = gl22_common_fixed_vector(group)
        payload = {
            "schema": _schema("lemma51"),
            "qualifies": True,
            "order": group.order,
            "common_fixed_vector": witness,
        }
        return payload, 0

    sp1 = symplectic_group(1)
    rows = []
    for hset, hgens in sorted(
        _all_subgroups(sp1).items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
    ):
        mats = [F2Matrix.from_packed(p, 2) for p in hset]
        qualifies = all(has_nonzero_fixed_vector(g) is not None for g in mats)
        row: Dict[str, object] = {
            "order": len(hset),
            "generators": [F2Matrix.from_packed(p, 2).to_text() for p in hgens],
            "qualifies": qualifies,
        }
        if qualifies:
            handle = _close_or_usage(
                [F2Matrix.from_packed(p, 2) for p in hgens] or [F2Matrix.identity(2)],
                sp1.space,
                DEFAULT_CAP,
            )
            v = gl22_common_fixed_vector(handle)
            assert all(g.apply(v) == v for g in mats)
            row["common_fixed_vector"] = v
        rows.append(row)
    payload = {
        "schema": _schema("lemma51"),
        "scanned": len(rows),
        "qualifying": sum(1 for r in rows if r["qualifies"]),
        "subgroups": rows,
    }
    return payload, 0


def _cmd_lemma52(args) -> Tuple[Dict[str, object], int]:
    m = args.m
    try:
        pair = build_dihedral_pair(m)
        verify_dihedral_pair(pair)
    except ValueError as exc:
        raise UsageError(str(exc))
    except DihedralConditionError as exc:
        payload = {
            "schema": _schema("lemma52"),
            "m": m,
            "verified": False,
            "failed_condition": exc.condition,
            "detail": str(exc),
        }
        return payload, 1
    group = pair.group()
    payload = {
        "schema": _schema("lemma52"),
        "m": m,
        "verified": True,
        "group_order": group.order,
        "sigma_order": 2 ** m + 1,
        "pair": pair.to_json(),
    }
    return payload, 0


def _cmd_certify(args) -> Tuple[Dict[str, object], int]:
    if bool(args.infile) == args.demo:
        raise UsageError("pass exactly one of --in FILE and --demo")
    if args.infile:
        data = _read_json_file(args.infile)
        try:
            cert = ObstructionCertificate.from_json(data)
        except (KeyError, ValueError, TypeError, ClosureCapExceeded) as exc:
            raise UsageError(f"bad certificate: {exc}")
    else:
        try:
            cert = demo_certificate(args.m)
        except ValueError as exc:
            raise UsageError(str(exc))
    try:
        verdict = certify_counterexample(cert)
    except ValueError as exc:
        raise UsageError(f"cannot check this certificate: {exc}")
    payload = {
        "schema": _schema("certify"),
        "certified": verdict.certified,
        "checks": dict(verdict.checks),
        "notes": list(verdict.notes),
        "certificate": cert.to_json(),
    }
    return payload, 0 if verdict.certified else 1


def _conic_matrix(args) -> List[List[Fraction]]:
    sources = sum(1 for s in (args.diag, args.matrix, args.infile) if s)
    if sources != 1:
        raise UsageError("pass exactly one of --diag, --matrix, --in")
    if args.diag:
        a, b, c = (_parse_rational(t) for t in args.diag)
        return [[a, 0, 0], [0, b, 0], [0, 0, c]]
    if args.matrix:
        rows = [r for r in args.matrix.split(";") if r.strip()]
        mat = [[_parse_rational(x) for x in row.split(",")] for row in rows]
    else:
        data = _read_json_file(args.infile)
        if not isinstance(data, dict) or "matrix" not in data:
            raise UsageError('the file must hold {"matrix": [[...], ...]}')
        mat = [[_parse_rational(str(x)) for x in row] for row in data["matrix"]]
    if len(mat) != 3 or any(len(r) != 3 for r in mat):
        raise UsageError("the matrix must be 3x3")
    for i in range(3):
        for j in range(3):
            if mat[i][j] != mat[j][i]:
                raise UsageError("the matrix must be symmetric")
    return mat


def _cmd_conic(args) -> Tuple[Dict[str, object], int]:
    mat = _conic_matrix(args)
    _, diag = lg.diagonalize_symmetric(mat)
    degenerate = any(d == 0 for d in diag)
    try:
        point = lg.conic_rational_point(mat)
        obstructions = None if degenerate else lg.local_obstructions(*diag)
    except ValueError as exc:
        raise UsageError(f"conic outside the supported sizes: {exc}")
    payload: Dict[str, object] = {
        "schema": _schema("conic"),
        "matrix": [[_frac_str(x) for x in row] for row in mat],
        "degenerate": degenerate,
        "obstructions": (
            None
            if degenerate
            else [str(p) if p == "real" else p for p in obstructions]
        ),
        "has_rational_point": point is not None,
        "point": None if point is None else [_frac_str(x) for x in point],
        "sdr": None,
    }
    if point is not None and not args.no_sdr:
        try:
            payload["sdr"] = lg.conic_sdr(mat).to_json()
        except ValueError as exc:
            payload["sdr_note"] = str(exc)
    return payload, 0 if point is not None else 1


def _cmd_cubic(args) -> Tuple[Dict[str, object], int]:
    a = _parse_rational(args.a)
    b = _parse_rational(args.b)
    if lg.cubic_discriminant(a, b) == 0:
        raise UsageError("the cubic is singular (zero discriminant)")
    if args.bound < 100:
        raise UsageError("--bound below 100 samples too few primes")
    try:
        verdict = lg.cubic_local_global_verdict(a, b, args.bound)
    except ValueError as exc:
        raise UsageError(f"cubic outside the supported sizes: {exc}")
    report = verdict["report"]
    all_sampled_local = report["primes_with_root"] == report["primes_counted"]
    claim_ok = verdict["global_implies_local"] and (
        not all_sampled_local or bool(verdict["global_roots"])
    )
    payload = {"schema": _schema("cubic"), **verdict, "claim_ok": claim_ok}
    return payload, 0 if claim_ok else 1


def _cmd_hilbert(args) -> Tuple[Dict[str, object], int]:
    a = _parse_rational(args.a)
    b = _parse_rational(args.b)
    if a == 0 or b == 0:
        raise UsageError("both arguments must be nonzero")
    place = _parse_place(args.place)
    symbol = lg.hilbert_symbol(a, b, place)
    payload: Dict[str, object] = {
        "schema": _schema("hilbert"),
        "a": _frac_str(a),
        "b": _frac_str(b),
        "place": str(place) if place == "real" else place,
        "symbol": symbol,
    }
    code = 0
    if args.verify_search:
        oracle = orc.hilbert_symbol_by_search(a, b, place)
        payload["search_symbol"] = oracle
        payload["search_agrees"] = oracle == symbol
        if oracle != symbol:
            code = 1
    return payload, code


def _quartic_coeffs_from_file(path: str) -> Dict[Tuple[int, int, int], Fraction]:
    data = _read_json_file(path)
    if not isinstance(data, dict) or "coefficients" not in data:
        raise UsageError(
            'the file must hold {"coefficients": [[i, j, k, "value"], ...]}'
        )
    coeffs: Dict[Tuple[int, int, int], Fraction] = {}
    for row in data["coefficients"]:
        if len(row) != 4:
            raise UsageError("each coefficient row is [i, j, k, value]")
        i, j, k = (int(x) for x in row[:3])
        coeffs[(i, j, k)] = _parse_rational(str(row[3]))
    return coeffs


def _cmd_quartic_check(args) -> Tuple[Dict[str, object], int]:
    point = tuple(_parse_rational(t) for t in args.point.split(","))
    if len(point) != 3:
        raise UsageError("--point must be three comma-separated rationals")
    if not any(point):
        raise UsageError("the zero triple is not a projective point")
    targets: List[Tuple[str, Dict[Tuple[int, int, int], object]]] = []
    if args.infile:
        targets.append((args.infile, _quartic_coeffs_from_file(args.infile)))
    elif args.name:
        if args.name not in lg.COUNTEREXAMPLE_QUARTICS:
            raise UsageError(
                f"unknown fixture {args.name!r}; have "
                + ", ".join(sorted(lg.COUNTEREXAMPLE_QUARTICS))
            )
        targets.append((args.name, lg.COUNTEREXAMPLE_QUARTICS[args.name]))
    else:
        targets.extend(sorted(lg.COUNTEREXAMPLE_QUARTICS.items()))
    results = []
    for name, coeffs in targets:
        value = lg.quartic_value(coeffs, point)
        results.append(
            {"name": name, "value": _frac_str(value), "vanishes": value == 0}
        )
    payload = {
        "schema": _schema("quartic-check"),
        "point": [_frac_str(x) for x in point],
        "results": results,
        "all_vanish": all(r["vanishes"] for r in results),
    }
    return payload, 0 if payload["all_vanish"] else 1


def _cmd_reproduce(args) -> Tuple[Dict[str, object], int]:
    names = [name for name, _ in CRITERIA]
    if args.only:
        unknown = sorted(set(args.only) - set(names))
        if unknown:
            raise UsageError(
                "unknown criteria: " + ", ".join(unknown) + "; have " + ", ".join(names)
            )
        names = [n for n in names if n in set(args.only)]
    ctx = AcceptanceContext(seed=args.seed)
    rows = []
    stream = args.format == "text"
    for name in names:
        result = run_one(name, ctx)
        rows.append(result)
        if stream:
            mark = "PASS" if result.passed else "FAIL"
            print(f"{mark} {result.name} [{result.elapsed:7.2f}s] {result.detail}")
            sys.stdout.flush()
    passed = sum(1 for r in rows if r.passed)
    payload = {
        "schema": _schema("reproduce"),
        "seed": args.seed,
        "criteria": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in rows
        ],
        "passed": passed,
        "failed": len(rows) - passed,
        "all_passed": passed == len(rows),
    }
    return payload, 0 if passed == len(rows) else 1


def _cmd_scan_order6(args) -> Tuple[Dict[str, object], int]:
    progress = None
    if args.format == "text":
        progress = lambda msg: print(f"# {msg}", file=sys.stderr)
    summary = order6_uniqueness_scan(progress=progress)
    payload = {"schema": _schema("scan-order6"), **summary}
    return payload, 0


# ---------------------------------------------------------------------------
# plumbing


def _render_text(value, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                shown = v if not isinstance(v, (dict, list)) else "(empty)"
                lines.append(f"{pad}{k}: {shown}")
    elif isinstance(value, list):
        scalar = all(not isinstance(x, (dict, list)) for x in value)
        if scalar and len(value) <= 12:
            lines.append(f"{pad}{', '.join(str(x) for x in value)}")
        else:
            for x in value:
                if isinstance(x, (dict, list)):
                    lines.append(f"{pad}-")
                    lines.extend(_render_text(x, indent + 1))
                else:
                    lines.append(f"{pad}- {x}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="json (stable, the contract) or text (human, with timings)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for randomized sweeps; fully determines them",
    )

    parser = argparse.ArgumentParser(
        prog="sdrkit",
        description=(
            "Exact group theory over F2, local-global checks for conics and "
            "cubics, and the certificate machinery tying the two together."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    p = sub.add_parser("order", parents=[common], help="symplectic group order")
    p.add_argument("--m", type=int, required=True, help="half the dimension")
    p.add_argument(
        "--formula-only",
        action="store_true",
        help="skip materializing the group even for small m",
    )
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser(
        "census", parents=[common], help="subgroup census up to conjugacy"
    )
    p.add_argument("--m", type=int, required=True, choices=(1, 2, 3))
    p.add_argument(
        "--i-have-hours",
        action="store_true",
        help="acknowledge that m=3 only grinds a checkpointed slice",
    )
    p.add_argument(
        "--checkpoint",
        default="sp6-census-checkpoint.json",
        help="checkpoint path for the m=3 grind",
    )
    p.add_argument(
        "--max-seconds",
        type=float,
        default=60.0,
        help="time budget per m=3 invocation",
    )
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser(
        "forms-census", parents=[common], help="quadratic form counts by arf"
    )
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=_cmd_forms_census)

    p = sub.add_parser(
        "orbits", parents=[common], help="orbits of forms under a subgroup"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--gen",
        action="append",
        metavar="ROWS",
        help="generator as ;-joined bit rows (repeatable); default: full group",
    )
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="closure size cap")
    p.set_defaults(fn=_cmd_orbits)

    p = sub.add_parser(
        "o-group", parents=[common], help="stabilizer of the reference form"
    )
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=_cmd_o_group)

    p = sub.add_parser(
        "lemma51",
        parents=[common],
        help="common fixed vectors for m=1 subgroups whose elements all fix one",
    )
    p.add_argument(
        "--gen",
        action="append",
        metavar="ROWS",
        help="check one generated subgroup instead of scanning all of them",
    )
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(fn=_cmd_lemma51)

    p = sub.add_parser(
        "lemma52",
        parents=[common],
        help="build and verify the dihedral pair on the field model",
    )
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=_cmd_lemma52)

    p = sub.add_parser(
        "certify", parents=[common], help="check an obstruction certificate"
    )
    p.add_argument("--in", dest="infile", help="certificate JSON file")
    p.add_argument(
        "--demo",
        action="store_true",
        help="build the reference certificate instead of reading one",
    )
    p.add_argument("--m", type=int, default=3, help="m for --demo")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser(
        "conic", parents=[common], help="rational point and pencil for a conic"
    )
    p.add_argument("--diag", nargs=3, metavar=("A", "B", "C"), help="diagonal entries")
    p.add_argument(
        "--matrix", help="symmetric 3x3, rows ;-separated, entries ,-separated"
    )
    p.add_argument("--in", dest="infile", help='JSON file {"matrix": [[...], ...]}')
    p.add_argument("--no-sdr", action="store_true", help="skip the pencil")
    p.set_defaults(fn=_cmd_conic)

    p = sub.add_parser(
        "cubic", parents=[common], help="global roots against sampled local roots"
    )
    p.add_argument("a", help="coefficient of X")
    p.add_argument("b", help="constant term")
    p.add_argument("--bound", type=int, default=10000, help="prime sampling bound")
    p.set_defaults(fn=_cmd_cubic)

    p = sub.add_parser("hilbert", parents=[common], help="hilbert symbol at a place")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("place", help="'real' or a prime")
    p.add_argument(
        "--verify-search",
        action="store_true",
        help="cross-check against the exhaustive search oracle",
    )
    p.set_defaults(fn=_cmd_hilbert)

    p = sub.add_parser(
        "quartic-check", parents=[common], help="evaluate quartics at a point"
    )
    p.add_argument("--name", help="builtin fixture name; default: all of them")
    p.add_argument("--in", dest="infile", help="coefficient JSON file")
    p.add_argument("--point", default="0,0,1", help="comma-separated rationals")
    p.set_defaults(fn=_cmd_quartic_check)

    p = sub.add_parser(
        "reproduce", parents=[common], help="run the thirteen acceptance checks"
    )
    p.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run a named criterion only (repeatable)",
    )
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser(
        "scan-order6",
        parents=[common],
        help="classify all satisfying order-6 subgroups at m=3 (takes minutes)",
    )
    p.set_defaults(fn=_cmd_scan_order6)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        payload, code = args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if args.command == "reproduce":
            # rows already streamed; close with the summary
            print(
                f"{payload['passed']} passed, {payload['failed']} failed "
                f"out of {payload['passed'] + payload['failed']}"
            )
        else:
            for line in _render_text(payload):
                print(line)
        print(f"elapsed-seconds: {time.monotonic() - t0:.2f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
