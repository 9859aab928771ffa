"""Command-line front end.

Every subcommand prints a single JSON document by default (stable keys,
versioned under a top-level "schema" field, no timings) so runs with the
same configuration are byte-identical; `--format text` trades that for a
human layout with elapsed times. Exit codes: 0 when the run's claim holds,
1 when a checked claim fails (no rational point, certificate rejected,
criterion failed), 2 for usage problems, 141 when stdout is closed before
the output is written (`| head`).
"""
from __future__ import annotations

import argparse
import json
import os
import re
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
from .f2core import MAX_DIM, F2Matrix, standard_symplectic
from .matgroups import (
    ClosureCapExceeded,
    close,
    gl22_common_fixed_vector,
    has_nonzero_fixed_vector,
    lemma51_scan,
    order6_uniqueness_scan,
    orthogonal_group,
    subgroup_census,
    symplectic_group,
    symplectic_order_formula,
)
from .quadforms import MAX_FORM_DIM, all_forms, arf0_mask, orbits, standard_base_form

SCHEMA_PREFIX = "sdrkit"


class UsageError(Exception):
    pass


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


def _close_or_usage(gens, space):
    try:
        return close(gens, space)
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
# subcommand handlers: args -> (payload, exit_code); `_run` puts the
# subcommand's "schema" first in every payload


def _cmd_order(args) -> Tuple[Dict[str, object], int]:
    m = args.m
    if not 1 <= m <= MAX_DIM // 2:
        raise UsageError(f"--m must be between 1 and {MAX_DIM // 2}")
    formula = symplectic_order_formula(m)
    materialize = m <= 3 and not args.formula_only
    payload: Dict[str, object] = {
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
    census = subgroup_census(args.m)
    return census.to_json(), 0


def _cmd_forms_census(args) -> Tuple[Dict[str, object], int]:
    top = MAX_FORM_DIM // 2
    if not 1 <= args.m <= top:
        raise UsageError(f"--m must be between 1 and {top} (value tables of 2^(2m) bits)")
    base = standard_base_form(args.m)
    total = 1 << base.space.dim
    arf0 = arf0_mask(base).bit_count()
    payload = {
        "m": args.m,
        "total": total,
        "arf0": arf0,
        "arf1": total - arf0,
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
        group = _close_or_usage(gens, base.space)
        label = "generated"
    else:
        group = symplectic_group(m)
        label = "full"
    parts = orbits(group, all_forms(base))
    parts.sort(key=lambda p: (len(p), min(f.v for f in p)))
    payload = {
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
    group = orthogonal_group(standard_base_form(m))
    ambient_order = symplectic_order_formula(m)
    payload = {
        "m": m,
        "order": group.order,
        "ambient_order": ambient_order,
        "index": ambient_order // group.order,
        "generators": [F2Matrix.from_packed(p, group.dim).to_text() for p in group.core],
    }
    return payload, 0


def _cmd_lemma51(args) -> Tuple[Dict[str, object], int]:
    if args.gen:
        gens = _parse_generators(args.gen, 1)
        group = _close_or_usage(gens, standard_symplectic(1))
        blocker = None
        for mat in group.matrices():
            if has_nonzero_fixed_vector(mat) is None:
                blocker = mat.to_text()
                break
        if blocker is not None:
            payload = {
                "qualifies": False,
                "element_without_fixed_vector": blocker,
            }
            return payload, 1
        witness = gl22_common_fixed_vector(group)
        payload = {
            "qualifies": True,
            "order": group.order,
            "common_fixed_vector": witness,
        }
        return payload, 0

    rows = []
    for handle, v in lemma51_scan():
        row: Dict[str, object] = {
            "order": handle.order,
            "generators": [F2Matrix.from_packed(p, 2).to_text() for p in handle.core],
            "qualifies": v is not None,
        }
        if v is not None:
            if any(g.apply(v) != v for g in handle.matrices()):
                raise AssertionError("an element of the subgroup moves its common fixed vector")
            row["common_fixed_vector"] = v
        rows.append(row)
    payload = {
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
            "m": m,
            "verified": False,
            "failed_condition": exc.condition,
            "detail": str(exc),
        }
        return payload, 1
    group = pair.group()
    payload = {
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
    return {**verdict.to_json(), "certificate": cert.to_json()}, 0 if verdict.certified else 1


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
        rows = data.get("matrix") if isinstance(data, dict) else None
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise UsageError('the file must hold {"matrix": [[...], ...]}')
        mat = [[_parse_rational(str(x)) for x in row] for row in rows]
    if len(mat) != 3 or any(len(r) != 3 for r in mat):
        raise UsageError("the matrix must be 3x3")
    for i in range(3):
        for j in range(3):
            if mat[i][j] != mat[j][i]:
                raise UsageError("the matrix must be symmetric")
    return mat


def _cmd_conic(args) -> Tuple[Dict[str, object], int]:
    mat = _conic_matrix(args)
    try:
        point, obstructions = lg._conic_point_and_places(mat)
    except ValueError as exc:
        raise UsageError(f"conic outside the supported sizes: {exc}")
    degenerate = obstructions is None
    payload: Dict[str, object] = {
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
            payload["sdr"] = lg.conic_sdr(mat, point).to_json()
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
    payload = {**verdict, "claim_ok": claim_ok}
    return payload, 0 if claim_ok else 1


def _cmd_hilbert(args) -> Tuple[Dict[str, object], int]:
    a = _parse_rational(args.a)
    b = _parse_rational(args.b)
    if a == 0 or b == 0:
        raise UsageError("both arguments must be nonzero")
    place = _parse_place(args.place)
    symbol = lg.hilbert_symbol(a, b, place)
    payload: Dict[str, object] = {
        "a": _frac_str(a),
        "b": _frac_str(b),
        "place": str(place) if place == "real" else place,
        "symbol": symbol,
    }
    code = 0
    if args.verify_search:
        try:
            oracle = orc.hilbert_symbol_by_search(a, b, place)
        except ValueError as exc:
            raise UsageError(f"--verify-search: {exc}")
        payload["search_symbol"] = oracle
        payload["search_agrees"] = oracle == symbol
        if oracle != symbol:
            code = 1
    return payload, code


def _quartic_coeffs_from_file(path: str) -> Dict[Tuple[int, int, int], Fraction]:
    data = _read_json_file(path)
    rows = data.get("coefficients") if isinstance(data, dict) else None
    if not isinstance(rows, list):
        raise UsageError(
            'the file must hold {"coefficients": [[i, j, k, "value"], ...]}'
        )
    coeffs: Dict[Tuple[int, int, int], Fraction] = {}
    for row in rows:
        # exponents are JSON integers, not floats or booleans, of a quartic monomial
        if not (
            isinstance(row, list)
            and len(row) == 4
            and all(type(x) is int and x >= 0 for x in row[:3])
            and sum(row[:3]) == 4
        ):
            raise UsageError(
                f"each coefficient row is [i, j, k, value] with integers i, j, k >= 0 "
                f"and i + j + k = 4, got {row!r}"
            )
        monomial = tuple(row[:3])
        if monomial in coeffs:
            raise UsageError(
                f"the monomial {list(monomial)} has two coefficient rows; give each monomial one row"
            )
        coeffs[monomial] = _parse_rational(str(row[3]))
    if not any(coeffs.values()):
        raise UsageError("every coefficient is 0: the zero polynomial is not a quartic")
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
    return order6_uniqueness_scan(), 0


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


# argparse on Python 3.10/3.11 reads an argument as a negative number only
# when it is -<digits> or -<digits>.<digits>, so "-3/5" would be taken for an
# option. The subcommands with rational positionals take any argument that
# starts with "-" and a digit as a value; none of their options looks so.
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="json (stable, the contract) or text (human, with timings)",
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
    p.add_argument(
        "--m",
        type=int,
        required=True,
        choices=(1, 2),
        help="half the dimension; scan-order6 covers the order-6 slice at m=3",
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
    p._negative_number_matcher = _NEGATIVE_VALUE
    p.add_argument("a", help="coefficient of X")
    p.add_argument("b", help="constant term")
    p.add_argument("--bound", type=int, default=10000, help="prime sampling bound")
    p.set_defaults(fn=_cmd_cubic)

    p = sub.add_parser("hilbert", parents=[common], help="hilbert symbol at a place")
    p._negative_number_matcher = _NEGATIVE_VALUE
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
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for the randomized criteria; fully determines them",
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
        help="classify all satisfying order-6 subgroups at m=3, seeded from O+(6, 2)",
    )
    p.set_defaults(fn=_cmd_scan_order6)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code = _run(build_parser().parse_args(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush at
        # interpreter exit does not fail again, and exit as a shell reports a
        # writer stopped by SIGPIPE (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _run(args) -> int:
    t0 = time.monotonic()
    try:
        payload, code = args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {"schema": f"{SCHEMA_PREFIX}/{args.command}/v1", **payload}
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
