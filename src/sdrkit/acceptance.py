"""The thirteen go/no-go checks for this package, runnable as a batch.

Each criterion owns a deterministic verdict: the seed in the context fully
determines every randomized sweep, and timings gate two of the checks but
never appear in the details, so identical configurations produce identical
reports. The test suite runs them one per test; the `reproduce` CLI
subcommand runs the same functions and prints one line each.
"""
from __future__ import annotations

import dataclasses
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import localglobal as lg
from . import oracles as orc
from .constructions import (
    DihedralConditionError,
    LocalImage,
    ObstructionCertificate,
    build_dihedral_pair,
    build_obstruction_subgroup,
    certify_counterexample,
    demo_certificate,
    verify_dihedral_pair,
)
from .f2core import F2Matrix
from .matgroups import (
    SubgroupHandle,
    lemma51_scan,
    obstruction_conditions,
    orthogonal_group,
    subgroup_census,
    symplectic_group,
    symplectic_order_formula,
    transvection,
)
from .quadforms import (
    all_forms,
    arf_by_basis,
    arf_by_count,
    orbits,
    standard_base_form,
)

__all__ = ["CriterionResult", "AcceptanceContext", "CRITERIA", "run_all", "run_one"]

DEFAULT_SEED = 20260819
SP6_CLOSURE_BUDGET_S = 60.0
CENSUS_M2_BUDGET_S = 600.0
DIHEDRAL_BUDGET_S = 10.0
DENSITY_BOUND = 10 ** 6
DENSITY_TOLERANCE = 0.03


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


class AcceptanceContext:
    """Caches the expensive shared objects across criteria (and tests)."""

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = seed
        self._cache: Dict[str, object] = {}
        self.sp3_build_seconds: Optional[float] = None
        self.census2_build_seconds: Optional[float] = None

    def sp3(self) -> SubgroupHandle:
        if "sp3" not in self._cache:
            t0 = time.monotonic()
            self._cache["sp3"] = symplectic_group(3)
            self.sp3_build_seconds = time.monotonic() - t0
        return self._cache["sp3"]

    def o3(self) -> SubgroupHandle:
        if "o3" not in self._cache:
            self._cache["o3"] = orthogonal_group(standard_base_form(3), self.sp3())
        return self._cache["o3"]

    def census(self, m: int):
        key = f"census{m}"
        if key not in self._cache:
            t0 = time.monotonic()
            self._cache[key] = subgroup_census(m)
            if m == 2:
                self.census2_build_seconds = time.monotonic() - t0
        return self._cache[key]


def _c01_symplectic_orders(ctx: AcceptanceContext) -> Tuple[bool, str]:
    want = {1: 6, 2: 720, 3: 1451520}
    orders = {m: symplectic_group(m).order for m in (1, 2)}
    orders[3] = ctx.sp3().order
    ok = all(orders[m] == want[m] == symplectic_order_formula(m) for m in want)
    within = (
        ctx.sp3_build_seconds is not None
        and ctx.sp3_build_seconds < SP6_CLOSURE_BUDGET_S
    )
    return ok and within, (
        f"orders {orders[1]}/{orders[2]}/{orders[3]}, "
        f"m=3 closure within the {int(SP6_CLOSURE_BUDGET_S)}s budget: {within}"
    )


def _c02_form_census_and_orbits(ctx: AcceptanceContext) -> Tuple[bool, str]:
    want = {1: (4, 3, 1), 2: (16, 10, 6), 3: (64, 36, 28)}
    got = {}
    for m in want:
        forms = all_forms(standard_base_form(m))
        arf0 = sum(1 for f in forms if f.arf == 0)
        got[m] = (len(forms), arf0, len(forms) - arf0)
    parts = orbits(ctx.sp3(), all_forms(standard_base_form(3)))
    sizes = sorted(len(p) for p in parts)
    arf_pure = all(len({f.arf for f in p}) == 1 for p in parts)
    ok = got == want and sizes == [28, 36] and arf_pure
    return ok, (
        "forms/arf0/arf1: "
        + ", ".join(f"m={m}: {got[m][0]}/{got[m][1]}/{got[m][2]}" for m in sorted(got))
        + f"; full-group orbits at m=3 have sizes {sizes}, arf constant on each: {arf_pure}"
    )


def _random_symplectic(space, rng: random.Random, word: int = 10) -> F2Matrix:
    g = F2Matrix.identity(space.dim)
    for _ in range(word):
        v = rng.randrange(1, 1 << space.dim)
        g = g * transvection(v, space)
    return g


def _c03_arf_coherence(ctx: AcceptanceContext) -> Tuple[bool, str]:
    rng = random.Random(ctx.seed + 2)
    bases_per_m = {1: 25, 2: 35, 3: 45}
    checked_forms = 0
    checked_bases = 0
    for m, count in bases_per_m.items():
        base = standard_base_form(m)
        space = base.space
        forms = all_forms(base)
        for form in forms:
            if form.arf != arf_by_count(form):
                return False, f"count method disagrees at m={m}, v={form.v}"
        checked_forms += len(forms)
        for _ in range(count):
            basis = _random_symplectic(space, rng)
            checked_bases += 1
            for form in forms:
                if arf_by_basis(form, basis) != form.arf:
                    return False, f"basis method disagrees at m={m}, v={form.v}"
    return True, (
        f"three arf computations agree on all {checked_forms} forms "
        f"across {checked_bases} random symplectic bases"
    )


def _c04_dihedral_pairs(ctx: AcceptanceContext) -> Tuple[bool, str]:
    t0 = time.monotonic()
    for m in (1, 2, 3, 4, 5):
        try:
            pair = build_dihedral_pair(m)
            verify_dihedral_pair(pair)
        except DihedralConditionError as exc:
            return False, f"m={m}: {exc}"
        if pair.group().order != 2 * ((1 << m) + 1):
            return False, f"m={m}: group order {pair.group().order}"
    within = time.monotonic() - t0 < DIHEDRAL_BUDGET_S
    return within, (
        "pairs for m=1..5 pass all five conditions with group orders "
        f"6/10/18/34/66, within the {int(DIHEDRAL_BUDGET_S)}s budget: {within}"
    )


def _c05_obstruction_subgroup(ctx: AcceptanceContext) -> Tuple[bool, str]:
    orders = {}
    for m in (3, 4):
        built = build_obstruction_subgroup(m)
        if not built.report.satisfied:
            return False, f"m={m}: conditions not satisfied"
        orders[m] = built.group.order
        if m == 3:
            if (built.sigma * built.tau_eta).rows == (built.tau_eta * built.sigma).rows:
                return False, "m=3 group is abelian"
    ok = orders == {3: 6, 4: 10}
    return ok, (
        f"orders {orders[3]} (m=3, nonabelian) and {orders[4]} (m=4), "
        "both fixing no arf-0 form while every element fixes one"
    )


def _c06_impossibility_m1(ctx: AcceptanceContext) -> Tuple[bool, str]:
    census = ctx.census(1)
    ok = (
        census.total_subgroups == 6
        and len(census.classes) == 4
        and len(census.satisfying) == 0
    )
    qualifying = 0
    for handle, v in lemma51_scan():
        if v is None:
            continue
        if v == 0 or any(g.apply(v) != v for g in handle.matrices()):
            return False, "claimed common fixed vector is not fixed"
        qualifying += 1
    ok = ok and qualifying == 4  # the trivial group and the three involutions
    return ok, (
        f"all {census.total_subgroups} subgroups scanned, none satisfying; "
        f"common fixed vector exhibited for each of the {qualifying} qualifying subgroups"
    )


def _c07_census_m2(ctx: AcceptanceContext) -> Tuple[bool, str]:
    census = ctx.census(2)
    within = (
        ctx.census2_build_seconds is not None
        and ctx.census2_build_seconds < CENSUS_M2_BUDGET_S
    )
    ok = (
        len(census.classes) == 56
        and len(census.satisfying) == 12
        and census.total_subgroups == 1455
        and within
    )
    return ok, (
        f"{census.total_subgroups} subgroups in {len(census.classes)} classes, "
        f"{len(census.satisfying)} satisfying; within the "
        f"{int(CENSUS_M2_BUDGET_S)}s budget: {within}"
    )


def _c08_orthogonal_index(ctx: AcceptanceContext) -> Tuple[bool, str]:
    o1 = orthogonal_group(standard_base_form(1))
    o2 = orthogonal_group(standard_base_form(2))
    o3 = ctx.o3()
    index = ctx.sp3().order // o3.order
    ok = o1.order == 6 and o2.order == 120 and o3.order == 51840 and index == 28
    return ok, f"stabilizer orders 6/120/51840, index in the m=3 group = {index}"


def _c09_hilbert_symbols(ctx: AcceptanceContext) -> Tuple[bool, str]:
    rng = random.Random(ctx.seed)
    for _ in range(1000):
        a = rng.randint(-800, 800) or 1
        b = rng.randint(-800, 800) or 1
        if not lg.hilbert_reciprocity_check(a, b):
            return False, f"reciprocity failed at ({a}, {b})"
    agreements = 0
    for a in range(-30, 31):
        if not a:
            continue
        for b in range(-30, 31):
            if not b:
                continue
            places = ["real", 2] + [
                p for p in sorted(lg._factor(abs(a * b))) if p != 2
            ]
            for p in places:
                if lg.hilbert_symbol(a, b, p) != orc.hilbert_symbol_by_search(a, b, p):
                    return False, f"symbol mismatch at ({a}, {b}, {p})"
                agreements += 1
    return True, (
        "1000 seeded reciprocity products all +1; closed-form symbols match "
        f"the search oracle in {agreements} checks over |a|,|b| <= 30"
    )


def _c10_conic_hasse_sweep(ctx: AcceptanceContext) -> Tuple[bool, str]:
    square_free = [v for v in range(1, 21) if orc.squarefree_part(v) == v]
    signed = [s * v for v in square_free for s in (1, -1)]
    conics = obstructed = pencils = 0
    for a in signed:
        for b in signed:
            if math.gcd(abs(a), abs(b)) != 1:
                continue
            for c in signed:
                if math.gcd(abs(a), abs(c)) != 1 or math.gcd(abs(b), abs(c)) != 1:
                    continue
                conics += 1
                mat = [[a, 0, 0], [0, b, 0], [0, 0, c]]
                # raises internally if the symbols and the bounded search disagree
                pt = lg.conic_rational_point(mat)
                if pt is None:
                    if not lg.local_obstructions(a, b, c):
                        return False, f"no point yet no obstruction for ({a},{b},{c})"
                    obstructed += 1
                else:
                    sdr = lg.conic_sdr(mat)  # exact det = scale * F check inside
                    if sdr.scale == 0:
                        return False, f"degenerate pencil for ({a},{b},{c})"
                    pencils += 1
    return True, (
        f"{conics} pairwise-coprime squarefree conics swept: verdicts consistent, "
        f"{obstructed} obstructed, all {pencils} emitted pencils verified exactly"
    )


def _c11_cubic_densities(ctx: AcceptanceContext) -> Tuple[bool, str]:
    r_s3 = lg.cubic_local_root_density(0, -2, DENSITY_BOUND)
    r_c3 = lg.cubic_local_root_density(-3, 1, DENSITY_BOUND)
    gap_s3 = abs(r_s3.density - 2 / 3)
    gap_c3 = abs(r_c3.density - 1 / 3)
    if gap_s3 >= DENSITY_TOLERANCE or gap_c3 >= DENSITY_TOLERANCE:
        return False, f"density gaps {gap_s3:.4f} / {gap_c3:.4f} exceed {DENSITY_TOLERANCE}"

    rng = random.Random(ctx.seed + 1)
    swept = 0
    while swept < 200:
        a = Fraction(rng.randint(-9, 9))
        b = Fraction(rng.randint(-9, 9))
        if lg.cubic_discriminant(a, b) == 0:
            continue
        verdict = lg.cubic_local_global_verdict(a, b, 2000)
        report = verdict["report"]
        if report["primes_with_root"] == report["primes_counted"] and not verdict["global_roots"]:
            return False, f"roots at every sampled prime but none globally: ({a}, {b})"
        if not verdict["global_implies_local"]:
            return False, f"a global root missed a good prime for ({a}, {b})"
        swept += 1
    return True, (
        f"densities {r_s3.density:.5f} (target 2/3) and {r_c3.density:.5f} "
        f"(target 1/3) at bound {DENSITY_BOUND}; implication holds on all "
        "200 seeded smooth cubics"
    )


def _c12_certifier(ctx: AcceptanceContext) -> Tuple[bool, str]:
    cert = demo_certificate(3)
    good = certify_counterexample(cert)
    if not good.certified:
        return False, f"demo certificate rejected: {good.checks}"
    if len(cert.local_images) != 5:
        return False, f"expected the 5 cyclic subgroups as local images, got {len(cert.local_images)}"
    if not certify_counterexample(ObstructionCertificate.from_json(cert.to_json())).certified:
        return False, "round-tripped certificate rejected"

    sp6 = ctx.sp3()
    report = obstruction_conditions(sp6)
    if not (report.no_invariant_arf0 and not report.every_element_fixes_arf0):
        return False, "full-group obstruction conditions off"
    as_image = dataclasses.replace(
        cert, group=sp6, local_images=(LocalImage("full-group", sp6),)
    )
    v_full = certify_counterexample(as_image)
    if v_full.certified or v_full.checks["local_images_fix_arf0"]:
        return False, "full group as local image was not rejected"
    if not (v_full.checks["no_invariant_arf0"] and v_full.checks["local_images_inside_group"]):
        return False, "full-group rejection happened for the wrong reason"

    wrong_degree = dataclasses.replace(cert, degree_n=5, theta_noneffective=True)
    no_points = dataclasses.replace(cert, has_local_points_everywhere=False)
    v1, v3 = certify_counterexample(wrong_degree), certify_counterexample(no_points)
    ok = (
        not v1.certified
        and not v1.checks["dimension_matches"]
        and not v3.certified
        and not v3.checks["local_points"]
    )
    return ok, (
        "cyclic-image certificate accepted; full group as a local image fails "
        "exactly the fixes-an-arf-0-form check; degree and local-point "
        "tamperings rejected"
    )


def _c13_quartic_points(ctx: AcceptanceContext) -> Tuple[bool, str]:
    origin = (0, 0, 1)
    elsewhere = (1, 1, 1)
    values = {}
    for name, coeffs in lg.COUNTEREXAMPLE_QUARTICS.items():
        at_origin = lg.quartic_value(coeffs, origin)
        if at_origin != 0 or not lg.quartic_point_check(coeffs, origin):
            return False, f"{name} does not vanish at (0:0:1): {at_origin}"
        values[name] = lg.quartic_value(coeffs, elsewhere)
    if any(v == 0 for v in values.values()):
        return False, "a fixture vanishes at the (1:1:1) sanity point too"
    return True, (
        "both fixture quartics vanish at (0:0:1) exactly and are nonzero at (1:1:1)"
    )


CRITERIA: List[Tuple[str, Callable[[AcceptanceContext], Tuple[bool, str]]]] = [
    ("symplectic-orders", _c01_symplectic_orders),
    ("form-census-and-orbits", _c02_form_census_and_orbits),
    ("arf-coherence", _c03_arf_coherence),
    ("dihedral-pairs", _c04_dihedral_pairs),
    ("obstruction-subgroup", _c05_obstruction_subgroup),
    ("impossibility-m1", _c06_impossibility_m1),
    ("census-m2", _c07_census_m2),
    ("orthogonal-index", _c08_orthogonal_index),
    ("hilbert-symbols", _c09_hilbert_symbols),
    ("conic-hasse-sweep", _c10_conic_hasse_sweep),
    ("cubic-densities", _c11_cubic_densities),
    ("certifier", _c12_certifier),
    ("quartic-points", _c13_quartic_points),
]


def run_one(name: str, ctx: Optional[AcceptanceContext] = None) -> CriterionResult:
    ctx = ctx or AcceptanceContext()
    fn = dict(CRITERIA).get(name)
    if fn is None:
        raise ValueError(f"unknown criterion {name!r}")
    t0 = time.monotonic()
    try:
        passed, detail = fn(ctx)
    except Exception as exc:  # a crash is a failure with the reason attached
        passed, detail = False, f"crashed: {type(exc).__name__}: {exc}"
    return CriterionResult(name, passed, detail, time.monotonic() - t0)


def run_all(
    ctx: Optional[AcceptanceContext] = None,
    progress: Optional[Callable[[CriterionResult], None]] = None,
) -> List[CriterionResult]:
    ctx = ctx or AcceptanceContext()
    out = []
    for name, _ in CRITERIA:
        result = run_one(name, ctx)
        if progress is not None:
            progress(result)
        out.append(result)
    return out
