"""The thirteen package-level acceptance checks, one test per criterion.

Each test prints its PASS/FAIL line (visible with -rA or on failure) and
asserts the criterion's verdict, so `pytest -v tests/test_acceptance.py`
reads as the acceptance table.
"""
import functools
import random
import time

from sdrkit import acceptance
from sdrkit.acceptance import AcceptanceContext, run_one
from sdrkit.f2core import standard_symplectic
from sdrkit.matgroups import symplectic_group


def _check(name, actx):
    result = run_one(name, actx)
    mark = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {mark} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_symplectic_orders(actx):
    _check("symplectic-orders", actx)


def test_form_census_and_orbits(actx):
    _check("form-census-and-orbits", actx)


def test_arf_coherence(actx):
    _check("arf-coherence", actx)


def test_dihedral_pairs(actx):
    _check("dihedral-pairs", actx)


def test_obstruction_subgroup(actx):
    _check("obstruction-subgroup", actx)


def test_impossibility_m1(actx):
    _check("impossibility-m1", actx)


def test_census_m2(actx):
    _check("census-m2", actx)


def test_orthogonal_index(actx):
    _check("orthogonal-index", actx)


def test_hilbert_symbols(actx):
    _check("hilbert-symbols", actx)


def test_conic_hasse_sweep(actx):
    _check("conic-hasse-sweep", actx)


def test_cubic_densities(actx):
    _check("cubic-densities", actx)


def test_certifier(actx):
    _check("certifier", actx)


def test_quartic_points(actx):
    _check("quartic-points", actx)


def test_sp3_budget_times_a_closure_not_a_cache_hit(monkeypatch):
    built = []

    @functools.lru_cache(maxsize=None)
    def slow_symplectic_group(m):
        time.sleep(0.05)
        built.append(m)
        return f"Sp{2 * m}"

    slow_symplectic_group(3)  # warm: a lookup now would take microseconds
    monkeypatch.setattr(acceptance, "symplectic_group", slow_symplectic_group)
    ctx = AcceptanceContext()
    assert ctx.time_sp3_build() >= 0.04
    assert built == [3, 3]
    # the timed build is the context's group, and it is timed only once
    assert ctx.sp3() == "Sp6"
    assert ctx.time_sp3_build() == ctx.sp3_build_seconds
    assert built == [3, 3]


def test_arf_coherence_bases_reach_all_of_sp2():
    # arf-coherence draws 25 bases at m = 1 from this generator
    space = standard_symplectic(1)
    for seed in (0, 1, 2020):
        rng = random.Random(seed + 2)
        drawn = {acceptance._random_symplectic(space, rng).packed for _ in range(25)}
        assert drawn == set(symplectic_group(1).elements), seed
