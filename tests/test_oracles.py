import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sdrkit.localglobal import hilbert_symbol
from sdrkit.oracles import (
    SEARCH_MODULUS_LIMIT,
    SEARCH_PRIME_LIMIT,
    anisotropic_mod,
    hilbert_symbol_by_search,
    squarefree_part,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_squarefree_part():
    assert squarefree_part(1) == 1
    assert squarefree_part(12) == 3
    assert squarefree_part(-18) == -2
    assert squarefree_part(49) == 1
    assert squarefree_part(-1) == -1
    assert squarefree_part(Fraction(8, 9)) == 2
    assert squarefree_part(Fraction(-3, 4)) == -3
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_search_symbol_known_values():
    assert hilbert_symbol_by_search(-1, -1, "real") == -1
    assert hilbert_symbol_by_search(-1, -1, 2) == -1
    assert hilbert_symbol_by_search(-1, -1, 3) == 1
    assert hilbert_symbol_by_search(2, 3, 3) == -1
    assert hilbert_symbol_by_search(Fraction(1, 2), 3, 2) == hilbert_symbol(
        Fraction(1, 2), 3, 2
    )


def test_search_symbol_agrees_with_closed_form():
    rng = random.Random(89)
    places = ["real", 2, 3, 5, 13]
    for _ in range(60):
        a = rng.randint(-20, 20) or 5
        b = rng.randint(-20, 20) or -3
        for place in places:
            assert hilbert_symbol_by_search(a, b, place) == hilbert_symbol(
                a, b, place
            ), (a, b, place)


def test_search_symbol_rejects_non_place():
    with pytest.raises(ValueError):
        hilbert_symbol_by_search(3, 5, 6)


def test_anisotropic_mod():
    # x^2 + y^2 + z^2 has no primitive zero mod 8
    assert anisotropic_mod(1, 1, 1, 2, 3)
    # (3, 4, 5) is a primitive zero of x^2 + y^2 - z^2
    assert not anisotropic_mod(1, 1, -1, 2, 8)
    assert not anisotropic_mod(1, 1, -1, 5, 2)
    # x^2 + y^2 = 7 z^2 dies 7-adically
    assert anisotropic_mod(1, 1, -7, 7, 2)


def _anisotropic_by_residues(a, b, c, p, k):
    """The residue-by-residue search `anisotropic_mod` replaced, kept as
    the test oracle: every (x, y) mod p^k, primitive z looked up."""
    n = p**k
    cz_any = set()
    cz_unit = set()
    for z in range(n):
        v = c * z * z % n
        cz_any.add(v)
        if z % p:
            cz_unit.add(v)
    for x in range(n):
        ax2 = a * x * x
        x_unit = x % p != 0
        for y in range(n):
            v = (-(ax2 + b * y * y)) % n
            if x_unit or y % p:
                if v in cz_any:
                    return False
            elif v in cz_unit:
                return False
    return True


def test_anisotropic_mod_matches_residue_search():
    coeffs = [v for v in range(-9, 10) if v]
    moduli = [(2, 3), (2, 5), (3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (7, 2), (11, 1)]
    grid = [(p, k, coeffs) for p, k in moduli]
    verdicts = set()
    for p, k, cs in grid:
        for a in cs:
            for b in cs:
                for c in (-7, -3, -1, 1, 2, 5):
                    want = _anisotropic_by_residues(a, b, c, p, k)
                    assert anisotropic_mod(a, b, c, p, k) == want, (a, b, c, p, k)
                    verdicts.add(want)
    for a, b, c in [(1, 1, 1), (1, 1, -1), (1, 2, -3), (2, 3, -1), (-1, -1, -1),
                    (3, 5, -1), (1, 6, -1), (4, 1, 1), (2, 10, -5)]:
        want = _anisotropic_by_residues(a, b, c, 2, 8)
        assert anisotropic_mod(a, b, c, 2, 8) == want, (a, b, c)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_search_symbol_at_2_matches_closed_form_on_all_small_pairs():
    square_free = [v for v in range(-60, 61) if v and squarefree_part(v) == v]
    minus = 0
    for a in square_free:
        for b in square_free:
            got = hilbert_symbol_by_search(a, b, 2)
            assert got == hilbert_symbol(a, b, 2), (a, b)
            minus += got == -1
    assert (len(square_free) ** 2, minus) == (5476, 2133)


@pytest.mark.parametrize(
    "p, k, reason",
    [
        (4, 2, "not a prime"),
        (1, 3, "not a prime"),
        (0, 2, "not a prime"),
        (-3, 2, "not a prime"),
        (3, 0, "precision"),
        (2, -1, "precision"),
        (2, SEARCH_MODULUS_LIMIT.bit_length(), "p^k <="),
        (67, 2, "p^k <="),
        (2, 10**9, "p^k <="),
        (SEARCH_PRIME_LIMIT + 3, 1, "p^k <="),
    ],
)
def test_anisotropic_mod_refuses_bad_moduli(p, k, reason):
    with pytest.raises(ValueError, match=reason.replace("^", r"\^")):
        anisotropic_mod(1, 1, 1, p, k)


def test_anisotropic_mod_accepts_the_largest_moduli():
    assert 61**2 <= SEARCH_MODULUS_LIMIT
    assert not anisotropic_mod(1, 1, -1, 61, 2)
    assert anisotropic_mod(1, 1, 1, 2, SEARCH_MODULUS_LIMIT.bit_length() - 1)


def test_importing_the_oracles_builds_no_class_table():
    code = (
        "import sdrkit.oracles as o; i = o._square_classes.cache_info(); "
        "print(i.currsize, i.maxsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=30, check=True,
    ).stdout.split()
    assert out[0] == "0" and 0 < int(out[1]) <= 16
