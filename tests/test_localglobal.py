import math
import random
from fractions import Fraction

import pytest

from sdrkit.localglobal import (
    COUNTEREXAMPLE_QUARTICS,
    Poly3,
    conic_rational_point,
    conic_sdr,
    cubic_discriminant,
    cubic_local_global_verdict,
    cubic_local_root_density,
    cubic_rational_roots,
    galois_image,
    hilbert_reciprocity_check,
    hilbert_symbol,
    is_prime,
    local_obstructions,
    primes_upto,
    quartic_point_check,
    quartic_value,
)
from sdrkit.localglobal import (
    FACTOR_LIMIT,
    HOLZER_CANDIDATE_LIMIT,
    HOLZER_OUTER_LIMIT,
    MILLER_RABIN_LIMIT,
    _cubic_has_root_mod,
    _factor,
    _holzer_search,
)


PLACES = ["real", 2, 3, 5, 7, 13]


def test_primes_upto_and_is_prime():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1) == []
    assert is_prime(2)
    assert is_prime(97)
    assert not is_prime(1)
    assert not is_prime(91)  # 7 * 13


def test_is_prime_matches_the_sieve():
    sieved = set(primes_upto(10 ** 6))
    assert {n for n in range(10 ** 6) if is_prime(n)} == sieved


def test_is_prime_rejects_pseudoprimes():
    # strong pseudoprimes to the prime bases 2..7, 2..31 and 2..37 (psi_12),
    # and two Carmichael numbers
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, 561, 41041):
        assert not is_prime(n), n
    assert is_prime(1000000000000000003)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(MILLER_RABIN_LIMIT - 2)  # odd, divisible by 3


def test_is_prime_raises_past_its_range():
    # psi_13 itself is a strong pseudoprime to all 13 bases
    for n in (MILLER_RABIN_LIMIT, 10 ** 25, 2 ** 89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)


def test_factor_limit():
    assert _factor(-FACTOR_LIMIT) == {2: 14, 5: 14}
    with pytest.raises(ValueError, match="10\\^14"):
        _factor(FACTOR_LIMIT + 1)


def test_hilbert_symbol_known_values():
    assert hilbert_symbol(-1, -1, "real") == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(2, -1, 2) == 1
    for place in PLACES:
        assert hilbert_symbol(1, 17, place) == 1


def test_hilbert_symbol_square_class_invariance():
    for place in PLACES:
        assert hilbert_symbol(4 * 5, 3, place) == hilbert_symbol(5, 3, place)
        assert hilbert_symbol(Fraction(1, 2), 3, place) == hilbert_symbol(
            2, 3, place
        )


def test_hilbert_symbol_symmetry_and_bimultiplicativity():
    rng = random.Random(71)
    vals = [v for v in range(-12, 13) if v]
    for _ in range(150):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        place = rng.choice(PLACES)
        assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)
        assert hilbert_symbol(a * c, b, place) == hilbert_symbol(
            a, b, place
        ) * hilbert_symbol(c, b, place)


def test_hilbert_symbol_steinberg_relations():
    rng = random.Random(73)
    for _ in range(80):
        a = rng.randint(-40, 40)
        if a == 0:
            continue
        for place in PLACES:
            assert hilbert_symbol(a, -a, place) == 1
            if a != 1:
                assert hilbert_symbol(a, 1 - a, place) == 1


def test_hilbert_reciprocity_sweep():
    rng = random.Random(79)
    for _ in range(150):
        a = rng.randint(-500, 500) or 1
        b = rng.randint(-500, 500) or -1
        assert hilbert_reciprocity_check(a, b)


def test_local_obstructions_known_cases():
    assert local_obstructions(1, 1, -1) == []
    assert local_obstructions(1, 1, 1) == [2, "real"]
    assert local_obstructions(1, 1, -3) == [2, 3]
    assert local_obstructions(1, 1, -7) == [2, 7]
    assert local_obstructions(2, 3, -5) == []  # (1, 1, 1) lies on it
    # obstruction sets always have even size
    rng = random.Random(83)
    for _ in range(40):
        coeffs = [rng.choice([v for v in range(-15, 16) if v]) for _ in range(3)]
        assert len(local_obstructions(*coeffs)) % 2 == 0


def test_conic_point_on_solvable_conics():
    cases = [
        [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
        [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
        [[2, 0, 0], [0, 3, 0], [0, 0, -5]],
        [[1, 1, 0], [1, -2, 3], [0, 3, -1]],
    ]
    for m in cases:
        p = conic_rational_point(m)
        assert p is not None
        assert Poly3.from_symmetric(m).evaluate(p) == 0
        assert p != (0, 0, 0)


def test_conic_point_respects_obstructions():
    assert conic_rational_point([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) is None
    assert conic_rational_point([[1, 0, 0], [0, 1, 0], [0, 0, -7]]) is None
    assert conic_rational_point([[1, 0, 0], [0, 1, 0], [0, 0, -3]]) is None


def test_conic_point_degenerate_cases():
    # rank 2: x^2 - y^2 factors through the line x = y
    p = conic_rational_point([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    assert p is not None
    assert Poly3.from_symmetric([[1, 0, 0], [0, -1, 0], [0, 0, 0]]).evaluate(p) == 0
    # rank 1: a double line
    q = conic_rational_point([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert q is not None and q[0] == 0


def test_conic_point_rejects_bad_matrices():
    with pytest.raises(ValueError):
        conic_rational_point([[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        conic_rational_point([[1, 1, 0], [0, 1, 0], [0, 0, 1]])


def _holzer_reference(a, b, c):
    """The plain double loop over the Holzer box that the sieved search
    must reproduce, first point found included."""
    coeffs = [a, b, c]
    bounds = [math.isqrt(abs(b * c)), math.isqrt(abs(a * c)), math.isqrt(abs(a * b))]
    solve_idx = max(range(3), key=lambda i: bounds[i])
    e1, e2 = [i for i in range(3) if i != solve_idx]
    for u in range(bounds[e1] + 1):
        for w in range(bounds[e2] + 1):
            if u == 0 and w == 0:
                continue
            rhs = -(coeffs[e1] * u * u + coeffs[e2] * w * w)
            if rhs % coeffs[solve_idx]:
                continue
            q = rhs // coeffs[solve_idx]
            if q < 0 or math.isqrt(q) ** 2 != q:
                continue
            sol = [0, 0, 0]
            sol[e1], sol[e2], sol[solve_idx] = u, w, math.isqrt(q)
            return tuple(sol)
    return None


def _reduced(a, b, c):
    squarefree = all(e == 1 for x in (a, b, c) for e in _factor(x).values())
    coprime = math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1
    mixed = min(a, b, c) < 0 < max(a, b, c)
    return squarefree and coprime and mixed


def test_holzer_search_matches_double_loop_on_the_sweep():
    signed = [s * v for v in range(1, 21) for s in (1, -1)]
    sweep = [(a, b, c) for a in signed for b in signed for c in signed if _reduced(a, b, c)]
    assert len(sweep) > 6000
    for conic in sweep:
        assert _holzer_search(*conic) == _holzer_reference(*conic), conic


def test_holzer_search_matches_double_loop_near_a_thousand():
    # six obstructed conics (each a full search of about 10^6 candidates)
    # and four solvable ones, sorted by their local symbols
    rng = random.Random(97)
    wanted = {True: 6, False: 4}
    while any(wanted.values()):
        conic = tuple(rng.randint(950, 1050) * rng.choice((1, -1)) for _ in range(3))
        if not _reduced(*conic):
            continue
        obstructed = bool(local_obstructions(*conic))
        if wanted[obstructed]:
            wanted[obstructed] -= 1
            want = _holzer_reference(*conic)
            assert (want is None) == obstructed, conic
            assert _holzer_search(*conic) == want, conic


def test_conic_limits_raise():
    outer = [[2000003, 0, 0], [0, 2000029, 0], [0, 0, -2000039]]
    with pytest.raises(ValueError, match=f"limit is {HOLZER_OUTER_LIMIT}"):
        conic_rational_point(outer)
    wide = [[8353, 0, 0], [0, 4906103, 0], [0, 0, -4908941]]
    with pytest.raises(ValueError, match=f"limit is {HOLZER_CANDIDATE_LIMIT}"):
        conic_rational_point(wide)
    with pytest.raises(ValueError, match="10\\^14"):
        conic_rational_point([[2, 0, 0], [0, 3, 0], [0, 0, -(10 ** 15 + 37)]])


def test_conic_sdr_det_identity():
    cases = [
        [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
        [[2, 0, 0], [0, 3, 0], [0, 0, -5]],
        [[1, 1, 0], [1, -2, 3], [0, 3, -1]],
        [[0, 1, 0], [1, 0, 1], [0, 1, -4]],
    ]
    for m in cases:
        sdr = conic_sdr(m)
        assert sdr.scale != 0
        assert Poly3.from_symmetric(m).evaluate(sdr.point) == 0
        entries = [
            [
                Poly3.linear(*(sdr.matrices[j][r][c] for j in range(3)))
                for c in range(2)
            ]
            for r in range(2)
        ]
        det = entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
        assert det == Poly3.from_symmetric(m).scaled(sdr.scale)
        # symmetric pencil
        for j in range(3):
            assert sdr.matrices[j][0][1] == sdr.matrices[j][1][0]


def test_conic_sdr_refuses_pointless_or_degenerate():
    with pytest.raises(ValueError):
        conic_sdr([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        conic_sdr([[1, 0, 0], [0, -1, 0], [0, 0, 0]])


def test_poly3_arithmetic():
    x = Poly3.linear(1, 0, 0)
    y = Poly3.linear(0, 1, 0)
    s = x + y
    assert s * s == x * x + (x * y).scaled(2) + y * y
    assert (s * s).evaluate((3, 4, 0)) == 49
    assert not (s - s)
    f = Poly3.from_symmetric([[1, 2, 0], [2, 0, 0], [0, 0, 0]])
    assert f == x * x + (x * y).scaled(4)


def test_cubic_discriminants():
    assert cubic_discriminant(0, -2) == -108
    assert cubic_discriminant(-3, 1) == 81
    assert cubic_discriminant(-3, 2) == 0


def test_cubic_rational_roots():
    assert cubic_rational_roots(-7, 6) == [-3, 1, 2]
    assert cubic_rational_roots(0, -2) == []
    assert cubic_rational_roots(1, 0) == [0]
    assert cubic_rational_roots(-4, 0) == [-2, 0, 2]
    assert cubic_rational_roots(Fraction(-1, 4), 0) == [
        Fraction(-1, 2),
        0,
        Fraction(1, 2),
    ]


def test_galois_image_labels():
    assert galois_image(-7, 6) == "trivial"
    assert galois_image(1, 0) == "C2"
    assert galois_image(-3, 1) == "C3"
    assert galois_image(0, -2) == "S3"
    with pytest.raises(ValueError):
        galois_image(-3, 2)  # repeated root


def test_cubic_root_mod_matches_enumeration():
    cubics = [(0, -2), (-3, 1), (-7, 6), (1, 1), (0, 3)]
    for a, b in cubics:
        disc = cubic_discriminant(a, b)
        for p in primes_upto(100):
            if p in (2, 3) or disc.numerator % p == 0:
                continue
            brute = any((x * x * x + a * x + b) % p == 0 for x in range(p))
            assert _cubic_has_root_mod(p, a % p, b % p) == brute, (a, b, p)


def test_density_report_split_cubic_is_exact():
    report = cubic_local_root_density(-7, 6, 3000)
    assert report.density == 1.0
    assert report.primes_counted == len(primes_upto(3000)) - len(report.skipped)
    assert set(report.skipped) == {2, 3, 5}  # disc(-7, 6) = 400


def test_density_report_irreducible_cubics():
    s3 = cubic_local_root_density(0, -2, 4000)
    assert abs(s3.density - 2 / 3) < 0.06
    c3 = cubic_local_root_density(-3, 1, 4000)
    assert abs(c3.density - 1 / 3) < 0.06


def test_verdict_packaging_and_implication():
    verdict = cubic_local_global_verdict(-7, 6, 500)
    assert verdict["splitting"] == "trivial"
    assert verdict["global_roots"] == ["-3", "1", "2"]
    assert verdict["expected_density"] == "1/1"
    assert verdict["global_implies_local"] is True
    assert verdict["report"]["primes_with_root"] == verdict["report"]["primes_counted"]

    verdict = cubic_local_global_verdict(0, -2, 500)
    assert verdict["splitting"] == "S3"
    assert verdict["global_roots"] == []
    assert verdict["global_implies_local"] is True  # vacuous without a root
    assert 0 < verdict["report"]["primes_with_root"] < verdict["report"]["primes_counted"]


def test_quartic_fixtures_vanish_at_marked_point():
    for name, coeffs in COUNTEREXAMPLE_QUARTICS.items():
        assert quartic_point_check(coeffs, (0, 0, 1)), name
        assert not quartic_point_check(coeffs, (1, 1, 1)), name


def test_quartic_value_homogeneity():
    coeffs = COUNTEREXAMPLE_QUARTICS["quartic-b"]
    base = quartic_value(coeffs, (2, -1, 3))
    assert quartic_value(coeffs, (4, -2, 6)) == 16 * base
    assert quartic_value(coeffs, (Fraction(2, 5), Fraction(-1, 5), Fraction(3, 5))) == base / 625


def test_quartic_checks_reject_bad_input():
    with pytest.raises(ValueError):
        quartic_point_check(COUNTEREXAMPLE_QUARTICS["quartic-a"], (0, 0, 0))
    with pytest.raises(ValueError):
        quartic_value({(1, 1, 1): 1}, (1, 1, 1))
