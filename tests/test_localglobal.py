import collections
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from sdrkit.localglobal import (
    COUNTEREXAMPLE_QUARTICS,
    conic_rational_point,
    conic_sdr,
    cubic_discriminant,
    cubic_local_global_verdict,
    cubic_local_root_density,
    cubic_rational_roots,
    diagonalize_symmetric,
    galois_image,
    hilbert_reciprocity_check,
    hilbert_symbol,
    is_prime,
    legendre,
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
    _conic_point_and_places,
    _cubic_square_disc_has_root,
    _factor,
    _adjugate,
    _holzer_search,
    _legendre_reduce,
    _second_conic_point,
    _sqrt_mod_prime,
)
from sdrkit.oracles import squarefree_part


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


# psi_k for k = 1..12: the least composite that is a strong probable prime to
# each of the first k prime bases (Jaeschke, Math. Comp. 61 (1993); Sorenson
# and Webster, Math. Comp. 86 (2017)); psi_13 is MILLER_RABIN_LIMIT
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, base):
    """The Miller-Rabin round of one base on odd n > base."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(base, d >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_prime_13_bases(n):
    """Primality below MILLER_RABIN_LIMIT from all 13 prime bases."""
    if n < 2:
        return False
    for p in PRIME_BASES:
        if n % p == 0:
            return n == p
    return all(_strong_probable_prime(n, a) for a in PRIME_BASES)


def test_is_prime_rejects_every_psi():
    for k, psi in enumerate(PSI, 1):
        assert all(_strong_probable_prime(psi, a) for a in PRIME_BASES[:k]), k
        assert not _is_prime_13_bases(psi), k
        assert not is_prime(psi), k
    assert all(_strong_probable_prime(MILLER_RABIN_LIMIT, a) for a in PRIME_BASES)


def test_is_prime_agrees_with_thirteen_bases():
    rng = random.Random(2828)
    sample = [rng.randrange(10 ** (d - 1), 10 ** d) for d in range(1, 25) for _ in range(800)]
    # odd numbers next to each psi, and primes and semiprimes of every size
    sample += [psi + i for psi in PSI for i in range(-40, 41, 2)]
    primes = []
    for d in range(2, 25):
        for _ in range(12):
            n = rng.randrange(10 ** (d - 1), 10 ** d) | 1
            while not _is_prime_13_bases(n):
                n += 2
            primes.append(n)
    sample += primes + [p * q for p, q in zip(primes, primes[::-1]) if p * q < MILLER_RABIN_LIMIT]
    assert sum(map(_is_prime_13_bases, sample)) > 600
    for n in sample:
        assert is_prime(n) == _is_prime_13_bases(n), n


def test_factor_limit():
    assert _factor(-FACTOR_LIMIT) == {2: 14, 5: 14}
    with pytest.raises(ValueError, match="10\\^14"):
        _factor(FACTOR_LIMIT + 1)


def test_factor_refuses_zero():
    # every prime divides 0, so trial division would never finish
    with pytest.raises(ValueError, match="cannot factor 0"):
        _factor(0)
    assert _factor(1) == _factor(-1) == {}


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


@pytest.mark.parametrize(
    "call, args, message",
    [
        (is_prime, (3.0,), "is_prime takes an int, got 3.0"),
        (is_prime, (True,), "is_prime takes an int, got True"),
        (is_prime, (Fraction(7),), "is_prime takes an int, got Fraction(7, 1)"),
        (hilbert_symbol, (2, 3, 3.0), "place must be a prime or 'real', got 3.0"),
        (hilbert_symbol, (2, 3, True), "place must be a prime or 'real', got True"),
        (hilbert_symbol, (2, 3, None), "place must be a prime or 'real', got None"),
        (hilbert_symbol, (True, 3, 3), "argument True is not an int or a Fraction"),
        (hilbert_symbol, (2, 0.5, "real"), "argument 0.5 is not an int or a Fraction"),
        (hilbert_symbol, (2, "3", 5), "argument '3' is not an int or a Fraction"),
        (local_obstructions, (1.5, 2, -3), "argument 1.5 is not an int or a Fraction"),
        (local_obstructions, (1, False, -3), "argument False is not an int or a Fraction"),
        (hilbert_reciprocity_check, (2, 0.5), "argument 0.5 is not an int or a Fraction"),
    ],
)
def test_symbol_layer_refuses_floats_bools_and_strings(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == message


def test_legendre_matches_the_squares_mod_p():
    for p in primes_upto(200)[1:]:
        squares = {x * x % p for x in range(1, p)}
        for u in range(-2 * p, 2 * p):
            if u % p:
                assert legendre(u, p) == (1 if u % p in squares else -1), (u, p)
    with pytest.raises(ValueError, match="^12 is divisible by 3$"):
        legendre(12, 3)


@pytest.mark.parametrize(
    "u, p, message",
    [
        (2, 9, "legendre needs an odd prime p, got 9"),
        (2, 2, "legendre needs an odd prime p, got 2"),
        (3, 1, "legendre needs an odd prime p, got 1"),
        (3, 0, "legendre needs an odd prime p, got 0"),
        (3, -7, "legendre needs an odd prime p, got -7"),
        (5, 1.0, "legendre needs an odd prime p, got 1.0"),
        (5, 7.0, "legendre needs an odd prime p, got 7.0"),
        (5, True, "legendre needs an odd prime p, got True"),
        (5, "7", "legendre needs an odd prime p, got '7'"),
        (2.0, 7, "legendre takes an int u, got 2.0"),
        (True, 7, "legendre takes an int u, got True"),
        (Fraction(2), 7, "legendre takes an int u, got Fraction(2, 1)"),
        ("2", 7, "legendre takes an int u, got '2'"),
    ],
)
def test_legendre_refuses_what_is_not_an_int_over_an_odd_prime(u, p, message):
    with pytest.raises(ValueError) as info:
        legendre(u, p)
    assert str(info.value) == message


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


def _symbol_corpus():
    """Seeded (a, b, place) triples: ints and Fractions of both signs at the
    real place (every spelling), 2, the odd primes below 100, 257, 65537 and
    four primes each of 10, 11 and 12 digits, with the place's powers in
    numerators and denominators; then zero arguments, composite places
    (psi_1 and psi_2 among them), unknown strings and a place past
    MILLER_RABIN_LIMIT."""
    rng = random.Random(2807)
    large = []
    for digits in (10, 11, 12):
        for _ in range(4):
            p = rng.randrange(10 ** (digits - 1), 10 ** digits) | 1
            while not _is_prime_13_bases(p):
                p += 2
            large.append(p)
    places = ["real", "inf", "oo", "Infinity", "REAL", 2] + primes_upto(100)[1:]
    places += [257, 65537, "7"] + large

    def argument(place):
        n = rng.choice((1, -1)) * rng.randint(1, 60)
        d = rng.choice((1, 1, 1, 2, 3, 9, 10))
        if place != "real" and not isinstance(place, str):
            n *= place ** rng.choice((0, 0, 1, 1, 2, 3))
            d *= place ** rng.choice((0, 0, 0, 1, 2))
        kind = rng.random()
        if kind < 0.5 and d == 1:
            return n
        if kind < 0.6:
            return Fraction(n * d)  # an int given as a Fraction over 1
        return Fraction(n, d)

    corpus = [
        (argument(place), argument(place), place) for place in places for _ in range(60)
    ]
    for place in places[::4]:
        corpus += [(0, 3, place), (Fraction(0), -1, place), (5, 0, place)]
    for place in (1, 0, -3, 4, 9, 91, 561, PSI[0], PSI[1], "north", "", "-3", MILLER_RABIN_LIMIT):
        corpus += [(3, -5, place), (0, 2, place)]
    return corpus


def _obstruction_corpus():
    """Seeded coefficient triples: small ints and Fractions of both signs,
    squares and common factors, 7-9 digit values, zero coefficients and
    values past FACTOR_LIMIT."""
    rng = random.Random(2809)

    def coefficient():
        n = rng.choice((1, -1)) * rng.randint(1, 400) * rng.choice((1, 1, 4, 9, 25, 6, 10))
        if rng.random() < 0.1:
            n *= rng.randint(10 ** 6, 10 ** 7)
        if rng.random() < 0.3:
            return Fraction(n, rng.randint(1, 50))
        return n

    corpus = [tuple(coefficient() for _ in range(3)) for _ in range(1500)]
    corpus += [(0, 1, -1), (1, Fraction(0), 2), (3, -5, 0), (FACTOR_LIMIT + 1, 1, -1)]
    corpus += [(1, 3, Fraction(1, FACTOR_LIMIT + 3)), (2 * FACTOR_LIMIT, 5, 0)]
    return corpus


def _outputs(f, corpus):
    """f(*args) for each args as text, a ValueError as its message."""
    lines = []
    for args in corpus:
        try:
            out = f(*args)
        except ValueError as exc:
            out = f"ValueError: {exc}"
        lines.append(_canonical((args, out)))
    return lines


def test_frozen_symbol_corpus():
    corpus = _symbol_corpus()
    assert len(corpus) == 2762
    lines = _outputs(hilbert_symbol, corpus)
    assert sum("ValueError" in line for line in lines) == 62
    assert sum(line.endswith(",i-1)") for line in lines) == 928
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "08005a3ec7af0b37bc412b80aa99c42ccc804818c790d8104f914089f3371e51"


def test_frozen_obstruction_and_reciprocity_corpus():
    corpus = _obstruction_corpus()
    lines = _outputs(local_obstructions, corpus)
    assert len(corpus) == 1506
    assert sum("ValueError" in line for line in lines) == 6
    assert sum(line.endswith(",l[])") for line in lines) == 82
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "df3f9c9926279072ebd40b43dcbcee8f524a0c953c693bae448dca36e8d35e9d"
    lines = _outputs(hilbert_reciprocity_check, [args[:2] for args in corpus])
    assert sum("ValueError" in line for line in lines) == 4
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ee0319bddd05d2166722e17f67c1896a74c3760fec516e8b756147dc1a0af919"


def _form(m, x):
    """x^t M x, exactly."""
    return sum(Fraction(m[i][j]) * x[i] * x[j] for i in range(3) for j in range(3))


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
        assert _form(m, p) == 0
        assert p != (0, 0, 0)


def test_conic_point_respects_obstructions():
    assert conic_rational_point([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) is None
    assert conic_rational_point([[1, 0, 0], [0, 1, 0], [0, 0, -7]]) is None
    assert conic_rational_point([[1, 0, 0], [0, 1, 0], [0, 0, -3]]) is None


def test_conic_point_degenerate_cases():
    # rank 2: x^2 - y^2 factors through the line x = y
    p = conic_rational_point([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    assert p is not None
    assert _form([[1, 0, 0], [0, -1, 0], [0, 0, 0]], p) == 0
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


def _search(conic):
    """_holzer_search on a reduced conic, given the primes of each coefficient."""
    return _holzer_search(conic, [list(_factor(x)) for x in conic])


def _reduced(a, b, c):
    squarefree = all(e == 1 for x in (a, b, c) for e in _factor(x).values())
    coprime = math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1
    mixed = min(a, b, c) < 0 < max(a, b, c)
    return squarefree and coprime and mixed


def _rootless_primes(conic):
    """{role: the odd primes of that coefficient with no root}, with the
    roles cs, c1, c2 named as in `_holzer_search`. An odd prime p of one
    coefficient is rootless when minus the product of the other two is no
    square mod p."""
    a, b, c = conic
    bounds = [math.isqrt(abs(b * c)), math.isqrt(abs(a * c)), math.isqrt(abs(a * b))]
    solve_idx = max(range(3), key=lambda i: bounds[i])
    e1, e2 = [i for i in range(3) if i != solve_idx]
    out = {}
    for role, k in (("cs", solve_idx), ("c1", e1), ("c2", e2)):
        i, j = [x for x in range(3) if x != k]
        rootless = [
            p
            for p in _factor(conic[k])
            if p != 2 and pow(-conic[i] * conic[j] % p, (p - 1) // 2, p) != 1
        ]
        if rootless:
            out[role] = rootless
    return out


def _check_against_the_reference(conic):
    """The sieved search returns the unsieved reference's first point, and
    each rootless prime is a place the conic is obstructed at."""
    assert _search(conic) == _holzer_reference(*conic), conic
    rootless = _rootless_primes(conic)
    places = local_obstructions(*conic)
    assert {p for ps in rootless.values() for p in ps} <= set(places), conic
    return frozenset(rootless)


def test_holzer_search_matches_double_loop_on_the_sweep():
    signed = [s * v for v in range(1, 21) for s in (1, -1)]
    sweep = [(a, b, c) for a in signed for b in signed for c in signed if _reduced(a, b, c)]
    assert len(sweep) > 6000
    for conic in sweep:
        _check_against_the_reference(conic)


def test_holzer_search_matches_double_loop_on_every_rootless_role():
    # seeded forms up to 90: a rootless prime in cs only, in c1 only, in c2
    # only, in several roles, and in none
    rng = random.Random(38)
    seen = collections.Counter()
    for _ in range(6000):
        conic = tuple(rng.randint(1, 90) * rng.choice((1, -1)) for _ in range(3))
        if _reduced(*conic):
            seen[_check_against_the_reference(conic)] += 1
    for role in ("cs", "c1", "c2"):
        assert seen[frozenset([role])] >= 10, seen
    assert sum(n for roles, n in seen.items() if len(roles) > 1) >= 10, seen
    assert seen[frozenset()] >= 10, seen


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
            assert _search(conic) == want, conic


def test_conic_limits_raise():
    outer = [[2000003, 0, 0], [0, 2000029, 0], [0, 0, -2000039]]
    with pytest.raises(ValueError, match=f"limit is {HOLZER_OUTER_LIMIT}"):
        conic_rational_point(outer)
    wide = [[8353, 0, 0], [0, 4906103, 0], [0, 0, -4908941]]
    with pytest.raises(ValueError, match=f"limit is {HOLZER_CANDIDATE_LIMIT}"):
        conic_rational_point(wide)
    with pytest.raises(ValueError, match="10\\^14"):
        conic_rational_point([[2, 0, 0], [0, 3, 0], [0, 0, -(10 ** 15 + 37)]])


def test_legendre_reduce_on_squares_and_shared_primes():
    """Seeded triples of both signs, with squares, a prime shared by two
    coefficients and a common factor, reduce to a squarefree pairwise coprime
    form whose solutions map back: c_i f_i^2 / c'_i is one positive rational
    for all i, so a reduced solution (x, y, z) gives (f0 x, f1 y, f2 z)."""
    rng = random.Random(3901)
    small = (2, 3, 5, 7, 11, 13)
    for _ in range(2000):
        coeffs = [
            rng.choice((1, -1)) * math.prod(rng.choice(small) for _ in range(rng.randint(0, 5)))
            for _ in range(3)
        ]
        shared = rng.choice(small)
        for i in rng.sample(range(3), 2):
            coeffs[i] *= shared
        common = rng.choice((1, 1, 2, 9))
        coeffs = [c * common for c in coeffs]
        reduced, factors, primes = _legendre_reduce(coeffs)
        for r, ps in zip(reduced, primes):
            assert ps == sorted(set(ps)) and all(is_prime(p) for p in ps), coeffs
            assert math.prod(ps) == abs(r), coeffs
        for i, j in itertools.combinations(range(3), 2):
            assert math.gcd(reduced[i], reduced[j]) == 1, coeffs
        # square removals and moves multiply by positive integers
        assert [r > 0 for r in reduced] == [c > 0 for c in coeffs], coeffs
        ratios = {Fraction(c * f * f, r) for c, f, r in zip(coeffs, factors, reduced)}
        assert len(ratios) == 1 and min(ratios) > 0, coeffs


def test_holzer_search_refuses_a_w_outside_its_classes(monkeypatch):
    # a "root" r with r^2 != t mod q puts w = r u outside the classes where
    # cs divides c1 u^2 + c2 w^2; cs = 3 here, and neither 17 (c1) nor 5
    # (c2) is rootless, so the sieve still visits u = 1
    def non_root(t, q):
        return (next(r for r in range(1, q) if r * r % q != t),)

    monkeypatch.setattr("sdrkit.localglobal._sqrt_mod_prime", non_root)
    with pytest.raises(AssertionError, match="the residue sieve admitted a w outside its classes"):
        _search((3, 17, -10))


def test_search_and_symbols_must_agree(monkeypatch):
    # 2 + 3 - 5 = 0, so the symbols find no obstruction; a search that finds
    # no point contradicts them
    monkeypatch.setattr("sdrkit.localglobal._holzer_search", lambda coeffs, primes: None)
    with pytest.raises(AssertionError, match="search and local symbols disagree on solvability"):
        conic_rational_point([[2, 0, 0], [0, 3, 0], [0, 0, -5]])


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
        assert _form(m, sdr.point) == 0
        # e_i and e_i + e_j alone fix a ternary quadratic form
        for x in itertools.product((-1, 0, 1), repeat=3):
            a, b, c = (
                sum(x[j] * sdr.matrices[j][r][col] for j in range(3))
                for r, col in ((0, 0), (0, 1), (1, 1))
            )
            assert a * c - b * b == sdr.scale * _form(m, x)
        # symmetric pencil
        for j in range(3):
            assert sdr.matrices[j][0][1] == sdr.matrices[j][1][0]


def test_second_conic_point_skips_tangent_directions():
    # on X^2 - Y^2 - Z^2 at p = (1, 1, 0), M p = (1, -1, 0): the first three
    # directions of {-1, 0, 1}^3 are tangent, the fourth, (-1, 0, -1), is not
    m = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    p = (1, 1, 0)
    s = _second_conic_point(m, 1, p)
    assert s == (-1, 0, -1)
    assert _form(m, s) == 0
    assert p[0] * s[0] - p[1] * s[1] - p[2] * s[2] != 0  # p^t M s


def test_conic_sdr_with_the_callers_point_gives_the_same_pencil():
    cases = [
        [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
        [[2, 0, 0], [0, 3, 0], [0, 0, -5]],
        [[1, 1, 0], [1, -2, 3], [0, 3, -1]],
        [[0, 1, 0], [1, 0, 1], [0, 1, -4]],
        [[997, 0, 0], [0, 1009, 0], [0, 0, -1013]],
    ]
    for m in cases:
        p = conic_rational_point(m)
        assert conic_sdr(m, p) == conic_sdr(m)
    m = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    with pytest.raises(ValueError, match="does not lie"):
        conic_sdr(m, (1, 1, 1))
    with pytest.raises(ValueError, match="nonzero integer"):
        conic_sdr(m, (0, 0, 0))
    # bool subclasses int, but (True, False, True) is no integer point
    with pytest.raises(ValueError, match="nonzero integer"):
        conic_sdr(m, (True, False, True))


def _solve3(mat, rhs):
    """Gauss-Jordan solve of mat x = rhs: the reference for the adjugate
    inverse."""
    a = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    for k in range(3):
        piv = next((r for r in range(k, 3) if a[r][k] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for r in range(3):
            if r != k and a[r][k]:
                f = a[r][k]
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return tuple(a[r][3] for r in range(3))


def test_adjugate_matches_gauss_jordan():
    rng = random.Random(11)
    entries = [0, 0, 1, -1, 2, -3, 5, -7, 12]
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    inverted = singular = 0
    while inverted < 300 or singular < 20:
        a = tuple(tuple(rng.choice(entries) for _ in range(3)) for _ in range(3))
        adj, det = _adjugate(*zip(*a))
        product = tuple(
            tuple(sum(adj[i][k] * a[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )
        assert product == tuple(tuple(det * x for x in row) for row in identity)
        try:
            fa = tuple(tuple(Fraction(x) for x in row) for row in a)
            cols = [_solve3(fa, identity[j]) for j in range(3)]
        except ValueError:
            assert det == 0
            singular += 1
            continue
        assert tuple(tuple(Fraction(x, det) for x in row) for row in adj) == tuple(
            tuple(col[i] for col in cols) for i in range(3)
        )
        inverted += 1


def test_sqrt_mod_prime_matches_the_scan():
    # the scan it replaced: the least r in 1..q/2 with r^2 = t mod q
    for q in primes_upto(3000):
        least = {}
        for r in range(q // 2, 0, -1):
            least[r * r % q] = r
        for t in range(1, q):
            if q == 2:
                want = (1,)
            else:
                want = (least[t], q - least[t]) if t in least else ()
            assert _sqrt_mod_prime(t, q) == want, (t, q)


def test_conic_places_match_the_diagonal_symbols():
    # c10's signed squarefree values without the coprimality filter, and
    # off-diagonal rational matrices with every pivot branch
    rng = random.Random(2024)
    square_free = [v for v in range(1, 21) if all(e == 1 for e in _factor(v).values())]
    signed = [s * v for v in square_free for s in (1, -1)]
    cases = [
        [[a, 0, 0], [0, b, 0], [0, 0, c]]
        for a, b, c in (tuple(rng.choice(signed) for _ in range(3)) for _ in range(400))
    ]
    entries = [0, 0, 1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3)]
    for _ in range(300):
        u = [[rng.choice(entries) for _ in range(3)] for _ in range(3)]
        cases.append([[u[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)])
    degenerate = 0
    for m in cases:
        point, places = _conic_point_and_places(m)
        _, diag = diagonalize_symmetric(m)
        if 0 in diag:
            assert places is None and point is not None
            degenerate += 1
        else:
            assert places == local_obstructions(*diag), m
            assert (point is None) == bool(places), m
    assert 0 < degenerate < len(cases)
    # the places come from the reduced form: a common factor past the
    # factoring limit is divided out before anything is factored
    n = 2 * FACTOR_LIMIT + 6
    assert _conic_point_and_places([[n, 0, 0], [0, -n, 0], [0, 0, 2 * n]])[1] == []


def _conic_corpus():
    """About 2000 seeded symmetric matrices over every conic path: c10's
    diagonals, their unimodular off-diagonal images, rational entries, zero
    diagonals (the symmetrizing pivot, at the first or the second step) and
    degenerate conics of rank 2, 1 and 0."""
    rng = random.Random(4242)
    square_free = [v for v in range(1, 21) if all(e == 1 for e in _factor(v).values())]
    signed = [s * v for v in square_free for s in (1, -1)]
    c10 = [
        (a, b, c)
        for a in signed
        for b in signed
        for c in signed
        if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1
    ]

    def diagonal(d):
        return [[d[0], 0, 0], [0, d[1], 0], [0, 0, d[2]]]

    def unimodular_image(d):
        u = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            f = rng.choice((-2, -1, 1, 2))
            u[i] = [x + f * y for x, y in zip(u[i], u[j])]
        return [
            [sum(u[k][i] * d[k] * u[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]

    def symmetric(entries, zero_diagonal=False):
        u = [[rng.choice(entries) for _ in range(3)] for _ in range(3)]
        if zero_diagonal:
            for i in range(3):
                u[i][i] = 0
        return [[u[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]

    ints = [0, 1, -1, 2, -3, 5, 7]
    rationals = [0, 0, 1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(-7, 5)]
    # c10 is about 85 % obstructed: take half of each sample from either side
    solvable = [d for d in c10 if not local_obstructions(*d)]
    obstructed = [d for d in c10 if local_obstructions(*d)]
    corpus = []
    for image in (diagonal, unimodular_image):
        corpus += [image(d) for d in rng.sample(solvable, 250) + rng.sample(obstructed, 250)]
    corpus += [symmetric(rationals) for _ in range(400)]
    corpus += [symmetric([0] + ints[1:] + rationals[2:], zero_diagonal=True) for _ in range(200)]
    for _ in range(100):
        # the first pivot a leaves the block [[0, b - c e / a], [b - c e / a, 0]],
        # symmetrized at the second step
        a, b, c, e = (rng.choice(rationals[2:]) for _ in range(4))
        corpus.append([[a, c, e], [c, Fraction(c * c) / a, b], [e, b, Fraction(e * e) / a]])
    for _ in range(280):
        d = (rng.choice(rationals[2:]), rng.choice(rationals[2:]), 0)
        if rng.random() < 0.3:
            d = (d[0], 0, 0)
        corpus.append(unimodular_image(d))
    corpus += [symmetric([0]) for _ in range(20)]
    return corpus


def _canonical(x):
    """A text form that keeps each value's type: Fraction, int, bool, str,
    None, tuple, list and dict read differently."""
    if isinstance(x, Fraction):
        return f"F{x.numerator}/{x.denominator}"
    if isinstance(x, bool):
        return f"b{x}"
    if isinstance(x, int):
        return f"i{x}"
    if isinstance(x, str) or x is None:
        return repr(x)
    if isinstance(x, tuple):
        return "t(" + ",".join(_canonical(y) for y in x) + ")"
    if isinstance(x, list):
        return "l[" + ",".join(_canonical(y) for y in x) + "]"
    if isinstance(x, dict):
        return "d{" + ",".join(f"{k!r}:{_canonical(v)}" for k, v in x.items()) + "}"
    raise TypeError(f"no canonical form for {type(x).__name__}")


def _conic_outputs(m):
    """diagonalize_symmetric, _conic_point_and_places, conic_rational_point
    and conic_sdr(m).to_json() of one matrix as text, a ValueError as its
    message."""

    def run(f):
        try:
            return f(m)
        except ValueError as exc:
            return f"ValueError: {exc}"

    return _canonical(
        tuple(
            run(f)
            for f in (
                diagonalize_symmetric,
                _conic_point_and_places,
                conic_rational_point,
                lambda m: conic_sdr(m).to_json(),
            )
        )
    )


def test_frozen_conic_corpus():
    # the digest pins every value and every type of the four outputs on each
    # of these conics
    corpus = _conic_corpus()
    assert len(corpus) == 2000
    assert all(isinstance(x, (int, Fraction)) for m in corpus for row in m for x in row)
    lines = [_conic_outputs(m) for m in corpus]
    assert sum("ValueError" in line for line in lines) == 956
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1898b3f60d2a540fd0b8a5dfea041f0c38217e2f6cdcc34e1a0373e7c79dd3ef"
    # integer entries given as int and as Fraction(n, 1) agree
    for m, line in zip(corpus[::5], lines[::5]):
        if all(isinstance(x, int) for row in m for x in row):
            assert _conic_outputs([[Fraction(x) for x in row] for row in m]) == line


def test_conic_sdr_refuses_pointless_or_degenerate():
    with pytest.raises(ValueError):
        conic_sdr([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        conic_sdr([[1, 0, 0], [0, -1, 0], [0, 0, 0]])


def test_conic_entries_must_be_ints_or_fractions():
    # 1 / -3 is the float nearest -1/3, a fraction over 2^54 whose
    # denominator the conic code cannot factor; it is refused by position
    m = [[-3, 1, Fraction(3, 4)], [1, 1 / -3, 2], [Fraction(3, 4), 2, Fraction(-3, 16)]]
    for f in (diagonalize_symmetric, conic_rational_point, conic_sdr):
        with pytest.raises(ValueError, match=r"entry \(1, 1\) is -0\.333"):
            f(m)
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is True"):
        conic_rational_point([[True, 0, 0], [0, 1, 0], [0, 0, -1]])


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


def _xp_mod_cubic_reference(p, a, b):
    """X^p mod (X^3 + a X + b) over F_p by square-and-multiply."""
    c0, c1, c2 = 1, 0, 0
    for bit in bin(p)[2:]:
        # square, then reduce by X^3 = -aX - b
        d0, d1 = c0 * c0, 2 * c0 * c1
        d2, d3, d4 = c1 * c1 + 2 * c0 * c2, 2 * c1 * c2, c2 * c2
        c0, c1, c2 = (d0 - b * d3) % p, (d1 - a * d3 - b * d4) % p, (d2 - a * d4) % p
        if bit == "1":
            c0, c1, c2 = (-b * c2) % p, (c0 - a * c2) % p, c1
    return c0, c1, c2


def _poly_mod_reference(num, den, p):
    """Remainder of num by den over F_p; coefficient lists, constant first,
    den with a nonzero leading coefficient."""
    num = [x % p for x in num]
    inv = pow(den[-1], -1, p)
    while len(num) >= len(den):
        fac = num[-1] * inv % p
        off = len(num) - len(den)
        for i, coef in enumerate(den):
            num[off + i] = (num[off + i] - fac * coef) % p
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _cubic_has_root_reference(p, a, b):
    """gcd(X^p - X, X^3 + aX + b) over F_p has positive degree: the
    polynomial test the Lucas-sequence kernel replaced."""
    c0, c1, c2 = _xp_mod_cubic_reference(p, a, b)
    u, v = [b % p, a % p, 0, 1], [c0, (c1 - 1) % p, c2]
    while v and v[-1] == 0:
        v.pop()
    if not v:
        return True  # f divides X^p - X
    while v:
        u, v = v, _poly_mod_reference(u, v, p)
    return len(u) > 1


def test_cubic_root_mod_matches_enumeration():
    seen = set()
    for p in primes_upto(600)[2:]:
        cubes = [x * x * x % p for x in range(p)]
        for a in range(-12, 13):
            values = {(c + a * x) % p for x, c in enumerate(cubes)}
            for b in range(-12, 13):
                d = (-4 * a ** 3 - 27 * b * b) % p
                if d == 0:
                    continue
                brute = -b % p in values
                assert _cubic_has_root_reference(p, a % p, b % p) == brute, (a, b, p)
                if legendre(d, p) == 1:
                    assert _cubic_square_disc_has_root(p, a % p, b % p) == brute, (a, b, p)
                seen.add((a % p == 0, legendre(d, p), brute))
    # a = 0 mod p and a != 0 mod p, under both characters of D, with and
    # without a root (a non-square D always gives exactly one root)
    assert seen == {(z, 1, r) for z in (True, False) for r in (True, False)} | {
        (z, -1, True) for z in (True, False)
    }


# The squarefree kernel d of each fixture's discriminant. With a period of
# at most isqrt(10^5) = 316 the density decides each residue class once. For
# d != 1 the period is 4|d|: d = -3, and d = -5 for D = -1296/125, whose 5
# sits in the denominator and whose (-5|p) needs p mod 20, not p mod 10. The
# larger kernels take Euler's criterion at every prime. For d = 1 the period
# is F = sqrt of the integral model's discriminant: 9 for x^3 - 3x + 1 and
# for (-3/4, 1/8), whose model is y^3 - 3y + 1; 7 for (-7, 7); 20 for
# (-7, 6), which has three rational roots; and 468 > 316 for (-39, 26),
# which takes the ladder at every prime. With a = 0 one pow at each prime
# decides whether -b is a cube, with b's denominator in (0, 7/4).
_DENSITY_KERNELS = {
    (0, -2): -3,
    (-3, 1): 1,
    (Fraction(1, 2), Fraction(-3, 5)): -1022,
    (Fraction(-7, 4), Fraction(5, 3)): -857,
    (Fraction(-6, 5), Fraction(-4, 5)): -5,
    (7, 11): -4639,
    (-7, 7): 1,
    (Fraction(-3, 4), Fraction(1, 8)): 1,
    (-39, 26): 1,
    (-7, 6): 1,
    (0, Fraction(7, 4)): -3,
}


@pytest.mark.parametrize("a, b", list(_DENSITY_KERNELS))
def test_density_matches_the_polynomial_reference(a, b):
    assert squarefree_part(cubic_discriminant(a, b)) == _DENSITY_KERNELS[a, b]
    report = cubic_local_root_density(a, b, 10 ** 5)
    a, b = Fraction(a), Fraction(b)
    counted = with_root = 0
    for p in primes_upto(10 ** 5):
        if p in report.skipped:
            continue
        ai = a.numerator * pow(a.denominator, p - 2, p) % p
        bi = b.numerator * pow(b.denominator, p - 2, p) % p
        counted += 1
        with_root += _cubic_has_root_reference(p, ai, bi)
    assert (report.primes_counted, report.primes_with_root) == (counted, with_root)


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


def test_diagonalize_symmetric_is_a_congruence():
    # T^t M T recomputed in Fractions, independently of the integer
    # self-check inside; zero and repeated entries force every pivot branch
    rng = random.Random(7)
    entries = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]
    for _ in range(400):
        u = [[rng.choice(entries) for _ in range(3)] for _ in range(3)]
        m = [[u[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
        t, diag = diagonalize_symmetric(m)
        tmt = [
            [sum(t[k][i] * m[k][l] * t[l][j] for k in range(3) for l in range(3))
             for j in range(3)]
            for i in range(3)
        ]
        assert tmt == [[diag[i] if i == j else 0 for j in range(3)] for i in range(3)]
        det_t = (
            t[0][0] * (t[1][1] * t[2][2] - t[1][2] * t[2][1])
            - t[0][1] * (t[1][0] * t[2][2] - t[1][2] * t[2][0])
            + t[0][2] * (t[1][0] * t[2][1] - t[1][1] * t[2][0])
        )
        assert det_t != 0
