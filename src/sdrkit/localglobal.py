"""Local-global arithmetic: Hilbert symbols, conics and their 2x2 pencils,
cubic root densities, and the quartic fixtures.

Everything here is exact. The conic code clears a matrix's denominators once
and then works on integers: fraction-free diagonalization, integer searches
with proven bounds (Holzer) for points, and the pencil from integer adjugates,
checked on its coefficient matrix; only returned values become Fractions.
Symbols and cubics use integers and Fractions. Floating point appears only in
reported densities.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "REAL_PLACE",
    "is_prime",
    "legendre",
    "hilbert_symbol",
    "hilbert_reciprocity_check",
    "local_obstructions",
    "diagonalize_symmetric",
    "conic_rational_point",
    "ConicSDR",
    "conic_sdr",
    "cubic_discriminant",
    "cubic_rational_roots",
    "galois_image",
    "DensityReport",
    "cubic_local_root_density",
    "cubic_local_global_verdict",
    "EXPECTED_ROOT_DENSITY",
    "COUNTEREXAMPLE_QUARTICS",
    "quartic_value",
    "quartic_point_check",
    "primes_upto",
]

REAL_PLACE = "real"
Place = Union[int, str]
Rat = Union[int, Fraction]


# ---------------------------------------------------------------------------
# primes and symbols

def _prime_sieve(n: int) -> bytearray:
    """Sieve of Eratosthenes: byte i is 1 exactly when i <= n is prime."""
    if n < 2:
        return bytearray(max(n + 1, 0))
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray((n - p * p) // p + 1)
    return sieve


def primes_upto(n: int) -> List[int]:
    """The primes up to n, ascending."""
    return list(itertools.compress(range(n + 1), _prime_sieve(n)))


# psi_k, k = 1..13: the least composite that is a strong probable prime to
# each of the first k prime bases (Jaeschke, Math. Comp. 61 (1993) for
# k <= 8; Jiang and Deng, Math. Comp. 83 (2014) for k = 9..11; Sorenson and
# Webster, Math. Comp. 86 (2017) for k = 12, 13). Miller-Rabin on the first
# k bases therefore decides primality exactly below psi_k, and on all 13
# below psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981  # psi_13, about 3.317e24
_MR_PSI = (
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
    MILLER_RABIN_LIMIT,
)

# Trial division runs to sqrt(|n|): about a second at this size.
FACTOR_LIMIT = 10 ** 14


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < MILLER_RABIN_LIMIT; larger n raise
    ValueError rather than get a probabilistic answer, and so does an n that
    is not an int (bool included).

    n takes the first k prime bases for the least k with n < psi_k: one
    below 2047, five below 2.15e12 (every 12-digit n), all 13 only from
    psi_12, about 3.19e23, on.
    """
    if type(n) is bool or not isinstance(n, int):
        raise ValueError(f"is_prime takes an int, got {n!r}")
    if n < 2:
        return False
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"primality is decided only below {MILLER_RABIN_LIMIT} "
            f"(about 3.317e24), got {n}"
        )
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES[: bisect.bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor(n: int) -> Dict[int, int]:
    """Trial-division factorization of 0 < |n| <= FACTOR_LIMIT; 0, which
    every prime divides, and larger |n| raise ValueError."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0: every prime divides it")
    if n > FACTOR_LIMIT:
        raise ValueError(
            f"cannot factor {n}: integers are factored only up to "
            f"10^14 in absolute value"
        )
    out: Dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _square_class_int(a: Rat) -> int:
    """An integer in the same square class as the nonzero rational a, which
    must be an int (not a bool) or a Fraction; an int is returned as it is."""
    if type(a) is not int:
        if type(a) is bool or not isinstance(a, (int, Fraction)):
            raise ValueError(f"argument {a!r} is not an int or a Fraction")
        a = a.numerator * a.denominator
    if a == 0:
        raise ValueError("symbols need nonzero arguments")
    return a


def legendre(u: int, p: int) -> int:
    """(u | p) for an int u prime to p and an odd prime int p; anything
    else (bools included) raises ValueError naming the value."""
    if type(u) is bool or not isinstance(u, int):
        raise ValueError(f"legendre takes an int u, got {u!r}")
    if type(p) is bool or not isinstance(p, int) or p == 2 or not is_prime(p):
        raise ValueError(f"legendre needs an odd prime p, got {p!r}")
    r = pow(u % p, (p - 1) // 2, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise ValueError(f"{u} is divisible by {p}")


def _split_valuation(n: int, p: int) -> Tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _normalize_place(place: Place) -> Place:
    if isinstance(place, str):
        if place.lower() in (REAL_PLACE, "inf", "oo", "infinity"):
            return REAL_PLACE
        if place.isdigit():
            place = int(place)
        else:
            raise ValueError(f"unknown place {place!r}")
    elif type(place) is bool or not isinstance(place, int):
        raise ValueError(f"place must be a prime or 'real', got {place!r}")
    if not is_prime(place):
        raise ValueError(f"place must be a prime or 'real', got {place}")
    return place


def hilbert_symbol(a: Rat, b: Rat, place: Place) -> int:
    """(a, b)_v in {+1, -1}: whether a x^2 + b y^2 = z^2 has a nontrivial
    solution over the completion at v.

    a and b are nonzero ints or Fractions (not bools); v is a prime int or
    'real' (also 'inf', 'oo', 'infinity' in any case, or a prime written in
    digits). Anything else raises ValueError naming the value. The place is
    checked and the arguments are taken to integers of their square classes
    once; `_symbol` does the rest.
    """
    place = _normalize_place(place)
    return _symbol(_square_class_int(a), _square_class_int(b), place)


def _symbol(a: int, b: int, place: Place) -> int:
    """(a, b)_v for nonzero ints a, b at v = REAL_PLACE or a prime.

    Closed forms: at the real place, -1 exactly when both arguments are
    negative. At odd p, with a = p^alpha u and b = p^beta w (u, w units),
    (-1)^(alpha beta (p-1)/2) (u|p)^beta (w|p)^alpha. At 2, with odd parts
    u, w: (-1)^(eps(u) eps(w) + alpha omega(w) + beta omega(u)) where
    eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 mod 2.
    """
    if place == REAL_PLACE:
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha = beta = 0
    while a % p == 0:
        a //= p
        alpha += 1
    while b % p == 0:
        b //= p
        beta += 1
    # a and b are now the units u and w
    if p == 2:
        u, w = a % 8, b % 8
        exp = (u - 1) // 2 * ((w - 1) // 2) + alpha * (w in (3, 5)) + beta * (u in (3, 5))
        return -1 if exp % 2 else 1
    sign = -1 if alpha % 2 and beta % 2 and p % 4 == 3 else 1
    # Euler's criterion: (u|p) = u^((p-1)/2) mod p, which is 1 or p - 1
    half = (p - 1) // 2
    if beta % 2 and pow(a, half, p) != 1:
        sign = -sign
    if alpha % 2 and pow(b, half, p) != 1:
        sign = -sign
    return sign


def _places(primes: Iterable[int]) -> List[Place]:
    """The places where a symbol of integers with these primes can be -1:
    2 and the primes ascending, then the real place."""
    return sorted({2, *primes}) + [REAL_PLACE]


def hilbert_reciprocity_check(a: Rat, b: Rat) -> bool:
    """Product of (a,b)_v over all places is +1; the symbol is 1 outside
    the primes dividing the arguments (and 2 and the real place). The
    arguments are checked as in `hilbert_symbol`; the places come from
    factoring them, so each is a prime and goes to `_symbol` directly."""
    ai, bi = _square_class_int(a), _square_class_int(b)
    places = _places(q for v in (ai, bi) for q in _factor(v))
    return math.prod(_symbol(ai, bi, place) for place in places) == 1


def local_obstructions(a: Rat, b: Rat, c: Rat) -> List[Place]:
    """Places where a x^2 + b y^2 + c z^2 = 0 has no nontrivial solution.

    The coefficients are nonzero ints or Fractions (not bools); anything
    else raises ValueError naming the value. The diagonal conic is locally
    isotropic at v exactly when (-ac, -bc)_v = +1. Only 2, the real place,
    and odd primes dividing the coefficients can obstruct. The returned list
    is primes ascending, with the real place last; the full symbol product
    is checked against reciprocity before returning. The places dividing
    -ac and -bc are those dividing a, b or c, so the coefficients are
    factored, not the products, and their primes go to `_symbol` directly.
    """
    ai, bi, ci = (_square_class_int(x) for x in (a, b, c))
    return _obstructions(ai, bi, ci, _places(q for v in (ai, bi, ci) for q in _factor(v)))


def _obstructions(a: int, b: int, c: int, places: Sequence[Place]) -> List[Place]:
    """`local_obstructions` of nonzero ints, given `_places` of their primes."""
    first, second = -a * c, -b * c
    out = [place for place in places if _symbol(first, second, place) == -1]
    # the product of the symbols is +1 exactly when an even number are -1
    if len(out) % 2:
        raise AssertionError("reciprocity failed; symbol computation is broken")
    return out


# ---------------------------------------------------------------------------
# conics: rational points

Mat3 = Tuple[Tuple[Fraction, ...], ...]
IntMat3 = Sequence[Sequence[int]]


def _integer_matrix(m: Sequence[Sequence[Rat]]) -> Tuple[List[List[int]], int]:
    """(A, delta) with M = A / delta: the conic code clears the denominators
    of a symmetric 3x3 matrix once and then works on integers. A matrix of
    ints is A itself, with delta = 1."""
    rows = [list(row) for row in m]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("expected a 3x3 matrix")
    ints = True
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if type(x) is not int:
                if type(x) is bool or not isinstance(x, (int, Fraction)):
                    raise ValueError(f"entry ({i}, {j}) is {x!r}, not an int or a Fraction")
                ints = False
    if ints:
        a, delta = rows, 1
    else:
        delta = math.lcm(*(x.denominator for row in rows for x in row))
        a = [[x.numerator * (delta // x.denominator) for x in row] for row in rows]
    if a[0][1] != a[1][0] or a[0][2] != a[2][0] or a[1][2] != a[2][1]:
        raise ValueError("matrix is not symmetric")
    return a, delta


def _matvec3(a: IntMat3, v: Sequence[int]) -> Tuple[int, ...]:
    v0, v1, v2 = v
    r0, r1, r2 = a
    return (
        r0[0] * v0 + r0[1] * v1 + r0[2] * v2,
        r1[0] * v0 + r1[1] * v1 + r1[2] * v2,
        r2[0] * v0 + r2[1] * v1 + r2[2] * v2,
    )


def _dot3(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u: Sequence[int], v: Sequence[int]) -> Tuple[int, ...]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _adjugate(
    c0: Sequence[int], c1: Sequence[int], c2: Sequence[int]
) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """(adj, det) of the matrix with columns c0, c1, c2: row i of the
    adjugate is c_(i+1) x c_(i+2), so adj times the matrix is det I."""
    adj = (_cross(c1, c2), _cross(c2, c0), _cross(c0, c1))
    return adj, _dot3(c0, adj[0])


def _diagonalize(a: IntMat3) -> Tuple[List[List[int]], List[int], List[int]]:
    """Congruence diagonalization of the integer symmetric A without
    division: (columns of T_i, scales s, b) with T = T_i diag(1/s) and
    T^t A T = diag(b_i / s_i^2).

    Pivots prefer a nonzero diagonal entry; failing that, a nonzero
    off-diagonal entry is symmetrized by a column addition (characteristic
    zero, so 2 M_ij lands on the diagonal). Clearing entry (k, j) against the
    pivot is col j <- a col j - b col k with a = B_kk, b = B_kj, which
    multiplies the scale of column j by a (the fraction-free step of
    Bareiss, Math. Comp. 22 (1968)).
    """
    mm = [list(row) for row in a]  # B = T_i^t A T_i
    cols = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    scales = [1, 1, 1]

    def combine(dst: int, x: int, src: int, y: int) -> None:
        # column dst <- x column dst + y column src, applied congruently
        for r in range(3):
            mm[r][dst] = x * mm[r][dst] + y * mm[r][src]
        for c in range(3):
            mm[dst][c] = x * mm[dst][c] + y * mm[src][c]
        cols[dst] = [x * u + y * v for u, v in zip(cols[dst], cols[src])]

    def swap(i: int, j: int) -> None:
        for row in mm:
            row[i], row[j] = row[j], row[i]
        mm[i], mm[j] = mm[j], mm[i]
        cols[i], cols[j] = cols[j], cols[i]
        scales[i], scales[j] = scales[j], scales[i]

    for k in range(3):
        if mm[k][k] == 0:
            pivot = next((l for l in range(k + 1, 3) if mm[l][l] != 0), None)
            if pivot is not None:
                swap(k, pivot)
            else:
                off = next(
                    (
                        (i, j)
                        for i in range(k, 3)
                        for j in range(i + 1, 3)
                        if mm[i][j] != 0
                    ),
                    None,
                )
                if off is None:
                    continue  # the remaining block is zero
                i, j = off
                # T column i += T column j, on the common scale s_i s_j
                combine(i, scales[j], j, scales[i])
                scales[i] *= scales[j]
                if i != k:
                    swap(k, i)
        for j in range(k + 1, 3):
            if mm[k][j] != 0:
                pivot_entry = mm[k][k]
                combine(j, pivot_entry, k, -mm[k][j])
                scales[j] *= pivot_entry

    # T_i^t A T_i = diag(b), recomputed apart from the updates above; A is
    # symmetric, so T_i^t A T_i is, and its upper triangle fixes it
    a_cols = [_matvec3(a, col) for col in cols]
    if _dot3(cols[0], a_cols[1]) or _dot3(cols[0], a_cols[2]) or _dot3(cols[1], a_cols[2]):
        raise AssertionError("diagonalization left an off-diagonal entry")
    b = [mm[0][0], mm[1][1], mm[2][2]]
    if [_dot3(col, a_col) for col, a_col in zip(cols, a_cols)] != b:
        raise AssertionError("diagonalization bookkeeping mismatch")
    return cols, scales, b


def diagonalize_symmetric(m: Sequence[Sequence[Rat]]) -> Tuple[Mat3, Tuple[Fraction, ...]]:
    """Congruence transform T with T^t M T diagonal; returns (T, diagonal).
    `_diagonalize` runs on A = delta M; only T and the diagonal are Fractions."""
    a, delta = _integer_matrix(m)
    cols, scales, b = _diagonalize(a)
    t = tuple(tuple(Fraction(cols[j][i], scales[j]) for j in range(3)) for i in range(3))
    return t, tuple(Fraction(x, s * s * delta) for x, s in zip(b, scales))


def _legendre_reduce(coeffs: List[int]) -> Tuple[List[int], List[int], List[List[int]]]:
    """Reduce a diagonal integer conic to squarefree pairwise-coprime shape.

    Returns the reduced coefficients, one integer factor per coordinate (a
    reduced solution (x, y, z) maps to the input's solution (f0 x, f1 y,
    f2 z)), and the primes of each reduced coefficient, ascending.

    The coefficients are factored once, after the common factor is divided
    out, so each prime divides at most two of them. One ascending pass over
    those primes touches only the coefficients each prime p divides: p^(2k)
    leaves a coefficient with the other two coordinates scaled by p^k, and
    an odd p left in two coefficients moves to the third. A move leaves p in
    one coefficient, so nothing is factored again, and a coefficient that a
    move pushes past FACTOR_LIMIT is still reduced.
    """
    g = math.gcd(*coeffs)
    work = [x // g for x in coeffs]
    factors = [1, 1, 1]
    primes: List[List[int]] = [[], [], []]
    for p in sorted({p for x in work for p in _factor(x)}):
        odd = []
        for i in range(3):
            if work[i] % p == 0:
                # rest p^v -> rest: solutions transform by scaling the other
                # two coordinates, i - 1 and i - 2 (mod 3), by p^(v // 2)
                v, work[i] = _split_valuation(work[i], p)
                if v > 1:
                    factors[i - 1] *= p ** (v // 2)
                    factors[i - 2] *= p ** (v // 2)
                if v % 2:
                    odd.append(i)
        # p goes back once, to the coefficient of odd valuation; two of them
        # give <p A, p B, C> -> <A, B, p C>, and reduced (x, y, z) maps back
        # with the third coordinate multiplied by p
        if len(odd) == 2:
            odd = [3 - sum(odd)]
            factors[odd[0]] *= p
        if odd:
            work[odd[0]] *= p
            primes[odd[0]].append(p)
    for x, ps in zip(work, primes):
        left = x // math.prod(ps)
        if left not in (1, -1):
            raise AssertionError(f"a prime of {left} is missing from the known primes")
    return work, factors, primes


# Input limits of the Holzer search: the range of its outer loop, and the
# number of candidates it may visit, counted before the rootless primes
# sieve the box. Only a conic with a point can visit every u, and it stops
# at its first point; a box of 4.8-5.0 * 10^6 candidates run to its end
# took 1.1-1.7 s on a 2-core x86 box under Python 3.11.
HOLZER_OUTER_LIMIT = 2 * 10 ** 6
HOLZER_CANDIDATE_LIMIT = 5 * 10 ** 6


def _sqrt_mod_prime(t: int, q: int) -> Tuple[int, ...]:
    """The square roots (r, q - r), r < q / 2, of t mod the prime q, for t
    prime to q; () when t is a non-residue, (1,) at q = 2. Tonelli-Shanks:
    with q - 1 = odd 2^e and z a non-residue, x = t^((odd + 1) / 2) is a root
    up to the factor b = t^odd, of order 2^i; multiplying x by the element of
    order 2^(i + 1) in <z^odd> lowers that order until b = 1."""
    if q == 2:
        return (1,)
    if pow(t, (q - 1) // 2, q) != 1:
        return ()
    odd, e = q - 1, 0
    while odd % 2 == 0:
        odd //= 2
        e += 1
    z = 2
    while pow(z, (q - 1) // 2, q) == 1:
        z += 1
    c, x, b = pow(z, odd, q), pow(t, (odd + 1) // 2, q), pow(t, odd, q)
    while b != 1:
        i, b2 = 0, b
        while b2 != 1:
            b2 = b2 * b2 % q
            i += 1
        g = pow(c, 1 << (e - i - 1), q)
        x, c, e = x * g % q, g * g % q, i
        b = b * c % q
    r = min(x, q - x)
    return (r, q - r)


def _holzer_search(
    coeffs: Sequence[int], primes: Sequence[Sequence[int]]
) -> Optional[Tuple[int, int, int]]:
    """Exhaustive search within the Holzer bounds for a x^2+b y^2+c z^2 = 0,
    with (a, b, c) = coeffs squarefree, pairwise coprime, mixed signs, and
    primes[i] the primes of coeffs[i]. A solvable form has a solution with
    |x| <= sqrt|bc|, |y| <= sqrt|ac|, |z| <= sqrt|ab|.

    The coordinate with the largest bound is solved for and the other two,
    (u, w), are enumerated in lexicographic order; the first solution found
    is returned. Only the w with cs | c1 u^2 + c2 w^2 are visited. For each
    prime q of the squarefree cs these are w = 0 mod q when q | u, and
    w = +-r u mod q with r^2 = -c1/c2 mod q otherwise. The roots are
    combined once by CRT into a set R of residues mod |cs| (0 mod each
    rootless q); the w classes at u are then u R mod |cs|, which is 0 mod
    every q that divides u.

    The rootless primes of all three coefficients sieve the box:
    - a q of cs with no root admits only the u it divides;
    - an odd p of c1 where -cs/c2 is no square mod p (cs r^2 + c2 w^2 = 0
      mod p) divides r and w of every solution, so p^2 divides c1 u^2 and,
      c1 being squarefree, p divides u too;
    - likewise an odd p of c2 where -cs/c1 is no square mod p divides r, u
      and w.
    u steps by the product of all of them. With P the product of the last
    two kinds, each w class mod |cs| becomes the one class mod |cs| P that
    is 0 mod P: w = P (u R' mod |cs|) with R' = R / P mod |cs|, stepped by
    |cs| P. A conic with a point has no rootless prime, so the sieve
    leaves its search as it is; an obstructed one with mixed signs has an
    odd obstructed prime (obstructed places come in even numbers, and the
    real place is not one), which is rootless, so it visits at most 1/p of
    its candidates. Each class is scanned in ascending w and the least hit
    over the classes is kept, which is the lexicographically first
    solution. Inputs past HOLZER_OUTER_LIMIT or HOLZER_CANDIDATE_LIMIT
    raise ValueError; the candidate count is taken before the sieve.
    """
    if 0 in coeffs:
        raise ValueError("the Holzer search needs nonzero coefficients")
    a, b, c = coeffs
    bounds = [math.isqrt(abs(b * c)), math.isqrt(abs(a * c)), math.isqrt(abs(a * b))]
    solve_idx = bounds.index(max(bounds))
    e1, e2 = [i for i in range(3) if i != solve_idx]
    cs, c1, c2 = coeffs[solve_idx], coeffs[e1], coeffs[e2]
    outer, inner = bounds[e1], bounds[e2]
    # |cs| is the smallest coefficient, so |cs| <= outer: the outer limit
    # also bounds the primes scanned below
    if outer > HOLZER_OUTER_LIMIT:
        raise ValueError(
            f"the conic search would run its outer loop to {outer}; "
            f"the limit is {HOLZER_OUTER_LIMIT}"
        )
    mod = abs(cs)
    qs = sorted(primes[solve_idx])
    # the sieve below reads every coefficient's primes
    if any(math.prod(ps) != abs(x) for x, ps in zip(coeffs, primes)) or (
        math.gcd(a, b) * math.gcd(a, c) * math.gcd(b, c) != 1
    ):
        raise ValueError("the Holzer search needs a squarefree, pairwise coprime form")
    # the root classes R mod |cs|, combined with the CRT idempotents
    # (1 mod q, 0 mod |cs|/q), and the product of the rootless primes
    classes, step = [0], 1
    for q in qs:
        roots = _sqrt_mod_prime(-c1 * pow(c2, -1, q) % q, q)
        if roots:
            cofactor = mod // q
            idem = cofactor * pow(cofactor, -1, q) % mod
            classes = [(x + r * idem) % mod for x in classes for r in roots]
        else:
            step *= q
    candidates = (outer + 1) * len(classes) * (inner // mod + 1)
    if candidates > HOLZER_CANDIDATE_LIMIT:
        raise ValueError(
            f"the conic search could visit {candidates} candidates; "
            f"the limit is {HOLZER_CANDIDATE_LIMIT}"
        )
    # the rootless odd primes of c1 and c2: Euler's criterion on -cs other,
    # which is -cs/other times the square other^2
    rootless = 1
    for k, other in ((e1, c2), (e2, c1)):
        for p in primes[k]:
            if p != 2 and pow(-cs * other % p, (p - 1) // 2, p) != 1:
                rootless *= p
    step *= rootless
    inverse = pow(rootless, -1, mod)
    classes = [x * inverse % mod for x in classes]
    w_step = mod * rootless
    isqrt = math.isqrt
    for u in range(0, outer + 1, step):
        c1uu = c1 * u * u
        least, hit = inner + 1, None
        for res in {u * x % mod * rootless for x in classes}:
            for w in range(res, least, w_step):
                num = -(c1uu + c2 * w * w)
                if num % cs:
                    raise AssertionError("the residue sieve admitted a w outside its classes")
                square = num // cs
                # (u, w) = (0, 0) gives the square 0, the one hit to skip
                if square >= 0:
                    r = isqrt(square)
                    if r * r == square and (u or w):
                        least, hit = w, r
                        break
        if hit is not None:
            sol = [0, 0, 0]
            sol[e1], sol[e2], sol[solve_idx] = u, least, hit
            return tuple(sol)
    return None


def _primitive(vec: Sequence[int]) -> Tuple[int, int, int]:
    """vec divided by the gcd of its entries, with a positive leading entry."""
    g = math.gcd(*vec)
    if g == 0:
        return (0, 0, 0)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


def _conic_point_and_places(
    m: Sequence[Sequence[Rat]],
) -> Tuple[Optional[Tuple[int, int, int]], Optional[List[Place]]]:
    """(point, places): `conic_rational_point(m)` and the places where the
    conic has no local point, or None for them when the conic is degenerate.

    The places are those of the reduced diagonal form; a change of
    coordinates and a scaling of the form keep local solvability, so they
    equal `local_obstructions` of any diagonalization of m.
    """
    return _point_and_places(*_integer_matrix(m))


def _point_and_places(
    a: IntMat3, delta: int
) -> Tuple[Optional[Tuple[int, int, int]], Optional[List[Place]]]:
    """`_conic_point_and_places` of M = A / delta."""
    cols, scales, b = _diagonalize(a)

    places: Optional[List[Place]] = None
    if 0 in b:
        # T e_idx lies on the conic, and column idx of T_i is a multiple of it
        out = _primitive(cols[b.index(0)])
    else:
        # diagonal entry i is b_i / q_i (q_i = s_i^2 delta) = num_i / den_i in
        # lowest terms; scaling coordinate i by den_i makes it the integer
        # num_i den_i = b_i den_i^2 / q_i
        qs = [sc * sc * delta for sc in scales]
        dens = [q // math.gcd(x, q) for x, q in zip(b, qs)]
        reduced, back, primes = _legendre_reduce(
            [x * d * d // q for x, d, q in zip(b, dens, qs)]
        )
        if all(x > 0 for x in reduced) or all(x < 0 for x in reduced):
            found = None
        else:
            found = _holzer_search(reduced, primes)
        # the one factorization of the reduced form feeds the search above
        # and the places here
        places = _obstructions(*reduced, _places(q for ps in primes for q in ps))
        if (found is None) != bool(places):
            raise AssertionError(
                "search and local symbols disagree on solvability"
            )
        if found is None:
            return None, places
        # T x = T_i (x_i / s_i): scaled by s_0 s_1 s_2, an integer combination
        # of the columns of T_i
        prod = scales[0] * scales[1] * scales[2]
        coeffs = [d * f * x * (prod // sc) for d, f, x, sc in zip(dens, back, found, scales)]
        out = _primitive([sum(c * col[r] for c, col in zip(coeffs, cols)) for r in range(3)])

    if _dot3(out, _matvec3(a, out)) != 0:
        raise AssertionError("computed point does not lie on the conic")
    if out == (0, 0, 0):
        raise AssertionError("point search produced the zero vector")
    return out, places


def conic_rational_point(
    m: Sequence[Sequence[Rat]],
) -> Optional[Tuple[int, int, int]]:
    """A primitive integer point on v^t M v = 0, or None when no rational
    point exists.

    Diagonalize, reduce to a squarefree pairwise-coprime diagonal form, then
    search exhaustively inside the Holzer bounds: an empty search there is a
    proof of unsolvability, which is cross-checked against the local symbol
    story (disagreement raises, since it would mean a bug, not mathematics).
    """
    return _conic_point_and_places(m)[0]


# ---------------------------------------------------------------------------
# the conic pencil

@dataclass(frozen=True)
class ConicSDR:
    """A 2x2 symmetric pencil for the conic: det(sum X_j M_j) = scale * F."""

    matrices: Tuple[Mat3, ...]  # three 2x2 matrices, stored as tuples
    scale: Fraction
    point: Tuple[int, int, int]

    def to_json(self) -> Dict[str, object]:
        def frac(q: Fraction) -> str:
            return f"{q.numerator}/{q.denominator}"

        return {
            "matrices": [
                [[frac(x) for x in row] for row in mj] for mj in self.matrices
            ],
            "scale": frac(self.scale),
            "point": list(self.point),
        }


def _second_conic_point(a: IntMat3, delta: int, p: Tuple[int, int, int]) -> Tuple[int, ...]:
    """delta s, for a rational point s of the conic M = A / delta that is
    independent of p and has p^t M s != 0.

    The first direction d in {-1, 0, 1}^3 with d^t M p != 0 gives it: the
    chord p + t d meets the conic again at s = (d^t M d) p - 2 (d^t M p) d,
    or at s = d when d^t M d = 0. Then s^t M s = 0, s is no multiple of p
    (p^t M p = 0 != d^t M p), and p^t M s is -2 (d^t M p)^2 or d^t M p.
    M is nonsingular, so M p != 0 and some unit vector d qualifies. On A,
    delta s = (d^t A d) p - 2 (d^t A p) d, or delta d.
    """
    ap = _matvec3(a, p)
    for d in itertools.product((-1, 0, 1), repeat=3):
        pad = _dot3(d, ap)
        if pad != 0:
            break
    dad = _dot3(d, _matvec3(a, d))
    if dad == 0:
        s = tuple(delta * x for x in d)
    else:
        s = tuple(dad * x - 2 * pad * y for x, y in zip(p, d))
    a_s = _matvec3(a, s)
    if _dot3(s, a_s) != 0 or not any(_cross(p, s)) or _dot3(p, a_s) == 0:
        raise AssertionError("chord point fails the conic-point checks")
    return s


def conic_sdr(
    m: Sequence[Sequence[Rat]], point: Optional[Tuple[int, int, int]] = None
) -> ConicSDR:
    """Express a smooth conic with a rational point as det of a linear pencil
    of symmetric 2x2 matrices, verified exactly.

    Frame: a point P on the conic, a second point S, and the pole R of the
    line PS. In that frame the form is F(R) (Y^2 - XZ) after scaling the S
    column by -F(R) / (2 P^t M S), and XZ - Y^2 is det of the standard
    pencil; pulling back along the inverse frame gives the matrices.

    P is `point` when given (a caller that already ran
    `conic_rational_point(m)` passes its answer, which is checked to lie on
    the conic), else `conic_rational_point(m)`.

    Everything runs on A = delta M. With D = det A and S_A = delta S, the pole
    is R = adj(A) (P x S_A) / D; with F = R_A^t A R_A for R_A = D R and
    Q = P^t A S_A, the frame is (P | R_A | S_A) diag(1, 1/D, -F / (2 D^2 Q))
    and scale = -D^2 delta / F. Only the returned values become Fractions.
    """
    a, delta = _integer_matrix(m)
    adj_a, det_a = _adjugate(*a)  # A is symmetric: its rows are its columns
    if det_a == 0:
        raise ValueError("conic is degenerate")
    if point is None:
        p = _point_and_places(a, delta)[0]
        if p is None:
            raise ValueError("conic has no rational point, so no pencil over Q")
    else:
        p = tuple(point)
        # bool is an int subclass: (True, False, False) is no integer point
        if len(p) != 3 or not all(type(x) is int for x in p) or p == (0, 0, 0):
            raise ValueError("point must be a nonzero integer triple")
        if _dot3(p, _matvec3(a, p)) != 0:
            raise ValueError("point does not lie on the conic")
    s = _second_conic_point(a, delta, p)
    r = _matvec3(adj_a, _cross(p, s))
    f_r = _dot3(r, _matvec3(a, r))
    if f_r == 0:
        raise AssertionError("pole of the chord lies on the conic")
    pms = _dot3(p, _matvec3(a, s))
    adj, e = _adjugate(p, r, s)
    if e == 0:
        raise AssertionError("the pencil frame is singular")
    # M_j = [[X_j, Y_j], [Y_j, Z_j]] from column j of the inverse frame, whose
    # rows are adj[0] / e, D adj[1] / e and -2 D^2 Q adj[2] / (F e): over the
    # common denominator den = F e the numerators are xs, ys, zs
    den = f_r * e
    xs = [f_r * x for x in adj[0]]
    ys = [f_r * det_a * x for x in adj[1]]
    zs = [-2 * det_a * det_a * pms * x for x in adj[2]]
    scale_num, scale_den = -det_a * det_a * delta, f_r

    # det(sum x_j M_j) = sum_jk x_j x_k ((X_j Z_k + X_k Z_j) / 2 - Y_j Y_k); a
    # quadratic form fixes its symmetric matrix, so compare that matrix with
    # scale M = scale A / delta, both multiplied by 2 den^2 scale_den delta
    if any(
        scale_den * delta * (xs[j] * zs[k] + xs[k] * zs[j] - 2 * ys[j] * ys[k])
        != 2 * scale_num * den * den * a[j][k]
        for j in range(3)
        for k in range(3)
    ):
        raise AssertionError("pencil determinant does not match the conic")
    x_f, y_f, z_f = ([Fraction(x, den) for x in v] for v in (xs, ys, zs))
    matrices = tuple(((x_f[j], y_f[j]), (y_f[j], z_f[j])) for j in range(3))
    return ConicSDR(matrices=matrices, scale=Fraction(scale_num, scale_den), point=p)


# ---------------------------------------------------------------------------
# cubics: rational roots and local root densities

def cubic_discriminant(a: Rat, b: Rat) -> Fraction:
    """Discriminant of X^3 + a X + b."""
    a, b = Fraction(a), Fraction(b)
    return -4 * a ** 3 - 27 * b ** 2


def _divisors(n: int) -> List[int]:
    out = [1]
    for p, e in _factor(n).items():
        out = [d * p ** i for d in out for i in range(e + 1)]
    return sorted(out)


def cubic_rational_roots(a: Rat, b: Rat) -> List[Fraction]:
    """All rational roots of X^3 + a X + b, exactly.

    Scale x = y/d to reach a monic integer cubic; its rational roots are
    integers dividing the constant term.
    """
    a, b = Fraction(a), Fraction(b)
    d = math.lcm(a.denominator, b.denominator)
    p = a * d * d
    q = b * d ** 3
    if p.denominator != 1 or q.denominator != 1:
        raise AssertionError("scaling by the common denominator left a fraction")
    pi, qi = int(p), int(q)
    roots = set()
    if qi == 0:
        roots.add(0)
        if pi < 0:
            r = math.isqrt(-pi)
            if r * r == -pi:
                roots.update((r, -r))
    else:
        for cand in _divisors(abs(qi)):
            for y in (cand, -cand):
                if y ** 3 + pi * y + qi == 0:
                    roots.add(y)
    out = sorted(Fraction(y, d) for y in roots)
    for x in out:
        if x ** 3 + a * x + b != 0:
            raise AssertionError("root verification failed")
    return out


def _separable_discriminant(a: Rat, b: Rat) -> Fraction:
    disc = cubic_discriminant(a, b)
    if disc == 0:
        raise ValueError("repeated roots: the cubic is not separable")
    return disc


def _splitting_label(disc: Fraction, roots: Sequence[Fraction]) -> str:
    """galois_image from the nonzero discriminant and the rational roots."""
    if len(roots) == 3:
        return "trivial"
    if len(roots) == 1:
        return "C2"
    if len(roots) != 0:
        raise AssertionError("a cubic cannot have exactly two rational roots")
    if disc > 0:
        num, den = disc.numerator, disc.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return "C3"
    return "S3"


def galois_image(a: Rat, b: Rat) -> str:
    """Splitting behaviour of X^3 + a X + b: 'trivial' (splits), 'C2' (one
    rational root), 'C3' (irreducible, square discriminant) or 'S3'."""
    disc = _separable_discriminant(a, b)
    return _splitting_label(disc, cubic_rational_roots(a, b))


EXPECTED_ROOT_DENSITY: Dict[str, Fraction] = {
    "trivial": Fraction(1),
    "C2": Fraction(1),
    "C3": Fraction(1, 3),
    "S3": Fraction(2, 3),
}


def _cubic_square_disc_has_root(p: int, a: int, b: int) -> bool:
    """Does X^3 + aX + b have a root mod p, given that its discriminant
    D = -4a^3 - 27b^2 is a nonzero square mod p (p > 3)? Then it has 0 or 3.

    For a = 0 that is whether -b is a cube (D = -27b^2 is then a square only
    when p = 1 mod 3). For a != 0 use Cardano: the roots are u + v with
    uv = -a/3 and u^3 = w = (-b + sqrt(-D/27))/2, whose conjugate w'
    satisfies w w' = (-a/3)^3. The roots lie in F_p exactly when w is a cube
    in K = F_p(sqrt(-3D)), which is F_p for p = 1 mod 3 and F_p^2 for
    p = 2 mod 3. Put z = w'/w and k = (p - 1)/3 or (p + 1)/3 respectively;
    since the norm of w is a cube, w is a cube in K exactly when z^k = 1 (for
    p = 2 mod 3, z^k is w^((p^2 - 1)/3)). Now z + 1/z = P = 2 + D/a^3, so
    z^k + z^-k is the Lucas term V_k(P, 1) (V_0 = 2, V_1 = P, V_(j+1) =
    P V_j - V_(j-1)), and z^k = 1 exactly when V_k = 2, since V_k - 2 =
    (z^k - 1)^2 / z^k. V_k is read off a Montgomery ladder over the bits of k.
    """
    if a % p == 0:
        return pow(-b % p, (p - 1) // 3, p) == 1
    d = -4 * a * a * a - 27 * b * b
    big_p = (2 + d * pow(a, -3, p)) % p
    k = (p + 1) // 3  # (p - 1)/3 when p = 1 mod 3
    # (v0, v1) = (V_j, V_(j+1)); V_2j = V_j^2 - 2, V_(2j+1) = V_j V_(j+1) - P
    v0, v1 = 2, big_p
    for bit in bin(k)[2:]:
        if bit == "1":
            v0, v1 = (v0 * v1 - big_p) % p, (v1 * v1 - 2) % p
        else:
            v0, v1 = (v0 * v0 - 2) % p, (v0 * v1 - big_p) % p
    return v0 == 2


# The sieve holds one byte per integer up to the bound, and the primes are
# read off it without a list. At this size a density takes up to about 3 s
# at a peak RSS of 32 MB, 14 MB above the bare import (2 vCPU Xeon, Python
# 3.11, three runs each; the time at 10^6 in brackets). The Lucas ladder runs only for an
# S3 cubic with a != 0, at each prime of the classes where (d|p) = 1:
# x^3 - x - 1 took 2.4-2.7 s (0.21-0.29 s). With a = 0 one pow per such
# prime decides it: x^3 - 2 took 0.62-0.64 s (0.05-0.08 s). x^3 - 3x + 1
# (square discriminant, period 9: nine ladders and nine slice counts) took
# 0.08-0.10 s (6-8 ms), most of it the sieve.
DENSITY_BOUND_LIMIT = 10 ** 7


@dataclass(frozen=True)
class DensityReport:
    a: Fraction
    b: Fraction
    prime_bound: int
    primes_counted: int
    primes_with_root: int
    skipped: Tuple[int, ...]

    @property
    def density(self) -> float:
        return self.primes_with_root / self.primes_counted

    def to_json(self) -> Dict[str, object]:
        return {
            "a": f"{self.a.numerator}/{self.a.denominator}",
            "b": f"{self.b.numerator}/{self.b.denominator}",
            "prime_bound": self.prime_bound,
            "primes_counted": self.primes_counted,
            "primes_with_root": self.primes_with_root,
            "density": self.density,
            "skipped": list(self.skipped),
        }


def cubic_local_root_density(a: Rat, b: Rat, prime_bound: int) -> DensityReport:
    """Fraction of primes p <= bound (away from 6, the discriminant, and the
    denominators) where X^3 + a X + b has a root mod p.

    By the density theorem for Frobenius classes this converges to the
    proportion of the splitting group with a fixed point: 1 for a rational
    root, 1/3 for 'C3', 2/3 for 'S3'.

    The primes are taken one residue class at a time, mod a period that
    fixes what the class's primes do. Write D = d s^2 with d the squarefree
    kernel of D's square class and s rational.

    If d != 1, the period is 4|d|. At a counted p, (D|p) = (d|p). Write
    d = (+-1) 2^e q_1 ... q_r with e in {0, 1} and odd primes q_i. Then
    (-1|p) depends on p mod 4, (2|p) = (-1)^((p^2 - 1)/8) on p mod 8, and by
    quadratic reciprocity (q_i|p) = (p|q_i) (-1)^((p - 1)/2 (q_i - 1)/2) on
    p mod 4 q_i. So (d|p) is fixed by p mod 4|d| (8 |d/2| = 4|d| when
    e = 1). Where (d|p) = -1 there is exactly one root, since by
    Stickelberger (D|p) = (-1)^(3-r), r the number of irreducible factors of
    X^3 + a X + b mod p; in the other classes _cubic_square_disc_has_root
    decides between 0 and 3 at each prime.

    If d = 1 (square discriminant), the splitting field K is abelian, of
    degree 3 or 1. By Kronecker-Weber K lies in a cyclotomic field
    Q(zeta_f), f the conductor, so Frobenius at p, and with it whether
    X^3 + a X + b has a root mod p, depends only on p mod f. Put x = y/t,
    t the least positive integer with a t^2 and b t^3 integral:
    y^3 + a t^2 y + b t^3 is a monic integral model with discriminant
    t^6 D = F^2. By the conductor-discriminant
    formula the discriminant of K is f^2 (1 when K = Q), and the model's
    discriminant is the square of its index in the ring of integers times
    disc(K). So F = index * f is a multiple of f, and F is the period: one
    ladder at the first counted prime of a class decides all of its primes.

    With a period of at most isqrt(bound), each class is read as a slice
    sieve[c::period], whose primes are counted at once; larger periods
    take Euler's criterion and the ladder at each prime.
    """
    if prime_bound > DENSITY_BOUND_LIMIT:
        raise ValueError(
            f"prime bound {prime_bound} is above the sampling limit {DENSITY_BOUND_LIMIT}"
        )
    a, b = Fraction(a), Fraction(b)
    disc = _separable_discriminant(a, b)
    num_factors = _factor(disc.numerator)
    # the primes of disc.denominator are among those of a's and b's
    den_primes = set(_factor(a.denominator)) | set(_factor(b.denominator))
    d = 1 if disc > 0 else -1
    for q, e in num_factors.items():
        if e % 2:
            d *= q
    for q in den_primes:
        if _split_valuation(disc.denominator, q)[0] % 2:
            d *= q
    bad = {2, 3} | num_factors.keys() | den_primes
    skipped = sorted(q for q in bad if q <= prime_bound)
    sieve = _prime_sieve(prime_bound)
    for q in skipped:
        sieve[q] = 0
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator

    if an == 0:
        # X^3 + b has a root where -b is a cube, so where -b bd^3 is: one pow
        cube = -bn * bd * bd

        def has_root(p: int) -> bool:
            return pow(cube, (p - 1) // 3, p) == 1

    else:

        def has_root(p: int) -> bool:
            ai = an * pow(ad, -1, p) % p if ad != 1 else an % p
            bi = bn * pow(bd, -1, p) % p if bd != 1 else bn % p
            return _cubic_square_disc_has_root(p, ai, bi)

    if d == 1:
        t = 1  # the least t with ad | t^2 and bd | t^3
        for q in den_primes:
            t *= q ** max(
                -(-_split_valuation(ad, q)[0] // 2), -(-_split_valuation(bd, q)[0] // 3)
            )
        period = math.isqrt(int(cubic_discriminant(a * t * t, b * t ** 3)))
    else:
        period = 4 * abs(d)
    with_root = 0
    if period > math.isqrt(prime_bound):
        for p in itertools.compress(range(prime_bound + 1), sieve):
            if pow(d, (p - 1) // 2, p) != 1 or has_root(p):
                with_root += 1
    else:
        for c in range(period):
            primes = sieve[c::period]
            first = primes.find(1)
            if first < 0:
                continue
            p = c + first * period
            if pow(d, (p - 1) // 2, p) != 1:  # one root at each prime
                with_root += primes.count(1)
            elif d == 1:  # abelian: the first prime decides the class
                with_root += primes.count(1) if has_root(p) else 0
            else:  # S3: Frobenius is not read off p mod the period
                walk = itertools.compress(range(c, prime_bound + 1, period), primes)
                with_root += sum(map(has_root, walk))
    return DensityReport(
        a=a,
        b=b,
        prime_bound=prime_bound,
        primes_counted=sieve.count(1),
        primes_with_root=with_root,
        skipped=tuple(skipped),
    )


def cubic_local_global_verdict(a: Rat, b: Rat, prime_bound: int) -> Dict[str, object]:
    """Pack the global picture (rational roots, splitting class) next to the
    sampled local picture, with the exact implication flags the sweep tests
    rely on: a rational root forces a root at every counted prime."""
    roots = cubic_rational_roots(a, b)
    label = _splitting_label(_separable_discriminant(a, b), roots)
    report = cubic_local_root_density(a, b, prime_bound)
    expected = EXPECTED_ROOT_DENSITY[label]
    has_global = bool(roots)
    return {
        "a": str(Fraction(a)),
        "b": str(Fraction(b)),
        "global_roots": [str(r) for r in roots],
        "splitting": label,
        "expected_density": f"{expected.numerator}/{expected.denominator}",
        "report": report.to_json(),
        "global_implies_local": (not has_global)
        or report.primes_with_root == report.primes_counted,
        "density_gap": abs(report.density - float(expected)),
    }


# ---------------------------------------------------------------------------
# quartic fixtures

Monomial = Tuple[int, int, int]

COUNTEREXAMPLE_QUARTICS: Dict[str, Dict[Monomial, int]] = {
    # X0 X2^3 + X2 (X0^3 + X0^2 X1 + X1^3) + X0^4 + X0^3 X1 + X0^2 X1^2 + X1^4
    "quartic-a": {
        (1, 0, 3): 1,
        (3, 0, 1): 1,
        (2, 1, 1): 1,
        (0, 3, 1): 1,
        (4, 0, 0): 1,
        (3, 1, 0): 1,
        (2, 2, 0): 1,
        (0, 4, 0): 1,
    },
    # X0^2 X1^2 - X0 X1^3 - X0^3 X2 - 2 X0^2 X2^2 + X1^2 X2^2 - X0 X2^3 + X1 X2^3
    "quartic-b": {
        (2, 2, 0): 1,
        (1, 3, 0): -1,
        (3, 0, 1): -1,
        (2, 0, 2): -2,
        (0, 2, 2): 1,
        (1, 0, 3): -1,
        (0, 1, 3): 1,
    },
}


def quartic_value(coeffs: Dict[Monomial, Rat], point: Sequence[Rat]) -> Fraction:
    p = [Fraction(x) for x in point]
    total = Fraction(0)
    for (i, j, k), c in coeffs.items():
        if i + j + k != 4:
            raise ValueError(f"monomial {(i, j, k)} is not degree 4")
        total += Fraction(c) * p[0] ** i * p[1] ** j * p[2] ** k
    return total


def quartic_point_check(coeffs: Dict[Monomial, Rat], point: Sequence[Rat]) -> bool:
    """Exact projective vanishing check; the zero vector is rejected."""
    p = [Fraction(x) for x in point]
    if all(x == 0 for x in p):
        raise ValueError("the zero vector is not a projective point")
    return quartic_value(coeffs, point) == 0
