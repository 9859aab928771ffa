"""Independent verifiers for the closed-form arithmetic.

Everything here re-derives its answers from searches and first-principles
valuation arguments, deliberately avoiding the epsilon/omega exponent
formulas in `localglobal`, so the two implementations can referee each
other in the test suite. A True from `anisotropic_mod` is a proof (no
primitive solution at that precision means none over the p-adics); a False
only exhibits a solution at that precision.

`anisotropic_mod` is the one search for primitive zeros mod p^k. The
value of a x^2 + b y^2 + c z^2 mod p^k depends on x only through the class
(x^2 mod p^k, p does not divide x), so the search runs over those classes
instead of over all residues (44 classes instead of 256 residues mod 2^8).
The 2-adic Hilbert symbol is that search on the ternary form <a, b, -1>.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, Tuple, Union

__all__ = [
    "squarefree_part",
    "hilbert_symbol_by_search",
    "anisotropic_mod",
]

Rat = Union[int, Fraction]
_REAL = "real"

# The searches scan F_p, run over pairs of square classes mod p^k and
# factor by trial division, so their inputs are bounded (times on a 2-vCPU
# Xeon, Python 3.11): at p = 10^6 a scan of F_p takes about 0.6 s and
# 70 MB; up to SEARCH_MODULUS_LIMIT an anisotropic form makes
# `anisotropic_mod` visit every pair of its at most about p^k / 2 square
# classes, about 0.5 s at 61^2 = 3721 (1831 classes); trial division of
# 10^14 takes about 1 s.
SEARCH_PRIME_LIMIT = 10**6
SEARCH_MODULUS_LIMIT = 2**12
SEARCH_SIZE_LIMIT = 10**14


def _factor(n: int) -> Dict[int, int]:
    n = abs(n)
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_part(n: Rat) -> int:
    """The squarefree integer in the square class of the nonzero rational."""
    q = Fraction(n)
    if q == 0:
        raise ValueError("zero has no square class")
    m = q.numerator * q.denominator
    out = 1 if m > 0 else -1
    for p, e in _factor(m).items():
        if e % 2:
            out *= p
    return out


def _smooth_point_mod_p(a: int, b: int, p: int) -> Tuple[int, int, int]:
    """A solution of a x^2 + b y^2 = z^2 mod p (a, b units, p odd) at which
    some partial derivative is a unit. One always exists: the form is
    nondegenerate in three variables over F_p."""
    sqrt_of = {}
    for z in range((p + 1) // 2):
        sqrt_of.setdefault(z * z % p, z)
    for x in range(p):
        ax2 = a * x * x % p
        for y in range(p):
            z = sqrt_of.get((ax2 + b * y * y) % p)
            if z is None:
                continue
            if x % p == 0 and y % p == 0 and z % p == 0:
                continue
            if (a * x) % p or (b * y) % p or z % p:
                return x, y, z
    raise AssertionError("no smooth point on a nondegenerate ternary form")


def hilbert_symbol_by_search(a: Rat, b: Rat, place: Union[int, str]) -> int:
    """(a, b)_v computed without the exponent formulas.

    Real place: sign analysis. p = 2: exhaustive primitive search mod 2^8.
    Odd p: a certified smooth point mod p for the solvable cases, and the
    valuation descent (a nonsquare unit forces every coordinate into pZ_p)
    for the unsolvable ones.

    Raises ValueError when p exceeds SEARCH_PRIME_LIMIT or the numerator
    times the denominator of a or b exceeds SEARCH_SIZE_LIMIT in size.
    """
    for x in (a, b):
        q = Fraction(x)
        if abs(q.numerator * q.denominator) > SEARCH_SIZE_LIMIT:
            raise ValueError(
                f"the search oracle takes |numerator * denominator| <= "
                f"{SEARCH_SIZE_LIMIT}, got {q}"
            )
    is_real = isinstance(place, str) and place.lower() in (_REAL, "inf", "oo", "infinity")
    if not is_real and int(place) > SEARCH_PRIME_LIMIT:
        raise ValueError(
            f"the search oracle takes places p <= {SEARCH_PRIME_LIMIT}, got {place}"
        )
    a0 = squarefree_part(a)
    b0 = squarefree_part(b)
    if is_real:
        # a x^2 + b y^2 = z^2 over R: impossible only when both are negative
        return -1 if a0 < 0 and b0 < 0 else 1
    return _search_squarefree(a0, b0, int(place))


def _search_squarefree(a0: int, b0: int, p: int) -> int:
    """(a0, b0)_p for squarefree a0, b0 at a prime place p."""
    if p == 2:
        # a x^2 + b y^2 = z^2 is the ternary form <a, b, -1>. A primitive
        # solution mod 2^8 always lifts: some coordinate is odd, its partial
        # derivative has 2-valuation at most 2, and Newton's lemma needs
        # vanishing only mod 2^5. Conversely a 2-adic solution scales to a
        # primitive one and reduces.
        return -1 if anisotropic_mod(a0, b0, -1, 2, 8) else 1
    if not _is_small_prime(p):
        raise ValueError(f"not a place: {p}")

    alpha, u = (1, a0 // p) if a0 % p == 0 else (0, a0)
    beta, w = (1, b0 // p) if b0 % p == 0 else (0, b0)
    if alpha and beta:
        # (a, b) = (a, -ab) up to squares, and -a0 b0 / p^2 = -u w is a unit;
        # its squarefree part is -(u/g)(w/g) with g = gcd(u, w), as u and w
        # are squarefree, so nothing is factored again
        g = math.gcd(u, w)
        return _search_squarefree(a0, -(u // g) * (w // g), p)
    if not alpha and not beta:
        x, y, z = _smooth_point_mod_p(u % p, w % p, p)
        if (u * x * x + w * y * y - z * z) % p:
            raise AssertionError("the smooth point mod p is not a solution")
        return 1
    if alpha:  # symmetric; put the unit first
        u, w = w, u
    # now a = u (unit), b = p w: solvable iff u is a square mod p.
    sq = {z * z % p for z in range(p)}
    if u % p in sq:
        zz = next(z for z in range(p) if z * z % p == u % p)
        if zz % p == 0:
            raise AssertionError("the square root of a unit is 0 mod p, so the point is not smooth")
        return 1
    # u a nonsquare: mod p forces x = z = 0 (p), then p w y^2 = z^2 - u x^2
    # has valuation >= 2 on the right, so y = 0 (p) too: no primitive zero.
    return -1


def _is_small_prime(p: int) -> bool:
    """Trial division; callers bound p first."""
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


@functools.lru_cache(maxsize=8)
def _square_classes(p: int, k: int) -> Tuple[Tuple[int, bool], ...]:
    """The distinct pairs (x^2 mod p^k, p does not divide x) over all x."""
    n = p**k
    return tuple(sorted({(x * x % n, x % p != 0) for x in range(n)}))


def anisotropic_mod(a: int, b: int, c: int, p: int, k: int) -> bool:
    """True when a x^2 + b y^2 + c z^2 = 0 has no primitive solution mod
    p^k (primitive: not all three divisible by p). True proves the form is
    anisotropic over Q_p; False only exhibits a solution at this precision.

    Raises ValueError unless p is prime, k >= 1 and p^k <= SEARCH_MODULUS_LIMIT.
    """
    if k < 1:
        raise ValueError(f"the search needs a precision k >= 1, got {k}")
    # for p >= 2, p^k <= the limit forces k below its bit length, so this
    # power stays small even for a huge k, and trial division sees a small p
    if p ** min(k, SEARCH_MODULUS_LIMIT.bit_length()) > SEARCH_MODULUS_LIMIT:
        raise ValueError(
            f"the search takes moduli p^k <= {SEARCH_MODULUS_LIMIT}, got {p}^{k}"
        )
    if not _is_small_prime(p):
        raise ValueError(f"not a prime: {p}")
    n = p**k
    classes = _square_classes(p, k)
    cz_any = {c * s % n for s, _ in classes}
    cz_unit = {c * s % n for s, unit in classes if unit}
    by2 = [(b * sy, y_unit) for sy, y_unit in classes]
    for sx, x_unit in classes:
        ax2 = a * sx
        for b_sy, y_unit in by2:
            v = (-(ax2 + b_sy)) % n
            if v in (cz_any if x_unit or y_unit else cz_unit):
                return False
    return True
