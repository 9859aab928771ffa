"""Independent verifiers for the closed-form arithmetic.

Everything here re-derives its answers from searches and first-principles
valuation arguments, deliberately avoiding the epsilon/omega exponent
formulas in `localglobal`, so the two implementations can referee each
other in the test suite. A True from `anisotropic_mod` is a proof (no
primitive solution at that precision means none over the p-adics); a False
only exhibits a solution at that precision.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

__all__ = [
    "squarefree_part",
    "hilbert_symbol_by_search",
    "anisotropic_mod",
]

Rat = Union[int, Fraction]
_REAL = "real"

# The search scans F_p and factors by trial division, so its inputs are
# bounded: at p = 10^6 a scan takes about 0.6 s and 70 MB, and trial
# division of 10^14 about 1 s.
SEARCH_PRIME_LIMIT = 10**6
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


def _search_mod_256(a: int, b: int) -> int:
    """2-adic solvability of a x^2 + b y^2 = z^2 for squarefree a, b.

    A primitive solution mod 2^8 always lifts: some coordinate is odd, its
    partial derivative has 2-valuation at most 2, and Newton's lemma needs
    vanishing only mod 2^5. Conversely a 2-adic solution scales to a
    primitive one and reduces.
    """
    mod = 256
    sq_any = set()
    sq_odd = set()
    for z in range(mod):
        s = z * z % mod
        sq_any.add(s)
        if z % 2:
            sq_odd.add(s)
    for x in range(mod):
        ax2 = a * x * x % mod
        for y in range(mod):
            v = (ax2 + b * y * y) % mod
            if x % 2 or y % 2:
                if v in sq_any:
                    return 1
            elif v in sq_odd:
                return 1
    return -1


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
        return _search_mod_256(a0, b0)
    if p < 3 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
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
        assert (u * x * x + w * y * y - z * z) % p == 0
        return 1
    if alpha:  # symmetric; put the unit first
        u, w = w, u
    # now a = u (unit), b = p w: solvable iff u is a square mod p.
    sq = {z * z % p for z in range(p)}
    if u % p in sq:
        zz = next(z for z in range(p) if z * z % p == u % p)
        assert zz % p != 0  # smooth: the z-partial is a unit
        return 1
    # u a nonsquare: mod p forces x = z = 0 (p), then p w y^2 = z^2 - u x^2
    # has valuation >= 2 on the right, so y = 0 (p) too: no primitive zero.
    return -1


def anisotropic_mod(a: int, b: int, c: int, p: int, k: int) -> bool:
    """True when a x^2 + b y^2 + c z^2 = 0 has no primitive solution mod
    p^k (primitive: not all three divisible by p). True proves the form is
    anisotropic over Q_p; False only exhibits a solution at this precision.
    """
    n = p ** k
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
