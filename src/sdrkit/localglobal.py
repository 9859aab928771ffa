"""Local-global arithmetic: Hilbert symbols, conics and their 2x2 pencils,
cubic root densities, and the quartic fixtures.

Everything here is exact: Fractions throughout, integer searches with proven
bounds (Holzer) for conic points, and value-table checks for the pencil
identities. Floating point appears only in reported densities.
"""
from __future__ import annotations

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
    "Poly3",
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

def primes_upto(n: int) -> List[int]:
    """Sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


# No composite below psi_13 is a strong pseudoprime to all of the first 13
# prime bases (Sorenson and Webster, Math. Comp. 86 (2017)), so Miller-Rabin
# on these bases decides primality exactly below it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981  # psi_13, about 3.317e24

# Trial division runs to sqrt(|n|): about a second at this size.
FACTOR_LIMIT = 10 ** 14


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < MILLER_RABIN_LIMIT; larger n raise
    ValueError rather than get a probabilistic answer."""
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
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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
    """Trial-division factorization of |n| <= FACTOR_LIMIT; larger |n|
    raise ValueError."""
    n = abs(n)
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
    """An integer in the same square class as the nonzero rational a."""
    q = Fraction(a)
    if q == 0:
        raise ValueError("symbols need nonzero arguments")
    return q.numerator * q.denominator


def legendre(u: int, p: int) -> int:
    """(u | p) for odd prime p and u prime to p."""
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
    if not is_prime(place):
        raise ValueError(f"place must be a prime or 'real', got {place}")
    return place


def hilbert_symbol(a: Rat, b: Rat, place: Place) -> int:
    """(a, b)_v in {+1, -1}: whether a x^2 + b y^2 = z^2 has a nontrivial
    solution over the completion at v.

    Closed forms: at the real place, -1 exactly when both arguments are
    negative. At odd p, with a = p^alpha u and b = p^beta w (u, w units),
    (-1)^(alpha beta (p-1)/2) (u|p)^beta (w|p)^alpha. At 2, with odd parts
    u, w: (-1)^(eps(u) eps(w) + alpha omega(w) + beta omega(u)) where
    eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 mod 2.
    """
    place = _normalize_place(place)
    ai = _square_class_int(a)
    bi = _square_class_int(b)
    if place == REAL_PLACE:
        return -1 if ai < 0 and bi < 0 else 1
    p = place
    alpha, u = _split_valuation(ai, p)
    beta, w = _split_valuation(bi, p)
    if p == 2:
        eps_u = ((u % 8) - 1) // 2 % 2
        eps_w = ((w % 8) - 1) // 2 % 2
        omega_u = (u % 8) in (3, 5)
        omega_w = (w % 8) in (3, 5)
        exp = eps_u * eps_w + alpha * omega_w + beta * omega_u
        return -1 if exp % 2 else 1
    sign = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2 and legendre(u, p) == -1:
        sign = -sign
    if alpha % 2 and legendre(w, p) == -1:
        sign = -sign
    return sign


def _relevant_places(values: Iterable[int]) -> List[Place]:
    primes = {2}
    for v in values:
        primes.update(_factor(v))
    return sorted(primes) + [REAL_PLACE]


def hilbert_reciprocity_check(a: Rat, b: Rat) -> bool:
    """Product of (a,b)_v over all places is +1; the symbol is 1 outside
    the primes dividing the arguments (and 2 and the real place)."""
    ai, bi = _square_class_int(a), _square_class_int(b)
    prod = 1
    for place in _relevant_places((ai, bi)):
        prod *= hilbert_symbol(ai, bi, place)
    return prod == 1


def local_obstructions(a: Rat, b: Rat, c: Rat) -> List[Place]:
    """Places where a x^2 + b y^2 + c z^2 = 0 has no nontrivial solution.

    The diagonal conic is locally isotropic at v exactly when
    (-ac, -bc)_v = +1. Only 2, the real place, and odd primes dividing the
    coefficients can obstruct. The returned list is primes ascending, with
    the real place last; the full symbol product is checked against
    reciprocity before returning. The places dividing -ac and -bc are those
    dividing a, b or c, so the coefficients are factored, not the products.
    """
    ai, bi, ci = (_square_class_int(x) for x in (a, b, c))
    first, second = -ai * ci, -bi * ci
    places = _relevant_places((ai, bi, ci))
    symbols = [hilbert_symbol(first, second, place) for place in places]
    if math.prod(symbols) != 1:
        raise AssertionError("reciprocity failed; symbol computation is broken")
    return [place for place, s in zip(places, symbols) if s == -1]


# ---------------------------------------------------------------------------
# conics: rational points

Mat3 = Tuple[Tuple[Fraction, ...], ...]


def _to_mat3(m: Sequence[Sequence[Rat]]) -> Mat3:
    rows = tuple(tuple(Fraction(x) for x in row) for row in m)
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("expected a 3x3 matrix")
    for i in range(3):
        for j in range(3):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix is not symmetric")
    return rows


def _mat_mul3(a: Mat3, b: Mat3) -> Mat3:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _mat_T(a: Mat3) -> Mat3:
    return tuple(tuple(a[j][i] for j in range(3)) for i in range(3))


def _matvec3(a: Mat3, v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))


def _dot3(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum(x * y for x, y in zip(u, v))


def _det3(a: Mat3) -> Fraction:
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def _identity3() -> List[List[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


def diagonalize_symmetric(m: Sequence[Sequence[Rat]]) -> Tuple[Mat3, Tuple[Fraction, ...]]:
    """Congruence transform T with T^t M T diagonal; returns (T, diagonal).

    Pivots prefer a nonzero diagonal entry; failing that, a nonzero
    off-diagonal entry is symmetrized by a column addition (characteristic
    zero, so 2 M_ij lands on the diagonal).
    """
    mm = [list(row) for row in _to_mat3(m)]
    t = _identity3()

    def col_op_add(dst: int, src: int, factor: Fraction) -> None:
        # column dst += factor * column src, applied congruently
        for r in range(3):
            mm[r][dst] += factor * mm[r][src]
        for c in range(3):
            mm[dst][c] += factor * mm[src][c]
        for r in range(3):
            t[r][dst] += factor * t[r][src]

    def col_swap(i: int, j: int) -> None:
        for r in range(3):
            mm[r][i], mm[r][j] = mm[r][j], mm[r][i]
        for c in range(3):
            mm[i][c], mm[j][c] = mm[j][c], mm[i][c]
        for r in range(3):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    for k in range(3):
        if mm[k][k] == 0:
            pivot = next((l for l in range(k + 1, 3) if mm[l][l] != 0), None)
            if pivot is not None:
                col_swap(k, pivot)
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
                col_op_add(i, j, Fraction(1))
                if i != k:
                    col_swap(k, i)
        for j in range(k + 1, 3):
            if mm[k][j] != 0:
                col_op_add(j, k, -mm[k][j] / mm[k][k])

    tt = tuple(tuple(row) for row in t)
    check = _mat_mul3(_mat_T(tt), _mat_mul3(_to_mat3(m), tt))
    for i in range(3):
        for j in range(3):
            if i != j and check[i][j] != 0:
                raise AssertionError("diagonalization left an off-diagonal entry")
            if i == j and check[i][j] != mm[i][i]:
                raise AssertionError("diagonalization bookkeeping mismatch")
    return tt, tuple(mm[i][i] for i in range(3))


def _squarefree_split(n: int) -> Tuple[int, int]:
    """n = squarefree * square; returns (squarefree, sqrt of square)."""
    sf, rt = 1 if n > 0 else -1, 1
    for p, e in _factor(n).items():
        if e % 2:
            sf *= p
        rt *= p ** (e // 2)
    return sf, rt


def _legendre_reduce(
    coeffs: List[int],
) -> Tuple[List[int], List[List[Fraction]]]:
    """Reduce a diagonal integer conic to squarefree pairwise-coprime shape.

    Returns the reduced coefficients and a transform S mapping reduced
    solutions to solutions of the input (as a rational diagonal-ish matrix).
    """
    s = _identity3()

    def scale_col(idx: int, factor: Fraction) -> None:
        for r in range(3):
            s[r][idx] *= factor

    work = list(coeffs)
    changed = True
    while changed:
        changed = False
        g = math.gcd(math.gcd(abs(work[0]), abs(work[1])), abs(work[2]))
        if g > 1:
            work = [x // g for x in work]
            changed = True
        for idx in range(3):
            sf, rt = _squarefree_split(work[idx])
            if rt != 1:
                # coeff = sf * rt^2: solutions transform by scaling the
                # *other* two coordinates by rt
                work[idx] = sf
                for other in range(3):
                    if other != idx:
                        scale_col(other, Fraction(rt))
                changed = True
        for i in range(3):
            for j in range(i + 1, 3):
                g = math.gcd(abs(work[i]), abs(work[j]))
                if g > 1:
                    k = 3 - i - j
                    # <g A, g B, C> -> <A, B, g C>; reduced (x,y,z) maps back
                    # with the slot-k coordinate multiplied by g
                    work[i] //= g
                    work[j] //= g
                    work[k] *= g
                    scale_col(k, Fraction(g))
                    changed = True
    return work, s


# Input limits of the Holzer search: the range of its outer loop, and the
# number of candidates it may visit. At both limits it takes a few seconds.
HOLZER_OUTER_LIMIT = 2 * 10 ** 6
HOLZER_CANDIDATE_LIMIT = 5 * 10 ** 6


def _sqrt_mod_prime(t: int, q: int) -> Tuple[int, ...]:
    """The square roots of t mod the prime q, for t prime to q. A scan of
    F_q: q is at most HOLZER_OUTER_LIMIT where this is used."""
    if q == 2:
        return (1,)
    if pow(t, (q - 1) // 2, q) != 1:
        return ()
    r = next(r for r in range(1, q // 2 + 1) if r * r % q == t)
    return (r, q - r)


def _holzer_search(a: int, b: int, c: int) -> Optional[Tuple[int, int, int]]:
    """Exhaustive search within the Holzer bounds for a x^2+b y^2+c z^2 = 0,
    with a, b, c squarefree, pairwise coprime, mixed signs. A solvable form
    has a solution with |x| <= sqrt|bc|, |y| <= sqrt|ac|, |z| <= sqrt|ab|.

    The coordinate with the largest bound is solved for and the other two,
    (u, w), are enumerated in lexicographic order; the first solution found
    is returned. Only the w with cs | c1 u^2 + c2 w^2 are visited. For each
    prime q of the squarefree cs these are w = 0 mod q when q | u, and
    w = +-r u mod q with r^2 = -c1/c2 mod q otherwise; the residues mod |cs|
    are combined by CRT for each u. Inputs past HOLZER_OUTER_LIMIT or
    HOLZER_CANDIDATE_LIMIT raise ValueError.
    """
    coeffs = [a, b, c]
    if 0 in coeffs:
        raise ValueError("the Holzer search needs nonzero coefficients")
    bounds = [
        math.isqrt(abs(b * c)),
        math.isqrt(abs(a * c)),
        math.isqrt(abs(a * b)),
    ]
    solve_idx = max(range(3), key=lambda i: bounds[i])
    e1, e2 = [i for i in range(3) if i != solve_idx]
    cs, c1, c2 = coeffs[solve_idx], coeffs[e1], coeffs[e2]
    # |cs| is the smallest coefficient, so |cs| <= bounds[e1]: the outer
    # limit also bounds the primes scanned below
    if bounds[e1] > HOLZER_OUTER_LIMIT:
        raise ValueError(
            f"the conic search would run its outer loop to {bounds[e1]}; "
            f"the limit is {HOLZER_OUTER_LIMIT}"
        )
    mod = abs(cs)
    factors = _factor(mod)
    if any(e > 1 for e in factors.values()) or math.gcd(mod, c1 * c2) != 1:
        raise ValueError("the Holzer search needs a squarefree, pairwise coprime form")
    # per prime q: the roots r, and the CRT idempotent (1 mod q, 0 mod |cs|/q)
    sieve = []
    residues_per_u = 1
    for q in sorted(factors):
        roots = _sqrt_mod_prime(-c1 * pow(c2, -1, q) % q, q)
        cofactor = mod // q
        sieve.append((q, roots, cofactor * pow(cofactor, -1, q) % mod))
        residues_per_u *= max(len(roots), 1)
    candidates = (bounds[e1] + 1) * residues_per_u * (bounds[e2] // mod + 1)
    if candidates > HOLZER_CANDIDATE_LIMIT:
        raise ValueError(
            f"the conic search could visit {candidates} candidates; "
            f"the limit is {HOLZER_CANDIDATE_LIMIT}"
        )
    for u in range(bounds[e1] + 1):
        c1uu = c1 * u * u
        residues = [0]
        for q, roots, idem in sieve:
            uq = u % q
            if uq:
                residues = [(x + r * uq * idem) % mod for x in residues for r in roots]
        if not residues:
            continue
        residues.sort()
        for base in range(0, bounds[e2] + 1, mod):
            for res in residues:
                w = base + res
                if w > bounds[e2]:
                    break
                if u == 0 and w == 0:
                    continue
                square, rem = divmod(-(c1uu + c2 * w * w), cs)
                if rem:
                    raise AssertionError("the residue sieve admitted a w outside its classes")
                if square < 0:
                    continue
                r = math.isqrt(square)
                if r * r != square:
                    continue
                sol = [0, 0, 0]
                sol[e1], sol[e2], sol[solve_idx] = u, w, r
                return tuple(sol)
    return None


def _primitive(vec: Sequence[Rat]) -> Tuple[int, int, int]:
    fracs = [Fraction(x) for x in vec]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = math.gcd(math.gcd(abs(ints[0]), abs(ints[1])), abs(ints[2]))
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


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
    mat = _to_mat3(m)
    t, diag = diagonalize_symmetric(mat)

    point_local: Optional[Tuple[Fraction, ...]] = None
    for idx in range(3):
        if diag[idx] == 0:
            point_local = tuple(Fraction(int(i == idx)) for i in range(3))
            break

    if point_local is None:
        # scale each column so the diagonal entries become integers
        scaled = _identity3()
        ints: List[int] = []
        for idx in range(3):
            d = diag[idx]
            scaled[idx][idx] = Fraction(d.denominator)
            ints.append(d.numerator * d.denominator)
        reduced, back = _legendre_reduce(ints)
        if all(x > 0 for x in reduced) or all(x < 0 for x in reduced):
            found = None
        else:
            found = _holzer_search(*reduced)
        obstructions = local_obstructions(*reduced)
        if (found is None) != bool(obstructions):
            raise AssertionError(
                "search and local symbols disagree on solvability"
            )
        if found is None:
            return None
        vec = [Fraction(x) for x in found]
        vec = _matvec3(tuple(tuple(r) for r in back), vec)
        point_local = _matvec3(tuple(tuple(r) for r in scaled), vec)

    point = _matvec3(t, point_local)
    out = _primitive(point)
    if _dot3(out, _matvec3(mat, [Fraction(x) for x in out])) != 0:
        raise AssertionError("computed point does not lie on the conic")
    if out == (0, 0, 0):
        raise AssertionError("point search produced the zero vector")
    return out


# ---------------------------------------------------------------------------
# exact trivariate polynomials and the conic pencil

class Poly3:
    """Polynomials in X0, X1, X2 with Fraction coefficients, exact."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Dict[Tuple[int, int, int], Rat]] = None):
        clean: Dict[Tuple[int, int, int], Fraction] = {}
        for k, v in (coeffs or {}).items():
            f = Fraction(v)
            if f:
                clean[tuple(k)] = f
        self.coeffs = clean

    @classmethod
    def linear(cls, c0: Rat, c1: Rat, c2: Rat) -> "Poly3":
        return cls({(1, 0, 0): c0, (0, 1, 0): c1, (0, 0, 1): c2})

    @classmethod
    def from_symmetric(cls, m: Sequence[Sequence[Rat]]) -> "Poly3":
        mat = _to_mat3(m)
        out: Dict[Tuple[int, int, int], Fraction] = {}
        for i in range(3):
            for j in range(3):
                key = tuple(
                    (1 if t == i else 0) + (1 if t == j else 0) for t in range(3)
                )
                out[key] = out.get(key, Fraction(0)) + mat[i][j]
        return cls(out)

    def __add__(self, other: "Poly3") -> "Poly3":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return Poly3(out)

    def __sub__(self, other: "Poly3") -> "Poly3":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) - v
        return Poly3(out)

    def __mul__(self, other: "Poly3") -> "Poly3":
        out: Dict[Tuple[int, int, int], Fraction] = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                out[key] = out.get(key, Fraction(0)) + va * vb
        return Poly3(out)

    def scaled(self, factor: Rat) -> "Poly3":
        f = Fraction(factor)
        return Poly3({k: v * f for k, v in self.coeffs.items()})

    def evaluate(self, point: Sequence[Rat]) -> Fraction:
        p = [Fraction(x) for x in point]
        total = Fraction(0)
        for (i, j, k), v in self.coeffs.items():
            total += v * p[0] ** i * p[1] ** j * p[2] ** k
        return total

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly3) and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly3({self.coeffs!r})"


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


def _second_conic_point(
    mat: Mat3, p: Tuple[int, int, int]
) -> Tuple[Fraction, ...]:
    """A rational conic point independent of p with p^t M s != 0, found by
    sweeping chords through p in a fixed order."""
    pf = [Fraction(x) for x in p]
    mp = _matvec3(mat, pf)
    for span in range(1, 8):
        for d0 in range(-span, span + 1):
            for d1 in range(-span, span + 1):
                for d2 in range(-span, span + 1):
                    d = [Fraction(d0), Fraction(d1), Fraction(d2)]
                    if all(x == 0 for x in d):
                        continue
                    pmd = _dot3(d, mp)
                    if pmd == 0:
                        continue
                    dmd = _dot3(d, _matvec3(mat, d))
                    if dmd == 0:
                        s = tuple(d)
                    else:
                        s = tuple(dmd * x - 2 * pmd * y for x, y in zip(pf, d))
                    # reject multiples of p
                    cross = [
                        pf[1] * s[2] - pf[2] * s[1],
                        pf[2] * s[0] - pf[0] * s[2],
                        pf[0] * s[1] - pf[1] * s[0],
                    ]
                    if all(x == 0 for x in cross):
                        continue
                    if _dot3(s, _matvec3(mat, s)) != 0:
                        continue
                    if _dot3(pf, _matvec3(mat, s)) == 0:
                        continue
                    return s
    raise AssertionError("no second conic point found in the sweep")


def _solve3(mat: Mat3, rhs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
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


def _invert3(mat: Mat3) -> Mat3:
    cols = []
    for j in range(3):
        rhs = [Fraction(int(i == j)) for i in range(3)]
        cols.append(_solve3(mat, rhs))
    return _mat_T(tuple(cols))


def conic_sdr(m: Sequence[Sequence[Rat]]) -> ConicSDR:
    """Express a smooth conic with a rational point as det of a linear pencil
    of symmetric 2x2 matrices, verified exactly.

    Frame: a point P on the conic, a second point S, and the pole R of the
    line PS. In that frame the form is F(R) (Y^2 - XZ) after scaling the S
    column by -F(R) / (2 P^t M S), and XZ - Y^2 is det of the standard
    pencil; pulling back along the inverse frame gives the matrices.
    """
    mat = _to_mat3(m)
    if _det3(mat) == 0:
        raise ValueError("conic is degenerate")
    p = conic_rational_point(mat)
    if p is None:
        raise ValueError("conic has no rational point, so no pencil over Q")
    pf = [Fraction(x) for x in p]
    s = _second_conic_point(mat, p)
    cross = (
        pf[1] * s[2] - pf[2] * s[1],
        pf[2] * s[0] - pf[0] * s[2],
        pf[0] * s[1] - pf[1] * s[0],
    )
    r = _solve3(mat, cross)
    f_r = _dot3(r, _matvec3(mat, r))
    if f_r == 0:
        raise AssertionError("pole of the chord lies on the conic")
    pms = _dot3(pf, _matvec3(mat, s))
    s_scaled = [-f_r / (2 * pms) * x for x in s]
    frame = tuple(
        tuple(col[i] for col in (pf, r, s_scaled)) for i in range(3)
    )
    frame_inv = _invert3(frame)

    a_mats = (
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))),
        ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))),
    )
    matrices = []
    for j in range(3):
        mj = [[Fraction(0)] * 2 for _ in range(2)]
        for i in range(3):
            for r_ in range(2):
                for c_ in range(2):
                    mj[r_][c_] += frame_inv[i][j] * a_mats[i][r_][c_]
        matrices.append(tuple(tuple(row) for row in mj))
    scale = Fraction(-1) / f_r

    entries = [
        [
            Poly3.linear(*(matrices[j][r_][c_] for j in range(3)))
            for c_ in range(2)
        ]
        for r_ in range(2)
    ]
    det = entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    if det != Poly3.from_symmetric(mat).scaled(scale):
        raise AssertionError("pencil determinant does not match the conic")
    return ConicSDR(matrices=tuple(matrices), scale=scale, point=p)


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
    assert p.denominator == 1 and q.denominator == 1
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


def galois_image(a: Rat, b: Rat) -> str:
    """Splitting behaviour of X^3 + a X + b: 'trivial' (splits), 'C2' (one
    rational root), 'C3' (irreducible, square discriminant) or 'S3'."""
    disc = cubic_discriminant(a, b)
    if disc == 0:
        raise ValueError("repeated roots: the cubic is not separable")
    roots = cubic_rational_roots(a, b)
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


EXPECTED_ROOT_DENSITY: Dict[str, Fraction] = {
    "trivial": Fraction(1),
    "C2": Fraction(1),
    "C3": Fraction(1, 3),
    "S3": Fraction(2, 3),
}


def _xp_mod_cubic(p: int, a: int, b: int) -> Tuple[int, int, int]:
    """X^p mod (X^3 + a X + b) over F_p, coefficients (c0, c1, c2)."""
    # square-and-multiply along the bits of p, most significant first
    c0, c1, c2 = 1, 0, 0
    for bit in bin(p)[2:]:
        # square: (c0 + c1 X + c2 X^2)^2, reduced by X^3 = -aX - b
        d0 = c0 * c0
        d1 = 2 * c0 * c1
        d2 = c1 * c1 + 2 * c0 * c2
        d3 = 2 * c1 * c2
        d4 = c2 * c2
        c2 = (d2 - a * d4) % p
        c1 = (d1 - a * d3 - b * d4) % p
        c0 = (d0 - b * d3) % p
        if bit == "1":
            # multiply by X
            c0, c1, c2 = (-b * c2) % p, (c0 - a * c2) % p, c1 % p
    return c0, c1, c2


def _cubic_has_root_mod(p: int, a: int, b: int) -> bool:
    """Does X^3 + aX + b have a root mod p (p odd, not dividing the
    discriminant)? Checked via gcd(X^p - X, f) without enumerating F_p."""
    c0, c1, c2 = _xp_mod_cubic(p, a, b)
    # g = X^p - X mod f
    g = (c0 % p, (c1 - 1) % p, c2 % p)
    if g == (0, 0, 0):
        return True  # f divides X^p - X: fully split
    # one Euclid step: f mod g, then gcd of small-degree polys
    f = (b % p, a % p, 0, 1)

    def poly_mod(num: Sequence[int], den: Sequence[int]) -> Tuple[int, ...]:
        num = [x % p for x in num]
        dden = len(den) - 1
        while dden and den[-1] == 0:
            den = den[:-1]
            dden -= 1
        if dden == 0:
            return ()
        inv = pow(den[-1], p - 2, p)
        num = list(num)
        while len(num) - 1 >= dden:
            if num[-1]:
                fac = num[-1] * inv % p
                off = len(num) - 1 - dden
                for i, dcoef in enumerate(den):
                    num[off + i] = (num[off + i] - fac * dcoef) % p
            num.pop()
        while num and num[-1] == 0:
            num.pop()
        return tuple(num)

    u, v = f, tuple(g)
    while v:
        u, v = v, poly_mod(u, v)
    return len(u) - 1 >= 1


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
    """
    a, b = Fraction(a), Fraction(b)
    disc = cubic_discriminant(a, b)
    if disc == 0:
        raise ValueError("repeated roots: the cubic is not separable")
    bad = {2, 3}
    bad.update(_factor(a.denominator))
    bad.update(_factor(b.denominator))
    bad.update(_factor(disc.numerator))
    counted = 0
    with_root = 0
    skipped = []
    for p in primes_upto(prime_bound):
        if p in bad:
            skipped.append(p)
            continue
        ai = a.numerator * pow(a.denominator, p - 2, p) % p
        bi = b.numerator * pow(b.denominator, p - 2, p) % p
        counted += 1
        if _cubic_has_root_mod(p, ai, bi):
            with_root += 1
    return DensityReport(
        a=a,
        b=b,
        prime_bound=prime_bound,
        primes_counted=counted,
        primes_with_root=with_root,
        skipped=tuple(sorted(skipped)),
    )


def cubic_local_global_verdict(a: Rat, b: Rat, prime_bound: int) -> Dict[str, object]:
    """Pack the global picture (rational roots, splitting class) next to the
    sampled local picture, with the exact implication flags the sweep tests
    rely on: a rational root forces a root at every counted prime."""
    roots = cubic_rational_roots(a, b)
    label = galois_image(a, b)
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
