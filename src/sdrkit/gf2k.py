"""Binary field arithmetic F(k) = GF(2^k) on int-encoded polynomials.

Field elements are ints: bit i is the coefficient of x^i in the residue
class. The modulus is the lexicographically smallest (by bit encoding)
irreducible polynomial of degree k, so every F(k) here is canonical and two
contexts with the same k are interchangeable.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, List

from .f2core import F2Matrix

__all__ = [
    "make_field",
    "BinaryFieldCtx",
    "norm_one_generator",
    "as_f2_linear",
]


def _pdeg(p: int) -> int:
    return p.bit_length() - 1


def _pmul(a: int, b: int) -> int:
    """Carry-less (polynomial) product."""
    out = 0
    while a:
        if a & 1:
            out ^= b
        a >>= 1
        b <<= 1
    return out


def _pmod(a: int, m: int) -> int:
    dm = m.bit_length()
    n = a.bit_length()
    while n >= dm:
        a ^= m << (n - dm)
        n = a.bit_length()
    return a


def _is_irreducible(f: int) -> bool:
    """Trial division by every polynomial of degree 1..deg(f)//2."""
    k = _pdeg(f)
    if k <= 0:
        return False
    for d in range(2, 1 << (k // 2 + 1)):
        if _pdeg(d) >= 1 and _pmod(f, d) == 0:
            return False
    return True


def _factorize(n: int) -> List[int]:
    """Distinct prime factors by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class BinaryFieldCtx:
    """Arithmetic context for F(k) with a fixed modulus and primitive gamma."""

    __slots__ = ("k", "modulus", "gamma", "order", "_prime_factors")

    def __init__(self, k: int, modulus: int, gamma: int):
        self.k = k
        self.modulus = modulus
        self.gamma = gamma
        self.order = (1 << k) - 1
        self._prime_factors = _factorize(self.order) if self.order > 1 else []

    # -- ring ops -------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return _pmod(_pmul(a, b), self.modulus)

    def square(self, a: int) -> int:
        """a * a with no product: over GF(2) squaring sends x^i to x^(2i),
        so read a's binary digits as base-4 digits and reduce once."""
        return _pmod(int(format(a, "b"), 4), self.modulus)

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.square(base)
            e >>= 1
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.order - 1) if self.order > 1 else 1

    def frobenius(self, a: int, d: int = 1) -> int:
        """a ** (2**d)."""
        for _ in range(d):
            a = self.square(a)
        return a

    # -- multiplicative structure ----------------------------------------

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        n = self.order
        for p in self._prime_factors:
            while n % p == 0 and self.pow(a, n // p) == 1:
                n //= p
        return n

    def is_primitive(self, a: int) -> bool:
        return a != 0 and self.element_order(a) == self.order

    # -- trace / norm ------------------------------------------------------

    def in_subfield(self, a: int, d: int) -> bool:
        """Membership in F(d) inside F(k); needs d | k."""
        if self.k % d:
            raise ValueError(f"F({d}) is not a subfield of F({self.k})")
        return self.frobenius(a, d) == a

    def subfield_trace(self, a: int, upper: int, lower: int) -> int:
        """Trace from F(upper) down to F(lower), for a in F(upper).

        Computed inside the ambient field: sum of a^(2^(lower*i)) for
        i = 0..upper/lower-1. Requires lower | upper | k.
        """
        if self.k % upper or upper % lower:
            raise ValueError("tower degrees must divide")
        if not self.in_subfield(a, upper):
            raise ValueError("element is not in the claimed subfield")
        acc = 0
        t = a
        for _ in range(upper // lower):
            acc ^= t
            t = self.frobenius(t, lower)
        return acc

    def trace(self, a: int, d: int = 1) -> int:
        """Trace from F(k) down to F(d); d | k."""
        return self.subfield_trace(a, self.k, d)

    def conjugate(self, a: int) -> int:
        """a ** (2**m) for k = 2m; the nontrivial F(m)-automorphism."""
        if self.k % 2:
            raise ValueError("conjugation needs even k")
        return self.frobenius(a, self.k // 2)

    def norm(self, a: int) -> int:
        """Norm from F(2m) to F(m): a * conjugate(a) = a^(2^m + 1)."""
        return self.mul(a, self.conjugate(a))

    def __repr__(self) -> str:
        return f"BinaryFieldCtx(k={self.k}, modulus={bin(self.modulus)})"


@lru_cache(maxsize=None)
def make_field(k: int) -> BinaryFieldCtx:
    """Build F(2^k) with the smallest irreducible modulus and smallest
    primitive element."""
    if not 1 <= k <= 32:
        raise ValueError("k out of supported range 1..32")
    modulus = None
    for cand in range(1 << k, 1 << (k + 1)):
        if _is_irreducible(cand):
            modulus = cand
            break
    if modulus is None:
        raise AssertionError(f"no irreducible modulus of degree {k}; one always exists")
    ctx = BinaryFieldCtx(k, modulus, gamma=1)
    if ctx.order > 1:
        for a in range(2, 1 << k):
            if ctx.is_primitive(a):
                ctx = BinaryFieldCtx(k, modulus, gamma=a)
                break
        else:
            raise AssertionError("no primitive element found")
    return ctx


def norm_one_generator(ctx: BinaryFieldCtx) -> int:
    """Generator s = gamma^(2^m - 1) of the norm-one kernel of F(2m)/F(m).

    The kernel is cyclic of order 2^m + 1; both the order and norm(s) == 1
    are checked before returning.
    """
    if ctx.k % 2:
        raise ValueError("needs an even-degree field F(2m)")
    m = ctx.k // 2
    s = ctx.pow(ctx.gamma, (1 << m) - 1)
    if ctx.norm(s) != 1:
        raise AssertionError("norm-one generator has norm != 1")
    if ctx.element_order(s) != (1 << m) + 1:
        raise AssertionError("norm-one generator has wrong order")
    return s


def as_f2_linear(fn: Callable[[int], int], ctx: BinaryFieldCtx) -> F2Matrix:
    """Matrix of an additive map F(k) -> F(k) over the polynomial basis
    1, x, x^2, ..., x^(k-1).

    For k <= 12 the matrix is checked against fn on every element, so a
    non-additive fn is rejected rather than silently linearized.
    """
    k = ctx.k
    cols = [fn(1 << j) for j in range(k)]
    mat = F2Matrix.from_cols(cols, k)
    if k <= 12:
        for x, image in enumerate(mat.images()):
            if image != fn(x):
                raise ValueError("function is not F2-linear on this field")
    else:
        for j in range(k):
            if mat.apply(1 << j) != cols[j]:
                raise AssertionError("column extraction mismatch")
    return mat
