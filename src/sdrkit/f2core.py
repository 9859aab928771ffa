"""Exact linear algebra over GF(2) with bit-packed rows.

Vectors are plain ints: bit i is coordinate i. Matrices are tuples of row
ints. Everything is immutable and hashable, so matrices can live in the big
element sets used for group closure. Dimensions are capped at 64, which keeps
every row inside one machine word on CPython.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "MAX_DIM",
    "F2Matrix",
    "nullspace",
    "solve",
    "solve_affine",
    "affine_span",
    "SymplecticSpace",
    "standard_symplectic",
    "is_symplectic",
    "symplectic_basis",
    "symplectic_complement",
]

MAX_DIM = 64


def _parity(x: int) -> int:
    return x.bit_count() & 1


class F2Matrix:
    """A square matrix over GF(2), rows stored as ints (bit j = column j).

    `_symplectic` is None, or (space, column pairs (e_i, f_i) or None): the
    one check of this matrix as a symplectic basis of `space`, made by
    `quadforms.arf_by_basis` and kept for its next call."""

    __slots__ = ("dim", "rows", "_hash", "_symplectic")

    def __init__(self, rows: Iterable[int], dim: Optional[int] = None):
        rows = tuple(rows)
        if dim is None:
            dim = len(rows)
        if not 0 < dim <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {dim}")
        if len(rows) != dim:
            raise ValueError(f"expected {dim} rows, got {len(rows)}")
        mask = (1 << dim) - 1
        for r in rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the matrix dimension")
        self.dim = dim
        self.rows = rows
        self._hash = hash((dim, rows))
        self._symplectic = None

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "F2Matrix":
        return cls(tuple(1 << i for i in range(dim)), dim)

    @classmethod
    def from_cols(cls, cols: Iterable[int], dim: Optional[int] = None) -> "F2Matrix":
        cols = tuple(cols)
        if dim is None:
            dim = len(cols)
        mask = (1 << dim) - 1
        return cls(_transpose([c & mask for c in cols], dim), dim)

    @classmethod
    def from_text(cls, text: str) -> "F2Matrix":
        """Parse 'rows of 0/1 chars joined by ;', e.g. '10;01'."""
        if not isinstance(text, str):
            raise ValueError(f"a matrix must be a string of 0/1 rows, got {text!r}")
        parts = text.strip().split(";")
        dim = len(parts)
        rows = []
        for part in parts:
            part = part.strip()
            if len(part) != dim or set(part) - {"0", "1"}:
                raise ValueError(f"bad matrix row {part!r}")
            rows.append(sum(1 << j for j, ch in enumerate(part) if ch == "1"))
        return cls(rows, dim)

    # -- serialization ------------------------------------------------

    def row_text(self, i: int) -> str:
        r = self.rows[i]
        return "".join("1" if (r >> j) & 1 else "0" for j in range(self.dim))

    def to_text(self) -> str:
        return ";".join(self.row_text(i) for i in range(self.dim))

    # -- element access ------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def col(self, j: int) -> int:
        c = 0
        for i in range(self.dim):
            c |= ((self.rows[i] >> j) & 1) << i
        return c

    def cols(self) -> List[int]:
        """Every column, in one pass over the rows."""
        return _transpose(self.rows, self.dim)

    @property
    def packed(self) -> int:
        """Rows concatenated into one integer (row i at bit offset i*dim)."""
        d = self.dim
        out = 0
        for i, r in enumerate(self.rows):
            out |= r << (i * d)
        return out

    @classmethod
    def from_packed(cls, packed: int, dim: int) -> "F2Matrix":
        mask = (1 << dim) - 1
        return cls(tuple((packed >> (i * dim)) & mask for i in range(dim)), dim)

    # -- arithmetic ----------------------------------------------------

    def images(self) -> List[int]:
        """M v for every v in 0 .. 2^dim - 1, in that order: the subset
        XORs of the columns."""
        return _span_table(self.cols())

    def apply(self, v: int) -> int:
        """Matrix-vector product over GF(2)."""
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r & v).bit_count() & 1) << i
        return out

    def __mul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        orows = other.rows
        return F2Matrix([_combine(r, orows) for r in self.rows], self.dim)

    def __pow__(self, e: int) -> "F2Matrix":
        base = self
        if e < 0:
            base = self.inverse()
            e = -e
        acc = F2Matrix.identity(self.dim)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def transpose(self) -> "F2Matrix":
        return F2Matrix(self.cols(), self.dim)

    def rank(self) -> int:
        return len(_rref(self.rows, self.dim)[1])

    def inverse(self) -> "F2Matrix":
        # reduce [A | I] on A's columns: a full rank leaves [I | A^-1]
        d = self.dim
        reduced, pivots = _rref([r | (1 << (d + i)) for i, r in enumerate(self.rows)], d)
        if len(pivots) != d:
            raise ValueError("matrix is singular")
        return F2Matrix(tuple(r >> d for r in reduced), d)

    def is_identity(self) -> bool:
        return all(r == (1 << i) for i, r in enumerate(self.rows))

    def order(self, cap: int = 10**7) -> int:
        """Multiplicative order; raises if it exceeds cap."""
        acc = self
        n = 1
        while not acc.is_identity():
            acc = acc * self
            n += 1
            if n > cap:
                raise ValueError("order exceeds cap")
        return n

    # -- plumbing -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, F2Matrix)
            and self.dim == other.dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"F2Matrix({self.to_text()!r})"


def _combine(r: int, vecs: Sequence[int]) -> int:
    """XOR of vecs[i] over the set bits i of r: row r times the matrix with
    rows vecs. The one row-combination loop; every product goes through it
    or through a table of its values."""
    acc = 0
    while r:
        low = r & -r
        acc ^= vecs[low.bit_length() - 1]
        r ^= low
    return acc


def _span_table(vecs: Sequence[int]) -> List[int]:
    """_combine(r, vecs) for every r in 0 .. 2^len(vecs) - 1, in that order:
    the entries from 2^i up are those below 2^i plus vecs[i]."""
    out = [0]
    for v in vecs:
        out += [x ^ v for x in out]
    return out


def _orbit(seed, moves: Sequence[Callable]) -> list:
    """The orbit of seed under the maps in `moves`, breadth first: seed,
    then each new image in the order it is met. For bijections of a finite
    set this is the orbit under the group they generate."""
    seen = {seed}
    orbit = [seed]
    for x in orbit:
        for move in moves:
            y = move(x)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


def _transpose(vecs: Sequence[int], dim: int) -> List[int]:
    """The dim ints whose bit j is bit i of vecs[j], for vectors below
    2^dim: rows become columns and back, one step per set bit."""
    out = [0] * dim
    for j, v in enumerate(vecs):
        bit = 1 << j
        while v:
            low = v & -v
            out[low.bit_length() - 1] |= bit
            v ^= low
    return out


def _rref(rows: Sequence[int], dim: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form on columns 0..dim-1, the only elimination
    loop; bits at dim and above ride along. Returns (nonzero reduced rows,
    pivot columns)."""
    rows = list(rows)
    pivots: List[int] = []
    rank = 0
    for j in range(dim):
        pivot = None
        for i in range(rank, len(rows)):
            if (rows[i] >> j) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> j) & 1:
                rows[i] ^= rows[rank]
        pivots.append(j)
        rank += 1
    return rows[:rank], pivots


def nullspace(mat: F2Matrix) -> List[int]:
    """Basis vectors v with mat.apply(v) == 0, ordered by free column."""
    return solve_affine(list(mat.rows), [0] * mat.dim, mat.dim)[1]


def solve(mat: F2Matrix, rhs: int) -> Optional[int]:
    """One solution x of mat.apply(x) == rhs, or None if inconsistent."""
    got = solve_affine(list(mat.rows), [(rhs >> i) & 1 for i in range(mat.dim)], mat.dim)
    return None if got is None else got[0]


def solve_affine(
    rows: List[int], rhs_bits: List[int], dim: int
) -> Optional[Tuple[int, List[int]]]:
    """Full solution set of a (possibly overdetermined) GF(2) system.

    Returns (particular solution, kernel basis) or None when inconsistent.
    rows may contain any number of equations over `dim` unknowns.
    """
    aug = [r | ((b & 1) << dim) for r, b in zip(rows, rhs_bits)]
    reduced, pivots = _rref(aug, dim + 1)
    if dim in pivots:
        return None
    x = 0
    for r, pj in zip(reduced, pivots):
        if (r >> dim) & 1:
            x |= 1 << pj
    pivot_set = set(pivots)
    kernel = []
    for j in range(dim):
        if j in pivot_set:
            continue
        v = 1 << j
        for r, pj in zip(reduced, pivots):
            if (r >> j) & 1:
                v |= 1 << pj
        kernel.append(v)
    return x, kernel


def affine_span(particular: int, kernel: Sequence[int]) -> Iterator[int]:
    """Every point of particular + span(kernel), one per mask in increasing
    order: bit i of the mask picks kernel[i], so mask 0 gives `particular`.

    The first 8 kernel vectors, the low bits of the mask, are read from one
    `_span_table`; the rest count up above them, lazily, so the first
    points come at once even for a long kernel."""
    low = _span_table(kernel[:8])
    rest = kernel[8:]
    for h in affine_span(particular, rest) if rest else (particular,):
        for x in low:
            yield h ^ x


class SymplecticSpace:
    """F2^(2m) with a nondegenerate alternating pairing given by a Gram matrix."""

    __slots__ = ("m", "dim", "gram", "_hash")

    def __init__(self, gram: F2Matrix):
        d = gram.dim
        if d % 2:
            raise ValueError("symplectic spaces have even dimension")
        for i in range(d):
            if gram.entry(i, i):
                raise ValueError("pairing must be alternating")
        if gram.transpose() != gram:
            raise ValueError("pairing must be symmetric over GF(2)")
        if gram.rank() != d:
            raise ValueError("pairing must be nondegenerate")
        self.dim = d
        self.m = d // 2
        self.gram = gram
        self._hash = hash(("SymplecticSpace", gram))

    def pairing(self, x: int, y: int) -> int:
        return _parity(x & self.gram.apply(y))

    def is_standard(self) -> bool:
        return self.gram == _standard_gram(self.m)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymplecticSpace) and self.gram == other.gram

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SymplecticSpace(m={self.m})"


def _standard_gram(m: int) -> F2Matrix:
    # <e_i, f_i> = 1; basis order e_1..e_m, f_1..f_m.
    rows = []
    for i in range(m):
        rows.append(1 << (m + i))
    for i in range(m):
        rows.append(1 << i)
    return F2Matrix(rows, 2 * m)


@lru_cache(maxsize=None)
def standard_symplectic(m: int) -> SymplecticSpace:
    if not 1 <= m <= MAX_DIM // 2:
        raise ValueError("m out of range")
    return SymplecticSpace(_standard_gram(m))


def _congruent_rows(rows: Sequence[int], gram_rows: Sequence[int]) -> Tuple[int, ...]:
    """Rows of t^T * gram * t, where t has the given rows, in one pass over
    them: row k of gram * t combines t's rows over the set bits of gram's
    row k, and it is added to row i of the result for every set bit i of
    t's row k."""
    out = [0] * len(rows)
    for k, jrow in enumerate(gram_rows):
        acc = _combine(jrow, rows)
        r = rows[k]
        while r:
            low = r & -r
            out[low.bit_length() - 1] ^= acc
            r ^= low
    return tuple(out)


def is_symplectic(g: F2Matrix, space: SymplecticSpace) -> bool:
    """True when g preserves the pairing: g^T * gram * g == gram."""
    if g.dim != space.dim:
        return False
    return _congruent_rows(g.rows, space.gram.rows) == space.gram.rows


def symplectic_complement(
    space: SymplecticSpace, vectors: Iterable[int], u: int, w: int
) -> List[int]:
    """Project `vectors` onto the complement of the plane <u, w>, where
    <u, w> = 1, and keep each projection that is independent of the ones
    kept before it, in order. x maps to x + <x, w> u + <x, u> w, so u and w
    themselves map to 0."""
    gu = space.gram.apply(u)
    gw = space.gram.apply(w)
    kept: List[int] = []
    echelon: Dict[int, int] = {}  # leading bit -> reduced kept vector
    for x in vectors:
        y = x ^ (u if _parity(x & gw) else 0) ^ (w if _parity(x & gu) else 0)
        z = y
        while z:
            lead = z.bit_length() - 1
            if lead not in echelon:
                echelon[lead] = z
                kept.append(y)
                break
            z ^= echelon[lead]
    return kept


def symplectic_basis(space: SymplecticSpace) -> F2Matrix:
    """Change of basis T with T^T * gram * T equal to the standard Gram matrix.

    Columns of T are a symplectic basis e_1..e_m, f_1..f_m extracted by
    repeatedly picking a vector, a partner pairing to 1 with it, and
    projecting the rest onto the symplectic complement of the pair.
    """
    d = space.dim
    basis = [1 << i for i in range(d)]
    es: List[int] = []
    fs: List[int] = []
    while basis:
        u = basis[0]
        w = next((x for x in basis[1:] if space.pairing(u, x)), None)
        if w is None:
            raise ValueError("pairing is degenerate on the remaining space")
        es.append(u)
        fs.append(w)
        basis = symplectic_complement(space, basis, u, w)
    t = F2Matrix.from_cols(es + fs, d)
    if _congruent_rows(t.rows, space.gram.rows) != _standard_gram(space.m).rows:
        raise AssertionError("symplectic basis construction failed its contract")
    return t
