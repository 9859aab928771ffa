"""Quadratic forms over GF(2) refining the standard symplectic pairing.

A form Q satisfies Q(x+y) + Q(x) + Q(y) = <x,y>. Fixing the standard base
form Q0 (Arf 1), every such form is Q_v(x) = Q0(x) + <x,v> for a unique
vector v, so forms are keyed by v and value tables are single ints with bit x
holding Q(x).
"""
from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .f2core import (
    F2Matrix,
    SymplecticSpace,
    affine_span,
    is_symplectic,
    solve_affine,
    standard_symplectic,
    symplectic_complement,
)

__all__ = [
    "BaseForm",
    "standard_base_form",
    "QuadraticForm",
    "form_from_vector",
    "all_forms",
    "pairing_mask",
    "arf_by_count",
    "arf_by_basis",
    "arf_from_vector",
    "act",
    "action_shift",
    "fixed_form_vectors",
    "generator_matrices",
    "orbits",
    "adapted_symplectic_basis",
]

MAX_FORM_DIM = 16  # value tables are 2**dim bits


def _swap_halves(v: int, m: int) -> int:
    """Apply the standard Gram matrix: swap the e- and f-blocks of v."""
    mask = (1 << m) - 1
    return ((v >> m) & mask) | ((v & mask) << m)


class BaseForm:
    """The fixed reference form Q0 on the standard symplectic space."""

    __slots__ = ("space", "m", "table")

    def __init__(self, space: SymplecticSpace, table: int):
        if not space.is_standard():
            raise ValueError("base forms live on the standard symplectic space")
        self.space = space
        self.m = space.m
        self.table = table

    def value(self, x: int) -> int:
        return (self.table >> x) & 1

    @property
    def arf(self) -> int:
        return arf_by_count(self.table, self.m)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BaseForm)
            and self.m == other.m
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash(("BaseForm", self.m, self.table))

    def __repr__(self) -> str:
        return f"BaseForm(m={self.m})"


@lru_cache(maxsize=None)
def standard_base_form(m: int) -> BaseForm:
    """Q0 = (a^2 + ab + b^2) on plane 1, plus split products ab on planes 2..m.

    On GF(2) the first plane evaluates to a OR b, so Q0 has Arf invariant 1.
    """
    space = standard_symplectic(m)
    if space.dim > MAX_FORM_DIM:
        raise ValueError("value table too large for this m")
    table = 0
    for x in range(1 << space.dim):
        a1 = x & 1
        b1 = (x >> m) & 1
        val = a1 | b1
        for i in range(1, m):
            val ^= ((x >> i) & 1) & ((x >> (m + i)) & 1)
        table |= val << x
    form = BaseForm(space, table)
    assert form.arf == 1
    return form


@lru_cache(maxsize=None)
def pairing_mask(space: SymplecticSpace, v: int) -> int:
    """Bitmask with bit x = <x, v>."""
    gv = space.gram.apply(v)
    mask = 0
    for x in range(1 << space.dim):
        mask |= ((x & gv).bit_count() & 1) << x
    return mask


class QuadraticForm:
    """Q_v(x) = Q0(x) + <x, v>; hashable by (m, v)."""

    __slots__ = ("base", "v", "table")

    def __init__(self, base: BaseForm, v: int, table: Optional[int] = None):
        if not 0 <= v < (1 << base.space.dim):
            raise ValueError("vector outside the space")
        self.base = base
        self.v = v
        if table is None:
            table = base.table ^ pairing_mask(base.space, v)
        self.table = table

    @property
    def space(self) -> SymplecticSpace:
        return self.base.space

    @property
    def m(self) -> int:
        return self.base.m

    def value(self, x: int) -> int:
        return (self.table >> x) & 1

    @property
    def arf(self) -> int:
        # Arf(Q_v) = 0 exactly when Q0(v) = 1, given Arf(Q0) = 1.
        return self.base.value(self.v) ^ 1

    def to_json(self) -> Dict[str, object]:
        d = self.space.dim
        bits = "".join("1" if (self.v >> i) & 1 else "0" for i in range(d))
        return {"m": self.m, "base": "standard-arf1", "v": bits}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "QuadraticForm":
        if data.get("base") != "standard-arf1":
            raise ValueError("unknown base form tag")
        m = int(data["m"])
        bits = str(data["v"])
        v = sum(1 << i for i, ch in enumerate(bits) if ch == "1")
        return cls(standard_base_form(m), v)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QuadraticForm)
            and self.m == other.m
            and self.v == other.v
        )

    def __hash__(self) -> int:
        return hash(("QuadraticForm", self.m, self.v))

    def __repr__(self) -> str:
        return f"QuadraticForm(m={self.m}, v={self.v:#x}, arf={self.arf})"


def form_from_vector(base: BaseForm, v: int) -> QuadraticForm:
    return QuadraticForm(base, v)


def all_forms(base: BaseForm) -> List[QuadraticForm]:
    """All 2^(2m) forms with the standard polar pairing."""
    return [QuadraticForm(base, v) for v in range(1 << base.space.dim)]


def arf_by_count(table_or_form: Union[int, QuadraticForm, BaseForm], m: Optional[int] = None) -> int:
    """Arf invariant read off the value distribution.

    The majority value count is 2^(m-1) * (2^m + 1); whichever value attains
    it is the Arf invariant. Anything else means the table is not a form with
    the standard polar pairing.
    """
    if isinstance(table_or_form, (QuadraticForm, BaseForm)):
        table = table_or_form.table
        m = table_or_form.m
    else:
        table = table_or_form
        if m is None:
            raise ValueError("m is required with a raw table")
    total = 1 << (2 * m)
    ones = table.bit_count()
    majority = (1 << (m - 1)) * ((1 << m) + 1)
    if ones == majority:
        return 1
    if total - ones == majority:
        return 0
    raise ValueError("value counts do not match any Arf class")


def arf_by_basis(form: QuadraticForm, basis: F2Matrix) -> int:
    """Arf invariant as sum of Q(e_i) Q(f_i) over a symplectic basis.

    `basis` holds the basis vectors as columns, e-block then f-block; it must
    satisfy the symplectic condition for the standard pairing.
    """
    space = form.space
    if not is_symplectic(basis, space):
        raise ValueError("columns are not a symplectic basis")
    m = form.m
    acc = 0
    for i in range(m):
        acc ^= form.value(basis.col(i)) & form.value(basis.col(m + i))
    return acc


def arf_from_vector(base: BaseForm, v: int) -> int:
    """Arf(Q_v) without building the form; needs Arf(base) = 1."""
    return base.value(v) ^ 1


def action_shift(g: F2Matrix, base: BaseForm) -> int:
    """Vector w with act(g, Q_v) = Q_{g(v + w)} for every v.

    w is determined by <x, w> = Q0(gx) + Q0(x); the right side is linear in x
    whenever g is symplectic, so reading it off the basis vectors suffices.
    """
    d = base.space.dim
    m = base.m
    delta = 0
    for i in range(d):
        e = 1 << i
        delta |= (base.value(g.apply(e)) ^ base.value(e)) << i
    return _swap_halves(delta, m)  # standard Gram matrix is its own inverse


def act(g: F2Matrix, form: QuadraticForm, check: bool = True) -> QuadraticForm:
    """The transformed form x -> Q(g^-1 x)."""
    if check and not is_symplectic(g, form.space):
        raise ValueError("matrix is not symplectic")
    w = action_shift(g, form.base)
    return QuadraticForm(form.base, g.apply(form.v ^ w))


def fixed_form_vectors(
    g: F2Matrix, base: BaseForm
) -> Optional[Tuple[int, List[int]]]:
    """Solution set {v : act(g, Q_v) = Q_v} as (particular, kernel basis).

    None when g fixes no form at all. The fixed condition g(v+w) = v is the
    linear system (g + I)v = g w.
    """
    d = base.space.dim
    w = action_shift(g, base)
    gw = g.apply(w)
    rows = [g.rows[i] ^ (1 << i) for i in range(d)]
    rhs = [(gw >> i) & 1 for i in range(d)]
    return solve_affine(rows, rhs, d)


def generator_matrices(group, space: SymplecticSpace) -> List[F2Matrix]:
    """A generating set for `group`: the core of a subgroup handle, whose
    elements were checked when it was closed, or else the given matrices,
    each checked to be symplectic here."""
    core = getattr(group, "core", None)
    if core is not None:
        if group.space != space:
            raise ValueError("the group acts on a different space")
        return [F2Matrix.from_packed(p, space.dim) for p in core]
    gens = list(group)
    for g in gens:
        if not is_symplectic(g, space):
            raise ValueError("group element is not symplectic")
    return gens


def orbits(group, forms: Iterable[QuadraticForm]) -> List[List[QuadraticForm]]:
    """Partition of the given forms into orbits under the group action.

    `group` is a subgroup handle or any iterable of symplectic matrices; the
    matrices are used as a generating set, which yields the same orbits as
    the full group since inverses are positive powers in a finite group.
    """
    forms = list(forms)
    if not forms:
        return []
    base = forms[0].base
    for f in forms:
        if f.base != base:
            raise ValueError("forms must share one base form")
    maps = [(g, action_shift(g, base)) for g in generator_matrices(group, base.space)]
    todo = {f.v for f in forms}
    out: List[List[QuadraticForm]] = []
    while todo:
        seed = min(todo)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for v in frontier:
                for g, w in maps:
                    u = g.apply(v ^ w)
                    if u not in orbit:
                        orbit.add(u)
                        nxt.append(u)
            frontier = nxt
        if not orbit <= todo:
            raise ValueError("forms are not closed under the group action")
        todo -= orbit
        out.append([QuadraticForm(base, v) for v in sorted(orbit)])
    out.sort(key=lambda orb: orb[0].v)
    return out


def adapted_symplectic_basis(space: SymplecticSpace, table: int) -> F2Matrix:
    """Symplectic basis carrying an Arf-1 value table to the standard base.

    Returns T in Sp with table(T x) = standard_base_form(m) table at x for
    all x. Split planes are extracted greedily; the final plane is forced to
    the (1,1,1) value pattern by Arf additivity.
    """
    if not space.is_standard():
        raise ValueError("expected the standard symplectic space")
    m = space.m

    def val(x: int) -> int:
        return (table >> x) & 1

    if arf_by_count(table, m) != 1:
        raise ValueError("adapted bases are built for Arf-1 tables only")

    basis = [1 << i for i in range(space.dim)]
    splits: List[Tuple[int, int]] = []

    while len(basis) > 2:
        # skip x = 0: Q(0) = 0 would otherwise be picked as u
        u = next((x for x in affine_span(0, basis) if x and val(x) == 0), None)
        if u is None:
            raise AssertionError("no isotropic vector in a space of dim >= 4")
        w = next((x for x in affine_span(0, basis) if space.pairing(u, x) == 1), None)
        if w is None:
            raise AssertionError("pairing degenerate on the remaining space")
        if val(w) == 1:
            w ^= u  # Q(w+u) = Q(w)+Q(u)+<w,u> = 0
        basis = symplectic_complement(space, basis, u, w)
        splits.append((u, w))
        if len(basis) != space.dim - 2 * len(splits):
            raise AssertionError("complement dimension drifted")
    a, b = basis
    if space.pairing(a, b) != 1:
        raise AssertionError("final plane is degenerate")
    if not (val(a) == val(b) == val(a ^ b) == 1):
        raise AssertionError("final plane is not the Arf-1 pattern")
    es = [a] + [u for u, _ in splits]
    fs = [b] + [w for _, w in splits]
    t = F2Matrix.from_cols(es + fs, space.dim)
    if not is_symplectic(t, space):
        raise AssertionError("adapted basis is not symplectic")
    target = standard_base_form(m).table
    for x in range(1 << space.dim):
        if val(t.apply(x)) != (target >> x) & 1:
            raise AssertionError("adapted basis fails to standardize the form")
    return t
