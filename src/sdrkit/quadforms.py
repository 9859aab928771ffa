"""Quadratic forms over GF(2) refining the standard symplectic pairing.

A form Q satisfies Q(x+y) + Q(x) + Q(y) = <x,y>. Fixing a base form Q0
(the standard one has Arf 1), every such form is Q_v(x) = Q0(x) + <x,v> for
a unique vector v, so forms are keyed by v and value tables are single ints
with bit x holding Q(x). Each base keeps the tables of its forms Q_v that
have been built, by v, so a form is one dict read once its table exists.
Q_v has Arf invariant Arf(Q0) + Q0(v) on any base (`arf0_mask`).
"""
from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .f2core import (
    F2Matrix,
    SymplecticSpace,
    _orbit,
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
    "arf0_mask",
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
    """The fixed reference form Q0 on the standard symplectic space, with
    the value tables of its forms Q_v built so far, keyed by v."""

    __slots__ = ("space", "m", "table", "_tables")

    def __init__(self, space: SymplecticSpace, table: int):
        if not space.is_standard():
            raise ValueError("base forms live on the standard symplectic space")
        self.space = space
        self.m = space.m
        self.table = table
        self._tables: Dict[int, int] = {}  # v -> Q_v's table, filled by QuadraticForm

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
def _coordinate_tables(dim: int) -> Tuple[int, ...]:
    """Entry i is the 2^dim-bit table of the coordinate x_i: bit x is bit i
    of x, so 2^i zeros then 2^i ones, repeated. A form's table is a few
    ANDs, ORs and XORs of these, with no loop over x."""
    size = 1 << dim
    out = []
    for i in range(dim):
        width = 2 << i
        table = ((1 << (1 << i)) - 1) << (1 << i)
        while width < size:
            table |= table << width
            width *= 2
        out.append(table)
    return tuple(out)


@lru_cache(maxsize=None)
def standard_base_form(m: int) -> BaseForm:
    """Q0 = (a^2 + ab + b^2) on plane 1, plus split products ab on planes 2..m.

    On GF(2) the first plane evaluates to a OR b, so Q0 has Arf invariant 1.
    """
    space = standard_symplectic(m)
    if space.dim > MAX_FORM_DIM:
        raise ValueError("value table too large for this m")
    x = _coordinate_tables(space.dim)
    table = x[0] | x[m]
    for i in range(1, m):
        table ^= x[i] & x[m + i]
    form = BaseForm(space, table)
    if form.arf != 1:
        raise AssertionError("the standard base form's Arf invariant is not 1")
    return form


def pairing_mask(space: SymplecticSpace, v: int) -> int:
    """Bitmask with bit x = <x, v>: the sum of the coordinate tables of the
    bits of Gv. `QuadraticForm` keeps the table it builds from it on the
    base, so it runs once per (base, v)."""
    gv = space.gram.apply(v)
    mask = 0
    for i, table in enumerate(_coordinate_tables(space.dim)):
        if (gv >> i) & 1:
            mask ^= table
    return mask


class QuadraticForm:
    """Q_v(x) = Q0(x) + <x, v>; equal when base and v agree, hashable by
    (m, v). Its value table is built on the first form with this base and v
    and kept on the base for every later one."""

    __slots__ = ("base", "v", "table")

    def __init__(self, base: BaseForm, v: int):
        # an equal float or bool would find v's table and pass as v
        if type(v) is not int:
            raise ValueError(f"a form's vector must be an int, got {v!r}")
        table = base._tables.get(v)
        if table is None:
            if not 0 <= v < (1 << base.space.dim):
                raise ValueError("vector outside the space")
            table = base._tables[v] = base.table ^ pairing_mask(base.space, v)
        self.base = base
        self.v = v
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
        return arf_from_vector(self.base, self.v)

    def to_json(self) -> Dict[str, object]:
        """{m, base, v}. The tag names the standard base, the one base that
        `from_json` rebuilds, so a form on any other base is refused with
        ValueError rather than read back as a different form."""
        if self.base != standard_base_form(self.m):
            raise ValueError("only forms on the standard base form have a JSON form")
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
            and self.v == other.v
            and self.base == other.base
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
    satisfy the symplectic condition for the standard pairing. The matrix
    keeps its check and its column pairs for the last space it was checked
    on, so evaluating every form on one basis pays for the check once, and
    a rejected basis is rejected on every call.
    """
    space = form.base.space
    memo = basis._symplectic
    if memo is None or memo[0] is not space:
        pairs = None
        if is_symplectic(basis, space):
            cols = basis.cols()
            pairs = tuple(zip(cols[: space.m], cols[space.m :]))
        memo = basis._symplectic = (space, pairs)
    pairs = memo[1]
    if pairs is None:
        raise ValueError("columns are not a symplectic basis")
    table = form.table
    acc = 0
    for e, f in pairs:
        acc ^= (table >> e) & (table >> f)
    return acc & 1


def arf0_mask(base: BaseForm) -> int:
    """Bitmask with bit v set when Q_v has Arf 0.

    Arf(Q_v) = Arf(Q0) + Q0(v), the parity shift of theta characteristics
    (Mumford, Theta characteristics of an algebraic curve, 1971), so the
    mask is Q0's value table when Arf(Q0) = 1 and its complement when
    Arf(Q0) = 0. This is the one place the code reads a form's Arf
    invariant off its vector.
    """
    if base.arf:
        return base.table
    return base.table ^ ((1 << (1 << base.space.dim)) - 1)


def arf_from_vector(base: BaseForm, v: int) -> int:
    """Arf(Q_v) without building the form, for any base."""
    return ((arf0_mask(base) >> v) & 1) ^ 1


def action_shift(g: F2Matrix, base: BaseForm) -> int:
    """Vector w with act(g, Q_v) = Q_{g(v + w)} for every v.

    w is determined by <x, w> = Q0(gx) + Q0(x); the right side is linear in x
    whenever g is symplectic, so reading it off the basis vectors suffices.
    """
    table = base.table
    delta = 0
    for i, c in enumerate(g.cols()):  # column i is g(e_i)
        delta |= (((table >> c) ^ (table >> (1 << i))) & 1) << i
    return _swap_halves(delta, base.m)  # standard Gram matrix is its own inverse


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
    # Q_v -> Q_g(v + w), with w the generator's action shift
    moves = [
        lambda v, apply=g.apply, w=action_shift(g, base): apply(v ^ w)
        for g in generator_matrices(group, base.space)
    ]
    todo = {f.v for f in forms}
    out: List[List[QuadraticForm]] = []
    while todo:
        # seeded at the smallest form left, so orbits come in that order
        orbit = _orbit(min(todo), moves)
        if not todo.issuperset(orbit):
            raise ValueError("forms are not closed under the group action")
        todo.difference_update(orbit)
        out.append([QuadraticForm(base, v) for v in sorted(orbit)])
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
    for x, tx in enumerate(t.images()):
        if val(tx) != (target >> x) & 1:
            raise AssertionError("adapted basis fails to standardize the form")
    return t
