"""Materialized subgroups of Sp_2m(F2): closure, fixed forms, and the census.

Group elements are packed ints (rows concatenated, row i at bit offset
i*dim). A subgroup keeps them as an ascending sequence, searched by
bisection, so even O(Q) in Sp6(F2) needs no hash table; the handle's one
constructor keeps the sequence as its caller sorted it. Sp_2m(F2) itself
is the one exception: it is read off the last-row chain that proves its
order (`_LastRowCosets`), element i the product of one stabilizer element
and one transversal element, and membership tests the rows' pairings.
O(Q) at dim <= 6 keeps an `array('Q')` of 8-byte words, and every other
handle a tuple. `_product` multiplies one pair; `_RightMul` multiplies a
batch on the right by one element, in dim row-table lookups a product. A
closure grows one generator at a time, <H, s> from the closed H, by right
cosets of H (Dimino): each element is multiplied out once, in batches of
whole cosets. One level of a stabilizer chain (`_LastRowChain`) holds the
orbit of the last packed row with a transversal, and the closure of that
row's stabilizer H. On the two-element core of Sp_2m(F2) it proves the
group's order and lists the elements; on the transvections of a form it
builds O(Q), so no closure grows past H and the elements come coset by
coset, H t_w by ascending w.
The census joins each subgroup H once per double coset H g H, since
<H, h g h'> = <H, g> for h, h' in H; it walks element indices, where a
product is one read of a Cayley table (`_CayleyRight`). Conjugation has one
map on elements (`_conjugator`) and one on sets of them (`_set_conjugator`).
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from collections.abc import Set
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Collection, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .f2core import (
    F2Matrix,
    SymplecticSpace,
    _combine,
    _orbit,
    _span_table,
    affine_span,
    is_symplectic,
    solve_affine,
    standard_symplectic,
)
from .quadforms import (
    BaseForm,
    QuadraticForm,
    action_shift,
    arf0_mask,
    form_from_vector,
    generator_matrices,
    standard_base_form,
)

__all__ = [
    "ClosureCapExceeded",
    "SubgroupHandle",
    "transvection",
    "all_transvections",
    "close",
    "symplectic_group",
    "symplectic_order_formula",
    "orthogonal_group",
    "smallest_fixed_vector",
    "has_nonzero_fixed_vector",
    "fixed_forms",
    "common_fixed_form_vectors",
    "invariant_arf0_vectors",
    "ObstructionReport",
    "obstruction_conditions",
    "CensusClass",
    "GroupCensus",
    "subgroup_census",
    "gl22_common_fixed_vector",
    "lemma51_scan",
    "order6_uniqueness_scan",
]

DEFAULT_CAP = 2_000_000


class ClosureCapExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"closure exceeded the cap of {cap} elements")
        self.cap = cap


# ---------------------------------------------------------------------------
# packed-matrix engine

def _rows(packed: int, dim: int) -> List[int]:
    mask = (1 << dim) - 1
    return [(packed >> (i * dim)) & mask for i in range(dim)]


def _product(a: int, b: int, dim: int) -> int:
    """The single product a * b: each row of a combines the rows of b."""
    mask = (1 << dim) - 1
    brows = _rows(b, dim)
    out = 0
    for shift in range(0, dim * dim, dim):
        out |= _combine((a >> shift) & mask, brows) << shift
    return out


class _RightMul:
    """x -> x * b over a batch of packed elements x. It holds b's row
    table, r * b for all 2^dim row vectors r (2^dim XORs), so a product is
    dim lookups."""

    __slots__ = ("dim", "table")

    def __init__(self, b: int, dim: int):
        self.dim = dim
        self.table = _span_table(_rows(b, dim))

    @property
    def ident(self) -> int:
        """The packed identity, where `_mulclose` starts."""
        return _identity(self.dim)

    def __call__(self, xs: Collection[int]) -> List[int]:
        dim = self.dim
        tab = self.table
        mask = (1 << dim) - 1
        top = dim * dim
        out = []
        for a in xs:
            p = 0
            shift = 0
            while shift < top:
                p |= tab[(a >> shift) & mask] << shift
                shift += dim
            out.append(p)
        return out


class _CayleyRight:
    """x -> x * g on element indices: row g of a Cayley table, perm[i] the
    index of element_i * g, so a product is one list read. `ident` is the
    identity's index, as `_mulclose` needs it."""

    __slots__ = ("perm", "ident")

    def __init__(self, perm: List[int], ident: int):
        self.perm = perm
        self.ident = ident

    def __call__(self, xs: Iterable[int]) -> List[int]:
        perm = self.perm
        return [perm[x] for x in xs]


def _inv_packed(a: int, dim: int) -> int:
    return F2Matrix.from_packed(a, dim).inverse().packed


def _conjugator(g: int, dim: int) -> Callable[[int], int]:
    """x -> g x g^-1 on packed elements."""
    ginv = _inv_packed(g, dim)
    return lambda x: _product(_product(g, x, dim), ginv, dim)


def _set_conjugator(g: int, dim: int) -> Callable[[Iterable[int]], FrozenSet[int]]:
    """X -> g X g^-1 on sets of packed elements, as (g h) g^-1 for each
    element h of X, the right factor in one batch."""
    right = _RightMul(_inv_packed(g, dim), dim)
    return lambda xs: frozenset(right([_product(g, h, dim) for h in xs]))


@lru_cache(maxsize=None)
def _identity(dim: int) -> int:
    """The packed identity matrix of dimension dim."""
    return F2Matrix.identity(dim).packed


def _grow_core(
    candidates: Iterable[int], dim: int, cap: int
) -> Tuple[set[int], Tuple[int, ...]]:
    """Closure of the candidates and the core of those that were not yet in
    the running closure when their turn came. Each core element p closes
    one step, <closure so far, p>, through `_mulclose`, and its `_RightMul`
    serves every later step."""
    elements = {_identity(dim)}
    core: List[int] = []
    rights: List[_RightMul] = []
    for p in candidates:
        if p in elements:
            continue
        core.append(p)
        rights.append(_RightMul(p, dim))
        elements = _mulclose(rights, elements, cap)
    return elements, tuple(core)


def _mulclose(rights: Sequence[_RightMul | _CayleyRight], group: Collection[int], cap: int) -> set[int]:
    """<group, s>, where `rights` multiply by generators whose last is s and
    group is the closed subgroup the others generate.

    Dimino's closure by right cosets, in batches. H = group is listed
    identity first, so a right coset H r is a block of |H| elements that
    starts with r, and (H r) t is the block of H rt. Each round takes, for
    each generator t, the frontier's representatives times t in one batch,
    rts; a product rt outside the closure names a new coset, and a second
    batch multiplies the blocks of all of t's new cosets by t. Both batches
    go through t's own right multiplier (a `_RightMul` on packed elements,
    or a `_CayleyRight` on indices; either names the identity), so each
    element is multiplied out once and membership is tested once per coset
    and generator. With H trivial a block is its representative, so the new
    block is rts minus the closure: the plain breadth-first step.
    Raises ClosureCapExceeded once the closure has more than `cap` elements.
    """
    ident = rights[0].ident
    front = [ident]
    front += [h for h in group if h != ident]
    size = len(front)
    seen = set(front)
    while front:
        fresh: List[int] = []
        for right in rights:
            rts = right(front[::size])
            if size == 1:
                block = [rt for rt in rts if rt not in seen]
            else:
                block = right(
                    [x for i, rt in enumerate(rts) if rt not in seen for x in front[i * size : (i + 1) * size]]
                )
            seen.update(block)
            fresh += block
        if len(seen) > cap:
            raise ClosureCapExceeded(cap)
        front = fresh
    return seen


# ---------------------------------------------------------------------------
# subgroup handles

class _SortedView(Set):
    """Read-only, unhashable set view of an ascending sequence of elements.

    Membership bisects the sequence; `<=`, `==` and the other comparisons
    come from `collections.abc.Set`, so the view compares with frozensets
    in either order.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Sequence[int]):
        self._items = items

    def __contains__(self, x: object) -> bool:
        items = self._items
        i = bisect_left(items, x)
        return i < len(items) and items[i] == x

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


class SubgroupHandle:
    """A subgroup with its declared generator list and its elements.

    The elements are the sequence `elements`, which the constructor keeps
    as given: the handle neither sorts nor copies them. `symplectic_group`
    passes a `_LastRowCosets`, which multiplies each element out of its
    last-row chain when it is read, coset by coset, so its elements are
    not ascending; it is a set itself, and `element_set` is the sequence.
    `orthogonal_group` passes an `array('Q')` (dim <= 6, so every element
    is below 2^36), filled with the sorted cosets of its last-row
    stabilizer. Closures, census subgroups and the obstruction groups up
    to dim 16, whose packed elements (dim^2 bits) can outgrow a 64-bit
    word, pass a sorted tuple. Callers index and iterate all three alike;
    for an array or a tuple `element_set` is a `_SortedView` that bisects
    it. Walking all of Sp6(F2) multiplies out its 1.45M elements again
    each time, so a caller that walks a group many times, or needs
    ascending order, sorts it once first. The elements are always the
    closure of `core`: `_grow_core` returns the two together;
    `orthogonal_group` finds its core by `_grow_core`'s walk over the
    sorted elements, with a `_LastRowChain` as the membership test;
    `symplectic_group` proves by the core's `_LastRowChain` that the core
    generates a group of order |Sp_2m(F2)|; the
    census and `lemma51_scan` pass each subgroup's join generators (empty
    for the trivial group). A subgroup test therefore needs only the core.
    """

    __slots__ = ("space", "dim", "generators", "elements", "order", "core")

    def __init__(
        self,
        space: SymplecticSpace,
        generators: Sequence[F2Matrix],
        elements: Sequence[int],
        core: Tuple[int, ...],
    ):
        self.space = space
        self.dim = space.dim
        self.generators = tuple(generators)
        self.elements = elements
        self.order = len(elements)
        self.core = core

    @property
    def element_set(self) -> Set:
        elements = self.elements
        return elements if isinstance(elements, Set) else _SortedView(elements)

    def contains(self, g) -> bool:
        packed = g.packed if isinstance(g, F2Matrix) else g
        return packed in self.element_set

    def matrices(self) -> Iterator[F2Matrix]:
        for p in self.elements:
            yield F2Matrix.from_packed(p, self.dim)

    def is_subgroup_of(self, other: "SubgroupHandle") -> bool:
        # the core generates this group and `other` is a group
        return all(p in other.element_set for p in self.core)

    def to_json(self) -> Dict[str, object]:
        return {
            "m": self.space.m,
            "generators": [g.to_text() for g in self.generators],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "SubgroupHandle":
        m = json_int(data, "m")
        gens = [F2Matrix.from_text(t) for t in data["generators"]]
        return close(gens, standard_symplectic(m))

    def __repr__(self) -> str:
        return f"SubgroupHandle(m={self.space.m}, order={self.order})"


def json_int(data: Dict[str, object], key: str) -> int:
    """data[key], which must be a JSON integer: ValueError for the floats
    that JSON reads 2.7 and 1e400 as, and for true and false."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def json_bool(data: Dict[str, object], key: str) -> bool:
    """data[key], which must be JSON true or false: ValueError for strings
    such as "false" and for numbers, which bool() would read as true."""
    value = data[key]
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def transvection(v: int, space: SymplecticSpace) -> F2Matrix:
    """T_v(x) = x + <x,v> v; defined for nonzero v, always symplectic."""
    if v == 0:
        raise ValueError("transvections need a nonzero vector")
    d = space.dim
    cols = []
    for j in range(d):
        e = 1 << j
        cols.append(e ^ (v if space.pairing(e, v) else 0))
    return F2Matrix.from_cols(cols, d)


def all_transvections(space: SymplecticSpace) -> List[F2Matrix]:
    return [transvection(v, space) for v in range(1, 1 << space.dim)]


def close(
    generators: Sequence[F2Matrix],
    space: Optional[SymplecticSpace] = None,
    cap: int = DEFAULT_CAP,
) -> SubgroupHandle:
    """Materialize the subgroup generated by `generators`.

    Works incrementally: generators already inside the running closure are
    skipped, so redundant generating sets (like all transvections) cost no
    more than a small core subset. Raises ClosureCapExceeded past `cap`.
    """
    generators = list(generators)
    if space is None:
        if not generators:
            raise ValueError("need a space or at least one generator")
        space = standard_symplectic(generators[0].dim // 2)
    for g in generators:
        if not is_symplectic(g, space):
            raise ValueError(f"generator is not symplectic: {g!r}")
    elements, core = _grow_core((g.packed for g in generators), space.dim, cap)
    return SubgroupHandle(space, generators, tuple(sorted(elements)), core)


def symplectic_order_formula(m: int) -> int:
    """|Sp_2m(F2)| = 2^(m^2) * prod_{i=1..m} (2^(2i) - 1)."""
    n = 1 << (m * m)
    for i in range(1, m + 1):
        n *= (1 << (2 * i)) - 1
    return n


def _orthogonal_order_formula(m: int, arf: int) -> int:
    """|O^e(2m, 2)| = 2 * 2^(m(m-1)) * (2^m - e) * prod_{i=1..m-1} (2^(2i) - 1),
    with e = +1 for a form of Arf 0 and e = -1 for Arf 1."""
    n = 2 * ((1 << m) - (1 if arf == 0 else -1)) << (m * (m - 1))
    for i in range(1, m):
        n *= (1 << (2 * i)) - 1
    return n


class _LastRowChain:
    """One level of a stabilizer chain of G = <gens> (Schreier-Sims; Seress,
    Permutation Group Algorithms, 2003).

    It holds the orbit of the last packed row e = 1 << (dim - 1) under right
    multiplication by the generators, found breadth first, with a
    transversal t_w (e t_w = w) for each row w in it, and the stabilizer H
    of e, closed through `_grow_core` from the Schreier generators
    t_w s t_(w s)^-1 (Schreier's lemma). |G| = |orbit| |H| by orbit and
    stabilizer. Every element of the coset H t_w has last row w, so c lies
    in G exactly when its last row w is in the orbit and c t_w^-1 lies in H.
    """

    __slots__ = ("dim", "reps", "stab", "_undo")

    def __init__(self, gens: Sequence[int], dim: int):
        self.dim = dim
        e = 1 << (dim - 1)
        rights = [_RightMul(s, dim) for s in gens]
        reps = {e: _identity(dim)}
        queue = [e]
        edges = []  # (t_w s, w s) for each edge the tree does not take
        for w in queue:
            t = reps[w]
            for right in rights:
                u, ts = right.table[w], right([t])[0]
                if u in reps:
                    edges.append((ts, u))
                else:
                    reps[u] = ts
                    queue.append(u)
        self.reps = reps
        self._undo = {w: _RightMul(_inv_packed(t, dim), dim) for w, t in reps.items()}
        schreier = (self._undo[u]([ts])[0] for ts, u in edges)
        self.stab, _ = _grow_core(schreier, dim, DEFAULT_CAP)

    @property
    def order(self) -> int:
        return len(self.reps) * len(self.stab)

    def __contains__(self, c: int) -> bool:
        undo = self._undo.get(c >> ((self.dim - 1) * self.dim))
        return undo is not None and undo([c])[0] in self.stab


class _LastRowCosets(Sequence, Set):
    """Sp_2m(F2), read off the last-row chain that proves its order.

    It keeps the chain's stabilizer H of the last packed row, sorted once
    into an `array('Q')`, and a transversal t_w for the last rows w by
    ascending value. Element i is H[i % |H|] t_w for the (i // |H|)-th
    row w: the cosets H t_w come by ascending last row, and within a coset
    in the order of H, so the elements are not ascending. Iteration
    multiplies them out 64 at a time, so a walk that stops early costs
    little more than what it reads. g is in Sp_2m(F2) exactly when its
    rows form a symplectic basis: row i pairs to 1 with row i + m (mod 2m)
    and to 0 with every other row, which membership tests. `<=`, `==` and
    the other comparisons come from `collections.abc.Set`.
    """

    __slots__ = ("m", "dim", "_stab", "_reps", "_pairs")

    def __init__(self, chain: _LastRowChain):
        self.dim = dim = chain.dim
        self.m = m = dim // 2
        self._stab = array("Q", sorted(chain.stab))
        self._reps = [chain.reps[w] for w in sorted(chain.reps)]
        # (i, j, <row i, row j>) for i < j in a symplectic basis
        self._pairs = tuple((i, j, j == i + m) for i in range(dim) for j in range(i + 1, dim))

    def __len__(self) -> int:
        return len(self._reps) * len(self._stab)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        w, h = divmod(range(len(self))[i], len(self._stab))
        return _product(self._stab[h], self._reps[w], self.dim)

    def __iter__(self) -> Iterator[int]:
        stab = self._stab
        for t in self._reps:
            right = _RightMul(t, self.dim)
            for k in range(0, len(stab), 64):
                yield from right(stab[k : k + 64])

    def __contains__(self, x: object) -> bool:
        dim, m = self.dim, self.m
        if not isinstance(x, int) or x < 0 or x >> (dim * dim):
            return False
        mask = (1 << dim) - 1
        rows = [(x >> s) & mask for s in range(0, dim * dim, dim)]
        swapped = [(r >> m | r << m) & mask for r in rows]
        for i, j, pairing in self._pairs:
            if (rows[j] & swapped[i]).bit_count() & 1 != pairing:
                return False
        return True


@lru_cache(maxsize=None)
def symplectic_group(m: int) -> SubgroupHandle:
    """Sp_2m(F2) for m <= 3, its elements read off its last-row chain.

    The declared generators are all transvections. The core is (c, T): c
    is the product of a chain of plane-linking transvections T_e1, T_f1,
    T_(e1+e2), T_f2, ... and T = T_v for v = e2 (e1 for m = 1). The build
    is the order gate: the `_LastRowChain` of the core has order exactly
    |<c, T>|, the orbit of the last packed row times its stabilizer closed
    from Schreier generators (63 rows and 23 040 elements at m = 3). c and
    T are products of transvections, so <c, T> lies in Sp_2m(F2), and an
    order equal to the formula proves that they generate it. The elements
    are that chain's cosets (`_LastRowCosets`), each multiplied out when it
    is read, so they are not ascending; membership tests the rows'
    pairings, and every transvection must pass it.
    """
    order = symplectic_order_formula(m)
    if order > DEFAULT_CAP:
        raise ClosureCapExceeded(DEFAULT_CAP)
    space = standard_symplectic(m)
    dim = space.dim
    links = [1, 1 << m]  # e_1, f_1
    for i in range(1, m):
        links.append((1 << (i - 1)) | (1 << i))  # e_i + e_(i+1)
        links.append(1 << (m + i))  # f_(i+1)
    c = F2Matrix.identity(dim)
    for v in links:
        c = c * transvection(v, space)
    v = 1 if m == 1 else 0b10
    core = (c.packed, transvection(v, space).packed)
    chain = _LastRowChain(core, dim)
    if chain.order != order:
        raise AssertionError("the core's stabilizer chain disagrees with |Sp_2m(F2)|")
    generators = all_transvections(space)
    handle = SubgroupHandle(space, generators, _LastRowCosets(chain), core)
    if not all(handle.contains(g.packed) for g in generators):
        raise AssertionError("a transvection escaped the closure")
    return handle


def orthogonal_group(base: BaseForm, ambient: Optional[SubgroupHandle] = None) -> SubgroupHandle:
    """O(Q), the elements of Sp_2m(F2) preserving the form's value table.

    Generated by the transvections T_v with Q(v) = 1, which are exactly the
    transvections preserving Q; over F2 they generate O(Q) except for
    O+(4, 2) (Dieudonne; Taylor, The Geometry of the Classical Groups),
    which is refused. Their `_LastRowChain` gives the order, |orbit| x |H|,
    which is checked against |O^+-(2m, 2)|, and the elements: packed order
    compares the last row first, so the sorted cosets H t_w, by ascending
    last row w, are the sorted group. The largest set held is H (1920
    elements for O-(6, 2), whose last-row orbit has 27 rows). The core is
    the one `_grow_core` would find over the sorted elements: the same
    ascending walk, with the chain of the core so far as its membership
    test, which stops once that chain has the whole order. `ambient`, when
    given, must be the full Sp_2m(F2) on the form's space.
    """
    space = base.space
    m = base.m
    if ambient is not None and (
        ambient.space != space or ambient.order != symplectic_order_formula(m)
    ):
        raise ValueError("ambient must be the full symplectic group on the form's space")
    arf = base.arf
    if m == 2 and arf == 0:
        raise ValueError("O+(4, 2) is not generated by its transvections")
    want = _orthogonal_order_formula(m, arf)
    if want > DEFAULT_CAP:
        raise ClosureCapExceeded(DEFAULT_CAP)
    dim = space.dim
    # the value defect x -> Q(gx) + Q(x) is linear for symplectic g, so a
    # generator preserves Q once it does on the basis vectors
    basis_vals = [base.value(1 << i) for i in range(dim)]
    gens = []
    for v in range(1, 1 << dim):
        if base.value(v):
            t = transvection(v, space)
            if any(base.value(t.apply(1 << i)) != basis_vals[i] for i in range(dim)):
                raise AssertionError("a transvection with Q(v) = 1 moves the form")
            gens.append(t.packed)
    chain = _LastRowChain(gens, dim)
    if chain.order != want:
        raise AssertionError("the transvections' stabilizer chain disagrees with |O(Q)|")
    ordered = array("Q")
    for w in sorted(chain.reps):
        ordered.extend(sorted(_RightMul(chain.reps[w], dim)(chain.stab)))
    del chain
    core: List[int] = []
    sub = _LastRowChain(core, dim)
    for p in ordered:
        if p not in sub:
            core.append(p)
            sub = _LastRowChain(core, dim)
            if sub.order == want:  # every later element is a member
                break
    return SubgroupHandle(space, [F2Matrix.from_packed(p, dim) for p in core], ordered, tuple(core))


def smallest_fixed_vector(
    mats: Iterable[F2Matrix], dim: int, accept: Callable[[int], object] = bool
) -> Optional[int]:
    """Smallest x with g x = x for every g in mats and accept(x) true, or
    None; the default accepts every nonzero x."""
    rows = [g.rows[i] ^ (1 << i) for g in mats for i in range(dim)]
    got = solve_affine(rows, [0] * len(rows), dim)
    if got is None:
        raise AssertionError("the homogeneous system has no solution, not even x = 0")
    return min(filter(accept, affine_span(*got)), default=None)


def has_nonzero_fixed_vector(g: F2Matrix) -> Optional[int]:
    """Smallest nonzero fixed vector of g, or None."""
    return smallest_fixed_vector([g], g.dim)


def fixed_forms(group, forms: Iterable[QuadraticForm]) -> List[QuadraticForm]:
    """Forms fixed by every element; generators suffice as the action is a
    group action."""
    forms = list(forms)
    if not forms:
        return []
    base = forms[0].base
    maps = [(g, action_shift(g, base)) for g in generator_matrices(group, base.space)]
    out = []
    for f in forms:
        if all(g.apply(f.v ^ w) == f.v for g, w in maps):
            out.append(f)
    return out


def common_fixed_form_vectors(
    group, base: BaseForm
) -> Optional[Tuple[int, List[int]]]:
    """Solution set of {v : Q_v is fixed by the whole group}, stacked over
    the generators; None when empty."""
    d = base.space.dim
    rows: List[int] = []
    rhs: List[int] = []
    for g in generator_matrices(group, base.space):
        w = action_shift(g, base)
        gw = g.apply(w)
        rows.extend(g.rows[i] ^ (1 << i) for i in range(d))
        rhs.extend((gw >> i) & 1 for i in range(d))
    # with no generators there are no equations: every form is fixed
    return solve_affine(rows, rhs, d)


def invariant_arf0_vectors(group, base: BaseForm) -> Iterator[int]:
    """The v with Q_v of Arf 0 (`arf0_mask`) fixed by the whole group, in
    affine-span order; lazy, so a caller asking whether there is one stops
    at the first."""
    got = common_fixed_form_vectors(group, base)
    if got is not None:
        arf0 = arf0_mask(base)
        yield from (v for v in affine_span(*got) if (arf0 >> v) & 1)


@lru_cache(maxsize=8)  # one standard base form per m = 1..8
def _fixed_arf0_masks(base: BaseForm) -> Callable[[int], int]:
    """The kernel of `obstruction_conditions`: packed g -> its fixed Arf-0 mask."""
    d, m, table, arf0 = base.space.dim, base.m, base.table, arf0_mask(base)
    full, dmask, half = (1 << (1 << d)) - 1, (1 << d) - 1, (1 << m) - 1
    # units[j] = P(e_j); bit j of v, the carry of v + 2^j, is bit j+1 of v XOR of v + 2^j
    units = [full ^ (full >> (1 << (d - 1)))]
    for j in range(d - 2, -1, -1):
        units.insert(0, units[0] ^ units[0] >> (1 << j))
    low, high = _span_table(units[:m]), _span_table(units[m:])
    # row i's constant part: P(e_i), complemented unless Q0(e_s(i)) = 1
    rows = [(i * d, units[i] ^ (0 if base.value(1 << (i + m) % d) else full)) for i in range(d)]

    def fixed_arf0_mask(p: int) -> int:
        acc = arf0
        for shift, const in rows:
            row = (p >> shift) & dmask
            fixed = low[row & half] ^ high[row >> m] ^ const
            acc &= fixed ^ full if (table >> ((row >> m) | (row & half) << m)) & 1 else fixed
        return acc

    return fixed_arf0_mask


@dataclass(frozen=True)
class ObstructionReport:
    """The two conditions a subgroup must satisfy to obstruct globally while
    looking fine locally.

    no_invariant_arf0: no Arf-0 form is fixed by the whole group.
    every_element_fixes_arf0: each element separately fixes some Arf-0 form.
    """

    m: int
    no_invariant_arf0: bool
    every_element_fixes_arf0: bool
    invariant_arf0_vectors: Tuple[int, ...]
    failing_element: Optional[F2Matrix]
    element_witnesses: Optional[Dict[int, int]]

    @property
    def satisfied(self) -> bool:
        return self.no_invariant_arf0 and self.every_element_fixes_arf0

    def to_json(self) -> Dict[str, object]:
        return {
            "no_invariant_arf0": self.no_invariant_arf0,
            "every_element_fixes_arf0": self.every_element_fixes_arf0,
            "satisfied": self.satisfied,
        }


# groups up to this order get each element's fixed Arf-0 vector in the report
_WITNESS_CAP = 4096


def obstruction_conditions(
    group: SubgroupHandle,
    base: Optional[BaseForm] = None,
) -> ObstructionReport:
    """Evaluate both obstruction conditions on a materialized subgroup.

    Each element g gives one mask, bit v set when g fixes Q_v and Q_v has
    Arf 0 (`arf0_mask`, for a base of either Arf). Column s(i) of g^-1 is
    swap(row_i), s swapping the halves' indices, so g fixes Q_v when each
    row i has (row_i + e_i).v = Q0(swap(row_i)) + Q0(e_s(i)). The v with
    z.v = 1 form a mask P(z) linear in z, read from two span tables over
    z's halves, 2 * 2^m masks of 2^dim bits built once per base. The
    invariant vectors are the set bits of the AND over the core; an
    element's witness is the lowest set bit of its mask.
    """
    if base is None:
        base = standard_base_form(group.space.m)
    fixed_arf0_mask = _fixed_arf0_masks(base)
    common = arf0_mask(base)
    for g in generator_matrices(group, base.space):
        common &= fixed_arf0_mask(g.packed)
    invariant_arf0 = tuple(v for v, bit in enumerate(bin(common)[:1:-1]) if bit == "1")

    witnesses: Optional[Dict[int, int]] = {} if group.order <= _WITNESS_CAP else None
    failing: Optional[F2Matrix] = None
    for p in group.elements:
        mask = fixed_arf0_mask(p)
        if not mask:
            failing = F2Matrix.from_packed(p, base.space.dim)
            break
        if witnesses is not None:
            witnesses[p] = (mask & -mask).bit_length() - 1
    return ObstructionReport(
        m=base.m,
        no_invariant_arf0=not invariant_arf0,
        every_element_fixes_arf0=failing is None,
        invariant_arf0_vectors=invariant_arf0,
        failing_element=failing,
        element_witnesses=witnesses if failing is None else None,
    )


# ---------------------------------------------------------------------------
# subgroup census

@dataclass(frozen=True)
class CensusClass:
    order: int
    generators: Tuple[str, ...]
    orbit_size: int
    normalizer_order: int
    no_invariant_arf0: bool
    every_element_fixes_arf0: bool

    @property
    def satisfied(self) -> bool:
        return self.no_invariant_arf0 and self.every_element_fixes_arf0

    def to_json(self) -> Dict[str, object]:
        return {
            "order": self.order,
            "generators": list(self.generators),
            "orbit_size": self.orbit_size,
            "normalizer_order": self.normalizer_order,
            "no_invariant_arf0": self.no_invariant_arf0,
            "every_element_fixes_arf0": self.every_element_fixes_arf0,
            "satisfied": self.satisfied,
        }


@dataclass(frozen=True)
class GroupCensus:
    m: int
    ambient_order: int
    total_subgroups: int
    classes: Tuple[CensusClass, ...]

    @property
    def satisfying(self) -> Tuple[CensusClass, ...]:
        return tuple(c for c in self.classes if c.satisfied)

    def to_json(self) -> Dict[str, object]:
        return {
            "m": self.m,
            "ambient_order": self.ambient_order,
            "total_subgroups": self.total_subgroups,
            "classes": len(self.classes),
            "satisfying": len(self.satisfying),
            "class_details": [c.to_json() for c in self.classes],
        }


def _all_subgroups(ambient: SubgroupHandle) -> Dict[FrozenSet[int], Tuple[int, ...]]:
    """Every subgroup of the ambient group, as {element set: generator core}.

    Join closure from the trivial group: any subgroup is reachable as
    <H, g> from a proper subgroup H, since dropping one member of a minimal
    generating set leaves a smaller subgroup. One join per double coset
    H g H is enough because <H, h g h'> = <H, g> for h, h' in H. The joined
    g is the smallest element left, so every element of H g H still left
    is larger, and joining it would have added nothing; dropping the whole
    double coset therefore gives the same dict, in the same insertion
    order, as a walk over the right cosets H g.

    The walk runs on the elements' indices in ascending packed order, where
    the right product by g is row g of the ambient group's Cayley table;
    the numbering keeps the order, so `min` picks the same g. The table
    (|G|^2 small ints) lives for this call only, and the dict is mapped back
    to packed elements once at the end.
    """
    dim = ambient.dim
    elements = sorted(ambient.elements)
    index = {g: i for i, g in enumerate(elements)}
    ident = index[_identity(dim)]
    rights = [
        _CayleyRight([index[x] for x in _RightMul(g, dim)(elements)], ident) for g in elements
    ]
    cap = ambient.order + 1
    subs: Dict[FrozenSet[int], Tuple[int, ...]] = {frozenset({ident}): ()}
    queue = deque(subs.keys())
    while queue:
        hset = queue.popleft()
        hgens = subs[hset]
        hrights = [rights[h] for h in hgens]
        hall = [rights[h] for h in hset]
        remaining = set(range(len(elements))) - hset
        while remaining:
            g = min(remaining)
            right = rights[g]
            jset = frozenset(_mulclose(hrights + [right], hset, cap))
            if jset not in subs:
                subs[jset] = hgens + (g,)
                queue.append(jset)
            hg = right(hset)
            remaining.difference_update(*(r(hg) for r in hall))
    return {
        frozenset([elements[i] for i in hset]): tuple([elements[i] for i in hgens])
        for hset, hgens in subs.items()
    }


def _conjugation_orbits(family, ambient: SubgroupHandle) -> List[list]:
    """Partition `family` into orbits under conjugation by the ambient group.

    Members are subgroups, as frozensets of packed elements, ordered by
    their sorted elements; `family` is any container of them (a set, or a
    dict keyed by them). Each orbit is sorted and the orbits come in
    increasing order of their smallest member. A conjugate outside the
    family is an error.
    """
    moves = [_set_conjugator(g, ambient.dim) for g in ambient.core]
    seen = set()
    orbits = []
    for seed in sorted(family, key=sorted):
        if seed in seen:
            continue
        orbit = _orbit(seed, moves)
        if not all(y in family for y in orbit):
            raise AssertionError("conjugate left the family")
        seen.update(orbit)
        orbit.sort(key=sorted)
        orbits.append(orbit)
    return orbits


def _transporters(
    gens: Sequence[int],
    target: FrozenSet[int],
    everything: Sequence[int],
    dim: int,
) -> Iterator[int]:
    """Every a in `everything`, the ambient group's elements, with a g a^-1
    in target for each g in gens, in element order; with target = <gens>
    these are the normalizer."""
    for a in everything:
        conj = _conjugator(a, dim)
        if all(conj(h) in target for h in gens):
            yield a


def subgroup_census(m: int) -> GroupCensus:
    """All subgroups of Sp_2m(F2) up to conjugacy, with the condition verdicts.

    Supported for m in {1, 2}; the ambient groups have orders 6 and 720.
    """
    if m not in (1, 2):
        raise ValueError("census is materialized for m in {1, 2} only")
    ambient = symplectic_group(m)
    base = standard_base_form(m)
    subs = _all_subgroups(ambient)
    orbits = _conjugation_orbits(subs, ambient)
    everything = tuple(ambient.elements)  # walked once per class

    total = len(subs)
    if sum(len(orb) for orb in orbits) != total:
        raise AssertionError("conjugacy orbits do not partition the subgroups")

    classes = []
    for orb in orbits:
        rep = orb[0]
        repgens = subs[rep]
        norm_order = sum(1 for _ in _transporters(repgens, rep, everything, ambient.dim))
        if norm_order * len(orb) != ambient.order:
            raise AssertionError("orbit size disagrees with the normalizer index")
        gens_m = [F2Matrix.from_packed(p, ambient.dim) for p in repgens] or [
            F2Matrix.identity(ambient.dim)
        ]
        handle = SubgroupHandle(ambient.space, gens_m, tuple(sorted(rep)), repgens)
        report = obstruction_conditions(handle, base)
        classes.append(
            CensusClass(
                order=len(rep),
                generators=tuple(g.to_text() for g in gens_m),
                orbit_size=len(orb),
                normalizer_order=norm_order,
                no_invariant_arf0=report.no_invariant_arf0,
                every_element_fixes_arf0=report.every_element_fixes_arf0,
            )
        )
    if sum(ambient.order // c.normalizer_order for c in classes) != total:
        raise AssertionError("normalizer indices do not sum to the subgroup count")
    classes.sort(key=lambda c: (c.order, c.generators))
    return GroupCensus(
        m=m,
        ambient_order=ambient.order,
        total_subgroups=total,
        classes=tuple(classes),
    )


def gl22_common_fixed_vector(group: SubgroupHandle) -> int:
    """For a subgroup of Sp_2(F2) in which every element fixes a nonzero
    vector, return a nonzero vector fixed by all of it."""
    if group.dim != 2:
        raise ValueError("this helper is specific to m = 1")
    for g in group.matrices():
        if has_nonzero_fixed_vector(g) is None:
            raise ValueError("an element fixes no nonzero vector")
    best = smallest_fixed_vector((F2Matrix.from_packed(p, 2) for p in group.core), 2)
    if best is None:
        raise AssertionError("no common fixed vector despite elementwise fixes")
    return best


def lemma51_scan() -> List[Tuple[SubgroupHandle, Optional[int]]]:
    """Every subgroup of Sp_2(F2), by order then elements, with its common
    nonzero fixed vector when each of its elements fixes a nonzero vector
    (None otherwise). The handle's core is its join generators, empty for
    the trivial group."""
    sp1 = symplectic_group(1)
    out = []
    for hset, hgens in sorted(
        _all_subgroups(sp1).items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
    ):
        gens = [F2Matrix.from_packed(p, 2) for p in hgens] or [F2Matrix.identity(2)]
        handle = SubgroupHandle(sp1.space, gens, tuple(sorted(hset)), hgens)
        qualifies = all(has_nonzero_fixed_vector(g) is not None for g in handle.matrices())
        out.append((handle, gl22_common_fixed_vector(handle) if qualifies else None))
    return out


# ---------------------------------------------------------------------------
# the order-6 scan

def _arf0_seeds(
    sp6: SubgroupHandle, base: BaseForm
) -> Tuple[SubgroupHandle, Dict[int, int], set[int]]:
    """O+ = O(Q_v0) for the smallest v0 with Q_v of Arf 0, a transversal
    {u: x_u} with act(x_u, Q_v0) = Q_u over the Arf-0 forms Q_u, and the
    involutions that fix an Arf-0 form, x h x^-1 over the transversal and
    O+'s involutions h, inserted in ascending order. The transversal comes
    from a breadth-first search over the core, x_u = c x_v for u the
    vector of act(c, Q_v); it must reach all 36 forms, since the seeding is
    complete only because Sp_6(F2) is transitive on them."""
    dim, ident = sp6.dim, _identity(sp6.dim)
    arf0 = arf0_mask(base)
    v0 = (arf0 & -arf0).bit_length() - 1
    oplus = orthogonal_group(BaseForm(sp6.space, form_from_vector(base, v0).table), sp6)
    steps = [(c, F2Matrix.from_packed(c, dim)) for c in sp6.core]
    transversal = {v0: ident}
    queue = [v0]
    for v in queue:
        for c, cm in steps:
            u = cm.apply(v ^ action_shift(cm, base))
            if u not in transversal:
                transversal[u] = _product(c, transversal[v], dim)
                queue.append(u)
    if len(transversal) != arf0.bit_count():
        raise AssertionError("Sp_6(F2) is not transitive on the Arf-0 forms")
    involutions = [h for h in oplus.elements if h != ident and _product(h, h, dim) == ident]
    qual2 = set(sorted(_conjugator(x, dim)(h) for x in transversal.values() for h in involutions))
    return oplus, transversal, qual2


def order6_uniqueness_scan() -> Dict[str, object]:
    """Classify the order-6 subgroups of Sp_6(F2) satisfying both conditions.

    An order-6 group is cyclic or dihedral, and no cyclic group qualifies:
    a form fixed by g is fixed by <g>, so "g fixes an Arf-0 form"
    (condition 2 on the generator) and "<g> fixes none" (condition 1)
    exclude each other. So the scan assembles dihedral groups <r, t> from
    elements of orders 3 and 2 that fix an Arf-0 form. Sp_6(F2) is
    transitive on the 36 Arf-0 forms, so an element fixes one exactly when
    it is conjugate into O+ = O+(6, 2), the stabilizer of one of them
    (order 40 320): the involutions come from O+ through `_arf0_seeds`, and
    r runs over one order-3 element of O+ per Sp_6 class. Every qualifying
    group is conjugate to one through such an r, so the conjugation orbits
    of the groups found from each r make up the whole family. Each class is
    listed with its orbit size and (r, t): r the smallest element of order
    3 in the class's first group, t the first of its involutions in the
    order the seeded set iterates. Takes a few seconds.
    """
    sp6 = symplectic_group(3)
    base = standard_base_form(3)
    fixed_arf0_mask = _fixed_arf0_masks(base)
    dim, ident = sp6.dim, _identity(sp6.dim)
    oplus, _, qual2 = _arf0_seeds(sp6, base)
    conj = [_conjugator(g, dim) for g in sp6.core]
    set_conj = [_set_conjugator(g, dim) for g in sp6.core]

    def order3(p: int) -> bool:
        return p != ident and _product(_product(p, p, dim), p, dim) == ident

    reps: List[int] = []
    seen: set[int] = set()
    for r in filter(order3, oplus.elements):
        if r not in seen:
            reps.append(r)
            seen.update(_orbit(r, conj))
    involutions = list(qual2)  # the iteration order of qual2, which the golden pins
    family: set[FrozenSet[int]] = set()
    for r in reps:
        # for r of order 3 and an involution t, t r t = r^2 exactly when t r
        # is an involution, and then t r = r^2 t; qual2 holds every
        # involution that fixes an Arf-0 form
        for t, tr in zip(involutions, _RightMul(r, dim)(involutions)):
            rt = _product(r, t, dim)
            if tr not in qual2 or rt not in qual2:
                continue
            key = frozenset({ident, r, _product(r, r, dim), t, rt, tr})
            # <r, t> fixes the Arf-0 forms that both r and t fix
            if key not in family and not fixed_arf0_mask(r) & fixed_arf0_mask(t):
                family.update(_orbit(key, set_conj))
    classes: List[Dict[str, object]] = []
    for orbit in _conjugation_orbits(family, sp6):
        r = min(filter(order3, orbit[0]))
        t = next(t for t in involutions if t in orbit[0])
        gens = [F2Matrix.from_packed(p, dim).to_text() for p in (r, t)]
        classes.append({"kind": "dihedral", "orbit_size": len(orbit), "generators": gens})
    classes.sort(key=lambda c: c["orbit_size"])
    return {"m": 3, "candidates": len(family), "classes": len(classes), "class_details": classes}
