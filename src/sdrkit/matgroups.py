"""Materialized subgroups of Sp_2m(F2): closure, filters, and the census.

Group elements are packed ints (rows concatenated, row i at bit offset
i*dim), which makes sets of a million elements practical. Per-generator row
tables turn a matrix product into dim table lookups, so breadth-first closure
of Sp6(F2) finishes in seconds.
"""
from __future__ import annotations

import json
import time
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .f2core import (
    F2Matrix,
    SymplecticSpace,
    affine_span,
    is_symplectic,
    solve_affine,
    standard_symplectic,
)
from .quadforms import (
    BaseForm,
    QuadraticForm,
    action_shift,
    fixed_form_vectors,
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
    "census_m3_incremental",
]

DEFAULT_CAP = 2_000_000


class ClosureCapExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"closure exceeded the cap of {cap} elements")
        self.cap = cap


# ---------------------------------------------------------------------------
# packed-matrix engine

# Row tables have 2^dim entries each, so the cache is bounded by the bytes
# they hold. An entry is an 8-byte pointer, plus a separate int object of
# about 28 bytes once it can exceed 256 (dim > 8): 65536 tables fit at dim 6
# and 14 at dim 16.
ROW_TABLE_CACHE_BYTES = 32 << 20
_ROW_TABLE_CACHE: Dict[Tuple[int, int], Tuple[int, ...]] = {}
_row_table_cached_bytes = 0


def _row_table_bytes(dim: int) -> int:
    return (1 << dim) * (8 if dim <= 8 else 36)


def _row_table(packed: int, dim: int) -> Tuple[int, ...]:
    """Table over all 2^dim row vectors r of the product r * M."""
    global _row_table_cached_bytes
    key = (dim, packed)
    cached = _ROW_TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    mask = (1 << dim) - 1
    rows = [(packed >> (i * dim)) & mask for i in range(dim)]
    size = 1 << dim
    tab = [0] * size
    for r in range(1, size):
        low = r & -r
        tab[r] = tab[r ^ low] ^ rows[low.bit_length() - 1]
    result = tuple(tab)
    cost = _row_table_bytes(dim)
    if _row_table_cached_bytes + cost <= ROW_TABLE_CACHE_BYTES:
        _ROW_TABLE_CACHE[key] = result
        _row_table_cached_bytes += cost
    return result


def _mul_table(a: int, table: Sequence[int], dim: int, mask: int) -> int:
    out = 0
    shift = 0
    top = dim * dim
    while shift < top:
        out |= table[(a >> shift) & mask] << shift
        shift += dim
    return out


def _mul_generic(a: int, b: int, dim: int, mask: int) -> int:
    out = 0
    for i in range(dim):
        rr = (a >> (i * dim)) & mask
        acc = 0
        while rr:
            low = rr & -rr
            acc ^= (b >> ((low.bit_length() - 1) * dim)) & mask
            rr ^= low
        out |= acc << (i * dim)
    return out


def _inv_packed(a: int, dim: int) -> int:
    return F2Matrix.from_packed(a, dim).inverse().packed


def _grow_core(
    candidates: Iterable[int], dim: int, cap: int
) -> Tuple[FrozenSet[int], Tuple[int, ...]]:
    """Closure of the candidates and the core of those that were not yet in
    the running closure when their turn came."""
    elements: FrozenSet[int] = frozenset({F2Matrix.identity(dim).packed})
    core: List[int] = []
    for p in candidates:
        if p in elements:
            continue
        core.append(p)
        elements = _mulclose(core, dim, elements | {p}, cap)
    return elements, tuple(core)


def _mulclose(
    gens: Sequence[int],
    dim: int,
    seed: Iterable[int],
    cap: int,
) -> FrozenSet[int]:
    """Closure of <gens> containing seed; seed must sit inside <gens>."""
    mask = (1 << dim) - 1
    tables = [_row_table(g, dim) for g in gens]
    seen = set(seed)
    frontier = list(seen)
    top = dim * dim
    while frontier:
        fresh = []
        for t in tables:
            for a in frontier:
                out = 0
                shift = 0
                while shift < top:
                    out |= t[(a >> shift) & mask] << shift
                    shift += dim
                if out not in seen:
                    seen.add(out)
                    fresh.append(out)
        if len(seen) > cap:
            raise ClosureCapExceeded(cap)
        frontier = fresh
    return frozenset(seen)


# ---------------------------------------------------------------------------
# subgroup handles

class SubgroupHandle:
    """A fully materialized subgroup with its declared generator list."""

    __slots__ = ("space", "dim", "generators", "elements", "element_set", "order", "core")

    def __init__(
        self,
        space: SymplecticSpace,
        generators: Sequence[F2Matrix],
        element_set: FrozenSet[int],
        core: Optional[Tuple[int, ...]] = None,
    ):
        self.space = space
        self.dim = space.dim
        self.generators = tuple(generators)
        self.element_set = element_set
        self.elements = tuple(sorted(element_set))
        self.order = len(element_set)
        # a small internal generating subset, kept for cheap conjugation work
        self.core = core if core is not None else tuple(g.packed for g in self.generators)

    def contains(self, g) -> bool:
        packed = g.packed if isinstance(g, F2Matrix) else g
        return packed in self.element_set

    def matrices(self) -> Iterator[F2Matrix]:
        for p in self.elements:
            yield F2Matrix.from_packed(p, self.dim)

    def is_subgroup_of(self, other: "SubgroupHandle") -> bool:
        return self.element_set <= other.element_set

    def to_json(self) -> Dict[str, object]:
        return {
            "m": self.space.m,
            "generators": [g.to_text() for g in self.generators],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object], cap: int = DEFAULT_CAP) -> "SubgroupHandle":
        m = int(data["m"])
        gens = [F2Matrix.from_text(t) for t in data["generators"]]
        return close(gens, standard_symplectic(m), cap=cap)

    def __repr__(self) -> str:
        return f"SubgroupHandle(m={self.space.m}, order={self.order})"


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
    return SubgroupHandle(space, generators, elements, core=core)


def symplectic_order_formula(m: int) -> int:
    """|Sp_2m(F2)| = 2^(m^2) * prod_{i=1..m} (2^(2i) - 1)."""
    n = 1 << (m * m)
    for i in range(1, m + 1):
        n *= (1 << (2 * i)) - 1
    return n


@lru_cache(maxsize=None)
def symplectic_group(m: int) -> SubgroupHandle:
    """Sp_2m(F2) as the closure of all transvections (m <= 3 materializes).

    Candidate order feeds a chain of plane-linking transvections first so the
    incremental closure settles on a small core before sweeping the rest.
    """
    space = standard_symplectic(m)
    chain = [1, 1 << m]  # e_1, f_1
    for i in range(1, m):
        chain.append((1 << (i - 1)) | (1 << i))  # e_i + e_(i+1)
        chain.append(1 << (m + i))  # f_(i+1)
    rest = [v for v in range(1, 1 << space.dim) if v not in set(chain)]
    ordered = [transvection(v, space) for v in chain + rest]
    handle = close(ordered, space)
    # closure must swallow every transvection; the declared generator list
    # is the full transvection set regardless of the core actually used
    for g in ordered:
        if not handle.contains(g):
            raise AssertionError("transvection escaped its own closure")
    return SubgroupHandle(
        space,
        all_transvections(space),
        handle.element_set,
        core=handle.core,
    )


def orthogonal_group(base: BaseForm, ambient: Optional[SubgroupHandle] = None) -> SubgroupHandle:
    """Elements of the ambient group preserving the form's value table.

    Because the value defect x -> Q(gx) + Q(x) is linear for symplectic g,
    checking the basis vectors suffices.
    """
    m = base.m
    if ambient is None:
        ambient = symplectic_group(m)
    dim = ambient.dim
    mask = (1 << dim) - 1
    table = base.table
    basis_vals = [(table >> (1 << i)) & 1 for i in range(dim)]
    kept = []
    for p in ambient.elements:
        ok = True
        for i in range(dim):
            col = 0
            for r in range(dim):
                col |= ((p >> (r * dim + i)) & 1) << r
            if (table >> col) & 1 != basis_vals[i]:
                ok = False
                break
        if ok:
            kept.append(p)
    kept_set = frozenset(kept)
    elements, core = _grow_core(kept, dim, DEFAULT_CAP)
    if elements != kept_set:
        raise AssertionError("form stabilizer failed to close onto itself")
    gens = [F2Matrix.from_packed(p, dim) for p in core]
    return SubgroupHandle(ambient.space, gens, kept_set, core=core)


def smallest_fixed_vector(
    mats: Iterable[F2Matrix], dim: int, accept: Callable[[int], object] = bool
) -> Optional[int]:
    """Smallest x with g x = x for every g in mats and accept(x) true, or
    None; the default accepts every nonzero x."""
    rows = [g.rows[i] ^ (1 << i) for g in mats for i in range(dim)]
    got = solve_affine(rows, [0] * len(rows), dim)
    assert got is not None  # homogeneous systems always have x = 0
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
    """The v with Q_v of Arf 0 (Q0(v) = 1) fixed by the whole group, in
    affine-span order; lazy, so a caller asking whether there is one stops
    at the first."""
    got = common_fixed_form_vectors(group, base)
    if got is not None:
        yield from (v for v in affine_span(*got) if base.value(v) == 1)


def _fixed_arf0_vector(g: F2Matrix, base: BaseForm) -> Optional[int]:
    """Smallest v with Q_v of Arf 0 fixed by g, or None."""
    got = fixed_form_vectors(g, base)
    if got is None:
        return None
    best = None
    for v in affine_span(*got):  # a plain loop: this runs for every element
        if base.value(v) == 1 and (best is None or v < best):
            best = v
    return best


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


def obstruction_conditions(
    group: SubgroupHandle,
    base: Optional[BaseForm] = None,
    witness_cap: int = 4096,
) -> ObstructionReport:
    """Evaluate both obstruction conditions on a materialized subgroup."""
    if base is None:
        base = standard_base_form(group.space.m)
    d = base.space.dim
    invariant_arf0 = sorted(invariant_arf0_vectors(group, base))
    cond1 = not invariant_arf0

    witnesses: Optional[Dict[int, int]] = {} if group.order <= witness_cap else None
    cond2 = True
    failing: Optional[F2Matrix] = None
    for p in group.elements:
        g = F2Matrix.from_packed(p, d)
        v = _fixed_arf0_vector(g, base)
        if v is None:
            cond2 = False
            failing = g
            break
        if witnesses is not None:
            witnesses[p] = v
    return ObstructionReport(
        m=base.m,
        no_invariant_arf0=cond1,
        every_element_fixes_arf0=cond2,
        invariant_arf0_vectors=tuple(invariant_arf0),
        failing_element=failing,
        element_witnesses=witnesses if cond2 else None,
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
    generating set leaves a smaller subgroup. One representative g per right
    coset H g is enough because <H, hg> = <H, g>.
    """
    dim = ambient.dim
    mask = (1 << dim) - 1
    ident = F2Matrix.identity(dim).packed
    cap = ambient.order + 1
    everything = ambient.element_set
    subs: Dict[FrozenSet[int], Tuple[int, ...]] = {frozenset({ident}): ()}
    queue = deque(subs.keys())
    while queue:
        hset = queue.popleft()
        hgens = subs[hset]
        remaining = set(everything) - hset
        while remaining:
            g = min(remaining)
            jgens = hgens + (g,)
            jset = _mulclose(jgens, dim, hset | {g}, cap)
            if jset not in subs:
                subs[jset] = jgens
                queue.append(jset)
            gt = _row_table(g, dim)
            coset = {_mul_table(h, gt, dim, mask) for h in hset}
            remaining -= coset
    return subs


def _conjugation_orbits(family, ambient: SubgroupHandle) -> List[list]:
    """Partition `family` into orbits under conjugation by the ambient group.

    Members are packed elements, or frozensets of them (subgroups) ordered
    by their sorted elements; `family` is any container of them (a set, or
    a dict keyed by them). Each orbit is sorted and the orbits come in
    increasing order of their smallest member. A conjugate outside the
    family is an error.
    """
    dim = ambient.dim
    mask = (1 << dim) - 1
    # (g, right-table of g^-1): h -> (g h) g^-1
    conjugators = [(p, _row_table(_inv_packed(p, dim), dim)) for p in ambient.core]

    def conj(h: int, g: int, t_ginv: Sequence[int]) -> int:
        return _mul_table(_mul_generic(g, h, dim, mask), t_ginv, dim, mask)

    def key(x):
        return tuple(sorted(x)) if isinstance(x, frozenset) else x

    seen = set()
    orbits = []
    for seed in sorted(family, key=key):
        if seed in seen:
            continue
        seen.add(seed)
        orbit = [seed]
        frontier = [seed]
        while frontier:
            fresh = []
            for x in frontier:
                for g, t_ginv in conjugators:
                    if isinstance(x, frozenset):
                        y = frozenset(conj(h, g, t_ginv) for h in x)
                    else:
                        y = conj(x, g, t_ginv)
                    if y not in seen:
                        if y not in family:
                            raise AssertionError("conjugate left the family")
                        seen.add(y)
                        orbit.append(y)
                        fresh.append(y)
            frontier = fresh
        orbit.sort(key=key)
        orbits.append(orbit)
    return orbits


def _transporters(
    gens: Sequence[int],
    target: FrozenSet[int],
    ambient: SubgroupHandle,
    deadline: Optional[float] = None,
) -> Iterator[Optional[int]]:
    """Every ambient a with a g a^-1 in target for each g in gens, in
    element order; with target = <gens> these are the normalizer. The scan
    touches every ambient element, so an optional deadline, checked every
    1024 elements, can cut it short: it then yields None, meaning "ran out
    of time", and stops."""
    dim = ambient.dim
    mask = (1 << dim) - 1
    for i, a in enumerate(ambient.elements):
        if deadline is not None and not i & 0x3FF and time.monotonic() >= deadline:
            yield None
            return
        ainv = _inv_packed(a, dim)
        for h in gens:
            if _mul_generic(_mul_generic(a, h, dim, mask), ainv, dim, mask) not in target:
                break
        else:
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

    total = len(subs)
    if sum(len(orb) for orb in orbits) != total:
        raise AssertionError("conjugacy orbits do not partition the subgroups")

    classes = []
    for orb in orbits:
        rep = orb[0]
        repgens = subs[rep]
        norm_order = sum(1 for _ in _transporters(repgens, rep, ambient))
        if norm_order * len(orb) != ambient.order:
            raise AssertionError("orbit size disagrees with the normalizer index")
        gens_m = [F2Matrix.from_packed(p, ambient.dim) for p in repgens] or [
            F2Matrix.identity(ambient.dim)
        ]
        handle = SubgroupHandle(ambient.space, gens_m, rep, core=repgens)
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
        handle = SubgroupHandle(sp1.space, gens, hset, core=hgens)
        qualifies = all(has_nonzero_fixed_vector(g) is not None for g in handle.matrices())
        out.append((handle, gl22_common_fixed_vector(handle) if qualifies else None))
    return out


# ---------------------------------------------------------------------------
# long-running scans (opt-in)

def _fixes_some_arf0(p: int, base: BaseForm) -> bool:
    return _fixed_arf0_vector(F2Matrix.from_packed(p, base.space.dim), base) is not None


def order6_uniqueness_scan(progress=None) -> Dict[str, object]:
    """Sweep Sp_6(F2) for order-6 subgroups satisfying both conditions.

    Classifies every candidate up to conjugacy. An order-6 group is cyclic
    or dihedral; both kinds are built from their order-2 and order-3
    elements, so the sweep buckets elements by order first. Takes a few
    minutes of CPU; run it through the `extended` test marker or the
    dedicated CLI subcommand.
    """
    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    sp6 = symplectic_group(3)
    base = standard_base_form(3)
    dim, mask = 6, 63
    ident = F2Matrix.identity(dim).packed

    say("bucketing elements by order")
    ord2: List[int] = []
    ord3: List[int] = []
    ord6: List[int] = []
    for p in sp6.elements:
        if p == ident:
            continue
        p2 = _mul_generic(p, p, dim, mask)
        if p2 == ident:
            ord2.append(p)
            continue
        p3 = _mul_generic(p2, p, dim, mask)
        if p3 == ident:
            ord3.append(p)
        elif _mul_generic(p3, p3, dim, mask) == ident:
            ord6.append(p)

    say(f"orders bucketed: {len(ord2)} involutions, {len(ord3)} of order 3, "
        f"{len(ord6)} of order 6")
    qual2 = {p for p in ord2 if _fixes_some_arf0(p, base)}
    qual3 = {p for p in ord3 if _fixes_some_arf0(p, base)}
    say(f"condition-2 candidates: {len(qual2)} involutions, {len(qual3)} of order 3")

    def group_no_common_arf0(gens_packed: Sequence[int]) -> bool:
        gens = [F2Matrix.from_packed(p, dim) for p in gens_packed]
        return next(invariant_arf0_vectors(gens, base), None) is None

    survivors: Dict[FrozenSet[int], Tuple[str, Tuple[int, ...]]] = {}

    say("scanning cyclic candidates")
    for g in ord6:
        g2 = _mul_generic(g, g, dim, mask)
        g3 = _mul_generic(g2, g, dim, mask)
        if g2 not in qual3 or g3 not in qual2:
            continue
        if not _fixes_some_arf0(g, base):
            continue
        g4 = _mul_generic(g3, g, dim, mask)
        g5 = _mul_generic(g4, g, dim, mask)
        key = frozenset({ident, g, g2, g3, g4, g5})
        if key not in survivors and group_no_common_arf0((g,)):
            survivors[key] = ("cyclic", (g,))

    say("scanning dihedral candidates")
    c3_reps: List[Tuple[int, int]] = []  # (r, r^2), deduped per subgroup
    seen_c3 = set()
    for r in qual3:
        r2 = _mul_generic(r, r, dim, mask)
        key = min(r, r2)
        if key not in seen_c3:
            seen_c3.add(key)
            c3_reps.append((key, max(r, r2)))
    say(f"qualified order-3 subgroups: {len(c3_reps)}")
    for idx, (r, r2) in enumerate(c3_reps):
        if progress is not None and idx % 200 == 0:
            say(f"dihedral scan {idx}/{len(c3_reps)}, {len(survivors)} candidates")
        for t in qual2:
            if _mul_generic(_mul_generic(t, r, dim, mask), t, dim, mask) != r2:
                continue
            rt = _mul_generic(r, t, dim, mask)
            r2t = _mul_generic(r2, t, dim, mask)
            if rt not in qual2 or r2t not in qual2:
                continue
            key = frozenset({ident, r, r2, t, rt, r2t})
            if key not in survivors and group_no_common_arf0((r, t)):
                survivors[key] = ("dihedral", (r, t))

    say(f"{len(survivors)} candidate subgroups; partitioning into classes")
    classes: List[Dict[str, object]] = []
    for orbit in _conjugation_orbits(survivors, sp6):
        kind, gens = survivors[orbit[0]]
        classes.append(
            {
                "kind": kind,
                "orbit_size": len(orbit),
                "generators": [F2Matrix.from_packed(p, dim).to_text() for p in gens],
            }
        )
    classes.sort(key=lambda c: (c["kind"], c["orbit_size"]))
    return {
        "m": 3,
        "candidates": len(survivors),
        "classes": len(classes),
        "class_details": classes,
    }


def census_m3_incremental(
    checkpoint_path: str,
    max_seconds: float = 60.0,
    progress=None,
) -> Dict[str, object]:
    """Resumable class-level subgroup census of Sp_6(F2).

    The ambient group has 1451520 elements; joining every class
    representative with every ambient element is complete in the limit but
    far beyond desk-scale in pure Python (think CPU-years, not hours). This
    function exists so the attempt is honest: it seeds with the cyclic
    subgroup classes (a few minutes), then grinds joins under a time budget,
    checkpointing to `checkpoint_path` so later runs resume where it left
    off. The returned state reports how far it got.
    """
    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    sp6 = symplectic_group(3)
    dim = 6
    ident = F2Matrix.identity(dim).packed
    deadline = time.monotonic() + max_seconds

    try:
        with open(checkpoint_path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
        say(f"resumed checkpoint with {len(state['classes'])} classes")
    except FileNotFoundError:
        say("no checkpoint; seeding with cyclic subgroup classes")
        state = _census_m3_seed(sp6, say)
        _census_m3_save(checkpoint_path, state)

    classes = state["classes"]
    materialized: Dict[int, FrozenSet[int]] = {}

    def class_set(idx: int) -> FrozenSet[int]:
        got = materialized.get(idx)
        if got is None:
            gens = [F2Matrix.from_text(t).packed for t in classes[idx]["generators"]]
            got = _mulclose(gens, dim, {ident, *gens}, sp6.order + 1) if gens else frozenset({ident})
            if len(materialized) > 6:  # big classes can hold ~1.4M ints each
                materialized.clear()
            materialized[idx] = got
        return got

    ambient_sorted = sp6.elements
    joins = 0
    while not state["done"] and time.monotonic() < deadline:
        ci, ei = state["cursor"]
        if ci >= len(classes):
            state["done"] = True
            break
        rep = class_set(ci)
        repgens = tuple(F2Matrix.from_text(t).packed for t in classes[ci]["generators"])
        advanced = False
        timed_out = False
        while ei < len(ambient_sorted):
            if time.monotonic() >= deadline:
                break
            g = ambient_sorted[ei]
            ei += 1
            if g in rep:
                state["cursor"] = [ci, ei]
                advanced = True
                continue
            jset = _mulclose(repgens + (g,), dim, rep | {g}, sp6.order + 1)
            joins += 1
            fp = _order_fingerprint(jset, dim)
            known = False
            for idx, cls in enumerate(classes):
                if cls["order"] != len(jset) or cls["fingerprint"] != fp:
                    continue
                # equal orders, so a conjugate inside the class is the class
                verdict = next(
                    _transporters(repgens + (g,), class_set(idx), sp6, deadline), False
                )
                if verdict is None:
                    # out of budget mid-scan; this join is redone on resume
                    timed_out = True
                    break
                if verdict:
                    known = True
                    break
            if timed_out:
                ei -= 1
                state["cursor"] = [ci, ei]
                break
            if not known:
                classes.append(
                    {
                        "order": len(jset),
                        "generators": [
                            F2Matrix.from_packed(p, dim).to_text() for p in repgens + (g,)
                        ],
                        "fingerprint": fp,
                        "seed": False,
                    }
                )
                say(f"new class of order {len(jset)} (total {len(classes)})")
            state["cursor"] = [ci, ei]
            advanced = True
            if joins % 8 == 0:
                _census_m3_save(checkpoint_path, state)
        if ei >= len(ambient_sorted):
            state["cursor"] = [ci + 1, 0]
            advanced = True
        if not advanced:
            break
    _census_m3_save(checkpoint_path, state)
    say(
        f"checkpointed at cursor {state['cursor']} with {len(classes)} classes; "
        f"done={state['done']}"
    )
    return state


def _order_fingerprint(elems: Iterable[int], dim: int) -> List[int]:
    """Element orders and how often each occurs, as a flat sorted list
    [order, count, order, count, ...]; conjugate subgroups share it."""
    counts = Counter(F2Matrix.from_packed(p, dim).order() for p in elems)
    return [x for pair in sorted(counts.items()) for x in pair]


def _census_m3_seed(sp6: SubgroupHandle, say) -> Dict[str, object]:
    """Element conjugacy classes, merged over coprime powers, give the cyclic
    subgroup classes (plus the trivial class) that seed the join phase."""
    dim, mask = 6, 63
    ident = F2Matrix.identity(dim).packed
    element_classes = _conjugation_orbits(sp6.element_set, sp6)
    reps = [orbit[0] for orbit in element_classes]
    class_of = {x: cid for cid, orbit in enumerate(element_classes) for x in orbit}
    del element_classes
    say(f"{len(reps)} element conjugacy classes")

    parent = list(range(len(reps)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    import math

    for cid, x in enumerate(reps):
        o = F2Matrix.from_packed(x, dim).order()
        y = x
        for k in range(2, o):
            y = _mul_generic(y, x, dim, mask)
            if math.gcd(k, o) == 1:
                union(cid, class_of[y])
    roots = sorted({find(cid) for cid in range(len(reps))})
    say(f"{len(roots)} cyclic subgroup classes (including trivial)")
    classes = []
    for root in roots:
        x = reps[root]
        o = F2Matrix.from_packed(x, dim).order()
        powers = [ident]
        for _ in range(o - 1):
            powers.append(_mul_generic(powers[-1], x, dim, mask))
        classes.append(
            {
                "order": o,
                "generators": [] if x == ident else [F2Matrix.from_packed(x, dim).to_text()],
                "fingerprint": _order_fingerprint(powers, dim),
                "seed": True,
            }
        )
    classes.sort(key=lambda c: (c["order"], c["generators"]))
    return {"m": 3, "classes": classes, "cursor": [0, 0], "done": False}


def _census_m3_save(path: str, state: Dict[str, object]) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
        fh.write("\n")
    import os

    os.replace(tmp, path)
