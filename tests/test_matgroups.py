import hashlib
import json
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from sdrkit import matgroups
from sdrkit.constructions import build_obstruction_subgroup, demo_certificate
from sdrkit.f2core import F2Matrix, affine_span, standard_symplectic
from sdrkit.matgroups import (
    ClosureCapExceeded,
    GroupCensus,
    SubgroupHandle,
    all_transvections,
    close,
    common_fixed_form_vectors,
    fixed_forms,
    gl22_common_fixed_vector,
    has_nonzero_fixed_vector,
    invariant_arf0_vectors,
    lemma51_scan,
    obstruction_conditions,
    orthogonal_group,
    subgroup_census,
    symplectic_group,
    symplectic_order_formula,
    transvection,
)
from sdrkit.quadforms import (
    BaseForm,
    act,
    all_forms,
    arf0_mask,
    arf_by_count,
    fixed_form_vectors,
    form_from_vector,
    standard_base_form,
)


def _orthogonal_by_filter(base, ambient):
    """Oracle for O(Q): the elements of `ambient` that preserve the form's
    value table, tested on each element's columns (the value defect
    x -> Q(gx) + Q(x) is linear for symplectic g, so basis vectors suffice)."""
    dim = ambient.dim
    table = base.table
    basis_vals = [(table >> (1 << i)) & 1 for i in range(dim)]
    kept = []
    for p in ambient.elements:
        for i in range(dim):
            col = 0
            for r in range(dim):
                col |= ((p >> (r * dim + i)) & 1) << r
            if (table >> col) & 1 != basis_vals[i]:
                break
        else:
            kept.append(p)
    return frozenset(kept)


def _entry_product(a, b, dim):
    """a * b for packed elements from the definition: entry (i, j) is the
    parity of row i of a AND column j of b. It shares no code with the
    packed engine (`_combine`, `_span_table`, `_RightMul`) it referees."""
    mask = (1 << dim) - 1
    rows = [(a >> (i * dim)) & mask for i in range(dim)]
    cols = [sum(((b >> (k * dim + j)) & 1) << k for k in range(dim)) for j in range(dim)]
    out = 0
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            out |= ((r & c).bit_count() & 1) << (i * dim + j)
    return out


def _entry_right_table(b, dim):
    """r * b for every row vector r, as the first row of `_entry_product`."""
    return [_entry_product(r, b, dim) for r in range(1 << dim)]


def _by_rows(a, table, dim):
    """a * b from b's `_entry_right_table`, one lookup per row of a."""
    mask = (1 << dim) - 1
    out = 0
    for shift in range(0, dim * dim, dim):
        out |= table[(a >> shift) & mask] << shift
    return out


def _mulclose_by_rows(gens, dim, seed):
    """Reference closure: every product goes row by row through
    `_by_rows`, whatever the frontier size."""
    tables = [_entry_right_table(g, dim) for g in gens]
    seen = set(seed)
    frontier = list(seen)
    while frontier:
        fresh = []
        for t in tables:
            for a in frontier:
                out = _by_rows(a, t, dim)
                if out not in seen:
                    seen.add(out)
                    fresh.append(out)
        frontier = fresh
    return frozenset(seen)


def _grow_core_by_rows(candidates, dim):
    elements = frozenset({F2Matrix.identity(dim).packed})
    core = []
    for p in candidates:
        if p in elements:
            continue
        core.append(p)
        elements = _mulclose_by_rows(core, dim, elements | {p})
    return elements, tuple(core)


@pytest.fixture
def mulclose_gens(monkeypatch):
    """The number of generators of each `_mulclose` call, in call order."""
    calls = []
    real_mulclose = matgroups._mulclose

    def mulclose(rights, group, cap):
        calls.append(len(rights))
        return real_mulclose(rights, group, cap)

    monkeypatch.setattr(matgroups, "_mulclose", mulclose)
    return calls


def _order3_element(sp):
    """Product of two distinct transvections in Sp_2(F2) has order 3."""
    g = transvection(0b01, sp) * transvection(0b10, sp)
    assert (g * g * g).is_identity()
    return g


def test_transvections_are_symplectic_involutions():
    for m in (1, 2):
        sp = standard_symplectic(m)
        for t in all_transvections(sp):
            assert (t * t).is_identity()
            assert not t.is_identity()


def test_transvection_rejects_zero():
    with pytest.raises(ValueError):
        transvection(0, standard_symplectic(1))


def test_close_single_generator_order():
    sp = standard_symplectic(1)
    t = transvection(0b01, sp)
    assert close([t], sp).order == 2
    assert close([_order3_element(sp)], sp).order == 3
    # space argument can be inferred from the generators
    assert close([t]).order == 2


def test_close_ignores_redundant_generators():
    sp = standard_symplectic(1)
    t = transvection(0b01, sp)
    g = _order3_element(sp)
    a = close([t, g], sp)
    b = close([t, g, t, g * g, F2Matrix.identity(2)], sp)
    assert a.element_set == b.element_set
    assert a.order == 6


def test_close_rejects_non_symplectic():
    squash = F2Matrix([0b11, 0b00], 2)
    with pytest.raises(ValueError):
        close([squash], standard_symplectic(1))


def test_close_cap_raises():
    sp = standard_symplectic(2)
    with pytest.raises(ClosureCapExceeded):
        close(all_transvections(sp), sp, cap=100)
    # the cap is the largest closure allowed: Sp2 and Sp4 close at their
    # own order and are refused one below it
    for m, order in ((1, 6), (2, 720)):
        sp = standard_symplectic(m)
        assert close(all_transvections(sp), sp, cap=order).order == order
        with pytest.raises(ClosureCapExceeded):
            close(all_transvections(sp), sp, cap=order - 1)


def test_symplectic_group_orders_match_formula(sp3):
    assert symplectic_order_formula(1) == 6
    assert symplectic_order_formula(2) == 720
    assert symplectic_order_formula(3) == 1451520
    for m, group in ((1, symplectic_group(1)), (2, symplectic_group(2)), (3, sp3)):
        assert group.order == symplectic_order_formula(m)
        # closed from two elements, declared by all 2^(2m) - 1 transvections
        assert len(group.core) == 2
        transvections = all_transvections(group.space)
        assert list(group.generators) == transvections
        assert len(transvections) == (1 << (2 * m)) - 1
        for t in transvections:
            assert group.contains(t)


def _sp_core_by_definition(m):
    """(c, T) as the symplectic_group docstring defines them: c the product
    of T_e1, T_f1, T_(e1+e2), T_f2, ..., T = T_e2 (T_e1 for m = 1)."""
    sp = standard_symplectic(m)
    chain = [1, 1 << m]
    for i in range(1, m):
        chain += [(1 << (i - 1)) | (1 << i), 1 << (m + i)]
    c = F2Matrix.identity(2 * m)
    for v in chain:
        c = c * transvection(v, sp)
    return c.packed, transvection(1 if m == 1 else 0b10, sp).packed


@pytest.mark.parametrize("m", [1, 2])
def test_symplectic_group_matches_the_breadth_first_closure(m):
    core = _sp_core_by_definition(m)
    elements, grown = matgroups._grow_core(core, 2 * m, matgroups.DEFAULT_CAP)
    sp = symplectic_group(m)
    assert sp.core == grown == core
    assert sp.element_set == elements
    assert sorted(sp.elements) == sorted(elements)


def test_sp6_cosets_come_out_sorted(sp3, sp3_ascending):
    """The cosets H t_w of the last-row stabilizer come by ascending last
    row w, |H| = 23 040 consecutive elements each, and the walk, sorted, is
    the coset-product oracle."""
    assert sp3.core == _sp_core_by_definition(3)
    walked = list(sp3.elements)
    assert [p >> 30 for p in walked] == [w for w in range(1, 64) for _ in range(23_040)]
    assert array("Q", sorted(walked)) == sp3_ascending


def test_materialized_classical_groups_keep_packed_word_layouts(sp3, o3):
    """Sp2, Sp4 and Sp6 keep their last-row chain: the stabilizer H of the
    last row as one sorted array('Q') of 8-byte words and one transversal
    element per last row, 2^dim - 1 of them, with |H| consecutive elements
    per coset. O-(6, 2) keeps one array('Q') of 8-byte words; a closure
    keeps its tuple."""
    for m, group in ((1, symplectic_group(1)), (2, symplectic_group(2)), (3, sp3)):
        seq, dim = group.elements, group.dim
        assert isinstance(seq, matgroups._LastRowCosets)
        assert not hasattr(seq, "__dict__")
        stab, reps = seq._stab, seq._reps
        assert stab.typecode == "Q" and stab.itemsize == 8
        assert list(stab) == sorted(stab) and len(reps) == (1 << dim) - 1
        assert len(stab) * len(reps) == len(seq) == group.order
        assert sys.getsizeof(stab) < 8 * len(stab) + 1024
        top = (dim - 1) * dim  # the last row is the packed bits from here up
        # every coset boundary
        for lo in range(len(stab), len(seq), len(stab)):
            before, first, second = seq[lo - 1], seq[lo], seq[lo + 1]
            assert before >> top < first >> top == second >> top
            assert seq[lo - len(stab)] >> top == before >> top
            assert seq[lo - len(seq)] == first
    assert o3.elements.typecode == "Q" and o3.elements.itemsize == 8
    assert list(o3.elements) == sorted(o3.element_set)
    assert o3.order == 51840 and o3.element_set <= sp3.element_set
    assert isinstance(close(symplectic_group(2).generators[:2]).elements, tuple)


@pytest.mark.parametrize("m", [1, 2])
def test_symplectic_sequence_matches_the_transvection_closure_exhaustively(m):
    """Membership of every int below 2^(dim^2) against the sorted closure
    of all transvections; each element once, in the same order by every
    index from either end as by iteration, slices and both ends'
    IndexError."""
    space = standard_symplectic(m)
    want = sorted(close(all_transvections(space), space).elements)
    seq = symplectic_group(m).elements
    n = len(want)
    assert len(seq) == n
    assert [p for p in range(1 << (4 * m * m)) if p in seq] == want
    walked = list(seq)
    assert sorted(walked) == want and len(set(walked)) == n
    assert [seq[i] for i in range(n)] == walked == [seq[i - n] for i in range(n)]
    for s in (slice(None), slice(1, -1), slice(None, None, -1), slice(n // 3, n, 7), slice(-5, None), slice(n, None)):
        assert seq[s] == tuple(walked[s])
    for i in (n, -n - 1, n + 64, -(1 << 70)):
        with pytest.raises(IndexError):
            seq[i]
    for q in (-1, 1 << (4 * m * m), 2.0, None, "1"):
        assert q not in seq


def _packed_digest(elements) -> str:
    """sha256 of the elements as little-endian 8-byte words, in order."""
    words = array("Q", elements)
    if sys.byteorder == "big":
        words.byteswap()
    return hashlib.sha256(words.tobytes()).hexdigest()


def test_symplectic_element_sequences_are_pinned(sp3_ascending):
    # digests of the sorted elements, as the array('Q') layout of an earlier
    # build held them: a lost, repeated or changed element fails here; at
    # m = 3 the coset-product oracle's, which test_sp6_cosets_come_out_sorted
    # compares with the sorted walk
    assert _packed_digest(sorted(symplectic_group(1).elements)) == (
        "fe93b55b5cd9fc752b0052fba6c192952b5b19d16006f334ab5c276ac11d25a2"
    )
    assert _packed_digest(sorted(symplectic_group(2).elements)) == (
        "20e4c9f6e606e1417ff1186b2fcaefd1341499fafbc1a0bb512d3f06ec21ab16"
    )
    assert _packed_digest(sp3_ascending) == (
        "d94ea4020c13c76abb5a89d907dde21484390e47fb6f6a211bca43c807364134"
    )


def test_chain_order_refuses_a_core_that_does_not_generate():
    """The last-row chain's order is |<gens>| exactly, so only the full core
    reaches |Sp_2m(F2)|: T_v alone has order 2, and c alone is cyclic."""
    for m, want, c_order in ((1, 6, 3), (2, 720, 5), (3, 1451520, 7)):
        c, t = _sp_core_by_definition(m)
        assert matgroups._LastRowChain((c, t), 2 * m).order == want == symplectic_order_formula(m)
        assert matgroups._LastRowChain((t, t), 2 * m).order == 2
        assert matgroups._LastRowChain((c, c), 2 * m).order == c_order


def test_symplectic_group_refuses_a_core_short_of_the_formula(monkeypatch):
    monkeypatch.setattr(matgroups, "symplectic_order_formula", lambda m: 1440)
    with pytest.raises(AssertionError, match="stabilizer chain"):
        symplectic_group.__wrapped__(2)


def _cyclic_subgroup(x):
    """The powers of the matrix x, as a frozenset of packed elements."""
    powers, y = set(), x
    while y.packed not in powers:
        powers.add(y.packed)
        y = y * x
    return frozenset(powers)


def test_conjugation_orbits_are_the_sorted_classes_and_refuse_an_open_family():
    sp4 = symplectic_group(2)
    mats = list(sp4.matrices())
    family = {_cyclic_subgroup(x) for x in mats}
    orbits = matgroups._conjugation_orbits(family, sp4)
    for orbit in orbits:
        xs = [F2Matrix.from_packed(p, 4) for p in orbit[0]]
        conjugates = {frozenset((g * x * g.inverse()).packed for x in xs) for g in mats}
        assert orbit == sorted(conjugates, key=sorted)
    assert [sorted(o[0]) for o in orbits] == sorted(sorted(o[0]) for o in orbits)
    assert sum(len(o) for o in orbits) == len(family)
    # a conjugacy class with one member missing leaves the family
    missing = next(o for o in orbits if len(o) > 1)[-1]
    with pytest.raises(AssertionError, match="left the family"):
        matgroups._conjugation_orbits(family - {missing}, sp4)


def _sp_by_coset_products(m):
    """The coset-product build of Sp_2m(F2), ascending, the sequence's
    oracle: H, the closure of the transvections that fix the last packed
    row e, times one t_w per last row w = e t_w, found breadth first over
    all transvections; each coset H t_w is multiplied out and sorted, and
    the cosets come by ascending w."""
    sp = standard_symplectic(m)
    dim = sp.dim
    moves = [g.packed for g in all_transvections(sp)]
    top = (dim - 1) * dim
    stab, _ = matgroups._grow_core([p for p in moves if p >> top == 1 << (dim - 1)], dim, matgroups.DEFAULT_CAP)
    rights = [matgroups._RightMul(g, dim) for g in moves]
    reps = {1 << (dim - 1): F2Matrix.identity(dim).packed}
    queue = [1 << (dim - 1)]
    for w in queue:
        for right in rights:
            u = right.table[w]
            if u not in reps:
                reps[u] = right([reps[w]])[0]
                queue.append(u)
    out = array("Q")
    for w in sorted(reps):
        out.extend(sorted(matgroups._RightMul(reps[w], dim)(stab)))
    return out


@pytest.fixture(scope="module")
def sp3_ascending():
    """The elements of Sp6(F2) in ascending order, from the coset-product
    oracle (about 1.4 s): the population of the seeded draws at m = 3."""
    return _sp_by_coset_products(3)


def test_coset_products_match_the_sp4_sequence():
    assert list(_sp_by_coset_products(2)) == sorted(symplectic_group(2).elements)


@pytest.mark.extended
def test_sp6_sequence_matches_the_coset_products(sp3, sp3_ascending):
    """The oracle multiplies out and sorts all 1.45M elements."""
    got = sorted(sp3.elements)
    assert len(sp3_ascending) == len(got) == len(sp3.elements)
    assert all(map(int.__eq__, sp3_ascending, got))


def test_groups_past_the_cap_are_refused_up_front():
    with pytest.raises(ClosureCapExceeded):
        symplectic_group(4)
    with pytest.raises(ClosureCapExceeded):
        orthogonal_group(standard_base_form(4))


def test_orthogonal_group_orders_and_stabilization():
    for m, expected in ((1, 6), (2, 120)):
        base = standard_base_form(m)
        og = orthogonal_group(base)
        assert og.order == expected
        # index in Sp equals the size of the Arf-1 orbit of forms
        assert symplectic_order_formula(m) % og.order == 0
        f0 = form_from_vector(base, 0)
        for g in og.matrices():
            assert act(g, f0).v == 0
    # m = 2: any symplectic element outside the stabilizer moves the form
    sp2 = symplectic_group(2)
    og2 = orthogonal_group(standard_base_form(2), sp2)
    assert sp2.order // og2.order == 6
    outside = next(g for g in sp2.matrices() if not og2.contains(g))
    assert act(outside, form_from_vector(standard_base_form(2), 0)).v != 0


def test_orthogonal_group_matches_filter_for_every_form():
    # |O+(2,2)| = 2, |O-(2,2)| = 6, |O-(4,2)| = 120; O+(4,2) is refused
    want = {(1, 0): 2, (1, 1): 6, (2, 1): 120}
    for m in (1, 2):
        base = standard_base_form(m)
        sp = symplectic_group(m)
        for f in all_forms(base):
            qv = BaseForm(base.space, f.table)
            if (m, f.arf) not in want:
                with pytest.raises(ValueError, match=r"O\+\(4, 2\)"):
                    orthogonal_group(qv, sp)
                continue
            og = orthogonal_group(qv, sp)
            assert og.order == want[m, f.arf]
            assert og.element_set == _orthogonal_by_filter(qv, sp)
            assert close(og.generators, base.space).element_set == og.element_set


def test_orthogonal_group_refuses_plus_type_in_dimension_4():
    base = standard_base_form(2)
    arf0 = [f for f in all_forms(base) if f.arf == 0]
    assert len(arf0) == 10
    for f in arf0:
        with pytest.raises(ValueError):
            orthogonal_group(BaseForm(base.space, f.table))


def test_orthogonal_group_arf0_m3_matches_filter(sp3):
    base = standard_base_form(3)
    v = min(x for x in range(64) if base.value(x))  # Q_v has Arf 0
    qv = BaseForm(base.space, form_from_vector(base, v).table)
    assert qv.arf == 0
    og = orthogonal_group(qv, sp3)
    assert og.order == 40320
    assert og.element_set == _orthogonal_by_filter(qv, sp3)


def test_orthogonal_group_rejects_a_partial_ambient():
    sp = standard_symplectic(2)
    base = standard_base_form(2)
    with pytest.raises(ValueError, match="full symplectic group"):
        orthogonal_group(base, close([transvection(0b0011, sp)], sp))
    with pytest.raises(ValueError, match="full symplectic group"):
        orthogonal_group(base, symplectic_group(1))


def _orthogonal_by_two_closures(base):
    """The two-closure build of O(Q), the oracle: the closure of the
    transvections T_v with Q(v) = 1, sorted, and the core that `_grow_core`
    finds when it closes those sorted elements once more."""
    dim = base.space.dim
    gens = [transvection(v, base.space).packed for v in range(1, 1 << dim) if base.value(v)]
    elements, _ = matgroups._grow_core(gens, dim, matgroups.DEFAULT_CAP)
    ordered = sorted(elements)
    _, core = matgroups._grow_core(ordered, dim, matgroups.DEFAULT_CAP)
    return ordered, core


def _assert_orthogonal_matches_two_closures(base):
    og = orthogonal_group(base)
    ordered, core = _orthogonal_by_two_closures(base)
    assert list(og.elements) == ordered
    assert og.core == core
    assert [g.packed for g in og.generators] == list(core)


def test_orthogonal_group_matches_the_two_closure_build(sp3):
    """Every base that `orthogonal_group` accepts at m = 1, 2, and at m = 3
    the standard base (O-) and the O+ base that `_arf0_seeds` builds on."""
    accepted = 0
    for m in (1, 2):
        base = standard_base_form(m)
        for f in all_forms(base):
            if (m, f.arf) != (2, 0):
                _assert_orthogonal_matches_two_closures(BaseForm(base.space, f.table))
                accepted += 1
    assert accepted == 4 + 6
    base = standard_base_form(3)
    _assert_orthogonal_matches_two_closures(base)
    arf0 = arf0_mask(base)
    oplus_base = BaseForm(base.space, form_from_vector(base, (arf0 & -arf0).bit_length() - 1).table)
    _assert_orthogonal_matches_two_closures(oplus_base)
    oplus, _, _ = matgroups._arf0_seeds(sp3, base)
    assert oplus.element_set == orthogonal_group(oplus_base).element_set


@pytest.mark.extended
def test_orthogonal_group_matches_the_two_closure_build_on_every_m3_base():
    """All 64 bases Q_v at m = 3, 28 of Arf 1 and 36 of Arf 0."""
    base = standard_base_form(3)
    for f in all_forms(base):
        _assert_orthogonal_matches_two_closures(BaseForm(base.space, f.table))


def test_orthogonal_group_closes_nothing_past_its_stabilizer(monkeypatch):
    """O-(6, 2) (51 840 elements) is |orbit| x |H| = 27 x 1920: the largest
    closure is the last-row stabilizer H."""
    sizes = []
    real_mulclose = matgroups._mulclose

    def mulclose(rights, group, cap):
        out = real_mulclose(rights, group, cap)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(matgroups, "_mulclose", mulclose)
    og = orthogonal_group(standard_base_form(3))
    assert og.order == 51840
    assert sizes and max(sizes) == 1920
    chain = matgroups._LastRowChain([g.packed for g in og.generators], 6)
    assert (len(chain.reps), len(chain.stab)) == (27, 1920)


def test_last_row_chain_membership_matches_the_element_set(sp3, sp3_ascending, o3):
    """The chain of O-(6, 2)'s core against its element set: seeded
    elements of Sp6, 1 in 28 of them members, every member and the int
    just past it, and ints that are no element of Sp6."""
    chain = matgroups._LastRowChain(o3.core, 6)
    assert chain.order == o3.order
    view = o3.element_set
    rng = random.Random(29)
    probes = [sp3_ascending[rng.randrange(sp3.order)] for _ in range(3000)]
    probes += [rng.getrandbits(36) for _ in range(3000)]
    probes += [q for p in o3.elements for q in (p, p + 1)]
    members = [p for p in probes if p in chain]
    assert members == [p for p in probes if p in view]
    assert 51840 < len(members) < len(probes) // 2


def test_last_row_chain_order_matches_the_closure_on_seeded_subgroups():
    """Proper subgroups of Sp4 and of O-(6, 2), each generated by one to
    three seeded elements of the group; membership is tested on every int
    below 2^16 at dim 4, and at dim 6 on every 7th element of O-(6, 2) and
    that element with its top bit flipped."""
    rng = random.Random(30)
    sp4 = symplectic_group(2)
    o6 = orthogonal_group(standard_base_form(3))
    probes = [q for p in o6.elements[::7] for q in (p, p ^ (1 << 35))]
    orders = []
    for dim, pool in ((4, sorted(sp4.elements)), (6, o6.elements)):
        for _ in range(30 if dim == 4 else 12):
            gens = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 3))]
            closure, _ = matgroups._grow_core(gens, dim, matgroups.DEFAULT_CAP)
            if len(closure) == len(pool):
                continue
            chain = matgroups._LastRowChain(gens, dim)
            assert chain.order == len(closure)
            orders.append(len(closure))
            if dim == 4:
                assert [p for p in range(1 << 16) if p in chain] == sorted(closure)
            else:
                assert [p for p in probes if p in chain] == [p for p in probes if p in closure]
    assert len(orders) == 22
    assert {2, 3, 5, 9, 120, 360, 1920, 25920} <= set(orders)


def test_batched_right_multiply_is_exhaustively_right_on_both_paths():
    # every (a, b) at dims 1-3, through both product paths: the batched
    # `_RightMul`, in batches of one and in one batch of the whole list
    # twice over, and the single `_product`
    for dim in range(1, 4):
        everything = list(range(1 << (dim * dim)))
        for b in everything:
            table = _entry_right_table(b, dim)
            want = [_by_rows(a, table, dim) for a in everything]
            right = matgroups._RightMul(b, dim)
            assert [p for a in everything for p in right([a])] == want
            assert right(everything * 2) == want * 2
            assert [matgroups._product(a, b, dim) for a in everything] == want
    # and seeded pairs up to dim 6 against the product from the definition
    rng = random.Random(8)
    for dim in range(1, 7):
        for _ in range(200):
            a = rng.getrandbits(dim * dim)
            b = rng.getrandbits(dim * dim)
            want = _entry_product(a, b, dim)
            assert matgroups._RightMul(b, dim)([a]) == [want]
            assert matgroups._product(a, b, dim) == want


def test_closures_match_the_row_loop(mulclose_gens):
    # Sp2 from its core: the 3-element <c>, then its second coset
    sp2 = symplectic_group(1)
    ident = F2Matrix.identity(2).packed
    rights = [matgroups._RightMul(g, 2) for g in sp2.core]
    c = matgroups._mulclose(rights[:1], {ident}, matgroups.DEFAULT_CAP)
    assert c == _mulclose_by_rows(sp2.core[:1], 2, {ident})
    got = matgroups._mulclose(rights, c, matgroups.DEFAULT_CAP)
    assert got == _mulclose_by_rows(sp2.core, 2, c) == sp2.element_set
    # Sp4 (720 elements) regrown from its sorted elements: four steps, the
    # last one ten cosets of a group of order 72
    sp4 = symplectic_group(2)
    del mulclose_gens[:]
    got = matgroups._grow_core(sorted(sp4.element_set), 4, matgroups.DEFAULT_CAP)
    assert mulclose_gens == [1, 2, 3, 4]
    assert got[0] == sp4.element_set
    assert got == _grow_core_by_rows(sorted(sp4.element_set), 4)
    # O-(6, 2): the closure of its transvections, and its core regrown by
    # `_grow_core` from its sorted elements
    base = standard_base_form(3)
    og = orthogonal_group(base)
    got = matgroups._grow_core(og.elements, 6, matgroups.DEFAULT_CAP)
    assert got == (og.element_set, og.core)
    gens = [transvection(v, base.space).packed for v in range(1, 64) if base.value(v)]
    elements, _ = _grow_core_by_rows(gens, 6)
    assert elements == og.element_set
    assert (og.element_set, og.core) == _grow_core_by_rows(sorted(elements), 6)


@pytest.mark.extended
def test_sp6_core_regrows_sp6_in_both_orders(sp3, mulclose_gens):
    # from the core (c, T): cosets of <c>, then, reversed, of <T>, of order 2;
    # two closure steps either way, and all 1 451 520 elements of Sp6
    for core in (sp3.core, sp3.core[::-1]):
        del mulclose_gens[:]
        got, grown = matgroups._grow_core(core, 6, matgroups.DEFAULT_CAP)
        assert grown == core
        assert got == sp3.element_set
        assert mulclose_gens == [1, 2]


def test_handle_json_roundtrip():
    sp = standard_symplectic(2)
    group = close([transvection(0b0011, sp), transvection(0b0101, sp)], sp)
    back = SubgroupHandle.from_json(group.to_json())
    assert back.element_set == group.element_set
    assert back.space == group.space


@pytest.mark.parametrize(
    "field, raw, reason",
    [
        ("generators", "[5]", "a matrix must be a string"),
        ("m", "1e400", "m must be an integer, got inf"),
        ("m", "2.7", "m must be an integer, got 2.7"),
        ("m", "true", "m must be an integer, got True"),
    ],
)
def test_handle_from_json_rejects_mistyped_fields(field, raw, reason):
    # raw JSON text, as a file holds it: json.dumps cannot write 1e400
    good = {"m": 1, "generators": ["11;01"]}
    text = json.dumps(dict(good, **{field: "@"})).replace('"@"', raw)
    with pytest.raises(ValueError, match=reason):
        SubgroupHandle.from_json(json.loads(text))


def test_element_view_matches_the_closure_set_on_every_dim4_int():
    sp4 = symplectic_group(2)
    oracle, _ = matgroups._grow_core(sp4.core, 4, matgroups.DEFAULT_CAP)
    view = sp4.element_set
    assert len(view) == len(oracle) == 720
    assert [p for p in range(1 << 16) if p in view] == sorted(oracle)


def test_element_view_matches_a_frozenset_of_sp6(sp3, sp3_ascending):
    oracle = frozenset(sp3_ascending)
    view = sp3.element_set
    rng = random.Random(12)
    for _ in range(100_000):
        p = rng.getrandbits(36)
        assert (p in view) == (p in oracle)
    og = orthogonal_group(standard_base_form(3), sp3)
    for p in og.elements:
        assert p in view
        # the next int up probes the bisection just past a member
        assert (p + 1 in view) == (p + 1 in oracle)
    assert og.element_set <= view
    # the walk lists each element once; the coset boundaries (23 040
    # elements a coset) and one index to either side, read by index as the
    # walk has them, with one int to either side and each element with its
    # top row cleared, which no element has
    seq = sp3.elements
    ordered = list(seq)
    assert len(ordered) == len(seq) == sp3.order
    below_top = (1 << 30) - 1
    for lo in range(23_040, len(ordered), 23_040):
        for i in (lo - 1, lo, lo + 1):
            p = ordered[i]
            assert seq[i] == p and seq[i - len(ordered)] == p
            for q in (p - 1, p, p + 1, p & below_top):
                assert (q in view) == (q in oracle)
    # negative ints, and ints past the 36 bits of a packed element
    for q in (-1, -ordered[0], -ordered[-1], -(1 << 40), 1 << 36, (1 << 36) | ordered[0], 1 << 80):
        assert q not in view and q not in seq and q not in oracle
    assert seq[-1] == ordered[-1] and seq[0] == ordered[0]
    with pytest.raises(IndexError):
        seq[len(ordered)]
    with pytest.raises(IndexError):
        seq[-len(ordered) - 1]
    # slices within a coset and across a coset boundary (|H| = 23 040),
    # stepped and reversed
    for s in (slice(None, 5), slice(-3, None), slice(60, 70), slice(-70, -60), slice(23_035, 23_045), slice(100, 40_000, 997)):
        assert list(seq[s]) == ordered[s]
    assert list(seq[::-99_991]) == ordered[::-99_991]
    sample = random.Random(13).sample(seq, 500)
    assert len(set(sample)) == 500 and set(sample) <= oracle
    # seeded reads by index, from either end, against the walk
    for i in random.Random(14).sample(range(len(ordered)), 300):
        assert seq[i] == ordered[i] == seq[i - len(ordered)]


def _rows_pair_symplectically(p, m):
    """The definition the Sp sequence's membership tests: the dim rows of
    the packed p form a symplectic basis, <row i, row j> = 1 exactly when
    i and j differ by m, by the standard space's own pairing."""
    space = standard_symplectic(m)
    dim = space.dim
    if not 0 <= p < 1 << (dim * dim):
        return False
    rows = [(p >> (i * dim)) & ((1 << dim) - 1) for i in range(dim)]
    return all(space.pairing(rows[i], rows[j]) == (abs(i - j) == m) for i in range(dim) for j in range(dim))


def test_sp_membership_is_the_row_pairing_definition(sp3, sp3_ascending):
    """Seeded ints at m = 1, 2, 3, seeded elements and each of them with
    one seeded bit flipped, against the definition."""
    rng = random.Random(31)
    for m in (1, 2, 3):
        seq = sp3.elements if m == 3 else symplectic_group(m).elements
        bits = 4 * m * m
        pool = sp3_ascending if m == 3 else sorted(seq)
        members = [pool[rng.randrange(len(pool))] for _ in range(300)]
        probes = [rng.getrandbits(bits) for _ in range(2000)] + members
        probes += [p ^ (1 << rng.randrange(bits)) for p in members]
        probes += [-1, 1 << bits, -members[0]]
        got = [p in seq for p in probes]
        assert got == [_rows_pair_symplectically(p, m) for p in probes]
        assert 300 <= sum(got) < len(probes) - 300


def test_sp_walk_multiplies_out_only_what_it_reads(sp3, monkeypatch):
    """Reading 3 elements through iter, as obstruction_conditions(Sp6)
    does before its failing element, multiplies out far fewer than the
    23 040 elements of a coset."""
    multiplied = []
    real_call = matgroups._RightMul.__call__

    def call(self, xs):
        multiplied.append(len(xs))
        return real_call(self, xs)

    monkeypatch.setattr(matgroups._RightMul, "__call__", call)
    walk = iter(sp3.elements)
    first = [next(walk) for _ in range(3)]
    assert first == [sp3.elements[i] for i in range(3)]
    assert 3 <= sum(multiplied) <= 64
    assert obstruction_conditions(sp3).failing_element is not None
    assert sum(multiplied) <= 2 * 64


def test_element_view_compares_with_frozensets_and_is_read_only():
    sp4 = symplectic_group(2)
    small = close([transvection(0b0011, sp4.space)])
    fs = frozenset(sp4.elements)
    assert sp4.element_set == fs and fs == sp4.element_set
    assert small.element_set != fs and fs != small.element_set
    assert small.element_set <= sp4.element_set and not sp4.element_set <= small.element_set
    assert small.element_set <= fs and frozenset(small.elements) <= sp4.element_set
    assert not hasattr(sp4.element_set, "add")
    with pytest.raises(TypeError):
        hash(sp4.element_set)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_sp6_build_peak_memory_stays_under_one_copy():
    # Sp6 and O-(6, 2) peak near 18.1-18.2 MB, where a tuple of 1.45M ints
    # alone peaked near 91 MB; any container of Sp6's elements (5.8 MB of
    # 4-byte words, a frozenset about 64 MB) would pass 32 MB. Step by
    # step, Sp6's build, the stabilizer chain of its two-element core (a
    # 23 040-element stabilizer, kept sorted in a 184 KB array('Q') with
    # 63 transversal elements), raises the peak by about 3.0-3.5 MB.
    # O-(6, 2), built from its last-row stabilizer chain (the largest set
    # is the 1920-element stabilizer) into a 415 KB array('Q'), stays
    # under that peak and raises it by 0.00 MB; closing all 51 840 elements
    # twice raised it by about 1.9 MB. 4-byte low words in last-row blocks
    # raised the Sp6 step by about 8.1 MB, an array('Q') of Sp6's 8-byte
    # words by about 13.5-13.9 MB
    build = (
        "import resource\n"
        "from sdrkit.matgroups import orthogonal_group, symplectic_group\n"
        "from sdrkit.quadforms import standard_base_form\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "before = peak()\n"
        "sp6 = symplectic_group(3)\n"
        "after_sp6 = peak()\n"
        "orthogonal_group(standard_base_form(3), sp6)\n"
        "print(before, after_sp6, peak())\n"
    )
    # Linux hands a parent's peak RSS on to the children it starts, so the
    # build runs under a small launcher instead of this test process
    launch = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {build!r}], check=True)"
    src = str(Path(matgroups.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", launch], env=env, capture_output=True, text=True, check=True
    )
    before, after_sp6, peak_mb = (int(x) / 1024 for x in out.stdout.split())
    assert peak_mb < 32, peak_mb
    assert after_sp6 - before < 5, (before, after_sp6)
    assert peak_mb - after_sp6 < 1.5, (after_sp6, peak_mb)


def test_contains_and_subgroup_relation():
    sp = standard_symplectic(1)
    t = transvection(0b01, sp)
    small = close([t], sp)
    big = symplectic_group(1)
    assert small.is_subgroup_of(big)
    assert not big.is_subgroup_of(small)
    assert small.contains(t)
    assert small.contains(t.packed)
    assert not small.contains(_order3_element(sp))


def _assert_subgroup_test_matches_inclusion(handles):
    verdicts = set()
    for a in handles:
        for b in handles:
            want = a.element_set <= b.element_set
            assert a.is_subgroup_of(b) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_is_subgroup_of_matches_inclusion_on_every_sp2_subgroup():
    handles = [h for h, _ in lemma51_scan()]
    assert len(handles) == 6
    assert handles[0].order == 1 and handles[0].core == ()
    _assert_subgroup_test_matches_inclusion(handles)


def test_is_subgroup_of_matches_inclusion_on_seeded_sp4_subgroups():
    sp4 = symplectic_group(2)
    space = sp4.space
    rng = random.Random(101)
    for _ in range(40):
        x, y, z = (F2Matrix.from_packed(p, 4) for p in rng.sample(sorted(sp4.elements), 3))
        handles = [
            close([x, y], space),
            close([x], space),
            close([x * y], space),
            close([z], space),
            close([y, z], space),
            close([], space),
            sp4,
        ]
        _assert_subgroup_test_matches_inclusion(handles)


def test_is_subgroup_of_rejects_a_foreign_cyclic_closure():
    cert = demo_certificate(3)
    group = cert.group
    foreign = next(
        close([g]) for g in all_transvections(group.space) if not group.contains(g)
    )
    assert not foreign.element_set <= group.element_set
    assert not foreign.is_subgroup_of(group)
    assert not group.is_subgroup_of(foreign)
    for img in cert.local_images:
        assert img.group.is_subgroup_of(group)
        assert img.group.is_subgroup_of(foreign) == (img.group.element_set <= foreign.element_set)


def test_has_nonzero_fixed_vector():
    ident = F2Matrix.identity(2)
    assert has_nonzero_fixed_vector(ident) == 1  # smallest nonzero vector
    sp = standard_symplectic(1)
    g = _order3_element(sp)
    assert has_nonzero_fixed_vector(g) is None
    for x in range(1, 4):
        assert g.apply(x) != x
    t = transvection(0b10, sp)
    v = has_nonzero_fixed_vector(t)
    assert v is not None and t.apply(v) == v


def test_fixed_forms_matches_brute_force():
    rng = random.Random(61)
    sp = standard_symplectic(2)
    base = standard_base_form(2)
    forms = all_forms(base)
    for _ in range(10):
        gens = [
            transvection(rng.randrange(1, 16), sp),
            transvection(rng.randrange(1, 16), sp),
        ]
        group = close(gens, sp)
        got = {f.v for f in fixed_forms(group, forms)}
        brute = {
            f.v
            for f in forms
            if all(act(g, f).v == f.v for g in group.matrices())
        }
        assert got == brute


def test_common_fixed_form_vectors_trivial_group():
    base = standard_base_form(2)
    got = common_fixed_form_vectors([], base)
    assert got is not None
    particular, kernel = got
    assert particular == 0
    assert len(kernel) == 4


def test_obstruction_conditions_full_sp2():
    report = obstruction_conditions(symplectic_group(1))
    assert report.no_invariant_arf0
    assert not report.every_element_fixes_arf0
    assert not report.satisfied
    g = report.failing_element
    assert g is not None and (g * g * g).is_identity() and not g.is_identity()


def test_obstruction_conditions_trivial_group():
    sp = standard_symplectic(1)
    trivial = close([], sp)
    report = obstruction_conditions(trivial)
    assert not report.no_invariant_arf0
    assert report.every_element_fixes_arf0
    assert not report.satisfied
    base = standard_base_form(1)
    assert report.invariant_arf0_vectors
    for v in report.invariant_arf0_vectors:
        assert base.value(v) == 1  # Arf-0 forms sit over base-value-1 vectors
    assert report.element_witnesses is not None


def test_obstruction_report_json():
    data = obstruction_conditions(symplectic_group(1)).to_json()
    assert data == {
        "no_invariant_arf0": True,
        "every_element_fixes_arf0": False,
        "satisfied": False,
    }


def test_census_m1_shape_and_counts():
    census = subgroup_census(1)
    assert census.ambient_order == 6
    assert census.total_subgroups == 6
    assert len(census.classes) == 4
    assert len(census.satisfying) == 0
    assert sorted(c.order for c in census.classes) == [1, 2, 3, 6]
    for c in census.classes:
        assert c.orbit_size * c.normalizer_order == 6


def test_census_m1_flags_match_direct_evaluation():
    sp = standard_symplectic(1)
    for c in subgroup_census(1).classes:
        gens = [F2Matrix.from_text(t) for t in c.generators]
        handle = close(gens, sp)
        assert handle.order == c.order
        report = obstruction_conditions(handle)
        assert report.no_invariant_arf0 == c.no_invariant_arf0
        assert report.every_element_fixes_arf0 == c.every_element_fixes_arf0
        assert report.satisfied == c.satisfied


def test_census_json_shape():
    data = subgroup_census(1).to_json()
    assert data["m"] == 1
    assert data["ambient_order"] == 6
    assert data["classes"] == 4
    assert data["satisfying"] == 0
    assert len(data["class_details"]) == 4
    for cls in data["class_details"]:
        assert set(cls) == {
            "order",
            "generators",
            "orbit_size",
            "normalizer_order",
            "no_invariant_arf0",
            "every_element_fixes_arf0",
            "satisfied",
        }


def test_census_rejects_unmaterialized_m():
    with pytest.raises(ValueError):
        subgroup_census(3)


def _all_subgroups_by_right_cosets(ambient):
    """The join walk's reference: one join per right coset H g, g the
    smallest element of G not yet covered, dropping only H g after it."""
    dim = ambient.dim
    ident = F2Matrix.identity(dim).packed
    subs = {frozenset({ident}): ()}
    queue = list(subs)
    for hset in queue:
        hgens = subs[hset]
        hrights = [matgroups._RightMul(h, dim) for h in hgens]
        remaining = set(ambient.elements) - hset
        while remaining:
            g = min(remaining)
            right = matgroups._RightMul(g, dim)
            jset = frozenset(matgroups._mulclose(hrights + [right], hset, ambient.order + 1))
            if jset not in subs:
                subs[jset] = hgens + (g,)
                queue.append(jset)
            remaining.difference_update(right(hset))
    return subs


@pytest.fixture
def join_count(monkeypatch):
    """The number of `_mulclose` calls, that is of joins, since set up."""
    calls = [0]
    real = matgroups._mulclose

    def counted(rights, group, cap):
        calls[0] += 1
        return real(rights, group, cap)

    monkeypatch.setattr(matgroups, "_mulclose", counted)
    return calls


def _assert_double_coset_walk_matches_the_right_cosets(m, join_count, want_joins):
    """`_all_subgroups` joins once per double coset H g H and must build the
    reference's dict, insertion order and join generators included."""
    ambient = symplectic_group(m)
    start = join_count[0]  # a cold build of the ambient group joins too
    want = _all_subgroups_by_right_cosets(ambient)
    middle = join_count[0]
    got = matgroups._all_subgroups(ambient)
    assert (middle - start, join_count[0] - middle) == want_joins
    assert list(got.items()) == list(want.items())


def test_double_coset_joins_match_the_right_coset_walk_m1(join_count):
    # S3: 5 joins from the trivial group, 2 -> 1 from each of the three
    # subgroups of order 2 (S3 is H and one double coset), 1 from A3
    _assert_double_coset_walk_matches_the_right_cosets(1, join_count, (12, 9))


@pytest.mark.extended
def test_double_coset_joins_match_the_right_coset_walk_m2(join_count):
    """The reference walk takes about a minute."""
    _assert_double_coset_walk_matches_the_right_cosets(2, join_count, (165281, 47404))


def test_set_conjugator_maps_each_element():
    sp4 = symplectic_group(2)
    rng = random.Random(26)
    for _ in range(20):
        g, x, y = rng.sample(sorted(sp4.elements), 3)
        conj = matgroups._conjugator(g, 4)
        xs = close([F2Matrix.from_packed(p, 4) for p in (x, y)], sp4.space).elements
        assert matgroups._set_conjugator(g, 4)(xs) == frozenset(map(conj, xs))
        gm = F2Matrix.from_packed(g, 4)
        assert conj(x) == (gm * F2Matrix.from_packed(x, 4) * gm.inverse()).packed


def test_handle_keeps_its_elements_as_given_and_needs_a_core():
    space = standard_symplectic(1)
    elements = array("Q", sorted(symplectic_group(1).elements))
    handle = SubgroupHandle(space, [], elements, symplectic_group(1).core)
    assert handle.elements is elements
    assert handle.order == 6
    assert handle.is_subgroup_of(symplectic_group(1)) and symplectic_group(1).is_subgroup_of(handle)
    with pytest.raises(TypeError):
        SubgroupHandle(space, [], elements)


def test_gl22_common_fixed_vector():
    sp = standard_symplectic(1)
    t = transvection(0b10, sp)
    group = close([t], sp)
    v = gl22_common_fixed_vector(group)
    assert v != 0
    for g in group.matrices():
        assert g.apply(v) == v
    with pytest.raises(ValueError):
        gl22_common_fixed_vector(symplectic_group(1))


def test_fixed_arf0_masks_match_the_linear_solve(sp3_ascending):
    """The bitmask kernel behind `obstruction_conditions` against the
    independent path: the points v of `fixed_form_vectors`' affine span
    whose form has Arf 0 by `arf_by_count`. All of Sp2(F2) and Sp4(F2), the
    latter also on a shifted base and on a base of Arf 0, 2000 seeded
    elements of Sp6(F2) and 500 more on a base of Arf 0, and 2000 seeded
    words of 1-16 transvections in Sp8(F2), so both parities occur."""
    rng = random.Random(8)
    sp4 = standard_symplectic(4)
    words = []
    for _ in range(2000):
        g = F2Matrix.identity(8)
        for _ in range(rng.randint(1, 16)):
            g = g * transvection(rng.randrange(1, 256), sp4)
        words.append(g.packed)
    q0 = {m: standard_base_form(m) for m in (1, 2, 3, 4)}
    # an Arf-1 base that swapping the halves does not fix, unlike Q0
    shifted = BaseForm(q0[2].space, form_from_vector(q0[2], 0b0010).table)
    assert shifted.arf == 1
    # Q0(e_1) = 1, so Q_(e_1) has Arf 0
    arf0 = {m: BaseForm(q0[m].space, form_from_vector(q0[m], 1).table) for m in (2, 3)}
    assert arf0[2].arf == arf0[3].arf == 0
    outcomes = set()
    for base, elements in (
        (q0[1], symplectic_group(1).elements),
        (q0[2], symplectic_group(2).elements),
        (shifted, symplectic_group(2).elements),
        (q0[3], rng.sample(sp3_ascending, 2000)),
        (q0[4], words),
        (arf0[2], symplectic_group(2).elements),
        (arf0[3], rng.sample(sp3_ascending, 500)),
    ):
        mask_of = matgroups._fixed_arf0_masks(base)
        for p in elements:
            want = 0
            got = fixed_form_vectors(F2Matrix.from_packed(p, base.space.dim), base)
            if got is not None:
                for v in affine_span(*got):
                    want |= (arf_by_count(form_from_vector(base, v)) == 0) << v
            assert mask_of(p) == want
            outcomes.add((base.m, want != 0))
    assert outcomes == {(m, fixes) for m in (1, 2, 3, 4) for fixes in (True, False)}


def test_no_cyclic_group_meets_both_obstruction_conditions(sp3_ascending):
    """A form fixed by g is fixed by <g>, so condition 2 on g and condition 1
    on <g> exclude each other; `order6_uniqueness_scan` relies on this to
    assemble dihedral groups only. All of Sp4(F2), 200 seeded Sp6(F2)."""
    rng = random.Random(6)
    outcomes = set()
    for m, elements in (
        (2, symplectic_group(2).elements),
        (3, rng.sample(sp3_ascending, 200)),
    ):
        space = standard_symplectic(m)
        base = standard_base_form(m)
        for p in elements:
            g = F2Matrix.from_packed(p, space.dim)
            assert not obstruction_conditions(close([g], space)).satisfied
            fixes = matgroups._fixed_arf0_masks(base)(p) != 0
            assert fixes == (next(invariant_arf0_vectors([g], base), None) is not None)
            outcomes.add((m, fixes))
    assert outcomes == {(2, True), (2, False), (3, True), (3, False)}


def test_obstruction_verdict_does_not_depend_on_the_base(sp3_ascending):
    """Which forms a group fixes, and their Arf invariants, do not depend
    on the base form that indexes them by vector: every base at m <= 3
    (4, 16 and 64 of them, of both Arf invariants) gives the same verdict
    and the same invariant Arf-0 forms, read as value tables. The groups
    are Sp2(F2), the closures of 12 seeded elements of Sp4(F2), of 12 of
    Sp6(F2) and of 6 seeded pairs of Sp6 involutions, and the m = 3
    obstruction subgroup; each witness is checked to be an Arf-0 form its
    element fixes."""
    rng = random.Random(21)
    involutions = []
    while len(involutions) < 12:
        g = F2Matrix.from_packed(rng.choice(sp3_ascending), 6)
        n = g.order()
        if n % 2 == 0:
            involutions.append(g ** (n // 2))
    groups = [symplectic_group(1)]
    groups += [close([F2Matrix.from_packed(p, 4)]) for p in rng.sample(sorted(symplectic_group(2).elements), 12)]
    groups += [close([F2Matrix.from_packed(p, 6)]) for p in rng.sample(sp3_ascending, 12)]
    groups += [close(involutions[i : i + 2]) for i in range(0, 12, 2)]
    groups.append(build_obstruction_subgroup(3).group)
    verdicts = set()
    for group in groups:
        q0 = standard_base_form(group.space.m)
        seen = set()
        for v in range(1 << group.dim):
            base = BaseForm(q0.space, form_from_vector(q0, v).table)
            report = obstruction_conditions(group, base)
            forms = frozenset(
                form_from_vector(base, w).table for w in report.invariant_arf0_vectors
            )
            assert all(arf_by_count(t, base.m) == 0 for t in forms)
            assert set(invariant_arf0_vectors(group, base)) == set(report.invariant_arf0_vectors)
            for p, w in (report.element_witnesses or {}).items():
                form = form_from_vector(base, w)
                assert form.arf == arf_by_count(form) == 0
                assert act(F2Matrix.from_packed(p, group.dim), form, check=False) == form
            seen.add((report.no_invariant_arf0, report.every_element_fixes_arf0, forms))
            verdicts.add((base.arf, report.satisfied, report.every_element_fixes_arf0))
        assert len(seen) == 1, group
    # both base parities met satisfied groups, failing elements and groups
    # with an invariant Arf-0 form
    assert verdicts == {(a, s, e) for a in (0, 1) for s, e in ((True, True), (False, True), (False, False))}


def _ascending_handle(sp, ascending):
    """Sp_2m(F2) on its elements in ascending order, with its generators
    and core."""
    return SubgroupHandle(sp.space, sp.generators, ascending, sp.core)


def _obstruction_corpus(sp3, sp3_ascending):
    """The groups whose obstruction reports the digest below pins: the
    closures of 500 seeded Sp6(F2) elements and of 500 seeded pairs of
    involutions (powers g^(n/2) of elements of even order n), Sp2, Sp4 and
    Sp6 on their ascending elements, the trivial group with an empty core,
    every class of `subgroup_census(1)`, and `build_obstruction_subgroup(m)`
    for m = 3..8."""
    rng = random.Random(20)
    space = sp3.space
    groups = [close([F2Matrix.from_packed(p, 6)], space) for p in rng.sample(sp3_ascending, 500)]
    involutions = []
    while len(involutions) < 1000:
        g = F2Matrix.from_packed(rng.choice(sp3_ascending), 6)
        n = g.order()
        if n % 2 == 0:
            involutions.append(g ** (n // 2))
    groups += [close(involutions[i : i + 2], space) for i in range(0, 1000, 2)]
    groups += [_ascending_handle(symplectic_group(m), sorted(symplectic_group(m).elements)) for m in (1, 2)]
    groups.append(_ascending_handle(sp3, sp3_ascending))
    groups.append(SubgroupHandle(space, [], (F2Matrix.identity(6).packed,), ()))
    sp1 = standard_symplectic(1)
    for c in subgroup_census(1).classes:
        groups.append(close([F2Matrix.from_text(t) for t in c.generators], sp1))
    groups += [build_obstruction_subgroup(m).group for m in range(3, 9)]
    return groups


def _report_text(r):
    failing = None if r.failing_element is None else r.failing_element.packed
    witnesses = None if r.element_witnesses is None else list(r.element_witnesses.items())
    return repr(
        (
            r.m,
            r.no_invariant_arf0,
            r.every_element_fixes_arf0,
            r.satisfied,
            r.invariant_arf0_vectors,
            failing,
            witnesses,
        )
    )


def test_frozen_obstruction_reports(sp3, sp3_ascending):
    # the digest pins every field of each report, the witnesses in element
    # order and the failing element included
    lines = [_report_text(obstruction_conditions(g)) for g in _obstruction_corpus(sp3, sp3_ascending)]
    assert len(lines) == 1014
    assert sum("True, True, True" in line for line in lines) == 37
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "b59db856156555568bb8cace8cf5e25c45d4a15f0ba1b514edc07073d646ceff"


def test_obstruction_reports_on_sp_match_their_ascending_handles(sp3, sp3_ascending):
    """Sp2, Sp4 and Sp6 in their coset order report what they report on
    their ascending elements: the same verdicts and invariant vectors, the
    same witnesses (none, since each has an element that fixes no Arf-0
    form), and a failing element, which need not be the same one."""
    for m, sp, ascending in (
        (1, symplectic_group(1), sorted(symplectic_group(1).elements)),
        (2, symplectic_group(2), sorted(symplectic_group(2).elements)),
        (3, sp3, sp3_ascending),
    ):
        got = obstruction_conditions(sp)
        want = obstruction_conditions(_ascending_handle(sp, ascending))
        for field in ("m", "no_invariant_arf0", "every_element_fixes_arf0", "invariant_arf0_vectors", "element_witnesses"):
            assert getattr(got, field) == getattr(want, field), (m, field)
        failing = got.failing_element.packed
        assert want.failing_element is not None and failing in sp.element_set
        assert matgroups._fixed_arf0_masks(standard_base_form(m))(failing) == 0


def test_order6_seeds_cover_every_involution_fixing_an_arf0_form(sp3):
    """The transversal carries Q_v0 to each of the 36 Arf-0 forms, and the
    seeded involutions are all 5103 involutions of Sp6(F2), 63 + 315 + 945
    + 3780 over its four classes, each fixing an Arf-0 form."""
    base = standard_base_form(3)
    oplus, transversal, qual2 = matgroups._arf0_seeds(sp3, base)
    arf0 = arf0_mask(base)
    assert oplus.order == 40320
    assert sorted(transversal) == [v for v in range(64) if (arf0 >> v) & 1]
    (v0,) = [v for v, x in transversal.items() if x == F2Matrix.identity(6).packed]
    for u, x in transversal.items():
        assert act(F2Matrix.from_packed(x, 6), form_from_vector(base, v0)) == form_from_vector(base, u)
    assert len(qual2) == 63 + 315 + 945 + 3780 == 5103
    mask_of = matgroups._fixed_arf0_masks(base)
    for p in qual2:
        g = F2Matrix.from_packed(p, 6)
        assert (g * g).is_identity() and not g.is_identity()
        assert mask_of(p)


def _order6_scan_by_sweep():
    """The scan's oracle: sort all of Sp6(F2) by order, keep the elements
    of orders 2 and 3 that fix an Arf-0 form, and test every order-3
    subgroup against every such involution."""
    sp6 = symplectic_group(3)
    fixed_arf0_mask = matgroups._fixed_arf0_masks(standard_base_form(3))
    dim = 6
    product = lambda a, b: matgroups._product(a, b, dim)
    ident = F2Matrix.identity(dim).packed
    ord2, ord3 = [], []
    for p in sp6.elements:
        if p == ident:
            continue
        p2 = product(p, p)
        if p2 == ident:
            ord2.append(p)
        elif product(p2, p) == ident:
            ord3.append(p)
    qual2 = {p for p in ord2 if fixed_arf0_mask(p)}
    all_involutions = set(ord2)
    involutions = list(qual2)
    survivors = {}
    c3 = {min(r, product(r, r)) for r in ord3 if fixed_arf0_mask(r)}
    for r in sorted(c3):
        r2 = product(r, r)
        for t, tr in zip(involutions, matgroups._RightMul(r, dim)(involutions)):
            if tr not in all_involutions:
                continue
            rt, r2t = product(r, t), product(r2, t)
            if rt not in qual2 or r2t not in qual2:
                continue
            key = frozenset({ident, r, r2, t, rt, r2t})
            if key not in survivors and not fixed_arf0_mask(r) & fixed_arf0_mask(t):
                survivors[key] = (r, t)
    classes = [
        {
            "kind": "dihedral",
            "orbit_size": len(orbit),
            "generators": [F2Matrix.from_packed(p, dim).to_text() for p in survivors[orbit[0]]],
        }
        for orbit in matgroups._conjugation_orbits(survivors, sp6)
    ]
    classes.sort(key=lambda c: c["orbit_size"])
    return {"m": 3, "candidates": len(survivors), "classes": len(classes), "class_details": classes}


@pytest.mark.extended
def test_order6_scan_matches_the_element_sweep(order6_scan):
    """The sweep takes about half a minute."""
    assert _order6_scan_by_sweep() == order6_scan


def test_order6_scan_finds_single_dihedral_class(order6_scan):
    result = order6_scan
    assert result["m"] == 3
    assert result["candidates"] == 5040
    assert result["classes"] == 1
    (detail,) = result["class_details"]
    assert detail["kind"] == "dihedral"
    assert detail["orbit_size"] == 5040
    gens = [F2Matrix.from_text(t) for t in detail["generators"]]
    rep = close(gens, standard_symplectic(3))
    assert rep.order == 6
    r, t = gens
    assert (r * t).rows != (t * r).rows  # dihedral, not cyclic
    assert obstruction_conditions(rep).satisfied
