import random

import pytest

from sdrkit import quadforms
from sdrkit.f2core import F2Matrix, SymplecticSpace, _standard_gram, standard_symplectic
from sdrkit.matgroups import close, symplectic_group, transvection
from sdrkit.quadforms import (
    BaseForm,
    QuadraticForm,
    act,
    action_shift,
    adapted_symplectic_basis,
    all_forms,
    arf0_mask,
    arf_by_basis,
    arf_by_count,
    arf_from_vector,
    fixed_form_vectors,
    form_from_vector,
    orbits,
    pairing_mask,
    standard_base_form,
)


def _rand_symplectic(space, rng, word=8):
    # words of both parities: at m <= 2 transvections are odd permutations
    g = F2Matrix.identity(space.dim)
    for _ in range(word + rng.randrange(2)):
        g = g * transvection(rng.randrange(1, 1 << space.dim), space)
    return g


def test_rand_symplectic_reaches_all_of_sp2():
    space = standard_symplectic(1)
    rng = random.Random(0)
    drawn = {_rand_symplectic(space, rng).packed for _ in range(40)}
    assert drawn == set(symplectic_group(1).elements)


def test_base_form_polarizes_to_pairing():
    """Q0(x+y) + Q0(x) + Q0(y) recovers the symplectic pairing."""
    for m in (1, 2, 3):
        base = standard_base_form(m)
        sp = base.space
        for x in range(1 << sp.dim):
            for y in range(1 << sp.dim):
                polar = base.value(x ^ y) ^ base.value(x) ^ base.value(y)
                assert polar == sp.pairing(x, y)


def test_base_form_arf_is_one():
    for m in (1, 2, 3, 4):
        assert standard_base_form(m).arf == 1


def test_base_form_table_matches_its_formula():
    """Q0(x) = (a_1 OR b_1) + sum over i >= 2 of a_i b_i, x = a | b << m,
    one x at a time, up to dim 10."""
    for m in range(1, 6):
        want = 0
        for x in range(1 << (2 * m)):
            a, b = x & ((1 << m) - 1), x >> m
            want |= (((a | b) & 1) ^ ((a & b) >> 1).bit_count() & 1) << x
        assert standard_base_form(m).table == want


def test_pairing_mask_table():
    """Every v up to dim 4, then both ends and 8 seeded v up to dim 10."""
    rng = random.Random(34)
    for m in range(1, 6):
        sp = standard_symplectic(m)
        top = 1 << sp.dim
        vs = range(top) if m <= 2 else [0, top - 1] + [rng.randrange(top) for _ in range(8)]
        for v in vs:
            assert pairing_mask(sp, v) == sum(sp.pairing(x, v) << x for x in range(top))


def test_form_tables_are_base_plus_linear():
    base = standard_base_form(2)
    for v in range(16):
        form = form_from_vector(base, v)
        for x in range(16):
            assert form.value(x) == base.value(x) ^ base.space.pairing(x, v)


def test_forms_distinct_and_complete():
    for m in (1, 2):
        base = standard_base_form(m)
        forms = all_forms(base)
        assert len(forms) == 1 << (2 * m)
        assert len({f.table for f in forms}) == len(forms)


def test_arf_from_vector_shortcut():
    base = standard_base_form(3)
    for f in all_forms(base):
        assert arf_from_vector(base, f.v) == f.arf == arf_by_count(f)


def test_arf_from_vector_reads_a_base_of_either_arf():
    """Arf(Q_v) = Arf(Q0) + Q0(v) against the value count, with every form
    at m <= 3 taken as the base in turn."""
    for m in (1, 2, 3):
        q0 = standard_base_form(m)
        parities = set()
        for f in all_forms(q0):
            base = BaseForm(q0.space, f.table)
            mask = 0
            for g in all_forms(base):
                assert arf_from_vector(base, g.v) == g.arf == arf_by_count(g)
                mask |= (g.arf ^ 1) << g.v
            assert arf0_mask(base) == mask
            parities.add(base.arf)
        assert parities == {0, 1}


def test_form_json_round_trips_on_the_standard_base_and_refuses_any_other():
    q0 = standard_base_form(2)
    for f in all_forms(q0):
        back = QuadraticForm.from_json(f.to_json())
        assert (back.base, back.v, back.table) == (q0, f.v, f.table)
    # from_json would read each of these back as q0 itself: another table,
    # and for the base Q_1 another Arf
    for f in all_forms(q0)[1:]:
        form = QuadraticForm(BaseForm(q0.space, f.table), 0)
        with pytest.raises(ValueError, match="standard base"):
            form.to_json()


def test_forms_on_different_bases_are_different_forms():
    # Q_0 on the standard base (Arf 1) and Q_0 on the base Q_1 (Arf 0)
    # share m and v but not their value tables
    q0 = standard_base_form(2)
    b = BaseForm(q0.space, form_from_vector(q0, 1).table)
    f, g = QuadraticForm(b, 0), QuadraticForm(q0, 0)
    assert f.table != g.table and (f.arf, g.arf) == (0, 1)
    assert f != g and len({f, g}) == 2
    assert f == QuadraticForm(BaseForm(q0.space, b.table), 0)
    # every v at m = 3, each form built twice, so the second build reads
    # the table its base kept: base table plus pairing mask, per base
    q0 = standard_base_form(3)
    b = BaseForm(q0.space, form_from_vector(q0, 1).table)
    for base in (q0, b, q0, b):
        for v in range(64):
            assert QuadraticForm(base, v).table == base.table ^ pairing_mask(base.space, v)
    for v in range(64):
        assert QuadraticForm(q0, v).table != QuadraticForm(b, v).table


def test_form_vector_out_of_range_is_refused_on_a_warm_base():
    for m in (1, 3):
        base = standard_base_form(m)
        all_forms(base)
        for v in (-1, 1 << base.space.dim, 1 << 70):
            with pytest.raises(ValueError, match="outside the space"):
                QuadraticForm(base, v)
        # 1.0 and True equal the key 1 of a kept table
        for v in (1.0, True, "1", None):
            with pytest.raises(ValueError, match="must be an int"):
                QuadraticForm(base, v)


def test_arf_by_basis_identity_and_random():
    """Each basis is evaluated as is and through an equal but distinct copy,
    which is checked on its own: the check is kept on the matrix."""
    rng = random.Random(17)
    for m in (1, 2, 3, 4):
        base = standard_base_form(m)
        dim = 2 * m
        bases = [F2Matrix.identity(dim)] + [_rand_symplectic(base.space, rng) for _ in range(3)]
        for basis in bases:
            copy = F2Matrix(basis.rows, dim)
            for f in all_forms(base):
                assert arf_by_basis(f, basis) == f.arf
                assert arf_by_basis(f, copy) == f.arf


def test_arf_by_basis_rejects_non_symplectic():
    base = standard_base_form(2)
    form = form_from_vector(base, 0)
    squash = F2Matrix([0b1111, 0, 0, 0], 4)
    with pytest.raises(ValueError):
        arf_by_basis(form, squash)
    # a symplectic basis of the same dimension in the memo changes nothing
    assert arf_by_basis(form, F2Matrix.identity(4)) == form.arf
    with pytest.raises(ValueError):
        arf_by_basis(form, squash)
    with pytest.raises(ValueError):
        arf_by_basis(form, F2Matrix(squash.rows, 4))
    # a basis of the wrong dimension, even one accepted for another m
    ident6 = F2Matrix.identity(6)
    form3 = form_from_vector(standard_base_form(3), 0)
    assert arf_by_basis(form3, ident6) == form3.arf
    for basis, f in ((ident6, form), (F2Matrix.identity(4), form3), (F2Matrix.identity(2), form)):
        with pytest.raises(ValueError):
            arf_by_basis(f, basis)


@pytest.fixture
def symplectic_checks(monkeypatch):
    """The (matrix, space) of each `is_symplectic` call in `quadforms`."""
    calls = []
    real = quadforms.is_symplectic

    def counted(g, space):
        calls.append((g, space))
        return real(g, space)

    monkeypatch.setattr(quadforms, "is_symplectic", counted)
    return calls


def _module_sizes():
    """The size of every cache, dict, list and set at module level in
    `quadforms`."""
    out = {}
    for name, obj in vars(quadforms).items():
        if hasattr(obj, "cache_info"):
            out[name] = obj.cache_info().currsize
        elif isinstance(obj, (dict, list, set)) and not name.startswith("__"):
            out[name] = len(obj)
    return out


def test_arf_by_basis_checks_each_basis_once_and_keeps_nothing_at_module_level(symplectic_checks):
    base = standard_base_form(3)
    forms = all_forms(base)
    basis = F2Matrix.identity(6)
    assert [arf_by_basis(f, basis) for f in forms] == [f.arf for f in forms]
    assert symplectic_checks == [(basis, base.space)]
    # 720 distinct bases of Sp4: one check each, and nothing at module level
    # grows with them
    form = form_from_vector(standard_base_form(2), 5)
    before = _module_sizes()
    del symplectic_checks[:]
    for p in symplectic_group(2).elements:
        basis = F2Matrix.from_packed(p, 4)
        assert arf_by_basis(form, basis) == arf_by_basis(form, basis) == form.arf
    assert len(symplectic_checks) == 720
    assert _module_sizes() == before


def test_arf_by_basis_rejects_a_basis_on_every_call_and_checks_it_once(symplectic_checks):
    base = standard_base_form(2)
    squash = F2Matrix([0b1111, 0, 0, 0], 4)
    for f in all_forms(base):
        with pytest.raises(ValueError, match="not a symplectic basis"):
            arf_by_basis(f, squash)
    assert symplectic_checks == [(squash, base.space)]


def test_arf_by_basis_rechecks_a_basis_on_another_space(symplectic_checks):
    """The check is kept for one space, matched by identity: a form on
    another space, or on an equal but distinct copy of the same one, has
    the basis checked again."""
    q0 = standard_base_form(2)
    twin = SymplecticSpace(_standard_gram(2))
    assert twin == q0.space and twin is not q0.space
    on_twin = QuadraticForm(BaseForm(twin, q0.table), 3)
    on_q0 = form_from_vector(q0, 3)
    basis = F2Matrix.identity(4)
    for form in (on_q0, on_q0, on_twin, on_twin, on_q0):
        assert arf_by_basis(form, basis) == on_q0.arf
    assert [space is twin for _, space in symplectic_checks] == [False, True, False]
    # accepted at m = 2, refused for a form at m = 3, accepted again at m = 2
    form3 = form_from_vector(standard_base_form(3), 0)
    with pytest.raises(ValueError):
        arf_by_basis(form3, basis)
    assert arf_by_basis(on_q0, basis) == on_q0.arf
    assert len(symplectic_checks) == 5


def test_action_shift_defining_identity():
    def check(g, base):
        w = action_shift(g, base)
        sp = base.space
        for x in range(1 << sp.dim):
            assert sp.pairing(x, w) == base.value(g.apply(x)) ^ base.value(x)

    rng = random.Random(19)
    for m in (1, 2, 3, 4):
        base = standard_base_form(m)
        for _ in range(25):
            check(_rand_symplectic(base.space, rng), base)
    base = standard_base_form(2)
    for p in symplectic_group(2).elements:
        check(F2Matrix.from_packed(p, 4), base)


def test_act_transforms_values():
    rng = random.Random(29)
    base = standard_base_form(2)
    sp = base.space
    for _ in range(50):
        g = _rand_symplectic(sp, rng)
        v = rng.randrange(16)
        form = form_from_vector(base, v)
        moved = act(g, form)
        for x in range(16):
            assert moved.value(g.apply(x)) == form.value(x)
        assert moved.arf == form.arf


def test_act_is_group_action():
    rng = random.Random(37)
    base = standard_base_form(3)
    sp = base.space
    for _ in range(40):
        g = _rand_symplectic(sp, rng)
        h = _rand_symplectic(sp, rng)
        form = form_from_vector(base, rng.randrange(64))
        assert act(g, act(h, form)).v == act(g * h, form).v
    ident = F2Matrix.identity(6)
    assert act(ident, form).v == form.v


def test_act_rejects_non_symplectic():
    base = standard_base_form(2)
    bad = F2Matrix([0b1000, 0b0010, 0b0100, 0b0001], 4)
    with pytest.raises(ValueError):
        act(bad, form_from_vector(base, 0))


def test_fixed_form_vectors_against_brute_force():
    rng = random.Random(41)
    base = standard_base_form(2)
    sp = base.space
    for _ in range(60):
        g = _rand_symplectic(sp, rng)
        brute = {v for v in range(16) if act(g, form_from_vector(base, v)).v == v}
        got = fixed_form_vectors(g, base)
        if got is None:
            assert not brute
            continue
        part, kernel = got
        assert len(brute) == 1 << len(kernel)
        assert part in brute
        for k in kernel:
            assert part ^ k in brute


def test_orbits_match_brute_force_under_small_group():
    base = standard_base_form(1)
    sp = base.space
    t = transvection(0b01, sp)
    group = close([t], sp)
    parts = orbits(group, all_forms(base))
    # brute force: repeatedly apply the only generator
    seen = {}
    for f in all_forms(base):
        orbit = {f.v}
        cur = f
        for _ in range(group.order):
            cur = act(t, cur)
            orbit.add(cur.v)
        seen[f.v] = frozenset(orbit)
    got = {frozenset(x.v for x in p) for p in parts}
    assert got == set(seen.values())


def test_full_group_orbit_sizes_small_m():
    for m, sizes in ((1, [1, 3]), (2, [6, 10])):
        group = symplectic_group(m)
        parts = orbits(group, all_forms(standard_base_form(m)))
        assert sorted(len(p) for p in parts) == sizes


def test_orbits_come_sorted_and_refuse_forms_not_closed_under_the_group():
    base = standard_base_form(2)
    parts = orbits(symplectic_group(2), all_forms(base))
    assert all([f.v for f in p] == sorted(f.v for f in p) for p in parts)
    assert [p[0].v for p in parts] == sorted(p[0].v for p in parts)
    # drop one Arf-0 form: the walk from the others reaches it
    dropped = next(p for p in parts if len(p) == 10)[3]
    with pytest.raises(ValueError, match="not closed"):
        orbits(symplectic_group(2), [f for f in all_forms(base) if f != dropped])


def test_adapted_basis_transports_table_to_standard():
    """For an arf-1 form with the standard polar pairing, the adapted basis
    pulls its value table back onto the reference form's."""
    rng = random.Random(53)
    for m in (1, 2, 3):
        base = standard_base_form(m)
        sp = base.space
        dim = 2 * m
        arf1 = [f for f in all_forms(base) if f.arf == 1]
        for f in rng.sample(arf1, min(5, len(arf1))):
            basis = adapted_symplectic_basis(sp, f.table)
            pulled = 0
            for y in range(1 << dim):
                pulled |= ((f.table >> basis.apply(y)) & 1) << y
            assert pulled == base.table
