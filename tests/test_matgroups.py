import json
import random

import pytest

from sdrkit.f2core import F2Matrix, standard_symplectic
from sdrkit.matgroups import (
    ClosureCapExceeded,
    GroupCensus,
    SubgroupHandle,
    all_transvections,
    census_m3_incremental,
    close,
    common_fixed_form_vectors,
    fixed_forms,
    gl22_common_fixed_vector,
    has_nonzero_fixed_vector,
    obstruction_conditions,
    orthogonal_group,
    subgroup_census,
    symplectic_group,
    symplectic_order_formula,
    transvection,
)
from sdrkit.quadforms import act, all_forms, form_from_vector, standard_base_form


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


def test_symplectic_group_orders_match_formula():
    assert symplectic_order_formula(1) == 6
    assert symplectic_order_formula(2) == 720
    assert symplectic_order_formula(3) == 1451520
    for m in (1, 2):
        group = symplectic_group(m)
        assert group.order == symplectic_order_formula(m)
        for t in all_transvections(group.space):
            assert group.contains(t)
        assert len(group.generators) == (1 << (2 * m)) - 1


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


def test_handle_json_roundtrip():
    sp = standard_symplectic(2)
    group = close([transvection(0b0011, sp), transvection(0b0101, sp)], sp)
    back = SubgroupHandle.from_json(group.to_json())
    assert back.element_set == group.element_set
    assert back.space == group.space


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


@pytest.mark.extended
def test_order6_scan_finds_single_dihedral_class(order6_scan):
    """Full sweep of Sp_6(F2); takes several minutes."""
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


@pytest.mark.extended
def test_census_m3_checkpoint_seeds_and_resumes(tmp_path):
    path = str(tmp_path / "census3.json")
    state = census_m3_incremental(path, max_seconds=3.0)
    assert state["m"] == 3
    assert state["done"] is False
    assert state["cursor"] == [0, 0]
    orders = {}
    for c in state["classes"]:
        assert c["seed"] is True
        orders[c["order"]] = orders.get(c["order"], 0) + 1
    assert orders == {1: 1, 2: 4, 3: 3, 4: 5, 5: 1, 6: 7, 7: 1, 8: 2, 9: 1,
                      10: 1, 12: 3, 15: 1}
    with open(path, "r", encoding="utf-8") as fh:
        assert json.load(fh) == state
    # a real budget lets the join loop advance the cursor past the seed state
    resumed = census_m3_incremental(path, max_seconds=45.0)
    assert len(resumed["classes"]) >= 30
    assert resumed["cursor"] != [0, 0]
