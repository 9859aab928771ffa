import dataclasses

import pytest

from sdrkit.constructions import (
    DihedralConditionError,
    LocalImage,
    ObstructionCertificate,
    build_dihedral_pair,
    build_obstruction_subgroup,
    certify_counterexample,
    degree_for_m,
    demo_certificate,
    direct_sum_form,
    m_for_degree,
    verify_dihedral_pair,
)
from sdrkit import matgroups
from sdrkit.f2core import F2Matrix, standard_symplectic
from sdrkit.matgroups import close, transvection
from sdrkit.quadforms import act, standard_base_form


def test_dihedral_pair_defining_conditions():
    for m in (1, 2, 3):
        pair = build_dihedral_pair(m)
        assert verify_dihedral_pair(pair) == {c: True for c in "abcde"}
        target = (1 << m) + 1
        assert pair.sigma.order(cap=4 * target) == target
        assert (pair.tau * pair.tau).is_identity()
        assert pair.group().order == 2 * target
        assert pair.field_k == 2 * m


def test_dihedral_pair_powers_act_freely():
    pair = build_dihedral_pair(2)
    g = pair.sigma
    for _ in range(4):  # sigma^1 .. sigma^4
        for x in range(1, 16):
            assert g.apply(x) != x
        g = g * pair.sigma
    assert g.is_identity()


def test_dihedral_pair_json_roundtrip():
    pair = build_dihedral_pair(2)
    back = type(pair).from_json(pair.to_json())
    assert back.sigma == pair.sigma
    assert back.tau == pair.tau
    assert back.transport == pair.transport
    assert back.field_k == pair.field_k


def test_dihedral_pair_rejects_tampering():
    pair = build_dihedral_pair(2)
    ident = F2Matrix.identity(4)
    with pytest.raises(DihedralConditionError) as info:
        verify_dihedral_pair(dataclasses.replace(pair, sigma=ident))
    assert info.value.condition == "a"
    with pytest.raises(DihedralConditionError) as info:
        verify_dihedral_pair(dataclasses.replace(pair, tau=ident))
    assert info.value.condition == "b"
    # an involution that does not invert sigma
    t = transvection(1, standard_symplectic(2))
    with pytest.raises(DihedralConditionError) as info:
        verify_dihedral_pair(dataclasses.replace(pair, tau=t))
    assert info.value.condition == "c"


def test_pair_rejects_out_of_range_m():
    with pytest.raises(ValueError):
        build_dihedral_pair(0)


def test_direct_sum_form_values():
    form = direct_sum_form(3)
    assert form.v == 0b110110
    assert form.arf == 1
    # the last two planes carry the all-ones pattern
    m = 3
    for j in (1, 2):
        e, f = 1 << j, 1 << (m + j)
        assert form.value(e) == 1
        assert form.value(f) == 1
        assert form.value(e ^ f) == 1
    with pytest.raises(ValueError):
        direct_sum_form(2)


def test_build_obstruction_subgroup_m3():
    built = build_obstruction_subgroup(3)
    assert built.group.order == 6
    assert built.report.satisfied
    s, t = built.sigma, built.tau_eta
    assert (s * t).rows != (t * s).rows  # dihedral, not cyclic
    for g in (s, t):
        assert act(g, built.invariant_form) == built.invariant_form
    assert built.invariant_form.arf == 1
    assert built.pair.m == 1


def test_build_obstruction_subgroup_m4():
    built = build_obstruction_subgroup(4)
    assert built.group.order == 10
    assert built.report.satisfied
    with pytest.raises(ValueError):
        build_obstruction_subgroup(2)


def test_degree_dimension_roundtrips():
    assert degree_for_m(1) == 3
    assert degree_for_m(3) == 4
    assert degree_for_m(6) == 5
    assert degree_for_m(2) is None
    assert degree_for_m(4) is None
    assert m_for_degree(3) == 1
    assert m_for_degree(4) == 3
    assert m_for_degree(5) == 6
    with pytest.raises(ValueError):
        m_for_degree(2)


def test_demo_certificate_m3_certifies():
    cert = demo_certificate(3)
    assert cert.degree_n == 4
    assert len(cert.local_images) == 5  # trivial, C2 x3, C3
    verdict = certify_counterexample(cert)
    assert verdict.certified
    assert all(verdict.checks.values())
    assert any("degree 4" in n for n in verdict.notes)
    assert not any("not cyclic" in n for n in verdict.notes)


def test_demo_certificate_odd_degree():
    cert = demo_certificate(6)
    assert cert.degree_n == 5
    assert cert.theta_noneffective is True
    verdict = certify_counterexample(cert)
    assert verdict.certified
    assert any("odd degree" in n for n in verdict.notes)


def test_demo_certificate_rejects_unmatched_m():
    with pytest.raises(ValueError):
        demo_certificate(4)  # 2m = 8 is not (n-1)(n-2) for any degree


def test_certificate_json_roundtrip():
    cert = demo_certificate(3)
    back = ObstructionCertificate.from_json(cert.to_json())
    assert back.m == cert.m
    assert back.degree_n == cert.degree_n
    assert back.group.element_set == cert.group.element_set
    assert len(back.local_images) == len(cert.local_images)
    for a, b in zip(back.local_images, cert.local_images):
        assert a.label == b.label
        assert a.group.element_set == b.group.element_set
    assert certify_counterexample(back).certified


def test_certify_rejects_dimension_mismatch():
    cert = dataclasses.replace(demo_certificate(3), degree_n=5)
    verdict = certify_counterexample(cert)
    assert not verdict.certified
    assert not verdict.checks["dimension_matches"]


def test_certify_rejects_missing_local_points():
    cert = dataclasses.replace(
        demo_certificate(3), has_local_points_everywhere=False
    )
    verdict = certify_counterexample(cert)
    assert not verdict.certified
    assert not verdict.checks["local_points"]
    assert verdict.checks["no_invariant_arf0"]


def test_certify_rejects_foreign_local_image():
    cert = demo_certificate(3)
    space = standard_symplectic(3)
    stray = next(
        transvection(v, space)
        for v in range(1, 64)
        if not cert.group.contains(transvection(v, space))
    )
    bigger = cert.local_images + (
        LocalImage(label="stray", group=close([stray], space)),
    )
    verdict = certify_counterexample(dataclasses.replace(cert, local_images=bigger))
    assert not verdict.certified
    assert not verdict.checks["local_images_inside_group"]


def test_certify_flags_noncyclic_local_image():
    cert = demo_certificate(3)
    whole = LocalImage(label="whole-group", group=cert.group)
    verdict = certify_counterexample(
        dataclasses.replace(cert, local_images=cert.local_images + (whole,))
    )
    assert any("whole-group is not cyclic" in n for n in verdict.notes)
    # the dihedral group is its own subgroup and fixes no Arf-0 form
    assert not verdict.checks["local_images_fix_arf0"]
    assert not verdict.certified


def test_row_table_cache_is_bounded_by_entries(monkeypatch):
    """m = 8 row tables have 2^16 entries each; 80 cyclic local images would
    hold 5.2M entries if the cache counted tables instead."""
    monkeypatch.setattr(matgroups, "_ROW_TABLE_CACHE", {})
    monkeypatch.setattr(matgroups, "_row_table_cached_entries", 0)
    space = standard_symplectic(8)
    images = [[transvection(v, space).to_text()] for v in range(1, 81)]
    assert len(images) << 16 > matgroups.ROW_TABLE_CACHE_ENTRIES
    cert = ObstructionCertificate.from_json(
        {
            "m": 8,
            "degree_n": 6,
            "has_local_points_everywhere": True,
            "G": {"m": 8, "generators": images[0]},
            "local_images": [
                {"label": f"image-{i}", "generators": gens} for i, gens in enumerate(images)
            ],
            "theta_noneffective": True,
        }
    )
    verdict = certify_counterexample(cert)
    assert not verdict.checks["dimension_matches"]  # no degree has 2m = 16
    entries = sum(len(t) for t in matgroups._ROW_TABLE_CACHE.values())
    assert entries == matgroups._row_table_cached_entries
    assert 0 < entries <= matgroups.ROW_TABLE_CACHE_ENTRIES
