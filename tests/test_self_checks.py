"""Every reachable self-check of `localglobal`, `matgroups`, `gf2k` and
`f2core` (and the checks of `oracles`' search symbol and
`standard_base_form`) fires when the kernel beneath it is broken.

Each case patches one kernel and expects AssertionError with the gate's own
message. The two conic gates of `_holzer_search` and `_point_and_places`
fire in `tests/test_localglobal.py`, and two gates of `matgroups` fire in
`tests/test_matgroups.py`: the core's stabilizer chain against
|Sp_2m(F2)|, and a conjugate that leaves the census family. A cached
builder is called through `__wrapped__`, so its cache keeps no broken
object.

No patch reaches two checks:
- in `oracles._search_squarefree`, the square root zz of the unit u mod p
  is nonzero, since the branch above it puts the coefficient prime to p
  first, and zz^2 = u mod p then rules out zz = 0;
- in `matgroups.subgroup_census`, "normalizer indices do not sum to the
  subgroup count": each class's index |G| / |N| is its orbit size once the
  orbit-size gate passes, and the orbit sizes sum to the subgroup count once
  the partition gate passes.
`matgroups.symplectic_group` no longer counts its elements against the
order formula: the sequence's length is the stabilizer chain's order, which
the chain gate already checks.
"""
from fractions import Fraction
from itertools import islice

import pytest

from sdrkit import f2core, gf2k, localglobal, matgroups, quadforms
from sdrkit.localglobal import (
    conic_rational_point,
    conic_sdr,
    cubic_rational_roots,
    diagonalize_symmetric,
    galois_image,
    local_obstructions,
)
from sdrkit.oracles import _smooth_point_mod_p, hilbert_symbol_by_search

DIAG = [[2, 0, 0], [0, 3, 0], [0, 0, -5]]  # 2 + 3 - 5 = 0: a point
REAL = {
    name: getattr(localglobal, name)
    for name in ("_symbol", "_matvec3", "_factor", "_adjugate")
}


def _flip_at_3(a, b, place):
    sign = REAL["_symbol"](a, b, place)
    return -sign if place == 3 else sign


def _shift_matvec(a, v):
    x, y, z = REAL["_matvec3"](a, v)
    return x + 1, y, z


def _double_matvec(a, v):
    return tuple(2 * x for x in REAL["_matvec3"](a, v))


def _drop_largest_prime(n):
    out = REAL["_factor"](n)
    if out:
        del out[max(out)]
    return out


def _frame_fault(fault):
    """`_adjugate` with `fault` applied on the pencil's frame (P | R | S),
    whose columns are tuples; the conic's own matrix comes as lists."""

    def adjugate(c0, c1, c2):
        adj, det = REAL["_adjugate"](c0, c1, c2)
        return fault(adj, det) if isinstance(c0, tuple) else (adj, det)

    return adjugate


def _skewed_fraction(n, d=None):
    """Fraction, with every root y / d moved to (y + 1) / d."""
    return Fraction(n) if d is None else Fraction(n + 1, d)


# (patched name, replacement, call, the gate's message)
CASES = {
    "reciprocity": (
        "_symbol", _flip_at_3,
        lambda: local_obstructions(3, -5, -11),
        "reciprocity failed; symbol computation is broken",
    ),
    "diagonal-off-diagonal": (
        "_matvec3", _shift_matvec,
        lambda: diagonalize_symmetric([[1, 2, 0], [2, -3, 1], [0, 1, 5]]),
        "diagonalization left an off-diagonal entry",
    ),
    "diagonal-bookkeeping": (
        "_matvec3", _double_matvec,
        lambda: diagonalize_symmetric([[1, 2, 0], [2, -3, 1], [0, 1, 5]]),
        "diagonalization bookkeeping mismatch",
    ),
    "squarefree-missing-prime": (
        "_factor", _drop_largest_prime,
        lambda: conic_rational_point(DIAG),
        "a prime of 2 is missing from the known primes",
    ),
    "point-on-conic": (
        "_holzer_search", lambda coeffs, primes: (1, 0, 0),
        lambda: conic_rational_point(DIAG),
        "computed point does not lie on the conic",
    ),
    "point-nonzero": (
        "_holzer_search", lambda coeffs, primes: (0, 0, 0),
        lambda: conic_rational_point(DIAG),
        "point search produced the zero vector",
    ),
    # (1, 0, 0) is off x^2 + 2 y^2 - 7 z^2, so its chord's second point is too
    "chord-point": (
        "_point_and_places", lambda a, delta: ((1, 0, 0), []),
        lambda: conic_sdr([[1, 0, 0], [0, 2, 0], [0, 0, -7]]),
        "chord point fails the conic-point checks",
    ),
    # S = P: the chord P x S is 0, and so is its pole
    "pole": (
        "_second_conic_point", lambda a, delta, p: p,
        lambda: conic_sdr(DIAG),
        "pole of the chord lies on the conic",
    ),
    "frame-singular": (
        "_adjugate", _frame_fault(lambda adj, det: (adj, 0)),
        lambda: conic_sdr(DIAG),
        "the pencil frame is singular",
    ),
    # the ROADMAP probe: one entry of the frame's adjugate off by one
    "pencil-determinant": (
        "_adjugate",
        _frame_fault(lambda adj, det: (((adj[0][0] + 1,) + adj[0][1:],) + adj[1:], det)),
        lambda: conic_sdr(DIAG),
        "pencil determinant does not match the conic",
    ),
    "cubic-root": (
        "Fraction", _skewed_fraction,
        lambda: cubic_rational_roots(-7, 6),
        "root verification failed",
    ),
    "cubic-two-roots": (
        "cubic_rational_roots", lambda a, b: [Fraction(1), Fraction(2)],
        lambda: galois_image(-7, 6),
        "a cubic cannot have exactly two rational roots",
    ),
}


def _assert_gate_fires(module, case, monkeypatch):
    """Patch the case's name in `module` (a name with a dot patches an
    attribute of one of its classes), make the call, and expect the gate's
    own message."""
    target, replacement, call, message = case
    owner, _, attr = target.rpartition(".")
    monkeypatch.setattr(getattr(module, owner) if owner else module, attr, replacement)
    with pytest.raises(AssertionError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(CASES))
def test_localglobal_gate_fires(name, monkeypatch):
    _assert_gate_fires(localglobal, CASES[name], monkeypatch)


def test_cubic_scaling_gate_fires(monkeypatch):
    # a common denominator of 1 leaves a = 1/2 a fraction
    monkeypatch.setattr(localglobal.math, "lcm", lambda *xs: 1)
    with pytest.raises(AssertionError, match="scaling by the common denominator left a fraction"):
        cubic_rational_roots(Fraction(1, 2), 0)


def test_search_symbol_checks_its_smooth_point(monkeypatch):
    # 2 x^2 + 3 y^2 - z^2 is 4 mod 5 at (1, 1, 1)
    monkeypatch.setattr("sdrkit.oracles._smooth_point_mod_p", lambda a, b, p: (1, 1, 1))
    with pytest.raises(AssertionError, match="the smooth point mod p is not a solution"):
        hilbert_symbol_by_search(2, 3, 5)


def test_smooth_point_search_refuses_a_degenerate_form():
    # a = b = 0: every zero is (x, y, 0), where no partial is a unit
    with pytest.raises(AssertionError, match="no smooth point on a nondegenerate ternary form"):
        _smooth_point_mod_p(0, 0, 5)


def test_make_field_checks_its_modulus(monkeypatch):
    monkeypatch.setattr(gf2k, "_is_irreducible", lambda f: False)
    with pytest.raises(AssertionError, match="no irreducible modulus of degree 3; one always exists"):
        gf2k.make_field.__wrapped__(3)


# the fields are built before any patch, so no broken field is cached;
# columns are checked against the map only past k = 12
F16, F8192 = gf2k.make_field(4), gf2k.make_field(13)

# (patched name, replacement, call, the gate's message)
GF2K_CASES = {
    "primitive-element": (
        "BinaryFieldCtx.is_primitive", lambda self, a: False,
        lambda: gf2k.make_field.__wrapped__(3),
        "no primitive element found",
    ),
    "norm-one-norm": (
        "BinaryFieldCtx.norm", lambda self, a: 0,
        lambda: gf2k.norm_one_generator(F16),
        "norm-one generator has norm != 1",
    ),
    "norm-one-order": (
        "BinaryFieldCtx.element_order", lambda self, a: 3,
        lambda: gf2k.norm_one_generator(F16),
        "norm-one generator has wrong order",
    ),
    "column-extraction": (
        "F2Matrix.apply", lambda self, v: 0,
        lambda: gf2k.as_f2_linear(lambda x: x, F8192),
        "column extraction mismatch",
    ),
}


@pytest.mark.parametrize("name", sorted(GF2K_CASES))
def test_gf2k_gate_fires(name, monkeypatch):
    _assert_gate_fires(gf2k, GF2K_CASES[name], monkeypatch)


def test_symplectic_basis_checks_its_contract(monkeypatch):
    space = f2core.standard_symplectic(2)
    monkeypatch.setattr(f2core, "_congruent_rows", lambda rows, gram_rows: ())
    with pytest.raises(AssertionError, match="symplectic basis construction failed its contract"):
        f2core.symplectic_basis(space)


def test_standard_base_form_checks_its_arf(monkeypatch):
    monkeypatch.setattr(quadforms, "arf_by_count", lambda table, m=None: 0)
    with pytest.raises(AssertionError, match="the standard base form's Arf invariant is not 1"):
        quadforms.standard_base_form.__wrapped__(1)


MG = {
    name: getattr(matgroups, name)
    for name in ("transvection", "_conjugation_orbits", "_transporters")
}


def _q0_transvection(v, space):
    """T_w for the least w with Q0(w) = 0 at m = 2, whatever v is asked for:
    a transvection that moves the standard base form."""
    base = quadforms.standard_base_form(2)
    return MG["transvection"](next(w for w in range(1, 16) if not base.value(w)), space)


# (patched name, replacement, call, the gate's message); a name with a dot
# patches an attribute of a class in `matgroups`
MATGROUPS_CASES = {
    "transvection-membership": (
        "_LastRowCosets.__contains__", lambda self, x: False,
        lambda: matgroups.symplectic_group.__wrapped__(1),
        "a transvection escaped the closure",
    ),
    "transvection-moves-form": (
        "transvection", _q0_transvection,
        lambda: matgroups.orthogonal_group(quadforms.standard_base_form(2)),
        "a transvection with Q(v) = 1 moves the form",
    ),
    "orthogonal-order": (
        "_orthogonal_order_formula", lambda m, arf: 1,
        lambda: matgroups.orthogonal_group(quadforms.standard_base_form(2)),
        "the transvections' stabilizer chain disagrees with |O(Q)|",
    ),
    "fixed-vector-solve": (
        "solve_affine", lambda rows, rhs, dim: None,
        lambda: matgroups.has_nonzero_fixed_vector(matgroups.F2Matrix.identity(2)),
        "the homogeneous system has no solution, not even x = 0",
    ),
    "census-orbits-partition": (
        "_conjugation_orbits", lambda family, ambient: MG["_conjugation_orbits"](family, ambient)[1:],
        lambda: matgroups.subgroup_census(1),
        "conjugacy orbits do not partition the subgroups",
    ),
    "census-normalizer-index": (
        "_transporters", lambda *args: islice(MG["_transporters"](*args), 1, None),
        lambda: matgroups.subgroup_census(1),
        "orbit size disagrees with the normalizer index",
    ),
}


@pytest.mark.parametrize("name", sorted(MATGROUPS_CASES))
def test_matgroups_gate_fires(name, monkeypatch):
    _assert_gate_fires(matgroups, MATGROUPS_CASES[name], monkeypatch)


def test_common_fixed_vector_gate_fires(monkeypatch):
    # every element passes its own check, and only the common solve fails
    monkeypatch.setattr(matgroups, "has_nonzero_fixed_vector", lambda g: 1)
    monkeypatch.setattr(matgroups, "smallest_fixed_vector", lambda mats, dim, accept=bool: None)
    with pytest.raises(AssertionError, match="no common fixed vector despite elementwise fixes"):
        matgroups.gl22_common_fixed_vector(matgroups.symplectic_group(1))


def test_arf0_seeds_gate_fires():
    # Sp_2(F2) with its core cut to the transvection T, of order 2: the
    # breadth-first search reaches 2 of the 3 Arf-0 forms
    sp1 = matgroups.symplectic_group(1)
    cut = matgroups.SubgroupHandle(sp1.space, sp1.generators, sp1.elements, sp1.core[1:])
    with pytest.raises(AssertionError, match="Sp_6\\(F2\\) is not transitive on the Arf-0 forms"):
        matgroups._arf0_seeds(cut, quadforms.standard_base_form(1))
