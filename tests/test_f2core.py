import random

import pytest

from sdrkit.f2core import (
    F2Matrix,
    SymplecticSpace,
    is_symplectic,
    nullspace,
    solve,
    solve_affine,
    standard_symplectic,
    symplectic_basis,
)


def _random_invertible(rng, dim):
    while True:
        g = F2Matrix([rng.randrange(1 << dim) for _ in range(dim)], dim)
        if g.rank() == dim:
            return g


def test_identity_and_mul():
    ident = F2Matrix.identity(4)
    assert ident.is_identity()
    g = F2Matrix([0b0010, 0b0001, 0b1000, 0b0100], 4)
    assert (ident * g).rows == g.rows
    assert (g * ident).rows == g.rows


def test_apply_matches_column_picture():
    rng = random.Random(7)
    for _ in range(200):
        dim = rng.randrange(1, 9)
        g = F2Matrix([rng.randrange(1 << dim) for _ in range(dim)], dim)
        v = rng.randrange(1 << dim)
        expect = 0
        for j in range(dim):
            if (v >> j) & 1:
                expect ^= g.col(j)
        assert g.apply(v) == expect


def test_mul_associative_and_apply_compatible():
    rng = random.Random(11)
    for _ in range(100):
        dim = rng.randrange(2, 8)
        a = F2Matrix([rng.randrange(1 << dim) for _ in range(dim)], dim)
        b = F2Matrix([rng.randrange(1 << dim) for _ in range(dim)], dim)
        c = F2Matrix([rng.randrange(1 << dim) for _ in range(dim)], dim)
        assert ((a * b) * c).rows == (a * (b * c)).rows
        v = rng.randrange(1 << dim)
        assert (a * b).apply(v) == a.apply(b.apply(v))


def test_inverse_roundtrip():
    rng = random.Random(23)
    for _ in range(120):
        dim = rng.randrange(1, 10)
        g = _random_invertible(rng, dim)
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()


def test_singular_has_no_inverse():
    g = F2Matrix([0b11, 0b11], 2)
    with pytest.raises(ValueError):
        g.inverse()


def test_rank_nullspace_dimension():
    rng = random.Random(31)
    for _ in range(150):
        dim = rng.randrange(1, 9)
        g = F2Matrix([rng.randrange(1 << dim) for _ in range(dim)], dim)
        kernel = nullspace(g)
        assert g.rank() + len(kernel) == dim
        for v in kernel:
            assert g.apply(v) == 0
        # kernel vectors are independent: all subset xors distinct
        seen = set()
        for mask in range(1 << len(kernel)):
            x = 0
            for i, v in enumerate(kernel):
                if (mask >> i) & 1:
                    x ^= v
            seen.add(x)
        assert len(seen) == 1 << len(kernel)


def _all_matrices(dim):
    for packed in range(1 << (dim * dim)):
        yield F2Matrix.from_packed(packed, dim)


def _span(vectors):
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


def test_rank_inverse_nullspace_exhaustive_small_dims():
    """Every matrix of dimension 1..3 against brute force. The nullspace
    basis is the reduced one: for each free column j (a column in the span of
    the columns before it), the unique kernel vector whose free-column part
    is exactly bit j."""
    for dim in (1, 2, 3):
        ident = F2Matrix.identity(dim)
        for g in _all_matrices(dim):
            assert g.rank() == len(_span(g.rows)).bit_length() - 1
            kernel = [v for v in range(1 << dim) if g.apply(v) == 0]
            free = [
                j for j in range(dim)
                if g.col(j) in _span(g.col(i) for i in range(j))
            ]
            free_mask = sum(1 << j for j in free)
            want = []
            for j in free:
                (v,) = [v for v in kernel if v & free_mask == 1 << j]
                want.append(v)
            assert nullspace(g) == want
            inverses = [h for h in _all_matrices(dim) if g * h == ident]
            if g.rank() == dim:
                assert [g.inverse()] == inverses
            else:
                assert inverses == []
                with pytest.raises(ValueError, match="matrix is singular"):
                    g.inverse()


def test_solve_against_apply():
    rng = random.Random(43)
    for _ in range(150):
        dim = rng.randrange(1, 9)
        g = F2Matrix([rng.randrange(1 << dim) for _ in range(dim)], dim)
        x = rng.randrange(1 << dim)
        rhs = g.apply(x)
        got = solve(g, rhs)
        assert got is not None
        assert g.apply(got) == rhs


def test_solve_affine_stacked_rows():
    """Solutions of several row constraints at once, particular + kernel."""
    rng = random.Random(59)
    for _ in range(80):
        dim = rng.randrange(2, 8)
        rows = [rng.randrange(1 << dim) for _ in range(rng.randrange(1, 6))]
        target = rng.randrange(1 << dim)
        rhs = [bin(r & target).count("1") & 1 for r in rows]
        got = solve_affine(rows, rhs, dim)
        assert got is not None
        part, kernel = got
        for r, want in zip(rows, rhs):
            assert bin(r & part).count("1") & 1 == want
            for k in kernel:
                assert bin(r & k).count("1") & 1 == 0


def test_text_roundtrip():
    rng = random.Random(61)
    for _ in range(40):
        dim = rng.randrange(1, 11)
        g = F2Matrix([rng.randrange(1 << dim) for _ in range(dim)], dim)
        assert F2Matrix.from_text(g.to_text()).rows == g.rows
    with pytest.raises(ValueError):
        F2Matrix.from_text("01;0")


def test_packed_roundtrip():
    rng = random.Random(67)
    for _ in range(60):
        dim = rng.randrange(1, 9)
        g = F2Matrix([rng.randrange(1 << dim) for _ in range(dim)], dim)
        assert F2Matrix.from_packed(g.packed, dim).rows == g.rows


def test_order_of_permutation_block():
    swap = F2Matrix([0b010, 0b001, 0b100], 3)  # exchange of two basis vectors
    assert swap.order() == 2
    assert (swap ** 2).is_identity()
    cycle = F2Matrix([0b010, 0b100, 0b001], 3)  # three-cycle on the basis
    assert cycle.order() == 3
    assert (cycle ** 3).is_identity()
    assert not (cycle ** 2).is_identity()


def test_standard_pairing_values():
    sp = standard_symplectic(2)
    e1, e2, f1, f2 = 1, 2, 4, 8
    assert sp.pairing(e1, f1) == 1
    assert sp.pairing(e2, f2) == 1
    assert sp.pairing(e1, e2) == 0
    assert sp.pairing(f1, f2) == 0
    assert sp.pairing(e1, f2) == 0
    for v in range(16):
        assert sp.pairing(v, v) == 0


def test_pairing_bilinear():
    rng = random.Random(71)
    sp = standard_symplectic(3)
    for _ in range(200):
        x, y, z = (rng.randrange(64) for _ in range(3))
        assert sp.pairing(x ^ y, z) == sp.pairing(x, z) ^ sp.pairing(y, z)


def test_is_symplectic_detects_violations():
    sp = standard_symplectic(2)
    assert is_symplectic(F2Matrix.identity(4), sp)
    # swapping e1 with e2 only is fine; swapping e1 with f2 breaks pairing
    bad = F2Matrix([0b1000, 0b0010, 0b0100, 0b0001], 4)
    assert not is_symplectic(bad, sp)


def _scrambled_spaces():
    """Seeded random changes of basis of the standard pairing: 15 per m."""
    rng = random.Random(83)
    for m in (1, 2, 3):
        std = standard_symplectic(m)
        for _ in range(15):
            t = _random_invertible(rng, 2 * m)
            yield m, SymplecticSpace(t.transpose() * std.gram * t)


def test_symplectic_basis_on_scrambled_gram():
    """A random change of basis scrambles the Gram matrix; the extractor
    recovers a basis in which it is standard again."""
    for m, space in _scrambled_spaces():
        basis = symplectic_basis(space)
        assert basis.transpose() * space.gram * basis == standard_symplectic(m).gram


# symplectic_basis(space).packed for each space of _scrambled_spaces(), frozen
# so that a different (even if valid) basis is caught: the transports in the
# lemma52 and certify goldens depend on this exact choice.
FROZEN_SYMPLECTIC_BASES = {
    1: [9] * 15,
    2: [
        33379, 35875, 33483, 33379, 35883, 33835, 33481, 35875,
        33345, 18465, 35883, 18475, 33473, 33483, 33345,
    ],
    3: [
        34430208423, 35166104193, 35166236419, 34440487431, 35175547303,
        34431184803, 34440490755, 34629234209, 34629365557, 34431076529,
        34439458323, 8866777505, 35166126247, 34495201431, 34629378579,
    ],
}


def test_symplectic_basis_is_frozen():
    got = {m: [] for m in FROZEN_SYMPLECTIC_BASES}
    for m, space in _scrambled_spaces():
        got[m].append(symplectic_basis(space).packed)
    assert got == FROZEN_SYMPLECTIC_BASES
