import random

import pytest

from sdrkit.f2core import F2Matrix
from sdrkit.gf2k import as_f2_linear, make_field, norm_one_generator


def test_field_axioms_sampled():
    rng = random.Random(3)
    for k in (1, 2, 3, 4, 6, 8):
        ctx = make_field(k)
        n = 1 << k
        for _ in range(120):
            a, b, c = (rng.randrange(n) for _ in range(3))
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)
            assert ctx.mul(a, 1) == a


def test_inverses_and_pow():
    for k in (2, 3, 5, 8):
        ctx = make_field(k)
        for a in range(1, 1 << k):
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.pow(a, (1 << k) - 1) == 1  # unit group order
    with pytest.raises(ZeroDivisionError):
        make_field(3).inv(0)


def test_gamma_is_primitive():
    for k in (1, 2, 3, 4, 6, 10):
        ctx = make_field(k)
        assert ctx.element_order(ctx.gamma) == (1 << k) - 1


def test_frobenius_is_squaring_homomorphism():
    rng = random.Random(5)
    for k in (2, 4, 6):
        ctx = make_field(k)
        n = 1 << k
        for _ in range(100):
            a, b = rng.randrange(n), rng.randrange(n)
            assert ctx.frobenius(a) == ctx.mul(a, a)
            assert ctx.frobenius(a ^ b) == ctx.frobenius(a) ^ ctx.frobenius(b)
            assert ctx.frobenius(ctx.mul(a, b)) == ctx.mul(
                ctx.frobenius(a), ctx.frobenius(b)
            )
        for a in range(n):
            assert ctx.frobenius(a, k) == a  # full tower returns home


def test_square_matches_mul_everywhere():
    for k in range(1, 13):
        ctx = make_field(k)
        for a in range(1 << k):
            assert ctx.square(a) == ctx.mul(a, a)


def test_trace_linear_and_balanced():
    for k in (1, 2, 3, 4, 6):
        ctx = make_field(k)
        n = 1 << k
        values = [ctx.trace(a) for a in range(n)]
        assert set(values) <= {0, 1}
        assert sum(values) == n // 2  # trace is onto F2 with even fibers
        rng = random.Random(k)
        for _ in range(60):
            a, b = rng.randrange(n), rng.randrange(n)
            assert ctx.trace(a ^ b) == ctx.trace(a) ^ ctx.trace(b)


def test_subfield_membership_counts():
    ctx = make_field(6)
    for d in (1, 2, 3, 6):
        members = [a for a in range(64) if ctx.in_subfield(a, d)]
        assert len(members) == 1 << d


def test_subfield_trace_tower():
    """Transitivity: trace to F2 factors through any intermediate field."""
    ctx = make_field(6)
    for a in range(64):
        via2 = ctx.subfield_trace(ctx.subfield_trace(a, 6, 2), 2, 1)
        via3 = ctx.subfield_trace(ctx.subfield_trace(a, 6, 3), 3, 1)
        assert via2 == via3 == ctx.trace(a)


def test_conjugate_and_norm_for_quadratic_extension():
    rng = random.Random(9)
    for m in (1, 2, 3):
        k = 2 * m
        ctx = make_field(k)
        n = 1 << k
        for _ in range(80):
            a, b = rng.randrange(n), rng.randrange(n)
            assert ctx.conjugate(ctx.conjugate(a)) == a
            assert ctx.norm(ctx.mul(a, b)) == ctx.mul(ctx.norm(a), ctx.norm(b))
            assert ctx.in_subfield(ctx.norm(a), m)
            assert ctx.in_subfield(a ^ ctx.conjugate(a), m)  # relative trace


def test_norm_one_generator_order():
    for m in (1, 2, 3, 4):
        ctx = make_field(2 * m)
        s = norm_one_generator(ctx)
        assert ctx.norm(s) == 1
        assert ctx.element_order(s) == (1 << m) + 1


def test_as_f2_linear_matches_function():
    ctx = make_field(4)
    fro = as_f2_linear(ctx.frobenius, ctx)
    assert isinstance(fro, F2Matrix)
    for a in range(16):
        assert fro.apply(a) == ctx.frobenius(a)
    with pytest.raises(ValueError):
        as_f2_linear(lambda a: ctx.mul(a, a) ^ 1, ctx)  # affine, not linear


def test_multiplication_by_unit_is_invertible_matrix():
    ctx = make_field(6)
    rng = random.Random(13)
    for _ in range(10):
        c = rng.randrange(1, 64)
        mat = as_f2_linear(lambda a: ctx.mul(c, a), ctx)
        assert mat.rank() == 6
