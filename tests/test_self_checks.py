"""Every reachable self-check of `localglobal` (and the checks of `oracles`'
search symbol) fires when the kernel beneath it is broken.

Each case patches one kernel and expects AssertionError with the gate's own
message. The two conic gates of `_holzer_search` and `_point_and_places`
fire in `tests/test_localglobal.py`.

No patch reaches one check: in `oracles._search_squarefree`, the square
root zz of the unit u mod p is nonzero, since the branch above it puts the
coefficient prime to p first, and zz^2 = u mod p then rules out zz = 0.
"""
from fractions import Fraction

import pytest

from sdrkit import localglobal
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_localglobal_gate_fires(name, monkeypatch):
    target, replacement, call, message = CASES[name]
    monkeypatch.setattr(localglobal, target, replacement)
    with pytest.raises(AssertionError) as info:
        call()
    assert str(info.value) == message


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
