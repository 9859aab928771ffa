"""Explicit subgroups that obstruct globally while passing every local test.

The key object is a dihedral pair (sigma, tau) inside Sp_2m(F2): sigma of odd
order 2^m + 1 acting freely on nonzero vectors, tau an involution inverting
sigma, with every reflection fixing a vector of value one. The pair is built
on the field F(2^2m) — multiplication by a norm-one generator and the
conjugation automorphism — and transported to standard symplectic
coordinates. Block-embedding a small pair two planes deep then gluing a
plane swap onto tau yields, for every m >= 3, a subgroup satisfying both
obstruction conditions; certificates package such a subgroup with its local
data for independent checking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .f2core import F2Matrix, SymplecticSpace, is_symplectic, standard_symplectic
from .gf2k import as_f2_linear, make_field, norm_one_generator
from .matgroups import (
    ObstructionReport,
    SubgroupHandle,
    close,
    invariant_arf0_vectors,
    obstruction_conditions,
    smallest_fixed_vector,
)
from .quadforms import (
    QuadraticForm,
    act,
    arf_by_count,
    adapted_symplectic_basis,
    form_from_vector,
    pairing_mask,
    standard_base_form,
    MAX_FORM_DIM,
)
from .f2core import symplectic_basis

__all__ = [
    "DihedralConditionError",
    "DihedralPair",
    "build_dihedral_pair",
    "verify_dihedral_pair",
    "ObstructionGroup",
    "build_obstruction_subgroup",
    "direct_sum_form",
    "LocalImage",
    "ObstructionCertificate",
    "CertificateVerdict",
    "certify_counterexample",
    "demo_certificate",
    "degree_for_m",
    "m_for_degree",
]

MAX_PAIR_M = 6  # the field layer checks linearity exhaustively up to k = 12


class DihedralConditionError(ValueError):
    """A dihedral pair failed one of its defining conditions."""

    def __init__(self, condition: str, detail: str):
        super().__init__(f"condition ({condition}) failed: {detail}")
        self.condition = condition


@dataclass(frozen=True)
class DihedralPair:
    """sigma of order 2^m + 1 and an inverting involution tau, in standard
    symplectic coordinates; `transport` maps standard coordinates to the
    field coordinates the pair was born in."""

    m: int
    sigma: F2Matrix
    tau: F2Matrix
    transport: F2Matrix
    field_k: int

    def group(self) -> SubgroupHandle:
        return close([self.sigma, self.tau], standard_symplectic(self.m))

    def to_json(self) -> Dict[str, object]:
        return {
            "m": self.m,
            "sigma": self.sigma.to_text(),
            "tau": self.tau.to_text(),
            "transport": self.transport.to_text(),
            "field_k": self.field_k,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "DihedralPair":
        pair = cls(
            m=int(data["m"]),
            sigma=F2Matrix.from_text(data["sigma"]),
            tau=F2Matrix.from_text(data["tau"]),
            transport=F2Matrix.from_text(data["transport"]),
            field_k=int(data["field_k"]),
        )
        verify_dihedral_pair(pair)
        return pair


def build_dihedral_pair(m: int) -> DihedralPair:
    """Construct the pair on F(2^2m) and transport it to standard coordinates.

    On the field, <x,y> = Tr(x conj(y)) is a nondegenerate alternating
    pairing and Q(x) = Tr_{F(m)/F(1)}(norm(x)) a quadratic form with that
    polar form. Multiplication by a norm-one generator preserves both; so
    does conjugation. A symplectic basis for the pairing composed with a
    form-adapted basis gives the transport.
    """
    if not 1 <= m <= MAX_PAIR_M:
        raise ValueError(f"dihedral pairs are built for 1 <= m <= {MAX_PAIR_M}")
    k = 2 * m
    ctx = make_field(k)
    s = norm_one_generator(ctx)

    def q_value(x: int) -> int:
        return ctx.subfield_trace(ctx.norm(x), m, 1)

    gram_rows = []
    for i in range(k):
        row = 0
        for j in range(k):
            row |= ctx.trace(ctx.mul(1 << i, ctx.conjugate(1 << j))) << j
        gram_rows.append(row)
    space0 = SymplecticSpace(F2Matrix(gram_rows, k))

    table0 = 0
    for x in range(1 << k):
        table0 |= q_value(x) << x
    # sanity: the form's polar form is exactly the pairing
    for i in range(k):
        for j in range(k):
            polar = (
                ((table0 >> ((1 << i) ^ (1 << j))) & 1)
                ^ ((table0 >> (1 << i)) & 1)
                ^ ((table0 >> (1 << j)) & 1)
            )
            if polar != space0.pairing(1 << i, 1 << j):
                raise AssertionError("field form does not polarize to the pairing")

    t1 = symplectic_basis(space0)
    table1 = 0
    for y in range(1 << k):
        table1 |= ((table0 >> t1.apply(y)) & 1) << y
    std = standard_symplectic(m)
    t2 = adapted_symplectic_basis(std, table1)
    w = t1 * t2
    w_inv = w.inverse()

    sigma0 = as_f2_linear(lambda a: ctx.mul(s, a), ctx)
    tau0 = as_f2_linear(ctx.conjugate, ctx)
    sigma = w_inv * sigma0 * w
    tau = w_inv * tau0 * w

    base = standard_base_form(m)
    for g in (sigma, tau):
        if not is_symplectic(g, std):
            raise AssertionError("transported map is not symplectic")
        for z in range(1 << k):
            if base.value(g.apply(z)) != base.value(z):
                raise AssertionError("transported map does not preserve the form")

    pair = DihedralPair(m=m, sigma=sigma, tau=tau, transport=w, field_k=k)
    verify_dihedral_pair(pair)
    return pair


def verify_dihedral_pair(pair: DihedralPair) -> Dict[str, bool]:
    """Check the five defining conditions; raise DihedralConditionError on
    the first failure, return the condition map when all hold.

    (a) sigma has order exactly 2^m + 1;
    (b) tau is an involution;
    (c) tau sigma tau = sigma^-1;
    (d) no nontrivial power of sigma fixes a nonzero vector;
    (e) every reflection tau sigma^i fixes a vector of value one.
    """
    m = pair.m
    target = (1 << m) + 1
    ident = F2Matrix.identity(2 * m)
    base = standard_base_form(m)

    if pair.sigma.order(cap=4 * target) != target:
        raise DihedralConditionError("a", f"sigma order is not {target}")
    if pair.tau == ident or pair.tau * pair.tau != ident:
        raise DihedralConditionError("b", "tau is not an involution")
    if pair.tau * pair.sigma * pair.tau != pair.sigma.inverse():
        raise DihedralConditionError("c", "tau does not invert sigma")

    power = ident
    for i in range(1, target):
        power = power * pair.sigma
        fixed = [x for x in range(1, 1 << (2 * m)) if power.apply(x) == x]
        if fixed:
            raise DihedralConditionError(
                "d", f"sigma^{i} fixes the nonzero vector {fixed[0]}"
            )
    power = ident
    for i in range(target):
        refl = pair.tau * power
        if smallest_fixed_vector([refl], refl.dim, base.value) is None:
            raise DihedralConditionError(
                "e", f"tau sigma^{i} fixes no vector of value one"
            )
        power = power * pair.sigma
    return {c: True for c in "abcde"}


# ---------------------------------------------------------------------------
# block embedding into Sp_2m(F2), m >= 3

def _embed_index(ell: int, mu: int, m: int) -> int:
    """Coordinate ell of the 2*mu-dimensional space into the big space:
    e_1..e_mu keep their slots, f_1..f_mu land at offset m."""
    return ell if ell < mu else ell - mu + m


def _embed_vector(v: int, mu: int, m: int) -> int:
    out = 0
    for ell in range(2 * mu):
        if (v >> ell) & 1:
            out |= 1 << _embed_index(ell, mu, m)
    return out


def _embed_matrix(g: F2Matrix, mu: int, m: int) -> F2Matrix:
    cols = [1 << j for j in range(2 * m)]
    for ell in range(2 * mu):
        cols[_embed_index(ell, mu, m)] = _embed_vector(g.col(ell), mu, m)
    return F2Matrix.from_cols(cols, 2 * m)


def _plane_swap(m: int) -> F2Matrix:
    """Swap the last two hyperbolic planes: e_(m-1) <-> e_m, f_(m-1) <-> f_m."""
    cols = [1 << j for j in range(2 * m)]
    cols[m - 2], cols[m - 1] = cols[m - 1], cols[m - 2]
    cols[2 * m - 2], cols[2 * m - 1] = cols[2 * m - 1], cols[2 * m - 2]
    return F2Matrix.from_cols(cols, 2 * m)


@dataclass(frozen=True)
class ObstructionGroup:
    """The dihedral subgroup of Sp_2m(F2) witnessing the obstruction,
    together with the invariant form it does fix."""

    m: int
    group: SubgroupHandle
    sigma: F2Matrix
    tau_eta: F2Matrix
    pair: DihedralPair
    invariant_form: QuadraticForm
    report: ObstructionReport


def direct_sum_form(m: int) -> QuadraticForm:
    """The form acting as value-one-on-plane on each of the last two planes
    and as the standard base on the rest; its polar form is standard, so it
    is a shift Q_v of the base form."""
    if m < 3:
        raise ValueError("the direct-sum form needs m >= 3")
    mu = m - 2
    base = standard_base_form(m)
    small = standard_base_form(mu)
    dim = 2 * m
    table = 0
    for x in range(1 << dim):
        small_x = 0
        for ell in range(2 * mu):
            small_x |= ((x >> _embed_index(ell, mu, m)) & 1) << ell
        val = small.value(small_x)
        for j in (m - 2, m - 1):  # planes (e_(m-1), f_(m-1)) and (e_m, f_m)
            a = (x >> j) & 1
            b = (x >> (m + j)) & 1
            val ^= a | b
        table |= val << x
    diff = table ^ base.table
    delta = 0
    for i in range(dim):
        delta |= ((diff >> (1 << i)) & 1) << i
    v = ((delta >> m) | (delta << m)) & ((1 << dim) - 1)  # swap e/f halves
    if pairing_mask(base.space, v) != diff:
        raise AssertionError("direct-sum defect is not linear")
    form = form_from_vector(base, v)
    if form.table != table:
        raise AssertionError("direct-sum form is not the computed shift")
    if arf_by_count(table, m) != form.arf:
        raise AssertionError("direct-sum arf disagreement")
    return form


def build_obstruction_subgroup(m: int) -> ObstructionGroup:
    """For m >= 3: embed the dihedral pair for m - 2 into the first m - 2
    planes and extend tau by the swap of the last two planes.

    The result has order 2 (2^(m-2) + 1), fixes the direct-sum form, and
    satisfies both obstruction conditions: it fixes no Arf-0 form while
    every one of its elements fixes one.
    """
    if m < 3:
        raise ValueError("the construction needs m >= 3")
    if m - 2 > MAX_PAIR_M:
        raise ValueError(f"supported up to m = {MAX_PAIR_M + 2}")
    mu = m - 2
    pair = build_dihedral_pair(mu)
    space = standard_symplectic(m)
    sigma = _embed_matrix(pair.sigma, mu, m)
    eta = _plane_swap(m)
    tau_eta = _embed_matrix(pair.tau, mu, m) * eta
    group = close([sigma, tau_eta], space)
    expected = 2 * ((1 << mu) + 1)
    if group.order != expected:
        raise AssertionError(f"expected order {expected}, got {group.order}")

    invariant = direct_sum_form(m)
    for g in (sigma, tau_eta):
        if act(g, invariant) != invariant:
            raise AssertionError("constructed group does not fix the direct sum form")

    report = obstruction_conditions(group)
    if not report.satisfied:
        raise AssertionError("constructed group fails the obstruction conditions")
    return ObstructionGroup(
        m=m,
        group=group,
        sigma=sigma,
        tau_eta=tau_eta,
        pair=pair,
        invariant_form=invariant,
        report=report,
    )


# ---------------------------------------------------------------------------
# certificates

def degree_for_m(m: int) -> Optional[int]:
    """The plane-curve degree n with (n-1)(n-2) = 2m, if one exists."""
    disc = 1 + 8 * m
    r = math.isqrt(disc)
    if r * r != disc or (3 + r) % 2:
        return None
    return (3 + r) // 2


def m_for_degree(n: int) -> int:
    if n < 3:
        raise ValueError("plane curves of degree < 3 have no interesting torsion")
    if (n - 1) * (n - 2) % 2:
        raise AssertionError("(n-1)(n-2) is always even")
    return (n - 1) * (n - 2) // 2


@dataclass(frozen=True)
class LocalImage:
    label: str
    group: SubgroupHandle

    def to_json(self) -> Dict[str, object]:
        return {"label": self.label, "generators": [g.to_text() for g in self.group.generators]}


@dataclass(frozen=True)
class ObstructionCertificate:
    """Everything an independent checker needs: the global image, the local
    images it must dominate, and the arithmetic side conditions."""

    m: int
    degree_n: int
    has_local_points_everywhere: bool
    group: SubgroupHandle
    local_images: Tuple[LocalImage, ...]
    theta_noneffective: Optional[bool] = None

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "m": self.m,
            "degree_n": self.degree_n,
            "has_local_points_everywhere": self.has_local_points_everywhere,
            "G": {"m": self.m, "generators": [g.to_text() for g in self.group.generators]},
            "local_images": [img.to_json() for img in self.local_images],
        }
        if self.theta_noneffective is not None:
            out["theta_noneffective"] = self.theta_noneffective
        return out

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ObstructionCertificate":
        """Parse and close the groups. m, degree_n and every generator's
        dimension are validated first, raising ValueError, so no closure
        runs on an input the certifier cannot check."""
        m = int(data["m"])
        if not 1 <= m <= MAX_FORM_DIM // 2:
            raise ValueError(
                f"m = {m} is out of range: certificates are checked for "
                f"1 <= m <= {MAX_FORM_DIM // 2}"
            )
        degree_n = int(data["degree_n"])
        if degree_n < 3:
            raise ValueError(f"degree_n = {degree_n}: plane curves need degree >= 3")

        def generators(texts) -> List[F2Matrix]:
            gens = [F2Matrix.from_text(t) for t in texts]
            for g in gens:
                if g.dim != 2 * m:
                    raise ValueError(
                        f"a generator has dimension {g.dim}, expected 2m = {2 * m}"
                    )
            return gens

        global_gens = generators(data["G"]["generators"])
        image_gens = [
            (str(img["label"]), generators(img["generators"]))
            for img in data["local_images"]
        ]
        space = standard_symplectic(m)
        group = close(global_gens, space)
        images = tuple(
            LocalImage(label=label, group=close(gens, space))
            for label, gens in image_gens
        )
        return cls(
            m=m,
            degree_n=degree_n,
            has_local_points_everywhere=bool(data["has_local_points_everywhere"]),
            group=group,
            local_images=images,
            theta_noneffective=(
                bool(data["theta_noneffective"])
                if "theta_noneffective" in data
                else None
            ),
        )


@dataclass(frozen=True)
class CertificateVerdict:
    certified: bool
    checks: Dict[str, bool]
    notes: Tuple[str, ...]

    def to_json(self) -> Dict[str, object]:
        return {
            "certified": self.certified,
            "checks": dict(self.checks),
            "notes": list(self.notes),
        }


def _is_cyclic(group: SubgroupHandle) -> bool:
    # A generator g would make F2[g] a commutative subalgebra of dimension
    # at most d, so cyclic subgroups of GL_d(F2) have order below 2^d;
    # anything larger is settled without scanning its elements.
    if group.order >= (1 << group.dim):
        return False
    return any(g.order(cap=group.order + 1) == group.order for g in group.matrices())


def certify_counterexample(cert: ObstructionCertificate) -> CertificateVerdict:
    """Decide whether the certificate exhibits a curve that is locally
    representable everywhere yet globally obstructed.

    Checks, in order: the two-torsion dimension matches the degree; every
    local image sits inside the global one; no Arf-0 form is fixed by the
    whole global image (the global obstruction); every local image fixes
    some Arf-0 form (local representability); local points exist (given, or
    automatic for odd degree); and the theta characteristic attached to the
    representation problem is noneffective (automatic exactly in degree 4).
    """
    base = standard_base_form(cert.m)
    checks: Dict[str, bool] = {}
    notes: List[str] = []

    checks["dimension_matches"] = 2 * cert.m == (cert.degree_n - 1) * (cert.degree_n - 2)
    checks["local_images_inside_group"] = all(
        img.group.is_subgroup_of(cert.group) for img in cert.local_images
    )
    checks["no_invariant_arf0"] = next(invariant_arf0_vectors(cert.group, base), None) is None
    checks["local_images_fix_arf0"] = all(
        next(invariant_arf0_vectors(img.group, base), None) is not None
        for img in cert.local_images
    )
    if cert.degree_n % 2 == 1:
        checks["local_points"] = True
        notes.append("odd degree: local points come for free")
    else:
        checks["local_points"] = cert.has_local_points_everywhere
    if cert.degree_n == 4:
        checks["theta_noneffective"] = True
        notes.append("degree 4: the relevant theta characteristic is automatically noneffective")
    else:
        checks["theta_noneffective"] = cert.theta_noneffective is True
        if cert.theta_noneffective is None:
            notes.append("degree > 4 requires an explicit noneffectivity input")

    for img in cert.local_images:
        if not _is_cyclic(img.group):
            notes.append(f"local image {img.label} is not cyclic")

    return CertificateVerdict(
        certified=all(checks.values()),
        checks=checks,
        notes=tuple(notes),
    )


def demo_certificate(m: int = 3) -> ObstructionCertificate:
    """A fully verifiable certificate built from the constructed subgroup,
    with one local image per cyclic subgroup (the images a Frobenius element
    can cut out)."""
    n = degree_for_m(m)
    if n is None:
        raise ValueError(f"no plane-curve degree matches m = {m}")
    built = build_obstruction_subgroup(m)
    group = built.group
    space = group.space
    seen = {}
    for p in group.elements:
        mat = F2Matrix.from_packed(p, group.dim)
        handle = close([mat], space)
        key = handle.element_set
        if key not in seen:
            seen[key] = mat
    images = []
    for idx, (key, mat) in enumerate(
        sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    ):
        images.append(
            LocalImage(label=f"frobenius-{idx}", group=close([mat], space))
        )
    return ObstructionCertificate(
        m=m,
        degree_n=n,
        has_local_points_everywhere=True,
        group=group,
        local_images=tuple(images),
        theta_noneffective=None if n == 4 else True,
    )
