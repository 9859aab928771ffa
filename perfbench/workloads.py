"""Seeded inputs, queries and answer checks for the benchmark workloads.

Inputs are plain data (ints, tuples, strings) made by this module from the
seed alone; sdrkit only ever receives them as arguments. Every answer is
checked against a fact computed here without sdrkit's own kernels: bit-level
F2 arithmetic, value-table scans over all Arf-0 forms, Miller-Rabin,
Euler's criterion and Legendre's theorem, exact integer evaluation of points
and pencils. Where the
fact is the search oracle (`sdrkit.oracles`), the oracle call is traced as
its own layer. A check that fails raises :class:`Mismatch`.

Workloads (closed loop, one caller, one process):

* ``lattice-m2``: the subgroup census of Sp2(F2) and Sp4(F2). It is the
  only workload that runs the join enumeration behind the census.
* ``sp6-queries``: materialize Sp6(F2), its form stabilizer, the form
  orbits, the dihedral pairs m = 1..6 and the obstruction subgroups, then a
  seeded batch of small closures, obstruction checks, Arf evaluations and
  certificate verdicts. It uses closure in the opposite regime to
  ``lattice-m2``: one closure of 1.45M elements, then many tiny ones.
* ``arith-sweep``: the query mix of the arithmetic acceptance criteria
  (Hilbert symbols refereed by the search oracle, reciprocity products,
  sweep conics, cubic verdicts, the two cubic densities), plus closed-form
  symbols at 10-12 digit primes and conics with coefficients near 10^3
  (see ARITH_COUNTS), and the quartic fixtures. It runs no F2 code, so it
  is the no-change control for every group-theory change, and vice versa.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import time
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from speed import Sampler

WORKLOADS = ("lattice-m2", "sp6-queries", "arith-sweep")
# nominal wall time of one run, in seconds, on the reference machine (two
# vCPUs of an Intel Xeon, CPython 3.11); run.py makes --seconds // RUN_S runs
RUN_S = {"lattice-m2": 125.0, "sp6-queries": 25.0, "arith-sweep": 20.0}


class Mismatch(Exception):
    """An answer disagrees with an independent fact."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# F2 arithmetic written for the checks (rows as ints, bit j of row i is the
# entry (i, j); vectors are columns; the pairing is <x, y> = x . swap(y))

def swap_halves(v: int, m: int) -> int:
    mask = (1 << m) - 1
    return ((v >> m) & mask) | ((v & mask) << m)


def pairing(x: int, y: int, m: int) -> int:
    return (x & swap_halves(y, m)).bit_count() & 1


def identity_rows(dim: int) -> Tuple[int, ...]:
    return tuple(1 << i for i in range(dim))


def transvection_rows(v: int, m: int) -> Tuple[int, ...]:
    """x -> x + <x, v> v."""
    sv = swap_halves(v, m)
    return tuple((1 << i) ^ (sv if (v >> i) & 1 else 0) for i in range(2 * m))


def mat_mul(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    out = []
    for r in a:
        acc = 0
        while r:
            low = r & -r
            acc ^= b[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return tuple(out)


def apply(rows: Sequence[int], x: int) -> int:
    out = 0
    for i, r in enumerate(rows):
        out |= ((r & x).bit_count() & 1) << i
    return out


def unpack(packed: int, dim: int) -> Tuple[int, ...]:
    mask = (1 << dim) - 1
    return tuple((packed >> (i * dim)) & mask for i in range(dim))


def pack(rows: Sequence[int]) -> int:
    dim = len(rows)
    out = 0
    for i, r in enumerate(rows):
        out |= r << (i * dim)
    return out


def columns(rows: Sequence[int]) -> List[int]:
    return [apply(rows, 1 << j) for j in range(len(rows))]


def element_order(rows: Sequence[int], cap: int = 1 << 12) -> int:
    ident = identity_rows(len(rows))
    power = tuple(rows)
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = mat_mul(power, rows)
    raise Mismatch("element order beyond the cap")


def is_symplectic(rows: Sequence[int], m: int) -> bool:
    cols = columns(rows)
    dim = 2 * m
    return all(
        pairing(cols[i], cols[j], m) == pairing(1 << i, 1 << j, m)
        for i in range(dim)
        for j in range(i + 1, dim)
    )


def rank(rows: Sequence[int]) -> int:
    work = [r for r in rows if r]
    r = 0
    while work:
        pivot = max(work)
        top = pivot.bit_length() - 1
        work = [x ^ pivot if (x >> top) & 1 else x for x in work if x != pivot]
        work = [x for x in work if x]
        r += 1
    return r


def random_symplectic(rng: random.Random, m: int, word: int) -> Tuple[int, ...]:
    g = identity_rows(2 * m)
    for _ in range(word):
        g = mat_mul(g, transvection_rows(rng.randrange(1, 1 << (2 * m)), m))
    return g


def random_involution(rng: random.Random, m: int) -> Tuple[int, ...]:
    """Product of 1-3 transvections on pairwise orthogonal, independent
    vectors: they commute, so the product is a nontrivial involution."""
    k = rng.randint(1, 3)
    vecs: List[int] = []
    span = {0}
    while len(vecs) < k:
        v = rng.randrange(1, 1 << (2 * m))
        if v in span or any(pairing(v, w, m) for w in vecs):
            continue
        vecs.append(v)
        span |= {s ^ v for s in span}
    g = identity_rows(2 * m)
    for v in vecs:
        g = mat_mul(g, transvection_rows(v, m))
    return g


def q0_table(m: int) -> int:
    """Value table of the base form Q0 = (a1 OR b1) + sum_{i>1} a_i b_i."""
    q0 = 0
    for x in range(1 << (2 * m)):
        val = (x & 1) | ((x >> m) & 1)
        for i in range(1, m):
            val ^= ((x >> i) & 1) & ((x >> (m + i)) & 1)
        q0 |= val << x
    return q0


class FormTables:
    """Value tables of every quadratic form polarizing to the standard pairing.

    Every form is Q0 + <., v> for one vector v. Arf 0 is read off the value
    count: an Arf-0 form takes the value 0 at 2^(m-1) (2^m + 1) vectors.
    """

    def __init__(self, m: int) -> None:
        dim = 2 * m
        q0 = q0_table(m)
        zeros_arf0 = (1 << (m - 1)) * ((1 << m) + 1)
        self.m = m
        self.q0 = q0
        self.tables: List[int] = []
        self.arf0: List[int] = []
        for v in range(1 << dim):
            sv = swap_halves(v, m)
            mask = 0
            for x in range(1 << dim):
                mask |= ((x & sv).bit_count() & 1) << x
            table = q0 ^ mask
            self.tables.append(table)
            if (1 << dim) - table.bit_count() == zeros_arf0:
                self.arf0.append(table)
        self.arf0_set = frozenset(self.arf0)

    def arf(self, table: int) -> int:
        return 0 if table in self.arf0_set else 1

    def fixed_arf0_mask(self, rows: Sequence[int]) -> int:
        """Bit k set when g fixes the k-th Arf-0 form. For symplectic g,
        Q(gx) + Q(x) is linear in x, so the basis vectors decide."""
        cols = columns(rows)
        basis = [1 << i for i in range(2 * self.m)]
        out = 0
        for k, t in enumerate(self.arf0):
            if all((t >> c) & 1 == (t >> e) & 1 for c, e in zip(cols, basis)):
                out |= 1 << k
        return out

    def conditions(self, elements: Sequence[int]) -> Tuple[bool, bool]:
        """(no Arf-0 form fixed by all, every element fixes one), by scanning
        every element of the group against every Arf-0 form."""
        dim = 2 * self.m
        common = (1 << len(self.arf0)) - 1
        every = True
        for p in elements:
            mask = self.fixed_arf0_mask(unpack(p, dim))
            common &= mask
            every = every and mask != 0
        return common == 0, every


def symplectic_order(m: int) -> int:
    n = 1 << (m * m)
    for i in range(1, m + 1):
        n *= (1 << (2 * i)) - 1
    return n


# ---------------------------------------------------------------------------
# number theory written for the checks

def factor(n: int) -> Dict[int, int]:
    n = abs(n)
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime_mr(n: int) -> bool:
    """Miller-Rabin on the first 13 primes; deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def euler(u: int, p: int) -> int:
    r = pow(u % p, (p - 1) // 2, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise Mismatch(f"{u} is not a unit mod {p}")


def prime_count(n: int) -> int:
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return sum(sieve)


def legendre_solvable(a: int, b: int, c: int) -> bool:
    """Legendre's theorem: for squarefree, pairwise coprime a, b, c the conic
    a x^2 + b y^2 + c z^2 = 0 has a rational point iff a, b, c do not all
    have one sign and -bc, -ca, -ab are squares mod |a|, |b|, |c|."""
    if (a > 0) == (b > 0) == (c > 0):
        return False
    return all(
        euler(-v * w, p) == 1
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b))
        for p in factor(u)
        if p != 2
    )


def quad_value(mat: Sequence[Sequence[int]], x: Sequence[int]) -> Fraction:
    return sum(
        Fraction(mat[i][j]) * x[i] * x[j] for i in range(3) for j in range(3)
    )


# ---------------------------------------------------------------------------
# input generation

def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    if workload == "lattice-m2":
        return {"census_m": [1, 2]}
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sp6-queries":
        return _sp6_inputs(rng)
    if workload == "arith-sweep":
        return _arith_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


SP6_COUNTS = {"cyclic": 750, "pair": 750, "arf": 1200, "cert": 56}
CERT_KINDS = (
    "demo",
    "roundtrip",
    "wrong_degree",
    "no_local_points",
    "full_group_image",
    "foreign_image",
    "invariant_group",
)


def _sp6_inputs(rng: random.Random) -> Dict[str, Any]:
    queries: List[list] = []
    for _ in range(SP6_COUNTS["cyclic"]):
        queries.append(["cyclic", list(random_symplectic(rng, 3, 8))])
    for _ in range(SP6_COUNTS["pair"]):
        queries.append(
            ["pair", [list(random_involution(rng, 3)), list(random_involution(rng, 3))]]
        )
    for _ in range(SP6_COUNTS["arf"]):
        queries.append(["arf", list(random_symplectic(rng, 3, 12))])
    for i in range(SP6_COUNTS["cert"]):
        kind = CERT_KINDS[i % len(CERT_KINDS)]
        queries.append(
            ["cert", [kind, rng.randrange(5), list(random_symplectic(rng, 3, 8))]]
        )
    rng.shuffle(queries)
    return {"queries": queries, "sample": [rng.randrange(1 << 30) for _ in range(64)]}


# Queries per arith-sweep run. The first four kinds are the query mix of the
# acceptance criteria behind `sdrkit reproduce` at a twentieth of their
# counts: hilbert-symbols (c09: 3600 oracle-refereed pairs with |a|, |b| <= 30
# and 1000 reciprocity products with |a|, |b| <= 800), conic-hasse-sweep (c10:
# 8600 pairwise-coprime squarefree conics with |coefficients| <= 20) and
# cubic-densities (c11: 200 verdicts at bound 2000; its two densities at 10^6
# run whole, once per run). The last two kinds are sized for the two planned
# arithmetic changes: each takes about a third of the run's wall time, so
# Miller-Rabin in `is_prime` (large_prime) and Legendre-style conic descent
# (heavy_conic) can each move wall_s by more than its bound.
ARITH_COUNTS = {
    "hilbert": 180,
    "reciprocity": 50,
    "conic": 430,
    "cubic": 10,
    "large_prime": 130,
    "heavy_conic": 38,
}
# large-prime queries per digit count; the 12-digit ones are more than a
# tenth of all queries, so query_p90_ms lies among them
LARGE_PRIME_DIGITS = {10: 15, 11: 15, 12: 100}
HEAVY_OBSTRUCTED = 26  # of the heavy conics; the rest have a planted point
SWEEP_BOUND = 20
HEAVY_BAND = (950, 1050)


def _arith_inputs(rng: random.Random) -> Dict[str, Any]:
    def nonzero(lo: int, hi: int) -> int:
        while True:
            v = rng.randint(lo, hi)
            if v:
                return v

    queries: List[list] = []
    for _ in range(ARITH_COUNTS["hilbert"]):
        queries.append(["hilbert", [nonzero(-30, 30), nonzero(-30, 30)]])
    for _ in range(ARITH_COUNTS["reciprocity"]):
        queries.append(["reciprocity", [nonzero(-800, 800), nonzero(-800, 800)]])
    i = 0
    for digits, count in LARGE_PRIME_DIGITS.items():
        for _ in range(count):
            # the top tenth of the d-digit range keeps the trial-division
            # cost of one query within 5 % of the others of its digit count
            while True:
                p = rng.randrange(9 * 10 ** (digits - 1), 10 ** digits)
                if is_prime_mr(p):
                    break
            kind = ("unit_unit", "p_unit", "p_p")[i % 3]
            queries.append(["large_prime", [kind, p, nonzero(-50, 50), nonzero(-50, 50)]])
            i += 1
    sweep = _sweep_conics()
    for i in range(ARITH_COUNTS["conic"]):
        queries.append(["conic", [list(rng.choice(sweep)), _unimodular(rng, moved=i % 2 == 1), False]])
    for i in range(ARITH_COUNTS["heavy_conic"]):
        queries.append(["heavy_conic", _heavy_conic_input(rng, obstructed=i < HEAVY_OBSTRUCTED)])
    while sum(1 for q in queries if q[0] == "cubic") < ARITH_COUNTS["cubic"]:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if -4 * a ** 3 - 27 * b ** 2 != 0:
            queries.append(["cubic", [a, b]])
    rng.shuffle(queries)
    return {"queries": queries}


def squarefree(n: int) -> bool:
    return all(e == 1 for e in factor(n).values())


def _sweep_conics() -> List[Tuple[int, int, int]]:
    """The diagonal conics of c10: signed squarefree coefficients up to 20,
    pairwise coprime."""
    signed = [s * v for v in range(1, SWEEP_BOUND + 1) if squarefree(v) for s in (1, -1)]
    return [
        (a, b, c)
        for a in signed
        for b in signed
        if math.gcd(a, b) == 1
        for c in signed
        if math.gcd(a, c) == 1 and math.gcd(b, c) == 1
    ]


def _unimodular(rng: random.Random, moved: bool) -> List[List[int]]:
    """The identity, or two seeded elementary column operations that take a
    diagonal conic off the diagonal without changing its rational points."""
    out = [[int(r == s) for s in range(3)] for r in range(3)]
    if moved:
        for _ in range(2):
            r, s = rng.sample(range(3), 2)
            k = rng.choice((-2, -1, 1, 2))
            for row in out:
                row[s] += k * row[r]
    return out


def _heavy_conic_input(rng: random.Random, obstructed: bool) -> List[Any]:
    """A diagonal conic with coefficients near 10^3.

    Obstructed ones are squarefree, pairwise coprime and of mixed signs, with
    every coefficient in HEAVY_BAND, so the Holzer search is exhaustive over
    about 10^6 candidates whatever the seed. The others pass through
    (x : y : 1) with small x, y by construction."""
    lo, hi = HEAVY_BAND
    while True:
        a, b = rng.randint(lo, hi) * rng.choice((1, -1)), rng.randint(lo, hi) * rng.choice((1, -1))
        if not (squarefree(a) and squarefree(b) and math.gcd(a, b) == 1):
            continue
        if obstructed:
            sign = -1 if a > 0 and b > 0 else 1 if a < 0 and b < 0 else rng.choice((1, -1))
            c = sign * rng.randint(lo, hi)
            if squarefree(c) and math.gcd(a, c) == math.gcd(b, c) == 1 and not legendre_solvable(a, b, c):
                return [[a, b, c], _unimodular(rng, moved=False), False]
        else:
            x, y = rng.randint(1, 3), rng.randint(1, 3)
            c = -(a * x * x + b * y * y)
            if c:
                return [[a, b, c], _unimodular(rng, moved=False), True]


def input_digest(inputs: Dict[str, Any]) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# running a workload

class Recorder:
    """Times each query (one public call plus its check), counts attempts
    and failures, and keeps the counts that per-layer ratios are built on."""

    def __init__(self, tracer, sampler=None) -> None:
        self.tr = tracer
        self.sampler = sampler if sampler is not None else Sampler(enabled=False)
        self.latencies_ms: List[float] = []
        # perf_counter at the middle of each query, to match speed samples
        self.query_t: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.counts: Dict[str, float] = {}

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _run(self, label: str, fn: Callable[[], Any]) -> Any:
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a raise is a failed answer, with its reason
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def step(self, name: str, fn: Callable[[], Any]) -> Any:
        """A fixed piece of the workload; counted and checked, not a query."""
        with self.tr.span("bench.step", tag=name):
            return self._run(name, fn)

    def query(self, kind: str, fn: Callable[[], Any]) -> Any:
        sampler = self.sampler
        with self.tr.span("bench.query", tag=kind):
            spent, t0 = sampler.spent, time.perf_counter()
            out = self._run(kind, fn)
            t1 = time.perf_counter()
            # less the time the speed sampler took inside the query
            self.latencies_ms.append((t1 - t0 - (sampler.spent - spent)) * 1e3)
            self.query_t.append((t0 + t1) / 2)
        return out


def run_workload(name: str, sd, tr, rec: Recorder, inputs: Dict[str, Any]) -> None:
    {"lattice-m2": _run_lattice, "sp6-queries": _run_sp6, "arith-sweep": _run_arith}[name](
        sd, tr, rec, inputs
    )


def check_census(census, m: int) -> None:
    want = {1: (6, 4, 0), 2: (1455, 56, 12)}[m]
    got = (census.total_subgroups, len(census.classes), len(census.satisfying))
    expect(got == want, f"census m={m}: subgroups/classes/satisfying {got}, want {want}")
    ambient = symplectic_order(m)
    expect(census.ambient_order == ambient, f"census m={m}: ambient order {census.ambient_order}")
    for c in census.classes:
        expect(
            c.orbit_size * c.normalizer_order == ambient,
            f"census m={m}: orbit {c.orbit_size} x normalizer {c.normalizer_order} != {ambient}",
        )
    expect(
        sum(c.orbit_size for c in census.classes) == census.total_subgroups,
        f"census m={m}: orbit sizes do not sum to the subgroup count",
    )


def _census(sd, tr, rec: Recorder, m: int):
    def go():
        census = tr.call("matgroups.subgroup_census", sd.subgroup_census, m)
        check_census(census, m)
        rec.count("matgroups.subgroup_census.subgroups", census.total_subgroups)
        rec.count("matgroups.subgroup_census.classes", len(census.classes))

    return go


def _run_lattice(sd, tr, rec: Recorder, inputs: Dict[str, Any]) -> None:
    for m in inputs["census_m"]:
        rec.query("census", _census(sd, tr, rec, m))


# -- sp6-queries -------------------------------------------------------------

def _run_sp6(sd, tr, rec: Recorder, inputs: Dict[str, Any]) -> None:
    forms = {3: FormTables(3), 4: FormTables(4)}
    sample = inputs["sample"]
    state: Dict[str, Any] = {}

    def sp6_step():
        sp6 = tr.call("matgroups.symplectic_group", sd.symplectic_group, 3)
        want = symplectic_order(3)
        expect(sp6.order == want == 1451520, f"|Sp6| = {sp6.order}, want {want}")
        expect(sd.symplectic_order_formula(3) == want, "order formula disagrees")
        expect(pack(identity_rows(6)) in sp6.element_set, "identity missing from Sp6")
        for s in sample:
            p = sp6.elements[s % sp6.order]
            expect(is_symplectic(unpack(p, 6), 3), f"element {p:#x} is not symplectic")
        rec.count("matgroups.symplectic_group.elements", sp6.order)
        state["sp6"] = sp6

    def o3_step():
        sp6 = state["sp6"]
        base = sd.standard_base_form(3)
        expect(base.table == forms[3].q0, "base form table differs from Q0")
        o3 = tr.call("matgroups.orthogonal_group", sd.orthogonal_group, base, sp6)
        expect(o3.order == 51840, f"|O(q)| = {o3.order}, want 51840")
        expect(sp6.order % o3.order == 0 and sp6.order // o3.order == 28, "index is not 28")
        q0 = forms[3].q0
        for s in sample:
            p = o3.elements[s % o3.order]
            cols = columns(unpack(p, 6))
            expect(p in sp6.element_set, "O(q) element outside Sp6")
            expect(
                all((q0 >> c) & 1 == (q0 >> (1 << i)) & 1 for i, c in enumerate(cols)),
                f"O(q) element {p:#x} moves Q0",
            )

    def orbits_step():
        sp6 = state["sp6"]
        all_forms = tr.call("quadforms.all_forms", sd.all_forms, sd.standard_base_form(3))
        parts = tr.call("quadforms.orbits", sd.orbits, sp6, all_forms)
        sizes = sorted(len(p) for p in parts)
        expect(sizes == [28, 36], f"orbit sizes {sizes}, want [28, 36]")
        ft = forms[3]
        for part in parts:
            arfs = {ft.arf(f.table) for f in part}
            expect(len(arfs) == 1, "Arf invariant varies on an orbit")
            expect(arfs == {0 if len(part) == 36 else 1}, "orbit sizes do not match Arf classes")

    def dihedral_step(m: int):
        def go():
            pair = tr.call("constructions.build_dihedral_pair", sd.build_dihedral_pair, m)
            verdict = tr.call("constructions.verify_dihedral_pair", sd.verify_dihedral_pair, pair)
            expect(verdict == {c: True for c in "abcde"}, f"m={m}: verdict {verdict}")
            n = (1 << m) + 1
            sigma, tau = pair.sigma.rows, pair.tau.rows
            ident = identity_rows(2 * m)
            expect(element_order(sigma) == n, f"m={m}: sigma order is not {n}")
            expect(tau != ident and mat_mul(tau, tau) == ident, f"m={m}: tau is not an involution")
            ts = mat_mul(tau, sigma)
            expect(mat_mul(ts, ts) == ident, f"m={m}: tau does not invert sigma")
            q0 = q0_table(m)
            power = ident
            for i in range(1, n):
                power = mat_mul(power, sigma)
                expect(power != tau, f"m={m}: tau lies in <sigma>")
                fixed_space = [r ^ (1 << k) for k, r in enumerate(power)]
                expect(rank(fixed_space) == 2 * m, f"m={m}: sigma^{i} fixes a vector")
            for g in (sigma, tau):
                expect(is_symplectic(g, m), f"m={m}: generator is not symplectic")
                cols = columns(g)
                expect(
                    all((q0 >> c) & 1 == (q0 >> (1 << i)) & 1 for i, c in enumerate(cols)),
                    f"m={m}: generator moves Q0",
                )

        return go

    def obstruction_step(m: int):
        def go():
            built = tr.call(
                "constructions.build_obstruction_subgroup", sd.build_obstruction_subgroup, m
            )
            want = 2 * ((1 << (m - 2)) + 1)
            expect(built.group.order == want, f"m={m}: order {built.group.order}, want {want}")
            expect(built.report.satisfied, f"m={m}: report not satisfied")
            expect(
                forms[m].conditions(built.group.elements) == (True, True),
                f"m={m}: brute-force scan disagrees with the obstruction conditions",
            )

        return go

    def cert_step():
        cert = tr.call("constructions.demo_certificate", sd.demo_certificate, 3)
        expect(len(cert.local_images) == 5, f"{len(cert.local_images)} local images, want 5")
        gset = cert.group.element_set
        for img in cert.local_images:
            expect(img.group.element_set <= gset, f"{img.label} not inside G")
            orders = {element_order(unpack(p, 6)) for p in img.group.elements}
            expect(img.group.order in orders, f"{img.label} is not cyclic")
        state["cert"] = cert

    rec.step("symplectic_group", sp6_step)
    rec.step("orthogonal_group", o3_step)
    rec.step("orbits", orbits_step)
    rec.step("subgroup_census", _census(sd, tr, rec, 1))
    for m in range(1, 7):
        rec.step(f"dihedral_pair_m{m}", dihedral_step(m))
    rec.step("obstruction_subgroup_m3", obstruction_step(3))
    rec.step("obstruction_subgroup_m4", obstruction_step(4))
    rec.step("demo_certificate", cert_step)

    for kind, data in inputs["queries"]:
        if kind in ("cyclic", "pair"):
            group = rec.query("close", _close_query(sd, tr, data if kind == "pair" else [data]))
            if group is not None:
                rec.query("obstruction_conditions", _obstruction_query(sd, tr, forms[3], group))
        elif kind == "arf":
            rec.query("arf_by_basis", _arf_query(sd, tr, forms[3], data))
        else:
            rec.query("certify", _cert_query(sd, tr, rec, forms[3], state, *data))


def _close_query(sd, tr, gens: List[List[int]]):
    """Close one seeded element, or two seeded involutions; the closure is
    returned for the obstruction query that follows it."""

    def go():
        mats = [sd.F2Matrix(g, 6) for g in gens]
        group = tr.call("matgroups.close", sd.close, mats)
        if len(gens) == 1:
            want = element_order(gens[0])
        else:  # two involutions generate a dihedral group of order 2 ord(st)
            want = 2 * element_order(mat_mul(gens[0], gens[1]))
        expect(group.order == want, f"closure order {group.order}, want {want}")
        expect(all(pack(g) in group.element_set for g in gens), "generator outside closure")
        return group

    return go


def _obstruction_query(sd, tr, ft: FormTables, group):
    def go():
        report = tr.call("matgroups.obstruction_conditions", sd.obstruction_conditions, group)
        got = (report.no_invariant_arf0, report.every_element_fixes_arf0)
        want = ft.conditions(group.elements)
        expect(got == want, f"obstruction conditions {got}, brute force {want}")

    return go


def _arf_query(sd, tr, ft: FormTables, basis_rows: List[int]):
    def go():
        basis = sd.F2Matrix(basis_rows, 6)
        cols = columns(basis_rows)
        base = sd.standard_base_form(3)
        for v, table in enumerate(ft.tables):
            form = sd.QuadraticForm(base, v)
            got = tr.call("quadforms.arf_by_basis", sd.arf_by_basis, form, basis)
            expect(got == ft.arf(table), f"arf_by_basis({v}) = {got}")
            # the symplectic-basis formula, evaluated on the value table
            direct = 0
            for i in range(3):
                direct ^= ((table >> cols[i]) & 1) & ((table >> cols[3 + i]) & 1)
            expect(direct == got, f"basis formula disagrees for v={v}")

    return go


def expected_failing(kind: str) -> set:
    return {
        "demo": set(),
        "roundtrip": set(),
        "wrong_degree": {"dimension_matches"},
        "no_local_points": {"local_points"},
        "full_group_image": {"local_images_fix_arf0"},
        "foreign_image": {"local_images_inside_group"},
        "invariant_group": {"no_invariant_arf0"},
    }[kind]


def check_verdict(kind: str, verdict, extra_failing: set = frozenset()) -> None:
    failing = {k for k, ok in verdict.checks.items() if not ok}
    want = expected_failing(kind) | set(extra_failing)
    expect(failing == want, f"{kind}: failing checks {sorted(failing)}, want {sorted(want)}")
    expect(verdict.certified == (not want), f"{kind}: certified = {verdict.certified}")


def _cert_query(sd, tr, rec: Recorder, ft: FormTables, state, kind: str, idx: int, g: List[int]):
    def go():
        cert = state["cert"]
        extra = set()
        if kind == "roundtrip":
            text = json.dumps(cert.to_json())
            cert = tr.call(
                "constructions.ObstructionCertificate.from_json",
                sd.ObstructionCertificate.from_json,
                json.loads(text),
            )
        elif kind == "wrong_degree":
            cert = dataclasses.replace(cert, degree_n=5, theta_noneffective=True)
        elif kind == "no_local_points":
            cert = dataclasses.replace(cert, has_local_points_everywhere=False)
        elif kind == "full_group_image":
            sp6 = state["sp6"]
            cert = dataclasses.replace(
                cert, group=sp6, local_images=(sd.LocalImage("full-group", sp6),)
            )
        elif kind == "foreign_image":
            expect(pack(g) not in cert.group.element_set, "seeded element lies in G")
            foreign = tr.call("matgroups.close", sd.close, [sd.F2Matrix(g, 6)])
            images = list(cert.local_images)
            images[idx] = sd.LocalImage("foreign", foreign)
            cert = dataclasses.replace(cert, local_images=tuple(images))
            if ft.fixed_arf0_mask(g) == 0:
                extra.add("local_images_fix_arf0")
        elif kind == "invariant_group":
            img = cert.local_images[idx]
            cert = dataclasses.replace(cert, group=img.group, local_images=(img,))
        tampered = kind not in ("demo", "roundtrip")
        if tampered:
            rec.count("constructions.certify_counterexample.tampered")
        verdict = tr.call("constructions.certify_counterexample", sd.certify_counterexample, cert)
        check_verdict(kind, verdict, extra)
        if tampered:  # rejected, and for the right checks
            rec.count("constructions.certify_counterexample.rejected")

    return go


# -- arith-sweep ---------------------------------------------------------------

DENSITY_BOUND = 10 ** 6
DENSITY_TOLERANCE = 0.03
VERDICT_BOUND = 2000


def _run_arith(sd, tr, rec: Recorder, inputs: Dict[str, Any]) -> None:
    for kind, data in inputs["queries"]:
        rec.query(kind, _ARITH_QUERIES[kind](sd, tr, rec, *data))

    primes_upto_bound = prime_count(DENSITY_BOUND)
    for label, (a, b), target in (("S3", (0, -2), Fraction(2, 3)), ("C3", (-3, 1), Fraction(1, 3))):
        def density(a=a, b=b, target=target, label=label):
            rep = tr.call(
                "localglobal.cubic_local_root_density",
                sd.cubic_local_root_density,
                a,
                b,
                DENSITY_BOUND,
            )
            expect(
                rep.primes_counted + len(rep.skipped) == primes_upto_bound,
                f"{label}: {rep.primes_counted} + {len(rep.skipped)} primes, want {primes_upto_bound}",
            )
            gap = abs(rep.density - float(target))
            expect(gap < DENSITY_TOLERANCE, f"{label}: density gap {gap:.4f}")
            rec.count("localglobal.cubic_local_root_density.primes", rep.primes_counted)

        rec.step(f"cubic_density_{label}", density)

    for name, coeffs in sorted(sd.COUNTEREXAMPLE_QUARTICS.items()):
        def quartic(name=name, coeffs=coeffs):
            def value(pt):
                return sum(c * pt[0] ** i * pt[1] ** j * pt[2] ** k for (i, j, k), c in coeffs.items())

            ok = tr.call("localglobal.quartic_point_check", sd.quartic_point_check, coeffs, (0, 0, 1))
            expect(ok and value((0, 0, 1)) == 0, f"{name} does not vanish at (0:0:1)")
            got = tr.call("localglobal.quartic_value", sd.quartic_value, coeffs, (1, 1, 1))
            expect(got == value((1, 1, 1)) != 0, f"{name} at (1:1:1): {got}")

        rec.step(f"quartic_{name}", quartic)


def _hilbert(sd, tr, rec, a: int, b: int):
    def go():
        places = ["real"] + sorted({2} | set(factor(a * b)))
        product = 1
        for place in places:
            got = tr.call("localglobal.hilbert_symbol", sd.hilbert_symbol, a, b, place)
            ref = tr.call("oracles.hilbert_symbol_by_search", sd.hilbert_symbol_by_search, a, b, place)
            expect(got == ref, f"({a},{b})_{place}: closed form {got}, oracle {ref}")
            product *= got
        expect(product == 1, f"({a},{b}): product over all places is {product}")

    return go


def _reciprocity(sd, tr, rec, a: int, b: int):
    def go():
        ok = tr.call("localglobal.hilbert_reciprocity_check", sd.hilbert_reciprocity_check, a, b)
        expect(ok is True, f"reciprocity failed for ({a},{b})")

    return go


def _large_prime(sd, tr, rec, kind: str, p: int, u: int, w: int):
    """Closed form only: (a, b)_p at a 10-12 digit prime, against Euler's
    criterion. Units u, w are small, so p divides neither."""
    a = u * p if kind in ("p_unit", "p_p") else u
    b = w * p if kind == "p_p" else w

    def go():
        got = tr.call("localglobal.hilbert_symbol", sd.hilbert_symbol, a, b, p, tag="large_prime")
        if kind == "unit_unit":
            want = 1
        elif kind == "p_unit":
            want = euler(w, p)
        else:  # (pu, pw)_p = (-1)^((p-1)/2) (u|p) (w|p)
            want = euler(-1, p) * euler(u, p) * euler(w, p)
        expect(got == want, f"({a},{b})_{p} = {got}, Euler's criterion gives {want}")

    return go


def _conic(
    sd, tr, rec, diag: List[int], unimodular: List[List[int]], planted: bool, tag: Optional[str] = None
):
    """The diagonal conic diag taken through the unimodular change of
    variables. Its verdict is checked against Legendre's theorem on diag
    (squarefree, pairwise coprime), or is solvable by a planted point."""
    pmat = unimodular
    mat = [
        [sum(pmat[k][i] * diag[k] * pmat[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]

    def go():
        point = tr.call("localglobal.conic_rational_point", sd.conic_rational_point, mat, tag=tag)
        solvable = planted or legendre_solvable(*diag)
        expect((point is not None) == solvable, f"conic {mat}: point {point}, Legendre says solvable {solvable}")
        if point is None:
            return
        rec.count("localglobal.conic_rational_point.points")
        expect(any(point), "zero vector returned as a point")
        expect(math.gcd(*point) == 1, f"point {point} is not primitive")
        expect(quad_value(mat, point) == 0, f"point {point} is not on the conic")
        sdr = tr.call("localglobal.conic_sdr", sd.conic_sdr, mat)
        expect(sdr.scale != 0, "pencil scale is zero")
        # two quadratic forms in three variables agreeing at these six
        # points are equal
        for x in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
            entries = [
                [sum(sdr.matrices[j][r][s] * x[j] for j in range(3)) for s in range(2)]
                for r in range(2)
            ]
            det = entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
            expect(det == sdr.scale * quad_value(mat, x), f"pencil determinant differs at {x}")

    return go


def _heavy_conic(sd, tr, rec, diag: List[int], unimodular: List[List[int]], planted: bool):
    return _conic(sd, tr, rec, diag, unimodular, planted, tag="heavy")


def _cubic(sd, tr, rec, a: int, b: int):
    def go():
        verdict = tr.call(
            "localglobal.cubic_local_global_verdict",
            sd.cubic_local_global_verdict,
            a,
            b,
            VERDICT_BOUND,
        )
        # rational roots of the monic integer cubic are integers dividing b
        bound = max(1, abs(a) + abs(b))
        roots = sorted(x for x in range(-bound, bound + 1) if x ** 3 + a * x + b == 0)
        got = sorted(Fraction(r) for r in verdict["global_roots"])
        expect(got == roots, f"X^3+{a}X+{b}: roots {got}, want {roots}")
        expect(verdict["global_implies_local"] is True, f"X^3+{a}X+{b}: global root missed a prime")
        report = verdict["report"]
        if not roots:
            expect(
                report["primes_with_root"] < report["primes_counted"],
                f"X^3+{a}X+{b}: roots at every prime but none globally",
            )
        label = {3: "trivial", 1: "C2"}.get(len(roots))
        if label is None:
            disc = -4 * a ** 3 - 27 * b ** 2
            label = "C3" if disc > 0 and math.isqrt(disc) ** 2 == disc else "S3"
        expect(verdict["splitting"] == label, f"X^3+{a}X+{b}: splitting {verdict['splitting']}, want {label}")

    return go


_ARITH_QUERIES: Dict[str, Callable[..., Callable[[], None]]] = {
    "hilbert": _hilbert,
    "reciprocity": _reciprocity,
    "large_prime": _large_prime,
    "conic": _conic,
    "heavy_conic": _heavy_conic,
    "cubic": _cubic,
}
