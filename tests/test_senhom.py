import random
from fractions import Fraction
from math import comb

import pytest

from conftest import sparse, zp_rows
from wittsen.dpops import GradedLinearMap, psi_eigenvalues
from wittsen.exactalg import IdentityError, InvalidInputError, int_valuation, matrix_product
from wittsen.fgl import f_derham_complex, fgl_construct, q_integer
from wittsen.senhom import (
    Eisenstein,
    build_dvr_square,
    build_line_fiber,
    build_perfectoid_serre,
    build_zpn_serre,
    chain_homology,
    cube_total_fiber,
    fderham_cohomology,
    omega2yn_cohomology,
    two_term_homology,
)


def vp(p, m):
    return int_valuation(p, m)


def entry(report, d):
    return report.entry(d)


def rows(report):
    """degree -> (free rank, exponents) for each row of a report."""
    return {r["degree"]: (r["free_rank"], r["exponents"]) for r in report.degrees}


def uniformizer(R):
    """The class of u in Z_(p)[u]/E(u)."""
    return R.from_poly([0, 1])


# ---------------------------------------------------------------------------
# Eisenstein ring

def test_eisenstein_basics():
    R = Eisenstein(3, [-3, 0, 1])  # u^2 - 3
    pi = uniformizer(R)
    assert R.val(pi) == 1
    assert R.val(R.scalar(3)) == 2
    assert R.val(R.scalar(2)) == 0
    assert R.val(R.add(R.scalar(2), pi)) == 0   # 2 + u
    assert R.val(R.mul(pi, pi)) == 2
    # u^2 reduces to 3
    assert R.mul(pi, pi) == R.scalar(3)


DVR_RINGS = ((3, [-3, 1]), (3, [-3, 0, 1]), (3, [-3, 0, 0, 1]), (2, [-2, 0, 1]))


def test_eisenstein_valuation_is_additive():
    # the facts the DVR closed form rests on: v(ab) = v(a) + v(b), v(p) = e
    rng = random.Random(131)
    for p, E in DVR_RINGS:
        R = Eisenstein(p, E)
        assert R.val(R.scalar(p)) == R.e
        for _ in range(40):
            a, b = (tuple(rng.choice([0, 1, -2, 5, p, -p * p, 7 * p])
                          for _ in range(R.e)) for _ in range(2))
            if R.is_zero(a) or R.is_zero(b):
                continue
            assert R.val(R.mul(a, b)) == R.val(a) + R.val(b), (p, E, a, b)


def test_eisenstein_rejects_non_eisenstein():
    with pytest.raises(InvalidInputError):
        Eisenstein(3, [-9, 0, 1])   # E(0) = 9 divisible by p^2
    with pytest.raises(InvalidInputError):
        Eisenstein(3, [-3, 0, 2])   # not monic
    with pytest.raises(InvalidInputError):
        Eisenstein(3, [-3, 1, 1])   # middle term not divisible by p
    with pytest.raises(InvalidInputError):
        Eisenstein(3, [Fraction(-3, 2), 0, 1])   # not in Z[u]


# ---------------------------------------------------------------------------
# two-term fibers

def rank1_module(degree):
    return {degree: ["e"]}


def test_two_term_zero_map():
    gm = rank1_module(4)
    D = GradedLinearMap(gm, 2, {})
    rep = two_term_homology(D, 10, Eisenstein(3, [-3, 1]))
    for d in (4, 5):
        assert entry(rep, d) == {"degree": d, "free_rank": 1, "torsion": [],
                                 "exponents": []}


def test_two_term_multiplication_by_six():
    gm = {2: ["a"], 0: ["b"]}
    D = GradedLinearMap(gm, 2, {2: zp_rows([[6]])})
    for p, torsion in ((2, [2]), (3, [3]), (5, [])):
        rep = two_term_homology(D, 10, Eisenstein(p, [-p, 1]))
        assert entry(rep, 1)["torsion"] == torsion, p
        assert entry(rep, 1)["free_rank"] == 0


def test_two_term_diag_2_0():
    gm = {2: ["a", "b"], 0: ["c", "d"]}
    D = GradedLinearMap(gm, 2, {2: zp_rows([[2, 0], [0, 0]])})
    rep = two_term_homology(D, 10, Eisenstein(2, [-2, 1]))
    assert entry(rep, 2)["free_rank"] == 1          # kernel rank 1
    assert entry(rep, 1)["torsion"] == [2]          # coker Z_(2)/2 + Z_(2)
    assert entry(rep, 1)["free_rank"] == 1
    rep = two_term_homology(D, 10, Eisenstein(3, [-3, 1]))   # 2 is a unit at p = 3
    assert entry(rep, 1) == {"degree": 1, "free_rank": 1, "torsion": [],
                             "exponents": []}


# ---------------------------------------------------------------------------
# cube total fibers

def test_cube_zero_operators_binomial_pattern():
    for n in (1, 2, 3):
        gm = rank1_module(6)
        ops_list = [GradedLinearMap(gm, 0, {}) for _ in range(n)]
        rep = cube_total_fiber(ops_list, 10, Eisenstein(3, [-3, 1]))
        for k in range(n + 1):
            assert entry(rep, 6 - k)["free_rank"] == comb(n, k)
        chi = sum(
            (-1) ** (6 - row["degree"]) * row["free_rank"] for row in rep.degrees
        )
        assert chi == 0 if n >= 1 else 1


def test_cube_single_operator_hand_computed():
    # M = Z_(p){c, b, a} in degrees 0, 2, 4 with D(a) = 2b, D(b) = 3c, shift 2.
    # Degree d of the fiber is ker(D out of M_d) + coker(D: M_(d+1) -> M_(d-1)):
    # c survives in degree 0, coker(3) sits in degree 1, coker(2) in degree 3,
    # and a, the target of nothing, in degree 5.
    gm = {4: ["a"], 2: ["b"], 0: ["c"]}
    D = GradedLinearMap(gm, 2, {4: zp_rows([[2]]), 2: zp_rows([[3]])})
    for p, want in ((2, {0: (1, []), 3: (0, [1]), 5: (1, [])}),
                    (3, {0: (1, []), 1: (0, [1]), 5: (1, [])}),
                    (5, {0: (1, []), 5: (1, [])})):
        rep = cube_total_fiber([D], 8, Eisenstein(p, [-p, 1]))
        assert rows(rep) == want
        assert two_term_homology(D, 8, Eisenstein(p, [-p, 1])).degrees == rep.degrees


def test_cube_scalar_operators_order_permutation_invariant():
    rng = random.Random(83)
    for p in (2, 3):
        for _ in range(6):
            m = rng.randrange(1, 30)
            scalars = psi_eigenvalues(p, 3, m)
            gm = rank1_module(0)
            ops_list = [
                GradedLinearMap(gm, 0, {0: zp_rows([[s]])}) for s in scalars
            ]
            rep1 = cube_total_fiber(ops_list, 2, Eisenstein(p, [-p, 1]))
            rep2 = cube_total_fiber(list(reversed(ops_list)), 2, Eisenstein(p, [-p, 1]))
            assert [
                (r["degree"], r["free_rank"], r["torsion"]) for r in rep1.degrees
            ] == [
                (r["degree"], r["free_rank"], r["torsion"]) for r in rep2.degrees
            ]


def test_cube_commutation_required():
    gm = {0: ["a", "b"]}
    M1 = GradedLinearMap(gm, 0, {0: zp_rows([[0, 1], [0, 0]])})
    M2 = GradedLinearMap(gm, 0, {0: zp_rows([[0, 0], [1, 0]])})
    with pytest.raises(IdentityError, match="compose to zero"):
        cube_total_fiber([M1, M2], 2, Eisenstein(2, [-2, 1]))


# ---------------------------------------------------------------------------
# named builders

def test_bokstedt_t1():
    for p in (2, 3):
        rep = build_line_fiber(p, 2 * p, p, 2 * p * 10)
        assert entry(rep, 0)["free_rank"] == 1
        for j in range(1, 11):
            d = 2 * p * j - 1
            row = entry(rep, d)
            assert row["torsion"] == [p ** (vp(p, j) + 1)], (p, j)
        # nothing in other positive degrees
        for row in rep.degrees:
            d = row["degree"]
            if d > 0:
                assert (d + 1) % (2 * p) == 0


def test_bokstedt_t1_p3_examples():
    rep = build_line_fiber(3, 6, 3, 40)
    assert entry(rep, 5)["torsion"] == [3]
    assert entry(rep, 17)["torsion"] == [9]


def test_bokstedt_jp():
    rep = build_line_fiber(3, 2, 1, 30)
    assert entry(rep, 0)["free_rank"] == 1
    assert entry(rep, 5)["torsion"] == [3]      # j = 3
    assert entry(rep, 3) == {"degree": 3, "free_rank": 0, "torsion": [],
                             "exponents": []}  # j = 2
    for j in range(1, 15):
        row = entry(rep, 2 * j - 1)
        expected = [] if vp(3, j) == 0 else [3 ** vp(3, j)]
        assert row["torsion"] == expected


def test_serre_cmn_patterns():
    rep = build_line_fiber(2, 4, 2, 24)
    assert entry(rep, 3)["torsion"] == [2]
    assert entry(rep, 7)["torsion"] == [4]
    assert entry(rep, 11)["torsion"] == [2]
    rep32 = build_line_fiber(3, 18, 3, 40)
    assert entry(rep32, 17)["torsion"] == [3]
    for row in rep32.degrees:
        if row["degree"] > 0 and row["degree"] % 2 == 0:
            assert row["free_rank"] == 0 and not row["torsion"]


def test_serre_cmn_general_formula():
    for p, n in ((2, 1), (2, 2), (3, 1)):
        bound = 2 * p**n * 8
        rep = build_line_fiber(p, 2 * p**n, p, bound)
        assert entry(rep, 0)["free_rank"] == 1
        for k in range(1, 8):
            d = 2 * k * p**n - 1
            assert entry(rep, d)["torsion"] == [p ** (vp(p, p * k))], (p, n, k)


def serre_cmn_homology(p, n, bound):
    """Z_p[x, y]/x^2 with |y| = 2p^n, |x| = 2p^n - 1 and y^m -> m p y^(m-1) x,
    built label by label."""
    dy = 2 * p**n
    bases = {}
    for m in range((bound + 1) // dy + 2):
        bases.setdefault(m * dy, []).append(("y", m))
        bases.setdefault(m * dy + dy - 1, []).append(("yx", m))
    dims = {d: len(b) for d, b in bases.items()}
    mats = {}
    for d, src in bases.items():
        tgt = bases.get(d - 1, [])
        mat = [[0] * len(src) for _ in tgt]
        for col, (kind, m) in enumerate(src):
            if kind == "y" and m:
                mat[tgt.index(("yx", m - 1))][col] = m * p
        if tgt:
            mats[d] = zp_rows(mat)
    return chain_homology(dims, mats, bound, Eisenstein(p, [-p, 1]))[0]


def test_serre_cmn_complex_is_the_line_fiber():
    for p, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        gen = 2 * p**n
        for bound in (1, gen - 1, gen, 3 * gen + 1, 8 * gen):
            rep = build_line_fiber(p, gen, p, bound)
            want = serre_cmn_homology(p, n, bound)
            for d in range(bound + 1):
                assert entry(rep, d) == want.entry(d), (p, n, bound, d)


def test_perfectoid_pattern():
    for p in (2, 3):
        bound = 12 * p
        out = build_perfectoid_serre(p, bound)
        rep = out["homology"]
        for d in range(0, bound + 1):
            row = entry(rep, d)
            if d % 2 == 0:
                assert row["free_rank"] == 1 and not row["torsion"], (p, d)
            else:
                assert row["free_rank"] == 0 and not row["torsion"], (p, d)
        for d, rank in out["kernel_ranks"].items():
            assert rank == 1, (p, d)
            assert out["surjective"][d], (p, d)


def test_zpn_serre_patterns():
    rep = build_zpn_serre(3, 2, 30)
    assert entry(rep, 5)["torsion"] == [3]
    assert entry(rep, 17)["torsion"] == [3, 3, 9]
    for d in range(0, 31, 2):
        assert entry(rep, d)["free_rank"] == 1
    # independent of n for n >= 2
    rep3 = build_zpn_serre(3, 3, 30)
    assert [
        (r["degree"], r["free_rank"], r["torsion"]) for r in rep.degrees
    ] == [
        (r["degree"], r["free_rank"], r["torsion"]) for r in rep3.degrees
    ]


def test_zpn_serre_matches_closed_form():
    rep = build_zpn_serre(3, 2, 30)
    for k in range(1, 15):
        d = 2 * k - 1
        expected = sorted(
            3 ** vp(3, j) for j in range(1, k + 1) if vp(3, j) > 0
        )
        assert entry(rep, d)["torsion"] == expected, k


def test_zpn_rejects_p2():
    with pytest.raises(InvalidInputError):
        build_zpn_serre(2, 2, 10)


def test_omega2yn():
    rep = omega2yn_cohomology(3, 2, 30)
    assert entry(rep, 0) == {"degree": 0, "free_rank": 1, "torsion": [],
                             "exponents": []}
    row6 = entry(rep, 6)
    assert row6["free_rank"] == 1 and row6["torsion"] == [3]
    with pytest.raises(InvalidInputError):
        omega2yn_cohomology(3, 1, 10)


def test_omega2yn_uct_consistency():
    hom = build_zpn_serre(3, 2, 31)
    coh = omega2yn_cohomology(3, 2, 30)
    for k in range(1, 16):
        assert entry(coh, 2 * k)["torsion"] == entry(hom, 2 * k - 1)["torsion"], k
        assert entry(coh, 2 * k)["free_rank"] == 1


def total_rows(out, degrees):
    return {d: (out["total"].entry(d)["free_rank"], out["total"].entry(d)["exponents"])
            for d in degrees}


def test_dvr_unramified_matches_bokstedt_jp():
    # E = u - 3: R = Z_(3), E'(pi) = 1, and the square is the Jp line
    out = build_dvr_square(3, [-3, 1], 19)
    assert out["Eprime_valuation"] == 0
    jp = build_line_fiber(3, 2, 1, 19)
    for j in range(1, 10):
        d = 2 * j - 1
        row = out["total"].entry(d)
        assert row["free_rank"] == 0
        assert row["torsion"] == entry(jp, d)["torsion"] == (
            [3 ** vp(3, j)] if vp(3, j) else []), d


def test_dvr_nabla_pattern():
    out = build_dvr_square(3, [-3, 0, 1], 13)  # u^2 - 3, E' = 2u: valuation 1
    nab = out["nabla"]
    for j in range(1, 7):
        d = 2 * j - 1
        row = entry(nab, d)
        assert row["exponents"] == [1] * j, d     # (R/pi)^j
        assert row["free_rank"] == 0
    for k in range(0, 7):
        assert entry(nab, 2 * k)["free_rank"] == 1


def test_dvr_ramified_total():
    # u^2 - 3 at p = 3: e = 2 and E'(pi) = 2 pi, so v(j E'(pi)) = 2 v_3(j) + 1
    out = build_dvr_square(3, [-3, 0, 1], 13)
    assert out["Eprime_valuation"] == 1
    # R/E'(pi) = R/pi in degrees 1 and 3, with order 3
    assert total_rows(out, (1, 3)) == {1: (0, [1]), 3: (0, [1])}
    assert out["total"].entry(1)["torsion"] == [3]
    # degree 2p - 1 = 5: the closed form R/3E'(pi) = R/pi^3 has order 27, and
    # the strict square splits it as R/pi + R/pi^2 of the same order
    assert total_rows(out, (5,)) == {5: (0, [1, 2])}
    assert out["total"].entry(5)["torsion"] == [3, 9]


def test_dvr_total_stops_at_the_compared_degree():
    # sen.dvr compares the total square in every degree when E'(pi) is a
    # unit and only up to 2p - 1 otherwise; nabla is compared in every degree.
    # Only nonzero homology has a row: for u - 3 the last is degree 17 (j = 9)
    for p, E, top in [(3, [-3, 1], 17), (3, [-3, 0, 1], 5), (2, [-2, 0, 1], 3),
                      (5, [5, 0, 0, 1], 9)]:
        out = build_dvr_square(p, E, 19)
        assert max(row["degree"] for row in out["total"].degrees) == top, E
        assert max(row["degree"] for row in out["nabla"].degrees) >= 18, E


def test_dvr_cubic_total():
    E = [-3, 0, 0, 1]  # u^3 - 3, E' = 3u^2: valuation e + 2 = 5
    out = build_dvr_square(3, E, 9)
    assert out["Eprime_valuation"] == 5
    # v(j E'(pi)) = 3 v_3(j) + 5: exactly for j < p, in total order at j = p
    assert total_rows(out, (1, 3)) == {1: (0, [5]), 3: (0, [5])}
    row5 = out["total"].entry(5)
    assert row5["free_rank"] == 0 and sum(row5["exponents"]) == 3 * 1 + 5


# ---------------------------------------------------------------------------
# de Rham-style weights

def test_fderham_additive():
    F = fgl_construct("additive", 8)
    cx = f_derham_complex(F, 5, 6)
    rep = fderham_cohomology(cx)
    for m in range(1, 6):
        assert rep["weights"][m]["divisors"] == [m] * 6


def test_fderham_multiplicative_integer_lambda():
    F = fgl_construct("multiplicative", 8, lam=1)
    cx = f_derham_complex(F, 4, 6)
    rep = fderham_cohomology(cx)
    # dual route: the q-integer built from the geometric series directly
    ring = cx[1].ring
    for m in range(1, 5):
        qi = q_integer(m, 1, ring)
        coeffs = [0] * 6
        for mono, c in qi.terms.items():
            if mono[0] < 6:
                coeffs[mono[0]] = c
        mat = [[0] * 6 for _ in range(6)]
        for j in range(6):
            for i in range(6 - j):
                mat[i + j][j] = int(coeffs[i])
        from wittsen.exactalg import IntMatrix, smith_normal_form
        expected = [abs(d) for d in smith_normal_form(IntMatrix.from_rows(mat)).divisors]
        assert rep["weights"][m]["divisors"] == expected


def test_fderham_symbolic_lambda():
    F = fgl_construct("multiplicative", 8, lam="lam")
    cx = f_derham_complex(F, 4, 6)
    # lam's powers would share one Toeplitz matrix: refused, not computed
    with pytest.raises(InvalidInputError):
        fderham_cohomology(cx)


def test_fderham_h_bound_is_honoured_or_rejected():
    F = fgl_construct("additive", 8)
    for K in (1, 4):
        rep = fderham_cohomology(f_derham_complex(F, 3, K))
        for m in (1, 2, 3):
            assert len(rep["weights"][m]["divisors"]) == K
        assert rep["weights"][2]["divisors"] == [2] * K
    for bad in (0, -1):
        with pytest.raises(InvalidInputError):
            f_derham_complex(F, 3, bad)


# ---------------------------------------------------------------------------
# engine cross-checks

def test_local_snf_matches_integer_snf_p_parts():
    # dual route: uniformizer exponents from the local engine must be the
    # p-valuations of the integer elementary divisors
    from wittsen.exactalg import IntMatrix, smith_normal_form, local_snf, int_valuation

    rng = random.Random(97)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(-20, 21) for _ in range(m)] for _ in range(n)]
        dec = smith_normal_form(IntMatrix.from_rows(rows))
        expected = sorted(
            int_valuation(p, d) for d in dec.divisors if d != 0
        )
        exps = local_snf(Eisenstein(p, [-p, 1]), zp_rows(rows), m)
        assert len(exps) == sum(1 for d in dec.divisors if d != 0)
        assert sorted(exps) == expected


class FractionEisenstein:
    """Reference ring: Z_(p)[u]/E(u) on Fraction tuples inside the field
    Q[u]/E, with the Euclidean inverse; a row update divides by the pivot."""

    def __init__(self, p, E):
        self.p, self.e = p, len(E) - 1
        self.E = [Fraction(c) for c in E]
        self.zero = (Fraction(0),) * self.e

    @staticmethod
    def _divmod(num, den):
        num = list(num)
        while den[-1] == 0:
            den = den[:-1]
        dd = len(den) - 1
        q = [Fraction(0)] * max(0, len(num) - dd)
        for i in range(len(num) - 1, dd - 1, -1):
            c = q[i - dd] = num[i] / den[dd]
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
        return q, num[:dd]

    def from_poly(self, coeffs):
        _, rem = self._divmod([Fraction(c) for c in coeffs], self.E)
        return tuple(rem + [Fraction(0)] * (self.e - len(rem)))

    def is_zero(self, x):
        return all(c == 0 for c in x)

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [Fraction(0)] * (2 * self.e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return self.from_poly(prod)

    def inv(self, a):
        """Extended Euclid in Q[u]: s*a + t*E = 1."""
        r0, r1 = list(self.E), list(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            while r1[-1] == 0:
                r1 = r1[:-1]
            q, rem = self._divmod(r0, r1)
            qs = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, c in enumerate(q):
                for j, d in enumerate(s1):
                    qs[i + j] += c * d
            width = max(len(s0), len(qs))
            s0, s1 = s1, [x - y for x, y in zip(s0 + [0] * (width - len(s0)),
                                                qs + [0] * (width - len(qs)))]
            r0, r1 = r1, rem
        return self.from_poly([c / r0[0] for c in s0])

    def val(self, x):
        return min(self.e * (vp(self.p, c.numerator) - vp(self.p, c.denominator)) + i
                   for i, c in enumerate(x) if c)

    def eliminate(self, piv, tail, x, row):
        f = self.mul(x, self.inv(piv))
        out = dict(row)
        for j, t in tail.items():
            out[j] = self.sub(out.get(j, self.zero), self.mul(f, t))
        return {j: y for j, y in out.items() if not self.is_zero(y)}


def random_eisenstein(rng, p, e):
    unit = lambda: rng.choice([u for u in range(-7, 8) if u % p])
    return [p * unit()] + [p * rng.randrange(-2, 3) for _ in range(e - 1)] + [1]


def planted_matrix(rng, R, dense):
    """An n x m matrix over R, both at most 8, with planted elementary
    divisors unit*pi^k on a diagonal, mixed by elementary row and column
    operations with ring coefficients (a few, or many for a dense matrix),
    unit row scalings and permutations. Returns (sparse rows, ncols,
    exponents)."""
    n, m = rng.randrange(1, 9), rng.randrange(1, 9)
    elt = lambda: tuple(rng.randrange(-4, 5) for _ in range(R.e))
    unit = lambda: (rng.choice([u for u in range(-7, 8) if u % R.p]),) + elt()[1:]
    exps = sorted(rng.randrange(0, 5) for _ in range(rng.randrange(0, min(n, m) + 1)))
    a = [[R.zero] * m for _ in range(n)]
    for k, e in enumerate(exps):
        a[k][k] = unit()
        for _ in range(e):
            a[k][k] = R.mul(a[k][k], uniformizer(R))
    for _ in range(rng.randrange(2 * (n + m), 3 * (n + m)) if dense else rng.randrange(3)):
        c, kind = elt(), rng.randrange(3)
        if kind == 0 and n > 1:
            i, j = rng.sample(range(n), 2)
            a[i] = [R.add(x, R.mul(c, y)) for x, y in zip(a[i], a[j])]
        elif kind == 1 and m > 1:
            i, j = rng.sample(range(m), 2)
            for row in a:
                row[i] = R.add(row[i], R.mul(c, row[j]))
        else:
            i, c = rng.randrange(n), unit()
            a[i] = [R.mul(c, x) for x in a[i]]
    rng.shuffle(a)
    cols = rng.sample(range(m), m)
    return sparse([[row[j] for j in cols] for row in a], R.zero), m, exps


def very_sparse_planted_matrix(rng, R):
    """A matrix over R of 10..14 rows and columns with at least 90% zeros:
    up to four planted divisors unit*pi^k at distinct rows and columns, then
    one ring multiple of a row added to another and one of a column added to
    another. Returns (rows, ncols, exponents)."""
    n, m = rng.randrange(10, 15), rng.randrange(10, 15)
    elt = lambda: tuple(rng.randrange(-4, 5) for _ in range(R.e))
    unit = lambda: (rng.choice([u for u in range(-7, 8) if u % R.p]),) + elt()[1:]
    exps = sorted(rng.randrange(0, 5) for _ in range(rng.randrange(0, 5)))
    a = [[R.zero] * m for _ in range(n)]
    for e, i, j in zip(exps, rng.sample(range(n), len(exps)), rng.sample(range(m), len(exps))):
        a[i][j] = unit()
        for _ in range(e):
            a[i][j] = R.mul(a[i][j], uniformizer(R))
    i, j = rng.sample(range(n), 2)
    c = elt()
    a[i] = [R.add(x, R.mul(c, y)) for x, y in zip(a[i], a[j])]
    i, j = rng.sample(range(m), 2)
    c = elt()
    for row in a:
        row[i] = R.add(row[i], R.mul(c, row[j]))
    return a, m, exps


def test_local_snf_over_integer_eisenstein_matches_fraction_reference():
    # 360 draws: p in {2, 3, 5}, deg E = 1..4, 15 sparse and 15 dense each;
    # then 120 draws with at least 90% zeros and some zero rows and columns
    from wittsen.exactalg import local_snf

    def check(p, E, rows, ncols, want):
        R, ref = Eisenstein(p, E), FractionEisenstein(p, E)
        got = local_snf(R, rows, ncols)
        frac = [{j: tuple(map(Fraction, x)) for j, x in row.items()} for row in rows]
        assert got == local_snf(ref, frac, ncols) == want, (p, E, rows)

    rng = random.Random(409)
    for p in (2, 3, 5):
        for e in range(1, 5):
            for draw in range(30):
                E = random_eisenstein(rng, p, e)
                check(p, E, *planted_matrix(rng, Eisenstein(p, E), dense=draw % 2))
    for p in (2, 3, 5):
        for e in range(1, 5):
            for _ in range(10):
                E = random_eisenstein(rng, p, e)
                R = Eisenstein(p, E)
                rows, ncols, want = very_sparse_planted_matrix(rng, R)
                zero = [[R.is_zero(x) for x in row] for row in rows]
                assert sum(map(sum, zero)) >= 0.9 * len(rows) * ncols
                assert any(map(all, zero)) and any(map(all, zip(*zero)))
                check(p, E, sparse(rows, R.zero), ncols, want)


def full_scan_snf(ops, rows, ncols):
    """local_snf with a pivot scan that reads every remaining entry: the pivot
    is the least (valuation, row, column), its row is removed, and every other
    row holding its column is updated. Zero rows are kept."""
    a = [dict(r) for r in rows]
    exps = []
    while any(a):
        v, bi, bj = min((ops.val(x), i, j) for i, row in enumerate(a)
                        for j, x in row.items())
        tail = a.pop(bi)
        piv = tail.pop(bj)
        for i, row in enumerate(a):
            if bj in row:
                a[i] = ops.eliminate(piv, tail, row.pop(bj), row)
        exps.append(v)
    return exps


class RecordingOps(Eisenstein):
    """Z_(p) = Eisenstein(p, [-p, 1]) that counts val calls and logs the pivot
    and entry of every row update."""

    def __init__(self, p):
        super().__init__(p, [-p, 1])
        self.vals, self.updates = 0, []

    def val(self, x):
        self.vals += 1
        return super().val(x)

    def eliminate(self, piv, tail, x, row):
        self.updates.append((piv, x))
        return super().eliminate(piv, tail, x, row)


def test_pivot_scan_stops_at_the_previous_exponent():
    # mostly units: after the first pivot almost every scan stops at once
    from wittsen.exactalg import local_snf

    rng = random.Random(419)
    rows = zp_rows([[rng.choice([1, 2, 4, 5, 7, 3, 0]) for _ in range(10)]
                    for _ in range(10)])
    early, full = RecordingOps(3), RecordingOps(3)
    assert local_snf(early, rows, 10) == full_scan_snf(full, rows, 10)
    assert early.updates == full.updates
    assert early.vals < full.vals // 4, (early.vals, full.vals)


def test_early_exit_picks_the_full_scan_pivots():
    from wittsen.exactalg import local_snf

    rng = random.Random(421)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        n, m = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = zp_rows([[rng.choice([0, 0, 1, p, p * p, p**3]) * rng.randrange(1, 30)
                         for _ in range(m)] for _ in range(n)])
        early, full = RecordingOps(p), RecordingOps(p)
        assert local_snf(early, rows, m) == full_scan_snf(full, rows, m)
        assert early.updates == full.updates
    for p, E in DVR_RINGS:
        R = Eisenstein(p, E)
        for dense in (0, 1):
            rows, ncols, want = planted_matrix(rng, R, dense)
            assert local_snf(R, rows, ncols) == full_scan_snf(R, rows, ncols) == want


def test_engine_reads_only_nonzero_entries(monkeypatch):
    # the DVR square's matrices are mostly zeros (3,263 of the 3,518 entries
    # eliminated in the first call, where E'(pi) = 1 is a unit and the total
    # square runs to degree 19): the engine tests a product entry for zero
    # about once per row update, and never asks for the valuation of a zero
    calls, zeros_valued = {"is_zero": 0, "val": 0}, []
    real_is_zero, real_val = Eisenstein.is_zero, Eisenstein.val

    def is_zero(self, x):
        calls["is_zero"] += 1
        return real_is_zero(self, x)

    def val(self, x):
        calls["val"] += 1
        if not any(x):
            zeros_valued.append(x)
        return real_val(self, x)

    monkeypatch.setattr(Eisenstein, "is_zero", is_zero)
    monkeypatch.setattr(Eisenstein, "val", val)
    unit = build_dvr_square(3, [6, 1], 19)  # u + 6
    # u^2 + 3u + 6: E'(pi) = 2 pi + 3 is not a unit, so the total square
    # stops at degree 2p - 1 = 5 and nabla alone runs to 19
    ramified = build_dvr_square(3, [6, 3, 1], 19)
    assert calls["is_zero"] < 200 and calls["val"] > 0, calls
    assert not zeros_valued
    assert total_rows(unit, (1, 5, 17)) == {1: (0, []), 5: (0, [1]), 17: (0, [2])}
    assert total_rows(ramified, (1, 3, 5)) == {1: (0, [1]), 3: (0, [1]), 5: (0, [1, 2])}
    assert ramified["nabla"].entry(17)["exponents"] == [1] * 9


def test_double_entry_bookkeeping():
    # free rank + torsion of H_0 = C_0/im(m_1) and H_1 = ker(m_1) match the
    # SNF rank data of m_1 (m_0 is the zero map: ker = everything)
    from wittsen.exactalg import local_snf

    rng = random.Random(101)
    ops = Eisenstein(3, [-3, 1])
    for _ in range(25):
        dim1, dim0 = rng.randrange(1, 5), rng.randrange(1, 5)
        B = zp_rows([[rng.randrange(-9, 10) for _ in range(dim1)] for _ in range(dim0)])
        rep, elim = chain_homology({0: dim0, 1: dim1}, {1: B}, 1, ops)
        exps = local_snf(ops, B, dim1)
        rank, torsion = len(exps), [e for e in exps if e > 0]
        assert elim[1] == (rank, torsion)
        assert (rep.entry(0)["free_rank"], rep.entry(0)["exponents"]) == (dim0 - rank, torsion)
        assert (rep.entry(1)["free_rank"], rep.entry(1)["exponents"]) == (dim1 - rank, [])


def test_two_term_complex_type():
    # the same complex over three local rings: Z_(2), Z_(3), and
    # Z_(3)[u]/(u^2 - 3), where 6 = 2u^2 has valuation 2
    gm = {2: ["a"], 0: ["b"]}
    DZ = GradedLinearMap(gm, 2, {2: zp_rows([[6]])})
    assert entry(two_term_homology(DZ, 10, Eisenstein(2, [-2, 1])), 1)["exponents"] == [1]
    assert entry(two_term_homology(DZ, 10, Eisenstein(3, [-3, 1])), 1)["torsion"] == [3]
    R = Eisenstein(3, [-3, 0, 1])
    DR = GradedLinearMap(gm, 2, {2: sparse([[R.scalar(6)]], R.zero)})
    row = entry(two_term_homology(DR, 10, R), 1)
    assert row["exponents"] == [2] and row["free_rank"] == 0


def counting_local_snf(monkeypatch):
    """Wrap senhom.local_snf; the returned list holds every matrix it is
    given (kept alive, so identities are never reused)."""
    import wittsen.senhom as senhom

    seen = []
    real = senhom.local_snf

    def counting(ops, rows, ncols=None):
        seen.append(rows)
        return real(ops, rows, ncols)

    monkeypatch.setattr(senhom, "local_snf", counting)
    return seen


def test_two_term_eliminates_each_degree_once(monkeypatch):
    seen = counting_local_snf(monkeypatch)
    gm = {2 * k: ["e"] for k in range(8)}
    D = GradedLinearMap(gm, 2, {2 * k: zp_rows([[3 * k]]) for k in range(1, 8)})
    rep = two_term_homology(D, 14, Eisenstein(3, [-3, 1]))
    assert len(seen) == len({id(m) for m in seen}) == 7   # degrees 2, 4, ..., 14
    assert entry(rep, 5)["torsion"] == [9]        # coker of 9 at degree 6
    assert entry(rep, 0)["free_rank"] == 1


def test_cube_eliminates_no_zero_total(monkeypatch):
    # D has no matrix out of degree 4, so the total differential out of
    # degree 4 (M_4 -> M_2) is the zero map and is not built or eliminated
    seen = counting_local_snf(monkeypatch)
    D = GradedLinearMap({4: ["a"], 2: ["b"], 0: ["c"]}, 2, {2: zp_rows([[3]])})
    rep = cube_total_fiber([D], 6, Eisenstein(3, [-3, 1]))
    assert len(seen) == 1
    assert rows(rep) == {0: (1, []), 1: (0, [1]), 3: (1, []), 4: (1, []), 5: (1, [])}


def test_chain_homology_eliminates_no_zero_matrix(monkeypatch):
    # degrees without a differential are the zero map with no rows, so no
    # matrix without a nonzero entry is eliminated for them
    seen = counting_local_snf(monkeypatch)
    zpn = build_zpn_serre(3, 2, 12)
    perf = build_perfectoid_serre(3, 12)
    assert not [m for m in seen if m and not any(m)]
    assert zpn.degrees and perf["homology"].degrees


# ---------------------------------------------------------------------------
# engine oracle: planted homology, Koszul closed forms, square-zero check

def unimodular(rng, n):
    """A random integer matrix of determinant 1 and its inverse, built from
    elementary row operations."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Uinv = [row[:] for row in U]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(-3, 4)
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]        # U <- E U
        for row in Uinv:                                      # Uinv <- Uinv E^-1
            row[j] -= c * row[i]
    return U, Uinv


def planted_complex(rng, ops, lift, pi, top):
    """A chain complex on degrees 0..top with planted homology: free summands
    plus elementary complexes R --unit*pi^e--> R, conjugated in each degree by
    a random unimodular integer matrix. Returns dims, mats and the expected
    homology, degree -> (free rank, exponents) for each nonzero degree."""
    free = {d: rng.randrange(0, 3) for d in range(top + 1)}
    pieces = {d: [rng.randrange(0, 4) for _ in range(rng.randrange(0, 3))]
              for d in range(1, top + 1)}
    pieces[0] = pieces[top + 1] = []
    dims = {d: free[d] + len(pieces[d]) + len(pieces[d + 1]) for d in range(top + 1)}
    # basis of C_d: free summands, sources of pieces d -> d-1, targets of d+1 -> d
    change = {d: unimodular(rng, dims[d]) for d in range(top + 1)}
    mats = {}
    for d in range(1, top + 1):
        if not pieces[d]:
            continue
        m = [[ops.zero] * dims[d] for _ in range(dims[d - 1])]
        for k, e in enumerate(pieces[d]):
            x = lift(rng.choice([1, -1, 7, -11]))     # a unit for p = 2, 3, 5
            for _ in range(e):
                x = ops.mul(x, pi)
            m[free[d - 1] + len(pieces[d - 1]) + k][free[d] + k] = x
        U, _ = change[d - 1]
        _, Vinv = change[d]
        U = sparse([[lift(x) for x in row] for row in U], ops.zero)
        Vinv = sparse([[lift(x) for x in row] for row in Vinv], ops.zero)
        Um = list(matrix_product(ops, U, sparse(m, ops.zero)))
        mats[d] = list(matrix_product(ops, Um, Vinv))
    homology = {}
    for d in range(top + 1):
        torsion = sorted(e for e in pieces[d + 1] if e > 0)
        if free[d] or torsion:
            homology[d] = (free[d], torsion)
    return dims, mats, homology


def engine_rings():
    """(ops, integer lift, uniformizer): Z_(p) as Eisenstein(p, [-p, 1]),
    Z_(3)[u]/(u^2 - 3) and Z_(2)[u]/(u^3 + 2u - 2)."""
    for p, E in ((2, [-2, 1]), (3, [-3, 1]), (5, [-5, 1]), (3, [-3, 0, 1]),
                 (2, [-2, 2, 0, 1])):
        R = Eisenstein(p, E)
        yield R, R.scalar, uniformizer(R)


def test_chain_homology_recovers_planted_homology():
    rng = random.Random(211)
    for ops, lift, pi in engine_rings():
        for _ in range(8):
            dims, mats, want = planted_complex(rng, ops, lift, pi, 4)
            rep, elim = chain_homology(dims, mats, 4, ops)
            assert rows(rep) == want, (ops.p, dims)


def test_chain_homology_eliminates_each_matrix_once(monkeypatch):
    rng = random.Random(223)
    R = Eisenstein(3, [-3, 1])
    dims, mats, want = planted_complex(rng, R, R.scalar, R.scalar(3), 5)
    seen = counting_local_snf(monkeypatch)
    rep, _ = chain_homology(dims, mats, 5, R)
    assert rows(rep) == want
    eliminated = sorted(id(m) for m in seen)
    assert eliminated == sorted(id(m) for d, m in mats.items() if m and dims[d])


def koszul_closed_form(p, scalars):
    """Homology of the Koszul complex of scalars over Z_(p), in the cube's
    degrees -k: with v the least valuation, (R/p^v)^C(n-1, k-1) for
    k = 1..n; all scalars zero give R^C(n, k) for k = 0..n."""
    n = len(scalars)
    vals = [vp(p, int(s)) for s in scalars if s]
    if not vals:
        return {-k: (comb(n, k), []) for k in range(n + 1)}
    v = min(vals)
    return {-k: (0, [v] * comb(n - 1, k - 1)) for k in range(1, n + 1) if v}


def test_cube_scalar_operators_match_koszul_closed_form():
    rng = random.Random(227)
    gm = rank1_module(0)
    for p in (2, 3, 5):
        for _ in range(10):
            n = rng.randrange(1, 4)
            scalars = [rng.choice([0, 1, 2, 3, 4, 6, 9, 12, 25, 27]) * rng.choice([1, -1])
                       for _ in range(n)]
            ops_list = [GradedLinearMap(gm, 0, {0: zp_rows([[c]])}) for c in scalars]
            rep = cube_total_fiber(ops_list, 2, Eisenstein(p, [-p, 1]))
            assert rows(rep) == koszul_closed_form(p, scalars), (p, scalars)


def test_cube_eliminates_each_total_matrix_once(monkeypatch):
    # the Koszul complex of n scalars has n nonzero differentials
    seen = counting_local_snf(monkeypatch)
    gm = rank1_module(0)
    for n in (1, 2, 3):
        del seen[:]
        ops_list = [GradedLinearMap(gm, 0, {0: zp_rows([[3 ** (i + 1)]])})
                    for i in range(n)]
        rep = cube_total_fiber(ops_list, 2, Eisenstein(3, [-3, 1]))
        assert len(seen) == len({id(m) for m in seen}) == n
        assert entry(rep, -n)["exponents"] == [1]


def test_perfectoid_eliminates_each_matrix_once(monkeypatch):
    import wittsen.senhom as senhom

    built = []
    real_theta = senhom.theta_perfectoid

    def capture(*args):
        built.append(real_theta(*args))
        return built[-1]

    monkeypatch.setattr(senhom, "theta_perfectoid", capture)
    seen = counting_local_snf(monkeypatch)
    out = build_perfectoid_serre(3, 12)
    matrices = [id(m) for m in built[0].matrices.values()]
    assert len(seen) == len({id(m) for m in seen})
    assert all(id(m) in matrices for m in seen)
    assert sorted(out["kernel_ranks"]) == [6, 12]
    assert all(out["surjective"].values())


def test_omega2yn_eliminates_each_relation_matrix_once(monkeypatch):
    # degree 2k + 1 carries the k + 1 by k relation matrix, k = 1..bound/2;
    # degree 1 has rank 0, so its matrix has no columns and is not eliminated
    seen = counting_local_snf(monkeypatch)
    for bound in (0, 1, 30, 31):
        del seen[:]
        rep = omega2yn_cohomology(3, 2, bound)
        assert len(seen) == len({id(m) for m in seen})
        assert [len(m) for m in seen] == list(range(2, bound // 2 + 2)), bound
        assert [r["degree"] for r in rep.degrees] == list(range(0, bound + 1, 2))


def test_engine_sees_only_integer_tuples(monkeypatch):
    # one ring: during a default report every matrix local_snf receives, from
    # the builders and from fgl.fderham's lam = 1 gate, holds tuples of ints
    # of its ring's degree, and no Fraction or bare int
    import wittsen.cli as cli
    import wittsen.senhom as senhom
    from wittsen.exactalg import local_snf

    rings, bad = set(), []

    def checking(ops, rows, ncols):
        rings.add((type(ops), getattr(ops, "e", None)))
        bad.extend(x for row in rows for x in row.values()
                   if type(x) is not tuple or len(x) != ops.e
                   or any(type(c) is not int for c in x))
        return local_snf(ops, rows, ncols)

    monkeypatch.setattr(senhom, "local_snf", checking)
    monkeypatch.setattr(cli, "local_snf", checking)
    doc = cli.build_full_report(cli.RunConfig())
    assert not bad, bad[:5]
    assert {t for t, _ in rings} == {Eisenstein} and (Eisenstein, 1) in rings, rings
    assert all(row["status"] == "pass" for row in doc["checks"])


def test_eliminate_entries_stay_small_on_the_zp_builders(monkeypatch):
    # Eisenstein.eliminate scales rows by units; on the Z_(p) builders the
    # largest entry it returns stays under 64 bits (48, 29 and 0 bits here)
    real, largest = Eisenstein.eliminate, []

    def eliminate(self, piv, tail, x, row):
        out = real(self, piv, tail, x, row)
        largest[-1] = max([largest[-1]] + [abs(c).bit_length()
                                           for r in out.values() for c in r])
        return out

    monkeypatch.setattr(Eisenstein, "eliminate", eliminate)
    for build, args in ((omega2yn_cohomology, (3, 3, 50)), (build_zpn_serre, (3, 3, 50)),
                        (build_perfectoid_serre, (5, 120))):
        largest.append(0)
        build(*args)
        assert largest[-1] <= 64, (build.__name__, largest[-1])


def test_chain_homology_requires_square_zero():
    ops = Eisenstein(3, [-3, 1])
    with pytest.raises(IdentityError, match="compose to zero"):
        chain_homology({0: 1, 1: 1, 2: 1}, {1: zp_rows([[1]]), 2: zp_rows([[3]])}, 2, ops)
    # a square-zero pair, then one entry of m_2 perturbed
    dims = {0: 2, 1: 2, 2: 2}
    m1 = zp_rows([[3, 0], [0, 0]])
    m2 = zp_rows([[0, 0], [0, 9]])
    assert rows(chain_homology(dims, {1: m1, 2: m2}, 2, ops)[0]) == {
        0: (1, [1]), 1: (0, [2]), 2: (1, [])}
    m2[0][1] = (1,)
    with pytest.raises(IdentityError, match="compose to zero") as exc:
        chain_homology(dims, {1: m1, 2: m2}, 2, ops)
    assert exc.value.where == {"p": 3, "degree": 2}
