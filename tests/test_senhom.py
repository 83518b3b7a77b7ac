import random
from fractions import Fraction
from math import comb

import pytest

from wittsen.dpops import GradedLinearMap, GradedModule, psi_eigenvalues
from wittsen.exactalg import InvalidInputError, PLocalOps, int_valuation
from wittsen.fgl import f_derham_complex, fgl_construct, q_integer
from wittsen.senhom import (
    DVRDescriptor,
    Eisenstein,
    HomologyReport,
    build_bokstedt,
    build_dvr_square,
    build_perfectoid_serre,
    build_serre_cmn,
    build_zpn_serre,
    cube_total_fiber,
    fderham_cohomology,
    omega2yn_cohomology,
    two_term_homology,
)


def vp(p, m):
    return int_valuation(p, m)


def entry(report, d):
    return report.entry(d)


# ---------------------------------------------------------------------------
# Eisenstein ring

def test_eisenstein_basics():
    R = Eisenstein(3, [-3, 0, 1])  # u^2 - 3
    pi = R.uniformizer()
    assert R.val(pi) == 1
    assert R.val(R.scalar(3)) == 2
    assert R.val(R.scalar(2)) == 0
    x = R.add(R.scalar(2), pi)          # 2 + u
    assert R.mul(x, R.inv(x)) == R.one
    assert R.val(R.mul(pi, pi)) == 2
    # u^2 reduces to 3
    assert R.mul(pi, pi) == R.scalar(3)


def test_eisenstein_rejects_non_eisenstein():
    with pytest.raises(InvalidInputError):
        Eisenstein(3, [-9, 0, 1])   # E(0) = 9 divisible by p^2
    with pytest.raises(InvalidInputError):
        Eisenstein(3, [-3, 0, 2])   # not monic
    with pytest.raises(InvalidInputError):
        Eisenstein(3, [-3, 1, 1])   # middle term not divisible by p


# ---------------------------------------------------------------------------
# two-term fibers

def rank1_module(degree):
    return GradedModule({degree: ["e"]})


def test_two_term_zero_map():
    gm = rank1_module(4)
    D = GradedLinearMap(gm, 2, {})
    rep = two_term_homology(D, 10)
    assert entry(rep, 4) == {"degree": 4, "free_rank": 1, "torsion": []}
    assert entry(rep, 5) == {"degree": 5, "free_rank": 1, "torsion": []}


def test_two_term_multiplication_by_six():
    gm = GradedModule({2: ["a"], 0: ["b"]})
    D = GradedLinearMap(gm, 2, {2: [[6]]})
    rep = two_term_homology(D, 10)
    assert entry(rep, 1)["torsion"] == [6]
    assert entry(rep, 1)["free_rank"] == 0


def test_two_term_diag_2_0():
    gm = GradedModule({2: ["a", "b"], 0: ["c", "d"]})
    D = GradedLinearMap(gm, 2, {2: [[2, 0], [0, 0]]})
    rep = two_term_homology(D, 10)
    assert entry(rep, 2)["free_rank"] == 1          # kernel rank 1
    assert entry(rep, 1)["torsion"] == [2]          # coker Z/2 + Z
    assert entry(rep, 1)["free_rank"] == 1


# ---------------------------------------------------------------------------
# cube total fibers

def test_cube_zero_operators_binomial_pattern():
    for n in (1, 2, 3):
        gm = rank1_module(6)
        ops_list = [GradedLinearMap(gm, 0, {}) for _ in range(n)]
        rep = cube_total_fiber(ops_list, 10, p=3)
        for k in range(n + 1):
            assert entry(rep, 6 - k)["free_rank"] == comb(n, k)
        chi = sum(
            (-1) ** (6 - row["degree"]) * row["free_rank"] for row in rep.degrees
        )
        assert chi == 0 if n >= 1 else 1


def test_cube_single_operator_matches_two_term():
    gm = GradedModule({4: ["a"], 2: ["b"], 0: ["c"]})
    D = GradedLinearMap(gm, 2, {4: [[2]], 2: [[3]]})
    rep_cube = cube_total_fiber([D], 8, p=2)
    rep_two = two_term_homology(D, 8, p=2)
    for d in range(0, 8):
        assert entry(rep_cube, d)["free_rank"] == entry(rep_two, d)["free_rank"]
        assert entry(rep_cube, d)["torsion"] == entry(rep_two, d)["torsion"]


def test_cube_scalar_operators_order_permutation_invariant():
    rng = random.Random(83)
    for p in (2, 3):
        for _ in range(6):
            m = rng.randrange(1, 30)
            scalars = psi_eigenvalues(p, 3, m)
            gm = rank1_module(0)
            ops_list = [
                GradedLinearMap(gm, 0, {0: [[Fraction(s)]]}) for s in scalars
            ]
            rep1 = cube_total_fiber(ops_list, 2, p=p)
            rep2 = cube_total_fiber(list(reversed(ops_list)), 2, p=p)
            assert [
                (r["degree"], r["free_rank"], r["torsion"]) for r in rep1.degrees
            ] == [
                (r["degree"], r["free_rank"], r["torsion"]) for r in rep2.degrees
            ]


def test_cube_commutation_required():
    gm = GradedModule({0: ["a", "b"]})
    M1 = GradedLinearMap(gm, 0, {0: [[0, 1], [0, 0]]})
    M2 = GradedLinearMap(gm, 0, {0: [[0, 0], [1, 0]]})
    with pytest.raises(InvalidInputError):
        cube_total_fiber([M1, M2], 2, p=2)


# ---------------------------------------------------------------------------
# named builders

def test_bokstedt_t1():
    for p in (2, 3):
        rep = build_bokstedt(p, "T1", 2 * p * 10)
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
    rep = build_bokstedt(3, "T1", 40)
    assert entry(rep, 5)["torsion"] == [3]
    assert entry(rep, 17)["torsion"] == [9]


def test_bokstedt_jp():
    rep = build_bokstedt(3, "Jp", 30)
    assert entry(rep, 0)["free_rank"] == 1
    assert entry(rep, 5)["torsion"] == [3]      # j = 3
    assert entry(rep, 3) == {"degree": 3, "free_rank": 0, "torsion": []}  # j = 2
    for j in range(1, 15):
        row = entry(rep, 2 * j - 1)
        expected = [] if vp(3, j) == 0 else [3 ** vp(3, j)]
        assert row["torsion"] == expected


def test_serre_cmn_patterns():
    rep = build_serre_cmn(2, 1, 24)
    assert entry(rep, 3)["torsion"] == [2]
    assert entry(rep, 7)["torsion"] == [4]
    assert entry(rep, 11)["torsion"] == [2]
    rep32 = build_serre_cmn(3, 2, 40)
    assert entry(rep32, 17)["torsion"] == [3]
    for row in rep32.degrees:
        if row["degree"] > 0 and row["degree"] % 2 == 0:
            assert row["free_rank"] == 0 and not row["torsion"]


def test_serre_cmn_general_formula():
    for p, n in ((2, 1), (2, 2), (3, 1)):
        bound = 2 * p**n * 8
        rep = build_serre_cmn(p, n, bound)
        assert entry(rep, 0)["free_rank"] == 1
        for k in range(1, 8):
            d = 2 * k * p**n - 1
            assert entry(rep, d)["torsion"] == [p ** (vp(p, p * k))], (p, n, k)


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


def test_dvr_unramified_matches_bokstedt_jp():
    desc = DVRDescriptor(3, 12, [-3, 1])  # u - 3
    out = build_dvr_square(desc, 19)
    assert out["Eprime_valuation"] == 0
    assert out["consistent"]
    jp = build_bokstedt(3, "Jp", 19)
    for j in range(1, 10):
        d = 2 * j - 1
        row = out["total"].entry(d)
        assert row["engine_agrees"]
        assert row["torsion"] == entry(jp, d)["torsion"], d
        eng = out["engine_total"].entry(d)
        assert eng["torsion"] == row["torsion"]


def test_dvr_nabla_pattern():
    desc = DVRDescriptor(3, 12, [-3, 0, 1])  # u^2 - 3, E' = 2u: valuation 1
    out = build_dvr_square(desc, 13)
    nab = out["nabla"]
    for j in range(1, 7):
        d = 2 * j - 1
        row = entry(nab, d)
        assert row["exponents"] == [1] * j, d     # (R/pi)^j
        assert row["free_rank"] == 0
    for k in range(0, 7):
        assert entry(nab, 2 * k)["free_rank"] == 1


def test_dvr_ramified_total():
    desc = DVRDescriptor(3, 12, [-3, 0, 1])  # u^2 - 3
    out = build_dvr_square(desc, 13)
    assert out["consistent"]
    total = out["total"]
    # degree 1: R/E' = R/pi, order 3
    assert total.entry(1)["r_divisors"] == [1]
    assert total.entry(1)["torsion"] == [3]
    # degree 3: R/2E' = R/pi
    assert total.entry(3)["r_divisors"] == [1]
    # degree 2p-1 = 5: R/3E' = R/pi^3, order 27 = |R/p| * |R/E'|
    row5 = total.entry(5)
    assert row5["r_divisors"] == [3]
    assert row5["torsion"] == [27]
    assert row5["extension_order_check"]
    assert row5["order_check"]
    # the strict engine splits there; the order agrees, the gluing does not
    assert sum(out["engine_total"].entry(5)["exponents"]) == 3
    assert not row5["engine_agrees"]


def test_dvr_cubic_total():
    desc = DVRDescriptor(3, 12, [-3, 0, 0, 1])  # u^3 - 3, E' = 3u^2: val 5
    out = build_dvr_square(desc, 9)
    assert out["Eprime_valuation"] == 5
    assert out["consistent"]
    total = out["total"]
    # degree 2j-1 has order exponent v(j) * e + v(E')
    R = desc.ring()
    for j in range(1, 5):
        kj = R.val(R.scalar(j)) + 5
        assert total.entry(2 * j - 1)["r_divisors"] == [kj], j


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
    ring = cx.weights[1].ring
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
    rep = fderham_cohomology(cx)
    for m in range(1, 5):
        assert rep["weights"][m]["equals_q_integer"]


def test_fderham_h_bound_is_honoured_or_rejected():
    cx = f_derham_complex(fgl_construct("additive", 8), 3, 6)
    rep = fderham_cohomology(cx, h_bound=4)
    assert rep["h_bound"] == 4
    assert rep["weights"][2]["divisors"] == [2] * 4
    for bad in (0, -1):
        with pytest.raises(InvalidInputError):
            fderham_cohomology(cx, h_bound=bad)


# ---------------------------------------------------------------------------
# engine cross-checks

def test_local_snf_matches_integer_snf_p_parts():
    # dual route: uniformizer exponents from the local engine must be the
    # p-valuations of the integer elementary divisors
    from wittsen.exactalg import IntMatrix, smith_normal_form, local_snf, int_valuation
    from fractions import Fraction

    rng = random.Random(97)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(-20, 21) for _ in range(m)] for _ in range(n)]
        dec = smith_normal_form(IntMatrix.from_rows(rows))
        expected = sorted(
            int_valuation(p, d) for d in dec.divisors if d != 0
        )
        exps, rank, _ = local_snf(
            PLocalOps(p), [[Fraction(x) for x in r] for r in rows], m
        )
        assert rank == sum(1 for d in dec.divisors if d != 0)
        assert sorted(exps) == expected


def test_double_entry_bookkeeping():
    # free rank + torsion length of ker(A)/im(B) matches the SNF rank data
    from wittsen.senhom import homology_of_pair

    rng = random.Random(101)
    ops = PLocalOps(3)
    from fractions import Fraction
    for _ in range(25):
        dim1, dim0 = rng.randrange(1, 5), rng.randrange(1, 5)
        B = [[Fraction(rng.randrange(-9, 10)) for _ in range(dim1)]
             for _ in range(dim0)]
        A = [[Fraction(0)] * dim0]  # zero map out: ker = everything
        free, torsion = homology_of_pair(ops, A, dim0, B, dim1)
        from wittsen.exactalg import local_snf
        exps, rank, _ = local_snf(ops, B, dim1)
        assert free == dim0 - rank
        assert len(torsion) == sum(1 for e in exps if e > 0)


def test_two_term_complex_type():
    gm = GradedModule({2: ["a"], 0: ["b"]})
    D = GradedLinearMap(gm, 2, {2: [[6]]})
    rep = two_term_homology(D, 10)
    assert entry(rep, 1)["torsion"] == [6]
    rep_p = two_term_homology(D, 10, p=3)
    assert entry(rep_p, 1)["torsion"] == [3]


def test_two_term_eliminates_each_degree_once(monkeypatch):
    import wittsen.senhom as senhom

    seen = []
    real = senhom.local_snf

    def counting(ops, rows, ncols=None):
        seen.append(id(rows))
        return real(ops, rows, ncols)

    monkeypatch.setattr(senhom, "local_snf", counting)
    gm = GradedModule({2 * k: ["e"] for k in range(8)})
    D = GradedLinearMap(gm, 2, {2 * k: [[Fraction(3 * k)]] for k in range(1, 8)})
    rep = two_term_homology(D, 14, p=3)
    assert len(seen) == len(set(seen)) == 7       # degrees 2, 4, ..., 14
    assert entry(rep, 5)["torsion"] == [9]        # coker of 9 at degree 6
    assert entry(rep, 0)["free_rank"] == 1


def test_chain_homology_eliminates_no_zero_matrix(monkeypatch):
    # degrees without a differential are the zero map with no rows; the
    # parent eliminated a zero-filled matrix for each of them
    import wittsen.senhom as senhom

    zero_filled = []
    real = senhom.local_snf

    def watching(ops, rows, ncols=None):
        if rows and all(ops.is_zero(x) for row in rows for x in row):
            zero_filled.append((len(rows), ncols))
        return real(ops, rows, ncols)

    monkeypatch.setattr(senhom, "local_snf", watching)
    zpn = build_zpn_serre(3, 2, 12)
    perf = build_perfectoid_serre(3, 12)
    assert zero_filled == []
    assert zpn.degrees and perf["homology"].degrees
