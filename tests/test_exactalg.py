import random
from fractions import Fraction
from math import gcd
from itertools import combinations, product

import pytest

from wittsen.exactalg import (
    IntMatrix,
    InvalidInputError,
    PolyRing,
    TruncPoly,
    factorial_valuation,
    int_valuation,
    local_snf,
    PLocalOps,
    smith_normal_form,
    truncated_exp_log,
    univariate_ring,
)


# ---------------------------------------------------------------------------
# oracles

def digit_sum_valuation(p, k):
    """Independent Legendre oracle: sum of floor(k/p^i)."""
    total, q = 0, p
    while q <= k:
        total += k // q
        q *= p
    return total


def minor_gcd_divisors(rows):
    """Divisors via gcds of k x k minors (elimination-free oracle)."""
    n, m = len(rows), len(rows[0])
    r = min(n, m)
    gcds = []
    for k in range(1, r + 1):
        g = 0
        for ri in combinations(range(n), k):
            for ci in combinations(range(m), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, _det(sub))
        gcds.append(abs(g))
    divisors = []
    prev = 1
    for g in gcds:
        if g == 0:
            divisors.append(0)
        else:
            divisors.append(g // prev)
            prev = g
    return divisors


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(sub)
    return total


def brute_force_coker_size(rows, bound=10**4):
    """Count cosets of the column lattice in Z^2 by explicit enumeration."""
    assert len(rows) == 2 and len(rows[0]) == 2
    d = abs(_det(rows))
    assert d != 0 and d * d <= bound * bound
    cols = [(rows[0][j], rows[1][j]) for j in range(2)]

    def in_lattice(x, y):
        det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
        s = x * cols[1][1] - y * cols[1][0]
        t = -x * cols[0][1] + y * cols[0][0]
        return s % det == 0 and t % det == 0

    # representatives inside Z^2 / d*Z^2 (the lattice contains d*Z^2)
    count = 0
    seen = set()
    for x, y in product(range(d), repeat=2):
        if (x, y) in seen:
            continue
        count += 1
        for a, b in product(range(d), repeat=2):
            dx = (x + a * cols[0][0] + b * cols[1][0]) % d
            dy = (y + a * cols[0][1] + b * cols[1][1]) % d
            seen.add((dx, dy))
    return count


# ---------------------------------------------------------------------------
# factorial valuation

def test_factorial_valuation_examples():
    assert factorial_valuation(2, 4) == 3
    assert factorial_valuation(3, 1) == 0
    # digit-sum oracle fixes the value; it also equals (3-1)+(9-1)
    assert digit_sum_valuation(3, 26) == 10
    assert factorial_valuation(3, 26) == 10
    assert factorial_valuation(3, 26) == (3 - 1) + (9 - 1)


def test_factorial_valuation_prime_power_identity():
    for p in (2, 3, 5):
        for j in range(7):
            assert factorial_valuation(p, p**j) == (p**j - 1) // (p - 1)


def test_factorial_valuation_matches_oracle():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice([2, 3, 5, 7])
        k = rng.randrange(0, 500)
        assert factorial_valuation(p, k) == digit_sum_valuation(p, k)


def test_factorial_valuation_rejects_composite():
    with pytest.raises(InvalidInputError):
        factorial_valuation(4, 10)


# ---------------------------------------------------------------------------
# rationals

def test_rational_scalar_contract():
    # rationals are Fractions: always fully reduced, denominator positive
    rng = random.Random(13)
    for _ in range(100):
        a = rng.randrange(-10**6, 10**6)
        b = rng.randrange(1, 10**6) * rng.choice([1, -1])
        x = Fraction(a, b)
        assert x.denominator > 0
        assert gcd(x.numerator, x.denominator) == 1
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)


# ---------------------------------------------------------------------------
# Smith normal form

def test_smith_examples():
    assert smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).divisors == [1, 6]
    assert smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]])).divisors == [0, 0]
    A = [[2, 4], [6, 8]]
    assert minor_gcd_divisors(A) == [2, 4]
    assert smith_normal_form(IntMatrix.from_rows(A)).divisors == [2, 4]


def test_smith_transform_identities():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        A = IntMatrix.from_rows(
            [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
        )
        divs = smith_normal_form(A).divisors
        for a, b in zip(divs, divs[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        assert [abs(d) for d in divs] == minor_gcd_divisors(A.entries)


def test_smith_coker_against_enumeration():
    rng = random.Random(5)
    found = 0
    while found < 12:
        A = [[rng.randrange(-6, 7) for _ in range(2)] for _ in range(2)]
        d = _det(A)
        if d == 0 or abs(d) > 40:
            continue
        found += 1
        divisors = smith_normal_form(IntMatrix.from_rows(A)).divisors
        size = 1
        for x in divisors:
            size *= abs(x)
        assert size == brute_force_coker_size(A)


def test_local_snf_exponents():
    ops = PLocalOps(3)
    rows = [[Fraction(6), Fraction(9)], [Fraction(27), Fraction(3)]]
    exps, rank, _ = local_snf(ops, rows)
    # v_3-divisors of [[6,9],[27,3]]: det = 18-243 = -225, v=2; min v entry = 1
    assert rank == 2
    assert exps == [1, 1]


def test_snf_against_sympy_invariant_factors():
    # independent oracle: sympy's invariant factors fix the Z-SNF divisors,
    # and their p-valuations fix the local exponents and rank
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(29)
    scales = [1, 2, 3, 4, 5, 8, 9, 25, 27]
    shapes = [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (3, 3), (4, 4), (5, 3)]
    cases = [[[0] * m for _ in range(n)] for n, m in shapes]
    for n, m in shapes:
        for _ in range(6):
            rows = [[rng.randrange(-9, 10) * rng.choice(scales) for _ in range(m)]
                    for _ in range(n)]
            cases.append(rows)
            if n >= 3:  # rank-deficient: the last row combines the first two
                a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
                cases.append(rows[:-1] + [[a * x + b * y for x, y in zip(rows[0], rows[1])]])
    for rows in cases:
        want = [abs(int(d)) for d in
                invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]
        got = smith_normal_form(IntMatrix.from_rows(rows)).divisors
        assert [abs(d) for d in got] == want, rows
        for p in (2, 3, 5):
            exps, rank, _ = local_snf(PLocalOps(p), rows, len(rows[0]))
            assert rank == sum(1 for d in want if d), (p, rows)
            assert exps == sorted(int_valuation(p, d) for d in want if d), (p, rows)


# ---------------------------------------------------------------------------
# truncated polynomials

def test_exp_log_roundtrip():
    ring = univariate_ring("t", 8)
    t = TruncPoly.var(ring, "t")
    f = 1 + t
    assert truncated_exp_log(truncated_exp_log(f, "log"), "exp") == f


def test_exp_of_minus_sum_tn_over_n():
    ring = univariate_ring("t", 10)
    t = TruncPoly.var(ring, "t")
    s = TruncPoly.zero(ring)
    for n in range(1, 11):
        s = s + (t**n).map_coeffs(lambda c, n=n: Fraction(-c, n))
    assert truncated_exp_log(s, "exp") == 1 - t


def test_exp_example_frozen():
    # term-by-term oracle: exp(t+t^2) = 1 + (t+t^2) + (t+t^2)^2/2 + (t+t^2)^3/6 + ...
    ring = univariate_ring("t", 3)
    t = TruncPoly.var(ring, "t")
    f = truncated_exp_log(t + t**2, "exp")
    assert f.coeff((0,)) == 1
    assert f.coeff((1,)) == 1
    assert f.coeff((2,)) == Fraction(3, 2)
    assert f.coeff((3,)) == Fraction(7, 6)


def test_exp_log_preconditions():
    ring = univariate_ring("t", 4)
    t = TruncPoly.var(ring, "t")
    with pytest.raises(InvalidInputError):
        truncated_exp_log(1 + t, "exp")
    with pytest.raises(InvalidInputError):
        truncated_exp_log(t, "log")


def test_truncpoly_mul_assoc_comm():
    rng = random.Random(17)
    ring = PolyRing(vars=("x", "y"), bounds=(6, 6), total_bound=8)

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            m = (rng.randrange(0, 4), rng.randrange(0, 4))
            terms[m] = rng.randrange(-5, 6)
        return TruncPoly(ring, terms)

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_truncation_drops_terms():
    ring = univariate_ring("t", 3)
    t = TruncPoly.var(ring, "t")
    assert (t**2 * t**2).is_zero()
    assert (t * t**3).is_zero()


def test_series_inverse():
    ring = univariate_ring("h", 6)
    h = TruncPoly.var(ring, "h")
    f = 3 + h + 2 * h**2
    g = f.series_inverse()
    assert f * g == TruncPoly.const(ring, 1)


def test_substitution():
    ring = PolyRing(vars=("x", "y"))
    x, y = TruncPoly.var(ring, "x"), TruncPoly.var(ring, "y")
    f = x**2 + y
    tring = univariate_ring("t", 6)
    t = TruncPoly.var(tring, "t")
    g = f.substitute({"x": t + 1, "y": 2 * t})
    assert g == t**2 + 4 * t + 1


def test_modular_ring():
    ring = PolyRing(vars=("v",), modulus=2)
    v = TruncPoly.var(ring, "v")
    assert (v + v).is_zero()
    assert (1 + v) ** 2 == 1 + v**2
