import random
from fractions import Fraction
from math import comb, factorial, gcd
from itertools import combinations, product

import pytest

from conftest import zp_rows
from wittsen.exactalg import (
    Hurwitz,
    IntMatrix,
    InvalidInputError,
    PolyRing,
    TruncPoly,
    factorial_valuation,
    int_valuation,
    local_snf,
    smith_normal_form,
)
from wittsen.senhom import Eisenstein


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
    ops = Eisenstein(3, [-3, 1])
    rows = zp_rows([[6, 9], [27, 3]])
    exps = local_snf(ops, rows, 2)
    # v_3-divisors of [[6,9],[27,3]]: det = 18-243 = -225, v=2; min v entry = 1
    assert exps == [1, 1]
    # the input rows are not changed
    assert rows == [{0: (6,), 1: (9,)}, {0: (27,), 1: (3,)}]
    for bad in ({0: (6,), 2: (9,)}, {-1: (27,)}):
        with pytest.raises(InvalidInputError, match=r"range\(2\)"):
            local_snf(ops, [{0: (3,)}, bad], 2)


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
            exps = local_snf(Eisenstein(p, [-p, 1]), zp_rows(rows), len(rows[0]))
            assert len(exps) == sum(1 for d in want if d), (p, rows)
            assert exps == sorted(int_valuation(p, d) for d in want if d), (p, rows)


# ---------------------------------------------------------------------------
# truncated polynomials

def test_exp_log_roundtrip():
    # integer Hurwitz series: b_k = k! c_k for the series sum c_k t^k
    f = Hurwitz([1, 1] + [0] * 7)  # 1 + t
    assert f.log().exp() == f
    assert f.log().b == [0, 1, -1, 2, -6, 24, -120, 720, -5040]  # (-1)^(k-1) (k-1)!
    rng = random.Random(47)
    for D in range(0, 13):
        u = Hurwitz([0] + [rng.randrange(-9, 10) for _ in range(D)])
        assert u.exp().log() == u
        # the same exp as TruncPoly's Fraction recurrence
        ring = PolyRing(vars=("t",), bounds=(D,))
        series = TruncPoly(ring, {(k,): Fraction(c, factorial(k)) for k, c in enumerate(u.b)})
        assert [Fraction(c, factorial(k)) for k, c in enumerate(u.exp().b)] == [
            series.series_exp().coeff((k,)) for k in range(D + 1)]


def test_hurwitz_product_is_the_series_product():
    # the binomial convolution of b_k = k! c_k against TruncPoly's Fraction product
    rng = random.Random(48)
    for D in range(0, 13):
        ring = PolyRing(vars=("t",), bounds=(D,))
        f, g = ([rng.randrange(-9, 10) for _ in range(D + 1)] for _ in range(2))
        fq, gq = (TruncPoly(ring, {(k,): Fraction(c, factorial(k)) for k, c in enumerate(h)})
                  for h in (f, g))
        assert [Fraction(c, factorial(k)) for k, c in enumerate((Hurwitz(f) * Hurwitz(g)).b)] == [
            (fq * gq).coeff((k,)) for k in range(D + 1)]
        assert (Hurwitz(f) * 3).b == [3 * c for c in f]


def test_exp_of_minus_sum_tn_over_n():
    ring = PolyRing(vars=("t",), bounds=(10,))
    t = TruncPoly.var(ring, "t")
    s = TruncPoly.zero(ring)
    for n in range(1, 11):
        s = s + (t**n).map_coeffs(lambda c, n=n: Fraction(-c, n))
    assert s.series_exp() == 1 - t


def test_exp_example_frozen():
    # term-by-term oracle: exp(t+t^2) = 1 + (t+t^2) + (t+t^2)^2/2 + (t+t^2)^3/6 + ...
    ring = PolyRing(vars=("t",), bounds=(3,))
    t = TruncPoly.var(ring, "t")
    f = (t + t**2).series_exp()
    assert f.coeff((0,)) == 1
    assert f.coeff((1,)) == 1
    assert f.coeff((2,)) == Fraction(3, 2)
    assert f.coeff((3,)) == Fraction(7, 6)


def test_exp_log_preconditions():
    ring = PolyRing(vars=("t",), bounds=(4,))
    t = TruncPoly.var(ring, "t")
    with pytest.raises(InvalidInputError):
        (1 + t).series_exp()
    with pytest.raises(InvalidInputError, match="exp needs constant term 0"):
        Hurwitz([1, 1, 0]).exp()
    for b in ([0, 1, 0], [2, 1, 0]):
        with pytest.raises(InvalidInputError, match="log needs constant term 1"):
            Hurwitz(b).log()


def test_series_refuse_a_term_of_weight_zero():
    # such a term never truncates, so the power sum would not end
    t = TruncPoly.var(PolyRing(vars=("t",)), "t")
    ring = PolyRing(vars=("x", "v"), bounds=(8, None))
    x, v = TruncPoly.var(ring, "x"), TruncPoly.var(ring, "v")
    for series in (t.series_exp, (x + v).series_exp):
        with pytest.raises(InvalidInputError, match="weight 0"):
            series()


def test_series_take_a_one_variable_ring():
    # the recurrence reads one coefficient list; no caller has a second variable
    ring = PolyRing(vars=("x", "y"), total_bound=6)
    g = TruncPoly.var(ring, "x") + TruncPoly.var(ring, "y")
    with pytest.raises(InvalidInputError, match="one-variable"):
        g.series_exp()


def within(ring, mono):
    """The truncation read straight from the ring's bounds: an oracle for
    ``ring.weight(mono) <= ring.cap``."""
    if any(b is not None and e > b for e, b in zip(mono, ring.bounds)):
        return False
    counted = sum(e for e, c in zip(mono, ring.counted) if c)
    return ring.total_bound is None or counted <= ring.total_bound


def weight_of(ring, mono):
    """The weight read straight from the ring's bounds and counted flags: an
    oracle for each branch of PolyRing.weight."""
    capped = [e for e, b in zip(mono, ring.bounds) if b is not None]
    if capped:
        return capped[0]
    if ring.total_bound is None:
        return 0
    return sum(e for e, c in zip(mono, ring.counted) if c)


@pytest.mark.parametrize("ring", [
    PolyRing(vars=("l1", "v1", "t1"), degrees=(2, 2, 2)),
    PolyRing(vars=("x", "v"), bounds=(6, None)),
    PolyRing(vars=("v", "x", "w"), bounds=(None, 6, None)),
    PolyRing(vars=("X", "Y", "v"), total_bound=6, counted=(True, True, False)),
    PolyRing(vars=("x", "v"), bounds=(6, None), modulus=3),
    PolyRing(vars=("x", "y", "v"), total_bound=6, counted=(True, False, False)),
    PolyRing(vars=("x", "y"), total_bound=6, modulus=5),
], ids=["no-cap", "first-capped", "second-capped", "total-uncounted", "modulus",
        "one-counted", "total-modulus"])
def test_mul_matches_naive_product(ring):
    # oracle: expand every pair of terms, then drop what the bounds exclude
    rng = random.Random(29)
    n = len(ring.vars)

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(1, 9)):
            m = tuple(rng.randrange(0, 7) for _ in range(n))
            assert ring.weight(m) == weight_of(ring, m)
            c = rng.randrange(-9, 10)
            terms[m] = rng.choice((c, Fraction(c, rng.choice((2, 4)))))
        return TruncPoly(ring, terms)

    pairs = on_cap = 0
    for _ in range(60):
        a, b = rand_poly(), rand_poly()
        out = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                pairs += 1
                m = tuple(x + y for x, y in zip(m1, m2))
                assert ring.weight(m) == weight_of(ring, m)
                assert (ring.weight(m) <= ring.cap) == within(ring, m)
                if within(ring, m):
                    out[m] = out.get(m, 0) + c1 * c2
                    on_cap += ring.cap > 0 and ring.weight(m) == ring.cap
        assert a * b == TruncPoly(ring, out)
    # the cut must keep products that land exactly on the cap
    assert pairs and (on_cap or ring.cap == 0)


@pytest.mark.parametrize("bounds, total_bound", [((5, 4), None), ((6, None), 8)],
                         ids=["two-caps", "cap-and-total"])
def test_ring_takes_one_cap(bounds, total_bound):
    with pytest.raises(InvalidInputError):
        PolyRing(vars=("x", "y"), bounds=bounds, total_bound=total_bound)


def test_constructor_and_scalar_contract():
    ring = PolyRing(vars=("x",), bounds=(4,))
    x = TruncPoly.var(ring, "x")
    # an integral Fraction is stored as an int, and zero coefficients are dropped
    terms = TruncPoly(ring, {(1,): Fraction(4, 2), (2,): 0, (3,): Fraction(0, 5)}).terms
    assert terms == {(1,): 2} and type(terms[(1,)]) is int
    assert (x - x).is_zero() and (x * 0).is_zero()
    # a modulus ring reduces plain and negative ints, and inverts denominators
    mod = PolyRing(vars=("x",), bounds=(4,), modulus=7)
    assert TruncPoly(mod, {(0,): 10, (1,): -3, (2,): 14, (3,): Fraction(1, 2)}).terms == \
        {(0,): 3, (1,): 4, (3,): 4}
    assert (TruncPoly.var(mod, "x") * -10).terms == {(1,): 4}
    # int, Fraction and bool operands act as scalars on either side
    for s in (3, -2, Fraction(1, 2), True):
        assert x + s == s + x == TruncPoly(ring, {(1,): 1, (0,): s})
        assert x - s == TruncPoly(ring, {(1,): 1, (0,): -s})
        assert s - x == TruncPoly(ring, {(1,): -1, (0,): s})
        assert x * s == s * x == TruncPoly(ring, {(1,): s})
        assert TruncPoly.const(ring, s) == s and x != s


def test_truncpoly_mul_assoc_comm():
    rng = random.Random(17)
    ring = PolyRing(vars=("x", "y"), total_bound=8)

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
    ring = PolyRing(vars=("t",), bounds=(3,))
    t = TruncPoly.var(ring, "t")
    assert (t**2 * t**2).is_zero()
    assert (t * t**3).is_zero()


def test_series_inverse():
    # the one series inverse left, 1/[p]_q = D/p^s in Q[u]/u^K: D*[p]_q = p^s
    # by the kernel's multiply, on integers, and s is the exponent the
    # recurrence starts from, 1 + floor((K-1)/(p-1)), which is attained
    from wittsen.dpops import DeltaRingContext

    for p in (2, 3, 5, 7):
        for K in (1, 2, 6, 18):
            ctx = DeltaRingContext(p, K)
            D, s = ctx.d_inv
            assert s == 1 + (K - 1) // (p - 1)
            assert all(type(c) is int for c in D.terms.values())
            d = TruncPoly(ctx.ring, {(k,): comb(p, k + 1) for k in range(p)})
            assert D * d == TruncPoly.const(ctx.ring, p**s)


def test_substitution():
    ring = PolyRing(vars=("x", "y"))
    x, y = TruncPoly.var(ring, "x"), TruncPoly.var(ring, "y")
    f = x**2 + y
    tring = PolyRing(vars=("t",), bounds=(6,))
    t = TruncPoly.var(tring, "t")
    g = f.substitute({"x": t + 1, "y": 2 * t})
    assert g == t**2 + 4 * t + 1


def test_equality_reads_only_scalars_as_constants():
    # == and != themselves are under test, so no `is None` here
    ring = PolyRing(vars=("x",))
    zero, x = TruncPoly.zero(ring), TruncPoly.var(ring, "x")
    assert not zero == None and zero != None
    assert not zero == "x" and not x == "x" and x != "x"
    assert zero == 0 and zero == False and zero == Fraction(0)
    assert TruncPoly.const(ring, 1) == True and TruncPoly.const(ring, 3) == Fraction(6, 2)
    assert x != 1 and x != Fraction(1, 2)


def test_modular_ring():
    ring = PolyRing(vars=("v",), modulus=2)
    v = TruncPoly.var(ring, "v")
    assert (v + v).is_zero()
    assert (1 + v) ** 2 == 1 + v**2


def test_modular_ring_refuses_a_denominator_sharing_a_factor_with_the_modulus():
    # 4 does not divide the denominator 2, yet 2 has no inverse mod 4
    ring = PolyRing(vars=("x",), modulus=4)
    with pytest.raises(InvalidInputError, match="not invertible"):
        ring.reduce_coeff(Fraction(1, 2))
    assert ring.reduce_coeff(Fraction(1, 3)) == 3


def test_series_kernel_against_sympy():
    # independent oracle: sympy's ring_series exp, log, inversion and
    # reversion on seeded random univariate series with rational coefficients
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.rings import ring as sympy_ring
    from sympy.polys.ring_series import (
        rs_exp, rs_log, rs_series_inversion, rs_series_reversion)
    from wittsen.dpops import DeltaRingContext
    from wittsen.fgl import _compositional_inverse

    rng = random.Random(43)
    R, s, y = sympy_ring("s,y", QQ)

    def coeffs(series, var, N):
        return [series.coeff(var**k) if k else series.coeff(1) for k in range(N + 1)]

    def lengths(lo, hi):
        # the seeded draws, then lengths on each side of the Newton
        # precisions 2, 3, 5, 9, 17, 33, from a generator of their own
        for _ in range(12):
            yield rng.randrange(lo, hi), rng
        edges = random.Random(44)
        for N in (1, 2, 3, 7, 8, 9, 16, 17, 31, 32, 33):
            yield N, edges

    for N, draw in lengths(2, 9):
        ring = PolyRing(vars=("t",), bounds=(N,))
        c = [Fraction(draw.randrange(-9, 10), draw.randrange(1, 6)) for _ in range(N + 1)]
        c[1] = c[1] or Fraction(1)

        def both(c0, c1):
            cs = [c0, c1] + c[2:]
            ours = TruncPoly(ring, {(k,): x for k, x in enumerate(cs)})
            theirs = sum((QQ(x.numerator, x.denominator) * s**k
                          for k, x in enumerate(cs)), R(0))
            return ours, theirs

        def assert_same(ours, theirs, var=s):
            want = coeffs(theirs, var, N)
            assert [ours.coeff((k,)) for k in range(N + 1)] == [
                Fraction(int(w.numerator), int(w.denominator)) for w in want]

        f, g = both(0, c[1])
        assert_same(f.series_exp(), rs_exp(g, s, N + 1))
        # log on the integer Hurwitz series with b_0 = 1 and b_k the
        # numerators of the draw, against rs_log of sum b_k s^k / k!
        b = [1] + [x.numerator for x in c[1:]]
        theirs = sum((QQ(x, factorial(k)) * s**k for k, x in enumerate(b)), R(0))
        assert [Fraction(x, factorial(k)) for k, x in enumerate(Hurwitz(b).log().b)] == [
            Fraction(int(w.numerator), int(w.denominator))
            for w in coeffs(rs_log(theirs, s, N + 1), s, N)]
        # the integer inverse of [p]_q = sum_k C(p, k+1) s^k, as D/p^s
        pp = (2, 3, 5, 7)[N % 4]
        D, e = DeltaRingContext(pp, N + 1).d_inv
        assert_same(D.map_coeffs(lambda x: Fraction(x, pp**e)), rs_series_inversion(
            sum((comb(pp, k + 1) * s**k for k in range(pp)), R(0)), s, N + 1))
        f, g = both(0, Fraction(1))
        assert_same(_compositional_inverse(f, "t", N, TruncPoly.var(f.ring, "t")),
                    rs_series_reversion(g, s, N + 1, y), y)

    # x + integer terms, the shape of the Honda logarithm over Z[w]: Newton's
    # ring operations keep the reversion's coefficients ints
    for N, draw in lengths(2, 11):
        c = [0, 1] + [draw.randrange(-9, 10) for _ in range(N - 1)]
        f = TruncPoly(PolyRing(vars=("t",), bounds=(N,)), {(k,): x for k, x in enumerate(c)})
        g = sum((x * s**k for k, x in enumerate(c)), R(0))
        rev = _compositional_inverse(f, "t", N, TruncPoly.var(f.ring, "t"))
        assert all(type(x) is int for x in rev.terms.values())
        assert_same(rev, rs_series_reversion(g, s, N + 1, y), y)


def naive_substitute(f, assignment):
    """Term-by-term expansion with no truncation until the end: each monomial
    becomes c * prod(value^e), multiplied out factor by factor."""
    ring = next((v.ring for v in assignment.values() if isinstance(v, TruncPoly)), f.ring)
    n = len(ring.vars)

    def mul(a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return out

    out = {}
    for mono, c in f.terms.items():
        term = {(0,) * n: c}
        for name, e in zip(f.ring.vars, mono):
            if name in assignment:
                val = assignment[name]
                factor = val.terms if isinstance(val, TruncPoly) else {(0,) * n: val}
            else:
                unit = [0] * n
                unit[ring.index(name)] = 1
                factor = {tuple(unit): 1}
            for _ in range(e):
                term = mul(term, factor)
        for m, a in term.items():
            out[m] = out.get(m, 0) + a
    return TruncPoly(ring, out)


def test_substitute_matches_naive_expansion():
    rng = random.Random(59)

    def rand_poly(ring, nterms, top):
        k = len(ring.vars)
        return TruncPoly(ring, {tuple(rng.randrange(0, top + 1) for _ in range(k)):
                                Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                                for _ in range(nterms)})

    src = PolyRing(vars=("x", "y", "v"))
    # kept variable v, and result rings with a capped variable and with a
    # total bound that does not count v
    target = PolyRing(vars=("s", "v"), bounds=(7, None))
    graded = PolyRing(vars=("X", "Y", "v"), total_bound=6, counted=(True, True, False))
    X, Y = TruncPoly.var(graded, "X"), TruncPoly.var(graded, "Y")
    # a power table cut short: (X*Y + X^2)^4 has degree 8 > 6
    assert ((X * Y + X**2) ** 4).is_zero()
    for _ in range(25):
        f = rand_poly(src, rng.randrange(1, 7), 5)
        cases = [
            {"x": rand_poly(target, 3, 2), "y": rand_poly(target, 2, 2)},
            {"x": rand_poly(target, 3, 2), "y": Fraction(rng.randrange(-4, 5), 3)},
            # z is not a source variable
            {"x": rand_poly(target, 2, 1), "y": 0, "z": rand_poly(target, 2, 1)},
            {"x": X * Y + X**2, "y": X + rand_poly(graded, 2, 1)},
            {"x": X * Y + X**2, "y": 2, "v": Y},
        ]
        for assignment in cases:
            assert f.substitute(assignment) == naive_substitute(f, assignment), assignment
    # sparse exponents, whose powers come by squaring: x^(3^i) and y^(2^i)
    # and their products, into rings where a power truncates to zero
    # partway through the chain: s + s^2 v cut at s^20 keeps its 13th power
    # but not the square of that, and (X + Y)^8 is the square of the last
    # nonzero power (X + Y)^4 in degree 6
    capped = PolyRing(vars=("s", "v"), bounds=(20, None))
    s, v = TruncPoly.var(capped, "s"), TruncPoly.var(capped, "v")
    for _ in range(8):
        f = TruncPoly(src, {(rng.choice((0, 1, 3, 9, 27)), rng.choice((0, 1, 2, 4, 8)),
                             rng.randrange(0, 2)): rng.randrange(-5, 6) for _ in range(6)})
        cases = [
            {"x": rand_poly(capped, 3, 1), "y": rand_poly(capped, 2, 1)},
            {"x": s + s**2 * v, "y": 1 + rand_poly(capped, 2, 2)},
            {"x": X * Y + X**2, "y": X + Y},
            {"x": rand_poly(graded, 2, 1), "y": X + Y, "v": Y},
        ]
        for assignment in cases:
            assert f.substitute(assignment) == naive_substitute(f, assignment), assignment


def test_pow_squares_only_while_bits_remain(monkeypatch):
    # f ** e by binary powering: at most bit_length(e) - 1 squarings and
    # popcount(e) multiplies, and no product above degree e * deg f (a square
    # after the top bit would be discarded, and in an uncapped ring it is the
    # largest product of the chain)
    ring = PolyRing(vars=("x", "y"))
    x, y = TruncPoly.var(ring, "x"), TruncPoly.var(ring, "y")
    f = 1 + 2 * x - x * y
    powers = [TruncPoly.const(ring, 1)]
    for _ in range(40):
        powers.append(powers[-1] * f)
    degrees = []
    real_mul = TruncPoly.__mul__

    def recording_mul(self, other):
        out = real_mul(self, other)
        degrees.append(max(map(sum, out.terms), default=0))
        return out
    monkeypatch.setattr(TruncPoly, "__mul__", recording_mul)
    for e in range(41):
        degrees.clear()
        assert f**e == powers[e], e
        assert len(degrees) <= max(e.bit_length() - 1, 0) + bin(e).count("1"), e
        assert max(degrees, default=0) <= 2 * e, e


def test_substitute_builds_only_the_powers_it_uses(monkeypatch):
    # x^(3^i) up to 27: 2 products for the cube (the square kept as x^2),
    # 3 for x^9 (x^4 from x^3, x^8 its square) and 5 for x^27 (x^6, x^12,
    # x^13, x^26, x^27), against 26 for every power up to x^27
    ring = PolyRing(vars=("x",))
    x = TruncPoly.var(ring, "x")
    f = x + x**3 + x**9 + x**27
    t = TruncPoly.var(PolyRing(vars=("t",)), "t")
    products = []
    mul = TruncPoly.__mul__
    monkeypatch.setattr(TruncPoly, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    assert f.substitute({"x": 1 + t}) == naive_substitute(f, {"x": 1 + t})
    assert len(products) == 10


def test_substitute_builds_powers_without_pow(monkeypatch):
    ring = PolyRing(vars=("x", "y", "v"))
    x, y, v = (TruncPoly.var(ring, n) for n in ("x", "y", "v"))
    f = x**5 * v**2 + 3 * x**2 * y**3 - y + 7
    tring = PolyRing(vars=("t", "v"), bounds=(9, None))
    t = TruncPoly.var(tring, "t")
    want = naive_substitute(f, {"x": 1 + t, "y": 2 * t})

    def no_pow(self, e):
        raise AssertionError("substitute must build its powers by products")
    monkeypatch.setattr(TruncPoly, "__pow__", no_pow)
    assert f.substitute({"x": 1 + t, "y": 2 * t}) == want
