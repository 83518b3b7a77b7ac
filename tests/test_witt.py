import random
from fractions import Fraction

import pytest

from wittsen.exactalg import Hurwitz, InvalidInputError, PolyRing, PrecisionError, TruncPoly
from wittsen.witt import (
    NotAWittVectorError,
    WittContext,
    WittVector,
    _ghost_entries,
    _ghost_inverse_components,
    cartier_character,
    check_gabber_identity,
    check_pn_vanishing,
    dwork_factorization,
    frobenius,
    frobenius_of_p_identity,
    gabber_y,
    ghost_map,
    int_to_witt,
    solve_frobenius,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_sub,
)


def rand_vector(rng, ctx, lo=-9, hi=9):
    return WittVector(ctx, [rng.randrange(lo, hi + 1) for _ in range(ctx.length)])


# ---------------------------------------------------------------------------
# structure polynomials: an oracle for the ghost-transport ring operations


def _exact_div(poly, d):
    """Divide every (integer) coefficient by d, which must divide it."""
    out = {}
    for mono, c in poly.terms.items():
        q, r = divmod(c, d)
        if r:
            raise ArithmeticError(f"{d} does not divide the coefficient {c}")
        out[mono] = q
    return TruncPoly(poly.ring, out)


def witt_structure_polynomials(p, L):
    """Universal sum/product polynomials S_0..S_(L-1), P_0..P_(L-1) over Z in
    X0..X(L-1), Y0..Y(L-1), from the ghost recursion; each division is exact."""
    ring = PolyRing(vars=tuple(f"X{i}" for i in range(L)) + tuple(f"Y{i}" for i in range(L)))
    X = [TruncPoly.var(ring, f"X{i}") for i in range(L)]
    Y = [TruncPoly.var(ring, f"Y{i}") for i in range(L)]
    S, P = [], []
    for n in range(L):
        acc = TruncPoly.zero(ring)
        for i in range(n):
            acc = acc + (X[i] ** (p ** (n - i)) + Y[i] ** (p ** (n - i))
                         - S[i] ** (p ** (n - i))) * p**i
        S.append(X[n] + Y[n] + _exact_div(acc, p**n))
        gx = gy = TruncPoly.zero(ring)
        for i in range(n + 1):
            gx = gx + X[i] ** (p ** (n - i)) * p**i
            gy = gy + Y[i] ** (p ** (n - i)) * p**i
        prod = gx * gy
        for i in range(n):
            prod = prod - P[i] ** (p ** (n - i)) * p**i
        P.append(_exact_div(prod, p**n))
    return tuple(S), tuple(P)


def test_structure_polys_degree_zero():
    S, P = witt_structure_polynomials(2, 1)
    assert S[0].terms == {(1, 0): 1, (0, 1): 1}
    assert P[0].terms == {(1, 1): 1}


def test_structure_polys_S1():
    # ghost-recursion oracle: (X0+Y0)^p + p*S1 = X0^p + p*X1 + Y0^p + p*Y1
    S2, _ = witt_structure_polynomials(2, 2)
    assert S2[1].coeff((0, 1, 0, 0)) == 1      # X1
    assert S2[1].coeff((0, 0, 0, 1)) == 1      # Y1
    assert S2[1].coeff((1, 0, 1, 0)) == -1     # -X0*Y0
    assert len(S2[1].terms) == 3
    S3, _ = witt_structure_polynomials(3, 2)
    assert S3[1].coeff((2, 0, 1, 0)) == -1     # -X0^2*Y0
    assert S3[1].coeff((1, 0, 2, 0)) == -1     # -X0*Y0^2
    assert S3[1].coeff((0, 1, 0, 0)) == 1
    assert S3[1].coeff((0, 0, 0, 1)) == 1
    assert len(S3[1].terms) == 4


def test_structure_polys_ghost_equivariant():
    for p, L in ((2, 3), (3, 2)):
        S, P = witt_structure_polynomials(p, L)
        ring = S[0].ring
        X = [TruncPoly.var(ring, f"X{i}") for i in range(L)]
        Y = [TruncPoly.var(ring, f"Y{i}") for i in range(L)]
        wX, wY = _ghost_entries(p, X), _ghost_entries(p, Y)
        assert _ghost_entries(p, list(S)) == [x + y for x, y in zip(wX, wY)]
        assert _ghost_entries(p, list(P)) == [x * y for x, y in zip(wX, wY)]


@pytest.mark.parametrize("p, L", [(2, 3), (3, 2), (5, 2)])
def test_ring_operations_match_structure_polynomials(p, L):
    # witt_add and witt_mul transport through the ghost map (over Z/p^N, of
    # an integral lift); the oracle evaluates S_n and P_n on the components
    S, P = witt_structure_polynomials(p, L)
    rng = random.Random(1000 * p + L)
    for modulus in (0, p**4):
        ctx = WittContext(p, L, modulus)
        for _ in range(10):
            xs = [rng.randrange(-30, 31) for _ in range(L)]
            ys = [rng.randrange(-30, 31) for _ in range(L)]
            point = {**{f"X{i}": v for i, v in enumerate(xs)},
                     **{f"Y{i}": v for i, v in enumerate(ys)}}
            x, y = WittVector(ctx, xs), WittVector(ctx, ys)
            for op, polys in ((witt_add, S), (witt_mul, P)):
                want = WittVector(ctx, [f.substitute(point).constant_term() for f in polys])
                assert op(x, y) == want, (op.__name__, modulus, xs, ys)


# ---------------------------------------------------------------------------
# ghost map / inverse

def test_ghost_of_teichmuller():
    ctx = WittContext(3, 4)
    assert ghost_map(teichmuller(5, ctx)) == (5, 5**3, 5**9, 5**27)


def test_ghost_of_integer_two():
    # ghost recursion oracle: 2 = 4 + 2*x1 -> x1 = -1; 2 = 16 + 2 + 4*x2 -> x2 = -4
    ctx = WittContext(2, 3)
    x = int_to_witt(2, ctx)
    assert x.components == (2, -1, -4)
    assert ghost_map(x) == (2, 2, 2)


def test_ghost_of_verschiebung():
    ctx = WittContext(3, 2)
    y = gabber_y(3, 2)
    gv = ghost_map(verschiebung(y))
    assert gv[0] == 0
    assert gv[1] == 3 * (-8)


def test_ghost_inverse_examples():
    x = _ghost_inverse_components(3, [-8, -6560])
    assert x == [-8, -2016]       # -512 + 3*(-2016) = -6560
    assert _ghost_inverse_components(5, [7, 7**5, 7**25]) == [7, 0, 0]
    with pytest.raises(NotAWittVectorError) as e:
        _ghost_inverse_components(2, [1, 0])
    assert e.value.index == 1


# ---------------------------------------------------------------------------
# ring structure

def test_unit_laws():
    rng = random.Random(23)
    for p in (2, 3):
        ctx = WittContext(p, 3)
        x = rand_vector(rng, ctx)
        assert witt_add(x, WittVector(ctx, [0] * ctx.length)) == x
        assert witt_mul(x, teichmuller(1, ctx)) == x


def test_add_one_plus_one():
    ctx = WittContext(2, 2)
    one = teichmuller(1, ctx)
    assert witt_add(one, one).components == (2, -1)


def test_int_to_witt_values():
    assert int_to_witt(1, WittContext(5, 3)).components == (1, 0, 0)
    assert int_to_witt(2, WittContext(2, 3)).components == (2, -1, -4)
    assert int_to_witt(3, WittContext(2, 3)).components == (3, -3, -24)


def test_ghost_equivariance_random():
    rng = random.Random(31)
    for p in (2, 3, 5):
        for L in (2, 3, 5):
            ctx = WittContext(p, L)
            x, y = rand_vector(rng, ctx), rand_vector(rng, ctx)
            gx, gy = ghost_map(x), ghost_map(y)
            assert ghost_map(witt_add(x, y)) == tuple(a + b for a, b in zip(gx, gy))
            assert ghost_map(witt_mul(x, y)) == tuple(a * b for a, b in zip(gx, gy))
            assert ghost_map(witt_sub(x, y)) == tuple(a - b for a, b in zip(gx, gy))


def test_mod_pN_reduction_compatibility():
    rng = random.Random(37)
    for p, N in ((2, 5), (3, 4)):
        ctxZ = WittContext(p, 4)
        ctxM = WittContext(p, 4, p**N)
        for _ in range(20):
            x, y = rand_vector(rng, ctxZ, -50, 50), rand_vector(rng, ctxZ, -50, 50)
            xm = WittVector(ctxM, x.components)
            ym = WittVector(ctxM, y.components)
            for op in (witt_add, witt_mul):
                over_z = op(x, y)
                assert WittVector(ctxM, over_z.components) == op(xm, ym)


@pytest.mark.parametrize("other", [WittContext(3, 3), WittContext(2, 2), WittContext(2, 3, 2**4)],
                         ids=["p", "length", "modulus"])
def test_ring_operations_reject_mismatched_contexts(other):
    x = int_to_witt(5, WittContext(2, 3))
    y = int_to_witt(5, other)
    for op in (witt_add, witt_sub, witt_mul):
        with pytest.raises(InvalidInputError, match="context mismatch"):
            op(x, y)
        with pytest.raises(InvalidInputError, match="context mismatch"):
            op(y, x)


def test_witt_vector_takes_any_iterable_of_the_context_length():
    ctx = WittContext(3, 3, 3**2)
    x = WittVector(ctx, [1, 10, -1])
    assert x.components == (1, 1, 8)  # a tuple, reduced mod 9
    assert x == WittVector(ctx, (c for c in (1, 10, -1)))
    for comps in ([1, 2], [1, 2, 3, 4], ()):
        with pytest.raises(InvalidInputError, match="context length"):
            WittVector(ctx, comps)


def test_teichmuller_multiplicative():
    ctx = WittContext(3, 4)
    assert witt_mul(teichmuller(4, ctx), teichmuller(7, ctx)) == teichmuller(28, ctx)


# ---------------------------------------------------------------------------
# V, F

def test_v_f_basics():
    ctx = WittContext(3, 3)
    assert verschiebung(WittVector(ctx, [0] * 3)) == WittVector(ctx.resized(4), [0] * 4)
    assert frobenius(teichmuller(2, ctx)) == teichmuller(2**3, ctx.resized(2))


def test_fv_is_p():
    rng = random.Random(41)
    for p in (2, 3):
        for L in (2, 3, 4):
            ctx = WittContext(p, L)
            x = rand_vector(rng, ctx)
            assert frobenius(verschiebung(x)) == witt_mul(int_to_witt(p, ctx), x)


def test_v_additive_f_multiplicative():
    rng = random.Random(43)
    for p in (2, 3):
        ctx = WittContext(p, 4)
        x, y = rand_vector(rng, ctx), rand_vector(rng, ctx)
        assert verschiebung(witt_add(x, y)) == witt_add(verschiebung(x), verschiebung(y))
        assert frobenius(witt_mul(x, y)) == witt_mul(frobenius(x), frobenius(y))
        assert frobenius(witt_add(x, y)) == witt_add(frobenius(x), frobenius(y))


def test_projection_formula():
    # x * V(y) = V(F(x) * y)
    rng = random.Random(47)
    for p in (2, 3):
        ctx_big = WittContext(p, 4)
        ctx_small = ctx_big.resized(3)
        x = rand_vector(rng, ctx_big)
        y = rand_vector(rng, ctx_small)
        lhs = witt_mul(x, verschiebung(y))
        rhs = verschiebung(witt_mul(frobenius(x), y))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Gabber suite

def test_gabber_y_values():
    assert gabber_y(3, 2).components == (-8, -2016)
    assert gabber_y(2, 1).components == (-1,)


def test_gabber_identity():
    for p in (2, 3, 5):
        rep = check_gabber_identity(p, 6)
        assert rep["holds"]


def test_pn_vanishing():
    rep = check_pn_vanishing(3, 3, 5)
    assert rep["holds"]
    for p in (2, 3):
        for n in (2, 3, 4):
            assert check_pn_vanishing(p, n, 6)["holds"]


def test_frobenius_of_p_identity():
    rep2 = frobenius_of_p_identity(2, 4)
    assert rep2["holds_p_to_p"] and rep2["holds_p_squared"]
    rep3 = frobenius_of_p_identity(3, 4)
    assert rep3["holds_p_to_p"] and not rep3["holds_p_squared"]
    assert rep3["frobenius_fixes_integers"]


# ---------------------------------------------------------------------------
# solve_frobenius

def test_solve_frobenius_gabber_odd():
    for p in (3, 5):
        res = solve_frobenius(gabber_y(p, 6))
        assert res.success
        assert res.side_conditions["x0_mod_p"] == 1
        assert res.side_conditions["higher_components_div_p"]
        assert res.side_conditions["ghost_all_one_mod_p"]


def test_solve_frobenius_gabber_two_fails():
    res = solve_frobenius(gabber_y(2, 6))
    assert not res.success
    assert res.stage == 2
    assert res.witness["lhs_coefficient"] == 4
    assert res.witness["modulus"] == 8
    assert res.witness["rhs_balanced"] == -2


def test_solve_frobenius_gabber_two_times_teichmuller():
    for m in (2, 3):
        ctx = WittContext(2, 6)
        y = witt_mul(gabber_y(2, 6), teichmuller(2**m, ctx))
        res = solve_frobenius(y)
        assert res.success
        assert res.side_conditions["all_components_div_p"]


def test_solve_frobenius_random_solvable():
    rng = random.Random(59)
    for p in (2, 3):
        for _ in range(10):
            ctx = WittContext(p, 4)
            x = rand_vector(rng, ctx)
            y = frobenius(x)
            res = solve_frobenius(y)
            assert res.success
            # F(x') = y verified on ghosts at the guard precision
            gx = _ghost_entries(p, res.x_digits, p**res.precision)
            gy = _ghost_entries(p, list(y.components), p**res.precision)
            for n in range(1, y.ctx.length + 1):
                assert (gx[n] - gy[n - 1]) % p**2 == 0


def test_solve_frobenius_precision_guard():
    ctx = WittContext(3, 4, 3**2)
    with pytest.raises(PrecisionError):
        solve_frobenius(WittVector(ctx, (1, 2, 3, 4)))


# ---------------------------------------------------------------------------
# Cartier character

def valid_ghost_tuple(rng, p, n, spread=20):
    """Sample (a_0..a_{n-1}) with a_{m} = a_{m+1} mod p^(m+1), a_{n-1} = 0 mod p^n."""
    a = [0] * n
    a[n - 1] = p**n * rng.randrange(-spread, spread + 1)
    for m in range(n - 2, -1, -1):
        a[m] = a[m + 1] + p ** (m + 1) * rng.randrange(-spread, spread + 1)
    return a


def test_cartier_basis_pattern():
    rep = cartier_character(2, [1, 0], [3, 5], 8, xprime_scalars=[1, -2])
    assert rep["log_identity"]
    rep0 = cartier_character(2, [0, 0], [3, 5], 8, xprime_scalars=[1, -2])
    assert rep0["log_identity"] and rep0["f_p_integral"]


def test_cartier_integrality_for_valid_tuples():
    rng = random.Random(61)
    for p in (2, 3):
        for _ in range(10):
            a = valid_ghost_tuple(rng, p, 2)
            rep = cartier_character(p, a, [1, 1], 8, xprime_scalars=[2, -1])
            assert rep["f_p_integral"], (p, a, rep["first_violation"])


def test_cartier_integrality_violation():
    # exp(t) has coefficient 1/2 at t^2: not 2-integral
    rep = cartier_character(2, [1, 0], [1, 0], 8, xprime_scalars=[0, 1])
    assert not rep["f_p_integral"]
    assert rep["first_violation"] == {"monomial": "t^2", "coefficient": "1/2"}


def test_cartier_additivity():
    rng = random.Random(67)
    for p in (2, 3):
        for _ in range(8):
            a = valid_ghost_tuple(rng, p, 2)
            x = [rng.randrange(-4, 5) for _ in range(2)]
            xp = [rng.randrange(-4, 5) for _ in range(2)]
            rep = cartier_character(p, a, x, 8, xprime_scalars=xp)
            assert rep["additivity"] and rep["log_identity"]


def test_cartier_zero_and_negative_scalars():
    # x = 0 evaluates every factor at 0 * t, which keeps only the constant 1
    for p, a in ((2, [2, 4]), (3, [12, 9])):
        for x, xp in (([0, 0], [0, 0]), ([-4, 0], [0, -3])):
            rep = cartier_character(p, a, x, 8, xprime_scalars=xp)
            assert rep["f_p_integral"] and rep["log_identity"] and rep["additivity"], (p, x, xp)


def test_cartier_second_vector_needs_as_many_components():
    # a shorter x' once read additivity False, a longer one dropped its tail
    for xp in ([1], [1, 2, 5]):
        with pytest.raises(InvalidInputError, match="components"):
            cartier_character(2, [2, 4], [1, 3], 8, xprime_scalars=xp)


def test_cartier_needs_a_component():
    # an empty vector once ended in a bare IndexError at the first factor
    with pytest.raises(InvalidInputError, match="at least one component"):
        cartier_character(2, [1], [], 8, xprime_scalars=[])


def test_cartier_builds_each_artin_hasse_factor_once(monkeypatch):
    # F^j(f) = exp(sum_m a_(m+j) t^(p^m)/p^m), once per level j, not 2n + 1
    # times; t^(p^m)/p^m has Hurwitz coefficient (p^m - 1)! at t^(p^m)
    args = []
    real = Hurwitz.exp

    def counting(self):
        args.append(self.b)
        return real(self)

    monkeypatch.setattr(Hurwitz, "exp", counting)
    rep = cartier_character(2, [1, 3, 0], [1, 2, 1], 8, xprime_scalars=[2, 0, 1])
    assert rep["additivity"] and rep["log_identity"]
    assert args == [[0, 1, 3, 0, 0, 0, 0, 0, 0],
                    [0, 3, 0, 0, 0, 0, 0, 0, 0],
                    [0] * 9]


def test_cartier_refuses_a_nonzero_entry_past_the_components():
    # a_2 = 5 was once dropped, giving the answer for [1, 0]
    with pytest.raises(InvalidInputError, match="a_m at m >= len\\(x_scalars\\) = 2"):
        cartier_character(2, [1, 0, 5], [3, 5], 8, xprime_scalars=[1, -2])
    assert (cartier_character(2, [1, 0, 0], [3, 5], 8, xprime_scalars=[1, -2])
            == cartier_character(2, [1, 0], [3, 5], 8, xprime_scalars=[1, -2]))


def test_cartier_refuses_a_negative_degree_bound():
    # it once raised "log needs constant term 1"
    with pytest.raises(InvalidInputError, match="degree_bound must be >= 0, got -1"):
        cartier_character(2, [1, 0], [3, 5], -1, xprime_scalars=[1, -2])


def test_cartier_refuses_rational_entries():
    # the Hurwitz series divide exactly only over Z; these were once accepted,
    # and the float x'_1 = 2.0 read additivity False
    for a, x, xp in (([Fraction(1, 3), 0], [1, 1], [1, 1]),
                     ([1, 0], [Fraction(1, 2), 1], [1, 1]),
                     ([1, 0], [1, 1], [1, 2.0])):
        with pytest.raises(InvalidInputError, match="take integers"):
            cartier_character(2, a, x, 8, xprime_scalars=xp)


def reference_cartier(p, a, x_scalars, D, xprime_scalars):
    """The report dict of cartier_character computed over Q[t] with
    TruncPoly: Fraction exp, a log by n g_n = n f_n - sum k g_k f_(n-k), the
    ghost map and its inverse written out here, and each factor at a
    non-linear argument by substitution. An oracle for the Hurwitz series."""
    n = len(x_scalars)
    a = list(a) + [0] * (n - len(a))
    ring = PolyRing(vars=("t",), bounds=(D,))
    t = TruncPoly.var(ring, "t")

    def log(f):
        fs = [f.coeff((k,)) for k in range(D + 1)]
        g = [0] * (D + 1)
        for m in range(1, D + 1):
            g[m] = fs[m] - sum(Fraction(k * g[k] * fs[m - k], m) for k in range(1, m))
        return TruncPoly(ring, {(k,): c for k, c in enumerate(g)})

    def ghost(comps):
        return [sum((comps[i] ** (p ** (j - i)) * p**i for i in range(j + 1)),
                    TruncPoly.zero(ring)) for j in range(len(comps))]

    def ghost_inverse(entries):
        comps = []
        for j, g in enumerate(entries):
            acc = g - sum((comps[i] ** (p ** (j - i)) * p**i for i in range(j)),
                          TruncPoly.zero(ring))
            comps.append(acc * Fraction(1, p**j))
        return comps

    factors = [TruncPoly(ring, {(p**m,): Fraction(a[m + j], p**m) for m in range(n - j)})
               .series_exp() for j in range(n)]
    first_bad = next(({"monomial": f"t^{mono[0]}", "coefficient": str(c)}
                      for mono, c in sorted(factors[0].terms.items())
                      if isinstance(c, Fraction) and c.denominator % p == 0), None)

    def g_of(args):
        out = TruncPoly.const(ring, 1)
        for factor, arg in zip(factors, args):
            out = out * factor.substitute({"t": arg})
        return out

    xt = [t * c for c in x_scalars]
    gx = g_of(xt)
    ghost_x = ghost(xt)
    expected_log = sum((w * Fraction(a[m], p**m) for m, w in enumerate(ghost_x)),
                       TruncPoly.zero(ring))
    xpt = [t * c for c in xprime_scalars]
    sums = ghost_inverse([w + w2 for w, w2 in zip(ghost_x, ghost(xpt))])
    return {
        "p": p,
        "n": n,
        "degree_bound": D,
        "f_p_integral": first_bad is None,
        "first_violation": first_bad,
        "log_identity": log(gx) == expected_log,
        "additivity": g_of(sums) == gx * g_of(xpt),
    }


def test_cartier_matches_the_fraction_reference():
    rng = random.Random(71)
    outcomes = set()
    for draw in range(240):
        p, n, D = rng.choice((2, 3, 5)), rng.choice((1, 2, 3)), rng.randrange(0, 13)
        if draw % 2:
            a = valid_ghost_tuple(rng, p, n)
        else:
            a = [rng.randrange(-30, 31) for _ in range(n)]
        x = [rng.randrange(-4, 5) for _ in range(n)]
        xp = [rng.randrange(-4, 5) for _ in range(n)]
        rep = cartier_character(p, a, x, D, xprime_scalars=xp)
        assert rep == reference_cartier(p, a, x, D, xp), (p, a, x, xp, D)
        outcomes.add(rep["f_p_integral"])
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Dwork factorization

def test_dwork_all_minus_one():
    rep = dwork_factorization([-1] * 8, 8)
    assert rep["r"] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert rep["reconstructs"]


def test_dwork_zero():
    rep = dwork_factorization([0] * 8, 8)
    assert rep["r"] == [0] * 8
    assert rep["reconstructs"]


def test_dwork_two_geometric():
    # x_n = -2 - 2^n gives f = (1-t)^2 (1-2t): r = (4, -5, -18, ...) by the
    # divisor-sum recursion; the round-trip is the real check.
    xs = [-2 - 2**n for n in range(1, 9)]
    rep = dwork_factorization(xs, 8)
    assert rep["reconstructs"]
    assert rep["r"][:2] == [4, -5]


def test_dwork_precondition_failure():
    with pytest.raises(InvalidInputError) as e:
        dwork_factorization([1, 2, 3, 4], 4)
    assert "(2, 2)" in str(e.value)
