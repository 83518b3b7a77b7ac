import random
from fractions import Fraction

import pytest

from wittsen.exactalg import InvalidInputError, PrecisionError, TruncPoly, univariate_ring
from wittsen.witt import (
    GhostVector,
    IntegralityViolationError,
    NotAWittVectorError,
    WittContext,
    cartier_character,
    check_gabber_identity,
    check_pn_vanishing,
    delta,
    dwork_factorization,
    frobenius,
    frobenius_of_p_identity,
    gabber_y,
    ghost_inverse,
    ghost_map,
    ghost_polynomial,
    int_to_witt,
    make_witt,
    solve_frobenius,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_scalar,
    witt_structure_polynomials,
    witt_sub,
    witt_zero,
)


def rand_vector(rng, ctx, lo=-9, hi=9):
    return make_witt(ctx, [rng.randrange(lo, hi + 1) for _ in range(ctx.length)])


# ---------------------------------------------------------------------------
# structure polynomials

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
        for j in range(L):
            wS = ghost_polynomial(p, j, list(S))
            assert wS == ghost_polynomial(p, j, X) + ghost_polynomial(p, j, Y)
            wP = ghost_polynomial(p, j, list(P))
            assert wP == ghost_polynomial(p, j, X) * ghost_polynomial(p, j, Y)


# ---------------------------------------------------------------------------
# ghost map / inverse

def test_ghost_of_teichmuller():
    ctx = WittContext(3, 4)
    g = ghost_map(teichmuller(5, ctx))
    assert g.entries == (5, 5**3, 5**9, 5**27)


def test_ghost_of_integer_two():
    # ghost recursion oracle: 2 = 4 + 2*x1 -> x1 = -1; 2 = 16 + 2 + 4*x2 -> x2 = -4
    ctx = WittContext(2, 3)
    x = int_to_witt(2, ctx)
    assert x.components == (2, -1, -4)
    assert ghost_map(x).entries == (2, 2, 2)


def test_ghost_of_verschiebung():
    ctx = WittContext(3, 2)
    y = gabber_y(3, 2)
    gv = ghost_map(verschiebung(y))
    assert gv.entries[0] == 0
    assert gv.entries[1] == 3 * (-8)


def test_ghost_inverse_examples():
    ctx = WittContext(3, 2)
    x = ghost_inverse(GhostVector(ctx, (-8, -6560)))
    assert x.components == (-8, -2016)       # -512 + 3*(-2016) = -6560
    t = ghost_inverse(GhostVector(WittContext(5, 3), (7, 7**5, 7**25)))
    assert t.components == (7, 0, 0)
    with pytest.raises(NotAWittVectorError) as e:
        ghost_inverse(GhostVector(WittContext(2, 2), (1, 0)))
    assert e.value.index == 1


# ---------------------------------------------------------------------------
# ring structure

def test_unit_laws():
    rng = random.Random(23)
    for p in (2, 3):
        ctx = WittContext(p, 3)
        x = rand_vector(rng, ctx)
        assert witt_add(x, witt_zero(ctx)) == x
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
            gx, gy = ghost_map(x).entries, ghost_map(y).entries
            assert ghost_map(witt_add(x, y)).entries == tuple(a + b for a, b in zip(gx, gy))
            assert ghost_map(witt_mul(x, y)).entries == tuple(a * b for a, b in zip(gx, gy))
            assert ghost_map(witt_sub(x, y)).entries == tuple(a - b for a, b in zip(gx, gy))


def test_mod_pN_reduction_compatibility():
    rng = random.Random(37)
    for p, N in ((2, 5), (3, 4)):
        ctxZ = WittContext(p, 4)
        ctxM = WittContext(p, 4, p**N)
        for _ in range(20):
            x, y = rand_vector(rng, ctxZ, -50, 50), rand_vector(rng, ctxZ, -50, 50)
            xm = make_witt(ctxM, x.components)
            ym = make_witt(ctxM, y.components)
            for op in (witt_add, witt_mul):
                over_z = op(x, y)
                assert make_witt(ctxM, over_z.components) == op(xm, ym)


def test_teichmuller_multiplicative():
    ctx = WittContext(3, 4)
    assert witt_mul(teichmuller(4, ctx), teichmuller(7, ctx)) == teichmuller(28, ctx)


# ---------------------------------------------------------------------------
# V, F, delta

def test_v_f_basics():
    ctx = WittContext(3, 3)
    assert verschiebung(witt_zero(ctx)) == witt_zero(ctx.resized(4))
    assert frobenius(teichmuller(2, ctx)) == teichmuller(2**3, ctx.resized(2))


def test_fv_is_p():
    rng = random.Random(41)
    for p in (2, 3):
        for L in (2, 3, 4):
            ctx = WittContext(p, L)
            x = rand_vector(rng, ctx)
            assert frobenius(verschiebung(x)) == witt_scalar(p, x)


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


def test_delta():
    ctx = WittContext(2, 2)
    assert delta(teichmuller(7, ctx)) == witt_zero(ctx.resized(1))
    assert delta(int_to_witt(2, ctx)).components == (-1,)
    rng = random.Random(53)
    for p in (2, 3):
        ctx = WittContext(p, 4)
        x = rand_vector(rng, ctx)
        # phi(x) = x^p + p*delta(x) in W_{L-1}
        fx = frobenius(x)
        xp = x
        for _ in range(p - 1):
            xp = witt_mul(xp, x)
        xp_small = make_witt(ctx.resized(3), xp.components[:3])
        assert fx == witt_add(xp_small, witt_scalar(p, delta(x)))


def test_delta_requires_torsion_free():
    ctx = WittContext(2, 2, 4)
    with pytest.raises(InvalidInputError):
        delta(make_witt(ctx, (1, 1)))


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
            from wittsen.witt import _ghost_entries
            gx = _ghost_entries(p, res.x_digits, p**res.precision)
            gy = _ghost_entries(p, list(y.components), p**res.precision)
            for n in range(1, y.ctx.length + 1):
                assert (gx[n] - gy[n - 1]) % p**2 == 0


def test_solve_frobenius_precision_guard():
    ctx = WittContext(3, 4, 3**2)
    with pytest.raises(PrecisionError):
        solve_frobenius(make_witt(ctx, (1, 2, 3, 4)))


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
    rep = cartier_character(2, [1, 0], [3, 5], 8)
    assert rep["log_identity"]
    rep0 = cartier_character(2, [0, 0], [3, 5], 8)
    assert rep0["log_identity"] and rep0["f_p_integral"]


def test_cartier_integrality_for_valid_tuples():
    rng = random.Random(61)
    for p in (2, 3):
        for _ in range(10):
            a = valid_ghost_tuple(rng, p, 2)
            rep = cartier_character(p, a, [1, 1], 8)
            assert rep["f_p_integral"], (p, a, rep["first_violation"])


def test_cartier_integrality_violation():
    # exp(t) has coefficient 1/2 at t^2: not 2-integral
    with pytest.raises(IntegralityViolationError):
        cartier_character(2, [1, 0], [1, 0], 8, require_integral=True)


def test_cartier_additivity():
    rng = random.Random(67)
    for p in (2, 3):
        for _ in range(8):
            a = valid_ghost_tuple(rng, p, 2)
            x = [rng.randrange(-4, 5) for _ in range(2)]
            xp = [rng.randrange(-4, 5) for _ in range(2)]
            rep = cartier_character(p, a, x, 8, xprime_scalars=xp)
            assert rep["additivity"] and rep["log_identity"]


def test_cartier_builds_each_artin_hasse_factor_once(monkeypatch):
    import wittsen.witt as witt

    starts = []
    real = witt._artin_hasse_factor

    def counting(p, a, start, n, ring):
        starts.append(start)
        return real(p, a, start, n, ring)

    monkeypatch.setattr(witt, "_artin_hasse_factor", counting)
    rep = cartier_character(2, [1, 3, 0], [1, 2, 1], 8, xprime_scalars=[2, 0, 1])
    assert rep["additivity"] and rep["log_identity"]
    assert sorted(starts) == [0, 1, 2]  # one factor per level, not 2n + 1


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
