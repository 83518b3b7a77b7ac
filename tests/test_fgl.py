import math
import random
from fractions import Fraction

import pytest

from wittsen.cli import RunConfig, check_honda
from wittsen.exactalg import InvalidInputError, PolyRing, TruncPoly
from wittsen.fgl import (
    _bp_ring,
    _compositional_inverse,
    _honda_log_exp,
    _l_in_terms_of_v,
    _newton,
    b4_cobar_class,
    bp_right_unit,
    divided_n_series,
    f_derham_complex,
    fgl_construct,
    formal_inverse,
    honda_p_series,
    honda_pm_divided_series,
    n_series,
    polynomial_degree,
    q_integer,
)


def poly_of(ring, name, e=1):
    return TruncPoly.var(ring, name) ** e


def multiplicative_log(x, lam, bound):
    """log(1 + lam x)/lam = sum_k (-lam)^(k-1) x^k / k up to x^bound: the
    logarithm of the law X + Y + lam XY."""
    out = 0 * x
    for k in range(1, bound + 1):
        out = out + (-lam) ** (k - 1) * x**k * Fraction(1, k)
    return out


# ---------------------------------------------------------------------------
# construction and axioms

def test_additive_n_series():
    F = fgl_construct("additive", 10)
    for m in (0, 1, 7):
        s = n_series(F, m)
        ring = s.ring
        assert s == TruncPoly.var(ring, "x") * m


def test_multiplicative_two_series():
    F = fgl_construct("multiplicative", 8, lam="lam")
    s = n_series(F, 2)
    ring = s.ring
    x, lam = poly_of(ring, "x"), poly_of(ring, "lam")
    assert s == 2 * x + lam * x**2


def test_custom_invalid_fgl():
    from wittsen.fgl import _axiom_failure_degree

    ring = PolyRing(vars=("X", "Y"), total_bound=6)
    X, Y = poly_of(ring, "X"), poly_of(ring, "Y")
    assert _axiom_failure_degree(X + Y + X**2, 6) == 2


@pytest.mark.parametrize("law, degree", [
    # only the unit laws see X*Y
    (lambda X, Y, v: X * Y, 1),
    # only associativity sees these two; v is not counted
    (lambda X, Y, v: X + Y + X * Y * (X + Y), 5),
    (lambda X, Y, v: X + Y + v * X**2 * Y**2, 4),
    # commutativity and associativity both fail at degree 3
    (lambda X, Y, v: X + Y + X * Y**2, 3),
    (lambda X, Y, v: X + Y + v * X * Y, None),
], ids=["unit", "associativity", "associativity_v_uncounted",
        "commutativity_and_associativity", "multiplicative_v"])
def test_axiom_failure_degree_of_each_axiom(law, degree):
    from wittsen.fgl import _axiom_failure_degree

    ring = PolyRing(vars=("X", "Y", "v"), total_bound=6, counted=(True, True, False))
    F = law(*(poly_of(ring, name) for name in ring.vars))
    assert _axiom_failure_degree(F, 6) == degree


def test_addition_of_series_indices():
    rng = random.Random(3)
    F = fgl_construct("multiplicative", 8, lam=3)
    for _ in range(8):
        a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
        lhs = n_series(F, a + b)
        rhs = F.F.substitute({"X": n_series(F, a), "Y": n_series(F, b)})
        assert lhs == rhs
        assert n_series(F, a * b) == n_series(F, a).substitute({"x": n_series(F, b)})


def test_constructed_laws_satisfy_axioms():
    from wittsen.fgl import _axiom_failure_degree

    for F in (
        fgl_construct("additive", 8),
        fgl_construct("multiplicative", 8, lam="lam"),
        fgl_construct("multiplicative", 8, lam=2),
        fgl_construct("honda", 8, p=2, n=1),
        fgl_construct("honda", 10, p=3, n=1),
    ):
        assert _axiom_failure_degree(F.F, min(F.D, 8)) is None


def test_formal_inverse_and_negative_series():
    F = fgl_construct("multiplicative", 8, lam="lam")
    iota = formal_inverse(F, 8)
    assert F.F.substitute({"X": poly_of(iota.ring, "x"), "Y": iota}).is_zero()
    s = n_series(F, -1)
    assert s == iota


def test_formal_inverse_closed_forms():
    # X + Y + lam XY has inverse -x/(1 + lam x) = sum_(k>=1) (-1)^k lam^(k-1) x^k,
    # at every bound, so at each of Newton's precision schedules
    for bound in range(1, 41):
        F = fgl_construct("multiplicative", bound, lam="lam")
        iota = formal_inverse(F, bound)
        assert iota == TruncPoly(iota.ring, {(k, k - 1): (-1) ** k
                                             for k in range(1, bound + 1)}), bound
    # a logarithm with only odd exponents is odd, so exp(log(-x)) = -x is the
    # inverse: the additive law, and Honda laws with p odd
    for F in (fgl_construct("additive", 20), fgl_construct("honda", 20, p=3, n=1),
              fgl_construct("honda", 30, p=5, n=2)):
        iota = formal_inverse(F, F.D)
        assert iota == -poly_of(iota.ring, "x"), (F.D, F.F.ring)


@pytest.mark.parametrize("law", [("multiplicative", {"lam": "lam"}),
                                 ("honda", {"p": 2, "n": 1})],
                         ids=["mult-lam", "honda-2"])
def test_formal_inverse_doubles_its_precision(law, monkeypatch):
    # two substitutions per doubling of the precision and one final check,
    # where a solve degree by degree makes one per degree
    kind, params = law
    F = fgl_construct(kind, 40, **params)
    calls = []
    substitute = TruncPoly.substitute
    monkeypatch.setattr(TruncPoly, "substitute",
                        lambda self, values: calls.append(1) or substitute(self, values))
    formal_inverse(F, 40)
    assert len(calls) <= 2 * math.ceil(math.log2(40)) + 2


def test_newton_runs_at_the_precisions_the_bound_needs(monkeypatch):
    # precisions from the top, 2, 3, 5, 9, 17, 33, 65 for bound 64: the
    # residual runs in the ring cut at P - 1, the slope (and 1/slope) in the
    # ring cut at the previous precision minus 1
    logw, expw = _honda_log_exp(2, 1, 64)
    dlog = logw.derivative("x")
    at = lambda poly, g: TruncPoly(g.ring, poly.terms).substitute({"x": g})
    caps = {"residual": [], "slope": []}

    def residual(g):
        caps["residual"].append(g.ring.cap)
        return at(logw, g) - TruncPoly.var(g.ring, "x")

    def slope(g):
        caps["slope"].append(g.ring.cap)
        return at(dlog, g)

    assert _newton(TruncPoly.var(logw.ring, "x"), "x", 64, residual, slope) == expw
    assert caps == {"residual": [1, 2, 4, 8, 16, 32, 64], "slope": [0, 1, 2, 4, 8, 16, 32]}
    # 331 with precisions doubled from 2 and the slope at full precision, 206
    # with every power of g up to the precision built, 62 with only the
    # powers 2^i (residual) and 2^i - 1 (slope) the logarithm uses, 61 with
    # no correction product for a residual that is already zero
    assert count_products(monkeypatch, _honda_log_exp, 2, 1, 64) <= 61


def count_products(monkeypatch, fn, *args, **kwargs):
    """The number of TruncPoly-by-TruncPoly products fn(*args, **kwargs) makes."""
    products = []
    mul = TruncPoly.__mul__

    def counting_mul(a, b):
        if isinstance(b, TruncPoly):
            products.append(1)
        return mul(a, b)

    with monkeypatch.context() as m:
        m.setattr(TruncPoly, "__mul__", counting_mul)
        fn(*args, **kwargs)
    return len(products)


@pytest.mark.parametrize("fn, args, kwargs, most", [
    # one Newton solve of log g = p log x: 270 by reverting log to exp and
    # substituting exp(p log x), 125 with only the powers it uses, 62 with
    # one solve, 61 with no product by a zero residual
    (honda_p_series, (2, 1, 64), {}, 61),
    # the 27 (p, n) groups of the report's Honda grid: 5,009 before the
    # one solve, 1,089 before skipping the zero residuals' products
    (check_honda, (RunConfig(),), {}, 985),
    # the law still reverts the logarithm: 1,359 with every power up to the
    # highest exponent, 1,270 with only the powers used
    (fgl_construct, ("honda", 40), {"p": 3, "n": 1}, 1268),
], ids=["p-series", "check_honda", "honda-law"])
def test_honda_products_stay_within_their_counts(monkeypatch, fn, args, kwargs, most):
    assert count_products(monkeypatch, fn, *args, **kwargs) <= most


# ---------------------------------------------------------------------------
# divided n-series and the q-identity

def test_divided_series_constant_term():
    for kind, kw in (("additive", {}), ("multiplicative", {"lam": "lam"})):
        F = fgl_construct(kind, 8, **kw)
        for m in (1, 2, 5):
            d = divided_n_series(F, m)
            assert d.constant_term() == m


def test_q_identity_through_twenty():
    F = fgl_construct("multiplicative", 21, lam="lam")
    for m in range(1, 21):
        lhs = divided_n_series(F, m)
        assert lhs == q_integer(m, "lam", lhs.ring)


@pytest.mark.parametrize("lam, ring", [
    ("lam", PolyRing(vars=("h", "lam"), bounds=(40, None))),
    (0, PolyRing(vars=("h",), bounds=(40,))),
    (-3, PolyRing(vars=("h",), bounds=(40,))),
    (5, PolyRing(vars=("h",), bounds=(40,))),
    ("lam", PolyRing(vars=("h", "lam"), bounds=(40, None), modulus=5)),
    (-3, PolyRing(vars=("h",), bounds=(40,), modulus=5)),
    ("lam", PolyRing(vars=("h", "lam"), bounds=(7, None))),
], ids=["symbolic", "lam0", "lam-3", "lam5", "symbolic-mod5", "lam-3-mod5", "h-cap-7"])
def test_q_integer_matches_kernel_products(lam, ring, monkeypatch):
    # reference: sum_(i<n) q^i with one kernel product per step, for n = 1..40
    h = TruncPoly.var(ring, "h")
    q = 1 + (TruncPoly.var(ring, "lam") if lam == "lam" else lam) * h
    want, total, power = {}, TruncPoly.zero(ring), TruncPoly.const(ring, 1)
    for n in range(1, 41):
        total, power = total + power, power * q
        want[n] = total
    products = []
    mul = TruncPoly.__mul__

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(TruncPoly, "__mul__", counted)
    monkeypatch.setattr(TruncPoly, "__rmul__", counted)
    got = {n: q_integer(n, lam, ring) for n in range(1, 41)}
    assert not products
    assert got == want


def test_honda_p_series_exact():
    s = honda_p_series(2, 1, 12)
    assert s.terms == {(2, 1): 1}
    s = honda_p_series(3, 1, 12)
    assert s.terms == {(3, 1): 1}
    s = honda_p_series(2, 2, 12)
    assert s.terms == {(4, 1): 1}


def honda_log_over_q(p, n, bound):
    """The Honda logarithm sum_i v^((p^(ni)-1)/(p^n-1)) x^(p^(ni)) / p^i over
    Q[v] with Fraction coefficients, the reference for the Z[w] series."""
    terms, i = {}, 0
    while p ** (n * i) <= bound:
        terms[(p ** (n * i), (p ** (n * i) - 1) // (p**n - 1))] = Fraction(1, p**i)
        i += 1
    return TruncPoly(PolyRing(vars=("x", "v"), bounds=(bound, None)), terms)


def over_q(series, p):
    """A series over Z[w] (w held by "v") mapped into Q[v] by v = p w."""
    iv = series.ring.index("v")
    return TruncPoly(series.ring, {m: Fraction(c, p ** m[iv]) for m, c in series.terms.items()})


@pytest.mark.parametrize("p, n, bound", [(2, 1, 32), (3, 1, 27), (5, 1, 25), (2, 2, 16)])
def test_honda_series_over_zw_match_the_fraction_reversion(p, n, bound):
    logw, expw = _honda_log_exp(p, n, bound)
    assert all(type(c) is int for c in [*logw.terms.values(), *expw.terms.values()])
    logq = honda_log_over_q(p, n, bound)
    expq = _compositional_inverse(logq, "x", bound, TruncPoly.var(logq.ring, "x"))
    assert over_q(logw, p) == logq
    assert over_q(expw, p) == expq
    pseries_q = expq.substitute({"x": logq * p})
    assert over_q(expw.substitute({"x": logw * p}), p) == pseries_q
    mod_ring = PolyRing(vars=("x", "v"), bounds=(bound, None), modulus=p)
    assert honda_p_series(p, n, bound) == TruncPoly(mod_ring, pseries_q.terms)


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2)])
def test_honda_law_over_zw_matches_the_fraction_construction(p, n):
    D = 12
    logq = honda_log_over_q(p, n, D)
    expq = _compositional_inverse(logq, "x", D, TruncPoly.var(logq.ring, "x"))
    ring = PolyRing(vars=("X", "Y", "v"), total_bound=D, counted=(True, True, False))
    lx, ly = (logq.substitute({"x": poly_of(ring, nm)}) for nm in ("X", "Y"))
    law_q = expq.substitute({"x": lx + ly})
    F = fgl_construct("honda", D, p=p, n=n)
    assert F.F == TruncPoly(F.F.ring, law_q.terms)


@pytest.mark.parametrize("p, n, bound", [(3, 1, 2), (4, 1, 16), (1, 1, 8)],
                         ids=["bound-below-p^n", "p-not-prime", "p-is-1"])
def test_honda_bad_inputs_are_rejected(p, n, bound):
    with pytest.raises(InvalidInputError):
        honda_p_series(p, n, bound)
    if bound >= p**n:
        with pytest.raises(InvalidInputError):
            fgl_construct("honda", bound, p=p, n=n)


def test_honda_divided_power_series():
    data = honda_pm_divided_series(2, 1, [2])[2]
    assert data["v_exponent"] == 3 and data["h_exponent"] == 3
    data = honda_pm_divided_series(3, 1, [1, 2])
    assert data[1]["v_exponent"] == 1 and data[1]["h_exponent"] == 2
    assert data[2]["v_exponent"] == 4 and data[2]["h_exponent"] == 8


def test_honda_generic_n_series_agrees():
    # the generic recursion, run on the constructed law, hits the same p-series
    F = fgl_construct("honda", 10, p=2, n=1)
    s = n_series(F, 2)
    assert s.terms == {(2, 1): 1}


@pytest.mark.parametrize("law", [
    ("additive", {}),
    ("multiplicative", {"lam": 3}),
    ("multiplicative", {"lam": "lam"}),
    ("honda", {"p": 2, "n": 1}),
    ("honda", {"p": 3, "n": 1}),
], ids=["additive", "mult-3", "mult-lam", "honda-2", "honda-3"])
def test_n_series_is_the_iterated_sum(law):
    kind, params = law
    F = fgl_construct(kind, 10, **params)
    ring = F.series_ring("x", F.D)
    x = TruncPoly.var(ring, "x")
    iota = formal_inverse(F, F.D)
    total, negative = TruncPoly.zero(ring), TruncPoly.zero(ring)
    for m in range(1, 34):
        total = F.F.substitute({"X": total, "Y": x})
        assert n_series(F, m) == total, m
        if m <= 7:
            negative = F.F.substitute({"X": negative, "Y": iota})
            if m in (1, 7):
                assert n_series(F, -m) == negative, -m


# ---------------------------------------------------------------------------
# logarithms

def test_log_multiplicative_series():
    # Lagrange-inversion oracle for the Newton reversion: the inverse of the
    # logarithm x - lam x^2/2 + lam^2 x^3/3 - ... is the exponential
    # (e^(lam x) - 1)/lam = sum_k lam^(k-1) x^k / k!
    ring = PolyRing(vars=("x", "lam"), bounds=(7, None))
    x = poly_of(ring, "x")
    logf = multiplicative_log(x, poly_of(ring, "lam"), 7)
    expf = _compositional_inverse(logf, "x", 7, TruncPoly.var(logf.ring, "x"))
    want, fact = {}, 1
    for k in range(1, 8):
        fact *= k
        want[(k, k - 1)] = Fraction(1, fact)
    assert expf == TruncPoly(ring, want)
    assert logf.substitute({"x": expf}) == x
    assert expf.substitute({"x": logf}) == x


def test_log_of_n_series():
    # log([m](x)) = m log(x) for the law X + Y + 2XY
    F = fgl_construct("multiplicative", 8, lam=2)
    logf = multiplicative_log(poly_of(F.series_ring("x", 8), "x"), 2, 8)
    for m in range(1, 6):
        assert logf.substitute({"x": n_series(F, m)}) == logf * m


def test_log_additivity():
    # log(F(X, Y)) = log(X) + log(Y): the constructed law is X + Y + lam XY
    F = fgl_construct("multiplicative", 6, lam="lam")
    series_ring = F.series_ring("x", 6)
    logf = multiplicative_log(poly_of(series_ring, "x"), poly_of(series_ring, "lam"), 6)
    ring = PolyRing(
        vars=("X", "Y", "lam"),
        total_bound=6,
        counted=(True, True, False),
    )
    X, Y = poly_of(ring, "X"), poly_of(ring, "Y")
    lhs = logf.substitute({"x": F.F.substitute({"X": X, "Y": Y})})
    rhs = logf.substitute({"x": X}) + logf.substitute({"x": Y})
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Hazewinkel generators and right unit

def test_hazewinkel_small():
    # p = 2: v1 = 2 l1 and v2 = 2 l2 - l1 v1^2 give l1 = v1/2 and
    # l2 = v2/2 + v1^3/4, so L1 = 2 l1 = v1 and L2 = 4 l2 = 2 v2 + v1^3
    ring = _bp_ring(2, 2)
    L = _l_in_terms_of_v(2, 2, ring)
    v1, v2 = poly_of(ring, "v1"), poly_of(ring, "v2")
    assert L[1] == v1
    assert L[2] == 2 * v2 + v1**3


def test_hazewinkel_grading():
    # L_n = p^n l_n is an integer polynomial, homogeneous of degree
    # 2p^n - 2, and Hazewinkel's recursion v_n = p l_n - sum_(0<i<n) l_i
    # v_(n-i)^(p^i) reads p^(n-1) v_n = L_n - sum p^(n-1-i) L_i v_(n-i)^(p^i)
    for p in (2, 3):
        ring = _bp_ring(p, 3)
        L = _l_in_terms_of_v(p, 3, ring)
        v = {nn: poly_of(ring, f"v{nn}") for nn in range(1, 4)}
        for nn in range(1, 4):
            assert polynomial_degree(L[nn]) == {2 * p**nn - 2}
            assert all(type(c) is int for c in L[nn].terms.values())
            rhs = L[nn]
            for i in range(1, nn):
                rhs = rhs - L[i] * v[nn - i] ** (p**i) * p ** (nn - 1 - i)
            assert rhs == v[nn] * p ** (nn - 1)


def test_right_unit_v1():
    for p in (2, 3):
        eta = bp_right_unit(p, 1)
        ring = eta[1].ring
        assert eta[1] == poly_of(ring, "v1") + p * poly_of(ring, "t1")


def test_right_unit_v1_squared_combination():
    eta = bp_right_unit(2, 1)
    ring = eta[1].ring
    v1, t1 = poly_of(ring, "v1"), poly_of(ring, "t1")
    combo = (eta[1] ** 2 - v1**2).map_coeffs(lambda c: Fraction(c, 4))
    assert combo == t1**2 + v1 * t1


def test_right_unit_v2_display():
    eta = bp_right_unit(2, 2)
    ring = eta[2].ring
    v1, v2 = poly_of(ring, "v1"), poly_of(ring, "v2")
    t1, t2 = poly_of(ring, "t1"), poly_of(ring, "t2")
    expected = v2 - 5 * v1 * t1**2 - 3 * v1**2 * t1 + 2 * t2 - 4 * t1**3
    assert eta[2] == expected


def test_right_unit_reduces_to_vn():
    # eta_R(v_n) = v_n mod (p, t_1, t_2, ...)
    for p in (2, 3):
        eta = bp_right_unit(p, 2)
        ring = eta[2].ring
        for nn in (1, 2):
            reduced = eta[nn].substitute({"t1": 0, "t2": 0})
            diff = reduced - poly_of(ring, f"v{nn}")
            assert all(c % p == 0 for c in diff.terms.values())


def test_right_unit_is_graded():
    for p in (2, 3):
        eta = bp_right_unit(p, 2)
        for nn in (1, 2):
            assert polynomial_degree(eta[nn]) == {2 * p**nn - 2}


def test_right_unit_multiplicativity_sample():
    eta = bp_right_unit(2, 2)
    ring = eta[1].ring
    # ring-map extension: eta(v1*v2) = eta(v1)*eta(v2), eta(v1^2+v2) = ...
    assert eta[1] * eta[2] == eta[2] * eta[1]
    combo = eta[1] ** 2 + eta[2]
    v1, v2 = poly_of(ring, "v1"), poly_of(ring, "v2")
    direct = (v1**2 + v2).substitute({"v1": eta[1], "v2": eta[2]})
    assert combo == direct


@pytest.mark.parametrize("p, N", [(2, 4), (3, 4)])
def test_right_unit_makes_no_product_with_a_constant(p, N, monkeypatch):
    # L_0 = t_0 = 1 enter E_n as the terms p^n t_n and L_n, and a power
    # starts from its base, not from 1 * base
    constants = []
    mul = TruncPoly.__mul__

    def counted(a, b):
        if isinstance(b, TruncPoly):
            one = (0,) * len(a.ring.vars)
            constants.extend(x for x in (a, b) if list(x.terms) == [one])
        return mul(a, b)

    monkeypatch.setattr(TruncPoly, "__mul__", counted)
    monkeypatch.setattr(TruncPoly, "__rmul__", counted)
    bp_right_unit(p, N)
    assert not constants


def reference_right_unit(p, N):
    """Reference: eta_R(v_n) as the library ran it on Fraction coefficients
    before its integer form, l_n = (v_n + sum_(0<i<n) l_i v_(n-i)^(p^i))/p,
    eta_R(l_n) = sum_i l_i t_(n-i)^(p^i) and eta_R(v_n) = p eta_R(l_n) -
    sum_(0<i<n) eta_R(l_i) eta_R(v_(n-i))^(p^i), or None for a non-p-integral
    eta_R(v_n)."""
    ring = _bp_ring(p, N)
    v = {i: poly_of(ring, f"v{i}") for i in range(1, N + 1)}
    t = {i: poly_of(ring, f"t{i}") for i in range(1, N + 1)}
    l, t[0] = {0: TruncPoly.const(ring, 1)}, TruncPoly.const(ring, 1)
    for nn in range(1, N + 1):
        acc = v[nn]
        for i in range(1, nn):
            acc = acc + l[i] * v[nn - i] ** (p**i)
        l[nn] = acc.map_coeffs(lambda c: Fraction(c, p))
    eta_l = {nn: sum((l[i] * t[nn - i] ** (p**i) for i in range(nn + 1)),
                     TruncPoly.zero(ring)) for nn in range(1, N + 1)}
    eta_v = {}
    for nn in range(1, N + 1):
        acc = eta_l[nn] * p
        for i in range(1, nn):
            acc = acc - eta_l[i] * eta_v[nn - i] ** (p**i)
        if any(Fraction(c).denominator % p == 0 for c in acc.terms.values()):
            return None
        eta_v[nn] = acc
    return eta_v


@pytest.mark.parametrize("p, N", [(p, N) for p in (2, 3, 5) for N in (1, 2, 3)] + [(3, 4)])
def test_right_unit_matches_fraction_reference(p, N):
    eta = bp_right_unit(p, N)
    assert eta == reference_right_unit(p, N)
    assert all(type(c) is int for e in eta.values() for c in e.terms.values())


def test_b4_matches_fraction_reference():
    # (1/2)((eta_R(v_1^4) - v_1^4)/8 - (eta_R(v_1 v_2) - v_1 v_2)) over Q
    eta = reference_right_unit(2, 2)
    ring = eta[1].ring
    v1, v2 = poly_of(ring, "v1"), poly_of(ring, "v2")
    first = (eta[1] ** 4 - v1**4).map_coeffs(lambda c: Fraction(c, 8))
    want = (first - (eta[1] * eta[2] - v1 * v2)).map_coeffs(lambda c: Fraction(c, 2))
    assert b4_cobar_class() == want


def test_b4_display():
    b4 = b4_cobar_class()
    ring = b4.ring
    v1, v2 = poly_of(ring, "v1"), poly_of(ring, "v2")
    t1, t2 = poly_of(ring, "t1"), poly_of(ring, "t2")
    expected = (
        5 * t1**4 + 9 * t1**3 * v1 + 7 * t1**2 * v1**2
        - 2 * t1 * t2 + 2 * t1 * v1**3 - t1 * v2 - t2 * v1
    )
    assert b4 == expected
    assert polynomial_degree(b4) == {8}


def test_b4_reductions():
    b4 = b4_cobar_class()
    ring = b4.ring
    t1, t2 = poly_of(ring, "t1"), poly_of(ring, "t2")
    v2 = poly_of(ring, "v2")
    mod2 = b4.map_coeffs(lambda c: c % 2)
    mod2v1 = mod2.substitute({"v1": 0})
    assert mod2v1 == (t1**4 + t1 * v2).map_coeffs(lambda c: c % 2)
    mod2v1v2 = mod2v1.substitute({"v2": 0})
    assert mod2v1v2 == t1**4


# ---------------------------------------------------------------------------
# two-term complexes

def test_f_derham_weights():
    F = fgl_construct("additive", 8)
    cx = f_derham_complex(F, 5, 8)
    assert sorted(cx) == [1, 2, 3, 4, 5]
    assert cx[3] == 3
    Fm = fgl_construct("multiplicative", 8, lam="lam")
    cxm = f_derham_complex(Fm, 4, 8)
    assert cxm[3] == q_integer(3, "lam", cxm[3].ring)
