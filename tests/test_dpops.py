import gc
import random
from fractions import Fraction
from functools import reduce
from math import comb, factorial, lcm
from operator import mul

import pytest

from conftest import sparse
from wittsen.exactalg import (
    IdentityError,
    InvalidInputError,
    PolyRing,
    PrecisionError,
    TruncPoly,
    fraction_valuation,
    matrix_product,
)
from wittsen import dpops, targets
from wittsen.dpops import (
    DeltaRingContext,
    ZpLattice,
    _integer_vector,
    _p_q_inverse,
    DPModule,
    base_p_digits,
    delta_ring_check,
    dp_weyl_operators,
    factorial_unit_identity,
    perfectoid_gamma_values,
    psi_eigenvalues,
    psi_tensor_check,
    theta_perfectoid,
    theta_zpn,
)
from wittsen.senhom import Eisenstein


# ---------------------------------------------------------------------------
# the reference model: the divided-power algebra
# Gamma[u] (x) Q[theta] (x) Lambda[eps] inside Q[u, theta, eps]/eps^2, with
# gamma_a(u) = u^a/a!; the product gamma_i gamma_j = C(i+j, i) gamma_(i+j) is
# then the polynomial product, and a derivation is extended through it by the
# Leibniz rule. The library builds the operators' matrices in closed form;
# these tests check that form against this model.


DP_RING = PolyRing(vars=("u", "theta", "eps"), bounds=(None, None, 1))


def dp_monomial(mono: tuple, coeff) -> TruncPoly:
    """coeff * gamma_a(u) theta^b eps^c for the label mono = (a, b, c)."""
    return TruncPoly(DP_RING, {mono: Fraction(coeff, factorial(mono[0]))})


def gamma_coefficients(f: TruncPoly) -> dict:
    """The coefficients of f in the basis gamma_a(u) theta^b eps^c, by label
    (a, b, c)."""
    return {mono: c * factorial(mono[0]) for mono, c in f.terms.items()}


class PDerivation:
    """Derivation on the divided-power algebra with D(eps) = 0, determined by
    its values on the generators gamma_(p^k)(u) and theta (a generator with
    no value maps to 0), and extended through the factorization
    a! gamma_a = prod_k ((p^k)! gamma_(p^k))^(m_k) over the base-p digits
    m_k of a. The image of each eps-free monomial is computed once."""

    def __init__(self, p: int, gamma_values: dict, theta_value: TruncPoly):
        self.p = p
        self.gamma_values = gamma_values
        self.theta_value = theta_value
        self.images = {}

    def apply_monomial(self, mono: tuple) -> TruncPoly:
        """D(gamma_a theta^b eps^c)
        = (D(gamma_a) theta^b + b gamma_a theta^(b-1) D(theta)) eps^c, where
        the Leibniz rule on the factorization gives
        D(gamma_a) = sum_k m_k (p^k)!/a! u^(a-p^k) D(gamma_(p^k))."""
        a, b, c = mono
        if c:
            return self.apply_monomial((a, b, 0)) * dp_monomial((0, 0, 1), 1)
        if (a, b) in self.images:
            return self.images[a, b]
        out = TruncPoly.zero(DP_RING)
        for k, mk in enumerate(base_p_digits(a, self.p)):
            if mk and k in self.gamma_values:
                q = self.p**k
                lower = {(a - q, b, 0): Fraction(mk * factorial(q), factorial(a))}
                out = out + TruncPoly(DP_RING, lower) * self.gamma_values[k]
        if b:
            out = out + dp_monomial((a, b - 1, 0), b) * self.theta_value
        self.images[a, b] = out
        return out


ZERO = TruncPoly.zero(DP_RING)


def leibniz_reference(der, mono):
    """D(gamma_a theta^b eps^c) by the Leibniz rule on the factors of
    a! gamma_a theta^b eps^c = prod_k ((p^k)! gamma_(p^k))^(m_k) theta^b eps^c,
    eps among them with D(eps) = 0: every label takes the full sum."""
    a, b, c = mono
    factors = [(dp_monomial((der.p**k, 0, 0), factorial(der.p**k)), mk,
                factorial(der.p**k) * der.gamma_values.get(k, ZERO))
               for k, mk in enumerate(base_p_digits(a, der.p)) if mk]
    factors += [(dp_monomial((0, 1, 0), 1), b, der.theta_value),
                (dp_monomial((0, 0, 1), 1), c, ZERO)]
    out = ZERO
    for i, (f, m, df) in enumerate(factors):
        if m:
            rest = reduce(mul, (g**e for j, (g, e, _) in enumerate(factors) if j != i),
                          f ** (m - 1))
            out = out + m * rest * df
    return out * Fraction(1, factorial(a))


def p_free_factorial(p, a):
    """(a!)_(p'): a! with its p-power removed. The operators' matrices are
    written in the integral basis gamma'_a = (a!)_(p') gamma_a."""
    f = factorial(a)
    while f % p == 0:
        f //= p
    return f


def reference_matrices(module, der):
    """The nonzero degree-(-1) matrices of leibniz_reference in the basis
    gamma'_a theta^b eps^c: the gamma-basis matrices conjugated by
    diag((a!)_(p')), as 1-tuples of Fractions in {column: entry} rows."""
    w = lambda mono: p_free_factorial(module.p, mono[0])
    out = {}
    for d, basis in module.bases.items():
        cols = [gamma_coefficients(leibniz_reference(der, mono)) for mono in basis]
        target = module.bases.get(d - 1, [])
        assert all(set(col) <= set(target) for col in cols), d
        if any(cols):
            out[d] = sparse([[(Fraction(col.get(m2, 0)) * w(mono) / w(m2),)
                              for mono, col in zip(basis, cols)] for m2 in target], (0,))
    return out


def reference_operator(p, bound, scale):
    """The Sen operator of the reference model: gamma_(p^k) -> scale(k) c_k
    gamma_(p^k - p) eps with c_k = (p-1)! (p^k - p)!/(p^k - 1)! for
    p^k <= bound, theta -> p eps."""
    values, k = {}, 1
    while p**k <= bound:
        c = Fraction(factorial(p - 1) * factorial(p**k - p), factorial(p**k - 1))
        values[k] = dp_monomial((p**k - p, 0, 1), scale(k) * c)
        k += 1
    return PDerivation(p, values, dp_monomial((0, 0, 1), p))


def test_gamma_products_and_round_trip():
    # gamma_i gamma_j = C(i+j, i) gamma_(i+j) is the product in Q[u, theta, eps]
    for i in range(30):
        for j in range(30):
            prod = dp_monomial((i, 0, 0), 1) * dp_monomial((j, 0, 0), 1)
            assert gamma_coefficients(prod) == {(i + j, 0, 0): comb(i + j, i)}, (i, j)
    eps = dp_monomial((0, 0, 1), 1)
    assert (eps * eps).is_zero()
    assert (dp_monomial((3, 1, 1), 5) * eps).is_zero()
    for mono in ((0, 0, 0), (7, 0, 1), (12, 3, 0), (29, 2, 1)):
        for coeff in (1, -4, Fraction(3, 7)):
            assert gamma_coefficients(dp_monomial(mono, coeff)) == {mono: coeff}


def test_unit_lemma_full_range():
    # v_p(c_m) = v_p(m!) - sum m_k v_p(p^k!) via Legendre, for every m <= 10^4
    from wittsen.exactalg import factorial_valuation

    for p in (2, 3, 5):
        for m in range(1, 10**4 + 1):
            total = factorial_valuation(p, m)
            for k, mk in enumerate(base_p_digits(m, p)):
                total -= mk * factorial_valuation(p, p**k)
            assert total == 0, (p, m)


# ---------------------------------------------------------------------------
# derivation extension


def test_zero_values_give_zero_map():
    module = DPModule(3, 20)
    assert not reference_matrices(module, PDerivation(3, {0: ZERO}, ZERO))


def test_first_gamma_only_pattern():
    # D(gamma_(p^k)) = 0 for k >= 1, D(gamma_1) = 1: then D(gamma_m) is a unit
    # multiple of gamma_(m-1) whenever m is not 0 mod p
    p = 3
    der = PDerivation(p, {0: dp_monomial((0, 0, 0), 1)}, ZERO)
    for m in range(1, 30):
        img = gamma_coefficients(der.apply_monomial((m, 0, 0)))
        if m % p == 0:
            assert not img
        else:
            assert len(img) == 1
            mono, c = next(iter(img.items()))
            assert mono == (m - 1, 0, 0)
            assert fraction_valuation(p, c) == 0


def test_theta_action_on_theta_powers():
    # D(theta) = p on Z_p[theta]: D(theta^j) = j p theta^(j-1)
    p = 3
    der = PDerivation(p, {}, dp_monomial((0, 0, 0), p))
    for j in range(1, 6):
        img = der.apply_monomial((0, j, 0))
        assert gamma_coefficients(img) == {(0, j - 1, 0): j * p}


def test_perfectoid_generator_values():
    # the library's scalars c_k are the reference's generator coefficients
    vals = reference_operator(3, 60, lambda k: 1).gamma_values
    assert {k: next(iter(gamma_coefficients(v).values())) for k, v in vals.items()} \
        == perfectoid_gamma_values(3, 60)
    # gamma_p -> eps exactly (empty product, normalization)
    assert gamma_coefficients(vals[1]) == {(0, 0, 1): 1}
    # gamma_(p^2) -> unit * gamma_(p^2-p) eps, and the unit differs from the
    # expanded product gamma_3^(p-1) = C(6,3) gamma_6 by a p-adic unit only
    mono, c = next(iter(gamma_coefficients(vals[2]).items()))
    assert mono == (6, 0, 1)
    assert fraction_valuation(3, c) == 0
    assert fraction_valuation(3, c / comb(6, 3)) == 0


def apply(der, elt):
    """The derivation on a combination of monomials, term by term."""
    out = ZERO
    for mono, c in gamma_coefficients(elt).items():
        out = out + c * der.apply_monomial(mono)
    return out


def test_perfectoid_leibniz():
    # Leibniz holds exactly on products without a base-p carry in digit 0;
    # a digit-0 carry passes through the gamma_1-power relation, where the
    # degree-forced value D(gamma_1) = 0 admits no compatible unit.
    for p in (2, 3):
        der = reference_operator(p, 60, lambda k: 1)
        rng = random.Random(73)
        for _ in range(60):
            a = (rng.randrange(0, 12), rng.randrange(0, 3), 0)
            b = (rng.randrange(0, 12), rng.randrange(0, 3), 0)
            ga, gb = dp_monomial(a, 1), dp_monomial(b, 1)
            lhs = apply(der, ga * gb)
            rhs = der.apply_monomial(a) * gb + ga * der.apply_monomial(b)
            if a[0] % p + b[0] % p < p:
                assert lhs == rhs, (p, a, b)


def test_perfectoid_leibniz_failure_locus_is_digit_zero():
    p = 2
    der = reference_operator(p, 60, lambda k: 1)
    for i in range(12):
        for j in range(12):
            a, b = (i, 0, 0), (j, 0, 0)
            ga, gb = dp_monomial(a, 1), dp_monomial(b, 1)
            lhs = apply(der, ga * gb)
            rhs = der.apply_monomial(a) * gb + ga * der.apply_monomial(b)
            assert (lhs == rhs) == (i % p + j % p < p), (i, j)


def test_theta_perfectoid_structure():
    D = theta_perfectoid(2, 20)
    assert factorial_unit_identity(2, perfectoid_gamma_values(2, 20))
    # theta^2 -> 2p theta eps at p=2: source degree 8, target degree 7
    module = DPModule(2, 20)
    src = module.bases[8]
    tgt = module.bases[7]
    j = src.index((0, 2, 0))
    i = tgt.index((0, 1, 1))
    assert D.matrices[8][i][j] == (4,)
    # gamma'_a -> (p-1)! (floor(a/p))_(p') gamma'_(a-p) eps, so gamma'_6 ->
    # 3 gamma'_4 eps: the reference conjugated by diag((a!)_(p'))
    ref = reference_matrices(module, reference_operator(2, 20, lambda k: 1))
    jg, ig = module.bases[12].index((6, 0, 0)), module.bases[11].index((4, 0, 1))
    assert D.matrices[12][ig][jg] == ref[12][ig][jg] == (3,)
    # gamma_1(u) = u maps to zero (no target below)
    assert 2 not in D.matrices
    # squares to zero into the eps-line
    for d, mat in D.matrices.items():
        nxt = D.matrices.get(d - 1, [])   # a missing matrix is the zero map
        assert not any(matrix_product(Eisenstein(2, [-2, 1]), nxt, mat))   # no nonzero entry


def test_theta_zpn_scaling():
    D = theta_zpn(3, 2, 12)
    module = DPModule(3, 12)
    src = module.bases[6]
    tgt = module.bases[5]
    jg = src.index((3, 0, 0))
    jt = src.index((0, 1, 0))
    i = tgt.index((0, 0, 1))
    # gamma'_p = (p-1)! gamma_p(u) -> (p-1)! p^(n-1) eps, n=2: the reference
    # conjugated by diag((a!)_(p')) at gamma_3 -> eps
    ref = reference_matrices(module, reference_operator(3, 12, lambda k: 3 ** k))
    assert D.matrices[6][i][jg] == ref[6][i][jg] == (2 * 3,)
    assert D.matrices[6][i][jt] == ref[6][i][jt] == (3,)   # theta -> p eps


def test_perfectoid_gamma_entries_closed_form():
    # in the basis gamma'_a the gamma entry is the integer (p-1)! (floor(a/p))_(p')
    for p, bound in ((2, 50), (3, 74), (5, 122), (7, 142)):
        D, module = theta_perfectoid(p, bound), DPModule(p, bound)
        for a in range(p, bound // 2 + 1):
            q = a // p
            while q % p == 0:
                q //= p
            d = 2 * a
            i, j = module.index[d - 1][a - p, 0, 1], module.index[d][a, 0, 0]
            assert D.matrices[d][i][j] == (factorial(p - 1) * q,), (p, a)


@pytest.mark.parametrize("build, args", [
    (theta_perfectoid, (2, 42)), (theta_perfectoid, (3, 62)),
    (theta_perfectoid, (5, 102)), (theta_zpn, (3, 2, 32)), (theta_zpn, (3, 3, 32)),
    # the benchmark's bounds, then larger primes and n
    (theta_perfectoid, (2, 50)), (theta_perfectoid, (3, 74)),
    (theta_perfectoid, (5, 122)), (theta_zpn, (3, 2, 52)), (theta_zpn, (3, 3, 52)),
    (theta_perfectoid, (7, 142)), (theta_zpn, (5, 3, 62)), (theta_zpn, (7, 4, 62)),
])
def test_operator_matrices_match_leibniz_reference(build, args):
    # the closed form against the Leibniz sum on every label, eps-labels too
    p, bound = args[0], args[-1]
    scale = (lambda k: 1) if build is theta_perfectoid else (
        lambda k: p ** (args[1] - 2 + k))
    D = build(*args)
    module = DPModule(p, bound)
    assert D.matrices == reference_matrices(module, reference_operator(p, bound, scale))
    assert D.bases == module.bases


def test_operators_build_no_series(monkeypatch):
    made = []
    real = TruncPoly.__init__
    monkeypatch.setattr(TruncPoly, "__init__",
                        lambda self, *a, **kw: made.append(1) or real(self, *a, **kw))
    theta_perfectoid(5, 122)
    theta_zpn(3, 3, 52)
    assert not made


def test_eps_label_image_is_eps_times_eps_free_image():
    # generator values without eps: D(x eps) = D(x) eps is nonzero, so the
    # eps rule is not "eps-labels map to 0"
    p = 3
    one = dp_monomial((0, 0, 0), 1)
    values = {k: one for k in range(4)}
    eps = dp_monomial((0, 0, 1), 1)
    der = PDerivation(p, values, one)
    labels = [(a, b) for a in range(30) for b in range(4) if a or b]
    eps_images = {(a, b): der.apply_monomial((a, b, 1)) for a, b in labels}
    for a, b in labels:
        free = leibniz_reference(der, (a, b, 0))
        assert not free.is_zero(), (a, b)
        assert eps_images[a, b] == free * eps == leibniz_reference(der, (a, b, 1)), (a, b)
        assert der.apply_monomial((a, b, 0)) == free, (a, b)


def test_theta_zpn_rejects_two():
    with pytest.raises(InvalidInputError):
        theta_zpn(2, 2, 10)


def test_operator_rejects_a_non_integral_gamma_entry():
    # g_1 = 1/3 puts (1/3) 3!/3 = 2/3 at gamma'_3 -> eps
    with pytest.raises(IdentityError, match="non-integral") as exc:
        dpops._operator(3, 12, {1: Fraction(1, 3)})
    assert exc.value.where == {"p": 3, "a": 3}


# ---------------------------------------------------------------------------
# psi eigenvalues

def test_psi_small_values():
    assert psi_eigenvalues(2, 1, 5) == (5,)
    assert psi_eigenvalues(2, 3, 3) == (3, -3, -24)
    for p in (2, 3, 5):
        for m in (-3, 0, 1, 7):
            psi = psi_eigenvalues(p, 3, m)
            assert psi[0] == m
            assert psi[1] == (m - m**p) // p


def test_psi_matches_displayed_formula():
    # displayed second component, evaluated at x d/dx = m
    def psi2_display(p, m):
        s = sum((-1) ** j * comb(p, j) * Fraction(m) ** ((p - 1) * (j + 1))
                for j in range(p + 1))
        inner = 1 - Fraction(m) ** (p**2 - 1) - Fraction(1, p ** (p - 1)) * s
        return Fraction(m, p**2) * inner

    for p in (2, 3):
        for m in range(-6, 7):
            assert psi_eigenvalues(p, 3, m)[2] == psi2_display(p, m)
    # the report's integer form of the same display: its (p, m) grid, and
    # negative m at p up to 7
    cases = [(p, m) for p in targets.PSI_PRIMES for m in range(targets.PSI_M_MAX + 1)]
    cases += [(p, m) for p in (2, 3, 5, 7) for m in range(-50, 0)]
    assert len(cases) == 603 + 200
    for p, m in cases:
        assert targets.psi2_display(p, m) == psi2_display(p, m), (p, m)


def test_psi_integrality_and_fermat():
    for p in (2, 3, 5):
        for m in range(0, 201):
            psi = psi_eigenvalues(p, 5, m)
            for c in psi:
                assert isinstance(c, int)
                assert (c**p - c) % p == 0


def test_psi_tensor():
    assert psi_tensor_check(2, 3, 0, 5)
    assert psi_tensor_check(2, 3, 1, 2)
    assert psi_tensor_check(3, 4, -7, 7)
    rng = random.Random(79)
    for p in (2, 3, 5):
        for _ in range(20):
            a, b = rng.randrange(-50, 51), rng.randrange(-50, 51)
            assert psi_tensor_check(p, 3, a, b)


# ---------------------------------------------------------------------------
# divided-power Weyl operators

def test_weyl_first_commutator_is_identity():
    rep = dp_weyl_operators(2, 1, 10)
    assert rep["commutators"][1]


def test_weyl_commutators():
    for p, n, M in ((2, 3, 50), (3, 3, 50)):
        rep = dp_weyl_operators(p, n, M)
        for j in range(n):
            assert rep["commutators"][p**j]
        for j in range(1, n):
            assert rep["unit_multiple"][p**j]


def test_weyl_binomial_action():
    rep = dp_weyl_operators(2, 2, 6)
    # del^[2](x^m) = C(m,2) x^(m-2)
    assert rep["del"][2] == sparse([[comb(m, 2) if m == r + 2 else 0 for m in range(7)]
                                    for r in range(7)])


# ---------------------------------------------------------------------------
# delta-ring divisibility

def test_delta_ring_context_phi_is_ring_map():
    ctx = DeltaRingContext(3, 10)
    u = ctx.u
    f, g = (1 + u, 0), (2 + u**2, 1)  # 1 + u and (2 + u^2)/3
    assert ctx.phi(ctx.mul(f, g)) == ctx.mul(ctx.phi(f), ctx.phi(g))
    assert ctx.phi(ctx.add(f, g)) == ctx.add(ctx.phi(f), ctx.phi(g))
    # phi(q) = q^p with q = 1+u
    assert ctx.phi((1 + u, 0)) == ((1 + u) ** 3, 0)


def test_delta_ring_delta_identity():
    ctx = DeltaRingContext(3, 10)
    for f in ((1 + ctx.u, 0), (1 + ctx.u, 2), (3 * ctx.u + ctx.u**4, 1)):
        # phi(f) = f^p + p delta(f)
        N, s = f
        three = (TruncPoly.const(ctx.ring, 3), 0)
        assert ctx.phi(f) == ctx.add((N**3, 3 * s), ctx.mul(three, ctx.delta(f)))


def test_pairs_are_canonical():
    # s is the least exponent that leaves N integral, and zero is (0, 0)
    ctx = DeltaRingContext(3, 6)
    u = ctx.u
    assert ctx.pair(9 * u + 18 * u**2, 3) == (u + 2 * u**2, 1)
    assert ctx.pair(9 * u + 18 * u**2, 1) == (3 * u + 6 * u**2, 0)
    assert ctx.pair(3 * u + u**2, 4) == (3 * u + u**2, 4)
    assert ctx.pair(0 * u, 5) == (0 * u, 0)
    assert ctx.add((u, 1), (2 * u, 1)) == (u, 0)
    assert ctx.add((u, 2), (-u, 2)) == (0 * u, 0)
    assert ctx.mul((3 * u, 1), (u, 2)) == (u**2, 2)


def test_p_q_inverse_remainder_is_an_identity_error():
    # [3]_q with its u-coefficient 4 instead of 3: 1/f has valuation -(n+1)
    # at u^n, below the -1 - floor(n/2) of 1/[3]_q from n = 2 on, and below
    # the start exponent s = 6 of K = 12 at u^6
    with pytest.raises(IdentityError, match="not over 3") as exc:
        _p_q_inverse(3, [3, 4, 1], 12)
    assert exc.value.where == {"p": 3, "u_degree": 6}


def test_delta_ring_check_p3():
    rep = delta_ring_check(3, 1, 2, K=18)
    assert rep["all_ok"]
    for row in rep["rows"]:
        assert row["phi_delta_divisible"]
        assert row["power_identity_divisible"]
        assert row["frobenius_identity"]


def test_delta_ring_check_base_case_p2():
    rep = delta_ring_check(2, 1, 1, K=10)
    assert rep["all_ok"]


def test_envelope_lattice_leaves_no_reference_cycles():
    # the closure's working state must be freed with the lattice, not held
    # by a reference cycle until the next cyclic collection
    _, _, generators = envelope(3, 1, 0, 12)
    gc.collect()
    gc.disable()
    try:
        lattice = ZpLattice(3, 12, generators)
        assert lattice.scale > max(s for _, s in generators)  # took the raise path
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(lattice.basis) == 12


def test_delta_ring_check_precision_guard():
    with pytest.raises(PrecisionError):
        delta_ring_check(3, 10, 1, K=18)


def test_delta_ring_check_gates_frobenius_identity(monkeypatch):
    # delta built from phi(f) + p*u^(K-1) instead of ctx.phi: every quotient
    # stays p-integral, so only the Frobenius identity can fail the check
    true_delta = DeltaRingContext.delta
    monkeypatch.setattr(DeltaRingContext, "delta",
                        lambda self, f: self.add(true_delta(self, f),
                                                 (self.u ** (self.K - 1), 0)))
    rep = delta_ring_check(3, 1, 1, K=12)
    assert all(row["phi_delta_divisible"] and row["power_identity_divisible"]
               for row in rep["rows"])
    assert not any(row["frobenius_identity"] for row in rep["rows"])
    assert not rep["all_ok"]


# ---------------------------------------------------------------------------
# the Fraction reference: the delta ring as it ran on Fraction coefficients
# before its integer pairs


def coeff_vector(poly, K):
    return [Fraction(poly.coeff((j,))) for j in range(K)]


def pair_of(p, vector):
    """A vector of rationals as a pair (N, s) up to a unit: with D = p^s*w
    the lcm of the denominators, w prime to p, N = D*vector is N/p^s =
    w*vector, which lies in a Z_(p)-module exactly when the vector does."""
    D = reduce(lcm, (Fraction(x).denominator for x in vector), 1)
    s = 0
    while D % p ** (s + 1) == 0:
        s += 1
    return [int(x * D) for x in vector], s


class FractionDeltaRing:
    """Reference: Z_p[q]/(q-1)^K over Fraction coefficients in u = q-1, with
    1/[p]_q by the series-inverse recurrence h_0 = 1/d_0, h_n = -h_0
    sum_(k=1..n) d_k h_(n-k), phi by substituting phi(u) for u, and
    delta(f) = (phi(f) - f^p)/p."""

    def __init__(self, p, K):
        self.p = p
        self.ring = PolyRing(vars=("u",), bounds=(K - 1,))
        self.u = TruncPoly.var(self.ring, "u")
        self.phi_u = (1 + self.u) ** p - 1
        d = [comb(p, k + 1) for k in range(K)]  # [p]_q = phi(u)/u
        h = [Fraction(1, d[0])]
        for n in range(1, K):
            h.append(-h[0] * sum(d[k] * h[n - k] for k in range(1, n + 1)))
        self.d_inv = TruncPoly(self.ring, {(n,): c for n, c in enumerate(h)})

    def phi(self, f):
        return f.substitute({"u": self.phi_u})

    def delta(self, f):
        return (self.phi(f) - f**self.p).map_coeffs(lambda c: Fraction(c, self.p))


def as_fraction(ctx, f):
    """The pair f = (N, s) of ctx as the Fraction series N/p^s."""
    N, s = f
    return N.map_coeffs(lambda c: Fraction(c, ctx.p**s))


def reference_iterates(p, n, B, K):
    ref = FractionDeltaRing(p, K)
    iters = [ref.u ** (n * (p - 1)) * ref.d_inv]
    for _ in range(B + 3):
        iters.append(ref.delta(iters[-1]))
    return ref, iters


def reference_delta_ring_check(p, n, B, K):
    """delta_ring_check's document computed on the Fraction reference, with
    membership decided by ZpLattice on the same generators."""
    if n * (p - 1) >= K:
        raise PrecisionError(f"truncation K={K} kills x = u^{n*(p-1)}")
    ref, iters = reference_iterates(p, n, B, K)
    lattice = ZpLattice(p, K, [pair_of(p, coeff_vector(f, K)) for f in iters])
    rows = []
    for k in range(B + 1):
        phi_dk, lhs = ref.phi(iters[k]), iters[k] ** p + p * iters[k + 1]
        rows.append({"k": k,
                     "phi_delta_divisible": member(lattice, coeff_vector(phi_dk * ref.d_inv, K)),
                     "power_identity_divisible": member(lattice,
                                                        coeff_vector(lhs * ref.d_inv, K)),
                     "frobenius_identity": phi_dk == lhs})
    all_ok = all(v for row in rows for v in row.values() if isinstance(v, bool))
    return {"p": p, "n": n, "B": B, "K": K, "N": 12, "rows": rows, "all_ok": all_ok}


DELTA_GRID = [(p, n, B, K) for p in (3, 5, 7) for n in (1, 2) for B in (0, 1, 2)
              for K in (12, 18)]


@pytest.mark.parametrize("p, n, B, K", DELTA_GRID,
                         ids=[f"{p}-{n}-{B}-{K}" for p, n, B, K in DELTA_GRID])
def test_delta_ring_check_matches_fraction_reference(p, n, B, K):
    if n * (p - 1) >= K:
        for check in (delta_ring_check, reference_delta_ring_check):
            with pytest.raises(PrecisionError):
                check(p, n, B, K=K)
        return
    assert delta_ring_check(p, n, B, K=K) == reference_delta_ring_check(p, n, B, K)
    # and every series on the way, as a value
    ctx, iters, _ = envelope(p, n, B, K)
    ref, ref_iters = reference_iterates(p, n, B, K)
    assert as_fraction(ctx, ctx.d_inv) == ref.d_inv
    assert [as_fraction(ctx, f) for f in iters] == ref_iters
    for f, g in zip(iters, ref_iters):
        assert as_fraction(ctx, ctx.mul(ctx.phi(f), ctx.d_inv)) == ref.phi(g) * ref.d_inv


def test_pair_arithmetic_matches_fractions():
    # seeded pairs, canonical or not: every result is the Fraction
    # reference's value, as a canonical pair
    rng = random.Random(61)
    for p in (2, 3, 5):
        ctx, ref = DeltaRingContext(p, 8), FractionDeltaRing(p, 8)

        def draw():
            N = TruncPoly(ctx.ring, {(j,): rng.randrange(-30, 31) * p ** rng.randrange(3)
                                     for j in range(8) if rng.random() < 0.6})
            return N, rng.randrange(4)

        def value(f):
            N, s = f
            assert s >= 0 and (s == 0 or any(c % p for c in N.terms.values()))
            return as_fraction(ctx, f)

        for _ in range(40):
            f, g = draw(), draw()
            assert value(ctx.pair(*f)) == as_fraction(ctx, f)
            assert value(ctx.add(f, g)) == as_fraction(ctx, f) + as_fraction(ctx, g)
            assert value(ctx.mul(f, g)) == as_fraction(ctx, f) * as_fraction(ctx, g)
            assert value(ctx.phi(f)) == ref.phi(as_fraction(ctx, f))
            assert value(ctx.delta(f)) == ref.delta(as_fraction(ctx, f))


# ---------------------------------------------------------------------------
# Z_(p)-lattice membership


class FractionLattice:
    """Reference oracle: row echelon of Fraction vectors over Z_(p), the
    algorithm ZpLattice used before it worked modulo p^c."""

    def __init__(self, p, K, vectors):
        self.p = p
        self.K = K
        self.basis = {}
        queue = [list(v) for v in vectors]
        while queue:
            v = queue.pop()
            r = 0
            while r < self.K:
                if v[r] == 0:
                    r += 1
                    continue
                b = self.basis.get(r)
                if b is None:
                    self.basis[r] = v
                    break
                if fraction_valuation(self.p, v[r]) < fraction_valuation(self.p, b[r]):
                    self.basis[r] = v
                    queue.append(b)
                    break
                f = v[r] / b[r]
                v = [a - f * c for a, c in zip(v, b)]

    def contains(self, vector):
        t = list(vector)
        for r in range(self.K):
            if t[r] == 0:
                continue
            b = self.basis.get(r)
            if b is None:
                return False
            f = t[r] / b[r]
            if fraction_valuation(self.p, f) < 0:
                return False
            t = [a - f * c for a, c in zip(t, b)]
        return all(x == 0 for x in t)


def fraction_envelope(ref, iters, K):
    """Reference oracle: the delta-envelope generators as Fraction vectors,
    built by TruncPoly products of the Fraction reference's iterates."""
    vectors = []

    def rec(i, poly):
        if i == len(iters):
            while not poly.is_zero():
                vectors.append(coeff_vector(poly, K))
                poly = poly * ref.u
            return
        while not poly.is_zero():
            rec(i + 1, poly)
            poly = poly * iters[i]

    rec(0, TruncPoly.const(ref.ring, 1))
    return vectors


F = Fraction


def envelope(p, n, B, K):
    """The iterates delta_ring_check(p, n, B, K) builds, as pairs, with
    their integer vectors."""
    ctx = DeltaRingContext(p, K)
    iters = [ctx.mul((ctx.u ** (n * (p - 1)), 0), ctx.d_inv)]
    for _ in range(B + 3):
        iters.append(ctx.delta(iters[-1]))
    return ctx, iters, [_integer_vector(f, K) for f in iters]


def member(lattice, vector):
    """ZpLattice.contains on a vector of rationals, through pair_of."""
    return lattice.contains(pair_of(lattice.p, vector))


def test_zp_lattice_hand_built():
    # F = u^2/3 + u^3/9 with F^2 = 0 in Q[u]/u^4:
    # L = Z_(3)^4 + Z_(3)*(0, 0, 1/3, 1/9) + Z_(3)*(0, 0, 0, 1/3), the last one u*F
    lat = ZpLattice(3, 4, [([0, 0, 3, 1], 2)])
    assert len(lat.basis) == 4
    assert lat.valuations == [2, 2, 1, 1]
    for v in [(0, 0, 0, 0), (1, -5, 0, 0), (0, 0, F(1, 3), F(1, 9)),
              (0, 0, F(2, 3), F(-1, 9)), (0, 0, 0, F(1, 3))]:
        assert member(lat, v), v
    for v in [(0, 0, F(1, 3), 0), (0, 0, F(1, 3), F(2, 9)), (0, 0, 0, F(-1, 9)),
              (F(1, 3), 0, 0, 0)]:
        assert not member(lat, v), v


def test_zp_lattice_pivot_with_unit_part():
    # F = 2u^2/3 + u^3/9; the pivot 6 = 3*2 mod 9 is scaled to 3
    lat = ZpLattice(3, 4, [([0, 0, 6, 1], 2)])
    assert member(lat, (0, 0, F(2, 3), F(1, 9)))
    assert member(lat, (0, 0, F(1, 3), F(2, 9)))
    assert not member(lat, (0, 0, F(1, 3), F(1, 9)))


def test_zp_lattice_mixed_denominator():
    # 2 and 7 are units in Z_(3), so only the 3-part of a denominator counts:
    # pair_of hands contains a unit multiple of each vector over 3^s
    lat = ZpLattice(3, 4, [([0, 0, 3, 1], 2)])
    assert lat.contains(([0, 0, 6, 2], 2)) and lat.contains(([0, 0, 21, 7], 2))
    assert not lat.contains(([0, 0, 6, 4], 2))
    assert member(lat, (0, 0, F(1, 6), F(1, 18)))
    assert member(lat, (F(1, 2), F(5, 7), 0, 0))
    assert member(lat, (0, 0, F(5, 2 * 3), F(-1, 2 * 7 * 9)))
    assert not member(lat, (0, 0, F(1, 6), F(1, 9)))
    assert not member(lat, (0, 0, 0, F(1, 2 * 9)))


def test_zp_lattice_denominator_deeper_than_generators():
    lat = ZpLattice(3, 4, [([0, 0, 3, 1], 2)])
    assert lat.scale == 2
    assert not member(lat, (0, 0, F(1, 27), 0))
    assert not member(lat, (0, 0, F(1, 54), F(1, 54)))
    assert not member(lat, (0, 0, 0, F(1, 3**12)))
    # a pair over a deeper power of p than the scale, divisible by the excess
    assert lat.contains(([0, 0, 0, 27], 4)) and not lat.contains(([0, 0, 0, 3], 4))


def test_zp_lattice_reinserts_replaced_pivot():
    # F = u^2/3 + u^3/27 with F^2 = 0 and u*F = u^3/3: L contains
    # 3F - u^2 = u^3/9, which no product or shift gives; finding it needs the
    # old pivot row 27*e_2, reduced by 27*F, inserted again
    lat = ZpLattice(3, 4, [([0, 0, 9, 1], 3)])
    assert lat.valuations == [3, 3, 2, 1]
    assert member(lat, (0, 0, 0, F(1, 9)))
    assert member(lat, (0, 0, F(1, 3), F(1, 27) + 5))
    assert not member(lat, (0, 0, 0, F(1, 27)))
    assert not member(lat, (0, 0, F(1, 3), 0))


def test_zp_lattice_is_closed_under_its_generators():
    # u/3 squares to u^2/9, so the scale rises past the generator's s = 1
    lat = ZpLattice(3, 3, [([0, 1, 0], 1)])
    assert (lat.scale, lat.valuations) == (2, [2, 1, 0])
    assert member(lat, (0, F(1, 3), F(1, 9)))
    assert not member(lat, (0, 0, F(1, 27)))
    # no generators: Z_(3)^K itself
    lat = ZpLattice(3, 2, [])
    assert lat.scale == 0
    assert member(lat, (F(1, 2), -7))
    assert not member(lat, (F(1, 3), 0))


def test_zp_lattice_rejects_fractional_constant_term():
    # (1 + u)/3 has powers (1 + k*u)/3^k: no scale puts L inside Z_(3)^K
    with pytest.raises(IdentityError, match="constant term") as exc:
        ZpLattice(3, 2, [([1, 1], 1)])
    assert exc.value.where == {"p": 3, "generator": 0}
    # an integral constant term is fine: 1 + u/3 generates the same L as u/3
    assert ZpLattice(3, 2, [([3, 1], 1)]).valuations == [1, 0]


ORACLE_CASES = [(2, 10, 1, 1), (3, 12, 2, 1), (5, 18, 2, 1), (7, 18, 2, 1),
                (2, 12, 0, 1), (2, 10, 2, 2), (3, 12, 2, 2), (5, 18, 2, 2),
                (7, 20, 2, 2)]


@pytest.mark.parametrize("p, K, B, n", ORACLE_CASES, ids=[
    f"{p}-{K}-{B}" + (f"-n{n}" if n > 1 else "") for p, K, B, n in ORACLE_CASES])
def test_zp_lattice_matches_fraction_oracle(p, K, B, n):
    _, _, generators = envelope(p, n, B, K)
    lattice = ZpLattice(p, K, generators)
    ref, iters = reference_iterates(p, n, B, K)
    oracle = FractionLattice(p, K, fraction_envelope(ref, iters, K))
    assert len(lattice.basis) == len(oracle.basis) == K
    quotients = []
    for k in range(B + 1):
        dk = iters[k]
        quotients.append(coeff_vector(ref.phi(dk) * ref.d_inv, K))
        quotients.append(coeff_vector((dk**p + p * iters[k + 1]) * ref.d_inv, K))
    unit = p + 1
    steps = [F(1, unit), F(1, p), F(1, p**2), F(1, p * unit),
             F(1, p ** (lattice.scale + 1))]
    queries = list(quotients)
    for q in quotients:
        for i in range(K):
            for step in steps:
                v = list(q)
                v[i] += step
                queries.append(v)
    got = [member(lattice, v) for v in queries]
    assert got == [oracle.contains(v) for v in queries]
    assert all(got[:len(quotients)])
    assert not all(got)


@pytest.mark.parametrize("p, K, B, scale, largest_s", [
    (3, 12, 2, 6, 5), (2, 12, 0, 19, 15)])
def test_zp_lattice_raises_scale_past_generators(p, K, B, scale, largest_s):
    # products of iterates have deeper denominators than any iterate, so the
    # closure raises its modulus past max s_k; the oracle test runs the same
    # (p, K, B) and checks membership against FractionLattice
    ctx, iters, generators = envelope(p, 1, B, K)
    lattice = ZpLattice(p, K, generators)
    assert max(s for _, s in generators) == largest_s
    assert lattice.scale == scale > largest_s
    assert min(lattice.valuations) == 0  # no smaller scale would do
    for f in iters:
        for g in iters:
            assert lattice.contains(_integer_vector(ctx.mul(f, ctx.mul(g, g)), K))


def test_envelope_closure_makes_few_products(monkeypatch):
    # the closure multiplies each distinct basis row by each iterate once;
    # walking every monomial of the envelope took 5,004 products here
    calls = []
    real = dpops._mul_trunc
    monkeypatch.setattr(dpops, "_mul_trunc", lambda *a: calls.append(1) or real(*a))
    assert delta_ring_check(3, 1, 2)["all_ok"]
    assert len(calls) <= 300
    # p = 2 has no pruning to lose: the walk took about 21 s here
    calls.clear()
    assert delta_ring_check(2, 1, 3, K=18)["all_ok"]
    assert len(calls) <= 300
