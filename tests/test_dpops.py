import random
from fractions import Fraction
from math import comb

import pytest

from wittsen.exactalg import (
    InvalidInputError,
    PLocalOps,
    PrecisionError,
    TruncPoly,
    fraction_valuation,
    matrix_product,
)
from wittsen.dpops import (
    DeltaRingContext,
    ZpLattice,
    _coeff_vector,
    _envelope_lattice,
    DPBasisMonomial,
    DPElement,
    DPModule,
    PDerivation,
    delta_ring_check,
    derivation_matrices,
    dp_multiply,
    dp_weyl_operators,
    gamma_factorization_unit,
    perfectoid_gamma_values,
    psi_eigenvalues,
    psi_tensor_check,
    theta_perfectoid,
    theta_zpn,
)


# ---------------------------------------------------------------------------
# divided-power arithmetic

def test_dp_multiply_examples():
    assert dp_multiply(2, 3) == (10, 5)
    # gamma_1^j = j! gamma_j
    elt = DPElement.monomial(1)
    acc = DPElement.monomial(0)
    for _ in range(4):
        acc = acc * elt
    assert acc.terms == {DPBasisMonomial(4, 0, 0): 24}


def test_gamma_square_unit_factorization():
    # p=2: gamma_2^2 = 6 gamma_4 and 6 = 2 * 3 with 3 the 2-adic unit part
    sq = DPElement.monomial(2) * DPElement.monomial(2)
    assert sq.terms == {DPBasisMonomial(4, 0, 0): 6}
    assert gamma_factorization_unit(2, 4) == 1  # 4 = 2^2 alone
    assert gamma_factorization_unit(2, 3) == 3  # 3!/2! = 3
    assert fraction_valuation(2, gamma_factorization_unit(2, 3)) == 0


def test_unit_lemma_full_range():
    # v_p(c_m) = v_p(m!) - sum m_k v_p(p^k!) via Legendre, for every m <= 10^4
    from wittsen.exactalg import factorial_valuation
    from wittsen.dpops import base_p_digits

    for p in (2, 3, 5):
        for m in range(1, 10**4 + 1):
            total = factorial_valuation(p, m)
            for k, mk in enumerate(base_p_digits(m, p)):
                total -= mk * factorial_valuation(p, p**k)
            assert total == 0, (p, m)


def test_unit_lemma_matches_explicit_factorials():
    rng = random.Random(71)
    for p in (2, 3, 5):
        for _ in range(30):
            m = rng.randrange(1, 2000)
            assert fraction_valuation(p, gamma_factorization_unit(p, m)) == 0


# ---------------------------------------------------------------------------
# derivation extension

def test_zero_values_give_zero_map():
    module = DPModule(3, 20)
    D = derivation_matrices(module, PDerivation(3, {0: DPElement()}, DPElement()))
    assert not D.matrices


def test_first_gamma_only_pattern():
    # D(gamma_(p^k)) = 0 for k >= 1, D(gamma_1) = 1: then D(gamma_m) is a unit
    # multiple of gamma_(m-1) whenever m is not 0 mod p
    p = 3
    der = PDerivation(p, {0: DPElement.monomial(0)}, DPElement())
    for m in range(1, 30):
        img = der.d_gamma(m)
        if m % p == 0:
            assert img.is_zero()
        else:
            assert len(img.terms) == 1
            mono, c = next(iter(img.terms.items()))
            assert mono == DPBasisMonomial(m - 1, 0, 0)
            assert fraction_valuation(p, c) == 0


def test_theta_action_on_theta_powers():
    # D(theta) = p on Z_p[theta]: D(theta^j) = j p theta^(j-1)
    p = 3
    der = PDerivation(p, {}, DPElement.monomial(0, 0, 0, coeff=p))
    for j in range(1, 6):
        img = der.apply_monomial(DPBasisMonomial(0, j, 0))
        assert img.terms == {DPBasisMonomial(0, j - 1, 0): j * p}


def test_perfectoid_generator_values():
    vals = perfectoid_gamma_values(3, 60)
    # gamma_p -> eps exactly (empty product, normalization)
    assert vals[1].terms == {DPBasisMonomial(0, 0, 1): 1}
    # gamma_(p^2) -> unit * gamma_(p^2-p) eps, and the unit differs from the
    # expanded product gamma_3^(p-1) = C(6,3) gamma_6 by a p-adic unit only
    mono, c = next(iter(vals[2].terms.items()))
    assert mono == DPBasisMonomial(6, 0, 1)
    assert fraction_valuation(3, c) == 0
    assert fraction_valuation(3, c / comb(6, 3)) == 0


def test_perfectoid_leibniz():
    # Leibniz holds exactly on products without a base-p carry in digit 0;
    # a digit-0 carry passes through the gamma_1-power relation, where the
    # degree-forced value D(gamma_1) = 0 admits no compatible unit.
    for p in (2, 3):
        der = PDerivation(p, perfectoid_gamma_values(p, 60),
                          DPElement.monomial(0, 0, 1, coeff=p))
        rng = random.Random(73)
        for _ in range(60):
            a = DPBasisMonomial(rng.randrange(0, 12), rng.randrange(0, 3), 0)
            b = DPBasisMonomial(rng.randrange(0, 12), rng.randrange(0, 3), 0)
            ab = DPElement({a: 1}) * DPElement({b: 1})
            lhs = der.apply(ab)
            rhs = der.apply_monomial(a) * DPElement({b: 1}) \
                + DPElement({a: 1}) * der.apply_monomial(b)
            if a.a % p + b.a % p < p:
                assert lhs == rhs, (p, a, b)


def test_perfectoid_leibniz_failure_locus_is_digit_zero():
    p = 2
    der = PDerivation(p, perfectoid_gamma_values(p, 60),
                      DPElement.monomial(0, 0, 1, coeff=p))
    for i in range(12):
        for j in range(12):
            a, b = DPBasisMonomial(i, 0, 0), DPBasisMonomial(j, 0, 0)
            ab = DPElement({a: 1}) * DPElement({b: 1})
            lhs = der.apply(ab)
            rhs = der.apply_monomial(a) * DPElement({b: 1}) \
                + DPElement({a: 1}) * der.apply_monomial(b)
            assert (lhs == rhs) == (i % p + j % p < p), (i, j)


def test_theta_perfectoid_structure():
    D = theta_perfectoid(2, 20)
    assert D.meta["valuation_identity"]
    # theta^2 -> 2p theta eps at p=2: source degree 8, target degree 7
    module = DPModule(2, 20)
    src = module.bases[8]
    tgt = module.bases[7]
    j = src.index(DPBasisMonomial(0, 2, 0))
    i = tgt.index(DPBasisMonomial(0, 1, 1))
    assert D.matrices[8][i][j] == 4
    # gamma_1(u) = u maps to zero (no target below)
    assert 2 not in D.matrices
    # squares to zero into the eps-line
    for d, mat in D.matrices.items():
        nxt = D.matrix(d - 1)
        prod = matrix_product(PLocalOps(2), nxt, mat, len(mat[0]))
        assert all(all(x == 0 for x in row) for row in prod)


def test_theta_zpn_scaling():
    D = theta_zpn(3, 2, 12)
    module = DPModule(3, 12)
    src = module.bases[6]
    tgt = module.bases[5]
    jg = src.index(DPBasisMonomial(3, 0, 0))
    jt = src.index(DPBasisMonomial(0, 1, 0))
    i = tgt.index(DPBasisMonomial(0, 0, 1))
    assert D.matrices[6][i][jg] == 3   # gamma_p(u) -> p^(n-1) eps, n=2
    assert D.matrices[6][i][jt] == 3   # theta -> p eps


def test_theta_zpn_rejects_two():
    with pytest.raises(InvalidInputError):
        theta_zpn(2, 2, 10)


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
    D2 = rep["del"][2]
    # del^[2](x^m) = C(m,2) x^(m-2)
    for m in range(2, 7):
        assert D2[m - 2][m] == comb(m, 2)


# ---------------------------------------------------------------------------
# delta-ring divisibility

def test_delta_ring_context_phi_is_ring_map():
    ctx = DeltaRingContext(3, 10)
    u = ctx.u
    f, g = 1 + u, 2 + u**2
    assert ctx.phi(f * g) == ctx.phi(f) * ctx.phi(g)
    assert ctx.phi(f + g) == ctx.phi(f) + ctx.phi(g)
    # phi(q) = q^p with q = 1+u
    assert ctx.phi(1 + u) == (1 + u) ** 3


def test_delta_ring_delta_identity():
    ctx = DeltaRingContext(3, 10)
    f = 1 + ctx.u
    # phi(f) = f^p + p delta(f)
    assert ctx.phi(f) == f**3 + 3 * ctx.delta(f)


def test_delta_ring_check_p3():
    rep = delta_ring_check(3, 1, 2, K=18, N=12)
    assert rep["all_ok"]
    for row in rep["rows"]:
        assert row["phi_delta_divisible"]
        assert row["power_identity_divisible"]
        assert row["frobenius_identity"]


def test_delta_ring_check_base_case_p2():
    rep = delta_ring_check(2, 1, 1, K=10, N=8)
    assert rep["all_ok"]


def test_delta_ring_check_precision_guard():
    with pytest.raises(PrecisionError):
        delta_ring_check(3, 10, 1, K=18)


def test_delta_ring_check_gates_frobenius_identity(monkeypatch):
    # delta built from phi(f) + p*u^(K-1) instead of ctx.phi: every quotient
    # stays p-integral, so only the Frobenius identity can fail the check
    true_delta = DeltaRingContext.delta
    monkeypatch.setattr(DeltaRingContext, "delta",
                        lambda self, f: true_delta(self, f) + self.u ** (self.K - 1))
    rep = delta_ring_check(3, 1, 1, K=12)
    assert all(row["phi_delta_divisible"] and row["power_identity_divisible"]
               for row in rep["rows"])
    assert not any(row["frobenius_identity"] for row in rep["rows"])
    assert not rep["all_ok"]


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


def fraction_envelope(ctx, iters, K):
    """Reference oracle: the delta-envelope generators as Fraction vectors,
    built by TruncPoly products."""
    vectors = []

    def rec(i, poly):
        if i == len(iters):
            while not poly.is_zero():
                vectors.append(_coeff_vector(poly, K))
                poly = poly * ctx.u
            return
        while not poly.is_zero():
            rec(i + 1, poly)
            poly = poly * iters[i]

    rec(0, TruncPoly.const(ctx.ring, 1))
    return vectors


F = Fraction


def test_zp_lattice_hand_built():
    # L = Z_(3)^2 + Z_(3)*(1/3, 1/3)
    lat = ZpLattice(3, 2, [([1, 0], 0), ([0, 1], 0), ([1, 1], 1)])
    assert len(lat.basis) == 2
    for v in [(0, 0), (1, -5), (F(1, 3), F(1, 3)), (F(2, 3), F(-1, 3))]:
        assert lat.contains(v), v
    for v in [(F(1, 3), 0), (F(1, 3), F(2, 3)), (0, F(-1, 3))]:
        assert not lat.contains(v), v


def test_zp_lattice_pivot_with_unit_part():
    # L = Z_(3)^2 + Z_(3)*(2/3, 1/3); the pivot 2 is scaled to 1 mod 3
    lat = ZpLattice(3, 2, [([1, 0], 0), ([0, 1], 0), ([2, 1], 1)])
    assert lat.contains((F(2, 3), F(1, 3)))
    assert lat.contains((F(1, 3), F(2, 3)))
    assert not lat.contains((F(1, 3), F(1, 3)))


def test_zp_lattice_mixed_denominator():
    # 2 and 7 are units in Z_(3), so only the 3-part of a denominator counts
    lat = ZpLattice(3, 2, [([1, 0], 0), ([0, 1], 0), ([1, 1], 1)])
    assert lat.contains((F(1, 6), F(1, 6)))
    assert lat.contains((F(1, 2), F(5, 7)))
    assert lat.contains((F(5, 2 * 3), F(-1, 2 * 7 * 3)))
    assert not lat.contains((F(1, 6), F(1, 3)))
    assert not lat.contains((F(1, 2 * 3), 0))


def test_zp_lattice_denominator_deeper_than_generators():
    lat = ZpLattice(3, 2, [([1, 0], 0), ([0, 1], 0), ([1, 1], 1)])
    assert lat.scale == 1
    assert not lat.contains((F(1, 9), 0))
    assert not lat.contains((F(1, 18), F(1, 18)))
    assert not lat.contains((0, F(1, 3**12)))


def test_zp_lattice_reinserts_replaced_pivot():
    # L = span{(9,0), (0,9), (3,1)} contains 3*(3,1) - (9,0) = (0,3); finding
    # it needs the old pivot row 9*e_0, reduced by (3,1), inserted again
    lat = ZpLattice(3, 2, [([9, 0], 0), ([0, 9], 0), ([3, 1], 0)])
    assert lat.valuations == [1, 1]
    assert lat.contains((0, 3))
    assert lat.contains((6, 2 + 9))
    assert not lat.contains((0, 1))
    assert not lat.contains((1, 0))


def test_zp_lattice_requires_certificate():
    # full rank over Z_(3), but no generator lies on coordinate 0 alone
    with pytest.raises(InvalidInputError, match="certificate"):
        ZpLattice(3, 2, [([1, 1], 0), ([0, 1], 0)])
    with pytest.raises(InvalidInputError, match="certificate"):
        ZpLattice(3, 2, [])


@pytest.mark.parametrize("p, K, B", [(2, 10, 1), (3, 12, 2)])
def test_zp_lattice_matches_fraction_oracle(p, K, B):
    ctx = DeltaRingContext(p, K)
    iters = [ctx.u ** (p - 1) * ctx.d_inv]
    for _ in range(B + 3):
        iters.append(ctx.delta(iters[-1]))
    lattice = _envelope_lattice(ctx, iters, K)
    oracle = FractionLattice(p, K, fraction_envelope(ctx, iters, K))
    assert len(lattice.basis) == len(oracle.basis) == K
    quotients = []
    for k in range(B + 1):
        dk = iters[k]
        quotients.append(_coeff_vector(ctx.phi(dk) * ctx.d_inv, K))
        quotients.append(_coeff_vector((dk**p + p * iters[k + 1]) * ctx.d_inv, K))
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
    got = [lattice.contains(v) for v in queries]
    assert got == [oracle.contains(v) for v in queries]
    assert all(got[:len(quotients)])
    assert not all(got)
