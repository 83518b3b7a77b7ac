"""Divided-power algebra arithmetic and the operator calculus built on it:
derivation extensions over the gamma_(p^k) factorization, the degree-lowering
operators on the divided-power models, Witt-component eigenvalue tuples,
divided-power Weyl operators, and delta-ring divisibility checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd, prod

from .exactalg import (
    InvalidInputError,
    PLocalOps,
    PrecisionError,
    TruncPoly,
    factorial_valuation,
    fraction_valuation,
    matrix_product,
    require_prime,
    univariate_ring,
)
from .witt import WittContext, int_to_witt, witt_add, make_witt


# ---------------------------------------------------------------------------
# divided-power monomials gamma_a(u) * theta^b * eps^c


@dataclass(frozen=True)
class DPBasisMonomial:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.c not in (0, 1):
            raise InvalidInputError("bad divided-power monomial")

    def degree(self, weights) -> int:
        wa, wb, wc = weights
        return wa * self.a + wb * self.b + wc * self.c


def dp_multiply(i: int, j: int):
    """gamma_i * gamma_j = C(i+j, i) gamma_(i+j)."""
    return comb(i + j, i), i + j


class DPElement:
    """Finite combination of DPBasisMonomials with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for mono, c in (terms or {}).items():
            if c:
                self.terms[mono] = self.terms.get(mono, 0) + c
        self.terms = {m: c for m, c in self.terms.items() if c}

    @staticmethod
    def monomial(a=0, b=0, c=0, coeff=1):
        return DPElement({DPBasisMonomial(a, b, c): coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return DPElement(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return DPElement(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DPElement({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1.c + m2.c > 1:
                    continue  # eps^2 = 0
                coeff, a = dp_multiply(m1.a, m2.a)
                mono = DPBasisMonomial(a, m1.b + m2.b, m1.c + m2.c)
                out[mono] = out.get(mono, 0) + c1 * c2 * coeff
        return DPElement(out)

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items(), key=lambda kv: (kv[0].a, kv[0].b, kv[0].c)):
            s = f"{c}*g{m.a}"
            if m.b:
                s += f"*th^{m.b}"
            if m.c:
                s += "*eps"
            bits.append(s)
        return " + ".join(bits)


@dataclass
class DPModule:
    """Graded basis of gamma_a theta^b eps^c monomials up to a degree bound."""

    p: int
    bound: int
    weights: tuple = None  # (deg gamma_1, deg theta, deg eps)

    def __post_init__(self):
        require_prime(self.p)
        if self.weights is None:
            self.weights = (2, 2 * self.p, 2 * self.p - 1)
        self.bases = {d: [] for d in range(self.bound + 1)}
        wa, wb, wc = self.weights
        for c in (0, 1):
            if c and wc > self.bound:
                continue
            for b in range(0, (self.bound // wb) + 1 if wb else 1):
                rem_b = self.bound - wb * b - wc * c
                if rem_b < 0:
                    continue
                for a in range(0, rem_b // wa + 1):
                    m = DPBasisMonomial(a, b, c)
                    self.bases[m.degree(self.weights)].append(m)
        self.index = {
            d: {m: i for i, m in enumerate(basis)} for d, basis in self.bases.items()
        }


@dataclass
class GradedModule:
    """Degree -> ordered basis labels; the common input to the homology engine."""

    bases: dict

    def basis(self, d):
        return self.bases.get(d, [])


@dataclass
class GradedLinearMap:
    """Degree-lowering map D: M_d -> M_(d-shift); one matrix per degree.

    matrices[d] has len(basis(d-shift)) rows and len(basis(d)) columns.
    """

    module: GradedModule
    shift: int
    matrices: dict
    meta: dict = field(default_factory=dict)

    def matrix(self, d):
        tgt = len(self.module.basis(d - self.shift))
        src = len(self.module.basis(d))
        return self.matrices.get(d, [[0] * src for _ in range(tgt)])


# ---------------------------------------------------------------------------
# derivation extension over the gamma_(p^k) factorization


def base_p_digits(m: int, p: int):
    out = []
    while m:
        out.append(m % p)
        m //= p
    return out


def gamma_factorization_unit(p: int, m: int) -> Fraction:
    """c_m = m! / prod_k (p^k!)^(m_k); a p-adic unit by Legendre."""
    den = prod(factorial(p**k) ** mk for k, mk in enumerate(base_p_digits(m, p)))
    return Fraction(factorial(m), den)


class PDerivation:
    """Derivation on the divided-power module determined by its values on the
    generators gamma_(p^k)(u) and theta, extended through the factorization
    gamma_m = c_m * prod gamma_(p^k)^(m_k)."""

    def __init__(self, p: int, gamma_values: dict, theta_value: DPElement):
        self.p = p
        self.gamma_values = dict(gamma_values)
        self.theta_value = theta_value
        self._cache = {}

    def d_gamma(self, a: int) -> DPElement:
        if a in self._cache:
            return self._cache[a]
        p = self.p
        digits = base_p_digits(a, p)
        total = DPElement()
        for k, mk in enumerate(digits):
            if mk == 0:
                continue
            gen_val = self.gamma_values.get(k)
            if gen_val is None or gen_val.is_zero():
                continue
            rest = DPElement.monomial(0)
            for k2, mk2 in enumerate(digits):
                e = mk2 - (1 if k2 == k else 0)
                for _ in range(e):
                    rest = rest * DPElement.monomial(p**k2)
            total = total + mk * (rest * gen_val)
        out = total * Fraction(1, gamma_factorization_unit(p, a)) if a else DPElement()
        self._cache[a] = out
        return out

    def apply_monomial(self, mono: DPBasisMonomial) -> DPElement:
        if mono.c == 1:
            return DPElement()  # target already carries eps; eps^2 = 0
        out = DPElement()
        ga = DPElement.monomial(mono.a)
        th = DPElement.monomial(0, mono.b)
        da = self.d_gamma(mono.a)
        if not da.is_zero():
            out = out + da * th
        if mono.b:
            dth = mono.b * (DPElement.monomial(mono.a, mono.b - 1) * self.theta_value)
            out = out + dth
        return out

    def apply(self, elt: DPElement) -> DPElement:
        out = DPElement()
        for mono, c in elt.terms.items():
            out = out + c * self.apply_monomial(mono)
        return out


def derivation_matrices(module: DPModule, der: PDerivation) -> GradedLinearMap:
    """Assemble the degree-(-1) matrices of a derivation on the module."""
    gm = GradedModule(module.bases)
    matrices = {}
    for d, basis in module.bases.items():
        target = module.bases.get(d - 1, [])
        if not basis or not target:
            continue
        idx = module.index[d - 1]
        mat = [[Fraction(0)] * len(basis) for _ in range(len(target))]
        nonzero = False
        for j, mono in enumerate(basis):
            img = der.apply_monomial(mono)
            for m2, c in img.terms.items():
                if m2 in idx:
                    mat[idx[m2]][j] = c
                    nonzero = True
                elif c:
                    raise InvalidInputError(
                        f"derivation leaves the module at degree {d}"
                    )
        if nonzero:
            matrices[d] = mat
    return GradedLinearMap(gm, 1, matrices)


def perfectoid_gamma_values(p: int, bound: int) -> dict:
    """Generator values of the degree-lowering derivation on gamma-monomials.

    D(gamma_(p^k)(u)) = (p-1)! (p^k-p)!/(p^k-1)! * gamma_(p^k-p)(u) * eps.
    The coefficient is a p-adic unit (it is the expansion of the product
    prod_{j<k} gamma_(p^j)^(p-1) up to the normalization D(gamma_p) = eps)
    and these are the unique unit choices for which the extension satisfies
    the Leibniz rule through the relations gamma_(p^k)^p = p*unit*gamma_(p^(k+1)).
    """
    values = {0: DPElement()}
    k = 1
    while p**k <= bound:
        coeff = Fraction(factorial(p - 1) * factorial(p**k - p), factorial(p**k - 1))
        values[k] = DPElement.monomial(p**k - p, 0, 1, coeff=coeff)
        k += 1
    return values


def theta_perfectoid(p: int, bound: int) -> GradedLinearMap:
    """gamma_(p^k)(u) -> unit * gamma_(p^k - p)(u) eps (normalized so that
    gamma_p(u) -> eps exactly), theta -> p*eps; extended as a derivation."""
    module = DPModule(p, bound)
    gamma_values = perfectoid_gamma_values(p, bound)
    theta_value = DPElement.monomial(0, 0, 1, coeff=p)
    out = derivation_matrices(module, PDerivation(p, gamma_values, theta_value))
    out.meta["valuation_identity"] = factorial_unit_identity(p, gamma_values)
    return out


def factorial_unit_identity(p: int, gamma_values: dict) -> bool:
    """v_p((p^k-p)!/(p^k-1)!) = 0 = v_p(generator-value coefficient), and the
    underlying Legendre identity v_p((p^k-1)!) = sum_{j<k}(p^j-1)."""
    for k, val in gamma_values.items():
        if k == 0 or val.is_zero():
            continue
        ratio_val = factorial_valuation(p, p**k - p) - factorial_valuation(p, p**k - 1)
        if ratio_val != 0:
            return False
        legendre = factorial_valuation(p, p**k - 1)
        if legendre != sum(p**j - 1 for j in range(1, k)):
            return False
        coeff = next(iter(val.terms.values()))
        if fraction_valuation(p, coeff) != 0:
            return False
    return True


def theta_zpn(p: int, n: int, bound: int) -> GradedLinearMap:
    """The scaled variant on the same module; p odd, n >= 2.

    The value on gamma_p(u) is p^(n-1) * eps, as in the unscaled-picture
    display; the value on gamma_(p^k)(u) carries p^(n-2+k). The extra p-power
    per level is forced: the module's cohomology (an exact cokernel
    computation) determines the odd homology through universal coefficients,
    and a uniform p^(n-1) scaling is inconsistent with it from k = 2 on.
    """
    if p == 2:
        raise InvalidInputError("the scaled operator is defined for odd p only")
    require_prime(p)
    if n < 2:
        raise InvalidInputError("n >= 2 required")
    module = DPModule(p, bound)
    gamma_values = {k: v * p ** (n - 2 + k)
                    for k, v in perfectoid_gamma_values(p, bound).items()}
    theta_value = DPElement.monomial(0, 0, 1, coeff=p)
    out = derivation_matrices(module, PDerivation(p, gamma_values, theta_value))
    out.meta["scale"] = p ** (n - 1)
    out.meta["level_scales"] = {k: p ** (n - 2 + k) for k in gamma_values if k}
    return out


# ---------------------------------------------------------------------------
# Witt-component eigenvalue tuples


def psi_eigenvalues(p: int, n: int, m: int) -> tuple:
    """The unique integral solution of w_j(psi) = m for j < n: the Witt
    components of the integer m."""
    return int_to_witt(m, WittContext(p, n)).components


def psi_tensor_check(p: int, n: int, a: int, b: int) -> bool:
    """Tensoring weight-a and weight-b lines adds ghost components: the tuple
    of a+b is the Witt sum of the tuples of a and b."""
    ctx = WittContext(p, n)
    lhs = int_to_witt(a + b, ctx)
    rhs = witt_add(make_witt(ctx, psi_eigenvalues(p, n, a)),
                   make_witt(ctx, psi_eigenvalues(p, n, b)))
    return lhs == rhs


# ---------------------------------------------------------------------------
# divided-power Weyl operators


def dp_weyl_operators(p: int, n: int, M: int) -> dict:
    """Matrices of x and del^[p^j] (j < n) on span{x^0..x^M}, the commutator
    identity [del^[p^j], x] = del^[p^j - 1], and the valuation comparison for
    the unit-multiple statement."""
    require_prime(p)
    if M < 0:
        raise InvalidInputError("M must be >= 0")
    ops = PLocalOps(p)

    def del_k_matrix(k):
        mat = [[0] * (M + 1) for _ in range(M + 1)]
        for m in range(k, M + 1):
            mat[m - k][m] = comb(m, k)
        return mat

    x_mat = [[0] * (M + 1) for _ in range(M + 1)]
    for m in range(M):
        x_mat[m + 1][m] = 1

    report = {
        "x": x_mat,
        "del": {p**j: del_k_matrix(p**j) for j in range(n)},
        "commutators": {},
        "unit_multiple": {},
    }
    for j in range(n):
        k = p**j
        ok = True
        for m in range(0, M + 1):
            # functional identity, free of the matrix truncation edge
            lhs = comb(m + 1, k) - comb(m, k)
            rhs = comb(m, k - 1)
            if lhs != rhs:
                ok = False
        # matrix identity away from the top-degree truncation row
        D, X = report["del"][k], x_mat
        bracket = [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(matrix_product(ops, D, X, M + 1),
                              matrix_product(ops, X, D, M + 1))
        ]
        target = del_k_matrix(k - 1) if k > 1 else [
            [1 if i == j2 else 0 for j2 in range(M + 1)] for i in range(M + 1)
        ]
        for m in range(0, M):  # column m safe: x*x^m stays in the span
            for r in range(M + 1):
                if bracket[r][m] != target[r][m]:
                    ok = False
        report["commutators"][k] = ok

    for j in range(1, n):
        k = p**j
        all_ok = True
        for m in range(M + 1):
            direct = comb(m, k - 1)
            coeff = 1
            mm = m
            for kk in range(j):
                for _ in range(p - 1):
                    if mm < p**kk:
                        coeff = 0
                        break
                    coeff *= comb(mm, p**kk)
                    mm -= p**kk
                if coeff == 0:
                    break
            if direct == 0 and coeff == 0:
                ok = True
            elif direct != 0 and coeff != 0:
                ok = fraction_valuation(p, direct) == fraction_valuation(p, coeff)
            else:
                ok = False
            all_ok = all_ok and ok
        report["unit_multiple"][k] = all_ok
    return report


# ---------------------------------------------------------------------------
# delta-ring divisibility in Z_p[q]/(q-1)^K


@dataclass
class DeltaRingContext:
    """Truncated ring Z_p[q]/(q-1)^K with phi(q) = q^p, realized over exact
    rationals in u = q-1; d = [p]_q is the distinguished element."""

    p: int
    K: int
    N: int = 12

    def __post_init__(self):
        require_prime(self.p)
        self.ring = univariate_ring("u", self.K - 1)
        u = TruncPoly.var(self.ring, "u")
        self.u = u
        # phi(u) = (1+u)^p - 1
        self.phi_u = (1 + u) ** self.p - 1
        # [p]_q = ((1+u)^p - 1)/u
        terms = {}
        for mono, c in self.phi_u.terms.items():
            terms[(mono[0] - 1,)] = c
        self.d = TruncPoly(self.ring, terms)
        self.d_inv = self.d.series_inverse()

    def phi(self, f: TruncPoly) -> TruncPoly:
        return f.substitute({"u": self.phi_u})

    def delta(self, f: TruncPoly) -> TruncPoly:
        return (self.phi(f) - f**self.p).map_coeffs(lambda c: Fraction(c, self.p))


def _coeff_vector(poly: TruncPoly, K: int):
    return [Fraction(poly.coeff((j,))) for j in range(K)]


def _split_p(p: int, m: int):
    """(e, m') with m = p^e * m' and m' prime to p; m nonzero."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e, m


def _integer_vector(p: int, poly: TruncPoly, K: int):
    """Coefficients of poly at u^0..u^(K-1) as (N, s): integers N over p^s."""
    coeffs = _coeff_vector(poly, K)
    s = 0
    for c in coeffs:
        e, rest = _split_p(p, c.denominator)
        if rest != 1:
            raise InvalidInputError(f"coefficient {c} is not over a power of {p}")
        s = max(s, e)
    return [c.numerator * p**s // c.denominator for c in coeffs], s


class ZpLattice:
    """Z_(p)-span L of the vectors N/p^s in Q^K, with exact membership tests.

    `vectors` is a list of generators, each a pair (N, s): a list of K
    integers N over p^s. Scaling by p^a, with a the largest s, puts
    M = p^a*L inside Z_(p)^K.

    Certificate: before anything is reduced, the constructor proves
    p^c*Z_(p)^K <= M from the generators alone. The certificate is a
    full-rank diagonal sub-determinant: for every coordinate i, a generator
    whose only nonzero entry sits at i. With c_i the least valuation of such
    a scaled entry at i, M contains p^(c_i)*e_i for every i, so
    c = max_i c_i works. A coordinate without such a generator raises
    InvalidInputError.

    Modulus: since p^c*Z_(p)^K <= M <= Z_(p)^K, M is the preimage of its
    image in (Z/p^c)^K, so echelon and membership run exactly on integers
    mod p^c, the Hermite normal form modulo D of Cohen, GTM 138, 2.4.
    For the delta-envelope the unit vectors u^0..u^(K-1) are generators
    with s = 0, giving c = a.

    Echelon: row r of `basis` vanishes before column r and is p^(v_r) at r;
    it starts as p^c*e_r, a zero row mod p^c. Inserting a vector clears each entry whose
    valuation is at least v_r with row r. An entry of smaller valuation,
    scaled by the inverse of its unit part, becomes the new row r; the old
    row, reduced by it to vanish at r, is inserted from column r+1. This
    reinsertion keeps p^(c-v_r) times row r in the span of the later rows
    (the Howell property), so reducing a query row by row decides
    membership. The rank is K by the certificate.
    """

    def __init__(self, p: int, K: int, vectors):
        self.p = p
        self.K = K
        self.scale = max((s for _, s in vectors), default=0)
        c = self._certified_exponent(vectors)
        self.modulus = q = p**c
        self.valuations = [c] * K
        self.basis = [[0] * K for _ in range(K)]
        for N, s in vectors:
            f = p ** (self.scale - s)
            self._insert([x * f % q for x in N])

    def _certified_exponent(self, vectors) -> int:
        best = [None] * self.K
        for N, s in vectors:
            if N.count(0) != self.K - 1:
                continue
            i = next(j for j, x in enumerate(N) if x)
            v = self.scale - s + _split_p(self.p, N[i])[0]
            if best[i] is None or v < best[i]:
                best[i] = v
        if None in best:
            raise InvalidInputError(
                f"no certificate p^c*Z_(p)^K <= L: no generator on coordinate "
                f"{best.index(None)} alone")
        return max(best)

    def _insert(self, v):
        p, q = self.p, self.modulus
        basis, vals = self.basis, self.valuations
        for r in range(self.K):
            x = v[r]
            if not x:
                continue
            pv = p ** vals[r]
            if x % pv == 0:
                f = x // pv
                v = [(a - f * b) % q for a, b in zip(v, basis[r])]
                continue
            w, unit = _split_p(p, x)
            inv = pow(unit, -1, q)
            new = [a * inv % q for a in v]
            f = p ** (vals[r] - w)
            v = [(a - f * b) % q for a, b in zip(basis[r], new)]
            basis[r], vals[r] = new, w

    def contains(self, vector) -> bool:
        p, q, a = self.p, self.modulus, self.scale
        y = []
        for x in vector:
            x = Fraction(x)
            e, unit = _split_p(p, x.denominator)
            if e > a:
                return False
            y.append(x.numerator * p ** (a - e) * pow(unit, -1, q) % q)
        for r, row in enumerate(self.basis):
            x = y[r]
            if x:
                pv = p ** self.valuations[r]
                if x % pv:
                    return False
                f = x // pv
                y = [(t - f * b) % q for t, b in zip(y, row)]
        return True


def _mul_trunc(a, b, K: int):
    """Product of two integer coefficient lists, truncated at u^K."""
    out = [0] * K
    lead = next((j for j, y in enumerate(b) if y), K)
    for i in range(K - lead):
        x = a[i]
        if x:
            for j in range(lead, K - i):
                out[i + j] += x * b[j]
    return out


def _envelope_lattice(ctx: DeltaRingContext, iters, K: int) -> ZpLattice:
    """Z_(p)-lattice spanned, to truncation, by the monomials
    u^j * prod_i delta^i(t)^(e_i): the image of the delta-envelope.

    Each iterate is converted once to integers over a power of p; monomials
    are truncated integer products with the p-exponents added, and common
    factors of p cancelled so that the exponents are the true ones."""
    factors = [_integer_vector(ctx.p, f, K) for f in iters]
    vectors = []

    def rec(i, N, s):
        if i == len(factors):
            lead = next(j for j, x in enumerate(N) if x)
            vectors.extend(([0] * j + N[:K - j], s) for j in range(K - lead))
            return
        F, sf = factors[i]
        while any(N):
            e = min(s, _split_p(ctx.p, gcd(*N))[0])
            if e:
                N, s = [x // ctx.p**e for x in N], s - e
            rec(i + 1, N, s)
            N, s = _mul_trunc(N, F, K), s + sf

    rec(0, [1] + [0] * (K - 1), 0)
    return ZpLattice(ctx.p, K, vectors)


def delta_ring_check(p: int, n: int, B: int, K: int = 18, N: int = 12) -> dict:
    """With x = (q-1)^(n(p-1)) and t = x/[p]_q, check that phi(delta^k(t)) and
    delta^k(t)^p + p*delta^(k+1)(t) are divisible by [p]_q for k <= B.

    The quotient after exact division in the p-inverted truncated ring must
    be p-integral as an element of the delta-envelope of t, i.e. a
    p-integrally-weighted combination of the monomials in t, delta(t), ...;
    this is decided by an exact lattice-membership certificate.
    """
    ctx = DeltaRingContext(p, K, N)
    if n * (p - 1) >= K:
        raise PrecisionError(f"truncation K={K} kills x = u^{n*(p-1)}")
    x = ctx.u ** (n * (p - 1))
    t = x * ctx.d_inv
    iters = [t]
    for _ in range(B + 3):
        iters.append(ctx.delta(iters[-1]))
    lattice = _envelope_lattice(ctx, iters, K)
    rows = []
    all_ok = True
    for k in range(B + 1):
        dk = iters[k]
        phi_dk = ctx.phi(dk)
        q1 = phi_dk * ctx.d_inv
        ok1 = lattice.contains(_coeff_vector(q1, K))
        lhs = dk**p + p * iters[k + 1]
        q2 = lhs * ctx.d_inv
        ok2 = lattice.contains(_coeff_vector(q2, K))
        frob = phi_dk == lhs
        rows.append({
            "k": k,
            "phi_delta_divisible": ok1,
            "power_identity_divisible": ok2,
            "frobenius_identity": frob,
        })
        all_ok = all_ok and ok1 and ok2 and frob
    return {"p": p, "n": n, "B": B, "K": K, "N": N, "rows": rows, "all_ok": all_ok}
