"""The divided-power models and the operator calculus on them: the
degree-lowering Sen operators on Gamma[u] (x) Z[theta] (x) Lambda[eps] as
graded matrices in closed form, Witt-component eigenvalue tuples,
divided-power Weyl operators, and delta-ring divisibility checks."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, perm

from .exactalg import (
    IdentityError,
    InvalidInputError,
    PolyRing,
    PrecisionError,
    TruncPoly,
    factorial_valuation,
    fraction_valuation,
    int_valuation,
    require_prime,
    split_p,
)
from .witt import WittContext, WittVector, int_to_witt, witt_add


@dataclass
class DPModule:
    """Graded basis of gamma_a theta^b eps^c monomials up to a degree bound,
    labelled (a, b, c), with deg gamma_1 = 2, deg theta = 2p and
    deg eps = 2p - 1."""

    p: int
    bound: int

    def __post_init__(self):
        require_prime(self.p)
        self.bases = {d: [] for d in range(self.bound + 1)}
        wb, wc = 2 * self.p, 2 * self.p - 1
        for c in (0, 1):
            for b in range(0, self.bound // wb + 1):
                rem_b = self.bound - wb * b - wc * c
                for a in range(0, rem_b // 2 + 1):
                    self.bases[2 * a + wb * b + wc * c].append((a, b, c))
        self.index = {
            d: {m: i for i, m in enumerate(basis)} for d, basis in self.bases.items()
        }


@dataclass
class GradedLinearMap:
    """Degree-lowering map D: M_d -> M_(d-shift) on the module with the given
    bases (degree -> ordered basis labels); one matrix per degree, a missing
    one being the zero map.

    matrices[d] has len(bases[d-shift]) rows, each a {column: nonzero entry}
    dict with columns in range(len(bases[d])).
    """

    bases: dict
    shift: int
    matrices: dict


# ---------------------------------------------------------------------------
# the degree-lowering operators


def base_p_digits(m: int, p: int):
    out = []
    while m:
        out.append(m % p)
        m //= p
    return out


def _operator(p: int, bound: int, gamma_values: dict) -> GradedLinearMap:
    """The derivation D with D(gamma_(p^k)) = g_k gamma_(p^k - p) eps for
    the scalars g_k of gamma_values (k >= 1; D(gamma_1) = 0), D(theta) = p eps
    and D(eps) = 0, on DPModule(p, bound), as degree-(-1) matrices of
    integer 1-tuples (Z_(p) as senhom's Eisenstein ring for E = u - p) in
    the integral basis gamma'_a theta^b eps^c, gamma'_a = (a!)_(p') gamma_a,
    where (m)_(p') is m with its p-power removed.

    Every value carries eps, so eps-labels map to 0. The Leibniz rule on
    a! gamma_a = prod_k ((p^k)! gamma_(p^k))^(m_k), over the base-p digits
    m_k of a, gives
        D(gamma_a theta^b) = sum_(k>=1) m_k g_k (p^k)!/(p^k - p)! (a-p)!/a!
                                 gamma_(a-p) theta^b eps
                             + b p gamma_a theta^(b-1) eps,
    and in the basis gamma'_a the factor (a-p)!/a! becomes
    p^(-v_p(a!/(a-p)!)). The gamma entry must be an integer; for the
    perfectoid values it is (p-1)! (floor(a/p))_(p').
    """
    module = DPModule(p, bound)
    matrices, gamma = {}, {}  # gamma: a -> the coefficient of gamma'_(a-p)
    for d, basis in module.bases.items():
        mat = [{} for _ in module.bases.get(d - 1, [])]
        for j, (a, b, c) in enumerate(basis):
            if c:
                continue
            if a >= p:
                if a not in gamma:
                    g = Fraction(sum(m * gamma_values[k] * perm(p**k, p)  # digits k >= 1
                                     for k, m in enumerate(base_p_digits(a // p, p), 1)),
                                 p ** int_valuation(p, perm(a, p)))
                    if g.denominator != 1:
                        raise IdentityError(f"gamma_{a} has a non-integral image {g}",
                                            {"p": p, "a": a})
                    gamma[a] = (g.numerator,)
                mat[module.index[d - 1][a - p, b, 1]][j] = gamma[a]
            if b:
                mat[module.index[d - 1][a, b - 1, 1]][j] = (b * p,)
        if any(mat):
            matrices[d] = mat
    return GradedLinearMap(module.bases, 1, matrices)


def perfectoid_gamma_values(p: int, bound: int) -> dict:
    """The scalars c_k of the generator values of the degree-lowering
    derivation, for p^k <= bound:

    D(gamma_(p^k)(u)) = c_k gamma_(p^k-p)(u) eps, c_k = (p-1)! (p^k-p)!/(p^k-1)!.
    The coefficient is a p-adic unit (it is the expansion of the product
    prod_{j<k} gamma_(p^j)^(p-1) up to the normalization D(gamma_p) = eps)
    and these are the unique unit choices for which the extension satisfies
    the Leibniz rule through the relations gamma_(p^k)^p = p*unit*gamma_(p^(k+1)).
    """
    values = {}
    k = 1
    while p**k <= bound:
        values[k] = Fraction(factorial(p - 1) * factorial(p**k - p), factorial(p**k - 1))
        k += 1
    return values


def theta_perfectoid(p: int, bound: int) -> GradedLinearMap:
    """gamma_(p^k)(u) -> unit * gamma_(p^k - p)(u) eps (normalized so that
    gamma_p(u) -> eps exactly), theta -> p*eps; extended as a derivation,
    with matrices in the integral basis gamma'_a = (a!)_(p') gamma_a of
    _operator."""
    return _operator(p, bound, perfectoid_gamma_values(p, bound))


def factorial_unit_identity(p: int, gamma_values: dict) -> bool:
    """v_p((p^k-p)!/(p^k-1)!) = 0 = v_p(generator-value coefficient), and the
    underlying Legendre identity v_p((p^k-1)!) = sum_{j<k}(p^j-1)."""
    for k, coeff in gamma_values.items():
        ratio_val = factorial_valuation(p, p**k - p) - factorial_valuation(p, p**k - 1)
        if ratio_val != 0:
            return False
        legendre = factorial_valuation(p, p**k - 1)
        if legendre != sum(p**j - 1 for j in range(1, k)):
            return False
        if fraction_valuation(p, coeff) != 0:
            return False
    return True


def theta_zpn(p: int, n: int, bound: int) -> GradedLinearMap:
    """The scaled variant on the same module and basis; p odd, n >= 2.

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
    return _operator(p, bound, {k: c * p ** (n - 2 + k)
                                for k, c in perfectoid_gamma_values(p, bound).items()})


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
    rhs = witt_add(WittVector(ctx, psi_eigenvalues(p, n, a)),
                   WittVector(ctx, psi_eigenvalues(p, n, b)))
    return lhs == rhs


# ---------------------------------------------------------------------------
# divided-power Weyl operators


def dp_weyl_operators(p: int, n: int, M: int) -> dict:
    """Matrices of del^[p^j] (j < n) on span{x^0..x^M}, the commutator
    identity [del^[p^j], x] = del^[p^j - 1], and the valuation comparison for
    the unit-multiple statement."""
    require_prime(p)
    if M < 0:
        raise InvalidInputError("M must be >= 0")

    def del_k_matrix(k):
        mat = [{} for _ in range(M + 1)]
        for m in range(k, M + 1):
            mat[m - k][m] = comb(m, k)
        return mat

    report = {
        "del": {p**j: del_k_matrix(p**j) for j in range(n)},
        "commutators": {},
        "unit_multiple": {},
    }
    for j in range(n):
        k = p**j
        # x is the shift x^m -> x^(m+1), so entry (r, m) of del*x is
        # del[r][m+1] and that of x*del is del[r-1][m]; column m < M keeps
        # x*x^m in the span
        D = report["del"][k]
        target = del_k_matrix(k - 1)  # the identity for k = 1
        report["commutators"][k] = all(
            D[r].get(m + 1, 0) - (D[r - 1].get(m, 0) if r else 0) == target[r].get(m, 0)
            for r in range(M + 1) for m in range(M))

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
                ok = int_valuation(p, direct) == int_valuation(p, coeff)
            else:
                ok = False
            all_ok = all_ok and ok
        report["unit_multiple"][k] = all_ok
    return report


# ---------------------------------------------------------------------------
# delta-ring divisibility in Z_p[q]/(q-1)^K


def _p_q_inverse(p: int, d: list, K: int) -> tuple:
    """1/[p]_q in Q[u]/u^K, from the coefficients d of [p]_q, as integers D
    over p^s: D_0 = p^(s-1) and D_n = -(sum_(k>=1) d_k D_(n-k))/p, an exact
    division. Since d_0 = p, p | d_k for 0 < k < p-1 and d_(p-1) = 1, the
    coefficient at u^n has valuation at least -1 - floor(n/(p-1)), so
    s = 1 + floor((K-1)/(p-1)) makes every D_n an integer; a remainder
    raises IdentityError."""
    s = 1 + (K - 1) // (p - 1)
    D, tail = [p ** (s - 1)], list(enumerate(d[1:], 1))
    for n in range(1, K):
        q, r = divmod(-sum(c * D[n - k] for k, c in tail if k <= n), p)
        if r:
            raise IdentityError(f"1/[{p}]_q at u^{n} is not over {p}^{s}",
                                {"p": p, "u_degree": n})
        D.append(q)
    return D, s


@dataclass
class DeltaRingContext:
    """Truncated ring Z_p[q]/(q-1)^K with phi(q) = q^p, in u = q-1; d = [p]_q
    is the distinguished element.

    An element of the p-inverted ring is a pair (N, s), the int-coefficient
    series N over p^s (Hazewinkel's integral form, Formal Groups and
    Applications, sections 2-5). `pair` makes it canonical: s is the least
    exponent that leaves N integral, and zero is (0, 0), so equal elements
    are equal pairs."""

    p: int
    K: int

    def __post_init__(self):
        p = self.p
        require_prime(p)
        self.ring = PolyRing(vars=("u",), bounds=(self.K - 1,))
        self.u = u = TruncPoly.var(self.ring, "u")
        # phi(u) = (1+u)^p - 1, and [p]_q = phi(u)/u = sum_k C(p, k+1) u^k
        self.phi_u = (1 + u) ** p - 1
        D, s = _p_q_inverse(p, [comb(p, k + 1) for k in range(p)], self.K)
        self.d_inv = self.pair(TruncPoly(self.ring, {(n,): c for n, c in enumerate(D)}), s)
        # phi is Z-linear: its matrix is the coefficients of phi(u)^j, j < K
        self._phi_columns = [TruncPoly.const(self.ring, 1)]
        while len(self._phi_columns) < self.K:
            self._phi_columns.append(self._phi_columns[-1] * self.phi_u)

    def pair(self, N: TruncPoly, s: int) -> tuple:
        """N/p^s with the p-power its coefficients share, up to p^s, divided
        out."""
        p, g, e = self.p, gcd(*N.terms.values()), 0
        while e < s and g % p == 0:  # g = 0 for N = 0, which takes e to s
            g //= p
            e += 1
        if e:
            f = p**e
            N = N.map_coeffs(lambda c: c // f)
        return N, s - e

    def mul(self, f: tuple, g: tuple) -> tuple:
        return self.pair(f[0] * g[0], f[1] + g[1])

    def add(self, f: tuple, g: tuple) -> tuple:
        (A, s), (B, t), m = f, g, max(f[1], g[1])
        return self.pair(A * self.p ** (m - s) + B * self.p ** (m - t), m)

    def phi(self, f: tuple) -> tuple:
        N, s = f
        out = {}
        for (j,), c in N.terms.items():
            for mono, a in self._phi_columns[j].terms.items():
                out[mono] = out.get(mono, 0) + c * a
        return self.pair(TruncPoly(self.ring, out), s)

    def delta(self, f: tuple) -> tuple:
        """delta(N/p^s) = (phi(N/p^s) - (N/p^s)^p)/p
        = (p^(s(p-1)) phi(N) - N^p)/p^(sp+1)."""
        N, s = f
        p = self.p
        phi_N, _ = self.phi((N, 0))
        return self.pair(phi_N * p ** (s * (p - 1)) - N**p, s * p + 1)


def _integer_vector(f: tuple, K: int) -> tuple:
    """A pair (N, s) as ZpLattice reads it: N's coefficients at u^0..u^(K-1),
    over p^s."""
    N, s = f
    return [N.terms.get((j,), 0) for j in range(K)], s


class ZpLattice:
    """The Z_(p)[u]-subalgebra L of Q[u]/u^K generated by the given elements,
    with exact membership tests: the smallest Z_(p)-module that contains
    Z_(p)^K and is closed under truncated multiplication by each generator.

    `generators` is a list of pairs (N, s): a list of K integers N over p^s,
    the coefficients at u^0..u^(K-1). A constant term outside Z_(p) would
    give L unbounded denominators and raises IdentityError (the library's
    generators, the delta iterates of a multiple of u, have constant term
    0); otherwise every generator is in Z_(p) plus a nilpotent, and L is a
    lattice.

    Modulus: the constructor finds the least A with M = p^A*L inside
    Z_(p)^K and keeps `scale` = A. Since p^A*Z_(p)^K <= M <= Z_(p)^K, M is
    the preimage of its image in (Z/p^A)^K, so echelon and membership run
    exactly on integers mod p^A, the Hermite normal form modulo D of Cohen,
    GTM 138, 2.4.

    Closure: the echelon is seeded with the shifts p^(A-s)*u^j*N of every
    generator and then closed: each basis row b is multiplied by each
    generator, divided by p^s and inserted, until every nonzero row has
    been multiplied. Working modulo p^A*Z_(p)^K is sound: a row is an
    integer representative b = m + p^A*z of an element m of M, and for
    integral z, p^A*z*N/p^s is in the span of the seeded shifts, so b*N/p^s
    lies in M exactly when m*N/p^s does. A starts at the largest s. A
    product that p^s does not divide is an element of M outside Z_(p)^K;
    A then rises by its p-deficit, a lower bound for the least A, and the
    rows are multiplied by that power of p in place. So A ends at its
    least value.

    Echelon: row r of `basis` vanishes before column r and is p^(v_r) at r;
    it starts as p^A*e_r, a zero row mod p^A. Inserting a vector clears each
    entry whose valuation is at least v_r with row r. An entry of smaller
    valuation, scaled by the inverse of its unit part, becomes the new row
    r; the old row, reduced by it to vanish at r, is inserted from column
    r+1. This reinsertion keeps p^(A-v_r) times row r in the span of the
    later rows (the Howell property), so reducing a query row by row
    decides membership.
    """

    def __init__(self, p: int, K: int, generators):
        self.p = p
        self.K = K
        for i, (N, s) in enumerate(generators):
            if N[0] % p**s:
                raise IdentityError(
                    f"generator constant term {N[0]}/{p}^{s} is not in Z_({p})",
                    {"p": p, "generator": i})
        self.scale = a = max((s for _, s in generators), default=0)
        self.modulus = q = p**a
        self.valuations = [a] * K
        self.basis = [[0] * K for _ in range(K)]
        for N, s in generators:
            N = [x * p ** (a - s) % q for x in N]
            for j in range(K):
                self._insert([0] * j + N[:K - j])
        done = set()  # the rows already multiplied by every generator
        while True:
            row = next((b for b in self.basis if any(b) and tuple(b) not in done),
                       None)
            if row is None:
                return
            for N, s in generators:
                prod = _mul_trunc(row, N, K)
                g = gcd(*prod)
                if g % p**s:
                    d = s - split_p(p, g)[0]
                    f = p**d
                    self.scale += d
                    self.modulus *= f
                    self.valuations = [v + d for v in self.valuations]
                    self.basis = [[x * f for x in b] for b in self.basis]
                    done = {tuple(x * f for x in b) for b in done}
                    break
                self._insert([x // p**s % self.modulus for x in prod])
            else:
                done.add(tuple(row))

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
            w, unit = split_p(p, x)
            inv = pow(unit, -1, q)
            new = [a * inv % q for a in v]
            f = p ** (vals[r] - w)
            v = [(a - f * b) % q for a, b in zip(basis[r], new)]
            basis[r], vals[r] = new, w

    def contains(self, vector) -> bool:
        """Whether N/p^s lies in L, for a pair (N, s) of K integers over p^s.
        L lies in p^(-A)*Z_(p)^K, so a coefficient that p^(s-A) does not
        divide puts it outside."""
        N, s = vector
        p, q, a = self.p, self.modulus, self.scale
        if s > a:
            f = p ** (s - a)
            if any(x % f for x in N):
                return False
            N, s = [x // f for x in N], a
        y = [x * p ** (a - s) % q for x in N]
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


def delta_ring_check(p: int, n: int, B: int, K: int = 18) -> dict:
    """With x = (q-1)^(n(p-1)) and t = x/[p]_q, check that phi(delta^k(t)) and
    delta^k(t)^p + p*delta^(k+1)(t) are divisible by [p]_q for k <= B.

    The quotient after exact division in the p-inverted truncated ring must
    be p-integral as an element of the delta-envelope of t, i.e. a
    p-integrally-weighted combination of the monomials in t, delta(t), ...;
    this is decided exactly by membership in the lattice of the Z_(p)[u]-
    algebra that t, ..., delta^(B+3)(t) generate (`ZpLattice`).
    """
    ctx = DeltaRingContext(p, K)
    if n * (p - 1) >= K:
        raise PrecisionError(f"truncation K={K} kills x = u^{n*(p-1)}")
    t = ctx.mul((ctx.u ** (n * (p - 1)), 0), ctx.d_inv)
    iters = [t]
    for _ in range(B + 3):
        iters.append(ctx.delta(iters[-1]))
    lattice = ZpLattice(p, K, [_integer_vector(f, K) for f in iters])
    rows = []
    all_ok = True
    for k in range(B + 1):
        (N, s), (N1, s1) = iters[k], iters[k + 1]
        phi_dk = ctx.phi(iters[k])
        ok1 = lattice.contains(_integer_vector(ctx.mul(phi_dk, ctx.d_inv), K))
        lhs = ctx.add((N**p, s * p), (N1 * p, s1))
        ok2 = lattice.contains(_integer_vector(ctx.mul(lhs, ctx.d_inv), K))
        frob = phi_dk == lhs
        rows.append({
            "k": k,
            "phi_delta_divisible": ok1,
            "power_identity_divisible": ok2,
            "frobenius_identity": frob,
        })
        all_ok = all_ok and ok1 and ok2 and frob
    # "N" echoes the report's precision label; no computation reads it
    return {"p": p, "n": n, "B": B, "K": K, "N": 12, "rows": rows, "all_ok": all_ok}
