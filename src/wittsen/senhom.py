"""Homology engine and named builders.

The engine works over one ring: an Eisenstein extension Z_(p)[u]/E(u), its
elements integer tuples in Z[u]/E, eliminated fraction-free by row updates
that scale by units only. Z_(p) itself is the case E = u - p, on 1-tuples,
and the Z_(p) builders emit 1-tuple entries. The homology of a complex goes
through chain_homology, the one caller of local_snf: a chain complex
directly, a commuting operator cube through its Koszul total complex, a
two-term fiber as the cube of one operator, and omega2yn's presentation as a
two-term complex whose odd differentials are its relation matrices. Each
nonzero differential is eliminated once, by minimal-valuation pivoting, and
torsion is reported as p-power (or uniformizer-power) cyclic summands per
degree. The builders return the engine's reports; the closed forms they
reproduce live in the sen.* checks. Only the fderham weights use integer
elementary divisors (the Z-SNF): each weight's H^1 is the cokernel of an
integer Toeplitz matrix, multiplication by its divided m-series on the
truncated h-line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .exactalg import (
    IdentityError,
    IntMatrix,
    InvalidInputError,
    TruncPoly,
    int_valuation,
    local_snf,
    matrix_product,
    require_prime,
    smith_normal_form,
    split_p,
)
from .dpops import (
    GradedLinearMap,
    factorial_unit_identity,
    perfectoid_gamma_values,
    theta_perfectoid,
    theta_zpn,
)


class Eisenstein:
    """R = Z_(p)[u]/E(u) for Eisenstein E; elements are integer tuples in
    Z[u]/E, low degree first.

    The valuation is v(sum c_i u^i) = min_i (e*v_p(c_i) + i), exact because
    the summands have pairwise distinct valuations. Elimination is
    fraction-free: a row update multiplies by units only, so every entry
    stays in Z[u]/E.
    """

    def __init__(self, p, E):
        require_prime(p)
        self.p = p
        self.E = [int(c) for c in E]  # low degree first, monic
        self.e = len(E) - 1
        if self.E != list(E):
            raise InvalidInputError("E must have integer coefficients")
        if self.E[-1] != 1:
            raise InvalidInputError("E must be monic")
        if self.e < 1:
            raise InvalidInputError("E must have positive degree")
        if self.E[0] % p != 0 or self.E[0] % p**2 == 0:
            raise InvalidInputError("E must be Eisenstein: p || E(0)")
        if any(c % p for c in self.E[1:-1]):
            raise InvalidInputError("E must be Eisenstein: p | middle terms")
        self.zero = (0,) * self.e
        # u*Q(u) = -E(0) for E = E(0) + u*Q(u)
        self._minus_Q = tuple(-c for c in self.E[1:])
        self._pivot = self._memo = None

    def scalar(self, n):
        return (n,) + (0,) * (self.e - 1)

    def from_poly(self, coeffs):
        """Reduce an arbitrary-degree integer polynomial in u modulo E."""
        c, e = list(coeffs), self.e
        for i in range(len(c) - 1, e - 1, -1):
            q = c[i]
            if q:
                for j in range(e):
                    c[i - e + j] -= q * self.E[j]
        return tuple(c[:e]) + (0,) * (e - len(c))

    def is_zero(self, x):
        return not any(x)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self.from_poly(prod)

    def val(self, x):
        if not any(x):
            raise InvalidInputError("valuation of 0")
        if self.e == 1:
            return int_valuation(self.p, x[0])
        return min(self.e * int_valuation(self.p, c) + i for i, c in enumerate(x) if c)

    def _over_pi(self, x, k):
        """x/pi^k for the uniformizer pi = u*p/E(0): x*(-Q)/p, k times."""
        for _ in range(k):
            x = tuple(c // self.p for c in self.mul(x, self._minus_Q))
        return x

    def eliminate(self, piv, tail, x, row):
        """unit*row - (x/piv)*tail, for v(x) >= v(piv): with piv = pi^v*eps,
        eps*row - (x/pi^v)*tail. Dividing the result by the p-free part of the
        gcd of its coefficients keeps the integers small."""
        if piv != self._pivot:
            v = self.val(piv)
            self._pivot, self._memo = piv, (v, self._over_pi(piv, v))
        v, eps = self._memo
        q = self._over_pi(x, v)
        out = {j: self.mul(eps, r) for j, r in row.items()}
        for j, t in tail.items():
            out[j] = self.sub(out.get(j, self.zero), self.mul(q, t))
        out = {j: r for j, r in out.items() if any(r)}
        g = split_p(self.p, gcd(*(c for r in out.values() for c in r)))[1] if out else 0
        if g > 1:
            out = {j: tuple(c // g for c in r) for j, r in out.items()}
        return out


# ---------------------------------------------------------------------------
# reports


@dataclass
class HomologyReport:
    """Per-degree rows {"degree", "free_rank", "torsion", "exponents"}: the
    torsion is the cyclic summands R/pi^e, listed by their exponents e and by
    their orders p^e. `degrees` lists the rows in the order added; `entry`
    looks them up by degree, the same dicts."""

    degrees: list = field(default_factory=list)
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def entry(self, degree):
        return self._rows.get(degree) or {"degree": degree, "free_rank": 0,
                                          "torsion": [], "exponents": []}

    def add(self, degree, free_rank, exponents, p):
        row = self._rows[degree] = {"degree": degree, "free_rank": free_rank,
                                    "torsion": [p**e for e in exponents],
                                    "exponents": list(exponents)}
        self.degrees.append(row)


# ---------------------------------------------------------------------------
# homology over a local PID given by ops
#
# Over a PID, C_d/ker(m_d) embeds in the free module C_(d-1), so ker(m_d) is
# a direct summand of C_d and
#     H_d = R^(n_d - rank m_d - rank m_(d+1)) + torsion of coker m_(d+1).
# One elimination per differential, for its rank and the positive exponents of
# its elementary divisors, therefore decides all homology.


def homology_of_pair(ncols_A: int, elim_A: tuple, elim_B: tuple) -> tuple:
    """ker(A)/im(B) for A*B = 0, A with ncols_A columns, from the eliminations
    (rank, positive exponents) of A and B: (free rank, torsion exponents)."""
    (rank_A, _), (rank_B, torsion) = elim_A, elim_B
    return ncols_A - rank_A - rank_B, torsion


def chain_homology(dims: dict, mats: dict, bound: int, ops) -> tuple:
    """H_d = ker(m_d)/im(m_(d+1)) for every degree d <= bound of a chain
    complex given by dimensions and matrices m_d: C_d -> C_(d-1), each a
    list of {column: nonzero entry} rows with dims[d] columns. A missing
    m_d, or one with no columns, is the zero map and is not eliminated; every
    other m_d is eliminated once, after checking that m_(d-1)*m_d = 0. Every
    complex the library builds is square zero, so a nonzero product raises
    IdentityError.

    Returns (report, eliminations): the report has a row for each nonzero
    H_d, and the eliminations map each degree d <= bound + 1 of the complex
    to (rank, positive exponents) of m_d.
    """
    elim = {}
    for d in sorted(dims):
        if d > bound + 1:
            break
        m, below = mats.get(d, []), mats.get(d - 1, [])
        if m and below and any(matrix_product(ops, below, m)):
            raise IdentityError("maps do not compose to zero", {"p": ops.p, "degree": d})
        exps = local_snf(ops, m, dims[d]) if m and dims[d] else []
        elim[d] = len(exps), [e for e in exps if e > 0]
    rep = HomologyReport()
    for d in elim:
        if d > bound:
            continue
        free, torsion = homology_of_pair(dims[d], elim[d], elim.get(d + 1, (0, [])))
        if free or torsion:
            rep.add(d, free, torsion, ops.p)
    return rep, elim


def cube_total_fiber(operators, bound: int, ops) -> HomologyReport:
    """Total fiber of a strictly commuting cube of degree-shifting operators
    (GradedLinearMaps on one module): the Koszul-style total complex, then
    exact chain homology. A degree in which no operator has a matrix gets no
    total matrix, so it is not eliminated. A total complex that is not square
    zero (operators that do not commute in a degree the homology up to bound
    reads) raises IdentityError.
    """
    n = len(operators)
    bases = operators[0].bases
    # in total degree d, the piece of the subset S of operators is M_(d + lift[S])
    lift = [sum(1 - op.shift for i, op in enumerate(operators) if S >> i & 1)
            for S in range(1 << n)]

    def offsets(d):
        out, acc = [], 0
        for step in lift:
            out.append(acc)
            acc += len(bases.get(d + step, []))
        return out, acc

    def total_matrix(d):
        (off_src, n_src), (off_tgt, n_tgt) = offsets(d), offsets(d - 1)
        M = None
        for S, step in enumerate(lift):
            for i, op in enumerate(operators):
                mat = op.matrices.get(d + step)
                if S >> i & 1 or not mat:
                    continue
                if M is None:
                    M = [{} for _ in range(n_tgt)]
                # no other (S, i) block overlaps this one: copy, do not add
                r0, c0 = off_tgt[S | 1 << i], off_src[S]
                negate = bin(S & ((1 << i) - 1)).count("1") % 2
                for r, row in enumerate(mat):
                    M[r0 + r].update((c0 + j, ops.sub(ops.zero, x) if negate else x)
                                     for j, x in row.items())
        return M, n_src

    lo = min(bases) - n if bases else 0
    dims, mats = {}, {}
    for d in range(lo, bound + 2):
        M, dims[d] = total_matrix(d)
        if M:
            mats[d] = M
    return chain_homology(dims, mats, bound, ops)[0]


def two_term_homology(D: GradedLinearMap, bound: int, ops) -> HomologyReport:
    """Fiber of D: M -> M[s], the one-operator cube: in degree d, the kernel
    of D out of degree d plus the cokernel of D out of degree d + 1
    (long-exact-sequence convention)."""
    return cube_total_fiber([D], bound, ops)


# ---------------------------------------------------------------------------
# named builders


def build_line_fiber(p: int, gen: int, scale: int, bound: int) -> HomologyReport:
    """Fiber of theta^j -> j*scale*theta^(j-1) on the polynomial line with its
    generator theta in degree gen; the degree-(gen*j - 1) homology is cyclic
    of order p^v_p(j*scale).

    Bokstedt's T1 line is (gen, scale) = (2p, p) and the Jp line (2, 1). The
    Serre complex Z_p[x, y]/x^2 with |y| = 2p^n, |x| = 2p^n - 1 and
    y^m -> m p y^(m-1) x is the cone of the (2p^n, p) line."""
    j_max = (bound + gen + 1) // gen
    bases = {gen * j: [j] for j in range(j_max + 1)}
    matrices = {gen * j: [{0: (j * scale,)}] for j in range(1, j_max + 1)}
    D = GradedLinearMap(bases, gen, matrices)
    return two_term_homology(D, bound, Eisenstein(p, [-p, 1]))


def build_perfectoid_serre(p: int, bound: int) -> dict:
    """Homology of the divided-power model with the degree-lowering operator,
    plus the kernel rank and surjectivity of the even-to-odd matrix at each
    degree 2np <= bound, read from the same eliminations, and whether the
    operator's generator values satisfy the valuation identity."""
    D = theta_perfectoid(p, bound + 2)
    dims = {d: len(basis) for d, basis in D.bases.items()}
    homology, elim = chain_homology(dims, D.matrices, bound, Eisenstein(p, [-p, 1]))
    kernel_ranks = {}
    surjective = {}
    for d in range(2 * p, bound + 1, 2 * p):
        rank, torsion = elim.get(d, (0, []))
        kernel_ranks[d] = len(D.bases[d]) - rank
        surjective[d] = rank == len(D.bases[d - 1]) and not torsion
    identity = factorial_unit_identity(p, perfectoid_gamma_values(p, bound + 2))
    return {"homology": homology, "kernel_ranks": kernel_ranks,
            "surjective": surjective, "valuation_identity": identity}


def build_zpn_serre(p: int, n: int, bound: int) -> HomologyReport:
    """Homology of the p^(n-1)-scaled operator complex (p odd, n >= 2)."""
    D = theta_zpn(p, n, bound + 2)
    dims = {d: len(basis) for d, basis in D.bases.items()}
    return chain_homology(dims, D.matrices, bound, Eisenstein(p, [-p, 1]))[0]


def omega2yn_cohomology(p: int, n: int, bound: int) -> HomologyReport:
    """Cohomology ring in the presentation with the integral basis change
    gamma_j(y) = sum_i p^(i(n-1))/i! c^i gamma_(j-i)(x), p-integral for
    n >= 2 since v_p(i!) <= (i-1)/(p-1) < i(n-1): H^(2k) is the cokernel of
    multiplication by x - p^(n-1) c. That is the homology of the two-term
    complex with C_(2k) on the basis gamma_j(x) c^(k-j), j = 0..k, C_(2k+1)
    a copy of C_(2k-2), and m_(2k+1) the relation matrix."""
    require_prime(p)
    if n < 2:
        raise InvalidInputError("the integral basis change needs n >= 2")
    dims = {d: d // 2 + 1 - d % 2 for d in range(bound + 2)}
    mats = {}
    for k in range(1, bound // 2 + 1):
        mats[2 * k + 1] = mat = [{} for _ in range(k + 1)]
        for j in range(k):
            # x * gamma_j c^(k-1-j) = (j+1) gamma_(j+1) c^(k-1-j)
            mat[j + 1][j] = (j + 1,)
            # -p^(n-1) c * gamma_j c^(k-1-j)
            mat[j][j] = (-p ** (n - 1),)
    return chain_homology(dims, mats, bound, Eisenstein(p, [-p, 1]))[0]


def build_dvr_square(p: int, E: list, bound: int) -> dict:
    """Over R = Z_(p)[u]/E(u), for Eisenstein E given low degree first and
    pi the class of u, on the module with basis gamma_m x^i in degree
    2(m + i): the fiber of the derivation nabla: gamma_m -> E'(pi)
    gamma_(m-1) alone ("nabla"), the total fiber of the commuting square of
    nabla with theta: x^i -> i x^(i-1) ("total"), and v(E'(pi)).

    "nabla" runs to bound. "total" runs to bound when E'(pi) is a unit and
    to min(bound, 2p - 1) otherwise: past degree 2p - 1 the chain square no
    longer computes the closed form, and sen.dvr compares none of it."""
    R = Eisenstein(p, E)
    Eprime = R.from_poly([i * c for i, c in enumerate(R.E)][1:])
    top = bound + 4
    bases = {}
    for m in range(top // 2 + 1):
        for i in range(top // 2 + 1 - m):
            bases.setdefault(2 * (m + i), []).append((m, i))

    def lowering(k, coefficient):
        """The shift-2 map lowering index k of the label (m, i) by one,
        times coefficient(that index)."""
        matrices = {}
        for d, src in bases.items():
            tgt = bases.get(d - 2, [])
            matrices[d] = mat = [{} for _ in tgt]
            for col, mono in enumerate(src):
                if mono[k]:
                    lower = tuple(x - (j == k) for j, x in enumerate(mono))
                    mat[tgt.index(lower)][col] = coefficient(mono[k])
        return GradedLinearMap(bases, 2, matrices)

    nabla = lowering(0, lambda m: Eprime)
    theta = lowering(1, R.scalar)
    vE = R.val(Eprime)
    return {"nabla": two_term_homology(nabla, bound, R),
            "total": cube_total_fiber([nabla, theta], bound if vE == 0
                                      else min(bound, 2 * p - 1), R),
            "Eprime_valuation": vE}


def multiplication_matrix(series: TruncPoly, K: int) -> list:
    """Integer (Toeplitz) matrix of multiplication by a series in h with scalar
    coefficients on Z[h]/h^K."""
    coeffs = [0] * K
    for mono, c in series.terms.items():
        if mono[0] < K:
            coeffs[mono[0]] = int(c)
    return [[coeffs[i - j] if i >= j else 0 for j in range(K)] for i in range(K)]


def fderham_cohomology(weights: dict) -> dict:
    """Per-weight H^1 of the two-term complex: the cokernel of multiplication
    by the divided m-series on Z[h]/h^K, K the cap of the series ring, as the
    integer elementary divisors (via exact SNF) of its Toeplitz matrix.

    A coefficient variable, such as the symbolic multiplicative lam, would mix
    its powers into one matrix, so a ring with one raises InvalidInputError.
    """
    out = {}
    for m, series in sorted(weights.items()):
        ring = series.ring
        if len(ring.vars) > 1:
            raise InvalidInputError(f"weight {m} has coefficients in {ring.vars[1:]}")
        dec = smith_normal_form(IntMatrix.from_rows(multiplication_matrix(series, ring.cap)))
        out[m] = {"weight": m, "divisors": [abs(x) for x in dec.divisors]}
    return {"weights": out}
