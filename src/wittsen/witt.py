"""p-typical Witt vectors of fixed finite length.

Vectors live over Z or Z/p^N. Ring operations are the universal structure
polynomials, evaluated by transporting through the ghost isomorphism over a
torsion-free lift (the same values, by functoriality, and tractable at the
lengths the identity suite needs). Symbolic structure polynomials are still
available for small (p, L) via witt_structure_polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactalg import (
    InvalidInputError,
    PolyRing,
    PrecisionError,
    TruncPoly,
    int_valuation,
    is_prime,
    require_prime,
    univariate_ring,
)


class NotAWittVectorError(ValueError):
    def __init__(self, index, message):
        self.index = index
        super().__init__(message)


class IntegralityViolationError(ValueError):
    def __init__(self, monomial, message):
        self.monomial = monomial
        super().__init__(message)


@dataclass(frozen=True)
class WittContext:
    """Fixed prime, fixed length; base ring Z (modulus 0) or Z/p^N."""

    p: int
    length: int
    modulus: int = 0

    def __post_init__(self):
        require_prime(self.p)
        if self.length < 1:
            raise InvalidInputError("length must be >= 1")
        if self.modulus:
            n = self.modulus
            while n % self.p == 0:
                n //= self.p
            if n != 1:
                raise InvalidInputError("modulus must be a power of p")

    def reduce(self, c):
        return c % self.modulus if self.modulus else c

    def resized(self, length):
        return WittContext(self.p, length, self.modulus)


@dataclass(frozen=True)
class WittVector:
    ctx: WittContext
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.ctx.length:
            raise InvalidInputError("component count != context length")
        object.__setattr__(
            self, "components", tuple(self.ctx.reduce(c) for c in self.components)
        )


@dataclass(frozen=True)
class GhostVector:
    ctx: WittContext
    entries: tuple


def make_witt(ctx: WittContext, comps) -> WittVector:
    return WittVector(ctx, tuple(comps))


# ---------------------------------------------------------------------------
# structure polynomials (symbolic; cached per (p, L))


@lru_cache(maxsize=None)
def witt_structure_polynomials(p: int, L: int):
    """Universal sum/product polynomials S_0..S_{L-1}, P_0..P_{L-1} over Z.

    Derived by the ghost recursion; every division is exact over Z, and a
    failure is a hard internal error.
    """
    require_prime(p)
    names = tuple(f"X{i}" for i in range(L)) + tuple(f"Y{i}" for i in range(L))
    ring = PolyRing(vars=names)
    X = [TruncPoly.var(ring, f"X{i}") for i in range(L)]
    Y = [TruncPoly.var(ring, f"Y{i}") for i in range(L)]

    S, P = [], []
    for n in range(L):
        acc = TruncPoly.zero(ring)
        for i in range(n):
            acc = acc + (X[i] ** (p ** (n - i)) + Y[i] ** (p ** (n - i))
                         - S[i] ** (p ** (n - i))) * p**i
        S.append(X[n] + Y[n] + acc.exact_div_int(p**n))

        gx = TruncPoly.zero(ring)
        gy = TruncPoly.zero(ring)
        for i in range(n + 1):
            gx = gx + X[i] ** (p ** (n - i)) * p**i
            gy = gy + Y[i] ** (p ** (n - i)) * p**i
        prod = gx * gy
        for i in range(n):
            prod = prod - P[i] ** (p ** (n - i)) * p**i
        P.append(prod.exact_div_int(p**n))
    return tuple(S), tuple(P)


def ghost_polynomial(p: int, j: int, values: list):
    """w_j evaluated on symbolic/polynomial component values."""
    acc = values[0] ** (p**j)
    for i in range(1, j + 1):
        acc = acc + values[i] ** (p ** (j - i)) * p**i
    return acc


# ---------------------------------------------------------------------------
# ghost transport


def _ghost_entries(p, comps, modulus=0):
    L = len(comps)
    out = []
    for j in range(L):
        if modulus:
            acc = 0
            for i in range(j + 1):
                acc = (acc + p**i * pow(comps[i], p ** (j - i), modulus)) % modulus
        else:
            acc = None
            for i in range(j + 1):
                term = comps[i] ** (p ** (j - i)) * p**i
                acc = term if acc is None else acc + term
        out.append(acc)
    return out


def ghost_map(x: WittVector) -> GhostVector:
    return GhostVector(x.ctx, tuple(_ghost_entries(x.ctx.p, x.components, x.ctx.modulus)))


def _ghost_inverse_components(p, entries):
    """Solve the ghost recursion exactly; integer inputs demand divisibility."""
    comps = []
    for j, g in enumerate(entries):
        acc = g
        for i in range(j):
            acc = acc - comps[i] ** (p ** (j - i)) * p**i
        if isinstance(acc, int):
            q, r = divmod(acc, p**j)
            if r:
                raise NotAWittVectorError(
                    j, f"ghost entry {j}: {p}^{j} does not divide {acc}"
                )
            comps.append(q)
        else:
            comps.append(acc * Fraction(1, p**j))
    return comps


def ghost_inverse(g: GhostVector) -> WittVector:
    if g.ctx.modulus:
        raise InvalidInputError("ghost_inverse needs a torsion-free base")
    return make_witt(g.ctx, _ghost_inverse_components(g.ctx.p, list(g.entries)))


def _lift_binary(op_name, x: WittVector, y: WittVector) -> WittVector:
    if x.ctx != y.ctx:
        raise InvalidInputError("Witt context mismatch")
    ctx = x.ctx
    p = ctx.p
    gx = _ghost_entries(p, list(x.components))
    gy = _ghost_entries(p, list(y.components))
    if op_name == "add":
        g = [a + b for a, b in zip(gx, gy)]
    elif op_name == "mul":
        g = [a * b for a, b in zip(gx, gy)]
    else:  # sub
        g = [a - b for a, b in zip(gx, gy)]
    comps = _ghost_inverse_components(p, g)
    return make_witt(ctx, comps)


def witt_add(x, y):
    return _lift_binary("add", x, y)


def witt_sub(x, y):
    return _lift_binary("sub", x, y)


def witt_mul(x, y):
    return _lift_binary("mul", x, y)


def witt_zero(ctx):
    return make_witt(ctx, [0] * ctx.length)


def teichmuller(a, ctx: WittContext) -> WittVector:
    return make_witt(ctx, (a,) + (0,) * (ctx.length - 1))


def int_to_witt(m: int, ctx: WittContext) -> WittVector:
    """The image of the integer m: constant ghost (m, m, ...)."""
    comps = _ghost_inverse_components(ctx.p, [m] * ctx.length)
    return make_witt(ctx, comps)


def verschiebung(x: WittVector) -> WittVector:
    ctx = x.ctx.resized(x.ctx.length + 1)
    return make_witt(ctx, (0,) + x.components)


def frobenius(x: WittVector) -> WittVector:
    """F: W_L -> W_{L-1}; over Z/p^N computed through an integral lift."""
    if x.ctx.length < 2:
        raise InvalidInputError("frobenius needs length >= 2")
    p = x.ctx.p
    g = _ghost_entries(p, list(x.components))
    comps = _ghost_inverse_components(p, g[1:])
    return make_witt(x.ctx.resized(x.ctx.length - 1), comps)


def delta(x: WittVector) -> WittVector:
    """delta(x) = (F(x) - x^p)/p over Z; phi = F is the Frobenius lift."""
    if x.ctx.modulus:
        raise InvalidInputError("delta needs the torsion-free base Z")
    if x.ctx.length < 2:
        raise InvalidInputError("delta needs length >= 2")
    p = x.ctx.p
    g = _ghost_entries(p, list(x.components))
    dg = []
    for j in range(x.ctx.length - 1):
        num = g[j + 1] - g[j] ** p
        q, r = divmod(num, p)
        if r:
            raise ArithmeticError("F(x) = x^p mod p fails")
        dg.append(q)
    comps = _ghost_inverse_components(p, dg)
    return make_witt(x.ctx.resized(x.ctx.length - 1), comps)


def witt_scalar(m: int, x: WittVector) -> WittVector:
    return witt_mul(int_to_witt(m, x.ctx), x)


# ---------------------------------------------------------------------------
# identity suite


def gabber_y(p: int, L: int) -> WittVector:
    """Witt vector with ghost coordinates (1 - p^(p^(j+1)-1))_j over Z."""
    ctx = WittContext(p, L)
    entries = [1 - p ** (p ** (j + 1) - 1) for j in range(L)]
    return make_witt(ctx, _ghost_inverse_components(p, entries))


def check_gabber_identity(p: int, L: int) -> dict:
    """[p] + V(y) = p in W_L(Z)."""
    y = gabber_y(p, L - 1)
    lhs = witt_add(teichmuller(p, WittContext(p, L)), verschiebung(y))
    rhs = int_to_witt(p, WittContext(p, L))
    return {
        "p": p,
        "length": L,
        "holds": lhs == rhs,
        "lhs": list(lhs.components),
        "rhs": list(rhs.components),
    }


def check_pn_vanishing(p: int, n: int, L: int) -> dict:
    """p^n = V(p^(n-1)) = VF(V(p^(n-2))) in W_L(Z/p^n), plus the integral
    ghost identity ghost(p^n - V(p^(n-1))) = (p^n, 0, ..., 0)."""
    ctx_mod = WittContext(p, L, p**n)
    lhs = int_to_witt(p**n, ctx_mod)
    v_form = verschiebung(int_to_witt(p ** (n - 1), ctx_mod.resized(L - 1)))
    holds_v = lhs == v_form
    holds_vfv = True
    if n >= 2:
        inner = verschiebung(int_to_witt(p ** (n - 2), ctx_mod.resized(L - 1)))
        vfv = verschiebung(frobenius(inner))
        holds_vfv = lhs == vfv
    ctx_z = WittContext(p, L)
    diff = witt_sub(
        int_to_witt(p**n, ctx_z),
        verschiebung(int_to_witt(p ** (n - 1), ctx_z.resized(L - 1))),
    )
    ghost = list(ghost_map(diff).entries)
    ghost_ok = ghost == [p**n] + [0] * (L - 1)
    return {
        "p": p,
        "n": n,
        "length": L,
        "holds_v": holds_v,
        "holds_vfv": holds_vfv,
        "ghost": [str(gi) for gi in ghost],
        "ghost_ok": ghost_ok,
        "holds": holds_v and holds_vfv and ghost_ok,
    }


def frobenius_of_p_identity(p: int, L: int) -> dict:
    """Apply F to [p] + V(y) = p: checks [p^p] = p(1-y) exactly, and whether
    the Teichmueller square [p^2] = p(1-y) also holds (it does only at p=2)."""
    ctx = WittContext(p, L)
    y = gabber_y(p, L)
    rhs = witt_mul(int_to_witt(p, ctx), witt_sub(int_to_witt(1, ctx), y))
    holds_pp = teichmuller(p**p, ctx) == rhs
    holds_p2 = teichmuller(p**2, ctx) == rhs
    fp = frobenius(int_to_witt(p, ctx))
    f_fixes_ints = fp == int_to_witt(p, ctx.resized(L - 1))
    return {
        "p": p,
        "length": L,
        "holds_p_to_p": holds_pp,
        "holds_p_squared": holds_p2,
        "agree": holds_pp == holds_p2,
        "frobenius_fixes_integers": f_fixes_ints,
    }


# ---------------------------------------------------------------------------
# Frobenius preimages (digit-by-digit)


@dataclass
class SolveFrobeniusResult:
    success: bool
    p: int
    x_digits: list = None          # x_j known modulo p^(N-j)
    precision: int = 0
    stage: int = None
    witness: dict = None
    side_conditions: dict = None


def solve_frobenius(y: WittVector, guard: int = 4) -> SolveFrobeniusResult:
    """Solve F(x) = y one component at a time, in Z/p^N with N = L + guard.

    Success returns the digits of x (x_j modulo p^(N-j)) and the side
    conditions on residues; failure returns the first unsolvable congruence
    p^n * x_n = c (mod p^(n+1)).
    """
    p = y.ctx.p
    L = y.ctx.length
    N = L + guard
    if y.ctx.modulus and int_valuation(p, y.ctx.modulus) < N:
        raise PrecisionError(
            f"need components mod p^{N}, have p^{int_valuation(p, y.ctx.modulus)}"
        )
    mod = p**N
    gy = _ghost_entries(p, [c % mod for c in y.components], mod)

    x = [gy[0] % p]  # x_0 is determined mod p only; canonical lift
    for n in range(1, L + 1):
        target = gy[n - 1]
        acc = target
        for i in range(n):
            acc = (acc - p**i * pow(x[i], p ** (n - i), mod)) % mod
        if acc % p**n:
            bal = ((acc % p ** (n + 1)) + p**n) % p ** (n + 1) - p**n
            return SolveFrobeniusResult(
                success=False,
                p=p,
                stage=n,
                precision=N,
                witness={
                    "lhs_coefficient": p**n,
                    "rhs_mod": acc % p ** (n + 1),
                    "rhs_balanced": bal,
                    "modulus": p ** (n + 1),
                    "congruence": f"{p**n}*x_{n} = {bal} (mod {p**(n+1)})",
                },
            )
        x.append((acc // p**n) % p ** (N - n))

    ghost_x = _ghost_entries(p, x, mod)
    side = {
        "x0_mod_p": x[0] % p,
        "higher_components_div_p": all(xi % p == 0 for xi in x[1:]),
        "all_components_div_p": all(xi % p == 0 for xi in x),
        "ghost_mod_p": [g % p for g in ghost_x],
        "ghost_all_one_mod_p": all(g % p == 1 for g in ghost_x),
    }
    # verify F(x) = y at the working precision
    if any((ghost_x[n] - gy[n - 1]) % p ** (N - n) for n in range(1, L + 1)):
        raise ArithmeticError("F(x) = y fails at the working precision")
    return SolveFrobeniusResult(
        success=True, p=p, x_digits=x, precision=N, side_conditions=side
    )


# ---------------------------------------------------------------------------
# Cartier pairing and the Dwork factorization


def _artin_hasse_factor(p, a, start, n, ring):
    """exp(sum_{m=0}^{n-1-start} a[m+start] t^(p^m) / p^m), truncated."""
    s = TruncPoly(ring, {(p**m,): Fraction(a[m + start], p**m) for m in range(n - start)})
    return s.series_exp()


def cartier_character(
    p: int,
    a: list,
    x_scalars: list,
    degree_bound: int,
    xprime_scalars: list = None,
    require_integral: bool = False,
) -> dict:
    """Pairing of a ghost tuple a (a_m = 0 for m >= n) against Witt components.

    Components are placed on the formal line as x_j * t. Builds
    f(t) = exp(sum a_m t^(p^m)/p^m), scans it for p-integrality, evaluates
    g(x) = prod_j F^j(f)(x_j t), checks that log g(x) is
    sum_m (a_m/p^m) w_m(x t), and (given a second vector) that
    g(x +_W x') = g(x) g(x').
    """
    require_prime(p)
    n = len(x_scalars)
    if len(a) < n:
        a = list(a) + [0] * (n - len(a))
    ring = univariate_ring("t", degree_bound)
    t = TruncPoly.var(ring, "t")

    factors = [_artin_hasse_factor(p, a, j, n, ring) for j in range(n)]
    f = factors[0]
    first_bad = None
    for mono, c in f.sorted_terms():
        if isinstance(c, Fraction) and c.denominator % p == 0:
            first_bad = {"monomial": f"t^{mono[0]}", "coefficient": str(c)}
            break
    if require_integral and first_bad:
        raise IntegralityViolationError(
            first_bad["monomial"],
            f"non-p-integral coefficient {first_bad['coefficient']} at {first_bad['monomial']}",
        )

    def g_of(args):
        """prod_j F^j(f)(args[j]) for series args[j] in t."""
        out = TruncPoly.const(ring, 1)
        for factor, arg in zip(factors, args):
            out = out * factor.substitute({"t": arg})
        return out

    xt = [t * c for c in x_scalars]
    gx = g_of(xt)

    # log g(x) = sum_m (a_m / p^m) w_m(x t)
    expected_log = TruncPoly.zero(ring)
    for m in range(n):
        wm = ghost_polynomial(p, m, xt)
        expected_log = expected_log + wm.map_coeffs(
            lambda c, m=m: Fraction(c * a[m], p**m)
        )
    log_ok = gx.series_log() == expected_log

    additive_ok = None
    if xprime_scalars is not None:
        xpt = [t * c for c in xprime_scalars]
        # Witt sum with polynomial components, through the ghost map over Q[t]
        gs = [ghost_polynomial(p, j, xt) + ghost_polynomial(p, j, xpt) for j in range(n)]
        additive_ok = g_of(_ghost_inverse_components(p, gs)) == gx * g_of(xpt)

    return {
        "p": p,
        "n": n,
        "degree_bound": degree_bound,
        "f_p_integral": first_bad is None,
        "first_violation": first_bad,
        "log_identity": log_ok,
        "additivity": additive_ok,
    }


def dwork_factorization(x_seq: list, degree_bound: int, lift=None, p_scope=None) -> dict:
    """Factor exp(sum x_n t^n / n) as prod (1 - r_j t^j) with integral r_j.

    x_seq[0] is x_1. `lift` is the family of Frobenius lifts (prime, value) ->
    value, defaulting to the identity (the right choice over Z). Preconditions
    x_n = phi_p(x_{n/p}) mod p^{v_p(n)} are checked for all p | n, n <= bound.
    """
    if lift is None:
        lift = lambda p, v: v
    xs = {i + 1: x_seq[i] for i in range(min(len(x_seq), degree_bound))}
    if len(xs) < degree_bound:
        raise InvalidInputError("need x_1..x_D")
    primes = p_scope or [q for q in range(2, degree_bound + 1) if is_prime(q)]
    for nn in range(2, degree_bound + 1):
        for q in primes:
            if nn % q == 0:
                v = int_valuation(q, nn)
                if (xs[nn] - lift(q, xs[nn // q])) % q**v != 0:
                    raise InvalidInputError(
                        f"congruence fails at (p, n) = ({q}, {nn}): "
                        f"x_{nn} != phi_{q}(x_{nn // q}) mod {q**v}"
                    )
    r = {}
    for nn in range(1, degree_bound + 1):
        acc = xs[nn]
        for j in range(1, nn):
            if nn % j == 0:
                acc += j * r[j] ** (nn // j)
        q, rem = divmod(-acc, nn)
        if rem:
            raise IntegralityViolationError(
                f"r_{nn}", f"r_{nn} = {Fraction(-acc, nn)} is not integral"
            )
        r[nn] = q

    ring = univariate_ring("t", degree_bound)
    t = TruncPoly.var(ring, "t")
    lhs = TruncPoly(ring, {(nn,): Fraction(xs[nn], nn) for nn in xs}).series_exp()
    rhs = TruncPoly.const(ring, 1)
    for j in range(1, degree_bound + 1):
        rhs = rhs * (1 - r[j] * t**j)
    return {
        "r": [r[j] for j in range(1, degree_bound + 1)],
        "reconstructs": lhs == rhs,
    }
