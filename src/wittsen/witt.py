"""p-typical Witt vectors of fixed finite length.

Vectors live over Z or Z/p^N. Ring operations are the universal structure
polynomials, evaluated by transporting through the ghost isomorphism over a
torsion-free lift (the same values, by functoriality, and tractable at the
lengths the identity suite needs).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .exactalg import (
    Hurwitz,
    IdentityError,
    InvalidInputError,
    PolyRing,
    PrecisionError,
    TruncPoly,
    factorial_valuation,
    int_valuation,
    is_prime,
    require_prime,
    split_p,
)


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
        if self.modulus and split_p(self.p, self.modulus)[1] != 1:
            raise InvalidInputError("modulus must be a power of p")

    def reduce(self, c):
        return c % self.modulus if self.modulus else c

    def resized(self, length):
        return WittContext(self.p, length, self.modulus)


@dataclass(frozen=True)
class WittVector:
    """Components (any iterable) over the base ring of ctx, reduced on entry."""

    ctx: WittContext
    components: tuple

    def __post_init__(self):
        comps = tuple(map(self.ctx.reduce, self.components))
        if len(comps) != self.ctx.length:
            raise InvalidInputError("component count != context length")
        object.__setattr__(self, "components", comps)


# ---------------------------------------------------------------------------
# ghost transport


def _ghost_entries(p, comps, modulus=0):
    """Ghost components w_j = sum_(i<=j) p^i comps[i]^(p^(j-i)) for every j
    below len(comps): of integers mod modulus when one is given, else of
    integers or integer Hurwitz series exactly."""
    out = []
    for j in range(len(comps)):
        if modulus:
            acc = sum(p**i * pow(comps[i], p ** (j - i), modulus)
                      for i in range(j + 1)) % modulus
        else:
            acc = comps[0] ** (p**j)
            for i in range(1, j + 1):
                acc = acc + comps[i] ** (p ** (j - i)) * p**i
        out.append(acc)
    return out


def ghost_map(x: WittVector) -> tuple:
    return tuple(_ghost_entries(x.ctx.p, x.components, x.ctx.modulus))


def _ghost_inverse_components(p, entries):
    """Solve the ghost recursion over Z or Hurwitz series; p^j must divide step j."""
    comps = []
    for j, g in enumerate(entries):
        acc = g
        for i in range(j):
            acc = acc - comps[i] ** (p ** (j - i)) * p**i
        q = acc // p**j
        if q * p**j != acc:
            raise IdentityError(f"ghost entry {j}: {p}^{j} does not divide {acc}",
                                {"index": j})
        comps.append(q)
    return comps


def _lift_binary(op, x: WittVector, y: WittVector) -> WittVector:
    """Apply op to the ghost components and solve back for Witt components."""
    if x.ctx != y.ctx:
        raise InvalidInputError("Witt context mismatch")
    p = x.ctx.p
    g = map(op, _ghost_entries(p, x.components), _ghost_entries(p, y.components))
    return WittVector(x.ctx, _ghost_inverse_components(p, g))


def witt_add(x, y):
    return _lift_binary(operator.add, x, y)


def witt_sub(x, y):
    return _lift_binary(operator.sub, x, y)


def witt_mul(x, y):
    return _lift_binary(operator.mul, x, y)


def teichmuller(a, ctx: WittContext) -> WittVector:
    return WittVector(ctx, (a,) + (0,) * (ctx.length - 1))


def int_to_witt(m: int, ctx: WittContext) -> WittVector:
    """The image of the integer m: constant ghost (m, m, ...)."""
    comps = _ghost_inverse_components(ctx.p, [m] * ctx.length)
    return WittVector(ctx, comps)


def verschiebung(x: WittVector) -> WittVector:
    ctx = x.ctx.resized(x.ctx.length + 1)
    return WittVector(ctx, (0,) + x.components)


def frobenius(x: WittVector) -> WittVector:
    """F: W_L -> W_{L-1}; over Z/p^N computed through an integral lift."""
    if x.ctx.length < 2:
        raise InvalidInputError("frobenius needs length >= 2")
    p = x.ctx.p
    g = _ghost_entries(p, x.components)
    comps = _ghost_inverse_components(p, g[1:])
    return WittVector(x.ctx.resized(x.ctx.length - 1), comps)


# ---------------------------------------------------------------------------
# identity suite


def gabber_y(p: int, L: int) -> WittVector:
    """Witt vector with ghost coordinates (1 - p^(p^(j+1)-1))_j over Z."""
    ctx = WittContext(p, L)
    entries = [1 - p ** (p ** (j + 1) - 1) for j in range(L)]
    return WittVector(ctx, _ghost_inverse_components(p, entries))


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
    ghost = ghost_map(diff)
    ghost_ok = ghost == (p**n,) + (0,) * (L - 1)
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
    x_digits: list = None          # x_j known modulo p^(N-j)
    precision: int = 0
    stage: int = None
    witness: dict = None
    side_conditions: dict = None


def solve_frobenius(y: WittVector) -> SolveFrobeniusResult:
    """Solve F(x) = y one component at a time, in Z/p^N with N = L + 4.

    Success returns the digits of x (x_j modulo p^(N-j)) and the side
    conditions on residues; failure returns the first unsolvable congruence
    p^n * x_n = c (mod p^(n+1)).
    """
    p = y.ctx.p
    L = y.ctx.length
    N = L + 4
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
    bad = next((n for n in range(1, L + 1) if (ghost_x[n] - gy[n - 1]) % p ** (N - n)), None)
    if bad is not None:
        raise IdentityError("F(x) = y fails at the working precision", {"p": p, "index": bad})
    return SolveFrobeniusResult(
        success=True, x_digits=x, precision=N, side_conditions=side
    )


# ---------------------------------------------------------------------------
# Cartier pairing and the Dwork factorization


def cartier_character(p: int, a: list, x_scalars: list, degree_bound: int,
                      xprime_scalars: list) -> dict:
    """Pairing of an integer ghost tuple a (a_m = 0, m >= n) with integer Witt vectors.

    Components are placed on the formal line as x_j * t. Builds
    f(t) = exp(sum a_m t^(p^m)/p^m), scans it for p-integrality, evaluates
    g(x) = prod_j F^j(f)(x_j t), checks that log g(x) is
    sum_m (a_m/p^m) w_m(x t), and that g(x +_W x') = g(x) g(x') for the
    second vector x'.

    Every series is an integer Hurwitz series b (exactalg.Hurwitz); f is
    p-integral where v_p(b_k) >= v_p(k!). Every division is exact: a factor at
    s = c t scales b_k by c^k, at other s it is sum_k b_k s^[k], and each
    s^[k] = s^[k-1] s / k is a Hurwitz series; the Witt sum of x t and x' t has
    integer polynomial components; the log identity is compared times p^(n-1).
    """
    require_prime(p)
    n = len(x_scalars)
    if not n:
        raise InvalidInputError("x_scalars needs at least one component")
    if len(xprime_scalars) != n:
        raise InvalidInputError(f"xprime_scalars needs {n} components, "
                                f"got {len(xprime_scalars)}")
    if any(a[n:]):
        raise InvalidInputError(f"a has a nonzero a_m at m >= len(x_scalars) = {n}: {list(a)}")
    if degree_bound < 0:
        raise InvalidInputError(f"degree_bound must be >= 0, got {degree_bound}")
    if not all(type(v) is int for v in (*a, *x_scalars, *xprime_scalars)):
        raise InvalidInputError("a, x_scalars and xprime_scalars take integers")
    a = list(a[:n]) + [0] * (n - len(a))

    def series(coeffs):
        return Hurwitz([coeffs.get(k, 0) for k in range(degree_bound + 1)])

    # t^(p^m)/p^m has Hurwitz coefficient (p^m - 1)!
    factors = [series({p**m: a[m + j] * factorial(p**m - 1) for m in range(n - j)}).exp()
               for j in range(n)]
    first_bad = next(({"monomial": f"t^{k}", "coefficient": str(Fraction(b, factorial(k)))}
                      for k, b in enumerate(factors[0].b)
                      if b % p ** factorial_valuation(p, k)), None)

    def g_of(args):  # prod_j F^j(f)(args[j])
        out = series({0: 1})
        for factor, arg in zip(factors, args):
            if any(arg.b[2:]):
                value, power = series({}), series({0: 1})
                for k, b in enumerate(factor.b, 1):
                    value, power = value + power * b, power * arg // k
            else:  # arg = c t
                c = arg.b[1] if degree_bound else 0
                value = Hurwitz([b * c**k for k, b in enumerate(factor.b)])
            out = out * value
        return out

    xt = [series({1: c}) for c in x_scalars]
    gx = g_of(xt)
    ghost_x = _ghost_entries(p, xt)
    scaled = sum((w * (a[m] * p ** (n - 1 - m)) for m, w in enumerate(ghost_x)), series({}))
    log_ok = gx.log() * p ** (n - 1) == scaled

    xpt = [series({1: c}) for c in xprime_scalars]
    # Witt sum with polynomial components, through the ghost map
    gs = [w + w2 for w, w2 in zip(ghost_x, _ghost_entries(p, xpt))]
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


def dwork_factorization(x_seq: list, degree_bound: int) -> dict:
    """Factor exp(sum x_n t^n / n) as prod (1 - r_j t^j) with integral r_j.

    x_seq[0] is x_1. Over Z every Frobenius lift is the identity, so the
    preconditions x_n = x_{n/p} mod p^{v_p(n)} are checked for all primes
    p | n, n <= bound.
    """
    xs = {i + 1: x_seq[i] for i in range(min(len(x_seq), degree_bound))}
    if len(xs) < degree_bound:
        raise InvalidInputError("need x_1..x_D")
    primes = [q for q in range(2, degree_bound + 1) if is_prime(q)]
    for nn in range(2, degree_bound + 1):
        for q in primes:
            if nn % q == 0:
                v = int_valuation(q, nn)
                if (xs[nn] - xs[nn // q]) % q**v != 0:
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
            raise IdentityError(f"r_{nn} = {Fraction(-acc, nn)} is not integral", {"n": nn})
        r[nn] = q

    ring = PolyRing(vars=("t",), bounds=(degree_bound,))
    t = TruncPoly.var(ring, "t")
    lhs = TruncPoly(ring, {(nn,): Fraction(xs[nn], nn) for nn in xs}).series_exp()
    rhs = TruncPoly.const(ring, 1)
    for j in range(1, degree_bound + 1):
        rhs = rhs * (1 - r[j] * t**j)
    return {
        "r": [r[j] for j in range(1, degree_bound + 1)],
        "reconstructs": lhs == rhs,
    }
