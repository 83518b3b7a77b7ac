"""Formal group laws as truncated series, n-series and divided n-series,
logarithms, Tate-quotient data, and the graded right-unit computations on
the polynomial generators of the Brown-Peterson coefficient ring."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactalg import (
    InvalidInputError,
    PolyRing,
    TruncPoly,
    require_prime,
)


class InvalidFGLError(ValueError):
    def __init__(self, degree, message):
        self.degree = degree
        super().__init__(message)


@dataclass
class FormalGroupLaw:
    """Bivariate law F(X, Y) to total degree D over the given ring.

    Coefficient variables (lam, v, ...) live in the same PolyRing as X, Y but
    do not count toward the degree truncation.
    """

    kind: str
    params: dict
    D: int
    ring: PolyRing
    F: TruncPoly
    modulus: int = 0

    def series_ring(self, name: str, bound: int) -> PolyRing:
        coeffs = tuple(v for v in self.ring.vars if v not in ("X", "Y"))
        return PolyRing(
            vars=(name,) + coeffs,
            bounds=(bound,) + (None,) * len(coeffs),
            modulus=self.modulus,
        )


def _bivariate_ring(coeff_vars: tuple, D: int, modulus: int = 0) -> PolyRing:
    names = ("X", "Y") + coeff_vars
    return PolyRing(
        vars=names,
        total_bound=D,
        counted=(True, True) + (False,) * len(coeff_vars),
        modulus=modulus,
    )


def _axiom_failure_degree(F: TruncPoly, D: int, modulus: int):
    """Smallest total degree at which an axiom fails, or None."""
    ring = F.ring
    X = TruncPoly.var(ring, "X")
    Y = TruncPoly.var(ring, "Y")

    def min_degree(poly):
        if poly.is_zero():
            return None
        ix, iy = ring.index("X"), ring.index("Y")
        return min(m[ix] + m[iy] for m in poly.terms)

    fails = []
    d = min_degree(F.substitute({"Y": 0}) - X)
    if d is not None:
        fails.append(d)
    d = min_degree(F.substitute({"X": 0}) - Y)
    if d is not None:
        fails.append(d)
    d = min_degree(F - F.substitute({"X": Y, "Y": X}))
    if d is not None:
        fails.append(d)

    coeffs = tuple(v for v in ring.vars if v not in ("X", "Y"))
    tri = PolyRing(
        vars=("X", "Y", "Z") + coeffs,
        total_bound=D,
        counted=(True, True, True) + (False,) * len(coeffs),
        modulus=modulus,
    )
    Xt, Yt, Zt = (TruncPoly.var(tri, n) for n in ("X", "Y", "Z"))
    left = F.substitute({"X": F.substitute({"X": Xt, "Y": Yt}), "Y": Zt})
    right = F.substitute({"X": Xt, "Y": F.substitute({"X": Yt, "Y": Zt})})
    diff = left - right
    if not diff.is_zero():
        ix, iy, iz = tri.index("X"), tri.index("Y"), tri.index("Z")
        fails.append(min(m[ix] + m[iy] + m[iz] for m in diff.terms))
    return min(fails) if fails else None


def _compositional_inverse(f: TruncPoly, var: str, bound: int) -> TruncPoly:
    """g with f(g(x)) = x + O(x^(bound+1)); f = x + higher (Newton)."""
    ring = f.ring
    x = TruncPoly.var(ring, var)
    g = x
    prec = 2
    while True:
        sub_ring = PolyRing(
            vars=ring.vars,
            bounds=tuple(prec - 1 if nm == var else b for nm, b in zip(ring.vars, ring.bounds)),
            modulus=ring.modulus,
        )
        cut = lambda poly: TruncPoly(sub_ring, poly.terms)
        fg = cut(f).substitute({var: cut(g)})
        err = fg - TruncPoly.var(sub_ring, var)
        if err.is_zero() and prec > bound:
            break
        dfg = cut(f.derivative(var)).substitute({var: cut(g)})
        corr = err * dfg.series_inverse()
        g = TruncPoly(ring, (cut(g) - corr).terms)
        if prec > bound:
            break
        prec = min(prec * 2, bound + 1)
    return g


def _honda_log_exp(p: int, n: int, bound: int):
    """(log, exp) of the height-n Honda law over Q[v], in x up to x^bound:
    log(x) = sum_i v^((p^(ni)-1)/(p^n-1)) x^(p^(ni)) / p^i."""
    if n < 1:
        raise InvalidInputError("height n must be >= 1")
    terms = {}
    i = 0
    while p ** (n * i) <= bound:
        terms[(p ** (n * i), (p ** (n * i) - 1) // (p**n - 1))] = Fraction(1, p**i)
        i += 1
    logf = TruncPoly(PolyRing(vars=("x", "v"), bounds=(bound, None)), terms)
    return logf, _compositional_inverse(logf, "x", bound)


def fgl_construct(kind: str, D: int, lam=None, p: int = None, n: int = None,
                  F_custom: TruncPoly = None) -> FormalGroupLaw:
    """additive -> X+Y; multiplicative -> X+Y+lam*X*Y (lam an integer or the
    symbol 'lam'); honda -> the height-n law over F_p[v] with p-series
    v*x^(p^n); custom -> validate the supplied series."""
    if kind == "additive":
        ring = _bivariate_ring((), D)
        F = TruncPoly.var(ring, "X") + TruncPoly.var(ring, "Y")
        return FormalGroupLaw("additive", {}, D, ring, F)

    if kind == "multiplicative":
        if lam == "lam":
            ring = _bivariate_ring(("lam",), D)
            lam_poly = TruncPoly.var(ring, "lam")
            params = {"lam": "lam"}
        else:
            ring = _bivariate_ring((), D)
            lam_poly = TruncPoly.const(ring, int(lam))
            params = {"lam": int(lam)}
        X, Y = TruncPoly.var(ring, "X"), TruncPoly.var(ring, "Y")
        return FormalGroupLaw("multiplicative", params, D, ring, X + Y + lam_poly * X * Y)

    if kind == "honda":
        require_prime(p)
        logf, expf = _honda_log_exp(p, n, D)
        ring0 = _bivariate_ring(("v",), D)
        X0, Y0 = TruncPoly.var(ring0, "X"), TruncPoly.var(ring0, "Y")
        lx = logf.substitute({"x": X0})
        ly = logf.substitute({"x": Y0})
        F_rat = expf.substitute({"x": lx + ly})
        ring = _bivariate_ring(("v",), D, modulus=p)
        F = TruncPoly(ring, F_rat.terms)  # p-integral coefficients reduce mod p
        fgl = FormalGroupLaw("honda", {"p": p, "n": n}, D, ring, F, modulus=p)
        bad = _axiom_failure_degree(F, min(D, 12), p)
        if bad is not None:
            raise InvalidFGLError(bad, f"honda law fails axioms at degree {bad}")
        return fgl

    if kind == "custom":
        F = F_custom
        bad = _axiom_failure_degree(F, D, F.ring.modulus)
        if bad is not None:
            raise InvalidFGLError(bad, f"axioms fail at degree {bad}")
        return FormalGroupLaw("custom", {}, D, F.ring, F, modulus=F.ring.modulus)

    raise InvalidInputError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# n-series


def _series_var(F: FormalGroupLaw, bound: int):
    ring = F.series_ring("x", bound)
    return ring, TruncPoly.var(ring, "x")


def formal_inverse(F: FormalGroupLaw, bound: int) -> TruncPoly:
    """iota with F(x, iota(x)) = 0, solved degree by degree."""
    ring, x = _series_var(F, bound)
    iota = -x
    for d in range(2, bound + 1):
        err = F.F.substitute({"X": x, "Y": iota})
        # correction at degree d: F(x, iota + c x^d) = err + c x^d + higher
        corr = TruncPoly(
            ring,
            {m: -c for m, c in err.terms.items() if m[ring.index("x")] == d},
        )
        iota = iota + corr
    if not F.F.substitute({"X": x, "Y": iota}).is_zero():
        raise ArithmeticError("F(x, iota(x)) is not 0")
    return iota


def n_series(F: FormalGroupLaw, m: int, bound: int = None) -> TruncPoly:
    """[m](x), the m-fold formal sum, truncated at the law's degree."""
    bound = bound or F.D
    ring, x = _series_var(F, bound)
    if m < 0:
        iota = formal_inverse(F, bound)
        pos = n_series(F, -m, bound)
        return iota.substitute({"x": pos})
    cur = TruncPoly.zero(ring)
    for _ in range(m):
        cur = F.F.substitute({"X": cur, "Y": x})
    return cur


def divided_n_series(F: FormalGroupLaw, m: int, bound: int = None) -> TruncPoly:
    """<m>(h) = [m](h)/h as a polynomial in h (plus coefficient vars)."""
    bound = bound or F.D
    series = n_series(F, m, bound + 1)
    ring = F.series_ring("h", bound)
    ix = series.ring.index("x")
    out = {}
    for mono, c in series.terms.items():
        if mono[ix] < 1:
            raise ArithmeticError("[m](h) has a term without h")
        new = list(mono)
        new[ix] -= 1
        out[tuple(new)] = c
    return TruncPoly(ring, out)


@dataclass
class SeriesInH:
    """A truncated series in the degree -2 variable h."""

    series: TruncPoly
    bound: int


def fgl_log_exp(F: FormalGroupLaw, bound: int):
    """(log_F, exp_F) over a Q-algebra: log'(x) = 1/(dF/dY)(x, 0)."""
    if F.modulus:
        raise InvalidInputError("log/exp need a Q-algebra coefficient ring")
    ring, x = _series_var(F, bound)
    omega = F.F.derivative("Y").substitute({"X": x, "Y": 0})
    integrand = omega.series_inverse()
    ix = ring.index("x")
    log_terms = {}
    for mono, c in integrand.terms.items():
        new = list(mono)
        new[ix] += 1
        log_terms[tuple(new)] = Fraction(c, new[ix])
    logf = TruncPoly(ring, log_terms)
    expf = _compositional_inverse(logf, "x", bound)
    return logf, expf


def q_integer(nval: int, lam, ring: PolyRing) -> TruncPoly:
    """[n]_q = sum_{i<n} q^i at q = 1 + lam*h, as a polynomial in h."""
    h = TruncPoly.var(ring, "h")
    lam_poly = TruncPoly.var(ring, "lam") if lam == "lam" else TruncPoly.const(ring, lam)
    q = 1 + lam_poly * h
    out = TruncPoly.zero(ring)
    power = TruncPoly.const(ring, 1)
    for _ in range(nval):
        out = out + power
        power = power * q
    return out


def honda_p_series(p: int, n: int, bound: int) -> TruncPoly:
    """[p](x) over F_p[v], computed from the integral logarithm and verified
    to be exactly v x^(p^n)."""
    logf, expf = _honda_log_exp(p, n, bound)
    pseries_rat = expf.substitute({"x": logf * p})
    mod_ring = PolyRing(vars=("x", "v"), bounds=(bound, None), modulus=p)
    pseries = TruncPoly(mod_ring, pseries_rat.terms)
    expected = TruncPoly(mod_ring, {(p**n, 1): 1})
    if pseries != expected:
        raise InvalidFGLError(None, "honda p-series is not v*x^(p^n)")
    return pseries


def honda_pm_divided_series(p: int, n: int, m: int) -> dict:
    """<p^m>(h) for the height-n law: compose the verified p-series m times."""
    bound = p ** (n * m)
    honda_p_series(p, n, max(bound, 2 * p**n))  # verifies the base case exactly
    exp_v, exp_x = 0, 1
    for _ in range(m):
        # apply x -> v x^(p^n): v * (v^a x^b)^(p^n) = v^(a p^n + 1) x^(b p^n)
        exp_v = exp_v * p**n + 1
        exp_x = exp_x * p**n
    ring = PolyRing(vars=("h", "v"), bounds=(bound, None), modulus=p)
    series = TruncPoly(ring, {(exp_x - 1, exp_v): 1})
    expected_e = (p ** (n * m) - 1) // (p**n - 1)
    return {
        "series": series,
        "v_exponent": exp_v,
        "h_exponent": exp_x - 1,
        "matches_closed_form": exp_v == expected_e and exp_x == p ** (n * m),
    }


def tate_quotient_series(F: FormalGroupLaw, m: int, bound: int) -> dict:
    """The divided m-series and, in the Honda case, the nilpotence exponent of
    v in the quotient by (<p^m>(h)) after inverting h."""
    out = {"kind": F.kind, "m": m}
    if F.kind == "honda":
        p, n = F.params["p"], F.params["n"]
        mm = m
        power = 0
        while mm % p == 0:
            mm //= p
            power += 1
        if mm != 1:
            raise InvalidInputError("honda tate quotient expects m a power of p")
        data = honda_pm_divided_series(p, n, power)
        out["series"] = SeriesInH(data["series"], p ** (n * power))
        out["annihilation_exponent"] = data["v_exponent"]
        out["closed_form_ok"] = data["matches_closed_form"]
        return out
    series = divided_n_series(F, m, bound)
    out["series"] = SeriesInH(series, bound)
    if F.kind == "additive":
        out["quotient"] = f"base ring mod {m} in each h-degree"
    if F.kind == "multiplicative":
        ring = series.ring
        out["equals_q_integer"] = series == q_integer(m, F.params["lam"], ring)
    return out


# ---------------------------------------------------------------------------
# Hazewinkel generators and the right unit


def _bp_ring(p: int, N: int) -> PolyRing:
    names = tuple(f"l{i}" for i in range(1, N + 1)) \
        + tuple(f"v{i}" for i in range(1, N + 1)) \
        + tuple(f"t{i}" for i in range(1, N + 1))
    degs = tuple(2 * p**i - 2 for i in range(1, N + 1)) * 3
    return PolyRing(vars=names, degrees=degs)


def hazewinkel_generators(p: int, N: int) -> dict:
    """v_n as polynomials in l_1..l_n: v_n = p l_n - sum_{0<i<n} l_i v_{n-i}^(p^i)."""
    require_prime(p)
    ring = _bp_ring(p, N)
    l = {i: TruncPoly.var(ring, f"l{i}") for i in range(1, N + 1)}
    v = {}
    for nn in range(1, N + 1):
        acc = l[nn] * p
        for i in range(1, nn):
            acc = acc - l[i] * v[nn - i] ** (p**i)
        v[nn] = acc
    return v


def _l_in_terms_of_v(p: int, N: int, ring: PolyRing) -> dict:
    """Invert the Hazewinkel recursion: l_n = (v_n + sum l_i v_{n-i}^(p^i))/p."""
    v = {i: TruncPoly.var(ring, f"v{i}") for i in range(1, N + 1)}
    l = {}
    for nn in range(1, N + 1):
        acc = v[nn]
        for i in range(1, nn):
            acc = acc + l[i] * v[nn - i] ** (p**i)
        l[nn] = acc.map_coeffs(lambda c: Fraction(c, p))
    return l


def bp_right_unit(p: int, N: int) -> dict:
    """eta_R(v_n) in Z_(p)[v_1..v_n, t_1..t_n].

    Computed through the logarithm coefficients: eta_R(l_n) = sum l_i t_{n-i}^(p^i),
    the generator recursion applied on the image side, then l_i eliminated.
    Integrality of the result is asserted, not assumed.
    """
    require_prime(p)
    ring = _bp_ring(p, N)
    l = _l_in_terms_of_v(p, N, ring)
    l[0] = TruncPoly.const(ring, 1)
    t = {i: TruncPoly.var(ring, f"t{i}") for i in range(1, N + 1)}
    t[0] = TruncPoly.const(ring, 1)

    eta_l = {0: TruncPoly.const(ring, 1)}
    for nn in range(1, N + 1):
        acc = TruncPoly.zero(ring)
        for i in range(0, nn + 1):
            acc = acc + l[i] * t[nn - i] ** (p**i)
        eta_l[nn] = acc

    eta_v = {}
    for nn in range(1, N + 1):
        acc = eta_l[nn] * p
        for i in range(1, nn):
            acc = acc - eta_l[i] * eta_v[nn - i] ** (p**i)
        eta_v[nn] = acc
        bad = acc.min_p_valuation(p)
        if bad is not None and bad < 0:
            raise ArithmeticError(
                f"right unit of v_{nn} is not p-integral (valuation {bad})"
            )
    return eta_v


def polynomial_degree(poly: TruncPoly) -> set:
    """Set of graded degrees of the monomials (uses ring.degrees)."""
    out = set()
    for mono in poly.terms:
        out.add(sum(e * d for e, d in zip(mono, poly.ring.degrees)))
    return out


def b4_cobar_class() -> TruncPoly:
    """(1/2)((eta_R(v_1^4) - v_1^4)/8 - (eta_R(v_1 v_2) - v_1 v_2)) at p = 2."""
    p = 2
    eta = bp_right_unit(p, 2)
    ring = eta[1].ring
    v1 = TruncPoly.var(ring, "v1")
    v2 = TruncPoly.var(ring, "v2")
    first = (eta[1] ** 4 - v1**4).map_coeffs(lambda c: Fraction(c, 8))
    second = eta[1] * eta[2] - v1 * v2
    out = (first - second).map_coeffs(lambda c: Fraction(c, 2))
    bad = out.min_p_valuation(p)
    if bad is not None and bad < 0:
        raise ArithmeticError("degree-8 cobar representative is not 2-integral")
    return out


# ---------------------------------------------------------------------------
# two-term de Rham-style complexes (consumed by senhom)


@dataclass
class FDerhamComplex:
    """Weight-indexed multiplication data: weight m acts by <m>(h)."""

    kind: str
    params: dict
    weight_bound: int
    h_bound: int
    weights: dict = field(default_factory=dict)


def f_derham_complex(F: FormalGroupLaw, weight_bound: int, h_bound: int) -> FDerhamComplex:
    out = FDerhamComplex(F.kind, dict(F.params), weight_bound, h_bound)
    for m in range(0, weight_bound + 1):
        if m == 0:
            ring = F.series_ring("h", h_bound)
            out.weights[m] = TruncPoly.zero(ring)
        else:
            out.weights[m] = divided_n_series(F, m, h_bound)
    return out
