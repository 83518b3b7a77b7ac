"""Formal group laws as truncated series, n-series and divided n-series,
the Honda law's p-series, and the graded right-unit computations on the
polynomial generators of the Brown-Peterson coefficient ring."""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import (
    IdentityError,
    InvalidInputError,
    PolyRing,
    TruncPoly,
    require_prime,
)


@dataclass
class FormalGroupLaw:
    """Bivariate law F(X, Y) to total degree D over the given ring.

    Coefficient variables (lam, v, ...) live in the same PolyRing as X, Y but
    do not count toward the degree truncation.
    """

    D: int
    F: TruncPoly

    def series_ring(self, name: str, bound: int) -> PolyRing:
        coeffs = tuple(v for v in self.F.ring.vars if v not in ("X", "Y"))
        return PolyRing(
            vars=(name,) + coeffs,
            bounds=(bound,) + (None,) * len(coeffs),
            modulus=self.F.ring.modulus,
        )


def _law_ring(names: tuple, coeff_vars: tuple, D: int, modulus: int) -> PolyRing:
    """The variables `names` capped together at total degree D, followed by
    the coefficient variables, which the cap does not count."""
    return PolyRing(
        vars=names + coeff_vars,
        total_bound=D,
        counted=(True,) * len(names) + (False,) * len(coeff_vars),
        modulus=modulus,
    )


def _axiom_failure_degree(F: TruncPoly, D: int):
    """Smallest total degree at which F fails a unit law, commutativity or
    associativity (the last up to degree D), or None."""
    ring = F.ring
    X, Y = TruncPoly.var(ring, "X"), TruncPoly.var(ring, "Y")
    coeffs = tuple(v for v in ring.vars if v not in ("X", "Y"))
    tri = _law_ring(("X", "Y", "Z"), coeffs, D, ring.modulus)
    Xt, Yt, Zt = (TruncPoly.var(tri, n) for n in ("X", "Y", "Z"))
    diffs = (
        F.substitute({"Y": 0}) - X,
        F.substitute({"X": 0}) - Y,
        F - F.substitute({"X": Y, "Y": X}),
        F.substitute({"X": F.substitute({"X": Xt, "Y": Yt}), "Y": Zt})
        - F.substitute({"X": Xt, "Y": F.substitute({"X": Yt, "Y": Zt})}),
    )
    return min((d.ring.weight(m) for d in diffs for m in d.terms), default=None)


def _newton(g: TruncPoly, var: str, bound: int, residual, slope) -> TruncPoly:
    """The root of residual(g) = O(var^(bound+1)) by Newton's iteration from a
    g right to degree 1 in the capped variable `var`, where slope(g), the
    derivative of the residual, is 1 + O(var). The precisions are set from
    the top, bound + 1 (at least 2) and ceil(P/2) before each P, so 2, 3, 5,
    9, 17, 33, 65 for bound 64 and only the last step is full size; a step
    runs in a ring cut at its precision (Brent & Kung, J. ACM 25, 1978).
    h = 1/slope(g) follows by its own step h <- h(2 - slope(g)h), so no
    series is inverted. At step P, g is right modulo var^Q, Q = ceil(P/2),
    so the residual is O(var^Q) and g - residual*h needs h only modulo
    var^(P-Q), P - Q <= Q: slope(g) and h are carried in the ring cut at
    Q - 1, where h's step doubles the ceil(Q/2) it had to reach Q."""
    ring = g.ring

    def cut(poly, prec):
        bounds = tuple(prec - 1 if nm == var else b for nm, b in zip(ring.vars, ring.bounds))
        return TruncPoly(PolyRing(vars=ring.vars, bounds=bounds, modulus=ring.modulus),
                         poly.terms)

    precs = [max(bound + 1, 2)]
    while precs[-1] > 2:
        precs.append((precs[-1] + 1) // 2)
    h, low = TruncPoly.const(ring, 1), 1
    for prec in reversed(precs):
        g = cut(g, prec)
        err = residual(g)
        if err.is_zero() and prec == precs[0]:
            break
        h = cut(h, low)
        h = h * (2 - slope(cut(g, low)) * h)
        if not err.is_zero():  # g is already right modulo var^prec
            g = g - err * cut(h, prec)
        low = prec
    return TruncPoly(ring, g.terms)


def _compositional_inverse(f: TruncPoly, var: str, bound: int,
                           target: TruncPoly) -> TruncPoly:
    """g = f^(-1)(target), the root of f(g) = target + O(var^(bound+1)), for
    f = var + higher and a target with no constant term: _newton from g =
    target to degree 1, with slope f'(g). The reversion of f is the case
    target = var."""
    df = f.derivative(var)
    at = lambda poly, g: TruncPoly(g.ring, poly.terms).substitute({var: g})
    return _newton(target, var, bound,
                   lambda g: at(f, g) - TruncPoly(g.ring, target.terms),
                   lambda g: at(df, g))


def _honda_log(p: int, n: int, bound: int) -> TruncPoly:
    """The height-n Honda logarithm over Z[w], v = p w, in x up to x^bound,
    with int coefficients in the ring ("x", "v") whose "v" holds w.
    log(x) = sum_i v^(e_i) x^(p^(ni)) / p^i with e_i = (p^(ni)-1)/(p^n-1) >= i
    is x + sum_(i>0) p^(e_i - i) w^(e_i) x^(p^(ni)), so _newton's ring
    operations keep every series solved from it integral (Hazewinkel,
    Formal Groups and Applications, sections 2-5)."""
    require_prime(p)
    if n < 1:
        raise InvalidInputError("height n must be >= 1")
    terms = {}
    i = 0
    while p ** (n * i) <= bound:
        e = (p ** (n * i) - 1) // (p**n - 1)
        terms[(p ** (n * i), e)] = p ** (e - i)
        i += 1
    return TruncPoly(PolyRing(vars=("x", "v"), bounds=(bound, None)), terms)


def _honda_log_exp(p: int, n: int, bound: int):
    """(log, exp) of the height-n Honda law over Z[w], as in _honda_log; exp
    is the reversion of log."""
    logw = _honda_log(p, n, bound)
    return logw, _compositional_inverse(logw, "x", bound, TruncPoly.var(logw.ring, "x"))


def _unscale(series: TruncPoly, p: int, n: int, ring: PolyRing) -> TruncPoly:
    """A Honda result over Z[w] in `ring` (over F_p[v]): c w^k -> (c/p^k) v^k.
    Raises IdentityError unless each term x^d w^k has degree 1 for x of
    degree 1 and v of degree 1 - p^n, and p^k divides c."""
    iv = series.ring.index("v")
    out = {}
    for mono, c in series.terms.items():
        k = mono[iv]
        d = sum(mono) - k
        if d - 1 != k * (p**n - 1):
            raise IdentityError(f"honda term of degree {d} carries v^{k}",
                                {"p": p, "n": n, "degree": d})
        c, r = divmod(c, p**k)
        if r:
            raise IdentityError(f"honda coefficient of degree {d} is not p-integral",
                                {"p": p, "n": n, "degree": d})
        out[mono] = c
    return TruncPoly(ring, out)


def fgl_construct(kind: str, D: int, lam=None, p: int = None,
                  n: int = None) -> FormalGroupLaw:
    """additive -> X+Y; multiplicative -> X+Y+lam*X*Y (lam an integer or the
    symbol 'lam'); honda -> the height-n law over F_p[v] with p-series
    v*x^(p^n)."""
    if kind == "additive":
        ring = _law_ring(("X", "Y"), (), D, 0)
        F = TruncPoly.var(ring, "X") + TruncPoly.var(ring, "Y")
        return FormalGroupLaw(D, F)

    if kind == "multiplicative":
        if lam == "lam":
            ring = _law_ring(("X", "Y"), ("lam",), D, 0)
            lam_poly = TruncPoly.var(ring, "lam")
        else:
            ring = _law_ring(("X", "Y"), (), D, 0)
            lam_poly = TruncPoly.const(ring, int(lam))
        X, Y = TruncPoly.var(ring, "X"), TruncPoly.var(ring, "Y")
        return FormalGroupLaw(D, X + Y + lam_poly * X * Y)

    if kind == "honda":
        logw, expw = _honda_log_exp(p, n, D)
        ring0 = _law_ring(("X", "Y"), ("v",), D, 0)
        lx, ly = (logw.substitute({"x": TruncPoly.var(ring0, nm)}) for nm in ("X", "Y"))
        F = _unscale(expw.substitute({"x": lx + ly}), p, n,
                     _law_ring(("X", "Y"), ("v",), D, p))
        bad = _axiom_failure_degree(F, min(D, 12))
        if bad is not None:
            raise IdentityError(f"honda law fails axioms at degree {bad}",
                                {"p": p, "n": n, "degree": bad})
        return FormalGroupLaw(D, F)

    raise InvalidInputError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# n-series


def _series_var(F: FormalGroupLaw, bound: int):
    ring = F.series_ring("x", bound)
    return ring, TruncPoly.var(ring, "x")


def formal_inverse(F: FormalGroupLaw, bound: int) -> TruncPoly:
    """iota with F(x, iota(x)) = 0: Newton's iteration on F(x, g) from
    g = -x, with slope F_Y(x, g)."""
    _, x = _series_var(F, bound)
    FY = F.F.derivative("Y")
    at = lambda poly, g: poly.substitute({"X": TruncPoly.var(g.ring, "x"), "Y": g})
    iota = _newton(-x, "x", bound, lambda g: at(F.F, g), lambda g: at(FY, g))
    residual = at(F.F, iota)
    if not residual.is_zero():
        raise IdentityError("F(x, iota(x)) is not 0", {"degree": min(residual.terms)[0]})
    return iota


def n_series(F: FormalGroupLaw, m: int, bound: int = None) -> TruncPoly:
    """[m](x), the m-fold formal sum, truncated at the law's degree; built by
    doubling and adding along the binary digits of m, so O(log m) sums."""
    bound = bound or F.D
    ring, x = _series_var(F, bound)
    if m < 0:
        iota = formal_inverse(F, bound)
        pos = n_series(F, -m, bound)
        return iota.substitute({"x": pos})
    cur = x if m else TruncPoly.zero(ring)
    for bit in bin(m)[3:]:
        cur = F.F.substitute({"X": cur, "Y": cur})
        if bit == "1":
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
            raise IdentityError("[m](h) has a term without h", {"m": m})
        new = list(mono)
        new[ix] -= 1
        out[tuple(new)] = c
    return TruncPoly(ring, out)


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
    """[p](x) over F_p[v], computed over Z[w] as the Newton root g of
    log(g) = p log(x) from g = p x, and verified to be exactly v x^(p^n)."""
    if bound < p**n:
        raise InvalidInputError(f"bound {bound} is below p^n = {p**n}")
    logw = _honda_log(p, n, bound)
    mod_ring = PolyRing(vars=("x", "v"), bounds=(bound, None), modulus=p)
    pseries = _unscale(_compositional_inverse(logw, "x", bound, logw * p), p, n, mod_ring)
    expected = TruncPoly(mod_ring, {(p**n, 1): 1})
    if pseries != expected:
        raise IdentityError("honda p-series is not v*x^(p^n)", {"p": p, "n": n})
    return pseries


def honda_pm_divided_series(p: int, n: int, ms) -> dict:
    """<p^m>(h) for the height-n law, keyed by each m in ms: honda_p_series
    raises IdentityError unless [p](x) = v x^(p^n) exactly, and one
    p-series at the largest bound any m needs covers them all. Composing
    x -> v x^(p^n) m times gives v^(e_m) x^(p^(nm)) with
    e_m = sum_(i<m) p^(ni) = (p^(nm) - 1)/(p^n - 1)."""
    honda_p_series(p, n, max(p ** (n * max(ms)), 2 * p**n))
    return {m: {"v_exponent": (p ** (n * m) - 1) // (p**n - 1),
                "h_exponent": p ** (n * m) - 1} for m in ms}


# ---------------------------------------------------------------------------
# the right unit


def _bp_ring(p: int, N: int) -> PolyRing:
    names = tuple(f"v{i}" for i in range(1, N + 1)) + tuple(f"t{i}" for i in range(1, N + 1))
    degs = tuple(2 * p**i - 2 for i in range(1, N + 1)) * 2
    return PolyRing(vars=names, degrees=degs)


def _l_in_terms_of_v(p: int, N: int, ring: PolyRing) -> dict:
    """L_n = p^n l_n for the logarithm coefficients of the Hazewinkel
    recursion l_n = (v_n + sum_(0<i<n) l_i v_(n-i)^(p^i))/p, in integers:
    L_n = p^(n-1) v_n + sum_(0<i<n) p^(n-1-i) L_i v_(n-i)^(p^i)."""
    v = {i: TruncPoly.var(ring, f"v{i}") for i in range(1, N + 1)}
    L = {}
    for nn in range(1, N + 1):
        acc = v[nn] * p ** (nn - 1)
        for i in range(1, nn):
            acc = acc + L[i] * v[nn - i] ** (p**i) * p ** (nn - 1 - i)
        L[nn] = acc
    return L


def bp_right_unit(p: int, N: int) -> dict:
    """eta_R(v_n) in Z_(p)[v_1..v_n, t_1..t_n].

    Computed in integers through the logarithm coefficients (Hazewinkel,
    Formal Groups and Applications, sections 2-5): with L_i = p^i l_i and
    L_0 = t_0 = 1, eta_R(l_n) = sum_i l_i t_(n-i)^(p^i) gives
    E_n = p^n eta_R(l_n) = sum_i p^(n-i) L_i t_(n-i)^(p^i), and the
    generator recursion on the image side gives
        p^(n-1) eta_R(v_n) = E_n - sum_(0<i<n) p^(n-1-i) E_i eta_R(v_(n-i))^(p^i),
    divided exactly by p^(n-1). A remainder, a non-p-integral eta_R(v_n),
    raises IdentityError.
    """
    require_prime(p)
    ring = _bp_ring(p, N)
    L = _l_in_terms_of_v(p, N, ring)
    L[0] = TruncPoly.const(ring, 1)
    t = {i: TruncPoly.var(ring, f"t{i}") for i in range(1, N + 1)}
    t[0] = TruncPoly.const(ring, 1)

    E = {}
    for nn in range(1, N + 1):
        acc = TruncPoly.zero(ring)
        for i in range(0, nn + 1):
            acc = acc + L[i] * t[nn - i] ** (p**i) * p ** (nn - i)
        E[nn] = acc

    eta_v = {}
    for nn in range(1, N + 1):
        acc = E[nn]
        for i in range(1, nn):
            acc = acc - E[i] * eta_v[nn - i] ** (p**i) * p ** (nn - 1 - i)
        eta_v[nn], rem = divmod(acc, p ** (nn - 1))
        if not rem.is_zero():
            raise IdentityError(f"right unit of v_{nn} is not p-integral", {"p": p, "n": nn})
    return eta_v


def polynomial_degree(poly: TruncPoly) -> set:
    """Set of graded degrees of the monomials (uses ring.degrees)."""
    out = set()
    for mono in poly.terms:
        out.add(sum(e * d for e, d in zip(mono, poly.ring.degrees)))
    return out


def b4_cobar_class() -> TruncPoly:
    """(1/2)((eta_R(v_1^4) - v_1^4)/8 - (eta_R(v_1 v_2) - v_1 v_2)) at p = 2,
    as (X - 8Y)/16 for X = eta_R(v_1)^4 - v_1^4 and Y = eta_R(v_1) eta_R(v_2)
    - v_1 v_2: one exact division, whose remainder raises IdentityError."""
    eta = bp_right_unit(2, 2)
    ring = eta[1].ring
    v1 = TruncPoly.var(ring, "v1")
    v2 = TruncPoly.var(ring, "v2")
    out, rem = divmod(eta[1] ** 4 - v1**4 - 8 * (eta[1] * eta[2] - v1 * v2), 16)
    if not rem.is_zero():
        raise IdentityError("degree-8 cobar representative is not 2-integral", {"p": 2})
    return out


# ---------------------------------------------------------------------------
# two-term de Rham-style complexes (consumed by senhom)


def f_derham_complex(F: FormalGroupLaw, weight_bound: int, h_bound: int) -> dict:
    """{m: <m>(h)} for m = 1..weight_bound, in a ring with h capped at
    h_bound: weight m acts on the truncated h-line by <m>(h)."""
    if h_bound < 1:
        raise InvalidInputError(f"h_bound must be >= 1, got {h_bound}")
    return {m: divided_n_series(F, m, h_bound) for m in range(1, weight_bound + 1)}
