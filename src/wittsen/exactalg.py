"""Exact scalar and linear-algebra substrate.

Everything here is exact: arbitrary-precision integers (Python ``int``),
rationals (``fractions.Fraction``), residues mod p^N, truncated multivariate
polynomials, integer Hurwitz series, and Smith normal form over Z and over
the local PIDs of senhom.Eisenstein, Z_(p) among them. No floating point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from math import comb, gcd, inf
from operator import add, itemgetter, mul, sub


class InvalidInputError(ValueError):
    pass


class PrecisionError(ValueError):
    pass


class IdentityError(ArithmeticError):
    """An identity the library checks does not hold; `where` locates it."""

    def __init__(self, message, where):
        super().__init__(message)
        self.where = where


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")


def split_p(p: int, m: int):
    """(v, u) with m = p^v * u and u prime to p; raises on 0."""
    if m == 0:
        raise InvalidInputError("valuation of 0 is undefined")
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v, m


def int_valuation(p: int, m: int) -> int:
    """p-adic valuation of a nonzero integer; raises on 0."""
    return split_p(p, m)[0]


def fraction_valuation(p: int, x: Fraction | int) -> int:
    x = Fraction(x)
    if x == 0:
        raise InvalidInputError("valuation of 0 is undefined")
    return int_valuation(p, x.numerator) - int_valuation(p, x.denominator)


def factorial_valuation(p: int, k: int) -> int:
    """v_p(k!) by Legendre: (k - digit-sum_p(k)) / (p-1)."""
    require_prime(p)
    if k < 0:
        raise InvalidInputError("k must be a natural number")
    s, m = 0, k
    while m:
        s += m % p
        m //= p
    return (k - s) // (p - 1)


# ---------------------------------------------------------------------------
# truncated multivariate polynomials


@dataclass(frozen=True)
class PolyRing:
    """Descriptor for a truncated polynomial/series ring.

    ``bounds[i]`` is the max exponent stored for variable i (None = no cap);
    ``total_bound`` caps the summed exponent of the variables flagged in
    ``counted`` (coefficient-like variables are usually left uncounted).
    ``modulus`` = 0 means characteristic zero (int/Fraction coefficients).
    ``degrees`` is bookkeeping used by graded callers.

    A ring takes at most one cap, read as ``weight(mono) <= cap``, where
    ``weight`` is a callable picked once per ring: the capped variable's
    exponent, else the summed exponent of the counted variables, else 0
    (with cap 0). A second cap raises InvalidInputError.
    """

    vars: tuple[str, ...]
    bounds: tuple = None
    total_bound: int = None
    counted: tuple = None
    modulus: int = 0
    degrees: tuple = None
    cap: int = field(init=False, repr=False, compare=False)
    weight: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.vars)
        if self.bounds is None:
            object.__setattr__(self, "bounds", (None,) * n)
        if self.counted is None:
            object.__setattr__(self, "counted", (True,) * n)
        if self.degrees is None:
            object.__setattr__(self, "degrees", (0,) * n)
        capped = [i for i, b in enumerate(self.bounds) if b is not None]
        if len(capped) + (self.total_bound is not None) > 1:
            raise InvalidInputError(f"a ring takes one cap: {self.bounds}, "
                                    f"total_bound {self.total_bound}")
        counted = self.counted
        if capped:
            cap, weight = self.bounds[capped[0]], itemgetter(capped[0])
        elif self.total_bound is None:
            cap, weight = 0, lambda mono: 0
        elif all(counted):
            cap, weight = self.total_bound, sum
        else:
            cap, weight = self.total_bound, lambda mono: sum(compress(mono, counted))
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "weight", weight)

    def index(self, name: str) -> int:
        return self.vars.index(name)

    def reduce_coeff(self, c):
        if self.modulus:
            if type(c) is Fraction:
                if gcd(c.denominator, self.modulus) != 1:
                    raise InvalidInputError("denominator not invertible mod modulus")
                c = c.numerator * pow(c.denominator, -1, self.modulus)
            return c % self.modulus
        if type(c) is Fraction and c.denominator == 1:
            return c.numerator
        return c


class TruncPoly:
    """Sparse polynomial over PolyRing; monomials above a bound are dropped."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict = None):
        self.ring = ring
        weight, cap, modulus = ring.weight, ring.cap, ring.modulus
        cleaned = {}
        for mono, c in (terms or {}).items():
            if weight(mono) > cap:
                continue
            if modulus or type(c) is not int:
                c = ring.reduce_coeff(c)
            if c:
                cleaned[mono] = c
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring):
        return TruncPoly(ring, {})

    @staticmethod
    def const(ring, c):
        return TruncPoly(ring, {(0,) * len(ring.vars): c})

    @staticmethod
    def var(ring, name):
        mono = [0] * len(ring.vars)
        mono[ring.index(name)] = 1
        return TruncPoly(ring, {tuple(mono): 1})

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: tuple):
        return self.terms.get(tuple(mono), 0)

    def constant_term(self):
        return self.terms.get((0,) * len(self.ring.vars), 0)

    def __eq__(self, other):
        if not isinstance(other, TruncPoly):
            if type(other) not in (int, bool, Fraction):
                return NotImplemented
            other = TruncPoly.const(self.ring, other)
        return self.ring == other.ring and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, TruncPoly):
            other = TruncPoly.const(self.ring, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return TruncPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncPoly):
            other = TruncPoly.const(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return TruncPoly.const(self.ring, other) - self

    def __mul__(self, other):
        if not isinstance(other, TruncPoly):
            return TruncPoly(self.ring, {m: c * other for m, c in self.terms.items()})
        ring = self.ring
        weight, cap = ring.weight, ring.cap
        # weights add under multiplication, so with the right operand sorted
        # by weight each left term's partners end where the cap is passed
        right = sorted((weight(m), m, c) for m, c in other.terms.items())
        weights = [w for w, _, _ in right]
        out = {}
        get = out.get
        for m1, c1 in self.terms.items():
            for _, m2, c2 in right[:bisect_right(weights, cap - weight(m1))]:
                m = tuple(map(add, m1, m2))
                out[m] = get(m, 0) + c1 * c2
        return TruncPoly(ring, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        result = TruncPoly.const(self.ring, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # the square after the top bit would be discarded
                base = base * base
        return result

    def map_coeffs(self, f):
        return TruncPoly(self.ring, {m: f(c) for m, c in self.terms.items()})

    def __divmod__(self, d: int):
        """(q, r) with self = d*q + r, coefficient by coefficient, 0 <= r < d:
        an exact division by d is one whose remainder r is zero."""
        qr = {m: divmod(c, d) for m, c in self.terms.items()}
        return (TruncPoly(self.ring, {m: q for m, (q, _) in qr.items()}),
                TruncPoly(self.ring, {m: r for m, (_, r) in qr.items()}))

    def substitute(self, assignment: dict):
        """Replace variables by polynomials or scalars.

        The result lives in the ring of the first polynomial value, else in
        this ring. Unassigned variables keep their exponents (and must exist
        in the result ring); assigned names missing from this ring are
        ignored. Each assigned variable's value is raised, by `_powers`, only
        to the exponents this polynomial's monomials give it.
        """
        ring = next((v.ring for v in assignment.values() if isinstance(v, TruncPoly)),
                    self.ring)
        # per source variable: an {exponent: power} dict of its value, or the
        # index of the result-ring variable that carries its exponent
        tables = []
        for i, name in enumerate(self.ring.vars):
            used = {m[i] for m in self.terms} - {0}
            if name not in assignment:
                tables.append(ring.index(name) if used else None)
                continue
            val = assignment[name]
            if not isinstance(val, TruncPoly):
                val = TruncPoly.const(ring, val)
            tables.append(_powers(val, used))
        out = {}
        for mono, c in self.terms.items():
            shift = [0] * len(ring.vars)
            term = None
            for e, table in zip(mono, tables):
                if not e:
                    continue
                if isinstance(table, int):
                    shift[table] += e
                    continue
                power = table[e]
                term = power if term is None else term * power
            items = term.terms.items() if term is not None else [((0,) * len(shift), 1)]
            for m, a in items:
                m = tuple(map(add, m, shift))
                if ring.weight(m) <= ring.cap:
                    out[m] = out.get(m, 0) + c * a
        return TruncPoly(ring, out)

    def derivative(self, name: str):
        i = self.ring.index(name)
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                m2 = list(m)
                m2[i] -= 1
                out[tuple(m2)] = c * m[i]
        return TruncPoly(self.ring, out)

    # -- the one-variable exp by a coefficient recurrence (Knuth, TAOCP
    # Vol. 2, section 4.7): O(D^2) coefficient operations, no products

    def _series_coeffs(self):
        """[a_0, ..., a_D] of self for the ring's cap D; refuses a non-constant
        term of weight 0 (it never truncates) and a second variable."""
        ring = self.ring
        if any(ring.weight(m) == 0 and any(m) for m in self.terms):
            raise InvalidInputError("series argument has a term of weight 0")
        if len(ring.vars) != 1:
            raise InvalidInputError("series exp takes a one-variable ring")
        a = [0] * (ring.cap + 1)
        for (e,), c in self.terms.items():
            a[e] = c
        return a

    def series_exp(self):
        """exp(g) = f by n f_n = sum_(k=1..n) k g_k f_(n-k)."""
        if self.constant_term() != 0:
            raise InvalidInputError("exp needs constant term 0")
        reduce_coeff = self.ring.reduce_coeff
        g = self._series_coeffs()
        kg = [(k, k * c) for k, c in enumerate(g) if c]
        f = [1]
        for n in range(1, len(g)):
            f.append(reduce_coeff(Fraction(sum(x * f[n - k] for k, x in kg if k <= n), n)))
        return TruncPoly(self.ring, {(n,): c for n, c in enumerate(f)})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            vs = "*".join(
                f"{n}^{e}" if e > 1 else n
                for n, e in zip(self.ring.vars, m)
                if e
            )
            bits.append(f"{c}" if not vs else (f"{c}*{vs}" if c != 1 else vs))
        return " + ".join(bits)


def _powers(val: TruncPoly, exponents) -> dict:
    """{e: val^e} for the exponents e >= 1 asked for, by products only and
    along an addition chain (Knuth, TAOCP Vol. 2, section 4.6.3): e comes
    from e - 1 when that is built, else from the square of e // 2, which
    for odd e is kept as e - 1 and multiplied by val once more. A power
    that truncates to zero stands for every higher one (truncation is a
    ring quotient), so no product is made past it."""
    table = {1: val}
    zero = 1 if val.is_zero() else inf  # the least exponent found to give 0

    def power(e):
        nonlocal zero
        if e >= zero:
            return table[zero]
        if e not in table:
            if e - 1 in table:
                table[e] = table[e - 1] * val
            else:
                half = power(e // 2)
                if e >= zero:
                    return table[zero]
                table[e & ~1] = half * half
                if e & 1:
                    if table[e - 1].is_zero():
                        zero = e - 1
                        return table[zero]
                    table[e] = table[e - 1] * val
            if table[e].is_zero():
                zero = e
        return table[e]

    return {e: power(e) for e in sorted(exponents)}


def truncated_exp_log(f: TruncPoly, mode: str) -> TruncPoly:
    """Formal exp by mode name, kept for the benchmark's tracing and its tests
    (bench/tracing.py, bench/test_bench.py), which look it up by name."""
    if mode == "exp":
        return f.series_exp()
    raise InvalidInputError(f"unknown mode {mode!r}")


@lru_cache(maxsize=None)
def _binomial_rows(D):
    return tuple(tuple(comb(n, k) for k in range(n + 1)) for n in range(D + 1))


@dataclass(slots=True)
class Hurwitz:
    """sum_k b[k] t^k/k! mod t^(D+1), integer b[k] (Hurwitz series; Keigher, Comm.
    Algebra 25, 1997): t^k/k! t^l/l! = C(k+l, k) t^(k+l)/(k+l)!; d/dt shifts b left."""

    b: list

    def __add__(self, other):
        return Hurwitz(list(map(add, self.b, other.b)))

    def __sub__(self, other):
        return Hurwitz(list(map(sub, self.b, other.b)))

    def __mul__(self, other):
        if isinstance(other, int):
            return Hurwitz([c * other for c in self.b])
        f, g = self.b, other.b
        nonzero = [(k, c) for k, c in enumerate(f) if c]
        return Hurwitz([sum(row[k] * c * g[n - k] for k, c in nonzero if k <= n)
                        for n, row in enumerate(_binomial_rows(len(f) - 1))])

    def __pow__(self, e: int):  # e >= 1: the ghost maps raise to powers of p
        return reduce(mul, [self] * e)

    def __floordiv__(self, d: int):
        return Hurwitz([c // d for c in self.b])

    def exp(self):
        """exp(u) = f by f' = u' f: f_(n+1) = sum_(k<=n) C(n, k) u_(k+1) f_(n-k)."""
        if self.b[0]:
            raise InvalidInputError("exp needs constant term 0")
        du = [(k, c) for k, c in enumerate(self.b[1:]) if c]
        f = [1]
        for n, row in enumerate(_binomial_rows(len(self.b) - 1)[:-1]):
            f.append(sum(row[k] * c * f[n - k] for k, c in du if k <= n))
        return Hurwitz(f)

    def log(self):
        """log(f) = g by f g' = f': with f_0 = 1,
        g_(n+1) = f_(n+1) - sum_(1<=k<=n) C(n, k) f_k g_(n+1-k)."""
        f = self.b
        if f[0] != 1:
            raise InvalidInputError("log needs constant term 1")
        nonzero = [(k, c) for k, c in enumerate(f) if c and k]
        g = [0]
        for n, row in enumerate(_binomial_rows(len(f) - 1)[:-1]):
            g.append(f[n + 1] - sum(row[k] * c * g[n + 1 - k] for k, c in nonzero if k <= n))
        return Hurwitz(g)


# ---------------------------------------------------------------------------
# Smith normal form over Z (divisors only)


@dataclass
class IntMatrix:
    """Dense rectangular integer matrix."""

    rows: int
    cols: int
    entries: list

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise InvalidInputError("ragged matrix")

    @staticmethod
    def from_rows(rows: list) -> "IntMatrix":
        return IntMatrix(len(rows), len(rows[0]) if rows else 0, [list(r) for r in rows])


@dataclass
class SmithDecomposition:
    divisors: list


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix, min(rows, cols)
    of them, nonnegative, zeros last.

    Euclidean elimination: the pivot is an entry of least absolute value, and
    a row is added to the pivot row until the pivot divides the rest of the
    block. No transforms are kept. Entries can grow; Kannan-Bachem (SIAM J.
    Comput. 8, 1979) bound the growth of a polynomial-time variant.
    """
    n, m = A.rows, A.cols
    a = [list(r) for r in A.entries]
    for s in range(min(n, m)):
        while True:
            # leftmost-topmost entry of minimal absolute value in the block
            best = None
            for j in range(s, m):
                for i in range(s, n):
                    x = abs(a[i][j])
                    if x and (best is None or x < best[0]):
                        best = (x, i, j)
            if best is None:
                break
            _, bi, bj = best
            a[s], a[bi] = a[bi], a[s]
            for row in a:
                row[s], row[bj] = row[bj], row[s]
            if a[s][s] < 0:
                a[s] = [-x for x in a[s]]
            piv = a[s][s]
            dirty = False
            for i in range(s + 1, n):
                if a[i][s]:
                    f = a[i][s] // piv
                    a[i] = [x - f * y for x, y in zip(a[i], a[s])]
                    dirty = dirty or a[i][s] != 0
            for j in range(s + 1, m):
                if a[s][j]:
                    f = a[s][j] // piv
                    for row in a:
                        row[j] -= f * row[s]
                    dirty = dirty or a[s][j] != 0
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            fix = next((i for i in range(s + 1, n)
                        if any(a[i][j] % piv for j in range(s + 1, m))), None)
            if fix is None:
                break
            a[s] = [x + y for x, y in zip(a[s], a[fix])]
    return SmithDecomposition([a[i][i] for i in range(min(n, m))])


# ---------------------------------------------------------------------------
# exact SNF over a local PID: the engine behind all homology computations.
#
# The ring is an ops object, in the library always a senhom.Eisenstein:
# Z_(p)[u]/E(u) on integer tuples, and Z_(p) itself on 1-tuples for
# E = u - p. It has the attributes p and zero and the methods is_zero, val,
# add, sub, mul and eliminate. A matrix is a list of
# rows, one per target basis element, each a {column: entry} dict of its
# nonzero entries, with the column count ncols passed beside it; zero is the
# ring's one representation of 0 and never appears in a row. val is the
# valuation of a nonzero element, and eliminate(piv, tail, x, row) is a unit
# times row - (x/piv)*tail as such a dict, for the entries piv and x of one
# column with val(x) >= val(piv) and the dicts of the rest of their rows.


def local_snf(ops, rows: list, ncols: int) -> list:
    """SNF over a local PID given by `ops`: the elementary divisors of a
    matrix of {column: nonzero entry} rows with `ncols` columns, and no
    transforms. The rows are copied, not changed.

    Returns the exponents: the uniformizer-valuations of the nonzero
    diagonal, nondecreasing by minimal-valuation pivoting; the rank is their
    count. The pivot is the first entry of least valuation, rows in order and
    each row by column. Every entry left after a pivot has at least its
    valuation, so the scan for the next pivot stops after the first row that
    reaches it. The pivot row is removed; it divides its whole row, so the
    column operations that would clear it touch nothing else and are
    skipped. Only the rows holding the pivot column are updated, and a row
    that becomes zero is dropped.
    """
    a = [dict(row) for row in rows if row]
    if any(not 0 <= j < ncols for row in a for j in row):
        raise InvalidInputError(f"columns must lie in range({ncols})")
    exps = []
    while a:
        floor, best = exps[-1] if exps else 0, None
        for i, row in enumerate(a):
            for j, x in row.items():
                if best and best[0] == floor and j > best[2]:
                    continue  # no entry right of a least-valuation one wins
                key = (ops.val(x), i, j)
                best = min(best, key) if best else key
            if best[0] == floor:
                break
        v, bi, bj = best
        tail = a.pop(bi)
        piv = tail.pop(bj)
        updated = (ops.eliminate(piv, tail, row.pop(bj), row) if bj in row else row
                   for row in a)
        a = [row for row in updated if row]
        exps.append(v)
    return exps


def matrix_product(ops, P, Q):
    """The rows of P*Q over the ops ring, for P and Q of {column: nonzero
    entry} rows, one at a time and each as such a dict."""
    for row in P:
        acc = {}
        for k, x in row.items():
            for j, y in Q[k].items():
                xy = ops.mul(x, y)
                acc[j] = ops.add(acc[j], xy) if j in acc else xy
        yield {j: z for j, z in acc.items() if not ops.is_zero(z)}
